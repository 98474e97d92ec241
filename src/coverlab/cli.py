"""Experiment configuration and orchestration.

Config files are flat ``key = value`` pairs with dotted sections, UTF-8,
``#`` comments.  Example::

    map = z^5
    radii.mode = explicit-list
    radii.list = 2, 5, 10
    disk.1.center = 0
    disk.1.radius = 0.112837916709551
    disk.2.center = 1
    disk.2.radius = 0.112837916709551
    disk.3.center = inf
    disk.3.radius = 0.112837916709551
    graph.node = 0.5i
    graph.scale = 0.5
    chart.moebius = 1, 0, 0, 1
    chart.x_range = 0.7, 1.3
    chart.t_range = -0.1, 0.1
    resolution = 512
    seed = 7
    samples = 400
    outputs = out
    verifiers = mean_degree, islands, graph, arcs, rh, euler, containment

Without a ``verifiers`` key, a config enables every verifier whose
sections it holds (three disks, a graph, a chart), in stage order.

The subcommands ``islands``, ``graph`` and ``arcs`` are validated as the
verifier of the same name, ``profile`` as none, with or without
``--config``: each section that verifier needs must be there.  Without
``--config``, those sections take the values of _DEFAULT_SECTIONS: the
disks at 1, -1 and inf of radius 0.2/sqrt(pi), the figure-eight at node
0.5i with scale 0.5 and the chart above.  Every subcommand takes its radii
from ``radii.mode`` as ``verify-all`` does.

Exit codes: 0 all enabled verifiers pass (a subcommand printed its rows),
1 verifier failure, 2 config error (also a bad flag), 3 numeric error
during a stage.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from coverlab.expr import ParseError, parse_map
from coverlab.metric import (
    MAX_DISK_RADIUS,
    SphericalDisk,
    _fmt12,
    build_profile,
    chordal_distance,
    select_radii,
)
from coverlab.trace import (
    GraphSpec,
    ImplicitCurve,
    RectangleChart,
    arc_test_integral,
    classify_arcs,
    export_json,
    export_svg,
    select_perturbation,
    trace_preimage,
)
from coverlab.verify import (
    DEFAULT_C1,
    DEFAULT_C2,
    VERIFIERS,
    ExperimentReport,
    radius_contexts,
    verify_euler_identity,
)

# The sections a verifier can need (verify.VERIFIERS), with the values a
# subcommand run without --config gives them.
_RHO = 0.2 / math.sqrt(math.pi)
_DEFAULT_SECTIONS = {
    "disks": tuple(SphericalDisk.of(c, _RHO) for c in (1, -1, "inf")),
    "graph": GraphSpec(node=0.5j, scale=0.5),
    "chart": RectangleChart(1, 0, 0, 1, x_range=(0.7, 1.3), t_range=(-0.1, 0.1)),
}


def _meets(cfg, section):
    """Whether cfg holds a section a verifier needs: 3 disks, a graph, a chart."""
    value = getattr(cfg, section)
    return len(value) == 3 if section == "disks" else value is not None


class ConfigError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.field_path = path


def parse_complex(text):
    """Complex literal for config values: '1+2i', '-0.5i', 'inf', '3'."""
    s = text.strip().lower().replace(" ", "")
    if s in ("inf", "infinity", "oo"):
        return "inf"
    s = s.replace("i", "j")
    # allow bare 'j' suffixes like '2j' and combined 'a+bj'
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"not a complex literal: {text!r}") from exc


@dataclass
class ExperimentConfig:
    map_source: str
    radii_mode: str = "explicit-list"
    radii_list: list = field(default_factory=lambda: [1.0, 2.0, 5.0])
    radii_min: float = 1.0
    radii_max: float = 10.0
    radii_count: int = 3
    disks: list = field(default_factory=list)  # SphericalDisk
    graph: GraphSpec | None = None
    chart: RectangleChart | None = None
    resolution: int = 512
    tolerance: float = 1e-6
    seed: int = 0
    samples: int = 400
    outputs: str = "out"
    verifiers: tuple = tuple(VERIFIERS)
    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2

    def validate(self):
        try:
            parse_map(self.map_source)
        except ParseError as exc:
            raise ConfigError("map", str(exc))
        if self.radii_mode not in ("explicit-list", "length-area-selected"):
            raise ConfigError("radii.mode", f"unknown mode {self.radii_mode!r}")
        if self.radii_mode == "explicit-list" and not self.radii_list:
            raise ConfigError("radii.list", "no radii given")
        if self.radii_mode == "length-area-selected" and not (
            0 < self.radii_min < self.radii_max < math.inf
        ):
            raise ConfigError("radii.min", "need 0 < min < max < inf")
        if self.radii_mode == "length-area-selected" and self.radii_count < 1:
            raise ConfigError("radii.count", "count must be at least 1")
        if self.radii_mode == "explicit-list" and not all(
            0 < r < math.inf for r in self.radii_list
        ):
            raise ConfigError("radii.list", "radii must be positive and finite")
        if self.resolution < 64:
            raise ConfigError("resolution", "resolution must be at least 64")
        if self.samples < 100:
            raise ConfigError("samples", "samples must be at least 100")
        if self.seed < 0:
            raise ConfigError("seed", "seed must be non-negative")
        if not 0 < self.tolerance < math.inf:
            raise ConfigError("tolerance", "tolerance must be positive and finite")
        for key, value in (("slack.c1", self.c1), ("slack.c2", self.c2)):
            if not 0 <= value < math.inf:
                raise ConfigError(key, "must be non-negative and finite")
        enabled = set(self.verifiers)
        unknown = enabled - set(VERIFIERS)
        if unknown:
            raise ConfigError("verifiers", f"unknown verifiers {sorted(unknown)}")
        for section in _DEFAULT_SECTIONS:
            needing = sorted(name for name in enabled if section in VERIFIERS[name].needs)
            if needing and not _meets(self, section):
                what = "exactly 3 disks" if section == "disks" else f"{section} section"
                raise ConfigError(section, f"{what} required for {needing}")
        for k, disk in enumerate(self.disks, start=1):
            if not 0 < disk.radius < MAX_DISK_RADIUS:
                raise ConfigError(
                    f"disk.{k}.radius",
                    f"must lie in (0, {MAX_DISK_RADIUS:.6f})",
                )
        for i in range(len(self.disks)):
            for j in range(i + 1, len(self.disks)):
                a, b = self.disks[i], self.disks[j]
                if chordal_distance(a.center, b.center) <= a.radius + b.radius:
                    raise ConfigError(
                        f"disk.{j + 1}", f"overlaps disk.{i + 1} (disks must be disjoint)"
                    )
        return self

    def resolved(self):
        """Plain-dict view for summary.json (fully self-describing)."""
        doc = {
            "map": self.map_source,
            "radii": {
                "mode": self.radii_mode,
                "list": self.radii_list,
                "min": self.radii_min,
                "max": self.radii_max,
                "count": self.radii_count,
            },
            "disks": [
                {
                    "center": "inf" if d.center.is_infinity else [d.center.value.real, d.center.value.imag],
                    "radius": d.radius,
                }
                for d in self.disks
            ],
            "resolution": self.resolution,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "samples": self.samples,
            "outputs": self.outputs,
            "verifiers": list(self.verifiers),
            "slack": {"c1": self.c1, "c2": self.c2},
        }
        if self.graph is not None:
            doc["graph"] = {
                "kind": self.graph.kind,
                "node": [self.graph.node.real, self.graph.node.imag],
                "scale": self.graph.scale,
            }
        if self.chart is not None:
            doc["chart"] = {
                "moebius": [
                    [c.real, c.imag]
                    for c in (self.chart.a, self.chart.b, self.chart.c, self.chart.d)
                ],
                "x_range": list(self.chart.x_range),
                "t_range": list(self.chart.t_range),
            }
        return doc


_KNOWN_KEYS = re.compile(
    r"^(map|radii\.(mode|list|min|max|count)|disk\.\d+\.(center|radius)|"
    r"graph\.(kind|node|scale)|chart\.(moebius|x_range|t_range)|"
    r"resolution|tolerance|seed|samples|outputs|verifiers|slack\.(c1|c2))$"
)


def parse_config_text(text):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KNOWN_KEYS.match(key):
            raise ConfigError(key, "unknown configuration key")
        pairs[key] = value
    return build_config(pairs)


def build_config(pairs):
    if "map" not in pairs:
        raise ConfigError("map", "missing map definition")
    cfg = ExperimentConfig(map_source=pairs["map"])

    def floats(key):
        return [float(v) for v in pairs[key].split(",") if v.strip()]

    if "radii.mode" in pairs:
        cfg.radii_mode = pairs["radii.mode"].strip()
    if "radii.list" in pairs:
        try:
            cfg.radii_list = floats("radii.list")
        except ValueError as exc:
            raise ConfigError("radii.list", str(exc))
    for key, attr, conv in (
        ("radii.min", "radii_min", float),
        ("radii.max", "radii_max", float),
        ("radii.count", "radii_count", int),
        ("resolution", "resolution", int),
        ("tolerance", "tolerance", float),
        ("seed", "seed", int),
        ("samples", "samples", int),
        ("outputs", "outputs", str),
        ("slack.c1", "c1", float),
        ("slack.c2", "c2", float),
    ):
        if key in pairs:
            try:
                setattr(cfg, attr, conv(pairs[key]))
            except ValueError as exc:
                raise ConfigError(key, str(exc))

    disk_ids = sorted(
        {int(k.split(".")[1]) for k in pairs if k.startswith("disk.")}
    )
    disks = []
    for n in disk_ids:
        ckey, rkey = f"disk.{n}.center", f"disk.{n}.radius"
        if ckey not in pairs or rkey not in pairs:
            raise ConfigError(f"disk.{n}", "needs both center and radius")
        try:
            center = parse_complex(pairs[ckey])
            disks.append(SphericalDisk.of(center, float(pairs[rkey])))
        except ValueError as exc:
            raise ConfigError(f"disk.{n}", str(exc))
    cfg.disks = disks

    if any(k.startswith("graph.") for k in pairs):
        try:
            cfg.graph = GraphSpec(
                kind=pairs.get("graph.kind", "figure8").strip(),
                node=complex(parse_complex(pairs.get("graph.node", "0.5i"))),
                scale=float(pairs.get("graph.scale", "0.5")),
            )
        except ValueError as exc:
            raise ConfigError("graph", str(exc))

    if any(k.startswith("chart.") for k in pairs):
        try:
            moebius = [parse_complex(v) for v in pairs["chart.moebius"].split(",")]
            if len(moebius) != 4 or "inf" in moebius:
                raise ValueError("moebius needs 4 finite coefficients a, b, c, d")
            x_range = tuple(float(v) for v in pairs["chart.x_range"].split(","))
            t_range = tuple(float(v) for v in pairs["chart.t_range"].split(","))
            cfg.chart = RectangleChart(*[complex(c) for c in moebius],
                                       x_range=x_range, t_range=t_range)
        except KeyError as exc:
            raise ConfigError("chart", f"missing {exc.args[0]}")
        except ValueError as exc:
            raise ConfigError("chart", str(exc))

    if "verifiers" in pairs:
        cfg.verifiers = tuple(
            v.strip() for v in pairs["verifiers"].split(",") if v.strip()
        )
    else:
        cfg.verifiers = tuple(
            name for name, v in VERIFIERS.items() if all(_meets(cfg, s) for s in v.needs)
        )
    return cfg.validate()


def load_config(path):
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"config file not found: {path}")
    return parse_config_text(p.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Orchestration


def run(cfg):
    """Execute the enabled verifiers, write artifacts, return the exit code.

    The radius schedule and the metric profile (profile.csv) come first; a
    failure there ends the run with exit code 3.  Then one RadiusContext
    per radius takes a and l from the profile and computes the islands, the
    preimage graph and its complement at most once for all verifiers.  Each
    enabled verifier is one stage, in verify.VERIFIERS order: it merges its
    own columns into report.csv, writes its exports (islands_<r>.svg,
    graph_<r>.svg, graph_<r>.json; these draw the islands whenever an
    enabled verifier needs the disks) and records its verdict in
    summary.json.
    A stage that raises records its error instead, and the next stage runs.
    Exit code: 3 if any stage raised, else 0 when every verdict passed,
    else 1.  The verdicts are the rules verify.verdicts_from_report applies
    to report.csv.
    """
    m = parse_map(cfg.map_source)
    outdir = Path(cfg.outputs)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {"config": cfg.resolved(), "verifiers": {}, "errors": []}
    stage = "radius-selection"
    try:
        radii, areas = _radii(m, cfg)
        summary["radii"] = radii
        stage = "profile"
        profile = build_profile(m, radii, cfg.tolerance, areas)
        profile.to_csv(outdir / "profile.csv")
    except (ValueError, ArithmeticError) as exc:
        summary["errors"].append({"stage": stage, "error": str(exc)})
        _write_summary(outdir, summary, exit_code=3)
        return 3

    report = ExperimentReport()
    for r, a, l in zip(profile.radii, profile.a, profile.l):
        report.merge_row(r, {"a": a, "l": l, "resolution": cfg.resolution})
    contexts = radius_contexts(m, profile, cfg.resolution, cfg.disks, cfg.graph)
    draw_islands = any("disks" in VERIFIERS[name].needs for name in cfg.verifiers)
    for name, verifier in VERIFIERS.items():
        if name not in cfg.verifiers:
            continue
        try:
            result = verifier.stage(contexts, cfg)
            for row in result.rows:
                report.merge_row(row["r"], {c: row[c] for c in verifier.columns})
            for ctx in contexts:
                _export(name, ctx, outdir, draw_islands)
        except (ValueError, ArithmeticError) as exc:
            summary["errors"].append({"stage": name, "error": str(exc)})
            continue
        summary["verifiers"][name] = {
            "passed": bool(result.passed),
            "worst_slack": result.worst_slack,
            "trend_ok": bool(result.trend_ok),
        }

    report.to_csv(outdir / "report.csv")
    if summary["errors"]:
        code = 3
    elif all(v["passed"] for v in summary["verifiers"].values()):
        code = 0
    else:
        code = 1
    _write_summary(outdir, summary, exit_code=code)
    return code


def _radii(m, cfg):
    """(radii, areas): radii.list with no a(r) known, or the length-area-
    selected radii with their a(r) at cfg.tolerance from the selection grid."""
    if cfg.radii_mode == "length-area-selected":
        radii = select_radii(m, cfg.radii_min, cfg.radii_max, cfg.radii_count, tol=cfg.tolerance)
        return radii, radii.areas
    return list(cfg.radii_list), {}


def _export(name, ctx, outdir, draw_islands):
    """The files stage `name` writes for one radius; islands only if drawn."""
    stem = _fmt12(ctx.r)
    if name == "islands":
        export_svg(outdir / f"islands_{stem}.svg", ctx.r, islands=ctx.islands)
    elif name == "graph":
        export_svg(
            outdir / f"graph_{stem}.svg",
            ctx.r,
            graph=ctx.graph,
            islands=ctx.islands if draw_islands else None,
        )
    elif name == "euler":
        export_json(
            outdir / f"graph_{stem}.json",
            graph=ctx.graph,
            components=ctx.complement,
            islands=ctx.islands if draw_islands else None,
        )


def _write_summary(outdir, summary, exit_code):
    summary["exit_code"] = exit_code
    with open(Path(outdir) / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Command line


def _base_parser(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--map", dest="map_source", help="map source expression")
    p.add_argument("--r", dest="radius", help="radius or comma list of radii")
    p.add_argument("--config", help="config file (flags override its values)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--resolution", type=int,
                   help="graph and complement grids; ring and margin of islands and arcs")
    return p


def _effective_config(args):
    """The config of a subcommand, validated as its verifier (see the module
    docstring): --config or --map with _DEFAULT_SECTIONS, then the flags."""
    if args.config:
        cfg = load_config(args.config)
    elif not args.map_source:
        raise ConfigError("map", "missing map (--map or --config)")
    else:
        cfg = ExperimentConfig(map_source=args.map_source)
    if args.command != "verify-all":
        cfg.verifiers = (args.command,) if args.command in VERIFIERS else ()
    if not args.config:
        for name in cfg.verifiers:
            for section in VERIFIERS[name].needs:
                setattr(cfg, section, _DEFAULT_SECTIONS[section])
    node, scale = getattr(args, "node", None), getattr(args, "scale", None)
    if cfg.graph is not None and (node is not None or scale is not None):
        try:
            cfg.graph = replace(
                cfg.graph,
                node=cfg.graph.node if node is None else complex(parse_complex(node)),
                scale=cfg.graph.scale if scale is None else scale,
            )
        except ValueError as exc:
            raise ConfigError("graph", str(exc))
    if args.map_source:
        cfg.map_source = args.map_source
    if args.radius:
        cfg.radii_mode = "explicit-list"
        try:
            cfg.radii_list = [float(v) for v in str(args.radius).split(",")]
        except ValueError as exc:
            raise ConfigError("radii.list", str(exc))
    if args.out:
        cfg.outputs = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.resolution is not None:
        cfg.resolution = args.resolution
    return cfg.validate()


def _contexts(cfg):
    """One RadiusContext per radius of a subcommand's config."""
    m = parse_map(cfg.map_source)
    radii, areas = _radii(m, cfg)
    profile = build_profile(m, radii, cfg.tolerance, areas)
    return radius_contexts(m, profile, cfg.resolution, cfg.disks, cfg.graph)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="coverlab",
        description="covering-surface experiments on the Riemann sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _base_parser(sub, "profile", "print a(r), l(r) and their ratio")
    _base_parser(sub, "islands", "count islands over the configured disks")
    g = _base_parser(sub, "graph", "trace the figure-eight preimage")
    g.add_argument("--node", help="figure-eight node (complex literal)")
    g.add_argument("--scale", type=float, help="figure-eight scale")
    _base_parser(sub, "arcs", "classify the lifts of a chart segment")
    _base_parser(sub, "verify-all", "run every enabled verifier from a config")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "profile":
            for ctx in _contexts(_effective_config(args)):
                print(
                    f"r={_fmt12(ctx.r)} a={_fmt12(ctx.a)} l={_fmt12(ctx.l)} "
                    f"ratio={_fmt12(ctx.l / ctx.a)}"
                )
            return 0

        if args.command == "islands":
            for ctx in _contexts(_effective_config(args)):
                per_disk = [
                    sum(rec.disk_index == k for rec in ctx.islands) for k in range(3)
                ]
                print(
                    f"r={_fmt12(ctx.r)} islands={len(ctx.islands)} per_disk={per_disk} "
                    f"ambiguous={ctx.ambiguous_islands} a={_fmt12(ctx.a)}"
                )
            return 0

        if args.command == "graph":
            for ctx in _contexts(_effective_config(args)):
                row = verify_euler_identity(ctx.graph, ctx.complement).rows[0]
                print(
                    f"r={_fmt12(ctx.r)} V={len(ctx.graph.vertices)} "
                    f"E={len(ctx.graph.retained_arcs)} euler={row['graph_euler']} "
                    f"chi_c0={row['chi_c0']} sum_chi_c={row['sum_chi_c']} "
                    f"identity={row['euler_identity']}"
                )
            return 0

        if args.command == "arcs":
            cfg = _effective_config(args)
            m = parse_map(cfg.map_source)
            for r in _radii(m, cfg)[0]:
                t_star, lhs, rhs = select_perturbation(m, r, cfg.chart, 1000)
                seg = ImplicitCurve.segment(cfg.chart, t_star)
                pls = trace_preimage(m, seg, r, cfg.resolution)
                good, bad, suspect = classify_arcs(pls, m, seg, r)
                integral = arc_test_integral(m, cfg.chart, t_star, r)
                print(
                    f"r={_fmt12(r)} t_star={_fmt12(t_star)} good={good} bad={bad} "
                    f"suspect={suspect} coarea=({_fmt12(lhs)},{_fmt12(rhs)}) "
                    f"arc_integral={_fmt12(integral)}"
                )
            return 0

        if args.command == "verify-all":
            if not args.config:
                raise ConfigError("config", "verify-all requires --config")
            return run(_effective_config(args))
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
