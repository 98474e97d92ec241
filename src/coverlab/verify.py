"""Per-radius contexts, the asymptotic verifiers and the experiment report.

The source statements are limits; a finite run certifies them as per-radius
inequalities with explicit slack (linear in the boundary length l(r) plus a
resolution term) together with a trend requirement along the radius
schedule.  Slack constants are recorded in every report rather than hidden.

Every verifier is a function of the run's RadiusContexts, one per radius.
A context takes a and l from the metric profile and computes the islands,
the preimage graph and its complement on first use, so each is computed
at most once per (map, radius, resolution) and shared.  VERIFIERS states
each verifier once: its stage, the config sections it needs, its report
columns and its one verdict rule, a predicate on each of its rows (for
islands also the non-increasing slack trend).  The verifiers use the rule,
so the summary and the exit code do, and verdicts_from_report applies it
to report.csv: every verdict but containment's (which writes no report
column) can be recomputed from the CSV columns alone.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from coverlab.count import (
    find_islands,
    mean_degree,
    total_ramification,
)
from coverlab.expr import MapExpr
from coverlab.metric import _fmt12
from coverlab.trace import (
    GraphSpec,
    arc_test_integral,
    build_preimage_graph,
    complement_components,
    select_perturbation,
)

DEFAULT_C1 = 4.0  # slack coefficient on l/a (or l)
DEFAULT_C2 = 50.0  # slack coefficient on 1/resolution


@dataclass
class VerifierResult:
    name: str
    passed: bool
    rows: list
    worst_slack: float
    trend_ok: bool


@dataclass(eq=False)
class RadiusContext:
    """The quantities of one (map, radius, resolution), each computed once.

    a and l come from the metric profile.  The islands over the disks (with
    disk_index set), the figure-eight preimage graph and its complement are
    computed on first use and kept.  A computation that raises keeps
    nothing, so the next verifier that needs it recomputes it.
    """

    m: MapExpr
    r: float
    a: float
    l: float
    resolution: int = 512
    disks: tuple = ()
    graph_spec: GraphSpec | None = None

    @cached_property
    def island_scan(self):
        """(islands of all disks, each with its disk_index; ambiguous count),
        from one `find_islands` call per disk."""
        islands, ambiguous = [], 0
        for k, disk in enumerate(self.disks):
            found, amb = find_islands(self.m, disk, self.r, self.resolution)
            for rec in found:
                rec.disk_index = k
            islands.extend(found)
            ambiguous += amb
        return islands, ambiguous

    @property
    def islands(self):
        return self.island_scan[0]

    @property
    def ambiguous_islands(self):
        return self.island_scan[1]

    @cached_property
    def graph(self):
        return build_preimage_graph(self.m, self.graph_spec, self.r, self.resolution)

    @cached_property
    def complement(self):
        return complement_components(self.graph, self.r, self.resolution)


def radius_contexts(m, profile, resolution=512, disks=(), graph_spec=None):
    """One RadiusContext per row of a metric profile (at its nudged radii)."""
    return [
        RadiusContext(m, r, a, l, resolution, tuple(disks), graph_spec)
        for r, a, l in zip(profile.radii, profile.a, profile.l)
    ]


# ---------------------------------------------------------------------------
# The verifier table


@dataclass(frozen=True)
class Verifier:
    """One verifier: `stage` maps (contexts, config) to its VerifierResult;
    `needs` names the config sections it uses ("disks", exactly three of
    them, "graph" and "chart"); `columns` are its report.csv columns, the
    first one marking the rows it wrote; `rule` holds on each passing row."""

    stage: Callable
    needs: tuple
    columns: tuple
    rule: Callable


# Every verifier, in stage order.  The stages look the verify_* functions up
# by their module names on each call, so a rebinding of those names (as
# perfbench's tracer does) sees every call.
VERIFIERS = {
    "mean_degree": Verifier(
        lambda contexts, cfg: verify_mean_degree(contexts, cfg.samples, cfg.seed),
        (),
        ("mean_err", "mean_allowed", "mean_degree", "mean_stderr"),
        lambda row: row["mean_err"] <= row["mean_allowed"],
    ),
    "islands": Verifier(
        lambda contexts, cfg: verify_island_theorem(contexts, cfg.c1, cfg.c2),
        ("disks",),
        (
            "island_count",
            "degree_sum",
            "ramification",
            "ambiguous_islands",
            "island_slack_allowed",
            "island_slack_needed",
        ),
        lambda row: row["island_count"] >= row["a"] * (1 - row["island_slack_allowed"]),
    ),
    "graph": Verifier(
        lambda contexts, cfg: verify_asymptotic_equality(contexts, cfg.c1),
        ("graph",),
        (
            "graph_euler",
            "good_arcs",
            "bad_arcs",
            "suspect_arcs",
            "graph_ratio",
            "graph_err",
            "graph_allowed",
        ),
        lambda row: row["graph_err"] <= row["graph_allowed"],
    ),
    "arcs": Verifier(
        lambda contexts, cfg: verify_arcs(contexts, cfg.chart),
        ("chart",),
        ("coarea_lhs", "coarea_rhs", "t_star", "arc_integral"),
        lambda row: abs(row["coarea_lhs"] - row["coarea_rhs"])
        <= 0.02 * max(row["coarea_rhs"], 1.0),
    ),
    "rh": Verifier(
        lambda contexts, cfg: verify_rh_inequality(contexts, cfg.c1),
        ("disks",),
        ("rh_lhs", "rh_rhs", "ramification"),
        lambda row: row["rh_lhs"] <= row["rh_rhs"],
    ),
    "euler": Verifier(
        lambda contexts, cfg: verify_euler_identities(contexts),
        ("graph",),
        ("euler_identity", "chi_c0", "sum_chi_c"),
        lambda row: row["euler_identity"] == 1,
    ),
    "containment": Verifier(
        lambda contexts, cfg: verify_containment(contexts),
        ("disks", "graph"),
        (),
        lambda row: row["contains_island"],
    ),
}


def _trend_nonincreasing(needed, grace=1e-9):
    return all(b <= a + grace for a, b in zip(needed, needed[1:]))


def _trend_improving(deviation, grace=1e-9):
    if len(deviation) < 2:
        return True
    return deviation[-1] <= deviation[0] + grace


def _island_trend_ok(rows):
    """The needed island slack does not increase with r (in any row order)."""
    rows = sorted(rows, key=lambda row: row["r"])
    return _trend_nonincreasing([row["island_slack_needed"] for row in rows])


def _passed(name, rows):
    """The verdict of one verifier on its rows: its rule holds on every row,
    and for islands the needed slack does not increase along the radii."""
    ok = all(VERIFIERS[name].rule(row) for row in rows)
    if name == "islands":
        ok = ok and _island_trend_ok(rows)
    return ok


def _result(name, rows, worst_slack, trend_ok):
    return VerifierResult(
        name=name,
        passed=_passed(name, rows),
        rows=rows,
        worst_slack=worst_slack,
        trend_ok=trend_ok,
    )


# ---------------------------------------------------------------------------
# Verifiers


def verify_mean_degree(contexts, n_samples=400, seed=0):
    """Check mean covering degree against the pullback area per radius."""
    rows = []
    needed = []
    for ctx in contexts:
        a, l = ctx.a, ctx.l
        md = mean_degree(ctx.m, ctx.r, n_samples, seed=seed)
        err = abs(md.mean - a)
        rows.append(
            {
                "r": ctx.r,
                "a": a,
                "l": l,
                "mean_degree": md.mean,
                "mean_stderr": md.stderr,
                "n_resampled": md.n_resampled,
                "mean_err": err,
                "mean_allowed": max(3 * md.stderr, 0.05 * a + 2 * l),
            }
        )
        needed.append(max(0.0, err - 3 * md.stderr) / max(a, 1e-12))
    # Monte-Carlo noise floor: the trend grace matches sampling error
    return _result(
        "mean_degree", rows, max(needed, default=0.0), _trend_nonincreasing(needed, grace=1e-3)
    )


def verify_island_theorem(contexts, c1=DEFAULT_C1, c2=DEFAULT_C2):
    """Check island count >= a (1 - slack) per radius, slack trend included."""
    rows = []
    for ctx in contexts:
        if len(ctx.disks) != 3:
            raise ValueError("the island verifier requires exactly 3 disks")
        a, islands = ctx.a, ctx.islands
        count = len(islands)
        rows.append(
            {
                "r": ctx.r,
                "a": a,
                "l": ctx.l,
                "island_count": count,
                "degree_sum": sum(rec.degree for rec in islands),
                "ramification": total_ramification(islands),
                "ambiguous_islands": ctx.ambiguous_islands,
                "island_slack_allowed": c1 * (ctx.l / a if a > 0 else math.inf)
                + c2 / ctx.resolution,
                "island_slack_needed": max(0.0, 1.0 - count / a) if a > 0 else 0.0,
                "resolution": ctx.resolution,
            }
        )
    worst = max((row["island_slack_needed"] for row in rows), default=0.0)
    return _result("islands", rows, worst, _island_trend_ok(rows))


def verify_asymptotic_equality(contexts, c1=DEFAULT_C1):
    """Check chi(Gamma_n) ~ a * chi(Gamma) for the traced graph preimage."""
    rows = []
    for ctx in contexts:
        pg = ctx.graph
        tags = [arc.tag for arc in pg.arcs]
        bad = tags.count("bad")
        target = ctx.a * ctx.graph_spec.chi
        err = abs(pg.euler - target)
        rows.append(
            {
                "r": ctx.r,
                "a": ctx.a,
                "l": ctx.l,
                "graph_euler": pg.euler,
                "good_arcs": tags.count("good"),
                "bad_arcs": bad,
                "suspect_arcs": tags.count("ramified-suspect"),
                "graph_ratio": pg.euler / target if target != 0 else math.inf,
                "graph_err": err,
                "graph_allowed": c1 * (ctx.l + bad),
            }
        )
    deviations = [abs(1.0 - row["graph_ratio"]) for row in rows]
    return _result("graph", rows, max(deviations, default=0.0), _trend_improving(deviations))


def verify_arcs(contexts, chart):
    """Check the coarea identity on the chart rectangle at every radius.

    The mean crossing count of the boundary image times |t_range| must match
    its vertical variation inside the rectangle within 2%; each row also
    records the selected chart line t* and the test integral along it.
    """
    rows = []
    for ctx in contexts:
        t_star, lhs, rhs = select_perturbation(ctx.m, ctx.r, chart, n_samples=1000)
        rows.append(
            {
                "r": ctx.r,
                "t_star": t_star,
                "coarea_lhs": lhs,
                "coarea_rhs": rhs,
                "arc_integral": arc_test_integral(ctx.m, chart, t_star, ctx.r),
            }
        )
    return _result("arcs", rows, 0.0, True)


def verify_rh_inequality(contexts, c1=DEFAULT_C1):
    """Check chi(disk) + ramification <= a * chi(sphere) + slack, sphere only.

    chi(disk) = 1 and chi(sphere) = 2 are fixed; the ramification is the
    total over the context's islands.
    """
    rows = []
    needed = []
    for ctx in contexts:
        a = ctx.a
        ram = total_ramification(ctx.islands)
        lhs = 1 + ram
        rows.append(
            {
                "r": ctx.r,
                "a": a,
                "l": ctx.l,
                "ramification": ram,
                "rh_lhs": lhs,
                "rh_rhs": 2 * a + c1 * ctx.l,
            }
        )
        needed.append(max(0.0, (lhs - 2 * a)) / max(a, 1e-12))
    return _result("rh", rows, max(needed, default=0.0), _trend_nonincreasing(needed))


def verify_euler_identity(graph, components):
    """chi(disk) = chi(C_0) + chi(Gamma_n) + sum chi(C), exactly, as integers."""
    chi_c0 = sum(c.chi for c in components.components if c.touches_boundary)
    sum_chi_c = sum(c.chi for c in components.components if not c.touches_boundary)
    total = chi_c0 + graph.euler + sum_chi_c
    row = {
        "chi_c0": chi_c0,
        "graph_euler": graph.euler,
        "sum_chi_c": sum_chi_c,
        "euler_identity": total,
    }
    return _result("euler", [row], float(abs(total - 1)), True)


def verify_euler_identities(contexts):
    """verify_euler_identity on the graph and complement of every radius."""
    rows = [
        {"r": ctx.r, **verify_euler_identity(ctx.graph, ctx.complement).rows[0]}
        for ctx in contexts
    ]
    worst = max((abs(row["euler_identity"] - 1) for row in rows), default=0)
    return _result("euler", rows, float(worst), True)


def verify_island_in_component(components, islands, graph_spec, disks):
    """Every interior complement component contains an island of its face's disk.

    The disk assigned to a face is the configured disk whose center lies in
    that face.  Components covering a face with no assigned disk (possible
    only when the face's disk has no islands at all) fail; faces that no
    interior component covers are vacuously fine.
    """
    disk_face = {}
    for k, disk in enumerate(disks):
        disk_face[graph_spec.face_of(disk.center)] = k
    rows = []
    for comp in components.components:
        if comp.touches_boundary:
            continue
        k = disk_face.get(comp.face)
        contains = k is not None and any(
            rec.disk_index == k and components.label_of_point(rec.centroid) == comp.label
            for rec in islands
        )
        rows.append(
            {
                "face": comp.face,
                "chi": comp.chi,
                "disk_index": k,
                "contains_island": contains,
            }
        )
    passed = _passed("containment", rows)
    return VerifierResult("containment", passed, rows, 0.0 if passed else 1.0, True)


def verify_containment(contexts):
    """verify_island_in_component on the complement and islands of every radius."""
    rows = []
    for ctx in contexts:
        res = verify_island_in_component(
            ctx.complement, ctx.islands, ctx.graph_spec, ctx.disks
        )
        rows.extend({"r": ctx.r, **row} for row in res.rows)
    passed = _passed("containment", rows)
    return VerifierResult("containment", passed, rows, 0.0 if passed else 1.0, True)


# ---------------------------------------------------------------------------
# Report assembly


# report.csv's columns in file order; every VERIFIERS[name].columns is among them.
REPORT_COLUMNS = [
    "r",
    "a",
    "l",
    "ratio",
    "mean_degree",
    "mean_stderr",
    "mean_err",
    "mean_allowed",
    "island_count",
    "degree_sum",
    "ramification",
    "ambiguous_islands",
    "island_slack_allowed",
    "island_slack_needed",
    "graph_euler",
    "good_arcs",
    "bad_arcs",
    "suspect_arcs",
    "graph_ratio",
    "graph_err",
    "graph_allowed",
    "chi_c0",
    "sum_chi_c",
    "euler_identity",
    "rh_lhs",
    "rh_rhs",
    "t_star",
    "coarea_lhs",
    "coarea_rhs",
    "arc_integral",
    "resolution",
]

_INT_COLUMNS = {
    "island_count",
    "degree_sum",
    "ramification",
    "ambiguous_islands",
    "graph_euler",
    "good_arcs",
    "bad_arcs",
    "suspect_arcs",
    "chi_c0",
    "sum_chi_c",
    "euler_identity",
    "resolution",
}


@dataclass
class ExperimentReport:
    rows: list = field(default_factory=list)

    def merge_row(self, r, values):
        for row in self.rows:
            if row.get("r") == r:
                row.update(values)
                return
        row = {"r": r}
        row.update(values)
        self.rows.append(row)

    def finalize(self):
        self.rows.sort(key=lambda row: row["r"])
        for row in self.rows:
            a, l = row.get("a"), row.get("l")
            if a and l is not None:
                row["ratio"] = l / a

    def to_csv(self, path):
        self.finalize()
        lines = [",".join(REPORT_COLUMNS)]
        for row in self.rows:
            cells = []
            for col in REPORT_COLUMNS:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif col in _INT_COLUMNS:
                    cells.append(str(int(v)))
                else:
                    cells.append(_fmt12(float(v)))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return text

    @classmethod
    def from_csv(cls, path):
        report = cls()
        with open(path, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                row = {}
                for col, raw in rec.items():
                    if raw == "" or raw is None:
                        continue
                    row[col] = int(raw) if col in _INT_COLUMNS else float(raw)
                report.rows.append(row)
        return report


def verdicts_from_report(report):
    """Recompute every pass/fail decision from report columns alone."""
    out = {}
    for name, verifier in VERIFIERS.items():
        rows = [row for row in report.rows if verifier.columns and verifier.columns[0] in row]
        if rows:
            out[name] = _passed(name, rows)
    return out
