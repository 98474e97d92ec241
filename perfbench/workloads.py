"""Workload configs, output flattening and the checks against the reference.

The Monte-Carlo seed written into a config is ``seed % MC_SEEDS``; the
reference holds the seed-dependent values for each of those seeds, so a
run with any benchmark seed can be checked value by value.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

MC_SEEDS = 16
RTOL = 1e-6
ATOL = 1e-12

_RHO = repr(0.2 / math.sqrt(math.pi))
_CHART = """\
chart.moebius = 1, 0, 0, 1
chart.x_range = 0.7, 1.3
chart.t_range = -0.1, 0.1
"""

WORKLOADS = {
    "exp-degree": """\
map = exp(z)
radii.list = 8, 20
samples = 200
""" + _CHART + """\
verifiers = mean_degree, arcs
""",
    "exp-topology": f"""\
map = exp(z)
radii.mode = length-area-selected
radii.min = 30
radii.max = 80
radii.count = 2
resolution = 2048
graph.node = 0.25i
graph.scale = 1
disk.1.center = 1+0.25i
disk.1.radius = 0.05
disk.2.center = -1+0.25i
disk.2.radius = 0.05
disk.3.center = inf
disk.3.radius = {_RHO}
verifiers = islands, graph, rh, euler, containment
""",
    "poly-sweep": f"""\
map = z^5
radii.list = 2, 3, 5, 7, 10
resolution = 512
samples = 100
disk.1.center = 0
disk.1.radius = {_RHO}
disk.2.center = 1
disk.2.radius = {_RHO}
disk.3.center = inf
disk.3.radius = {_RHO}
graph.node = 0.5i
graph.scale = 0.5
""" + _CHART + """\
verifiers = mean_degree, islands, graph, arcs, rh, euler
""",
}

OUTPUTS_DIR = "out"


def mc_seed(seed):
    return seed % MC_SEEDS


def config_text(workload, seed):
    return WORKLOADS[workload] + f"seed = {mc_seed(seed)}\noutputs = {OUTPUTS_DIR}\n"


def read_outputs(outdir):
    """summary.json as a dict and report.csv as a list of row dicts (strings)."""
    outdir = Path(outdir)
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    with open(outdir / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return summary, rows


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}", item, out)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            _flatten(f"{prefix}.{k}", item, out)
    else:
        out[prefix] = value


def flatten(summary, rows, int_columns):
    """Every output value under a dotted key; report cells typed by column.

    ``config.seed`` is left out: it is the one input that differs between
    seeds of a workload, and the caller checks it on its own.
    """
    out = {}
    _flatten("summary", summary, out)
    del out["summary.config.seed"]
    for k, row in enumerate(rows):
        for col, cell in row.items():
            if cell:
                out[f"report.{k}.{col}"] = int(cell) if col in int_columns else float(cell)
    return out


def _same(ref, value):
    if isinstance(ref, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        return abs(value - ref) <= RTOL * abs(ref) + ATOL
    return type(ref) is type(value) and ref == value


def expected_values(reference, workload, seed):
    entry = reference[workload]
    return {**entry["shared"], **entry["by_seed"].get(str(mc_seed(seed)), {})}


def changed_values(summary, rows, expected):
    """Keys whose value differs from the reference, is missing or is new."""
    int_columns = {key.split(".", 2)[2] for key, ref in expected.items()
                   if key.startswith("report.") and isinstance(ref, int)}
    got = flatten(summary, rows, int_columns)
    return sorted(key for key in expected.keys() | got.keys()
                  if key not in got or key not in expected
                  or not _same(expected[key], got[key]))


def closed_form_errors(workload, rows):
    """Radii where a(r) misses a closed form: a(r) = 5 r^10 / (1 + r^10) for z^5."""
    if workload != "poly-sweep":
        return []
    bad = []
    for row in rows:
        r, a = float(row["r"]), float(row["a"])
        exact = 5.0 * r**10 / (1.0 + r**10)
        if abs(a - exact) > 1e-6 * exact:
            bad.append(r)
    return bad


def verdict_slots(summary, rows):
    """(verifier, radius) verdicts as booleans; a stage error fails its slots.

    The per-radius rule for each verifier is the one of
    ``coverlab.verify.verdicts_from_report``; ``containment`` writes no
    per-radius column, so its summary verdict stands for each radius.
    """
    rules = {
        "mean_degree": lambda r: float(r["mean_err"]) <= float(r["mean_allowed"]),
        "islands": lambda r: int(r["island_count"])
        >= float(r["a"]) * (1 - float(r["island_slack_allowed"])),
        "graph": lambda r: float(r["graph_err"]) <= float(r["graph_allowed"]),
        "euler": lambda r: int(r["euler_identity"]) == 1,
        "rh": lambda r: float(r["rh_lhs"]) <= float(r["rh_rhs"]),
        "arcs": lambda r: abs(float(r["coarea_lhs"]) - float(r["coarea_rhs"]))
        <= 0.02 * max(float(r["coarea_rhs"]), 1.0),
    }
    n_radii = max(len(rows), 1)
    slots = []
    for name in summary["config"]["verifiers"]:
        if name not in summary["verifiers"]:
            slots.extend([False] * n_radii)
        elif name == "containment":
            slots.extend([summary["verifiers"][name]["passed"]] * n_radii)
        else:
            slots.extend(rules[name](row) for row in rows)
    return slots
