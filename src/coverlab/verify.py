"""Per-radius experiment reports and the asymptotic verifiers.

The source statements are limits; a finite run certifies them as per-radius
inequalities with explicit slack (linear in the boundary length l(r) plus a
resolution term) together with a trend requirement along the radius
schedule.  Slack constants are recorded in every report rather than hidden.

All pass/fail decisions are recomputable from the CSV columns alone.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from coverlab.count import (
    find_islands,
    mean_degree,
    total_ramification,
)
from coverlab.metric import area, boundary_length
from coverlab.trace import build_preimage_graph

DEFAULT_C1 = 4.0  # slack coefficient on l/a (or l)
DEFAULT_C2 = 50.0  # slack coefficient on 1/resolution


@dataclass
class VerifierResult:
    name: str
    passed: bool
    rows: list
    worst_slack: float
    trend_ok: bool
    message: str = ""


def _trend_nonincreasing(needed, grace=1e-9):
    return all(b <= a + grace for a, b in zip(needed, needed[1:]))


def _trend_improving(deviation, grace=1e-9):
    if len(deviation) < 2:
        return True
    return deviation[-1] <= deviation[0] + grace


# ---------------------------------------------------------------------------
# Verifiers


def verify_mean_degree(m, radii, n_samples=400, seed=0, tol=1e-6):
    """Check mean covering degree against the pullback area per radius."""
    rows = []
    needed = []
    for r in radii:
        a = area(m, r, tol=tol)
        l = boundary_length(m, r)
        md = mean_degree(m, r, n_samples, seed=seed)
        err = abs(md.mean - a)
        allowed = max(3 * md.stderr, 0.05 * a + 2 * l)
        rows.append(
            {
                "r": r,
                "a": a,
                "l": l,
                "mean_degree": md.mean,
                "mean_stderr": md.stderr,
                "n_resampled": md.n_resampled,
                "mean_err": err,
                "mean_allowed": allowed,
                "pass": err <= allowed,
            }
        )
        needed.append(max(0.0, err - 3 * md.stderr) / max(a, 1e-12))
    return VerifierResult(
        name="mean_degree",
        passed=all(row["pass"] for row in rows),
        rows=rows,
        worst_slack=max(needed) if needed else 0.0,
        # Monte-Carlo noise floor: the trend grace matches sampling error
        trend_ok=_trend_nonincreasing(needed, grace=1e-3),
    )


def verify_island_theorem(m, disks, radii, resolution=512, tol=1e-6,
                          c1=DEFAULT_C1, c2=DEFAULT_C2):
    """Check island count >= a (1 - slack) per radius, slack trend included."""
    if len(disks) != 3:
        raise ValueError("the island verifier requires exactly 3 disks")
    rows = []
    needed = []
    for r in radii:
        a = area(m, r, tol=tol)
        l = boundary_length(m, r)
        count = 0
        degree_sum = 0
        ram = 0
        ambiguous = 0
        all_islands = []
        for k, disk in enumerate(disks):
            islands, amb = find_islands(m, disk, r, resolution)
            for rec in islands:
                rec.disk_index = k
            all_islands.extend(islands)
            ambiguous += amb
        count = len(all_islands)
        degree_sum = sum(rec.degree for rec in all_islands)
        ram = total_ramification(all_islands)
        slack = c1 * (l / a if a > 0 else math.inf) + c2 / resolution
        ok = count >= a * (1.0 - slack)
        need = max(0.0, 1.0 - count / a) if a > 0 else 0.0
        rows.append(
            {
                "r": r,
                "a": a,
                "l": l,
                "island_count": count,
                "degree_sum": degree_sum,
                "ramification": ram,
                "ambiguous_islands": ambiguous,
                "island_slack_allowed": slack,
                "island_slack_needed": need,
                "resolution": resolution,
                "pass": ok,
                "islands": all_islands,
            }
        )
        needed.append(need)
    return VerifierResult(
        name="islands",
        passed=all(row["pass"] for row in rows),
        rows=rows,
        worst_slack=max(needed) if needed else 0.0,
        trend_ok=_trend_nonincreasing(needed),
    )


def verify_asymptotic_equality(m, graph, radii, resolution=512, tol=1e-6,
                               c1=DEFAULT_C1):
    """Check chi(Gamma_n) ~ a * chi(Gamma) for the traced graph preimage."""
    rows = []
    deviations = []
    for r in radii:
        a = area(m, r, tol=tol)
        l = boundary_length(m, r)
        pg = build_preimage_graph(m, graph, r, resolution)
        bad = sum(1 for arc in pg.arcs if arc.tag == "bad")
        target = a * graph.chi
        err = abs(pg.euler - target)
        allowed = c1 * (l + bad)
        ratio = pg.euler / target if target != 0 else math.inf
        rows.append(
            {
                "r": r,
                "a": a,
                "l": l,
                "graph_euler": pg.euler,
                "good_arcs": sum(1 for arc in pg.arcs if arc.tag == "good"),
                "bad_arcs": bad,
                "suspect_arcs": sum(1 for arc in pg.arcs if arc.tag == "ramified-suspect"),
                "graph_ratio": ratio,
                "graph_err": err,
                "graph_allowed": allowed,
                "pass": err <= allowed,
                "graph_object": pg,
            }
        )
        deviations.append(abs(1.0 - ratio))
    return VerifierResult(
        name="graph",
        passed=all(row["pass"] for row in rows),
        rows=rows,
        worst_slack=max(deviations) if deviations else 0.0,
        trend_ok=_trend_improving(deviations),
    )


def verify_rh_inequality(m, radii, ramification_by_r, resolution=512, tol=1e-6,
                         c1=DEFAULT_C1):
    """Check chi(disk) + ramification <= a * chi(sphere) + slack, sphere only.

    chi(disk) = 1 and chi(sphere) = 2 are fixed; `ramification_by_r` maps
    each radius to the total island ramification measured there.
    """
    rows = []
    needed = []
    for r in radii:
        a = area(m, r, tol=tol)
        l = boundary_length(m, r)
        ram = ramification_by_r[r]
        lhs = 1 + ram
        rhs = 2 * a + c1 * l
        rows.append(
            {
                "r": r,
                "a": a,
                "l": l,
                "ramification": ram,
                "rh_lhs": lhs,
                "rh_rhs": rhs,
                "pass": lhs <= rhs,
            }
        )
        needed.append(max(0.0, (lhs - 2 * a)) / max(a, 1e-12))
    return VerifierResult(
        name="rh",
        passed=all(row["pass"] for row in rows),
        rows=rows,
        worst_slack=max(needed) if needed else 0.0,
        trend_ok=_trend_nonincreasing(needed),
    )


def verify_euler_identity(graph, components):
    """chi(disk) = chi(C_0) + chi(Gamma_n) + sum chi(C), exactly, as integers."""
    chi_c0 = sum(c.chi for c in components.components if c.touches_boundary)
    sum_chi_c = sum(c.chi for c in components.components if not c.touches_boundary)
    total = chi_c0 + graph.euler + sum_chi_c
    return VerifierResult(
        name="euler",
        passed=(total == 1),
        rows=[
            {
                "chi_c0": chi_c0,
                "graph_euler": graph.euler,
                "sum_chi_c": sum_chi_c,
                "total": total,
                "pass": total == 1,
            }
        ],
        worst_slack=float(abs(total - 1)),
        trend_ok=True,
    )


def verify_island_in_component(components, islands, graph_spec, disks):
    """Every interior complement component contains an island of its face's disk.

    The disk assigned to a face is the configured disk whose center lies in
    that face.  Components covering a face with no assigned disk (possible
    only when the face's disk has no islands at all) fail; faces that no
    interior component covers are vacuously fine.
    """
    disk_face = {}
    for k, disk in enumerate(disks):
        center = disk.center
        w = complex(1e9) if center.is_infinity else center.value
        disk_face[graph_spec.face_of(w)] = k
    rows = []
    ok_all = True
    for comp in components.components:
        if comp.touches_boundary:
            continue
        k = disk_face.get(comp.face)
        contains = False
        if k is not None:
            for rec in islands:
                if rec.disk_index != k:
                    continue
                if components.label_of_point(rec.centroid) == comp.label:
                    contains = True
                    break
        ok_all &= contains
        rows.append(
            {
                "face": comp.face,
                "chi": comp.chi,
                "disk_index": k,
                "contains_island": contains,
                "pass": contains,
            }
        )
    return VerifierResult(
        name="containment",
        passed=ok_all,
        rows=rows,
        worst_slack=0.0 if ok_all else 1.0,
        trend_ok=True,
    )


# ---------------------------------------------------------------------------
# Report assembly


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


def _fmt12(x):
    return f"{x:.12g}"


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

    def have(col):
        return [row for row in report.rows if col in row]

    rows = have("mean_err")
    if rows:
        out["mean_degree"] = all(r["mean_err"] <= r["mean_allowed"] for r in rows)
    rows = have("island_count")
    if rows:
        out["islands"] = all(
            r["island_count"] >= r["a"] * (1 - r["island_slack_allowed"]) for r in rows
        ) and _trend_nonincreasing([r["island_slack_needed"] for r in rows])
    rows = have("graph_euler")
    if rows:
        out["graph"] = all(r["graph_err"] <= r["graph_allowed"] for r in rows)
    rows = have("euler_identity")
    if rows:
        out["euler"] = all(r["euler_identity"] == 1 for r in rows)
    rows = have("rh_lhs")
    if rows:
        out["rh"] = all(r["rh_lhs"] <= r["rh_rhs"] for r in rows)
    rows = have("coarea_lhs")
    if rows:
        out["arcs"] = all(
            abs(r["coarea_lhs"] - r["coarea_rhs"]) <= 0.02 * max(r["coarea_rhs"], 1.0)
            for r in rows
        )
    return out
