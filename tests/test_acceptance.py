"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from coverlab.expr import parse_map
from coverlab.metric import (
    SphericalDisk,
    area,
    area_derivative,
    boundary_length,
    lengtharea_certificate,
    select_radii,
)
from coverlab.count import find_islands, mean_degree, total_ramification
from coverlab.trace import (
    GraphSpec,
    RectangleChart,
    arc_test_integral,
    build_preimage_graph,
    classify_arcs,
    complement_components,
    select_perturbation,
    trace_preimage,
)
from coverlab.verify import (
    verify_euler_identity,
    verify_island_in_component,
)
from coverlab.cli import parse_config_text, run

SQRT_PI = math.sqrt(math.pi)
RHO = 0.2 / SQRT_PI  # standard chordal disk radius
CHART = RectangleChart(1, 0, 0, 1, x_range=(0.7, 1.3), t_range=(-0.1, 0.1))


def check(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def closed_area(d, r):
    return d * r ** (2 * d) / (1 + r ** (2 * d))


# -- shared expensive artifacts ---------------------------------------------


@pytest.fixture(scope="module")
def z5_island_data():
    m = parse_map("z^5")
    per_disk = {}
    for res in (256, 512):
        rows = []
        for center in (0, 1, "inf"):
            isl, amb = find_islands(m, SphericalDisk.of(center, RHO), 10.0, res)
            rows.append((len(isl), amb, isl))
        per_disk[res] = rows
    return per_disk


@pytest.fixture(scope="module")
def exp_graph_schedule():
    m = parse_map("exp(z)")
    radii = select_radii(m, 8.0, 63.0, 4)
    g8 = GraphSpec(node=0.25j, scale=1.0)
    rows = []
    for r in radii:
        pg = build_preimage_graph(m, g8, r, 1024)
        a = area(m, r, tol=1e-6)
        rows.append((r, pg, a))
    return rows


# -- criteria ----------------------------------------------------------------


def test_criterion_01_metric_oracles():
    m = parse_map("z")
    a1 = area(m, 1.0, tol=1e-8)
    l1 = boundary_length(m, 1.0)
    ok = abs(a1 - 0.5) / 0.5 < 1e-6 and abs(l1 - SQRT_PI) / SQRT_PI < 1e-6
    for d in (2, 3, 5):
        md = parse_map(f"z^{d}")
        for r in (1.0, 2.0, 10.0):
            got = area(md, r, tol=1e-8)
            want = closed_area(d, r)
            ok &= abs(got - want) / want < 1e-6
    check(1, "a/l closed forms for z and z^d within 1e-6 relative", ok)


def test_criterion_02_cauchy_schwarz():
    ok = True
    for src in ("z", "z^2", "z^3", "z^5", "exp(z)", "(z^2-1)/(z^2+1)"):
        m = parse_map(src)
        for r in np.geomspace(0.5, 8.0, 7):
            l = boundary_length(m, float(r))
            da = area_derivative(m, float(r))
            ok &= l * l <= 2 * math.pi * r * da * (1 + 1e-3) + 1e-12
    for d in (1, 2, 3, 5):
        m = parse_map("z" if d == 1 else f"z^{d}")
        for r in (0.7, 1.0, 2.0, 5.0):
            l = boundary_length(m, r)
            da = area_derivative(m, r)
            ok &= abs(l * l - 2 * math.pi * r * da) / (l * l) < 1e-4
    check(2, "l^2 <= 2 pi r a' everywhere; equality for z^d within 1e-4", ok)


def test_criterion_03_lengtharea_certificate():
    integral, bound = lengtharea_certificate(parse_map("z"), 1.0, 1000.0)
    ok = abs(integral - 2 * math.pi) / (2 * math.pi) < 0.01
    ok &= abs(bound - 4 * math.pi) / (4 * math.pi) < 1e-6
    ok &= integral <= bound
    for src, r2 in (("z^2", 1000.0), ("exp(z)", 100.0)):
        iv, bd = lengtharea_certificate(parse_map(src), 1.0, r2)
        ok &= iv <= bd + 1e-9
    check(3, "certificate: 2 pi within 1% vs bound 4 pi; holds for z^2, exp", ok)


def test_criterion_04_mean_degree():
    m3 = parse_map("z^3")
    a3 = area(m3, 10.0, tol=1e-8)
    md3 = mean_degree(m3, 10.0, 2000, seed=17)
    ok = abs(md3.mean - a3) <= max(3 * md3.stderr, 0.01 * a3)
    me = parse_map("exp(z)")
    ae = area(me, 20.0, tol=1e-7)
    mde = mean_degree(me, 20.0, 800, seed=17)
    ok &= abs(mde.mean - ae) <= 0.05 * ae
    check(4, "mean degree: z^3 within max(3se,1%) of a(10); exp within 5%", ok)


def test_criterion_05_island_theorem(z5_island_data):
    rows512 = z5_island_data[512]
    counts512 = [n for n, _, _ in rows512]
    counts256 = [n for n, _, _ in z5_island_data[256]]
    a5 = area(parse_map("z^5"), 10.0, tol=1e-8)
    ok = counts512 == [1, 5, 0]
    ok &= sum(counts512) == 6 and 6 >= a5 * (1 - 1e-6)
    ok &= counts256 == counts512  # stability under resolution doubling
    me = parse_map("exp(z)")
    total = 0
    totals_hi = 0
    for center in (1, -1, "inf"):
        isl, amb = find_islands(me, SphericalDisk.of(center, RHO), 20.0, 512)
        total += len(isl)
        isl2, _ = find_islands(me, SphericalDisk.of(center, RHO), 20.0, 1024)
        totals_hi += len(isl2)
    ae = area(me, 20.0, tol=1e-7)
    ok &= total == 13 and 13 >= ae
    ok &= totals_hi == total
    check(5, "islands: z^5 (1,5,0) with 6 >= a(10); exp 13 >= a(20); stable", ok)


def test_criterion_06_asymptotic_euler_equality(exp_graph_schedule):
    m3 = parse_map("z^3")
    pg3 = build_preimage_graph(m3, GraphSpec(node=0.5j, scale=0.5), 3.0, 512)
    ok = pg3.euler == -3
    deviations = []
    for r, pg, a in exp_graph_schedule:
        deviations.append(abs(1.0 - pg.euler / (-a)))
    ok &= deviations[-1] < 0.10
    ok &= deviations[-1] <= deviations[0] + 1e-9
    check(
        6,
        "graph Euler: z^3 gives -3 exactly; exp ratio within 10% and improving",
        ok,
    )


def test_criterion_07_good_and_bad_arcs():
    m3 = parse_map("z^3")
    t_star, lhs, rhs = select_perturbation(m3, 2.0, CHART, 1000)
    pls = trace_preimage(m3, CHART, t_star, 2.0, 512)
    ok = classify_arcs(pls, m3, 2.0) == (3, 0, 0)
    ok &= abs(lhs - rhs) <= 0.02 * max(rhs, 1.0)
    # coarea on runs where the boundary image does cross the chart
    for src, r in (("z", 1.0), ("exp(z)", 6.0), ("exp(z)", 20.0)):
        _, lh, rh = select_perturbation(parse_map(src), r, CHART, 1000)
        ok &= abs(lh - rh) <= 0.02 * max(rh, 1.0)
    check(7, "arcs: z^3 chart gives (3,0,0); coarea identity within 2%", ok)


def test_criterion_08_euler_identity_exact():
    configs = [
        ("z", GraphSpec(node=0.5j, scale=0.5), 2.0, 512),
        ("z^2", GraphSpec(node=0.5j, scale=0.5), 4.0, 512),
        ("z^3", GraphSpec(node=0.5j, scale=0.5), 3.0, 512),
        ("z^3", GraphSpec(node=0.5j, scale=0.5), 0.9, 512),  # bad arcs removed
        ("z^5", GraphSpec(node=0.5j, scale=0.5), 2.0, 512),
        ("exp(z)", GraphSpec(node=0.25j, scale=1.0), 20.0, 512),
    ]
    ok = True
    for src, g8, r, res in configs:
        m = parse_map(src)
        pg = build_preimage_graph(m, g8, r, res)
        comps = complement_components(pg, r, res)
        res_v = verify_euler_identity(pg, comps)
        ok &= res_v.passed
    check(8, "1 = chi(C0) + chi(Gamma_n) + sum chi(C) exactly on 6 configs", ok)


def test_criterion_09_rh_with_ramification(z5_island_data):
    rows = z5_island_data[512]
    islands = [rec for _, _, isl in rows for rec in isl]
    ram = total_ramification(islands)
    a5 = area(parse_map("z^5"), 10.0, tol=1e-8)
    ok = ram == 4
    ok &= 1 + ram <= 2 * a5
    check(9, "Riemann-Hurwitz: 1 + 4 <= 2 a(10) with ramification exactly 4", ok)


def test_criterion_10_island_in_component():
    ok = True
    setups = [
        ("z", GraphSpec(node=0.5j, scale=0.5), 2.0, 0.055),
        ("z^3", GraphSpec(node=0.5j, scale=0.5), 4.0, 0.055),
        ("exp(z)", GraphSpec(node=0.25j, scale=1.0), 20.0, 0.05),
    ]
    for src, g8, r, rho in setups:
        m = parse_map(src)
        disks = [
            SphericalDisk.of(g8.foci[0], rho),
            SphericalDisk.of(g8.foci[1], rho),
            SphericalDisk.of("inf", RHO),
        ]
        pg = build_preimage_graph(m, g8, r, 512)
        comps = complement_components(pg, r, 512)
        islands = []
        ambiguous = 0
        for k, disk in enumerate(disks):
            isl, amb = find_islands(m, disk, r, 512)
            ambiguous += amb
            for rec in isl:
                rec.disk_index = k
            islands.extend(isl)
        ok &= ambiguous == 0
        ok &= verify_island_in_component(comps, islands, g8, disks).passed
    check(10, "every interior component contains its disk's island (3 maps)", ok)


DETERMINISM_CONFIG = """\
map = z
radii.list = 2
disk.1.center = -0.5+0.5i
disk.1.radius = 0.055
disk.2.center = 0.5+0.5i
disk.2.radius = 0.055
disk.3.center = inf
disk.3.radius = 0.112837916709551
graph.node = 0.5i
graph.scale = 0.5
resolution = 256
seed = 3
samples = 150
verifiers = mean_degree, islands, graph, rh, euler, containment
outputs = {out}
"""


def test_criterion_11_determinism(tmp_path):
    outdir = tmp_path / "det"
    cfg = parse_config_text(DETERMINISM_CONFIG.format(out=outdir))
    code1 = run(cfg)
    blobs1 = {
        p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()
    }
    shutil.rmtree(outdir)
    cfg2 = parse_config_text(DETERMINISM_CONFIG.format(out=outdir))
    code2 = run(cfg2)
    blobs2 = {
        p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()
    }
    ok = code1 == code2 == 0
    ok &= set(blobs1) == set(blobs2)
    ok &= all(blobs1[name] == blobs2[name] for name in blobs1)
    check(11, "identical config and seed give byte-identical CSV/JSON/SVG", ok)
