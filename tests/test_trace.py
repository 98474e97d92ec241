import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from coverlab import _march, trace
from coverlab.expr import INF, differentiate, evaluate, evaluate_array, evaluate_ball, parse_map
from coverlab.metric import SphericalDisk
from coverlab.count import (
    ContourPassesThroughRoot,
    IslandRecord,
    WindingError,
    find_islands,
    find_roots,
    ring_radius,
)
from coverlab.trace import (
    Arc,
    GraphPlacementError,
    GraphSpec,
    PreimageGraph,
    RectangleChart,
    ResolutionError,
    TransversalityError,
    _clip_to_disk,
    arc_test_integral,
    build_preimage_graph,
    classify_arcs,
    complement_components,
    export_json,
    export_svg,
    select_perturbation,
    trace_preimage,
)

CHART = RectangleChart(1, 0, 0, 1, x_range=(0.7, 1.3), t_range=(-0.1, 0.1))


def test_chart_validation():
    with pytest.raises(ValueError):
        RectangleChart(1, 2, 1, 2, x_range=(0, 1), t_range=(0, 1))  # ad - bc = 0
    with pytest.raises(ValueError):
        RectangleChart(1, 0, 0, 1, x_range=(1, 0), t_range=(0, 1))


def test_chart_round_trip():
    w = 0.3 - 1.2j
    chart = RectangleChart(2, 1j, 0.5, 1, x_range=(-1, 1), t_range=(-0.2, 0.2))
    assert abs(chart.inverse(chart.apply(w)) - w) < 1e-12


# ---------------------------------------------------------------------------
# tracing


@pytest.mark.parametrize(
    "points,closed",
    [
        (np.linspace(-2, 2, 9) + 0.1j, False),
        (np.array([2, 0.5 + 0.5j, 2 + 1j, 0.2 + 0.1j, 0.3 - 0.4j]), True),
        # a closed chain may repeat its first point at the end; walked once
        (np.array([0.2 + 0.1j, 0.3 - 0.4j, 2, 0.5 + 0.5j, 2 + 1j, 0.2 + 0.1j]), True),
    ],
    ids=["open-line", "closed-ring", "closed-ring-repeating-its-start"],
)
def test_clip_cuts_every_piece_on_the_circle(points, closed):
    r = 1.0
    pieces = _clip_to_disk(points, closed, r)
    assert pieces
    for pts, _, touched in pieces:
        assert touched
        assert abs(abs(pts[0]) - r) <= 1e-12 * r
        assert abs(abs(pts[-1]) - r) <= 1e-12 * r
        assert np.all(np.diff(pts) != 0)
        assert np.all(np.abs(pts[1:-1]) <= r)


def test_trace_resolution_validation():
    with pytest.raises(ValueError):
        trace_preimage(parse_map("z"), CHART, 0.0, 1.0, 32)


# ---------------------------------------------------------------------------
# classification


def test_classify_exp_segment():
    m = parse_map("exp(z)")
    pls = trace_preimage(m, CHART, 0.0, 20.0, 512)
    good, bad, suspect = classify_arcs(pls, m, 20.0)
    assert good == 7
    assert bad <= 2
    assert suspect == 0


@pytest.mark.parametrize("t", [0.05, -0.05])
def test_segment_lift_next_to_a_pole_is_one_good_arc(t):
    # Im(1/z) = t is one circle through the pole z = 0; the part of it over
    # the x-range is the single lift
    m = parse_map("1/z")
    chart = RectangleChart(1, 0, 0, 1, x_range=(-0.3, 0.3), t_range=(-0.1, 0.1))
    pls = trace_preimage(m, chart, t, 25.0, 256)
    assert classify_arcs(pls, m, 25.0) == (1, 0, 0)
    assert len(pls) == 1


def test_classify_conservation():
    m = parse_map("z^3")
    pls = trace_preimage(m, CHART, 0.0, 2.0, 256)
    good, bad, suspect = classify_arcs(pls, m, 2.0)
    assert good + bad + suspect == len(pls)


@pytest.mark.parametrize("d", [3, 5])
def test_segment_lifts_of_a_power_run_between_its_roots(d):
    # z^d lifts the segment from a d-th root of its start to one of its
    # end, on the line Im zeta(f(z)) = t and with Re zeta(f(z)) increasing
    m = parse_map(f"z^{d}")
    pls = trace_preimage(m, CHART, 0.03, 2.0, 512)
    assert len(pls) == d

    def roots(w):
        return w ** (1 / d) * np.exp(2j * np.pi * np.arange(d) / d)

    for pl in pls:
        assert np.abs(pl.points[0] - roots(0.7 + 0.03j)).min() <= 1e-8
        assert np.abs(pl.points[-1] - roots(1.3 + 0.03j)).min() <= 1e-8
        zeta = CHART.apply(evaluate_array(m, pl.points))
        assert np.abs(zeta.imag - 0.03).max() <= 1e-8
        assert np.all(np.diff(zeta.real) > 0)


def test_segment_lifts_through_a_moebius_chart_end_on_preimages_of_its_end():
    m = parse_map("exp(z)")
    chart = RectangleChart(1, 0, 1, 2, x_range=(0.2, 0.6), t_range=(-0.1, 0.1))
    pls = trace_preimage(m, chart, 0.02, 6.0, 512)
    ends = [root.location for root in find_roots(m, complex(chart.inverse(0.6 + 0.02j)), 6.0)]
    good = [pl for pl in pls if not pl.touches_clip]
    assert good
    for pl in good:
        assert np.abs(pl.points[-1] - np.array(ends)).min() <= 1e-8


# z^2 over the chart line t = 0.5, x in (-1.5, 1.5): both end points of the
# segment have their preimages outside |z| < 1, so nothing lifts from inside
WIDE_CHART = RectangleChart(1, 0, 0, 1, x_range=(-1.5, 1.5), t_range=(-0.1, 0.6))


@pytest.mark.parametrize(
    ("source", "chart", "t", "r"),
    [
        ("z^3", CHART, 0.03, 0.9),
        ("z^3", CHART, 0.03, 1.05),
        ("exp(z)", CHART, 0.0, 19.0),
        ("z^2", WIDE_CHART, 0.5, 1.0),
    ],
)
def test_segment_lifts_from_both_ends_are_counted_once(source, chart, t, r):
    # every preimage of either end starts a lift; a complete lift joins one
    # preimage of the start to one of the end and is kept once
    m = parse_map(source)
    pls = trace_preimage(m, chart, t, r, 512)
    n0, n1 = (len(find_roots(m, complex(chart.inverse(x + 1j * t)), r)) for x in chart.x_range)
    assert len(pls) == n0 + n1 - sum(not pl.touches_clip for pl in pls)


@pytest.mark.parametrize(
    ("source", "r", "counts"),
    [
        ("z^5", 10.0, (5, 0, 0)),
        ("z^3", 2.0, (3, 0, 0)),
        ("z^3", 0.9, (0, 3, 0)),
        ("exp(z)", 19.0, (5, 2, 0)),
        ("exp(z)", 20.0, (7, 0, 0)),
        ("1/z", 1.0, (0, 1, 0)),  # the end's preimage is reached by no forward lift
    ],
)
def test_segment_arcs_are_classified_from_both_ends(source, r, counts):
    m = parse_map(source)
    assert classify_arcs(trace_preimage(m, CHART, 0.0, r, 512), m, r) == counts


def test_segment_component_with_no_end_in_the_disk_is_not_an_arc():
    # the preimage of the segment meets |z| < 1 in two arcs that enter and
    # leave through the circle; they are no lifts from inside
    m = parse_map("z^2")
    pls = trace_preimage(m, WIDE_CHART, 0.5, 1.0, 512)
    assert pls == []
    assert classify_arcs(pls, m, 1.0) == (0, 0, 0)


def test_arc_tag_suspects_a_dip_of_the_derivative_or_no_finite_value():
    # z^2 on an arc through its critical point 0, and off it; 1/z at its
    # pole, where |f'| has no finite value
    dm = differentiate(parse_map("z^2"))
    assert trace._arc_tag(dm, np.linspace(-0.5, 0.5, 11) + 0j, False, 2.0, 512) == "ramified-suspect"
    assert trace._arc_tag(dm, np.linspace(0.5, 1.0, 11) + 0.1j, False, 2.0, 512) == "good"
    dm = differentiate(parse_map("1/z"))
    assert trace._arc_tag(dm, np.zeros(2, dtype=complex), False, 2.0, 512) == "ramified-suspect"


# ---------------------------------------------------------------------------
# perturbation selection / coarea


def test_select_perturbation_far_boundary():
    # boundary image of z^3 at r=2 is |w| = 8, far outside the chart
    t, lhs, rhs = select_perturbation(parse_map("z^3"), 2.0, CHART, 500)
    assert lhs == 0.0 and rhs == 0.0
    assert CHART.t_range[0] <= t <= CHART.t_range[1]


def test_coarea_identity_crossing():
    # |z| = 1 crosses the rectangle with one strand of vertical extent 0.2
    t, lhs, rhs = select_perturbation(parse_map("z"), 1.0, CHART, 500)
    assert abs(lhs - 0.2) < 1e-9
    assert abs(lhs - rhs) <= 0.02 * max(rhs, 1.0)


def test_coarea_exp():
    t, lhs, rhs = select_perturbation(parse_map("exp(z)"), 6.0, CHART, 1000)
    assert abs(lhs - rhs) <= 0.02 * max(rhs, 1.0)


# Chart through infinity: zeta(w) = (w - 1) / (w + 1) sends w = -1 to infinity.
MOEBIUS_CHART = RectangleChart(1, -1, 1, 1, x_range=(-0.3, 0.3), t_range=(-0.2, 0.1))

# float.hex of (t_star, coarea_lhs, coarea_rhs) as the per-segment loop form
# of select_perturbation (_select_by_loops below) gives them.
PINNED_SELECTIONS = [
    ("exp(z)", 2 * math.pi, CHART, 1000,
     ("-0x1.f8a0902de00d0p-8", "0x1.d14e3bcd35a85p-6", "0x1.d1d6e525c050ep-6")),
    ("exp(z)", 2 * math.pi, CHART, 137,
     ("0x1.1f04dbbfb83e8p-7", "0x1.7eb124ffa053cp-6", "0x1.d1d6e525c050ep-6")),
    ("exp(z)", 2 * math.pi, MOEBIUS_CHART, 1000,
     ("-0x1.9ad42c3c9eeccp-5", "0x1.c91d14e3bcd37p-5", "0x1.c7a022dcf8abap-5")),
    ("exp(z)", 2 * math.pi, MOEBIUS_CHART, 137,
     ("-0x1.9999999999998p-5", "0x1.d267e5178b661p-5", "0x1.c7a022dcf8abap-5")),
    ("exp(z)", 2 * math.pi + 0.05, CHART, 1000,
     ("-0x1.a36e2eb1c4400p-14", "0x1.eb851eb851eb8p-5", "0x1.e9fe2754af060p-5")),
    ("exp(z)", 2 * math.pi + 0.05, CHART, 137,
     ("0x0.0p+0", "0x1.de5d6e3f8868ap-5", "0x1.e9fe2754af060p-5")),
    ("exp(z)", 2 * math.pi + 0.05, MOEBIUS_CHART, 1000,
     ("-0x1.9ad42c3c9eeccp-5", "0x1.06f694467381ep-4", "0x1.06fc369f0a9bbp-4")),
    ("exp(z)", 2 * math.pi + 0.05, MOEBIUS_CHART, 137,
     ("-0x1.9999999999998p-5", "0x1.0d148e03bcbafp-4", "0x1.06fc369f0a9bbp-4")),
    ("exp(z)", 4 * math.pi + 0.02, CHART, 1000,
     ("-0x1.a36e2eb1c4400p-14", "0x1.9652bd3c36114p-6", "0x1.8dff6fe67a45ap-6")),
    ("exp(z)", 4 * math.pi + 0.02, CHART, 137,
     ("0x0.0p+0", "0x1.7eb124ffa053cp-6", "0x1.8dff6fe67a45ap-6")),
    ("exp(z)", 4 * math.pi + 0.02, MOEBIUS_CHART, 1000,
     ("-0x1.9ad42c3c9eeccp-5", "0x1.ff2e48e8a71dfp-6", "0x1.009e7a26ecc3bp-5")),
    ("exp(z)", 4 * math.pi + 0.02, MOEBIUS_CHART, 137,
     ("-0x1.9999999999998p-5", "0x1.f648808f826dfp-6", "0x1.009e7a26ecc3bp-5")),
    ("exp(z)", 4 * math.pi + 0.06, CHART, 1000,
     ("-0x1.a36e2eb1c4400p-14", "0x1.25460aa64c2f8p-4", "0x1.26836a205e951p-4")),
    ("exp(z)", 4 * math.pi + 0.06, CHART, 137,
     ("0x0.0p+0", "0x1.2afa64e7b5417p-4", "0x1.26836a205e951p-4")),
    ("exp(z)", 4 * math.pi + 0.06, MOEBIUS_CHART, 1000,
     ("-0x1.9ad42c3c9eeccp-5", "0x1.3a92a30553262p-5", "0x1.3acd46cd6c56cp-5")),
    ("exp(z)", 4 * math.pi + 0.06, MOEBIUS_CHART, 137,
     ("-0x1.9999999999998p-5", "0x1.1f04dbbfb83edp-5", "0x1.3acd46cd6c56cp-5")),
    ("exp(z)", 6.0, CHART, 1000,
     ("-0x1.a36e2eb1c4400p-14", "0x0.0p+0", "0x0.0p+0")),
    ("exp(z)", 6.0, CHART, 137,
     ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    ("exp(z)", 6.0, MOEBIUS_CHART, 1000,
     ("-0x1.9ad42c3c9eeccp-5", "0x1.d7dbf487fcb94p-9", "0x1.ba40738729300p-9")),
    ("exp(z)", 6.0, MOEBIUS_CHART, 137,
     ("-0x1.9999999999998p-5", "0x1.1f04dbbfb83edp-8", "0x1.ba40738729300p-9")),
    ("z^5", 1.02, CHART, 1000,
     ("-0x1.3a92a30553300p-12", "0x1.0000000000000p+0", "0x1.0000000000001p+0")),
    ("z^5", 1.02, CHART, 137,
     ("-0x1.7eb124ffa0540p-10", "0x1.005fac493fe82p+0", "0x1.0000000000001p+0")),
    ("z^5", 1.02, MOEBIUS_CHART, 1000,
     ("-0x1.9ad42c3c9eeccp-5", "0x1.8000000000001p+0", "0x1.7fffffffffffdp+0")),
    ("z^5", 1.02, MOEBIUS_CHART, 137,
     ("-0x1.87a94bdd9e15cp-5", "0x1.8000000000001p+0", "0x1.7fffffffffffdp+0")),
    ("z^5", 1.0, CHART, 1000,
     ("-0x1.3a92a30553300p-12", "0x1.0000000000000p+0", "0x1.fffffffffffffp-1")),
    ("z^5", 1.0, CHART, 137,
     ("-0x1.1f04dbbfb83e0p-8", "0x1.005fac493fe82p+0", "0x1.fffffffffffffp-1")),
    ("z^5", 1.0, MOEBIUS_CHART, 1000,
     ("-0x1.95e9e1b089a00p-5", "0x1.8000000000001p+1", "0x1.5999999999a24p+1")),
    ("z^5", 1.0, MOEBIUS_CHART, 137,
     ("-0x1.75b8fe21a291cp-5", "0x1.8000000000001p+1", "0x1.5999999999a24p+1")),
    ("z", 1.0, CHART, 1000,
     ("-0x1.3a92a30553300p-12", "0x1.999999999999ap-3", "0x1.999999999999cp-3")),
    ("z", 1.0, CHART, 137,
     ("-0x1.1f04dbbfb83e0p-8", "0x1.9c96fbe398da5p-3", "0x1.999999999999cp-3")),
    ("z", 1.0, MOEBIUS_CHART, 1000,
     ("-0x1.95e9e1b089a00p-5", "0x1.3333333333334p-1", "0x1.3333333333335p-2")),
    ("z", 1.0, MOEBIUS_CHART, 137,
     ("-0x1.75b8fe21a291cp-5", "0x1.3333333333334p-1", "0x1.3333333333335p-2")),
    ("z^20", 1.0, CHART, 1000,
     ("-0x1.3a92a30553300p-12", "0x1.0000000000000p+2", "0x1.0000000000001p+2")),
    ("z^20", 1.0, CHART, 137,
     ("-0x1.1f04dbbfb83e0p-8", "0x1.0017eb124ffa0p+2", "0x1.0000000000001p+2")),
    ("z^20", 1.0, MOEBIUS_CHART, 1000,
     ("-0x1.9ad42c3c9eeccp-5", "0x1.7666666666667p+3", "0x1.7666666666694p+3")),
    ("z^20", 1.0, MOEBIUS_CHART, 137,
     ("-0x1.9999999999998p-5", "0x1.7666666666667p+3", "0x1.7666666666694p+3")),
    ("z^64", 1.0, CHART, 1000,
     ("-0x1.3a92a30553300p-12", "0x1.999999999999ap+3", "0x1.9999999999992p+3")),
    ("z^64", 1.0, CHART, 137,
     ("-0x1.7eb124ffa0540p-10", "0x1.99bd7a351190ap+3", "0x1.9999999999992p+3")),
    ("z^64", 1.0, MOEBIUS_CHART, 1000,
     ("-0x1.9ad42c3c9eeccp-5", "0x1.3800000000001p+4", "0x1.37f63f63f63fep+4")),
    ("z^64", 1.0, MOEBIUS_CHART, 137,
     ("-0x1.9999999999998p-5", "0x1.3800000000001p+4", "0x1.37f63f63f63fep+4")),
]


@pytest.mark.parametrize(
    ("source", "r", "chart", "n_samples", "expected"),
    PINNED_SELECTIONS,
    ids=[f"{s}-r{r:.4f}-{'moebius' if c is MOEBIUS_CHART else 'default'}-{n}"
         for s, r, c, n, _ in PINNED_SELECTIONS],
)
def test_select_perturbation_is_pinned_bit_for_bit(source, r, chart, n_samples, expected):
    got = select_perturbation(parse_map(source), r, chart, n_samples)
    assert tuple(float(v).hex() for v in got) == expected


def test_select_perturbation_memory():
    # z^64 at r = 1 runs 64 times through the chart: about 2000 segments,
    # each spanning some 30 of the 1000 candidate lines, where a matrix of
    # every segment and candidate would take 73 MB
    m = parse_map("z^64")
    tracemalloc.start()
    try:
        select_perturbation(m, 1.0, CHART, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def _select_by_loops(zeta, chart, n_samples):
    """select_perturbation on a given boundary image, written as loops over
    its segments and candidate lines: the reference that its array passes
    must equal bit for bit."""
    x0, x1 = chart.x_range
    t0, t1 = chart.t_range
    span = t1 - t0
    a, b = zeta, np.roll(zeta, -1)
    sel = (np.minimum(a.real, b.real) <= x1) & (np.maximum(a.real, b.real) >= x0)
    sel &= (np.minimum(a.imag, b.imag) <= t1) & (np.maximum(a.imag, b.imag) >= t0)
    a, b = a[sel], b[sel]
    t_grid = t0 + (np.arange(n_samples) + 0.5) * span / n_samples
    counts = np.zeros(n_samples, dtype=int)
    rhs = 0.0
    for p, q in zip(a, b):
        lo, hi = sorted((p.imag, q.imag))
        if (min(hi, t1) > max(lo, t0) or lo == hi) and p.imag != q.imag:
            d = q - p
            taus = [0.0, 1.0]
            for num, den in ((x0 - p.real, d.real), (x1 - p.real, d.real),
                             (t0 - p.imag, d.imag), (t1 - p.imag, d.imag)):
                if den != 0 and 0 < num / den < 1:
                    taus.append(num / den)
            taus.sort()
            total = 0.0
            for u0, u1 in zip(taus, taus[1:]):
                mid = p + 0.5 * (u0 + u1) * d
                if x0 <= mid.real <= x1 and t0 <= mid.imag <= t1:
                    total += abs((u1 - u0) * d.imag)
            rhs += total
        if hi <= lo:
            continue
        j0 = int(np.ceil((lo - t0) / span * n_samples - 0.5))
        j1 = int(np.floor((hi - t0) / span * n_samples - 0.5))
        if j1 < 0 or j0 > n_samples - 1:
            continue
        j0, j1 = max(j0, 0), min(j1, n_samples - 1)
        xs = p.real + (q.real - p.real) * (t_grid[j0 : j1 + 1] - p.imag) / (q.imag - p.imag)
        counts[j0 : j1 + 1] += (xs >= x0) & (xs <= x1)
    lhs = float(counts.mean() * span)
    margin = 1e-3 * span
    verts = np.concatenate([a, b])
    for j in np.lexsort((np.abs(t_grid - 0.5 * (t0 + t1)), counts)):
        t = float(t_grid[j])
        if (np.abs(verts.imag - t) < margin).any():
            continue
        if not any(
            min(p.imag, q.imag) < t < max(p.imag, q.imag)
            and math.atan2(abs(q.imag - p.imag), abs(q.real - p.real)) < math.radians(5.0)
            for p, q in zip(a, b)
        ):
            return t, lhs, rhs
    raise TransversalityError("every candidate line fails the transversality margin")


def _edge_polyline(rng, chart, n_samples, n_points):
    """A closed polyline whose heights sit on the values where the scans'
    comparisons flip: the rectangle's sides, the candidate lines, those
    lines +- the vertex margin, and one ulp either side of each."""
    x0, x1 = chart.x_range
    t0, t1 = chart.t_range
    span = t1 - t0
    t_grid = t0 + (np.arange(n_samples) + 0.5) * span / n_samples
    k = rng.integers(0, n_samples, n_points)
    margin = 1e-3 * span
    heights = np.r_[t0, t1, t_grid[k], t_grid[k] + margin, t_grid[k] - margin]
    heights = rng.choice(heights, n_points)
    heights = np.nextafter(heights, heights + rng.choice([-1.0, 0.0, 1.0], n_points))
    anywhere = rng.uniform(t0 - span, t1 + span, n_points)
    heights = np.where(rng.random(n_points) < 0.3, anywhere, heights)
    xs = rng.choice(np.array([x0, x1, 0.5 * (x0 + x1)]), n_points)
    xs = np.where(rng.random(n_points) < 0.5, rng.uniform(x0 - 0.1, x1 + 0.1, n_points), xs)
    # some segments climb less than 5 degrees
    slope = rng.uniform(-0.1, 0.1, n_points) * (rng.random(n_points) < 0.3)
    flat = np.nonzero(slope)[0][1:]
    heights[flat] = heights[flat - 1] + slope[flat] * (xs[flat] - xs[flat - 1])
    return xs + 1j * heights


def _outcome(select, *args):
    try:
        return [float(v).hex() for v in select(*args)]
    except TransversalityError:
        return "TransversalityError"


# A segment that leaves the rectangle's bottom side at its top vertex, one
# ulp left of the right side: its first piece's midpoint rounds onto the
# bottom side, yet the segment meets the height range in a point only and
# adds nothing to the coarea length.
TOUCHING_POLYLINE = np.array([np.nextafter(1.3, 0) - 0.1j, 2.3 - 0.11j, 5 + 5j])


def test_select_perturbation_matches_the_loops(monkeypatch):
    m = parse_map("z")
    cases = [(TOUCHING_POLYLINE, 1000)]
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n_samples = int(rng.choice([100, 137, 1000, 4000]))
        zeta = _edge_polyline(rng, CHART, n_samples, int(rng.integers(3, 60)))
        cases.append((zeta, n_samples))
    for i, (zeta, n_samples) in enumerate(cases):
        monkeypatch.setattr(trace, "_boundary_image_polyline", lambda m, r, chart: zeta)
        got = _outcome(select_perturbation, m, 1.0, CHART, n_samples)
        assert got == _outcome(_select_by_loops, zeta, CHART, n_samples), i


def test_select_perturbation_validates_samples():
    with pytest.raises(ValueError):
        select_perturbation(parse_map("z"), 1.0, CHART, 50)


def test_transversality_error_flat_crossings():
    # near w = i the circle |w| = 1 is almost horizontal: every candidate
    # line in this sliver is crossed flatter than the 5 degree margin
    thin = RectangleChart(1, 0, 0, 1, x_range=(-0.05, 0.05), t_range=(0.999, 0.9999))
    with pytest.raises(TransversalityError):
        select_perturbation(parse_map("z"), 1.0, thin, 100)


def test_transversality_error_vertices_on_every_line():
    # thirty strands of the unit circle cross the rectangle: their polyline
    # vertices come within the margin of all 1000 candidate lines
    with pytest.raises(TransversalityError):
        select_perturbation(parse_map("z^30"), 1.0, CHART, 1000)


# ---------------------------------------------------------------------------
# arc test integral


def test_arc_integral_triple():
    val = arc_test_integral(parse_map("z^3"), CHART, 0.0, 2.0)
    assert abs(val - 3.0) < 1e-6


def test_arc_integral_identity():
    val = arc_test_integral(parse_map("z"), CHART, 0.0, 5.0)
    assert abs(val - 1.0) < 1e-6


@pytest.mark.parametrize(
    ("source", "r"),
    [
        # the boundary image crosses the rectangle
        ("exp(z)", 2 * math.pi),
        ("exp(z)", 2 * math.pi + 0.05),
        ("exp(z)", 4 * math.pi + 0.02),
        ("exp(z)", 4 * math.pi + 0.06),
        ("z^5", 1.02),
        ("z^5", 1.0),
        # it misses the rectangle
        ("exp(z)", 8.0),
        ("exp(z)", 20.0),
        ("z^5", 2.0),
        ("z^3 - z", 1.2),
        ("z^3 - z", 1.5),
    ],
)
def test_lifts_at_t_star_bound_the_arc_integral(source, r):
    # the beta-weighted mean preimage count along the line t* lies between
    # its good lifts and all its lifts: the lifts and the winding counts
    # behind the integral are two independent computations
    m = parse_map(source)
    t_star, _, _ = select_perturbation(m, r, CHART, 1000)
    good, bad, suspect = classify_arcs(trace_preimage(m, CHART, t_star, r, 512), m, r)
    integral = arc_test_integral(m, CHART, t_star, r)
    assert suspect == 0
    assert good - 1e-9 <= integral <= good + bad + 1e-9


# ---------------------------------------------------------------------------
# graph preimages


def test_face_of_infinity_is_outer():
    g8 = GraphSpec(node=0.5j, scale=0.5)
    assert g8.face_of(INF) == g8.face_of("inf") == g8.face_of(complex(math.inf, 0)) == "outer"
    assert g8.face_of(0.5j + 0.5) == "lobe+"
    assert g8.face_of(0.5j - 0.5) == "lobe-"


def test_build_graph_z3():
    g8 = GraphSpec(node=0.5j, scale=0.5)
    pg = build_preimage_graph(parse_map("z^3"), g8, 3.0, 512)
    assert len(pg.vertices) == 3
    assert sum(1 for a in pg.arcs if a.tag == "good") == 6
    assert pg.euler == -3


def test_build_graph_identity():
    g8 = GraphSpec(node=0.5j, scale=0.5)
    pg = build_preimage_graph(parse_map("z"), g8, 2.0, 512)
    assert len(pg.vertices) == 1
    assert pg.euler == -1


def test_build_graph_bad_arcs_small_radius():
    g8 = GraphSpec(node=0.5j, scale=0.5)
    pg = build_preimage_graph(parse_map("z^3"), g8, 0.9, 512)
    assert any(a.tag == "bad" for a in pg.arcs)


def test_graph_placement_guard():
    # node directly at a critical value of z^2 (w = 0)
    g8 = GraphSpec(node=0.0j + 1e-9, scale=0.5)
    with pytest.raises(GraphPlacementError):
        build_preimage_graph(parse_map("z^2"), g8, 2.0, 256)


@pytest.mark.parametrize("error", [WindingError, ContourPassesThroughRoot])
def test_unresolved_critical_points_raise(monkeypatch, error):
    # the critical-value guard cannot run without the critical points; the
    # searches of graph_roots fail, as find_roots_many reports a failed query
    def unresolved(queries):
        return [error("refinement budget exceeded") for _ in queries]

    monkeypatch.setattr(trace, "find_roots_many", unresolved)
    with pytest.raises(ResolutionError, match="critical points"):
        build_preimage_graph(parse_map("z^3"), GraphSpec(node=0.5j, scale=0.5), 2.0, 128)


def test_certainly_outside_bounds_the_level():
    g8 = GraphSpec(node=0.25j, scale=1)
    rng = np.random.default_rng(3)
    c = rng.uniform(-3, 3, 4000) + 1j * rng.uniform(-3, 3, 4000)
    rho = rng.uniform(0, 1, 4000) ** 2
    certified = g8.certainly_outside(c, rho)
    assert 0.2 < certified.mean() < 0.9
    angle = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    for t in (0.0, 0.5, 1.0):
        ws = c[certified, None] + t * rho[certified, None] * np.exp(1j * angle)
        assert (g8.level(ws) > 0).all()
    c, rho = np.array([np.nan, np.inf, 5, 5]), np.array([0, 0, np.inf, np.nan])
    assert not g8.certainly_outside(c, rho).any()


# ---------------------------------------------------------------------------
# complement components


def test_complement_identity_figure_eight():
    g8 = GraphSpec(node=0.5j, scale=0.5)
    m = parse_map("z")
    pg = build_preimage_graph(m, g8, 2.0, 512)
    comps = complement_components(pg, 2.0, 512)
    interior = [c for c in comps.components if not c.touches_boundary]
    boundary = [c for c in comps.components if c.touches_boundary]
    assert sorted(c.chi for c in interior) == [1, 1]
    assert sum(c.chi for c in boundary) == 0
    assert {c.face for c in interior} == {"lobe-", "lobe+"}
    assert {c.face for c in boundary} == {None}


def test_complement_chi_bounds():
    # interior components satisfy chi <= 1, boundary-touching ones chi <= 0
    g8 = GraphSpec(node=0.5j, scale=0.5)
    for src, r in (("z", 2.0), ("z^2", 3.0), ("z^3", 3.0)):
        pg = build_preimage_graph(parse_map(src), g8, r, 512)
        comps = complement_components(pg, r, 512)
        for c in comps.components:
            if c.touches_boundary:
                assert c.chi <= 0
            else:
                assert c.chi <= 1


@pytest.mark.parametrize(
    "src,r",
    [("z", 2.0), ("z^2", 4.0), ("z^3", 3.0), ("z^3", 0.9), ("z^5", 2.0)],
)
def test_euler_identity_exact(src, r):
    g8 = GraphSpec(node=0.5j, scale=0.5)
    pg = build_preimage_graph(parse_map(src), g8, r, 512)
    comps = complement_components(pg, r, 512)
    chi_c0 = sum(c.chi for c in comps.components if c.touches_boundary)
    sum_chi_c = sum(c.chi for c in comps.components if not c.touches_boundary)
    assert chi_c0 + pg.euler + sum_chi_c == 1


def test_euler_identity_exp():
    g8 = GraphSpec(node=0.25j, scale=1.0)
    pg = build_preimage_graph(parse_map("exp(z)"), g8, 20.0, 512)
    comps = complement_components(pg, 20.0, 512)
    chi_c0 = sum(c.chi for c in comps.components if c.touches_boundary)
    sum_chi_c = sum(c.chi for c in comps.components if not c.touches_boundary)
    assert chi_c0 + pg.euler + sum_chi_c == 1


def _label_grid(analysis):
    """The n x n label grid of a complement, painted from its runs."""
    n = analysis.resolution
    grid = np.zeros(n * n, dtype=int)
    for start, stop, label in analysis.runs.tolist():
        grid[start:stop] = label
    return grid.reshape(n, n)


def _complement_reference(pg, comps, r):
    """The full-grid walk: one `labels == k` mask per component, its chi,
    ring test and pixel count, and the face at the argmax of its distance
    transform, or None when it touches the ring."""
    m = pg.m
    n = comps.resolution
    h = 2.0 * r / n
    xs = -r + (np.arange(n) + 0.5) * h
    zz = xs[None, :] + 1j * xs[:, None]
    ring = (np.abs(zz) <= r) & (np.abs(zz) > r - 2.5 * h)
    labels, count = ndimage.label(_label_grid(comps) > 0)
    assert np.array_equal(labels, _label_grid(comps))
    rows = []
    for k in range(1, count + 1):
        comp = labels == k
        touches = bool((comp & ring).any())
        face = None
        if not touches:
            dist = ndimage.distance_transform_cdt(comp)
            w = evaluate(m, complex(zz[np.unravel_index(int(np.argmax(dist)), comp.shape)]))
            face = pg.graph.face_of(w)
        rows.append((_mask_chi(comp), touches, face, int(comp.sum()), k))
    return rows


@pytest.mark.parametrize(
    "src,node,scale,r", [("z^3", 0.5j, 0.5, 2.0), ("exp(z)", 0.25j, 1.0, 20.0)]
)
def test_complement_matches_full_grid_reference(src, node, scale, r):
    pg = build_preimage_graph(parse_map(src), GraphSpec(node=node, scale=scale), r, 512)
    comps = complement_components(pg, r, 512)
    got = [(c.chi, c.touches_boundary, c.face, c.n_pixels, c.label) for c in comps.components]
    assert got == _complement_reference(pg, comps, r)
    assert len({face for _, _, face, _, _ in got}) > 1


@pytest.mark.parametrize(
    "src,node,scale,r",
    [
        ("z^3", 0.5j, 0.5, 2.0),
        ("z^5", 0.5j, 0.5, 7.0),
        ("exp(z)", 0.25j, 1.0, 20.0),
        ("sin(z)", 0.5j, 0.5, 6.0),
        ("(z^2 - 1)/(z^2 + 4)", 0.5j, 0.5, 3.0),
    ],
)
def test_interior_run_middles_map_into_their_face(src, node, scale, r):
    # the premise of the face probe, which takes one run's middle pixel: a
    # component off the boundary maps into one face, whichever run is probed
    pg = build_preimage_graph(parse_map(src), GraphSpec(node=node, scale=scale), r, 512)
    comps = complement_components(pg, r, 512)
    n = comps.resolution
    xs = -r + (np.arange(n) + 0.5) * (2.0 * r / n)
    start, stop, label = comps.runs.T
    middle = (start + stop - 1) // 2
    faces = {}
    for k, z in zip(label.tolist(), (xs[middle % n] + 1j * xs[middle // n]).tolist()):
        faces.setdefault(k, set()).add(pg.graph.face_of(evaluate(pg.m, z)))
    interior = [c for c in comps.components if not c.touches_boundary]
    assert interior
    for c in interior:
        assert faces[c.label] == {c.face}


# ---------------------------------------------------------------------------
# exports


def test_exports(tmp_path):
    g8 = GraphSpec(node=0.5j, scale=0.5)
    m = parse_map("z^3")
    pg = build_preimage_graph(m, g8, 3.0, 256)
    comps = complement_components(pg, 3.0, 256)
    islands, _ = find_islands(m, SphericalDisk.of(g8.foci[1], 0.055), 3.0, 256)
    svg = export_svg(tmp_path / "g.svg", 3.0, graph=pg, islands=islands)
    assert svg.startswith("<svg")
    assert "polyline" in svg
    doc = export_json(tmp_path / "g.json", graph=pg, components=comps, islands=islands)
    assert '"euler": -3' in doc
    # identical second write (determinism)
    doc2 = export_json(tmp_path / "g2.json", graph=pg, components=comps, islands=islands)
    assert doc == doc2


def test_export_json_rounds_arc_points_to_nine_digits(tmp_path):
    # negatives, signed zeros, values below 1e-9 and halfway cases, written
    # as round(x, 9) writes them
    pts = np.array([
        complex(-1.2345678915, 1e-10), complex(0.1234567895, -5e-10),
        complex(-4.9999999995, 2.5e-9), complex(-0.0, 123456.7890123455),
        complex(1e-300, -7.0000000005), complex(0.3, -0.1 - 0.2),
    ])
    g = PreimageGraph([Arc(pts, "good", (None, 0), False)], [0.5j], 0, parse_map("z"), GraphSpec())
    points = [
        [-1.234567892, 0.0], [0.12345679, -0.0], [-5.0, 2e-09],
        [-0.0, 123456.789012346], [0.0, -7.0], [0.3, -0.3],
    ]
    assert points == [[round(z.real, 9), round(z.imag, 9)] for z in pts]
    doc = {
        "arcs": [{"closed": False, "endpoints": [None, 0], "points": points, "tag": "good"}],
        "euler": 0,
        "vertices": [[0.0, 0.5]],
    }
    text = export_json(tmp_path / "g.json", graph=g)
    assert text == json.dumps(doc, sort_keys=True, indent=2)
    assert (tmp_path / "g.json").read_text() == text + "\n"


def _svg_per_point(r, graph=None, islands=None):
    """export_svg's text as written one point at a time: the oracle of the
    bulk writer."""
    size = 800
    scale = size / (2.2 * r)

    def xy(z):
        return (
            (z.real + 1.1 * r) * scale,
            (1.1 * r - z.imag) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{size/2}" cy="{size/2}" r="{r*scale}" fill="none" '
        f'stroke="#888" stroke-width="1"/>',
    ]
    styles = {
        "good": 'stroke="#1f77b4" stroke-width="1.5"',
        "bad": 'stroke="#d62728" stroke-width="1.2" stroke-dasharray="6 4"',
        "ramified-suspect": 'stroke="#ff7f0e" stroke-width="1.5" stroke-dasharray="2 3"',
    }
    if graph is not None:
        for arc in graph.arcs:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (xy(z) for z in arc.points))
            parts.append(f'<polyline points="{pts}" fill="none" {styles[arc.tag]}/>')
        for v in graph.vertices:
            x, y = xy(v)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#000"/>')
    if islands:
        for rec in islands:
            for loop in [rec.boundary, *rec.holes]:
                pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (xy(z) for z in loop))
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _json_per_point(graph=None, components=None, islands=None):
    """export_json's text as the indenting encoder writes the whole
    document: the oracle of the bulk writer."""
    doc = {}
    if graph is not None:
        doc["euler"] = graph.euler
        doc["vertices"] = [[v.real, v.imag] for v in graph.vertices]
        doc["arcs"] = [
            {
                "tag": arc.tag,
                "closed": bool(arc.closed),
                "endpoints": [
                    None if e is None else int(e) for e in arc.endpoints
                ],
                "points": np.round(np.stack((arc.points.real, arc.points.imag), 1), 9).tolist(),
            }
            for arc in graph.arcs
        ]
    if components is not None:
        doc["components"] = [
            {
                "chi": c.chi,
                "touches_boundary": c.touches_boundary,
                "face": c.face,
                "n_pixels": c.n_pixels,
            }
            for c in components.components
        ]
    if islands is not None:
        doc["islands"] = [
            {
                "disk_index": rec.disk_index,
                "chi": rec.chi,
                "degree": rec.degree,
                "ramification": rec.ramification,
                "centroid": [rec.centroid.real, rec.centroid.imag],
            }
            for rec in islands
        ]
    return json.dumps(doc, sort_keys=True, indent=2)


def _assert_exports_match_the_oracles(path, r, graph=None, components=None, islands=None):
    svg = export_svg(path / "g.svg", r, graph=graph, islands=islands)
    assert svg == _svg_per_point(r, graph=graph, islands=islands)
    assert (path / "g.svg").read_bytes() == svg.encode()
    text = export_json(path / "g.json", graph=graph, components=components, islands=islands)
    assert text == _json_per_point(graph=graph, components=components, islands=islands)
    assert (path / "g.json").read_bytes() == (text + "\n").encode()


_RHO = 0.2 / math.sqrt(math.pi)


@pytest.mark.parametrize(
    "source, node, scale, r, resolution, centers, radius",
    [("exp(z)", 0.25j, 1.0, r, 2048, (1 + 0.25j, -1 + 0.25j), 0.05) for r in (47.4140073963, 80.0)]
    + [("z^5", 0.5j, 0.5, r, 512, (0j, 1 + 0j), _RHO) for r in (2.0, 3.0, 5.0, 7.0, 10.0)],
)
def test_exports_match_the_per_point_writers(tmp_path, source, node, scale, r, resolution, centers, radius):
    m = parse_map(source)
    pg = build_preimage_graph(m, GraphSpec(node=node, scale=scale), r, resolution)
    comps = complement_components(pg, r, resolution)
    islands = []
    for k, c in enumerate(centers):
        found, _ = find_islands(m, SphericalDisk.of(c, radius), r, resolution)
        for rec in found:
            rec.disk_index = k
        islands.extend(found)
    assert islands and len(pg.arcs) > 1
    _assert_exports_match_the_oracles(tmp_path, r, graph=pg, components=comps, islands=islands)
    _assert_exports_match_the_oracles(tmp_path, r, islands=islands)


def test_exports_match_the_per_point_writers_on_edge_values(tmp_path):
    # values whose shortest round-trip text has 17 digits, before and after
    # the 9-digit rounding of arc points
    digits17 = [0.1 + 0.2, 1 + 2**-52, -123456789.123456789, 2 / 3 * 1e8]
    assert all(float(f"{x:.16g}") != x for x in digits17)
    assert all(float(f"{round(x, 9):.16g}") != round(x, 9) for x in digits17[2:])
    odd = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e16, -1e16, 0.005, -0.005, 2.675]
    points = [complex(x, y) for x, y in zip(odd + digits17, digits17 + odd[::-1])]
    points += [complex(x, y) for x in odd for y in odd]
    arcs = [
        Arc(np.array(points), "good", (0, 1), False),
        Arc(np.array([complex(-0.0, math.nan)]), "bad", (None, None), True),
        Arc(np.array([1e16 - 2.5j]), "ramified-suspect", (1, None), False),
        Arc(np.zeros(0, dtype=complex), "bad", (None, None), False),
    ]
    g = PreimageGraph(arcs, [complex(-0.0, 1e-300), complex(math.inf, 0.5)], -1, parse_map("z"), GraphSpec())
    isl = IslandRecord(0, np.array(points[::-1]), 1, 2, 1, centroid=complex(math.nan, -0.0))
    empty = PreimageGraph([], [], 0, parse_map("z"), GraphSpec())
    for graph, islands in ((g, [isl]), (g, None), (g, []), (empty, []), (None, [isl]), (None, None), (None, [])):
        _assert_exports_match_the_oracles(tmp_path, 2.0, graph=graph, islands=islands)
    assert "NaN" in export_json(tmp_path / "g.json", graph=g) and "nan" in export_svg(tmp_path / "g.svg", 2.0, g)
    assert export_json(tmp_path / "g.json", islands=[]) != export_json(tmp_path / "g.json")


def test_an_island_hole_is_drawn(tmp_path):
    # z + 1e-4/z at r = 2 has one island about 0, of degree 2 and chi = 0: an
    # annulus, drawn as its outer curve and its hole
    islands, _ = find_islands(parse_map("z+1e-4/z"), SphericalDisk.of(0, _RHO), 2.0, 512)
    assert [(rec.degree, rec.chi, len(rec.holes)) for rec in islands] == [(2, 0, 1)]
    assert export_svg(tmp_path / "i.svg", 2.0, islands=islands).count('stroke="#2ca02c"') == 2
    _assert_exports_match_the_oracles(tmp_path, 2.0, islands=islands)


@pytest.mark.parametrize(
    "keep, closed, order, spans",
    [
        ([1, 1, 0, 1, 0, 0, 1], False, range(7), [(0, 2), (3, 4), (6, 7)]),
        ([0, 1, 1, 0, 1], True, [0, 1, 2, 3, 4, 0], [(1, 3), (4, 5)]),
        ([1, 1, 1], True, range(3), [(0, 3)]),
        ([0, 0, 0], True, [0, 1, 2, 0], []),
        ([0, 0], False, range(2), []),
        # the run 4, 5, 0, 1 wraps the seam of the ring and stays whole
        ([1, 1, 0, 0, 1, 1], True, [2, 3, 4, 5, 0, 1, 2], [(2, 6)]),
    ],
    ids=["open", "closed", "all-kept", "none-kept", "open-none-kept", "seam-in-run"],
)
def test_runs(keep, closed, order, spans):
    got_order, got_spans = _march.runs(np.array(keep, dtype=bool), closed)
    assert got_order.tolist() == list(order)
    assert got_spans == spans


def test_chain_extends_backward_in_segment_order():
    # the first segment sits mid-chain, so the rest attaches backward: one
    # segment ending at the chain start at a time, the lowest index first,
    # degenerate p == q segments included
    segments = [(1, 2), (2, 3), (0, 1), (0, 0), (-1, 0), (-2, -1)]
    chains = _march._chain([(complex(p), complex(q), 0.1) for p, q in segments], 1e-3)
    assert len(chains) == 1
    assert chains[0].points.real.tolist() == [-2, -1, 0, 0, 1, 2, 3]
    assert not chains[0].closed
    # a long polyline given back to front is assembled into one chain
    pts = np.exp(1j * np.linspace(0.0, 3.0, 2001))
    backward = [(pts[k], pts[k + 1], 1e-3) for k in reversed(range(2000))]
    chains = _march._chain(backward, 1e-6)
    assert len(chains) == 1
    assert np.array_equal(chains[0].points, pts)


def _tuple_key_walk(segments, quantum):
    """(points, closed) of each chain of oriented segments (p, q, size), each
    key a pair of Python ints: from each unused segment in index order, the
    first unused segment, in index order, whose start matches the chain's
    end is joined forward, then the first whose end matches its start is
    joined backward; a degenerate p == q segment joins only backward."""
    def key(z):
        return round(z.real / quantum), round(z.imag / quantum)

    used = [False] * len(segments)

    def first_unused(matches):
        k = next((k for k, seg in enumerate(segments) if not used[k] and matches(seg)), None)
        if k is not None:
            used[k] = True
        return k

    chains = []
    for k, (p, q, _) in enumerate(segments):
        if used[k]:
            continue
        used[k] = True
        if p == q:
            continue
        forward, backward = [k], [k]
        while (j := first_unused(lambda s: s[0] != s[1]
                                 and key(s[0]) == key(segments[forward[-1]][1]))) is not None:
            forward.append(j)
        while (j := first_unused(lambda s: key(s[1]) == key(segments[backward[-1]][0]))) is not None:
            backward.append(j)
        points = [segments[j][0] for j in reversed(backward)] + [segments[j][1] for j in forward]
        start, end = key(segments[backward[-1]][0]), key(segments[forward[-1]][1])
        chains.append((points, start == end and len(points) > 2))
    return chains


def test_chain_keys_are_exact_far_from_the_origin():
    # about 1e6 from the origin with a quantum of 2^-20 (about 1e-6), an
    # endpoint rounds to some 2^40 quanta a side: a key packed as
    # ix 2^32 + iy in int64 makes the end of one chain and the start of
    # another, 2^32 quanta apart, one key
    quantum = 2.0**-20
    centre = 2.0**20 * (1 + 1j)
    loop = centre + np.round(np.exp(2j * np.pi * np.arange(12) / 12) / quantum) * quantum
    a = centre + 10 + 0.5 * np.arange(5)
    b = a[-1] + 2**32 * quantum + 0.5j * np.arange(5)
    ix, iy = (np.rint(np.array([a[-1].real, b[0].real]) / quantum).astype(np.int64),
              np.rint(np.array([a[-1].imag, b[0].imag]) / quantum).astype(np.int64))
    with np.errstate(over="ignore"):
        packed = (ix << 32) + iy
    assert packed[0] == packed[1]
    # each loop segment's ends moved by less than a quarter quantum
    rng = np.random.default_rng(7)
    jitter = rng.uniform(-0.25, 0.25, (12, 2)) * quantum
    segments = [(loop[k] + jitter[k, 0], loop[(k + 1) % 12] + jitter[k, 1], 1e-3) for k in range(12)]
    segments += [(a[k], a[k + 1], 1e-3) for k in range(4)]
    segments += [(b[k], b[k + 1], 1e-3) for k in range(4)]
    segments = [segments[k] for k in rng.permutation(len(segments))]
    expected = _tuple_key_walk(segments, quantum)
    assert sorted((len(points), closed) for points, closed in expected) == [
        (5, False), (5, False), (13, True)]
    chains = _march._chain(segments, quantum)
    assert [(c.points.tolist(), c.closed) for c in chains] == expected


# Chains of extract on [-1, 1]^2 with a 4 x 4 grid, recorded before the cell
# loops became one array kernel: (points, closed, cell_size) per chain.
_SADDLE_CHAINS = [
    ([(1+0.2718000014669209j), (0.5+0.2718000055035773j), (0.375+0.27180001763668427j),
      (0.34375+0.27180003929273083j), (0.328125+0.2718001017811705j),
      (0.3203125+0.27180049689440994j), (0.31829983805668016+0.265625j),
      (0.31829995412844037+0.25j), (0.3182999963208241+0j), (0.31829999870432757-0.5j),
      (0.3182999992137128-1j)], False, 0.5),
    ([(-1+0.27179999924144727j), (-0.5+0.2717999987779543j), 0.27179999685830974j,
      (0.25+0.2717999853587115j), (0.3125+0.2717998275862069j),
      (0.3183006106870229+0.2734375j), (0.31830010582010587+0.28125j),
      (0.3183000245700246+0.3125j), (0.3183000096899225+0.375j),
      (0.31830000438212097+0.5j), (0.31830000137324915+1j)], False, 0.5),
]
_HOLED_CHAINS = [
    (_SADDLE_CHAINS[1][0], False, 0.5),
    ([(1+0.2718000014669209j), (0.5+0.2718000055035773j), (0.375+0.27180001763668427j),
      (0.34375+0.27180003929273083j), (0.328125+0.2718001017811705j),
      (0.3203125+0.27180049689440994j), (0.31829983805668016+0.265625j),
      (0.3182999541284404+0.25j), (0.25+0j), 0j, (0.3182999963208241+0j),
      (0.31829999870432757-0.5j), (0.3182999992137128-1j)], False, 0.5),
]


def _chain_rows(chains):
    return [(c.points.tolist(), c.closed, c.cell_size) for c in chains]


def _saddle_field(zs):
    # the saddle at (0.3183, 0.2718) lies strictly inside a cell at every
    # subdivision depth, so it is still ambiguous at the deepest one
    return (zs.real - 0.3183) * (zs.imag - 0.2718) - 1e-9


def _holed_field(zs):
    # NaN at a first-level sub-grid node, on an edge the curve crosses
    return np.where(zs == 0.25, np.nan, _saddle_field(zs))


@pytest.mark.parametrize(
    ("field", "expected"), [(_saddle_field, _SADDLE_CHAINS), (_holed_field, _HOLED_CHAINS)]
)
def test_extract_chains_are_unchanged(field, expected):
    assert _chain_rows(_march.extract(field, (-1, 1, -1, 1), 4, 4)) == expected


def _lattice_field(zs):
    # nine saddles in three cell rows, NaN on the node row y = 0 (nudged back
    # to the field) and at the node 0.5 + 0.5i and its nudge (set to 1e300)
    with np.errstate(invalid="ignore"):
        out = np.sin(4 * (zs.real - 0.1)) * np.sin(4 * (zs.imag - 0.07)) - 1e-9
    out = np.where(zs.imag == 0, np.nan, out)
    return np.where(np.abs(zs - (0.5 + 0.5j)) < 1e-3, np.nan, out)


def _z5_level(zs):
    return GraphSpec(node=0.5j, scale=0.5).level(evaluate_array(parse_map("z^5"), zs))


@pytest.mark.parametrize("band", [1, 2, 5, 10_000])
@pytest.mark.parametrize(
    ("field", "rect", "n", "expected"),
    [
        (_saddle_field, (-1, 1, -1, 1), 4, _SADDLE_CHAINS),
        (_holed_field, (-1, 1, -1, 1), 4, _HOLED_CHAINS),
        (_lattice_field, (-1, 1, -1, 1), 8, None),
        (_z5_level, (-2.0625, 2.0625, -2.0625, 2.0625), 64, None),
    ],
    ids=["saddle", "holed", "lattice", "z5-figure-eight"],
)
def test_extract_does_not_depend_on_the_band_height(monkeypatch, field, rect, n, expected, band):
    # bands of 1, 2 and 5 rows put band edges next to saddle cells and NaN
    # node rows; 10_000 rows is one band, the whole grid
    if expected is None:
        monkeypatch.setattr(_march, "BAND_ROWS", 10_000)
        expected = _chain_rows(_march.extract(field, rect, n, n))
    monkeypatch.setattr(_march, "BAND_ROWS", band)
    chains = _march.extract(field, rect, n, n)
    assert chains and _chain_rows(chains) == expected


def _certified_march(source, node, scale, r, resolution, positive="ball"):
    """Chains of build_preimage_graph's march and the number of nodes the
    field is asked for; `positive` is the ball certificate, None (the full
    march) or a given certificate."""
    m, g8 = parse_map(source), GraphSpec(node=node, scale=scale)
    sampled = []

    def field(zs):
        sampled.append(zs.size)
        return g8.level(evaluate_array(m, zs))

    if positive == "ball":
        def positive(c, rho):
            return g8.certainly_outside(*evaluate_ball(m, c, rho))

    R = r * (1.0 + 2.0 / resolution)
    chains = _march.extract(field, (-R, R, -R, R), resolution, resolution, positive=positive)
    return _chain_rows(chains), sum(sampled)


_MARCHES = [
    ("z^5", 0.5j, 0.5, 2),
    ("z^5", 0.5j, 0.5, 7),
    ("z^5", 0.5j, 0.5, 10),
    ("exp(z)", 0.25j, 1, 47.41),
    ("exp(z)", 0.25j, 1, 80),
    ("z^8", 0.5j, 0.5, 3),
    ("sin(z)", 0.5j, 0.5, 10),
    ("z + 0.001/(z - 1.01)", 0.5j, 0.5, 3),
    ("z*exp(z)", 0.25j, 1, 20),
]


@pytest.mark.parametrize(("source", "node", "scale", "r"), _MARCHES)
def test_certified_march_equals_the_full_march(source, node, scale, r):
    full, full_nodes = _certified_march(source, node, scale, r, 512, None)
    certified, nodes = _certified_march(source, node, scale, r, 512)
    assert full and certified == full
    assert nodes < full_nodes


@pytest.mark.parametrize("band", [1, 2, 5])
def test_certified_march_does_not_depend_on_the_band_height(monkeypatch, band):
    expected, _ = _certified_march("z^5", 0.5j, 0.5, 7, 128)
    monkeypatch.setattr(_march, "BAND_ROWS", band)
    assert _certified_march("z^5", 0.5j, 0.5, 7, 128)[0] == expected


def test_false_certificate_changes_the_chains():
    # a certificate that skips every block hides the whole curve
    full, _ = _certified_march("z^5", 0.5j, 0.5, 7, 512)
    assert _certified_march("z^5", 0.5j, 0.5, 7, 512, lambda c, rho: c == c)[0] != full


def test_certified_march_certifies_each_grid_in_one_quadtree():
    # one certificate call per quadtree level or slice of a level, however
    # many bands the grid is marched in (32 here)
    m, g8 = parse_map("exp(z)"), GraphSpec(node=0.25j, scale=1)
    calls = []

    def positive(c, rho):
        calls.append(len(c))
        return g8.certainly_outside(*evaluate_ball(m, c, rho))

    def field(zs):
        return g8.level(evaluate_array(m, zs))

    R = 80 * (1.0 + 2.0 / 2048)
    _march.extract(field, (-R, R, -R, R), 2048, 2048, positive=positive)
    assert 0 < len(calls) <= 12
    assert max(calls) <= _march._SLICE


def test_certified_march_samples_few_nodes():
    # exp-topology's largest radius: the curve lies in -3 < Re z < 0.6
    _, nodes = _certified_march("exp(z)", 0.25j, 1, 80, 2048)
    assert nodes < 0.05 * 2049**2


# the first three clashing pixels, in paint order, of each config that
# raises, as found by painting every supercover sample
_CORRIDOR_CLASHES = {
    ("z^8", 3, 64): "[(-0.796875-0.140625j), (-0.140625+0.796875j), (0.234375-0.796875j)]",
    ("z^8", 3, 96): "[(-0.71875+0.53125j), (-0.53125-0.71875j), (0.53125+0.84375j)]",
    ("exp(z)", 80, 128): "[(-3.125-64.375j), (1.875+61.875j), (1.875+4.375j)]",
    ("exp(z)", 47.4140073963, 256): "[(-1.6668986975261717+41.30204550537071j)]",
}


@pytest.mark.parametrize(
    ("source", "node", "scale", "r", "resolution", "raises"),
    [
        ("z^8", 0.5j, 0.5, 3, 64, True),
        ("z^8", 0.5j, 0.5, 3, 96, True),
        ("exp(z)", 0.25j, 1, 80, 128, True),
        ("exp(z)", 0.25j, 1, 47.4140073963, 256, True),
        ("z^5", 0.5j, 0.5, 10, 64, False),
    ],
)
def test_complement_corridor_conflict(source, node, scale, r, resolution, raises):
    g = build_preimage_graph(parse_map(source), GraphSpec(node=node, scale=scale), r, resolution)
    if raises:
        with pytest.raises(ResolutionError) as info:
            complement_components(g, r, resolution)
        clashes = _CORRIDOR_CLASHES[source, r, resolution]
        assert str(info.value) == (
            f"arcs share a pixel corridor at {clashes}; retry with a finer resolution"
        )
    else:
        complement_components(g, r, resolution)


def _painted_by_sample_loop(g, r, n):
    """The blocked pixels, painted one sample and one block pixel at a time."""
    blocked = np.zeros((n, n), dtype=bool)

    def paint(z):
        i = int((z.real + r) / (2 * r) * n)
        j = int((z.imag + r) / (2 * r) * n)
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                if 0 <= j + dj < n and 0 <= i + di < n:
                    blocked[j + dj, i + di] = True

    for v in g.vertices:
        paint(v)
    for arc in g.retained_arcs:
        for p, q in zip(arc.points[:-1], arc.points[1:]):
            steps = max(1, int(abs(q - p) / (0.5 * (2.0 * r / n))) + 1)
            for s in range(steps + 1):
                paint(p + (q - p) * s / steps)
    return blocked


@pytest.mark.parametrize(
    ("source", "node", "scale", "r", "resolution"),
    [("z^5", 0.5j, 0.5, 7, 512), ("exp(z)", 0.25j, 1, 20, 300)],
)
def test_complement_blocks_what_the_sample_loop_paints(source, node, scale, r, resolution):
    g = build_preimage_graph(parse_map(source), GraphSpec(node=node, scale=scale), r, resolution)
    analysis = complement_components(g, r, resolution)
    h = 2.0 * r / resolution
    xs = -r + (np.arange(resolution) + 0.5) * h
    outside = np.abs(xs[None, :] + 1j * xs[:, None]) > r
    expected = outside | _painted_by_sample_loop(g, r, resolution)
    assert np.array_equal(_label_grid(analysis) == 0, expected)


def test_graph_and_complement_memory():
    # exp-topology's figure-eight at its largest radius: a full 2048^2
    # complex grid of samples would be 64 MB
    g8 = GraphSpec(node=0.25j, scale=1)
    tracemalloc.start()
    try:
        g = build_preimage_graph(parse_map("exp(z)"), g8, 80.0, 2048)
        graph_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        complement_components(g, 80.0, 2048)
        complement_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph_peak <= 3.6e6
    assert complement_peak <= 4.1e6


def _mask_chi(mask):
    """Euler characteristic V - E + F of a pixel set's closed cell complex,
    counted on its mask."""
    padded = np.pad(mask, 1)
    faces = int(mask.sum())
    # an edge or a corner of the complex exists where a pixel beside it is set
    e_v = int((padded[:, :-1] | padded[:, 1:]).sum())
    e_h = int((padded[:-1, :] | padded[1:, :]).sum())
    corners = padded[:-1, :-1] | padded[:-1, 1:] | padded[1:, :-1] | padded[1:, 1:]
    return int(corners.sum()) - (e_v + e_h) + faces


def _mask_runs(mask):
    """Rows, first columns and end columns of the runs of a mask, in raster order."""
    row, edge = np.nonzero(np.diff(np.pad(mask, ((0, 0), (1, 1))), axis=1))
    return row[::2], edge[::2], edge[1::2]


def _assert_components_match_ndimage(mask):
    """The runs of a mask, labelled by `label_runs`, paint ndimage's label
    grid, and `mask_euler_characteristic` gives the V - E + F of every
    component's mask.  Returns every component's chi."""
    row, lo, hi = _mask_runs(mask)
    label = _march.label_runs(row, lo, hi)
    grid = np.zeros(mask.shape, dtype=int)
    for j, a, b, k in zip(row, lo, hi, label):
        grid[j, a:b] = k + 1
    ref_labels, count = ndimage.label(mask)
    assert np.array_equal(grid, ref_labels)
    chis = _march.mask_euler_characteristic(row, lo, hi, label)
    assert len(chis) == count
    assert chis.tolist() == [_mask_chi(ref_labels == k) for k in range(1, count + 1)]
    return chis.tolist()


def test_components_match_full_grid_reference():
    mask = np.zeros((40, 50), dtype=bool)
    mask[0:6, 0:4] = mask[0:2, 0:13] = True  # touches the grid edge
    mask[10:21, 10:23] = True  # a ring: a component with a hole
    mask[13:17, 14:19] = False
    mask[25:32, 30:45] = True  # fills its bounding box
    mask[35, 5] = mask[36, 6] = True  # diagonal neighbours: two components
    mask[30:40, 47:50] = True  # touches the grid corner
    assert sorted(_assert_components_match_ndimage(mask)) == [0, 1, 1, 1, 1, 1]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 50),
    st.floats(0.0, 1.0),
    st.floats(0.05, 0.8),
    st.integers(0, 2**32 - 1),
)
def test_components_match_ndimage_on_random_masks(n_rows, n_cols, radius, density, seed):
    # random blocked sets in a disk, like the complement's pixels: components
    # on the grid edges, holes in them and diagonal-only contacts between them
    xs, ys = np.arange(n_cols) + 0.5 - n_cols / 2, np.arange(n_rows) + 0.5 - n_rows / 2
    disk = np.hypot(xs[None, :], ys[:, None]) <= radius * math.hypot(n_rows, n_cols) / 2
    blocked = np.random.default_rng(seed).random((n_rows, n_cols)) < density
    _assert_components_match_ndimage(disk & ~blocked)


_BLOCKS = st.lists(
    st.tuples(st.integers(-3, 60), st.integers(1, 60), st.integers(-3, 60), st.integers(1, 60)),
    max_size=6,
)


@settings(derandomize=True, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 60),
    _BLOCKS,
    _BLOCKS,
    st.floats(0.0, 0.3),
    st.integers(0, 2**32 - 1),
)
def test_components_of_rectangle_masks_match_ndimage(n_rows, n_cols, on, off, density, seed):
    # rectangles of pixels, clipped to the grid, so components sit on each
    # grid edge, fill the grid, or nest in one another's holes, less
    # rectangles and random pixels: labels and chi are ndimage's
    mask = np.zeros((n_rows, n_cols), dtype=bool)
    for value, blocks in ((True, on), (False, off)):
        for r0, h, c0, w in blocks:
            mask[max(r0, 0) : max(r0 + h, 0), max(c0, 0) : max(c0 + w, 0)] = value
    mask &= ~(np.random.default_rng(seed).random(mask.shape) < density)
    _assert_components_match_ndimage(mask)


@pytest.mark.parametrize(
    "edge", [np.s_[:1, :], np.s_[-1:, :], np.s_[:, :1], np.s_[:, -1:], np.s_[:, :]]
)
def test_components_on_one_grid_edge_match_ndimage(edge):
    # a component along one edge of a tall and a wide grid, one filling the
    # grid, and one 1-pixel-wide line down the middle beside them
    for shape in ((7, 40), (40, 7)):
        mask = np.zeros(shape, dtype=bool)
        mask[edge] = True
        mask[2:-2, shape[1] // 2] = True
        _assert_components_match_ndimage(mask)


def _assert_free_runs_match_the_disk_masks(blocked, r, n):
    """trace._free_runs against full-grid masks: the runs of the pixels with
    |xs + i y| <= r less the blocked ones, each flagged if it holds a pixel
    past ring_radius."""
    xs = -r + (np.arange(n) + 0.5) * (2.0 * r / n)
    dist = np.abs(xs[None, :] + 1j * xs[:, None])
    free = dist <= r
    free.flat[blocked] = False
    ring = (dist <= r) & (dist > ring_radius(r, n))
    expected = [(j, a, b, bool(ring[j, a:b].any())) for j, a, b in zip(*_mask_runs(free))]
    row, lo, hi, on_ring = trace._free_runs(blocked, r, n, xs)
    assert list(zip(row.tolist(), lo.tolist(), hi.tolist(), on_ring.tolist())) == expected


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 80), st.floats(0.05, 0.6), st.integers(0, 2**32 - 1))
def test_free_runs_match_the_disk_masks(n, density, seed):
    # the runs of the disk less random blocked pixels and their ring flags
    blocked = np.flatnonzero(np.random.default_rng(seed).random(n * n) < density)
    _assert_free_runs_match_the_disk_masks(blocked, 3.0, n)


@pytest.mark.parametrize(
    ("source", "node", "scale", "r", "resolution"),
    [("exp(z)", 0.25j, 1, r, 2048) for r in (47.4140073963, 80.0)]
    + [("z^5", 0.5j, 0.5, r, 512) for r in (2.0, 3.0, 5.0, 7.0, 10.0)],
)
def test_free_runs_match_the_bands_on_the_workload_graphs(source, node, scale, r, resolution):
    g = build_preimage_graph(parse_map(source), GraphSpec(node=node, scale=scale), r, resolution)
    xs = -r + (np.arange(resolution) + 0.5) * (2.0 * r / resolution)
    blocked = trace._blocked_pixels(g, r, resolution, xs)
    _assert_free_runs_match_the_disk_masks(blocked, r, resolution)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 9, 16, 65, 130])
@pytest.mark.parametrize("r", [1.0, 3.0, 1e-3, 123.456])
def test_free_runs_match_the_bands_on_small_grids(n, r):
    # rows whose disk or inner span is empty or one pixel wide, a ring
    # radius of 0 or below, and blocked pixels at both ends of a span
    _assert_free_runs_match_the_disk_masks(np.zeros(0, dtype=int), r, n)
    rng = np.random.default_rng(n)
    _assert_free_runs_match_the_disk_masks(np.flatnonzero(rng.random(n * n) < 0.3), r, n)
    _assert_free_runs_match_the_disk_masks(np.arange(0, n * n, 2), r, n)


@pytest.mark.parametrize("fill", [False, True])
def test_components_of_a_uniform_mask(fill):
    _assert_components_match_ndimage(np.full((3, 4), fill))


def _a_hole_in_a_short_grid():
    # spans all 3 rows, with a notch in one grid edge and a hole
    mask = np.ones((3, 19), dtype=bool)
    mask[1, 0] = mask[1, 12] = False
    return mask


def _islands_in_a_grid_sized_component():
    # a grid-sized component with two holes and a notch in one grid edge,
    # each holding a one-pixel component
    mask = np.ones((20, 30), dtype=bool)
    for j, i in [(3, 3), (10, 25), (16, 28)]:
        mask[j - 1 : j + 2, i - 1 : i + 2] = False
        mask[j, i] = True
    return mask


@pytest.mark.parametrize(
    ("make", "expected"),
    [
        (_a_hole_in_a_short_grid, [0]),
        (_islands_in_a_grid_sized_component, [-1, 1, 1, 1]),
    ],
)
def test_chi_of_grid_edge_components(make, expected):
    assert _assert_components_match_ndimage(make()) == expected


def test_label_of_point_is_zero_off_each_grid_edge():
    # a point less than one pixel outside the grid reads no edge pixel's label
    r, n = 2.0, 64
    h = 2 * r / n
    g = build_preimage_graph(parse_map("z"), GraphSpec(node=0.5j, scale=0.5), r, n)
    analysis = complement_components(g, r, n)
    for edge in (-1, 1, -1j, 1j):
        assert analysis.label_of_point(edge * (r - h / 2)) > 0
        assert analysis.label_of_point(edge * (r + h / 2)) == 0
