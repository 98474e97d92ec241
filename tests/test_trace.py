import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from coverlab import _march
from coverlab.expr import INF, evaluate, evaluate_array, parse_map
from coverlab.metric import SpherePoint, SphericalDisk
from coverlab.count import find_islands, find_roots
from coverlab.trace import (
    GraphPlacementError,
    GraphSpec,
    ImplicitCurve,
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
    make_unit_bump,
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
        trace_preimage(parse_map("z"), ImplicitCurve.segment(CHART), 1.0, 32)


# ---------------------------------------------------------------------------
# classification


def test_classify_exp_segment():
    m = parse_map("exp(z)")
    seg = ImplicitCurve.segment(CHART, 0.0)
    pls = trace_preimage(m, seg, 20.0, 512)
    good, bad, suspect = classify_arcs(pls, m, seg, 20.0)
    assert good == 7
    assert bad <= 2
    assert suspect == 0


@pytest.mark.parametrize("t", [0.05, -0.05])
def test_segment_lift_next_to_a_pole_is_one_good_arc(t):
    # Im(1/z) = t is one circle through the pole z = 0; the part of it over
    # the x-range is the single lift
    m = parse_map("1/z")
    chart = RectangleChart(1, 0, 0, 1, x_range=(-0.3, 0.3), t_range=(-0.1, 0.1))
    seg = ImplicitCurve.segment(chart, t)
    pls = trace_preimage(m, seg, 25.0, 256)
    assert classify_arcs(pls, m, seg, 25.0) == (1, 0, 0)
    assert len(pls) == 1


def test_classify_conservation():
    m = parse_map("z^3")
    seg = ImplicitCurve.segment(CHART, 0.0)
    pls = trace_preimage(m, seg, 2.0, 256)
    good, bad, suspect = classify_arcs(pls, m, seg, 2.0)
    assert good + bad + suspect == len(pls)


@pytest.mark.parametrize("d", [3, 5])
def test_segment_lifts_of_a_power_run_between_its_roots(d):
    # z^d lifts the segment from a d-th root of its start to one of its
    # end, on the line Im zeta(f(z)) = t and with Re zeta(f(z)) increasing
    m = parse_map(f"z^{d}")
    pls = trace_preimage(m, ImplicitCurve.segment(CHART, 0.03), 2.0, 512)
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
    pls = trace_preimage(m, ImplicitCurve.segment(chart, 0.02), 6.0, 512)
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
    pls = trace_preimage(m, ImplicitCurve.segment(chart, t), r, 512)
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
    seg = ImplicitCurve.segment(CHART, 0.0)
    assert classify_arcs(trace_preimage(m, seg, r, 512), m, seg, r) == counts


def test_segment_component_with_no_end_in_the_disk_is_not_an_arc():
    # the preimage of the segment meets |z| < 1 in two arcs that enter and
    # leave through the circle; they are no lifts from inside
    m = parse_map("z^2")
    seg = ImplicitCurve.segment(WIDE_CHART, 0.5)
    pls = trace_preimage(m, seg, 1.0, 512)
    assert pls == []
    assert classify_arcs(pls, m, seg, 1.0) == (0, 0, 0)


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


def test_select_perturbation_validates_samples():
    with pytest.raises(ValueError):
        select_perturbation(parse_map("z"), 1.0, CHART, 50)


def test_transversality_error_flat_crossings():
    # near w = i the circle |w| = 1 is almost horizontal: every candidate
    # line in this sliver is crossed flatter than the 5 degree margin
    thin = RectangleChart(1, 0, 0, 1, x_range=(-0.05, 0.05), t_range=(0.999, 0.9999))
    with pytest.raises(TransversalityError):
        select_perturbation(parse_map("z"), 1.0, thin, 100)


# ---------------------------------------------------------------------------
# arc test integral


def test_arc_integral_triple():
    val = arc_test_integral(parse_map("z^3"), CHART, 0.0, 2.0)
    assert abs(val - 3.0) < 1e-6


def test_arc_integral_identity():
    val = arc_test_integral(parse_map("z"), CHART, 0.0, 5.0)
    assert abs(val - 1.0) < 1e-6


def test_arc_integral_unit_weight_precondition():
    beta = make_unit_bump(CHART.x_range)

    def double_beta(x):
        return 2.0 * beta(x)

    with pytest.raises(ValueError, match="not 1"):
        arc_test_integral(parse_map("z"), CHART, 0.0, 5.0, beta_profile=double_beta)


# ---------------------------------------------------------------------------
# graph preimages


def test_face_of_infinity_is_outer():
    g8 = GraphSpec(node=0.5j, scale=0.5)
    assert g8.face_of(INF) == g8.face_of(SpherePoint.of("inf")) == "outer"
    assert g8.face_of(0.5j + 0.5) == "lobe+"
    assert g8.face_of(SpherePoint.of(0.5j - 0.5)) == "lobe-"


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


def _complement_reference(pg, comps, r):
    """The full-grid walk: one `labels == k` mask per component, its chi,
    ring test and pixel count, and the face at the argmax of its distance
    transform."""
    m = parse_map(pg.map_source)
    n = comps.resolution
    h = 2.0 * r / n
    xs = -r + (np.arange(n) + 0.5) * h
    zz = xs[None, :] + 1j * xs[:, None]
    ring = (np.abs(zz) <= r) & (np.abs(zz) > r - 2.5 * h)
    labels, count = ndimage.label(comps.label_grid > 0)
    assert np.array_equal(labels, comps.label_grid)
    rows = []
    for k in range(1, count + 1):
        comp = labels == k
        dist = ndimage.distance_transform_cdt(comp)
        w = evaluate(m, complex(zz[np.unravel_index(int(np.argmax(dist)), comp.shape)]))
        face = pg.graph.face_of(w)
        chi = _march.mask_euler_characteristic(comp)
        rows.append((chi, bool((comp & ring).any()), face, int(comp.sum()), k))
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
    chains = _march.extract(field, (-1, 1, -1, 1), 4, 4)
    assert [(c.points.tolist(), c.closed, c.cell_size) for c in chains] == expected


@pytest.mark.parametrize(
    ("source", "node", "scale", "r", "resolution", "raises"),
    [
        ("z^8", 0.5j, 0.5, 3, 64, True),
        ("exp(z)", 0.25j, 1, 80, 128, True),
        ("z^5", 0.5j, 0.5, 10, 64, False),
    ],
)
def test_complement_corridor_conflict(source, node, scale, r, resolution, raises):
    g = build_preimage_graph(parse_map(source), GraphSpec(node=node, scale=scale), r, resolution)
    if raises:
        with pytest.raises(ResolutionError, match="share a pixel corridor"):
            complement_components(g, r, resolution)
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
    assert np.array_equal(analysis.label_grid == 0, expected)


def _assert_components_match_ndimage(mask):
    """`components` gives ndimage's label grid, its find_objects boxes and
    the first distance_transform_cdt argmax of every component on its box
    grown by one pixel; `_depth` is that transform on every component."""
    labels, entries = _march.components(mask)
    ref_labels, count = ndimage.label(mask)
    assert np.array_equal(labels, ref_labels)
    assert [entry[0] for entry in entries] == list(range(1, count + 1))
    depth = _march._depth(mask)
    for (label, box, local, deepest), ref_box in zip(entries, ndimage.find_objects(ref_labels)):
        assert box == ref_box
        assert np.array_equal(local, ref_labels[box] == label)
        grown = tuple(slice(max(s.start - 1, 0), s.stop + 1) for s in box)
        comp = ref_labels[grown] == label
        dist = ndimage.distance_transform_cdt(comp)
        j, i = np.unravel_index(int(np.argmax(dist)), dist.shape)
        assert deepest == (grown[0].start + j, grown[1].start + i)
        if comp.all():  # no pixel off the mask: cdt gives -1, _depth its "far"
            assert (depth == sum(mask.shape)).all()
        else:
            assert np.array_equal(depth[grown][comp], dist[comp])
    return entries


def test_components_match_full_grid_reference():
    mask = np.zeros((40, 50), dtype=bool)
    mask[0:6, 0:4] = mask[0:2, 0:13] = True  # touches the grid edge
    mask[10:21, 10:23] = True  # a ring: a component with a hole
    mask[13:17, 14:19] = False
    mask[25:32, 30:45] = True  # fills its bounding box
    mask[35, 5] = mask[36, 6] = True  # diagonal neighbours: two components
    mask[30:40, 47:50] = True  # touches the grid corner
    entries = _assert_components_match_ndimage(mask)
    ref_labels, _ = ndimage.label(mask)
    for label, box, local, deepest in entries:
        comp = ref_labels == label
        assert local.sum() == comp.sum()
        chi = _march.mask_euler_characteristic(comp)
        assert _march.mask_euler_characteristic(local) == chi
        dist = ndimage.distance_transform_cdt(comp)
        assert deepest == np.unravel_index(int(np.argmax(dist)), comp.shape)
    chis = sorted(_march.mask_euler_characteristic(local) for _, _, local, _ in entries)
    assert chis == [0, 1, 1, 1, 1, 1]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 50),
    st.floats(0.2, 0.8),
    st.integers(0, 2**32 - 1),
)
def test_components_match_ndimage_on_random_masks(n_rows, n_cols, density, seed):
    # dense random masks put components on the grid edges, holes in them and
    # diagonal-only contacts between them
    mask = np.random.default_rng(seed).random((n_rows, n_cols)) < density
    _assert_components_match_ndimage(mask)


@pytest.mark.parametrize("fill", [False, True])
def test_components_of_a_uniform_mask(fill):
    _assert_components_match_ndimage(np.full((3, 4), fill))
