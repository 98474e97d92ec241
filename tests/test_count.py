import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverlab import count as count_module
from coverlab.expr import evaluate, evaluate_array, parse_map
from coverlab.count import (
    IslandRecord,
    ResolutionError,
    RootOnCircleError,
    WindingError,
    count_preimages,
    count_preimages_many,
    find_islands,
    find_roots,
    mean_degree,
    multiplicity_count,
    total_ramification,
)
from coverlab.metric import (
    SphericalDisk,
    area,
    chordal_distance,
    chordal_distance_array,
    sample_sphere_uniform,
)

RHO = 0.2 / math.sqrt(math.pi)  # the standard disk radius used throughout


def test_count_cube_roots():
    assert count_preimages(parse_map("z^3"), 8, 3.0) == 3


def test_count_distinct_vs_multiplicity():
    m = parse_map("z^2")
    assert count_preimages(m, 0, 1.0) == 1
    assert multiplicity_count(m, 0, 1.0) == 2


def test_count_exp_lattice():
    me = parse_map("exp(z)")
    assert count_preimages(me, 1, 20.0) == 7  # z = 2 pi i k, |k| <= 3
    assert count_preimages(me, "inf", 20.0) == 0


def test_count_rational_poles_and_values():
    mr = parse_map("(z^2-1)/(z^2+1)")
    assert count_preimages(mr, "inf", 10.0) == 2
    assert count_preimages(mr, 0, 10.0) == 2
    assert count_preimages(mr, 3, 10.0) == 2
    # the value 1 is attained only at z = infinity
    assert count_preimages(mr, 1, 10.0) == 0


def test_root_on_circle_error():
    with pytest.raises(RootOnCircleError):
        count_preimages(parse_map("z^3"), 8, 2.0)


@pytest.mark.parametrize(
    "source, r",
    [
        ("z^3", 1.5),
        ("exp(z)", 8.0),
        ("exp(z)", 20.0),
        ("sin(z)", 6.0),
        ("(z^2-1)/(z-1)", 2.0),  # the removable 0/0 at z = 1 must not count
        ("(z-0.5)^2/(z-0.5)^3", 1.0),
        ("1/(z-0.5)+z^2", 1.3),
    ],
)
def test_count_preimages_many_matches_count_preimages(source, r):
    m = parse_map(source)
    points = sample_sphere_uniform(2024, 100)
    batched = count_preimages_many(m, points, r)
    mismatches = [
        (p, got) for p, got in zip(points, batched) if got != count_preimages(m, p, r)
    ]
    assert mismatches == []


def test_count_preimages_many_near_boundary_image():
    # images of points 1e-4 r inside and outside the circle sit closer to
    # f(|z| = r) than the coarse polyline's chords; z^3 maps the circle of
    # radius rho onto the one of radius rho^3, so 3 roots lie inside or none
    m = parse_map("z^3")
    angles = np.linspace(0.0, 2 * math.pi, 50, endpoint=False)
    inner = [evaluate(m, 1.5 * (1 - 1e-4) * cmath.exp(1j * a)) for a in angles]
    outer = [evaluate(m, 1.5 * (1 + 1e-4) * cmath.exp(1j * a)) for a in angles]
    assert count_preimages_many(m, inner + outer, 1.5) == [3] * 50 + [0] * 50


def test_count_preimages_many_target_on_boundary_image_is_undecided():
    m = parse_map("exp(z)")
    on_curve = evaluate(m, 8.0 * cmath.exp(0.7j))
    off_curve = 0.5 + 0.25j
    assert count_preimages_many(m, [on_curve, off_curve], 8.0) == [
        None,
        count_preimages(m, off_curve, 8.0),
    ]
    with pytest.raises(RootOnCircleError):
        count_preimages(m, on_curve, 8.0)


def test_count_preimages_many_infinity_is_undecided():
    assert count_preimages_many(parse_map("1/(z-0.5)"), ["inf", 3], 1.0) == [None, 1]


def test_multiplicity_at_infinity_is_pole_order():
    # the cleared denominator (z-0.5)^3 has a triple zero, f a simple pole
    assert multiplicity_count(parse_map("(z-0.5)^2/(z-0.5)^3"), "inf", 1.0) == 1
    assert multiplicity_count(parse_map("1/(z-0.5)^2 + z"), "inf", 1.0) == 2
    assert multiplicity_count(parse_map("(z^2-1)/(z-1)"), "inf", 2.0) == 0


@pytest.mark.parametrize(
    ("source", "p", "expected"),
    [
        ("(z^2-1)/(z-1)", 2, 1),  # f = z + 1, a simple 2-point at z = 1
        ("z^2*(z-1)/(z-1)", 1, 2),  # f = z^2: simple 1-points at z = 1 and z = -1
        ("(z-1)^3/(z-1)", 0, 2),  # f = (z - 1)^2, a double zero at z = 1
        # D's zero is a pole next to the multiple root, not shared with it
        ("z^2/(z-1e-6)", 0, 2),
        ("z^3/(z+2e-6)^2", 0, 3),
    ],
)
def test_multiplicity_at_a_zero_of_the_cleared_denominator(source, p, expected):
    # N - p D has a zero of higher order at z = 1, where D vanishes too;
    # f - p itself has the order of the closed form there.  A pole next to
    # the root, not at it, takes nothing off its order
    assert multiplicity_count(parse_map(source), p, 3.0) == expected


def test_a_pole_far_inside_the_isolation_scale_takes_nothing_off():
    # the pole at 1e-8 is a thousandth of the isolation scale 1e-5 from the
    # double zero at 0; D's moments still place it apart from N's zero
    assert multiplicity_count(parse_map("z^2/(z-1e-8)"), 0, 1.0) == 2


@pytest.mark.parametrize("p", [3e4, 1e5, 1e6])
def test_a_p_point_next_to_a_pole_it_does_not_share_is_kept(p):
    # 1/z = p at z = 1/p, within a few isolation squares (1e-5 r) of the pole
    # at 0; the pole is no zero of N - p D = 1 - p z, so the point counts once
    m = parse_map("1/z")
    assert count_preimages(m, p, 1.0) == 1
    assert multiplicity_count(m, p, 1.0) == 1


@pytest.mark.parametrize(
    "source, numerator, denominator, r",
    [
        ("z^3 - 2*z + 1", [1, 0, -2, 1], [1], 1.5),
        ("(z^2+1)/(z-0.3)", [1, 0, 1], [1, -0.3], 2.0),
        ("1/(z-0.2)^2 + z", [1, -0.4, 0.04, 1], [1, -0.4, 0.04], 1.0),
    ],
)
def test_counts_match_polynomial_roots(source, numerator, denominator, r):
    # exact oracle sharing no code with the winding helper: the roots of
    # N - p D and of D from numpy.roots, for f = N/D with explicit coefficients
    m = parse_map(source)

    def inside(roots):
        return [z for z in roots if abs(z) < r]

    poles = inside(np.roots(denominator))
    assert multiplicity_count(m, "inf", r) == len(poles)
    rng = np.random.default_rng(1311)
    # half the targets are images of points 1e-3 r off the circle
    near = r * (1 + 1e-3 * rng.choice([-1, 1], 20)) * np.exp(2j * np.pi * rng.random(20))
    candidates = np.concatenate(
        [
            3 * (rng.standard_normal(20) + 1j * rng.standard_normal(20)),
            np.polyval(numerator, near) / np.polyval(denominator, near),
        ]
    )
    targets, expected = [], []
    for p in candidates:
        roots = np.roots(np.polysub(numerator, p * np.asarray(denominator)))
        roots = [z for z in roots if abs(np.polyval(denominator, z)) > 1e-9]
        if any(abs(abs(z) - r) < 1e-6 * r for z in roots):
            continue
        targets.append(complex(p))
        expected.append(len(inside(roots)))
    assert len(targets) >= 30
    assert [count_preimages(m, p, r) for p in targets] == expected
    batched = count_preimages_many(m, targets, r)
    assert [got for got in batched if got is not None] == [
        want for got, want in zip(batched, expected) if got is not None
    ]


def _counting_windings(monkeypatch):
    """Calls of count._windings, recorded from now on."""
    calls = []
    windings = count_module._windings

    def counted(*args):
        calls.append(args)
        return windings(*args)

    monkeypatch.setattr(count_module, "_windings", counted)
    return calls


def test_find_roots_winds_one_cell_of_a_zero_free_map(monkeypatch):
    # exp has no zeros, so the bounding square's winding 0 ends the search
    calls = _counting_windings(monkeypatch)
    assert find_roots(parse_map("exp(z)"), 0, 80.0) == []
    assert len(calls) == 1


def test_find_roots_locations():
    roots = find_roots(parse_map("z^3"), 8, 3.0)
    locs = sorted((r.location for r in roots), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    targets = sorted(
        (2 * np.exp(2j * math.pi * k / 3) for k in range(3)),
        key=lambda z: (round(z.real, 6), round(z.imag, 6)),
    )
    for got, want in zip(locs, targets):
        assert abs(got - want) < 1e-9
    assert all(r.multiplicity == 1 for r in roots)


def test_find_roots_multiple_root():
    roots = find_roots(parse_map("z^5"), 0, 10.0)
    assert len(roots) == 1
    assert roots[0].multiplicity == 5
    assert abs(roots[0].location) < 1e-3

# find_roots' Root lists for these configs, pinned: the cells' sample points,
# and so every root, must not depend on how many cells share a winding pass
_PINNED_ROOTS = [
    (
        "z^5", 1, 10.0,
        [
            ((-0.8090169943749475-0.5877852522924731j), 1),
            ((-0.8090169943749475+0.5877852522924731j), 1),
            ((0.3090169943749474+0.9510565162951535j), 1),
            ((0.30901699437494745-0.9510565162951536j), 1),
            ((1+0j), 1),
        ],
    ),
    (
        "z^5", 0.5j, 10.0,
        [
            ((-0.8279427859871954+0.2690149185211857j), 1),
            ((-0.511696782480367-0.7042902001692478j), 1),
            ((2.100342160150944e-29+0.8705505632961241j), 1),
            ((0.5116967824803669-0.7042902001692478j), 1),
            ((0.8279427859871954+0.2690149185211857j), 1),
        ],
    ),
    (
        "exp(z)", 1 + 0.25j, 47.298,
        [
            ((0.030312310908217323-43.73731848713024j), 1),
            ((0.030312310908217347+12.811349277486038j), 1),
            ((0.03031231090821736+25.37771989184521j), 1),
            ((0.030312310908217392-18.604577258411894j), 1),
            ((0.030312310908217413-24.887762565591483j), 1),
            ((0.030312310908217423+0.24497866312686414j), 1),
            ((0.030312310908217437+31.660905199024796j), 1),
            ((0.030312310908217444-37.45413317995065j), 1),
            ((0.030312310908217448+44.22727581338397j), 1),
            ((0.030312310908217455-31.17094787277107j), 1),
            ((0.030312310908217455-6.038206644052722j), 1),
            ((0.030312310908217472+6.5281639703064505j), 1),
            ((0.03031231090821749+19.094534584665624j), 1),
            ((0.0303123109082175+37.94409050620438j), 1),
            ((0.03031231090821753-12.32139195123231j), 1),
        ],
    ),
    (
        "exp(z)", 0.25j, 80.0,
        [
            ((-1.3862943611198906-73.82742735936014j), 1),
            ((-1.3862943611198906-67.54424205218055j), 1),
            ((-1.3862943611198906-61.26105674500097j), 1),
            ((-1.3862943611198906-54.977871437821385j), 1),
            ((-1.3862943611198906-48.6946861306418j), 1),
            ((-1.3862943611198906-42.411500823462205j), 1),
            ((-1.3862943611198906-36.12831551628262j), 1),
            ((-1.3862943611198906-29.845130209103036j), 1),
            ((-1.3862943611198906-23.56194490192345j), 1),
            ((-1.3862943611198906-17.278759594743864j), 1),
            ((-1.3862943611198906-10.995574287564276j), 1),
            ((-1.3862943611198906-4.71238898038469j), 1),
            ((-1.3862943611198906+1.5707963267948966j), 1),
            ((-1.3862943611198906+7.853981633974483j), 1),
            ((-1.3862943611198906+14.137166941154069j), 1),
            ((-1.3862943611198906+20.420352248333657j), 1),
            ((-1.3862943611198906+26.703537555513243j), 1),
            ((-1.3862943611198906+32.98672286269283j), 1),
            ((-1.3862943611198906+39.269908169872416j), 1),
            ((-1.3862943611198906+45.553093477052j), 1),
            ((-1.3862943611198906+51.83627878423159j), 1),
            ((-1.3862943611198906+58.119464091411174j), 1),
            ((-1.3862943611198906+64.40264939859077j), 1),
            ((-1.3862943611198906+70.68583470577035j), 1),
            ((-1.3862943611198906+76.96902001294994j), 1),
        ],
    ),
    (
        "sin(z)", 0.3, 10.0,
        [
            ((-9.729470614784777+0j), 1),
            ((-5.978492653164189-4.215672677501087e-27j), 1),
            ((-3.4462853076051907-2.4360024753224845e-27j), 1),
            ((0.30469265401539747+0j), 1),
            ((2.836899999574396+1.504632769052528e-36j), 1),
            ((6.587877961194984+2.1204581132340797e-27j), 1),
            ((9.120085306753982+5.877471754111438e-39j), 1),
        ],
    ),
    (
        "z + 0.01/z", 0, 2.0,
        [
            ((-1.8367099231598242e-40+0.09999999999999999j), 1),
            (-0.1j, 1),
        ],
    ),
    (
        "(z^3-3*z^2+3*z-1)/(z-1)", 0, 3.0,
        [
            ((1+0j), 2),
        ],
    ),
    (
        "1/z^3", "inf", 1.0,
        [
            (0j, 3),
        ],
    ),
]


@pytest.mark.parametrize(("source", "p", "r", "expected"), _PINNED_ROOTS)
def test_find_roots_output_is_pinned(source, p, r, expected):
    roots = find_roots(parse_map(source), p, r)
    locations = [root.location for root in roots]
    assert locations == sorted(locations, key=lambda z: (z.real, z.imag))
    assert [root.multiplicity for root in roots] == [k for _, k in expected]
    for root, (location, _) in zip(roots, expected):
        # pinned roots whose real parts tie to 1e-12 may come in either order
        ties = [want for want, _ in expected if abs(want.real - location.real) <= 1e-12]
        assert any(abs(root.location - want) <= 1e-12 * max(abs(want), 1.0) for want in ties)


def test_find_roots_winds_each_subdivision_level_in_one_pass(monkeypatch):
    calls = _counting_windings(monkeypatch)
    # one pass per level, for 181 and 37 cells
    assert len(find_roots(parse_map("exp(z)"), 0.25j, 80.0)) == 25
    assert len(calls) <= 10
    calls.clear()
    assert len(find_roots(parse_map("z^5"), 1, 10.0)) == 5
    assert len(calls) <= 10


def test_find_roots_resplits_off_a_root(monkeypatch):
    # z^8 = 1: the bounding square winds 8 > _MOMENT_MAX times, and its 0.5
    # split cuts along both axes through the roots +-1 and +-i, so the split
    # is cut again at 0.53 in the next pass
    calls = _counting_windings(monkeypatch)
    roots = find_roots(parse_map("z^8"), 1, 2.0)
    expected = np.exp(2j * np.pi * np.arange(8) / 8)
    assert max(abs(expected - root.location).min() for root in roots) < 1e-12
    assert [root.multiplicity for root in roots] == [1] * 8
    assert len(calls) == 3  # the square, the failed split and the re-split


def test_a_rotated_double_root_takes_no_more_passes(monkeypatch):
    # (wz - 0.5)(wz - 0.25)^2, w = e^{i/128}: the bounding square's moments
    # give both roots, as for w = 1, however close to a split line they lie
    w = cmath.exp(1j / 128)
    turn = f"(0{w.real:+.17g}{w.imag:+.17g}i)"
    calls = _counting_windings(monkeypatch)
    roots = find_roots(parse_map(f"({turn}*z-0.5)*({turn}*z-0.25)^2"), 0, 1.0)
    assert len(calls) <= 7
    assert [root.multiplicity for root in roots] == [2, 1]
    assert [root.location for root in roots] == pytest.approx([0.25 / w, 0.5 / w], abs=1e-12)


def test_cells_whose_moments_fail_are_roots_at_the_isolation_scale(monkeypatch):
    # every root cell is split down to 1e-5 r, where it is one root at the
    # mean of its zeros, less the zeros of D in it
    monkeypatch.setattr(count_module, "_cell_roots", lambda *args: [None] * len(args[3]))
    roots = find_roots(parse_map("(z-0.3)^2*(z+0.5i)/(z-0.3)"), 0, 1.0)
    assert [root.location for root in roots] == pytest.approx([-0.5j, 0.3], abs=1e-12)
    assert [root.multiplicity for root in roots] == [1, 1]
    (pole,) = find_roots(parse_map("1/z^3"), "inf", 1.0)
    assert abs(pole.location) < 1e-12 and pole.multiplicity == 3


def test_cell_boundaries_match_complex_arithmetic():
    # every corner is the float that a + (b - a) * k / 6 gives in Python's
    # complex arithmetic, so the cells' sample points do not depend on
    # how many cells share a pass
    rng = np.random.default_rng(7)
    boxes = [(-10.00001, 10.00001, -10.00001, 10.00001), (0.0, 0.6, -0.3, 0.0)]
    for x0, y0, w, h in rng.uniform([-5, -5, 1e-6, 1e-6], [5, 5, 3, 3], (50, 4)):
        boxes.append((x0, x0 + w, y0, y0 + h))
    loops = count_module._rects(boxes)
    assert np.array_equal(loops.loops, np.repeat(np.arange(len(boxes)), 24))
    for corners, (x0, x1, y0, y1) in zip(loops.corners.reshape(-1, 24), boxes):
        sw, se, ne, nw = complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)
        sides = ((sw, se), (se, ne), (ne, nw), (nw, sw))
        expected = [a + (b - a) * k / 6 for a, b in sides for k in range(6)]
        assert corners.tolist() == expected


def test_find_roots_cell_budget(monkeypatch):
    # z^8 = 1 winds 8 > _MOMENT_MAX times on the bounding square; with the
    # failed split and the re-split that is 9 cells
    monkeypatch.setattr(count_module, "_MAX_CELLS", 8)
    with pytest.raises(WindingError, match="cell subdivision budget"):
        find_roots(parse_map("z^8"), 1, 2.0)


def test_curve_point_budget_is_per_loop(monkeypatch):
    # z^7 = 1 winds 7 > _MOMENT_MAX times on the bounding square, which is split
    m = parse_map("z^7")
    points = []  # polyline vertices of each loop, per pass
    image_polygon = count_module._image_polygon

    def spy(*args):
        vertices, loop, undecided = image_polygon(*args)
        points.append(np.bincount(loop))
        return vertices, loop, undecided

    monkeypatch.setattr(count_module, "_image_polygon", spy)
    expected = find_roots(m, 1, 10.0)
    most = max(per_loop.max() for per_loop in points)
    assert max(per_loop.sum() for per_loop in points) > 2 * most
    # a budget every loop keeps is enough, though the passes hold more points
    monkeypatch.setattr(count_module, "_MAX_CURVE_POINTS", int(most))
    assert find_roots(m, 1, 10.0) == expected
    # one cell over the budget raises, though the bounding square is within it
    top = int(points[0].max())
    assert top < most
    monkeypatch.setattr(count_module, "_MAX_CURVE_POINTS", top)
    with pytest.raises(WindingError, match="contour refinement budget"):
        find_roots(m, 1, 10.0)


@pytest.mark.parametrize(
    ("source", "r", "expected"),
    [
        ("(z^3-3*z^2+3*z-1)/(z-1)", 1.05, 2),  # f = (z - 1)^2
        ("(z^3-3*z^2+3*z-1)/(z-1)", 3.0, 2),
        ("(z^4-4*z^3+6*z^2-4*z+1)/(z-1)^2", 3.0, 2),  # f = (z - 1)^2
        ("(z^3-3*z^2+3*z-1)/(z^2-2*z+1)", 3.0, 1),  # f = z - 1
    ],
)
def test_multiple_root_in_expanded_form(source, r, expected):
    # rounding noise of N - p D about its triple or quadruple zero at z = 1
    # puts roots on every split line there; the zero is taken from the
    # moments on a cell boundary far from that noise instead
    assert multiplicity_count(parse_map(source), 0, r) == expected


def test_a_cluster_of_simple_roots_is_not_merged():
    # z^5 = 1e-16 has 5 simple roots on |z| = 6.3e-4, 70 isolation scales apart
    roots = find_roots(parse_map("z^5-1e-16"), 0, 1.0)
    assert len(roots) == 5
    assert all(root.multiplicity == 1 for root in roots)


def _separated(factors):
    roots = [a for a, _ in factors]
    return all(abs(a - b) >= 0.1 for k, a in enumerate(roots) for b in roots[:k])


_FACTORS = st.lists(
    st.tuples(
        st.complex_numbers(max_magnitude=0.79, allow_nan=False, allow_infinity=False).map(
            lambda a: complex(round(a.real, 3), round(a.imag, 3))
        ),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=3,
).filter(_separated)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(_FACTORS)
def test_find_roots_of_a_product_of_powers(factors):
    # (z - a1)^m1 (z - a2)^m2 ... has exactly the roots a_k of order m_k
    source = "*".join(f"(z{-a.real:+.3f}{-a.imag:+.3f}i)^{k}" for a, k in factors)
    roots = find_roots(parse_map(source), 0, 1.0)
    assert len(roots) == len(factors)
    for a, k in factors:
        (root,) = [root for root in roots if abs(root.location - a) < 1e-6]
        assert root.multiplicity == k


def _expanded(coefficients):
    """Source text of the polynomial with these coefficients, highest first."""
    degree = len(coefficients) - 1
    return "+".join(
        f"(0{c.real:+.17g}{c.imag:+.17g}i)*z^{degree - k}" for k, c in enumerate(coefficients)
    )


_ZEROS = st.lists(
    st.tuples(
        st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False).map(
            lambda a: complex(round(a.real, 3), round(a.imag, 3))
        ),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
).filter(_separated)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_ZEROS, st.booleans())
def test_find_roots_matches_numpy_roots(zeros, expanded):
    # oracle apart from the windings and moments: numpy.roots of the
    # coefficients, whose split copies of a k-fold zero are one zero at their
    # mean.  Degrees above _MOMENT_MAX are subdivided before moments are taken
    coefficients = np.poly([a for a, k in zeros for _ in range(k)])
    copies = np.roots(coefficients)
    expected = []
    for a, _ in zeros:
        near = copies[abs(copies - a) < 0.04]
        expected.append((near.mean(), len(near)))
    assert sum(k for _, k in expected) == len(copies)
    if expanded:
        source = _expanded(coefficients)
    else:
        source = "*".join(f"(z{-a.real:+.3f}{-a.imag:+.3f}i)^{k}" for a, k in zeros)
    roots = find_roots(parse_map(source), 0, 1.0)
    assert len(roots) == len(expected)
    for location, k in expected:
        (root,) = [root for root in roots if abs(root.location - location) < 1e-9]
        assert root.multiplicity == k


def test_mean_degree_constant_cover():
    md = mean_degree(parse_map("z^3"), 10.0, 200, seed=11)
    assert md.mean == pytest.approx(3.0, abs=0.02)


def test_mean_degree_identity():
    md = mean_degree(parse_map("z"), 1.0, 600, seed=3)
    a = area(parse_map("z"), 1.0)
    assert abs(md.mean - a) <= 3 * md.stderr + 0.02 * a


def test_mean_degree_stderr_scaling():
    m = parse_map("z")
    s1 = mean_degree(m, 1.0, 200, seed=1).stderr
    s2 = mean_degree(m, 1.0, 800, seed=1).stderr
    assert s2 < s1  # ~ 1/2 in expectation


def test_mean_degree_exp_within_four_stderr_of_area():
    m = parse_map("exp(z)")
    md = mean_degree(m, 8.0, 10_000, seed=29)
    assert md.stderr < 0.01
    assert abs(md.mean - area(m, 8.0)) <= 4 * md.stderr


def test_mean_degree_validates_samples():
    with pytest.raises(ValueError):
        mean_degree(parse_map("z"), 1.0, 50, seed=0)


# ---------------------------------------------------------------------------
# Islands


def test_islands_z5_standard_disks():
    m = parse_map("z^5")
    per_disk = []
    for center in (0, 1, "inf"):
        isl, ambiguous = find_islands(m, SphericalDisk.of(center, RHO), 10.0, 512)
        assert ambiguous == 0
        per_disk.append(isl)
    assert [len(d) for d in per_disk] == [1, 5, 0]
    over_zero = per_disk[0][0]
    assert over_zero.degree == 5
    assert over_zero.chi == 1
    assert over_zero.ramification == 4
    assert all(rec.degree == 1 for rec in per_disk[1])


def test_islands_exp_thirteen():
    m = parse_map("exp(z)")
    total = 0
    for center in (1, -1, "inf"):
        isl, ambiguous = find_islands(m, SphericalDisk.of(center, RHO), 20.0, 512)
        assert ambiguous == 0
        total += len(isl)
    assert total == 13


def test_islands_identity():
    isl, ambiguous = find_islands(parse_map("z"), SphericalDisk.of(0, RHO), 2.0, 256)
    assert ambiguous == 0
    assert len(isl) == 1
    assert isl[0].degree == 1
    assert isl[0].ramification == 0


def test_islands_resolution_stability():
    m = parse_map("z^5")
    counts = []
    for res in (256, 512):
        counts.append(
            sum(len(find_islands(m, SphericalDisk.of(c, RHO), 10.0, res)[0]) for c in (0, 1, "inf"))
        )
    assert counts[0] == counts[1] == 6


def test_find_islands_memory():
    # exp-topology's island scan at its largest radius: its three disks, with
    # no pixel grid or window (a full 2048^2 complex grid would be 64 MB)
    m = parse_map("exp(z)")
    disks = [
        SphericalDisk.of(1 + 0.25j, 0.05),
        SphericalDisk.of(-1 + 0.25j, 0.05),
        SphericalDisk.of("inf", RHO),
    ]
    tracemalloc.start()
    try:
        for disk in disks:
            find_islands(m, disk, 80.0, resolution=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_island_scans_do_not_depend_on_scan_order():
    # a disk's islands do not depend on which disks were scanned before it
    m = parse_map("exp(z)")
    disks = [SphericalDisk.of(c, RHO) for c in (1, -1, "inf")]
    forward = [find_islands(m, disk, 20.0, 512) for disk in disks]
    backward = [find_islands(m, disk, 20.0, 512) for disk in reversed(disks)][::-1]
    for (isl, amb), (isl2, amb2) in zip(forward, backward):
        assert amb == amb2
        assert len(isl) == len(isl2)
        for rec, rec2 in zip(isl, isl2):
            assert (rec.chi, rec.degree, rec.ramification, rec.centroid) == (
                rec2.chi, rec2.degree, rec2.ramification, rec2.centroid
            )
            assert np.array_equal(rec.boundary, rec2.boundary)
            assert len(rec.holes) == len(rec2.holes)
            assert all(np.array_equal(a, b) for a, b in zip(rec.holes, rec2.holes))


@pytest.mark.parametrize("resolution", [256, 512, 2048])
@pytest.mark.parametrize("radius", [0.005, 0.05])
def test_islands_smaller_than_a_pixel_are_found(radius, resolution):
    # exp(z) = 1+0.25i has 13 solutions in |z| < 40, each the seed of a
    # simple island; at radius 0.005 an island is about 0.035 across, below
    # the pixel size 80/resolution (0.039 at 2048) of every resolution here
    m = parse_map("exp(z)")
    isl, ambiguous = find_islands(m, SphericalDisk.of(1 + 0.25j, radius), 40.0, resolution)
    assert (len(isl), ambiguous, sum(rec.degree for rec in isl)) == (13, 0, 13)


def _inside(polyline, z):
    """Crossing-number test: z inside the closed polyline."""
    x, y = polyline.real, polyline.imag
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    straddles = (y > z.imag) != (y2 > z.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = x + (z.imag - y) * (x2 - x) / (y2 - y)
    return bool(np.count_nonzero(straddles & (z.real < x_cross)) % 2)


@pytest.mark.parametrize(
    "source, r, centers",
    [
        ("exp(z)", 20.0, (1, -1, "inf")),
        # the disk at 0.5 holds the critical value 2 / (3 sqrt 3) = 0.385, so
        # one of its islands holds two distinct solutions
        ("z^3-z", 1.5, (0, 1, "inf", 0.5)),
        # one island of degree 5 about the 5-fold seed 0
        ("z^5", 10.0, (0, 1, "inf")),
    ],
)
def test_island_degree_counts_the_centre_preimages_it_encloses(source, r, centers):
    # argument-principle oracle: an island of degree d holds d solutions of
    # f = centre, counted with multiplicity, inside its outer boundary and
    # outside its holes; no solution is counted by two islands
    m = parse_map(source)
    n_islands = 0
    for center in centers:
        roots = find_roots(m, center, r)
        isl, ambiguous = find_islands(m, SphericalDisk.of(center, RHO), r, 512)
        assert ambiguous == 0
        assert sum(rec.degree for rec in isl) <= sum(root.multiplicity for root in roots)
        for rec in isl:
            enclosed = sum(
                root.multiplicity
                for root in roots
                if _inside(rec.boundary, root.location)
                and not any(_inside(hole, root.location) for hole in rec.holes)
            )
            assert rec.degree == enclosed
        n_islands += len(isl)
    assert n_islands >= 5


@pytest.mark.parametrize("resolution", [256, 512])
def test_an_island_hole_smaller_than_a_pixel_is_found(resolution):
    # z + 1e-4/z has the critical points +-0.01, whose values +-0.02 lie in
    # the disk at 0, so by Riemann-Hurwitz its degree-2 island there has
    # chi = 2 - 2 = 0: an annulus whose hole about the pole 0 is about 1e-3
    # across, below the pixel size 4/resolution
    isl, ambiguous = find_islands(parse_map("z+1e-4/z"), SphericalDisk.of(0, RHO), 2.0, resolution)
    assert ambiguous == 0
    assert [(rec.degree, rec.chi, len(rec.holes)) for rec in isl] == [(2, 0, 1)]


def test_islands_start_below_a_critical_value_near_the_centre():
    # z + 1e-6/z has the critical values +-2e-3, close to the centre 0 of the
    # disk: the branches must start nearer their seeds +-1e-3 i than s = 0.01
    # of the segment to the boundary, else the lift leaves them at once; by
    # Riemann-Hurwitz the degree-2 island over the disk has chi = 0
    isl, ambiguous = find_islands(parse_map("z+1e-6/z"), SphericalDisk.of(0, RHO), 2.0, 512)
    assert ambiguous == 0
    assert [(rec.degree, rec.chi, len(rec.holes)) for rec in isl] == [(2, 0, 1)]


def test_a_disk_just_missing_a_critical_value_has_two_islands():
    # the disk about 0.3 reaching to 1e-6 short of z^2's critical value 0
    # pulls back to two simple islands about +-sqrt(0.3), about 3e-3 apart at
    # the critical point; with the critical value on its boundary the two
    # touch there, and the lift through the critical point cannot go on
    m = parse_map("z^2")
    radius = chordal_distance(0.3, 0)
    isl, ambiguous = find_islands(m, SphericalDisk.of(0.3, radius - 1e-6), 2.0, 512)
    assert (ambiguous, [rec.degree for rec in isl]) == (0, [1, 1])
    with pytest.raises(ResolutionError):
        find_islands(m, SphericalDisk.of(0.3, radius), 2.0, 512)


@pytest.mark.parametrize(
    "source, center, r",
    [
        ("exp(z)", 1, 20.0),
        ("z^5", 0, 10.0),
        ("z^5", 1, 10.0),
        ("z+0.01/z", 0, 2.0),
        ("(z^2-1)/(z^2+4)", "inf", 3.0),
    ],
)
def test_island_boundaries_lie_on_the_disk_boundary(source, center, r):
    m = parse_map(source)
    disk = SphericalDisk.of(center, RHO)
    isl, _ = find_islands(m, disk, r, 512)
    assert isl
    for rec in isl:
        for loop in [rec.boundary, *rec.holes]:
            dist = chordal_distance_array(evaluate_array(m, loop), disk.center)
            assert np.abs(dist - RHO).max() <= 1e-9


@pytest.mark.parametrize(
    "source, expected",
    [
        # a double pole at 0.3: one 2-fold seed, two branches
        ("z^2/(z-0.3)^2", [(2, 1)]),
        ("1/(z^3-0.5)", [(1, 1)] * 3),
    ],
)
def test_islands_over_infinity_of_rational_maps(source, expected):
    isl, ambiguous = find_islands(parse_map(source), SphericalDisk.of("inf", RHO), 2.0, 512)
    assert ambiguous == 0
    assert sorted((rec.degree, rec.chi) for rec in isl) == expected


def test_island_boundary_properness():
    m = parse_map("z^5")
    isl, _ = find_islands(m, SphericalDisk.of(1, RHO), 10.0, 512)
    for rec in isl:
        assert np.abs(rec.boundary).max() < 10.0 * (1 - 10.0 / 512)


def test_degree_sum_vs_count_with_multiplicity():
    m = parse_map("z^5")
    for center in (0, 1):
        isl, _ = find_islands(m, SphericalDisk.of(center, RHO), 10.0, 512)
        degree_sum = sum(rec.degree for rec in isl)
        assert degree_sum <= multiplicity_count(m, center, 10.0)
        assert degree_sum == multiplicity_count(m, center, 10.0)


def test_total_ramification():
    m = parse_map("z^5")
    records = []
    for center in (0, 1, "inf"):
        records.extend(find_islands(m, SphericalDisk.of(center, RHO), 10.0, 512)[0])
    assert total_ramification(records) == 4
    assert total_ramification([]) == 0


def test_ramification_zero_without_critical_points():
    m = parse_map("exp(z)")
    records = []
    for center in (1, -1):
        records.extend(find_islands(m, SphericalDisk.of(center, RHO), 20.0, 512)[0])
    assert total_ramification(records) == 0
