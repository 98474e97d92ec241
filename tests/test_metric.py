import cmath
import math
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from coverlab import _march, metric
from coverlab.expr import INF, IndeterminateError, parse_map, differentiate
from coverlab.metric import (
    MAX_DISK_RADIUS,
    MetricProfile,
    PoleOnCircleError,
    SphericalDisk,
    area,
    area_derivative,
    boundary_areas,
    boundary_length,
    build_profile,
    chordal_distance,
    chordal_distance_array,
    density_array,
    lengtharea_certificate,
    sample_sphere_uniform,
    select_radii,
    sphere_point,
    spherical_density,
)

SQRT_PI = math.sqrt(math.pi)


def closed_area(d, r):
    return d * r ** (2 * d) / (1 + r ** (2 * d))


def closed_length(d, r):
    return 2 * SQRT_PI * d * r**d / (1 + r ** (2 * d))


def boundary_area(m, r, tol=1e-9):
    """`boundary_areas` at one radius, called like `area`."""
    return boundary_areas(m, [r], tol)[0]


# ---------------------------------------------------------------------------
# chordal distance


def test_chordal_reference_values():
    assert abs(chordal_distance(0, "inf") - 1 / SQRT_PI) < 1e-14
    assert abs(chordal_distance(0, 1) - 1 / math.sqrt(2 * math.pi)) < 1e-14
    assert chordal_distance(2 + 3j, 2 + 3j) == 0.0


def test_chordal_symmetry_and_diameter():
    rng = np.random.default_rng(5)
    pts = [complex(a, b) for a, b in rng.normal(0, 3, size=(30, 2))] + ["inf"]
    for p in pts:
        for q in pts:
            d1 = chordal_distance(p, q)
            assert abs(d1 - chordal_distance(q, p)) < 1e-15
            assert d1 <= 1 / SQRT_PI + 1e-15


def _chordal_decimal(p, q):
    """dist(p, q) for finite p, q in 50-digit decimal arithmetic."""
    pi = Decimal("3.14159265358979323846264338327950288419716939937510")
    with localcontext() as ctx:
        ctx.prec = 50
        re_p, im_p, re_q, im_q = (Decimal(x) for x in (p.real, p.imag, q.real, q.imag))
        num = ((re_p - re_q) ** 2 + (im_p - im_q) ** 2).sqrt()
        den = (pi * (1 + re_p**2 + im_p**2) * (1 + re_q**2 + im_q**2)).sqrt()
        return float(num / den)


@pytest.mark.parametrize(
    "p,q",
    [
        (0.3 + 0.4j, 0.3 + 0.4j + 1e-9j),
        (1000.0, 1000.0 + 1e-6),
        (1e-12, -1e-12j),
        (-2.5 + 7j, -2.5 + 7j + (3e-11 - 4e-11j)),
        (1e8 + 1e8j, 1e8 + 1.0001e8j),
        (0.5 - 0.5j, 0.7 + 0.1j),
    ],
)
def test_chordal_distance_matches_a_decimal_reference(p, q):
    exact = _chordal_decimal(complex(p), complex(q))
    assert abs(chordal_distance(p, q) - exact) <= 1e-14 * exact
    assert abs(chordal_distance_array(np.array([p]), q)[0] - exact) <= 1e-14 * exact


def _moebius(a, b, c, d):
    def t(w):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (a * w + b) / (c * w + d)

    return t


@pytest.mark.parametrize(
    "isometry",
    [
        _moebius(np.exp(0.7j), 0, 0, 1),  # w -> e^{i theta} w
        _moebius(0, 1, 1, 0),  # w -> 1/w, swapping 0 and infinity
        _moebius(1, -(0.4 - 0.9j), 0.4 + 0.9j, 1),  # (w - b) / (1 + conj(b) w)
        _moebius(1, -(3 + 1j), 3 - 1j, 1),
    ],
    ids=["rotation", "inversion", "unitary-b-small", "unitary-b-large"],
)
def test_chordal_distance_is_invariant_under_sphere_rotations(isometry):
    rng = np.random.default_rng(11)
    ws = np.concatenate([rng.normal(0, 2, 200) + 1j * rng.normal(0, 2, 200), [0, 1, -1j]])
    for center in (0.25 - 1.5j, 0, 4j):
        before = chordal_distance_array(ws, center)
        after = chordal_distance_array(isometry(ws), complex(isometry(np.complex128(center))))
        assert np.abs(after - before).max() <= 1e-12


@pytest.mark.parametrize("center", [0.3 - 2j, 0, 1e6, "inf"])
def test_non_finite_entries_are_the_point_at_infinity(center):
    inf, nan = math.inf, math.nan
    far = np.array([complex(inf, 0), complex(nan, 0), complex(inf, 1), complex(1, nan)])
    expected = chordal_distance("inf", center)
    assert np.all(chordal_distance_array(far, center) == expected)
    assert chordal_distance(complex(math.inf, 1), center) == expected
    assert sphere_point(complex(math.nan, 0)) is INF


def test_chordal_distance_scalar_and_array_agree():
    rng = np.random.default_rng(3)
    ws = rng.normal(0, 5, 50) + 1j * rng.normal(0, 5, 50)
    for center in (1.5 + 0.5j, "inf"):
        arr = chordal_distance_array(ws, center)
        assert [chordal_distance(w, center) for w in ws] == list(arr)
        assert float(chordal_distance_array(ws[7], center)) == arr[7]  # 0-d input


def test_spherical_disk_bounds():
    SphericalDisk.of(0, 0.2 / SQRT_PI)
    with pytest.raises(ValueError):
        SphericalDisk.of(0, MAX_DISK_RADIUS * 1.01)


# ---------------------------------------------------------------------------
# density


def test_density_identity_at_zero():
    m = parse_map("z")
    assert abs(spherical_density(m, differentiate(m), 0) - 1 / SQRT_PI) < 1e-14


def test_density_critical_point():
    m = parse_map("z^2")
    assert spherical_density(m, differentiate(m), 0) == 0.0


def test_density_total_area_one():
    # integral of h^2 over all of C equals 1 for the identity map
    m = parse_map("z")
    assert abs(area(m, 1e6, tol=1e-8) - 1.0) < 1e-6


def test_density_simple_pole_finite():
    m = parse_map("1/z")
    dm = differentiate(m)
    # h for 1/z equals h for z by inversion invariance: 1/sqrt(pi) at 0
    assert abs(spherical_density(m, dm, 0) - 1 / SQRT_PI) < 1e-5


def test_density_array_rescues_a_pole_on_a_sample_node():
    # 1/z at 0 has no finite vectorized value; the entry is taken from
    # spherical_density's limit, 1/sqrt(pi) as for z, and the others stay
    m = parse_map("1/z")
    h = density_array(m, differentiate(m), np.array([[0, 1], [1j, 2]]))
    assert h.shape == (2, 2)
    assert abs(h[0, 0] - 1 / SQRT_PI) < 1e-5
    assert h[0, 1] == h[1, 0] == 1 / (2 * SQRT_PI)
    assert abs(h[1, 1] - 0.25 / (1.25 * SQRT_PI)) < 1e-15


def test_density_high_order_pole_zero():
    m = parse_map("1/z^2")
    dm = differentiate(m)
    assert spherical_density(m, dm, 0) < 1e-5


# ---------------------------------------------------------------------------
# area / boundary length oracles


def test_area_identity():
    m = parse_map("z")
    assert abs(area(m, 1.0, tol=1e-8) - 0.5) < 1e-7


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("r", [1.0, 2.0, 10.0])
def test_area_power_maps(d, r, area_of=area):
    m = parse_map(f"z^{d}")
    got = area_of(m, r, tol=1e-8)
    want = closed_area(d, r)
    assert abs(got - want) / want < 1e-6


# The oracle tests of `area` run on the boundary form too, with the same cases.
@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("r", [1.0, 2.0, 10.0])
def test_boundary_area_power_maps(d, r):
    test_area_power_maps(d, r, boundary_area)


def test_area_small_radius_vanishes():
    assert area(parse_map("z^3"), 1e-4, tol=1e-9) < 1e-10


def test_length_identity():
    m = parse_map("z")
    assert abs(boundary_length(m, 1.0) - SQRT_PI) < 1e-7
    # boundary shrinks to the point at infinity
    assert boundary_length(m, 1e5) < 1e-3


@pytest.mark.parametrize("d,r", [(2, 1.0), (3, 2.0), (5, 10.0)])
def test_length_power_maps(d, r):
    m = parse_map(f"z^{d}")
    got = boundary_length(m, r)
    want = closed_length(d, r)
    assert abs(got - want) / max(want, 1e-12) < 1e-6


MOEBIUS_CASES = [
    ("z/(z-2)", (1, 0, 1, -2), 1.5),
    ("z/(z-2)", (1, 0, 1, -2), 2.5),
    ("(z+1i)/(2*z+3)", (1, 1j, 2, 3), 1.0),
    ("(3*z-1)/(z+1)", (3, -1, 1, 1), 0.5),
    ("(3*z-1)/(z+1)", (3, -1, 1, 1), 1.2),
    ("(z+0.5)/(0.3i*z+1)", (1, 0.5, 0.3j, 1), 4.0),
    # the pole on |z| = e/2, the circle of boundary_areas' pole search at r = 1
    ("1/(z-1.3591409142295225)", (0, 1, 1, -1.3591409142295225), 1.0),
]


@pytest.mark.parametrize(("source", "coefficients", "r"), MOEBIUS_CASES)
def test_area_and_length_of_moebius_maps(source, coefficients, r, area_of=area):
    # f = (alpha z + beta) / (gamma z + delta) maps |z| < r one to one onto
    # a disk |w - C| < R, or onto its outside when the pole lies in |z| < r:
    # a spherical cap, whose normalized area is
    # (1 - s / sqrt(s^2 + 4 R^2)) / 2 with s = 1 + |C|^2 - R^2
    alpha, beta, gamma, delta = coefficients

    def f(z):
        return (alpha * z + beta) / (gamma * z + delta)

    pole = complex(-delta / gamma)
    centre = f(r * r / pole.conjugate())  # C is the image of the pole's mirror point
    radius = abs(f(r) - centre)
    s = 1 + abs(centre) ** 2 - radius**2
    cap = (1 - s / math.sqrt(s * s + 4 * radius**2)) / 2
    a = 1 - cap if abs(pole) < r else cap
    l = 2 * SQRT_PI * math.sqrt(a * (1 - a))  # the cap's boundary circle
    m = parse_map(source)
    assert abs(area_of(m, r) - a) <= 1e-9 * a
    assert abs(boundary_length(m, r) - l) <= 1e-9 * l


@pytest.mark.parametrize(("source", "coefficients", "r"), MOEBIUS_CASES)
def test_boundary_area_and_length_of_moebius_maps(source, coefficients, r):
    test_area_and_length_of_moebius_maps(source, coefficients, r, boundary_area)


@pytest.mark.parametrize("source", ["1/(z^5 - 2)", "z + 1/(z^9 - 3)"])
def test_boundary_area_integrand_is_elementwise(monkeypatch, source):
    # 5 and 9 poles, inside and outside the circles: each point's value has
    # the same bits alone as inside a 32-point call, as the quadrature asks
    integrands = []

    def capture(fvals, tol, pole_check):
        integrands.append(fvals)
        return 0.0

    monkeypatch.setattr(metric, "_adaptive_circle_integral", capture)
    boundary_areas(parse_map(source), [1.0, 1.3])
    thetas = np.random.default_rng(5).uniform(0.0, 2 * math.pi, 32)
    assert len(integrands) == 2
    for fvals in integrands:
        whole = fvals(thetas)
        for k in range(32):
            assert fvals(thetas[k : k + 1]).tobytes() == whole[k : k + 1].tobytes()


HIGH_PRECISION_CASES = [
    ("exp(z)", 8.0, 2.5298797152564093),
    ("exp(z)", 20.0, 6.3596384674780898),
    ("sin(z)", 10.0, 6.5664842458416),
]


@pytest.mark.parametrize(("source", "r", "a"), HIGH_PRECISION_CASES)
def test_area_matches_independent_high_precision_values(source, r, a, area_of=area):
    # Digits from mpmath 1.3.0 at 30 digits, stored because the test
    # environment has no mpmath.  exp(z) has the density 1 / (4 pi cosh(x)^2)
    # of x = Re z alone, so a(r) = (1/2pi) int_{-r}^{r} sqrt(r^2 - x^2) / cosh(x)^2 dx.
    # sin(z) is entire, so a(r) is the boundary integral
    # (1/2pi) int_0^{2pi} Re(z f'(z) conj f(z)) / (1 + |f(z)|^2) dtheta, z = r e^{i theta}.
    assert area_of(parse_map(source), r, tol=1e-7) == pytest.approx(a, rel=1e-8)


@pytest.mark.parametrize(
    ("source", "r", "a"),
    HIGH_PRECISION_CASES
    # the pole 0.01 outside the circle: the polar cells of `area` miss this
    # value by 1.7e-6 relative at tol 1e-7 (mpmath 1.3.0, 30 digits)
    + [("z+0.001/(z-1.01)", 1.0, 0.500180947414615)],
)
def test_boundary_area_matches_independent_high_precision_values(source, r, a):
    test_area_matches_independent_high_precision_values(source, r, a, boundary_area)


@pytest.mark.parametrize(
    ("source", "r"),
    [
        ("exp(z)/(z-0.5)", 1.0),  # the pole inside: n(r, inf) = 1
        ("exp(z)/(z-0.5)", 3.0),
        ("(z^2-1)/(z^2+4)", 2.0),  # the poles +-2i on the circle
        ("1/(z-(0.995004165278026+0.0998334166468282i))", 1.0),  # |p| = 1 to 1e-16
        ("1/(z-(0.995004165278026+0.0998334166468282i))", 1.0 + 1e-9),
    ],
)
def test_boundary_area_matches_area_around_poles(source, r):
    # a pole on or next to the circle is between the quadrature nodes, and
    # a(r) is continuous in r across it
    m = parse_map(source)
    assert boundary_area(m, r) == pytest.approx(area(m, r), rel=1e-9)


def test_pole_on_circle_error():
    m = parse_map("1/(z-1)")
    with pytest.raises(PoleOnCircleError):
        boundary_length(m, 1.0)
    with pytest.raises(PoleOnCircleError):
        boundary_area(m, 1.0)


@pytest.mark.parametrize("call, source, r", [
    (boundary_length, "exp(z^3)", 9.0),
    (metric._length_with_nudge, "exp(z^3)", 9.0),
    (lambda m, r: boundary_areas(m, [r]), "exp(z)", 720.0),
])
def test_an_entire_map_overflowing_on_the_circle_is_no_pole(call, source, r):
    # exp(z^3) overflows on most of |z| = 9 and exp(z) on part of |z| = 720.
    # With no poles the inf is overflow: it is raised at r itself, without
    # the radius nudges a pole gets, and the message names no pole
    with pytest.raises(OverflowError) as info:
        call(parse_map(source), r)
    assert str(info.value).startswith(f"f overflows on |z| = {r!r} near z = ")
    assert "pole" not in str(info.value)


def test_the_density_rescue_stops_where_f_overflows_all_around():
    # exp(z^3) overflows on a whole region at |z| = 20, so the pole rescue's
    # neighbours overflow too.  With no poles that is overflow: the density
    # there raises OverflowError naming the point, and area raises it within
    # a second (a rescue recursing into its neighbours ends in
    # RecursionError, which no caller's except (ValueError, ArithmeticError)
    # catches).  Add a pole and the same point is undefined
    m = parse_map("exp(z^3)")
    with pytest.raises(OverflowError, match=r"f overflows near z = \(20\+0j\)"):
        spherical_density(m, differentiate(m), 20.0)
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="f overflows near z = "):
        area(m, 20.0)
    assert time.perf_counter() - start < 1.0
    m = parse_map("exp(z^3)+1/z")
    with pytest.raises(IndeterminateError, match=r"density undefined at \(20\+0j\)"):
        spherical_density(m, differentiate(m), 20.0)


# Bits of l(r), a'(r), the boundary-integral a(r) and the polar a(r), as
# float.hex.  How the evaluations are batched must not move them, even at
# rounding level: the benchmark's reference checks |integer - a(r)|.
# exp(z^2) at r = 6 (like exp(z) at 47.41 and 80) scans to more than 8 seed
# segments: 31 for l and 61 for a'.
BIT_PINS = [
    ("z^5", 2.0, "0x1.1b50e178b32d7p-1", "0x1.8f384ae707cdbp-6",
     "0x1.3fb013fb013fcp+2", "0x1.3fb013fb013fdp+2"),
    ("z^5", 7.0, "0x1.1474838acfef0p-10", "0x1.b26bee2aa3b8ep-26",
     "0x1.3fffffecfe7a8p+2", "0x1.3fffffede16cfp+2"),
    ("z^5", 10.0, "0x1.73b5e43b6e3f8p-13", "0x1.12e0be81814b0p-31",
     "0x1.3fffffff768fbp+2", "0x1.3ffffffd22402p+2"),
    ("exp(z)", 8.0, "0x1.d060dd4e999d2p+0", "0x1.4823c86b2a713p-2",
     "0x1.43d31937ec247p+1", "0x1.43d31938d2957p+1"),
    ("exp(z)", 47.4140073963, "0x1.c5ff8bf4149e3p+0", "0x1.46024eef137bfp-2",
     "0x1.e2dde25092bffp+3", "0x1.e2dde250ac649p+3"),
    ("exp(z)", 80.0, "0x1.c5d5f5ab8ab20p+0", "0x1.45f864002fac3p-2",
     "0x1.9769149df8c5ap+4", "0x1.9769149d12cbbp+4"),
    ("z + 0.001/(z - 1.01)", 1.0, "0x1.d9fd308677985p+0", "0x1.48a16fc706453p-1",
     "0x1.0017b79674cc4p-1", "0x1.00179a821aa27p-1"),
    ("(z^2 - 1)/(z^2 + 4)", 1.5, "0x1.b1f15ab5e1738p+1", "0x1.67ee35ad21799p+0",
     "0x1.6a625504a267ap-1", "0x1.6a625504a267ap-1"),
    ("exp(z^2)", 6.0, "0x1.c62eeaa66c2b8p+1", "0x1.e914560040617p+2",
     "0x1.6e939929b9b58p+4", "0x1.6e939928f076bp+4"),
]


@pytest.mark.parametrize(("source", "r", "length", "derivative", "boundary", "polar"), BIT_PINS)
def test_quadratures_are_bit_identical_to_the_pins(source, r, length, derivative, boundary, polar):
    m = parse_map(source)
    assert boundary_length(m, r).hex() == length
    assert area_derivative(m, r).hex() == derivative
    assert boundary_area(m, r).hex() == boundary
    assert area(m, r).hex() == polar


@pytest.mark.parametrize("chunk", [1, 3, 10_000])
@pytest.mark.parametrize("pin", [0, 3, 6], ids=lambda k: f"{BIT_PINS[k][0]}-r{BIT_PINS[k][1]}")
def test_area_does_not_depend_on_the_chunk_size(monkeypatch, pin, chunk):
    # one cell per evaluation, chunks that split a cell's quarters, and one
    # chunk for every batch give the pinned bits
    source, r, *_, polar = BIT_PINS[pin]
    monkeypatch.setattr(metric, "_AREA_CHUNK", chunk)
    assert area(parse_map(source), r).hex() == polar


def test_area_memory():
    # exp-topology's largest radius: its 2048 seed cells and their quarters
    # in one batch would peak at 11 MB
    m = parse_map("exp(z)")
    tracemalloc.start()
    try:
        area(m, 80.0, tol=1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


@pytest.mark.parametrize(
    ("source", "r", "quadrature", "tol", "budget", "partial", "worst"),
    [
        ("z + 0.000001/(z - 1.0001)", 1.0, boundary_length, 1e-8, 50,
         "0x1.c7fca64277c18p+0", ("0x1.92196cc56dc07p+2", "0x1.921fb54442d18p+2")),
        ("exp(z)", 80.0, boundary_length, 1e-17, 300,
         "0x1.c5d5f5ab8a168p+0", ("0x1.8a958377c7f72p+0", "0x1.8af16d7553e93p+0")),
        ("exp(z)", 80.0, area_derivative, 1e-17, 300,
         "0x1.45f86400303cfp-2", ("0x1.2e9facc226e90p+2", "0x1.2eac3dbfd10b1p+2")),
        ("exp(z)", 8.0, boundary_length, 1e-9, 8,
         "0x1.d060dc568803bp+0", ("0x1.921fb54442d18p+0", "0x1.2d97c7f3321d2p+1")),
    ],
)
def test_circle_budget_error_is_pinned(monkeypatch, source, r, quadrature, tol, budget, partial, worst):
    # the segment that trips the budget, and the partial sum, as popped one
    # segment at a time; evaluating ahead of the heap must not move them
    monkeypatch.setattr(metric, "_MAX_CIRCLE_SEGMENTS", budget)
    with pytest.raises(metric.QuadratureError) as exc:
        quadrature(parse_map(source), r, tol=tol)
    assert exc.value.partial.hex() == partial
    assert tuple(x.hex() for x in exc.value.worst_cell) == worst


# ---------------------------------------------------------------------------
# Cauchy-Schwarz (length-area) relations


@pytest.mark.parametrize("src", ["z", "z^2", "z^3", "z^5", "exp(z)", "(z^2-1)/(z^2+1)"])
def test_cauchy_schwarz_on_grid(src):
    m = parse_map(src)
    for r in np.geomspace(0.5, 8.0, 7):
        l = boundary_length(m, float(r))
        da = area_derivative(m, float(r))
        assert l * l <= 2 * math.pi * r * da * (1 + 1e-3) + 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_cauchy_schwarz_equality_rotational(d):
    m = parse_map(f"z^{d}" if d > 1 else "z")
    for r in (0.7, 1.0, 2.0):
        l = boundary_length(m, r)
        da = area_derivative(m, r)
        assert abs(l * l - 2 * math.pi * r * da) / (l * l) < 1e-4


# ---------------------------------------------------------------------------
# certificate, selection, profile


def test_certificate_identity():
    m = parse_map("z")
    integral, bound = lengtharea_certificate(m, 1.0, 1000.0)
    assert abs(integral - 2 * math.pi) / (2 * math.pi) < 0.01
    assert abs(bound - 4 * math.pi) < 1e-5
    assert integral <= bound


def test_certificate_empty_interval():
    integral, bound = lengtharea_certificate(parse_map("z"), 2.0, 2.0)
    assert integral == 0.0
    assert bound > 0


@pytest.mark.parametrize("src,r2", [("z^2", 100.0), ("exp(z)", 50.0)])
def test_certificate_inequality(src, r2):
    integral, bound = lengtharea_certificate(parse_map(src), 1.0, r2)
    assert integral <= bound + 1e-9


def test_certificate_bound_with_poles_on_the_first_circle():
    m = parse_map("(z^2-1)/(z^2+4)")
    integral, bound = lengtharea_certificate(m, 2.0, 20.0)
    assert bound == pytest.approx(2 * math.pi / area(m, 2.0), rel=1e-9)
    assert integral <= bound


def test_select_radii_identity():
    m = parse_map("z")
    rs = select_radii(m, 1.0, 100.0, 4)
    assert 2 <= len(rs) <= 4
    assert rs == sorted(rs)
    ratios = [boundary_length(m, r) / area(m, r) for r in rs]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    # identity ratio is ~ 2 sqrt(pi)/r at large r
    assert abs(ratios[-1] - 2 * SQRT_PI / rs[-1]) / ratios[-1] < 0.05


def test_select_radii_exp_decreasing():
    rs = select_radii(parse_map("exp(z)"), 8.0, 40.0, 3)
    m = parse_map("exp(z)")
    ratios = [boundary_length(m, r) / area(m, r) for r in rs]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize(
    ("source", "r_min", "r_max", "count", "radii"),
    [
        ("exp(z)", 30.0, 80.0, 2, [47.41400739626471, 80.0]),
        ("exp(z)", 8.0, 63.0, 4, [10.47109824245535, 21.4650329925748, 44.00184495492662, 63.0]),
        ("exp(z)", 8.0, 40.0, 3, [11.682976884725212, 24.91612943471187, 40.0]),
        ("z", 1.0, 100.0, 4, [1.823348000868441, 9.047357242349298, 44.89251258218605, 100.0]),
        # r_max = 2 passes through the poles +-2i
        ("(z^2-1)/(z^2+4)", 0.5, 2.0, 3, [0.6928371694903476, 1.330312058198122, 2.0]),
        # |exp(z)|^2 overflows from r = 355 on; the boundary weight must not
        ("exp(z)", 100.0, 400.0, 2, [190.9683207820834, 400.0]),
    ],
)
def test_select_radii_keeps_the_polar_selection_without_area(
    monkeypatch, source, r_min, r_max, count, radii
):
    # the radii the selection picked when it ranked l/a with the polar `area`
    calls = []

    def counted(m, r, tol=1e-7):
        calls.append(r)
        return area(m, r, tol)

    monkeypatch.setattr(metric, "area", counted)
    assert select_radii(parse_map(source), r_min, r_max, count) == radii
    assert calls == []


@pytest.mark.parametrize(("exponent", "kept"), [(1.0, [1.0]), (-1.0, [10 ** (14 / 15), 100.0])])
def test_select_radii_drops_a_minimizer_whose_ratio_rises(monkeypatch, exponent, kept):
    # l/a = r^exponent on the 16-point log grid of [1, 100]: the brackets
    # [1, 10] and [10, 100] take their minimizers; a rising ratio drops the later one
    monkeypatch.setattr(metric, "_length_with_nudge", lambda m, r, tol: (r, r**exponent))
    monkeypatch.setattr(metric, "boundary_areas", lambda m, radii: [1.0] * len(radii))
    rs = select_radii(parse_map("z"), 1.0, 100.0, 2)
    assert rs == pytest.approx(kept, rel=1e-12)


def test_select_radii_degenerate_error():
    with pytest.raises(ValueError, match="constant"):
        select_radii(parse_map("2"), 1.0, 10.0, 3)


def test_profile_invariants_and_csv(tmp_path):
    m = parse_map("z^2")
    prof = build_profile(m, list(np.geomspace(0.5, 4.0, 9)))
    radii, a, l = prof.radii, prof.a, prof.l
    # a is nondecreasing, and l^2 <= 2 pi r a' (1 + 0.1) with a' the
    # three-point finite difference on the nonuniform grid, whose
    # truncation error the 0.1 absorbs
    for i in range(1, len(radii)):
        assert a[i] >= a[i - 1] - 1e-9 * (1 + abs(a[i]))
    for i in range(1, len(radii) - 1):
        h1, h2 = radii[i] - radii[i - 1], radii[i + 1] - radii[i]
        da = (
            -a[i - 1] * h2 / (h1 * (h1 + h2))
            + a[i] * (h2 - h1) / (h1 * h2)
            + a[i + 1] * h1 / (h2 * (h1 + h2))
        )
        assert l[i] ** 2 <= 2 * math.pi * radii[i] * da * 1.1 + 1e-9
    text = prof.to_csv(tmp_path / "prof.csv")
    lines = text.strip().splitlines()
    assert lines[0] == "r,a,l,ratio"
    r0, a0, l0, q0 = (float(x) for x in lines[1].split(","))
    # all three columns carry 12 significant digits, so the recomputed
    # quotient agrees with the ratio column to ~2 ulps of that precision
    assert abs(q0 - l0 / a0) < 5e-12 * max(1.0, abs(q0))


# ---------------------------------------------------------------------------
# sphere sampling


def test_sampler_deterministic():
    a = sample_sphere_uniform(123, 500)
    b = sample_sphere_uniform(123, 500)
    assert a == b
    assert all(p is INF or cmath.isfinite(p) for p in a)


@pytest.mark.parametrize(
    "seed", [*range(16), 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 12345]
)
def test_sampler_stream_is_numpys_default_rng(seed):
    # numpy.random is a test-only oracle: the raw draws are PCG64's, and the
    # z and azimuth arrays are default_rng's uniform, bit for bit; the last
    # seed has seven 32-bit words, more than SeedSequence's pool of four
    for n in (1, 250, 10_000):
        raw = np.random.PCG64(seed).random_raw(2 * n) >> np.uint64(11)
        assert metric._pcg64_draws(seed, 2 * n) == raw.tolist()
        rng = np.random.default_rng(seed)
        expected = (rng.uniform(-1.0, 1.0, size=n), rng.uniform(0.0, 2 * math.pi, size=n))
        for got, want in zip(metric._sphere_uniforms(seed, n), expected):
            assert got.tobytes() == want.tobytes()


def test_sampler_rejects_a_negative_seed():
    with pytest.raises(ValueError):
        sample_sphere_uniform(-1, 10)


def test_sampler_hemisphere():
    pts = sample_sphere_uniform(7, 10000)
    hemi = sum(1 for p in pts if chordal_distance(p, 0) < 1 / math.sqrt(2 * math.pi))
    frac = hemi / len(pts)
    assert abs(frac - 0.5) <= 3 / math.sqrt(len(pts))


def test_sampler_disk_fraction():
    n = 10000
    pts = sample_sphere_uniform(99, n)
    rho = math.sqrt(0.1 / math.pi)  # normalized area 0.1
    frac = sum(1 for p in pts if chordal_distance(p, 0.4 - 0.1j) < rho) / n
    assert abs(frac - 0.1) <= 0.01


def test_sphere_point_of():
    assert sphere_point("inf") is sphere_point(" Infinity") is sphere_point(INF) is INF
    assert sphere_point(2 + 1j) == 2 + 1j
    assert sphere_point(3) == 3 + 0j and isinstance(sphere_point(3), complex)
    with pytest.raises(ValueError):
        sphere_point("1+2j")


def _serial_probe_seed_counts(m, dm, r):
    """metric._probe_seed_counts as a loop over the scan's rows, each row's
    closed runs above 1e-6 of its maximum cut by _march.runs: the reference
    it must match."""
    n_s, n_t = 32, 512
    s = (np.arange(n_s) + 0.5) * r / n_s
    t = (np.arange(n_t) + 0.5) * 2 * math.pi / n_t
    ss, tt = np.meshgrid(s, t, indexing="ij")
    h = metric.density_array(m, dm, ss * np.exp(1j * tt))
    vals = h * h * ss
    row_mass = vals.sum(axis=1)
    total = row_mass.sum()
    widths = []
    symmetric = True
    for i in range(n_s):
        if total > 0 and row_mass[i] < 1e-9 * total:
            continue
        row = vals[i]
        mean = row.mean()
        if mean > 0 and row.std() > 1e-3 * mean:
            symmetric = False
        keep = row > 1e-6 * row.max()
        if row.max() > 0 and not keep.all():
            _, spans = _march.runs(keep, closed=True)
            widths.append(2 * math.pi * (min(hi - lo for lo, hi in spans) / n_t))
    if symmetric:
        return 16, 8
    if widths:
        w_min = min(widths)
        n_theta = int(min(192, max(16, math.ceil(2 * math.pi / (0.25 * w_min)))))
    else:
        n_theta = 32
    return 16, n_theta


@pytest.mark.parametrize(
    ("source", "r"),
    [("z^5", r) for r in (0.5, 2.0, 10.0)]
    + [("exp(z)", r) for r in (2.0, 10.0, 80.0)]
    + [("(z^2-1)/(z^2+4)", r) for r in (0.5, 2.0, 10.0)]
    + [("sin(z)", r) for r in (0.5, 2.0, 10.0)]
    + [("z+1e-5/(z-1.0001)", r) for r in (0.5, 1.0, 2.0)],
)
def test_probe_seed_counts_equal_the_row_loop(source, r):
    # z^5 (symmetric), exp(z) (up to 128 angles at r = 80), a rational map,
    # sin(z) and a pole 1e-4 off the unit circle: the seed-grid shape of the
    # one-pass scan is the row loop's
    m = parse_map(source)
    dm = differentiate(m)
    assert metric._probe_seed_counts(m, dm, r) == _serial_probe_seed_counts(m, dm, r)
