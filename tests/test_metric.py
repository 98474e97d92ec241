import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from coverlab import metric
from coverlab.expr import parse_map, differentiate
from coverlab.metric import (
    MAX_DISK_RADIUS,
    MetricProfile,
    PoleOnCircleError,
    SpherePoint,
    SphericalDisk,
    area,
    area_derivative,
    boundary_length,
    build_profile,
    chordal_distance,
    chordal_distance_array,
    disk_area,
    lengtharea_certificate,
    sample_sphere_uniform,
    select_radii,
    spherical_density,
)

SQRT_PI = math.sqrt(math.pi)


def closed_area(d, r):
    return d * r ** (2 * d) / (1 + r ** (2 * d))


def closed_length(d, r):
    return 2 * SQRT_PI * d * r**d / (1 + r ** (2 * d))


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
    assert SpherePoint.of(complex(math.nan, 0)).is_infinity


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
def test_area_power_maps(d, r):
    m = parse_map(f"z^{d}")
    got = area(m, r, tol=1e-8)
    want = closed_area(d, r)
    assert abs(got - want) / want < 1e-6


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


@pytest.mark.parametrize(
    ("source", "coefficients", "r"),
    [
        ("z/(z-2)", (1, 0, 1, -2), 1.5),
        ("z/(z-2)", (1, 0, 1, -2), 2.5),
        ("(z+1i)/(2*z+3)", (1, 1j, 2, 3), 1.0),
        ("(3*z-1)/(z+1)", (3, -1, 1, 1), 0.5),
        ("(3*z-1)/(z+1)", (3, -1, 1, 1), 1.2),
        ("(z+0.5)/(0.3i*z+1)", (1, 0.5, 0.3j, 1), 4.0),
    ],
)
def test_area_and_length_of_moebius_maps(source, coefficients, r):
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
    assert abs(area(m, r) - a) <= 1e-9 * a
    assert abs(boundary_length(m, r) - l) <= 1e-9 * l


@pytest.mark.parametrize(
    ("source", "r", "a"),
    [
        ("exp(z)", 8.0, 2.5298797152564093),
        ("exp(z)", 20.0, 6.3596384674780898),
        ("sin(z)", 10.0, 6.5664842458416),
    ],
)
def test_area_matches_independent_high_precision_values(source, r, a):
    # Digits from mpmath 1.3.0 at 30 digits, stored because the test
    # environment has no mpmath.  exp(z) has the density 1 / (4 pi cosh(x)^2)
    # of x = Re z alone, so a(r) = (1/2pi) int_{-r}^{r} sqrt(r^2 - x^2) / cosh(x)^2 dx.
    # sin(z) is entire, so a(r) is the boundary integral
    # (1/2pi) int_0^{2pi} Re(z f'(z) conj f(z)) / (1 + |f(z)|^2) dtheta, z = r e^{i theta}.
    assert area(parse_map(source), r, tol=1e-7) == pytest.approx(a, rel=1e-8)


def test_pole_on_circle_error():
    m = parse_map("1/(z-1)")
    with pytest.raises(PoleOnCircleError):
        boundary_length(m, 1.0)


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


def test_select_radii_computes_one_area_per_grid_point(monkeypatch):
    calls = []

    def counted(m, r, tol=1e-7):
        calls.append(r)
        return area(m, r, tol)

    monkeypatch.setattr(metric, "area", counted)
    select_radii(parse_map("z"), 1.0, 100.0, 4)
    assert len(calls) == len(set(calls)) == 24  # the grid of max(16, 6 * 4) points


def test_select_radii_degenerate_error():
    with pytest.raises(ValueError, match="constant"):
        select_radii(parse_map("2"), 1.0, 10.0, 3)


def test_profile_invariants_and_csv(tmp_path):
    m = parse_map("z^2")
    prof = build_profile(m, list(np.geomspace(0.5, 4.0, 9)))
    assert prof.check()
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
    for p, q in zip(a, b):
        assert p.is_infinity == q.is_infinity
        if not p.is_infinity:
            assert p.value == q.value


def test_sampler_hemisphere():
    pts = sample_sphere_uniform(7, 10000)
    hemi = sum(1 for p in pts if chordal_distance(p, 0) < 1 / math.sqrt(2 * math.pi))
    frac = hemi / len(pts)
    assert abs(frac - 0.5) <= 3 / math.sqrt(len(pts))


def test_sampler_disk_fraction():
    n = 10000
    pts = sample_sphere_uniform(99, n)
    rho = math.sqrt(0.1 / math.pi)  # normalized area 0.1
    assert abs(disk_area(rho) - 0.1) < 1e-15
    frac = sum(1 for p in pts if chordal_distance(p, 0.4 - 0.1j) < rho) / n
    assert abs(frac - 0.1) <= 0.01


def test_sphere_point_of():
    assert SpherePoint.of("inf").is_infinity
    assert SpherePoint.of(2 + 1j).value == 2 + 1j
    assert SpherePoint.of(SpherePoint(None)).is_infinity
