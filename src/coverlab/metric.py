"""Spherical geometry normalized to total area 1, and pullback quadrature.

The target sphere carries the round (Fubini-Study) metric rescaled so its
total area is exactly 1.  Concretely the chordal distance between two
extended-complex points is

    dist(p, q) = |p - q| / (sqrt(pi) sqrt(1+|p|^2) sqrt(1+|q|^2))

with the usual limits at infinity: dist(p, inf) = 1 / (sqrt(pi) sqrt(1+|p|^2)).
The point at infinity is `INF`, `SpherePoint(None)` or the string "inf";
a pole of f, and any non-finite complex value (inf or nan in either part),
stands for it too.  `chordal_distance_array` is the one implementation of
this formula.  A holomorphic map f pulls the metric back to the density

    h(z) = |f'(z)| / (sqrt(pi) (1 + |f(z)|^2)).

With this normalization the closed forms used throughout the tests are
a(r) = d r^{2d}/(1+r^{2d}) and l(r) = 2 sqrt(pi) d r^d/(1+r^{2d}) for z^d,
and a chordal disk of radius rho has normalized area pi rho^2 exactly.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng  # numpy loads numpy.random lazily; load it at import

from coverlab import _march
from coverlab.expr import (
    INF,
    IndeterminateError,
    differentiate,
    evaluate,
    evaluate_array,
)

SQRT_PI = math.sqrt(math.pi)
MAX_DISK_RADIUS = 0.5 / SQRT_PI  # topological-disk bound for SphericalDisk

_BIG = 1e80  # |f| beyond this: switch to the reciprocal form of h
_MAX_AREA_CELLS = 200_000
_MAX_CIRCLE_SEGMENTS = 4000


class QuadratureError(ArithmeticError):
    """Adaptive quadrature ran out of cell budget.

    Carries the partial estimate and the worst remaining cell so the caller
    can rescue or report.
    """

    def __init__(self, message, partial, worst_cell):
        super().__init__(f"{message}; partial={partial!r}, worst cell={worst_cell!r}")
        self.partial = partial
        self.worst_cell = worst_cell


class PoleOnCircleError(ArithmeticError):
    """A pole sits on the integration circle; perturb the radius."""

    def __init__(self, r, where):
        super().__init__(
            f"pole of the map on |z| = {r!r} near z = {where!r}; "
            f"perturb the radius (e.g. r*(1 + 1e-9))"
        )
        self.radius = r
        self.where = where


# ---------------------------------------------------------------------------
# Points, disks, chordal distance


@dataclass(frozen=True)
class SpherePoint:
    """Extended-complex point: a finite value or the point at infinity."""

    value: complex | None  # None encodes infinity

    @classmethod
    def of(cls, v):
        if isinstance(v, SpherePoint):
            return v
        if v is INF or v is None:
            return cls(None)
        if isinstance(v, str):
            if v.strip().lower() in ("inf", "infinity", "oo"):
                return cls(None)
            raise ValueError(f"not a sphere point: {v!r}")
        v = complex(v)
        return cls(v if cmath.isfinite(v) else None)

    @property
    def is_infinity(self):
        return self.value is None

    def __repr__(self):
        return "SpherePoint(inf)" if self.is_infinity else f"SpherePoint({self.value!r})"


def chordal_distance(p, q):
    """Chordal distance in the area-1 normalization (diameter 1/sqrt(pi))."""
    p = SpherePoint.of(p)
    w = complex(math.inf) if p.is_infinity else p.value
    return float(chordal_distance_array(w, q))


def chordal_distance_array(ws, center):
    """Chordal distance from complex array `ws` to a SpherePoint, in closed form.

    Non-finite entries of `ws` (poles, inf, nan) are the point at infinity.
    """
    c = SpherePoint.of(center).value
    ws = np.asarray(ws, dtype=np.complex128)
    # at_inf is sqrt(pi) dist(inf, c); for c = inf the factor
    # |w - c| / sqrt(1+|c|^2) is 1
    at_inf = 0.0 if c is None else 1.0 / math.hypot(1.0, abs(c))
    with np.errstate(all="ignore"):
        d = 1.0 if c is None else np.abs(ws - c) * at_inf
        scale = np.hypot(1.0, np.abs(ws))
        d /= scale
        return np.where(np.isfinite(scale), d, at_inf) / SQRT_PI


def disk_area(chordal_radius):
    """Normalized area of a chordal disk: exactly pi * rho^2."""
    return math.pi * chordal_radius**2


@dataclass(frozen=True)
class SphericalDisk:
    center: SpherePoint
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < MAX_DISK_RADIUS:
            raise ValueError(
                f"disk radius {self.radius} must lie in (0, {MAX_DISK_RADIUS:.6f}) "
                f"(half the normalized diameter)"
            )

    @classmethod
    def of(cls, center, radius):
        return cls(SpherePoint.of(center), float(radius))


# ---------------------------------------------------------------------------
# Pullback density


def spherical_density(m, dm, z):
    """h(z) = |f'(z)| / (sqrt(pi) (1+|f(z)|^2)), extended to poles by limits."""
    z = complex(z)
    try:
        w = evaluate(m, z)
        dw = evaluate(dm, z)
    except IndeterminateError:
        w = dw = INF  # fall through to the perturbation limit
    if w is INF or dw is INF:
        # at a pole the density extends continuously (h is invariant under
        # w -> 1/w); take a small 4-point average around z
        eps = 1e-7 * (1.0 + abs(z))
        vals = []
        for k in range(4):
            zz = z + eps * np.exp(1j * (math.pi / 4 + k * math.pi / 2))
            try:
                vals.append(spherical_density(m, dm, complex(zz)))
            except IndeterminateError:
                continue
        if not vals:
            raise IndeterminateError(f"density undefined at {z!r}")
        return float(np.median(vals))
    u, v = abs(w), abs(dw)
    if u > _BIG:
        return (v / u) / u / SQRT_PI
    return v / ((1.0 + u * u) * SQRT_PI)


def density_array(m, dm, zs):
    """Vectorized density with pointwise rescue of pole/indeterminate entries."""
    zs = np.asarray(zs, dtype=np.complex128)
    w = evaluate_array(m, zs)
    dw = evaluate_array(dm, zs)
    with np.errstate(all="ignore"):
        u = np.abs(w)
        v = np.abs(dw)
        h = np.where(u > _BIG, (v / u) / u, v / (1.0 + u * u)) / SQRT_PI
    bad = ~np.isfinite(h)
    if np.any(bad):
        flat = h.reshape(-1)
        zflat = zs.reshape(-1)
        for i in np.nonzero(bad.reshape(-1))[0]:
            flat[i] = spherical_density(m, dm, complex(zflat[i]))
        h = flat.reshape(h.shape)
    return h


# ---------------------------------------------------------------------------
# Adaptive quadrature: polar cells for a(r), segments for l(r) and a'(r)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _quarter_bounds(s0, s1, t0, t1):
    sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
    return [
        (s0, sm, t0, tm),
        (sm, s1, t0, tm),
        (s0, sm, tm, t1),
        (sm, s1, tm, t1),
    ]


def _coarse_batch(m, dm, bounds):
    """Gauss 4x4 estimates for a list of polar cells, one vectorized eval."""
    nb = len(bounds)
    b = np.asarray(bounds)  # (nb, 4): s0 s1 t0 t1
    s_mid = 0.5 * (b[:, 0] + b[:, 1])
    s_half = 0.5 * (b[:, 1] - b[:, 0])
    t_mid = 0.5 * (b[:, 2] + b[:, 3])
    t_half = 0.5 * (b[:, 3] - b[:, 2])
    s = s_mid[:, None, None] + s_half[:, None, None] * _GL_NODES[None, :, None]
    t = t_mid[:, None, None] + t_half[:, None, None] * _GL_NODES[None, None, :]
    ss = np.broadcast_to(s, (nb, 4, 4))
    tt = np.broadcast_to(t, (nb, 4, 4))
    zs = ss * np.exp(1j * tt)
    h = density_array(m, dm, zs)
    vals = h * h * ss
    ww = np.outer(_GL_WEIGHTS, _GL_WEIGHTS)[None, :, :]
    return np.sum(vals * ww, axis=(1, 2)) * s_half * t_half


def _angular_feature_runs(row, threshold_ratio=1e-6):
    """Width (radians) of the narrowest above-threshold run in a theta scan."""
    mx = row.max()
    if mx <= 0:
        return None
    _, spans = _march.runs(row > threshold_ratio * mx, closed=True)
    if not spans:
        return None
    return 2 * math.pi * (min(hi - lo for lo, hi in spans) / len(row))


def _probe_seed_counts(m, dm, r):
    """Seed-grid shape from a coarse scan: fine in theta only when needed."""
    n_s, n_t = 32, 512
    s = (np.arange(n_s) + 0.5) * r / n_s
    t = (np.arange(n_t) + 0.5) * 2 * math.pi / n_t
    ss, tt = np.meshgrid(s, t, indexing="ij")
    h = density_array(m, dm, ss * np.exp(1j * tt))
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
        w = _angular_feature_runs(row)
        if w is not None and w < 2 * math.pi:
            widths.append(w)
    if symmetric:
        return 16, 8
    if widths:
        w_min = min(widths)
        n_theta = int(min(192, max(16, math.ceil(2 * math.pi / (0.25 * w_min)))))
    else:
        n_theta = 32
    return 16, n_theta


def _halves(s0, s1, t0, t1):
    """Bisect along the physically longer side of the polar cell."""
    s_mid = 0.5 * (s0 + s1)
    if (s1 - s0) >= s_mid * (t1 - t0):
        return [(s0, s_mid, t0, t1), (s_mid, s1, t0, t1)]
    t_mid = 0.5 * (t0 + t1)
    return [(s0, s1, t0, t_mid), (s0, s1, t_mid, t1)]


def area(m, r, tol=1e-7):
    """Pullback area a(r) over |z| <= r by adaptive polar quadrature.

    Cells carry a Richardson-style error estimate (Gauss 4x4 versus its 2x2
    split); the worst cells are bisected along their physically longer side
    until the estimated error is at most tol * (1 + |a|).  Going over
    _MAX_AREA_CELLS raises QuadratureError with the partial value and worst cell.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    dm = differentiate(m)
    n_s, n_t = _probe_seed_counts(m, dm, r)

    def make_cells(bounds):
        """(bounds, value, error) for each cell, batching all evaluations."""
        coarse = _coarse_batch(m, dm, bounds)
        quarters = []
        for b in bounds:
            quarters.extend(_quarter_bounds(*b))
        fine = _coarse_batch(m, dm, quarters).reshape(len(bounds), 4).sum(axis=1)
        return [(b, float(f), abs(float(f) - float(c)))
                for b, c, f in zip(bounds, coarse, fine)]

    seeds = []
    for i in range(n_s):
        for j in range(n_t):
            seeds.append(
                (r * i / n_s, r * (i + 1) / n_s,
                 2 * math.pi * j / n_t, 2 * math.pi * (j + 1) / n_t)
            )
    heap = []
    counter = 0
    total = 0.0
    errsum = 0.0
    ncells = len(seeds) * 5
    for b, val, err in make_cells(seeds):
        total += val
        errsum += err
        heapq.heappush(heap, (-err, counter, b, val))
        counter += 1
    while errsum > tol * (1.0 + abs(total)) and heap:
        if ncells > _MAX_AREA_CELLS:
            worst = heap[0][2]
            raise QuadratureError("area quadrature budget exceeded", total, worst)
        batch = []
        for _ in range(min(32, len(heap))):
            neg_err, _, b, val = heapq.heappop(heap)
            if -neg_err <= 0:
                heapq.heappush(heap, (neg_err, counter, b, val))
                counter += 1
                break
            errsum -= -neg_err
            total -= val
            batch.extend(_halves(*b))
        if not batch:
            break
        for b, val, err in make_cells(batch):
            total += val
            errsum += err
            heapq.heappush(heap, (-err, counter, b, val))
            counter += 1
        ncells += len(batch) * 5
    return total


def _adaptive_circle_integral(fvals, tol, pole_check):
    """Adaptive integral of f(theta) d(theta) over [0, 2pi).

    `fvals(thetas)` must be vectorized.  `pole_check(thetas)` may raise.
    The seed segment count comes from a scan so that narrow angular features
    (integrands concentrated near a strip) are not stepped over.
    """
    pole_check(np.linspace(0.0, 2 * math.pi, 256, endpoint=False))
    scan = fvals((np.arange(1024) + 0.5) * 2 * math.pi / 1024)
    w_min = _angular_feature_runs(np.abs(np.asarray(scan)))
    if w_min is None or w_min >= 2 * math.pi:
        nseg = 8
    else:
        nseg = int(min(256, max(8, math.ceil(2 * math.pi / (0.5 * w_min)))))

    def gauss(a, b):
        t = 0.5 * (a + b) + 0.5 * (b - a) * _GL8_NODES
        return float(np.sum(fvals(t) * _GL8_WEIGHTS) * 0.5 * (b - a))

    def seed(a, b):
        i1 = gauss(a, b)
        mseg = 0.5 * (a + b)
        i2 = gauss(a, mseg) + gauss(mseg, b)
        return (abs(i2 - i1), a, b, i2)

    heap = []
    counter = 0
    total = 0.0
    errsum = 0.0
    for k in range(nseg):
        e, a, b, i2 = seed(2 * math.pi * k / nseg, 2 * math.pi * (k + 1) / nseg)
        total += i2
        errsum += e
        heapq.heappush(heap, (-e, counter, a, b, i2))
        counter += 1
    count = nseg
    while errsum > tol * (1.0 + abs(total)) and heap:
        neg_e, _, a, b, i2 = heapq.heappop(heap)
        if count > _MAX_CIRCLE_SEGMENTS:
            raise QuadratureError(
                "circle quadrature budget exceeded", total, (a, b)
            )
        errsum -= -neg_e
        total -= i2
        mseg = 0.5 * (a + b)
        for lo, hi in ((a, mseg), (mseg, b)):
            e, _, _, v = seed(lo, hi)
            total += v
            errsum += e
            heapq.heappush(heap, (-e, counter, lo, hi, v))
            counter += 1
            count += 1
    return total


def _make_pole_check(m, r):
    def check(thetas):
        zs = r * np.exp(1j * thetas)
        w = evaluate_array(m, zs)
        bad = ~np.isfinite(w)
        if np.any(bad):
            i = int(np.nonzero(bad.reshape(-1))[0][0])
            z = complex(zs.reshape(-1)[i])
            try:
                v = evaluate(m, z)
            except IndeterminateError:
                raise PoleOnCircleError(r, z)
            if v is INF:
                raise PoleOnCircleError(r, z)

    return check


def boundary_length(m, r, tol=1e-8):
    """Pullback length l(r) of |z| = r by adaptive quadrature."""
    if r <= 0:
        raise ValueError("r must be positive")
    dm = differentiate(m)

    def fvals(thetas):
        zs = r * np.exp(1j * thetas)
        return density_array(m, dm, zs) * r

    return _adaptive_circle_integral(fvals, tol, _make_pole_check(m, r))


def area_derivative(m, r, tol=1e-8):
    """a'(r) computed directly as the polar integral of h^2 r d(theta)."""
    if r <= 0:
        raise ValueError("r must be positive")
    dm = differentiate(m)

    def fvals(thetas):
        zs = r * np.exp(1j * thetas)
        h = density_array(m, dm, zs)
        return h * h * r

    return _adaptive_circle_integral(fvals, tol, _make_pole_check(m, r))


def _length_with_nudge(m, r, tol=1e-8):
    """boundary_length with the 1e-9 relative radius nudge on a pole hit."""
    rr = r
    for _ in range(4):
        try:
            return rr, boundary_length(m, rr, tol=tol)
        except PoleOnCircleError:
            rr = rr * (1.0 + 1e-9)
    raise PoleOnCircleError(r, None)


# ---------------------------------------------------------------------------
# Profiles and radius selection


@dataclass
class MetricProfile:
    """Sampled (r, a, l) rows for one map; ratio = l/a."""

    map_source: str
    radii: list = field(default_factory=list)
    a: list = field(default_factory=list)
    l: list = field(default_factory=list)

    @property
    def ratio(self):
        return [li / ai if ai > 0 else math.inf for li, ai in zip(self.l, self.a)]

    def to_csv(self, path):
        lines = ["r,a,l,ratio"]
        for r, a_, l_, q in zip(self.radii, self.a, self.l, self.ratio):
            lines.append(f"{_fmt12(r)},{_fmt12(a_)},{_fmt12(l_)},{_fmt12(q)}")
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text

    def check(self, fd_tol=1e-1):
        """Internal sanity: a nondecreasing, l^2 <= 2 pi r a'_FD (1 + tol).

        a' is the three-point (nonuniform-grid) finite difference; fd_tol
        absorbs its truncation error on coarse grids.
        """
        for i in range(1, len(self.radii)):
            if self.a[i] < self.a[i - 1] - 1e-9 * (1 + abs(self.a[i])):
                return False
        for i in range(1, len(self.radii) - 1):
            h1 = self.radii[i] - self.radii[i - 1]
            h2 = self.radii[i + 1] - self.radii[i]
            da = (
                -self.a[i - 1] * h2 / (h1 * (h1 + h2))
                + self.a[i] * (h2 - h1) / (h1 * h2)
                + self.a[i + 1] * h1 / (h2 * (h1 + h2))
            )
            if self.l[i] ** 2 > 2 * math.pi * self.radii[i] * da * (1 + fd_tol) + 1e-9:
                return False
        return True


def _fmt12(x):
    return f"{x:.12g}"


def build_profile(m, radii, tol=1e-7, areas=None):
    """Rows (r, a(r), l(r)) at each radius: a at `tol`, l at max(tol / 10, 1e-10).

    a(r) is taken from `areas` (r -> a(r) at `tol`) where it is known.
    """
    areas = areas or {}
    prof = MetricProfile(map_source=m.source_text if hasattr(m, "source_text") else str(m))
    for r in radii:
        rr, lv = _length_with_nudge(m, r, tol=max(tol * 1e-1, 1e-10))
        prof.radii.append(rr)
        prof.a.append(areas[rr] if rr in areas else area(m, rr, tol=tol))
        prof.l.append(lv)
    return prof


class _SelectedRadii(list):
    """select_radii's radii, with `areas` (r -> a(r)) from its grid."""

    def __init__(self, radii, areas):
        super().__init__(radii)
        self.areas = areas


def select_radii(m, r_min, r_max, count, tol=1e-6):
    """Radii in [r_min, r_max] with strictly decreasing boundary/area ratio.

    Log-spaced candidates are walked downhill to local minimizers of l/a on
    a refinement grid; the ascending result keeps only strictly ratio-
    decreasing entries, up to `count` of them.  The list's `areas` maps
    each of them to its a(r) at `tol`, from the grid.
    """
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if count < 1:
        raise ValueError("count must be positive")
    n = max(16, 6 * count)
    grid = np.geomspace(r_min, r_max, n)  # grid[0] is exactly r_min
    ratios = []
    radii = []
    areas = []
    for r in grid:
        rr, lv = _length_with_nudge(m, float(r), tol=1e-9)
        av = area(m, rr, tol=tol)
        if not radii and av <= 1e-12:
            raise ValueError(f"a(r_min)={av}: map is constant on the range")
        radii.append(rr)
        areas.append(av)
        ratios.append(lv / av if av > 0 else math.inf)
    logr = np.log(np.asarray(radii))

    # each log-spaced candidate refines to the ratio minimizer inside its own
    # bracket (geometric midpoints to its neighbors)
    targets = np.geomspace(r_min, r_max, count) if count > 1 else [r_max]
    picked = []
    for k, t in enumerate(targets):
        lo = math.sqrt(targets[k - 1] * t) if k > 0 else r_min
        hi = math.sqrt(t * targets[k + 1]) if k + 1 < len(targets) else r_max
        inside = np.nonzero((logr >= math.log(lo) - 1e-12) & (logr <= math.log(hi) + 1e-12))[0]
        if len(inside) == 0:
            inside = [int(np.argmin(np.abs(logr - math.log(t))))]
        j = int(inside[int(np.argmin([ratios[i] for i in inside]))])
        picked.append(j)
    picked = sorted(set(picked))

    out_r, out_q = [], []
    for j in picked:
        if out_q and ratios[j] >= out_q[-1] * (1 - 1e-9):
            continue
        out_r.append(radii[j])
        out_q.append(ratios[j])
    return _SelectedRadii(out_r[:count], {radii[j]: areas[j] for j in picked})


def lengtharea_certificate(m, r1, r2, tol=1e-6, points_per_decade=14):
    """(integral of (l/a)^2 dr/r over [r1, r2], 2 pi / a(r1)).

    The integral is a Simpson rule in log r over a profile grid; the
    contract is first <= second + tolerance.
    """
    if not (0 < r1 <= r2):
        raise ValueError("need 0 < r1 <= r2")
    a1 = area(m, r1, tol=tol)
    if a1 <= 0:
        raise ValueError("a(r1) must be positive")
    bound = 2 * math.pi / a1
    if r2 == r1:
        return 0.0, bound
    decades = math.log10(r2 / r1)
    n = max(33, int(points_per_decade * decades) | 1)
    if n % 2 == 0:
        n += 1
    us = np.linspace(math.log(r1), math.log(r2), n)
    g = []
    for u in us:
        r = math.exp(u)
        _, lv = _length_with_nudge(m, r, tol=1e-9)
        av = area(m, r, tol=tol)
        g.append((lv / av) ** 2 if av > 0 else math.inf)
    g = np.asarray(g)
    h = us[1] - us[0]
    integral = h / 3.0 * (g[0] + g[-1] + 4 * g[1:-1:2].sum() + 2 * g[2:-1:2].sum())
    return float(integral), bound


# ---------------------------------------------------------------------------
# Uniform sphere sampling


def sample_sphere_uniform(seed, n):
    """n i.i.d. points for the normalized area measure; deterministic in seed."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = default_rng(seed)
    zcoord = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2 * math.pi, size=n)
    s = np.sqrt(np.maximum(0.0, 1.0 - zcoord**2))
    x = s * np.cos(phi)
    y = s * np.sin(phi)
    pts = []
    for xi, yi, zi in zip(x, y, zcoord):
        if zi >= 1.0:
            pts.append(SpherePoint(None))
        else:
            pts.append(SpherePoint(complex(xi, yi) / (1.0 - zi)))
    return pts

