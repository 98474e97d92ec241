"""Spherical geometry normalized to total area 1, and pullback quadrature.

The target sphere carries the round (Fubini-Study) metric rescaled so its
total area is exactly 1.  Concretely the chordal distance between two
extended-complex points is

    dist(p, q) = |p - q| / (sqrt(pi) sqrt(1+|p|^2) sqrt(1+|q|^2))

with the usual limits at infinity: dist(p, inf) = 1 / (sqrt(pi) sqrt(1+|p|^2)).
The point at infinity is `INF`; `sphere_point` reads any point into a
finite complex or INF.  `chordal_distance_array` is the one implementation of
this formula.  A holomorphic map f pulls the metric back to the density

    h(z) = |f'(z)| / (sqrt(pi) (1 + |f(z)|^2)).

With this normalization the closed forms used throughout the tests are
a(r) = d r^{2d}/(1+r^{2d}) and l(r) = 2 sqrt(pi) d r^d/(1+r^{2d}) for z^d,
and a chordal disk of radius rho has normalized area pi rho^2 exactly.

`build_profile` reports a(r) from `area`, over polar cells of the disk;
`select_radii` and `lengtharea_certificate` take it from `boundary_areas`.
Every integral over a circle |z| = r, l(r), a'(r) and the boundary a(r), is
the nested periodic trapezoid rule of `_adaptive_circle_integral`, which
bisects arcs of the circle where a pole or critical point lies next to it.

`sample_sphere_uniform` draws from a private PCG64 stream seeded as numpy's
`default_rng(seed)` seeds it, so its points are those of
`default_rng(seed).uniform`, bit for bit, without loading `numpy.random`,
and they do not change with numpy's version.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from coverlab.expr import (
    INF,
    IndeterminateError,
    differentiate,
    evaluate,
    evaluate_array,
    evaluate_arrays,
    pole_free,
)

SQRT_PI = math.sqrt(math.pi)
MAX_DISK_RADIUS = 0.5 / SQRT_PI  # topological-disk bound for SphericalDisk

_BIG = 1e80  # |f| beyond this: switch to the reciprocal form of h
_MAX_AREA_CELLS = 200_000
_AREA_CHUNK = 1024  # polar cells that _coarse_batch evaluates at once
_CIRCLE_NODES = 1024  # the trapezoid rule's first level on a circle
_PERIODIC_NODES = 2**13  # its last level, past which arcs are bisected
_ARCS = 64
_MAX_CIRCLE_NODES = 2**16  # evaluations of one circle integral
_THETA0 = 2 * math.pi / (3 * _CIRCLE_NODES)  # the nodes' offset: no node on a dyadic angle


class QuadratureError(ArithmeticError):
    """Adaptive quadrature ran out of budget.

    Carries the partial estimate and the worst remaining cell so the caller
    can rescue or report; for a circle integral, the accepted arcs plus the
    estimates of the rest, and the (start, end) angles of the arc of
    largest error.
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


def sphere_point(v):
    """A point of the sphere as a finite complex, or `INF`: from INF, a
    number (non-finite ones are INF) or the strings 'inf', 'infinity', 'oo'."""
    if v is INF:
        return INF
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "infinity", "oo"):
            return INF
        raise ValueError(f"not a sphere point: {v!r}")
    v = complex(v)
    return v if cmath.isfinite(v) else INF


def chordal_distance(p, q):
    """Chordal distance in the area-1 normalization (diameter 1/sqrt(pi))."""
    p = sphere_point(p)
    return float(chordal_distance_array(complex(math.inf) if p is INF else p, q))


def chordal_distance_array(ws, center):
    """Chordal distance from complex array `ws` to a sphere point, in closed form.

    Non-finite entries of `ws` (poles, inf, nan) are the point at infinity.
    """
    c = sphere_point(center)
    ws = np.asarray(ws, dtype=np.complex128)
    # at_inf is sqrt(pi) dist(inf, c); for c = inf the factor
    # |w - c| / sqrt(1+|c|^2) is 1
    at_inf = 0.0 if c is INF else 1.0 / math.hypot(1.0, abs(c))
    with np.errstate(all="ignore"):
        d = 1.0 if c is INF else np.abs(ws - c) * at_inf
        scale = np.hypot(1.0, np.abs(ws))
        d /= scale
        return np.where(np.isfinite(scale), d, at_inf) / SQRT_PI


@dataclass(frozen=True)
class SphericalDisk:
    center: complex  # or INF
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < MAX_DISK_RADIUS:
            raise ValueError(
                f"disk radius {self.radius} must lie in (0, {MAX_DISK_RADIUS:.6f}) "
                f"(half the normalized diameter)"
            )

    @classmethod
    def of(cls, center, radius):
        return cls(sphere_point(center), float(radius))


# ---------------------------------------------------------------------------
# Pullback density


def spherical_density(m, dm, z):
    """h(z) = |f'(z)| / (sqrt(pi) (1+|f(z)|^2)), extended to poles by limits."""
    z = complex(z)
    h = _plain_density(m, dm, z)
    if h is not None:
        return h
    # at a pole the density extends continuously (h is invariant under
    # w -> 1/w); take a small 4-point average around z, over the points
    # where f and f' are finite: where f overflows all around, none are
    eps = 1e-7 * (1.0 + abs(z))
    around = (z + eps * np.exp(1j * (math.pi / 4 + k * math.pi / 2)) for k in range(4))
    vals = [v for v in (_plain_density(m, dm, complex(zz)) for zz in around) if v is not None]
    if not vals:
        if pole_free(m):
            raise OverflowError(f"f overflows near z = {z!r}")
        raise IndeterminateError(f"density undefined at {z!r}")
    return float(np.median(vals))


def _plain_density(m, dm, z):
    """h(z) where f(z) and f'(z) are finite, else None."""
    try:
        w = evaluate(m, z)
        dw = evaluate(dm, z)
    except IndeterminateError:
        return None
    if w is INF or dw is INF:
        return None
    u, v = abs(w), abs(dw)
    if u > _BIG:
        return (v / u) / u / SQRT_PI
    return v / ((1.0 + u * u) * SQRT_PI)


def density_array(m, dm, zs):
    """Vectorized density with pointwise rescue of pole/indeterminate entries."""
    zs = np.asarray(zs, dtype=np.complex128)
    w, dw = evaluate_arrays([m, dm], zs)
    with np.errstate(all="ignore"):
        u = np.abs(w)
        v = u if dw is w else np.abs(dw)  # one array for f = f', as for exp(z)
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
# Adaptive quadrature: polar cells for a(r); circle nodes for l(r), a'(r) and boundary a(r)


def _gauss_legendre(nodes, weights):
    """The n-point Gauss-Legendre rule of [-1, 1], nodes ascending, from its
    n/2 positive nodes and their weights: the rule is symmetric to the bit."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(
    [0.33998104358485626, 0.8611363115940526], [0.6521451548625464, 0.34785484513745357]
)

# an arc's 17 points, and the Clenshaw-Curtis weights of all of them, every
# 2nd and every 4th.  The weights are literals because their last bits, made
# by a matrix product, follow the BLAS kernel that OpenBLAS picks per CPU;
# they are not symmetric to the bit.
_CC_NODES = np.cos(np.pi * np.arange(17) / 16)
_CC_WEIGHTS = [np.array(w) for w in (
    [0.00392156862745098, 0.037368702837205614, 0.07548233154315184, 0.10890555258189093,
     0.13895646836823308, 0.1631726642817033, 0.18147378423649335, 0.19251386461292563,
     0.19641012582189052, 0.19251386461292563, 0.18147378423649338, 0.16317266428170335,
     0.13895646836823308, 0.10890555258189091, 0.07548233154315184, 0.037368702837205656,
     0.00392156862745098],
    [0.015873015873015872, 0.14621864921601815, 0.27936507936507937, 0.3617178587204898,
     0.39365079365079364, 0.3617178587204898, 0.27936507936507937, 0.14621864921601818,
     0.015873015873015872],
    [0.06666666666666668, 0.5333333333333333, 0.8, 0.5333333333333334, 0.06666666666666668],
)]


def _quarter_bounds(bounds):
    """(4 nb, 4): the quarters of each polar cell (s0, s1, t0, t1), cell by cell."""
    s0, s1, t0, t1 = np.asarray(bounds).T
    sm, tm = 0.5 * (s0 + s1), 0.5 * (t0 + t1)
    quarters = [(s0, sm, t0, tm), (sm, s1, t0, tm), (s0, sm, tm, t1), (sm, s1, tm, t1)]
    return np.stack([np.stack(q, axis=1) for q in quarters], axis=1).reshape(-1, 4)


def _coarse_batch(m, dm, bounds):
    """Gauss 4x4 estimates for a list of polar cells, one vectorized eval per
    _AREA_CHUNK cells; each value is elementwise and each cell's sum its own,
    so the chunk size changes no bit."""
    out = []
    for k in range(0, len(bounds), _AREA_CHUNK):
        b = np.asarray(bounds[k : k + _AREA_CHUNK])  # (nb, 4): s0 s1 t0 t1
        s_mid = 0.5 * (b[:, 0] + b[:, 1])
        s_half = 0.5 * (b[:, 1] - b[:, 0])
        t_mid = 0.5 * (b[:, 2] + b[:, 3])
        t_half = 0.5 * (b[:, 3] - b[:, 2])
        s = s_mid[:, None, None] + s_half[:, None, None] * _GL_NODES[None, :, None]
        t = t_mid[:, None, None] + t_half[:, None, None] * _GL_NODES[None, None, :]
        ss = np.broadcast_to(s, (len(b), 4, 4))
        zs = ss * np.exp(1j * t)  # e^{it} on the 4 angular nodes of each cell, broadcast
        h = density_array(m, dm, zs)
        vals = h * h * ss
        ww = np.outer(_GL_WEIGHTS, _GL_WEIGHTS)[None, :, :]
        out.append(np.sum(vals * ww, axis=(1, 2)) * s_half * t_half)
    return np.concatenate(out)


def _narrowest_closed_run(vals):
    """Width (radians) of the narrowest closed run above 1e-6 of its row's
    maximum, over the rows of `vals` (theta scans) with an entry off their
    runs; None when no row has one."""
    n_t = vals.shape[1]
    mx = vals.max(axis=1, keepdims=True)
    keep = (vals > 1e-6 * mx) & (mx > 0)
    keep = keep[~keep.all(axis=1)]
    # each row walked from its first dropped entry, so that no run wraps
    walk = (keep.argmin(axis=1)[:, None] + np.arange(n_t)) % n_t
    walk = np.take_along_axis(keep, walk, axis=1).astype(np.int8)
    _, edges = np.nonzero(np.diff(walk, axis=1, prepend=0, append=0))
    if not edges.size:
        return None
    return 2 * math.pi * (int((edges[1::2] - edges[::2]).min()) / n_t)


def _probe_seed_counts(m, dm, r):
    """Seed-grid shape from a coarse scan: fine in theta only when needed.

    The scan's rows are read in one array pass, each of mass at least
    1e-9 of the total.  Unless one of them varies by more than 1e-3 of its
    mean, the scan is symmetric.  Otherwise the theta count comes from the
    narrowest closed run of the rows (_narrowest_closed_run).
    """
    n_s, n_t = 32, 512
    s = (np.arange(n_s) + 0.5) * r / n_s
    t = (np.arange(n_t) + 0.5) * 2 * math.pi / n_t
    ss, tt = np.meshgrid(s, t, indexing="ij")
    h = density_array(m, dm, ss * np.exp(1j * tt))
    vals = h * h * ss
    row_mass = vals.sum(axis=1)
    total = row_mass.sum()
    vals = vals[~((total > 0) & (row_mass < 1e-9 * total))]
    mean = vals.mean(axis=1)
    if not ((mean > 0) & (vals.std(axis=1) > 1e-3 * mean)).any():
        return 16, 8
    w_min = _narrowest_closed_run(vals)
    if w_min is None:
        return 16, 32
    return 16, int(min(192, max(16, math.ceil(2 * math.pi / (0.25 * w_min)))))


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
    The cells are evaluated _AREA_CHUNK at a time (_coarse_batch), which
    bounds the working set at any radius and changes no bit of the result.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    dm = differentiate(m)
    n_s, n_t = _probe_seed_counts(m, dm, r)

    heap, tick = [], itertools.count()  # tick: the heap's tie-breaker
    total = errsum = 0.0

    def add_cells(bounds):
        """Estimate the cells `bounds`, batching all evaluations, and push them."""
        nonlocal total, errsum
        coarse = _coarse_batch(m, dm, bounds)
        fine = _coarse_batch(m, dm, _quarter_bounds(bounds))
        for b, c, f in zip(bounds, coarse, fine.reshape(len(bounds), 4).sum(axis=1)):
            val, err = float(f), abs(float(f) - float(c))
            total += val
            errsum += err
            heapq.heappush(heap, (-err, next(tick), b, val))

    seeds = [(r * i / n_s, r * (i + 1) / n_s, 2 * math.pi * j / n_t, 2 * math.pi * (j + 1) / n_t)
             for i in range(n_s) for j in range(n_t)]
    add_cells(seeds)
    ncells = len(seeds) * 5
    while errsum > tol * (1.0 + abs(total)) and heap:
        if ncells > _MAX_AREA_CELLS:  # heap[0] is the worst cell
            raise QuadratureError("area quadrature budget exceeded", total, heap[0][2])
        batch = []
        for _ in range(min(32, len(heap))):
            neg_err, _, b, val = heapq.heappop(heap)
            if -neg_err <= 0:
                heapq.heappush(heap, (neg_err, next(tick), b, val))
                break
            errsum -= -neg_err
            total -= val
            batch.extend(_halves(*b))
        if not batch:
            break
        add_cells(batch)
        ncells += len(batch) * 5
    return total


def _adaptive_circle_integral(fvals, tol, pole_check):
    """Integral of f(theta) d(theta) over [0, 2pi) by the nested periodic
    trapezoid rule (Trefethen & Weideman, SIAM Review 56, 2014), and by
    bisected arcs where f has features narrower than its nodes.

    `fvals(thetas)` must be vectorized and elementwise.  `pole_check(thetas)`
    may raise.  T_N sums f at the N nodes _THETA0 + 2 pi k / N times 2 pi / N,
    from N = _CIRCLE_NODES; T_{N/2}, T_{N/4} and T_{N/8} take every 2nd, 4th
    and 8th node.  N doubles by the N midpoints until the differences d0,
    d1, d2 of those four sums have d2 and d1^2 / max(d0, d1), the next one
    if they decay geometrically, at most tol * (1 + |T_N|): a kink of |f'|
    whose even and odd half-rules err alike fails the second.  _THETA0 keeps
    the nodes off dyadic angles such as pi/2, where tested maps have poles.

    Past _PERIODIC_NODES nodes the circle is cut into _ARCS arcs, a third
    of an arc off the dyadic angles.  An arc takes its 17-point Clenshaw-
    Curtis value; its error is the larger of that value's distance from the
    9-point one and the 9-point one's from the 5-point one over 16.  Arcs
    whose errors are within their share by length of tol * (1 + |T_N|) / 8
    are accepted, and the rest bisected, one `fvals` call a level, until
    all errors sum within it.  A level ending past _MAX_CIRCLE_NODES
    evaluations raises QuadratureError.
    """
    pole_check(np.linspace(0.0, 2 * math.pi, 256, endpoint=False))
    n = _CIRCLE_NODES
    vals = fvals(_THETA0 + np.arange(n) * (2 * math.pi / n))
    total, sums = np.sum(vals), [np.sum(vals[::k]) * (2 * math.pi * k / n) for k in (8, 4, 2)]
    while True:
        value = total * (2 * math.pi / n)
        sums.append(value)
        d0, d1, d2 = np.abs(np.diff(sums[-4:]))
        limit = tol * (1.0 + abs(value))
        if d2 <= limit and d1 * d1 <= limit * max(d0, d1):
            return float(value)
        if n >= _PERIODIC_NODES:
            break
        total += np.sum(fvals(_THETA0 + (np.arange(n) + 0.5) * (2 * math.pi / n)))
        n *= 2
    allowance = limit / 8
    a = (np.arange(_ARCS) + 1 / 3) * (2 * math.pi / _ARCS)
    b, done, errsum = a + 2 * math.pi / _ARCS, 0.0, 0.0
    while True:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        vals = fvals((mid[:, None] + half[:, None] * _CC_NODES).ravel()).reshape(len(a), -1)
        fine, coarse, coarser = (vals[:, ::k] @ w * half for k, w in zip((1, 2, 4), _CC_WEIGHTS))
        err = np.maximum(np.abs(fine - coarse), np.abs(coarse - coarser) / 16)
        ok = err <= allowance * (b - a) / (2 * math.pi)
        done, errsum = done + np.sum(fine[ok]), errsum + np.sum(err[ok])
        a, mid, b, fine, err = (x[~ok] for x in (a, mid, b, fine, err))
        if errsum + np.sum(err) <= allowance:
            return float(done + np.sum(fine))
        n += vals.size
        if n > _MAX_CIRCLE_NODES:
            worst = np.argmax(err)
            raise QuadratureError("circle quadrature budget exceeded",
                                  float(done + np.sum(fine)), (a[worst], b[worst]))
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])


def _make_pole_check(m, r):
    """A check of angles on |z| = r that raises PoleOnCircleError at a pole
    of f, or OverflowError where f has no poles and overflows."""

    def check(thetas):
        zs = r * np.exp(1j * thetas)
        bad = np.flatnonzero(~np.isfinite(evaluate_array(m, zs)))
        if len(bad):
            z = complex(zs.reshape(-1)[bad[0]])
            try:
                v = evaluate(m, z)
            except IndeterminateError:
                v = INF
            if v is INF:
                if pole_free(m):
                    raise OverflowError(f"f overflows on |z| = {r!r} near z = {z!r}")
                raise PoleOnCircleError(r, z)

    return check


def boundary_length(m, r, tol=1e-8):
    """Pullback length l(r) of |z| = r by adaptive quadrature."""
    return _circle_integral_of_density(m, r, tol, lambda h: h * r)


def area_derivative(m, r, tol=1e-8):
    """a'(r) computed directly as the polar integral of h^2 r d(theta)."""
    return _circle_integral_of_density(m, r, tol, lambda h: h * h * r)


def _circle_integral_of_density(m, r, tol, integrand):
    """Integral of integrand(h(z)) d(theta) over z = r e^{i theta}."""
    if r <= 0:
        raise ValueError("r must be positive")
    dm = differentiate(m)

    def fvals(thetas):
        return integrand(density_array(m, dm, r * np.exp(1j * thetas)))

    return _adaptive_circle_integral(fvals, tol, _make_pole_check(m, r))


def boundary_areas(m, radii, tol=1e-9):
    """a(r) at each radius from the Ahlfors-Shimizu boundary integral
    (Hayman, Meromorphic Functions, ch. 1):

        a(r) = n(r, inf) + (1/2pi) int_0^2pi Re(z f' conj f) / (1 + |f|^2) dtheta,

    z = r e^{i theta}, with the integrand Re(z f'/f) / (1 + |f|^-2) where
    |f| > 1 so that |f|^2 cannot overflow.  n(r, inf) enters the integrand
    as k Re(z / (z - p)) per pole p of order k, which integrates to k for
    |p| < r and to 0 for |p| > r and cancels the narrow spike that a pole
    on or next to the circle puts into the first term.  The poles come from
    one find_roots search out to e/2 times the largest radius (a factor no
    pole meets on purpose), or 1% further out when a pole lies on it.
    """
    from coverlab.count import RootOnCircleError, find_roots  # count imports metric

    dm = differentiate(m)
    try:
        poles = find_roots(m, INF, max(radii) * math.e / 2)
    except RootOnCircleError:
        poles = find_roots(m, INF, max(radii) * math.e / 2 * 1.01)
    at = np.array([p.location for p in poles], dtype=np.complex128)
    order = np.array([p.multiplicity for p in poles], dtype=float)
    out = []
    for r in radii:
        def fvals(thetas):
            zs = r * np.exp(1j * thetas)
            w, dw = evaluate_arrays([m, dm], zs)
            zdw, u = zs * dw, np.abs(w)
            with np.errstate(all="ignore"):
                first = np.where(u <= 1, (zdw * w.conj()).real / (1 + u * u),
                                 (zdw / w).real / (1 + (1 / u) ** 2))
                # summed pole by pole, left to right, so each point's bits are its own
                return first + sum((zs / (zs - p)).real * k for p, k in zip(at, order))

        flux = _adaptive_circle_integral(fvals, tol, _make_pole_check(m, r))
        out.append(flux / (2 * math.pi))
    return out


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
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return text


def _fmt12(x):
    return f"{x:.12g}"


def build_profile(m, radii, tol=1e-7):
    """Rows (r, a(r), l(r)) at each radius: a at `tol` by the polar `area`
    quadrature, l at max(tol / 10, 1e-10).
    """
    prof = MetricProfile()
    for r in radii:
        rr, lv = _length_with_nudge(m, r, tol=max(tol * 1e-1, 1e-10))
        prof.radii.append(rr)
        prof.a.append(area(m, rr, tol=tol))
        prof.l.append(lv)
    return prof


def select_radii(m, r_min, r_max, count):
    """Radii in [r_min, r_max] with strictly decreasing boundary/area ratio.

    Each of `count` log-spaced targets takes the argmin of l/a over its
    bracket (geometric midpoints to its neighbours) on one fixed log grid
    of max(16, 6 count) radii, with a(r) from `boundary_areas` (the
    Ahlfors-Shimizu boundary integral); the ascending result keeps only
    strictly ratio-decreasing entries, up to `count` of them.
    """
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if count < 1:
        raise ValueError("count must be positive")
    n = max(16, 6 * count)
    grid = np.geomspace(r_min, r_max, n)  # grid[0] is exactly r_min
    radii, lengths = zip(*(_length_with_nudge(m, float(r), tol=1e-9) for r in grid))
    areas = boundary_areas(m, radii)
    if areas[0] <= 1e-12:
        raise ValueError(f"a(r_min)={areas[0]}: map is constant on the range")
    ratios = [lv / av if av > 0 else math.inf for lv, av in zip(lengths, areas)]
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
    return out_r[:count]


def lengtharea_certificate(m, r1, r2, tol=1e-6, points_per_decade=14):
    """(integral of (l/a)^2 dr/r over [r1, r2], 2 pi / a(r1)).

    The integral is a Simpson rule in log r over a profile grid, with a(r)
    from `boundary_areas` at `tol`; the contract is first <= second +
    tolerance.
    """
    if not (0 < r1 <= r2):
        raise ValueError("need 0 < r1 <= r2")
    n = max(33, int(points_per_decade * math.log10(r2 / r1)) | 1) if r2 > r1 else 1
    us = np.linspace(math.log(r1), math.log(r2), n)
    radii, lengths = zip(*(_length_with_nudge(m, math.exp(u), tol=1e-9) for u in us))
    areas = boundary_areas(m, radii, tol=tol)
    if areas[0] <= 0:
        raise ValueError("a(r1) must be positive")
    bound = 2 * math.pi / areas[0]
    if n == 1:
        return 0.0, bound
    g = np.asarray([(lv / av) ** 2 if av > 0 else math.inf for lv, av in zip(lengths, areas)])
    h = us[1] - us[0]
    integral = h / 3.0 * (g[0] + g[-1] + 4 * g[1:-1:2].sum() + 2 * g[2:-1:2].sum())
    return float(integral), bound


# ---------------------------------------------------------------------------
# Uniform sphere sampling


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const, mult):
    """SeedSequence's hashmix of 32-bit words; each call advances `const` by `mult`."""

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _pcg64_draws(seed, count):
    """`count` 53-bit draws, bit for bit `np.random.PCG64(seed).random_raw(count) >> 11`.

    The state is numpy's `SeedSequence(seed).generate_state(4, uint64)`: the
    seed's 32-bit words hashed into a pool of four.  PCG64 (O'Neill 2014)
    steps a 128-bit LCG and emits the XSL-RR output of each new state.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        v = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return v ^ v >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    state32 = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    s0, s1, i0, i1 = (lo | hi << 32 for lo, hi in zip(state32[::2], state32[1::2]))
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    draws = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        draws.append((x >> rot | x << (64 - rot) & _MASK64) >> 11)
    return draws


def _sphere_uniforms(seed, n):
    """`default_rng(seed).uniform(-1, 1, n)`, then `.uniform(0, 2 pi, n)`, bit
    for bit: numpy's `low + (high - low) * u`, u a draw times 2**-53."""
    u = np.array(_pcg64_draws(seed, 2 * n), dtype=float) * 2.0**-53
    return -1.0 + 2.0 * u[:n], 0.0 + 2 * math.pi * u[n:]


def sample_sphere_uniform(seed, n):
    """n i.i.d. points for the normalized area measure; deterministic in seed."""
    if n < 1:
        raise ValueError("n must be positive")
    zcoord, phi = _sphere_uniforms(seed, n)
    s = np.sqrt(np.maximum(0.0, 1.0 - zcoord**2))
    x = s * np.cos(phi)
    y = s * np.sin(phi)
    return [INF if zi >= 1.0 else complex(xi, yi) / (1.0 - zi) for xi, yi, zi in zip(x, y, zcoord)]
