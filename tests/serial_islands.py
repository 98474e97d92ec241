"""The island finder one (disk, radius) pair at a time, each lift a call of
its own: the reference that count.island_scans and count.find_islands, which
lift many pairs in one array pass, must match bit for bit.

This is the island finder as it stood before the lifts were batched, kept
verbatim apart from its imports and from the start direction of a k-fold
seed, which takes the rule of lifting._branches where the difference
quotient reads 0."""

import math

import numpy as np

from coverlab.count import (
    IslandRecord,
    ResolutionError,
    _chart,
    find_roots,
    margin_radius,
    ring_radius,
)
from coverlab.expr import differentiate, evaluate, evaluate_array, evaluate_arrays
from coverlab.lifting import _LIFT_STEPS, _MIN_LIFT_STEP, _encloses, _polygon_area
from coverlab.metric import SphericalDisk


def find_islands(m, disk, r, resolution=512):
    """Islands of `disk`: proper preimage components inside |z| < r, and
    the number of ambiguous components.

    Seeds are the preimages of the centre c inside the ring (find_roots).
    In the chart of _chart, a k-fold seed starts k lifts of the segment
    from c to a point b of the disk's boundary circle.  The circle, lifted
    once from each end point, lands on the next end point of the same
    boundary curve: the cycles of these landings are the boundary curves,
    with turn counts k_j.  A lift that reaches the ring or lands on no end
    point touches the boundary.  Counterclockwise cycles are outer curves;
    a clockwise one is a hole of the smallest outer curve around it.  An
    island has degree sum(k_j) and chi = 2 - #curves; one whose outer curve
    reaches the properness margin is ambiguous.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    disk = disk if isinstance(disk, SphericalDisk) else SphericalDisk.of(*disk)
    ring = ring_radius(r, resolution)
    seeds = find_roots(m, disk.center, ring)
    g, c, centre, radius = _chart(m, disk)
    dg = differentiate(g)
    b = centre + radius * np.exp(2.399963229728653j)  # the golden angle: a generic point
    # a k-fold seed z0, where g = c + a (z - z0)^k + ..., starts k branches
    # of w(s) = c + s^k (b - c) at s = s0, a k-th turn apart; z0 per branch
    seed_of = np.repeat(np.arange(len(seeds)), [root.multiplicity for root in seeds])
    z0 = np.array([root.location for root in seeds], dtype=np.complex128)[seed_of]
    k = np.array([root.multiplicity for root in seeds], dtype=int)[seed_of]
    delta = 1e-3 * (1 + np.abs(z0))
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (evaluate_array(g, z0 + delta) - c) / delta**k
    # where delta^k is below the rounding of c, g - c reads 0: a = g^(k)(z0) / k!
    for j in np.flatnonzero(~np.isfinite(a) | (a == 0)):
        dk = g
        for _ in range(k[j]):
            dk = differentiate(dk)
        a[j] = evaluate(dk, complex(z0[j])) / math.factorial(k[j])
    turn = np.exp(2j * np.pi * (np.arange(len(k)) - np.searchsorted(seed_of, seed_of)) / k)
    direction = ((b - c) / a) ** (1 / k) * turn

    def segment(s):
        return c + s**k * (b - c), k * s ** (k - 1) * (b - c)

    def circle(t):
        arm = (b - centre) * np.exp(2j * np.pi * t)
        return centre + arm, 2j * np.pi * arm

    # s0 = 0.01 unless a critical value near c puts a start off its branch:
    # then three Newton steps towards w(s0) move it by a quarter of its
    # distance from the seed or more, and s0 shrinks tenfold, to 1e-6 at most
    for s0 in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        start = moved = z0 + s0 * direction
        with np.errstate(all="ignore"):
            for _ in range(3):
                gz, dgz = evaluate_arrays([g, dg], moved)
                moved = moved - (gz - segment(s0)[0]) / dgz
        if np.all(np.abs(moved - start) < np.abs(start - z0) / 4):
            break

    rows, alive = _lift(g, dg, start, segment, s0, 1.0, ring)
    ends, z0 = rows[-1][alive], z0[alive]
    if not len(ends):
        return [], 0
    rows, alive = _lift(g, dg, ends, circle, 0.0, 1.0, ring)
    # each lift lands on the end point within 1e-6 radius / |g'| of it, if any
    dist = np.abs(rows[-1][:, None] - ends[None, :])
    nxt = dist.argmin(axis=1)
    nxt[~alive | (dist.min(axis=1) > 1e-6 * radius / np.abs(evaluate_array(dg, ends[nxt])))] = -1
    if len(set(nxt[nxt >= 0])) < np.count_nonzero(nxt >= 0):
        raise ResolutionError("two lifts of the disk boundary land on one point")
    curves = []  # (end points, closed polyline) of each cycle, from its least end point
    for j in range(len(ends)):
        walk = [j]
        while nxt[walk[-1]] > j:
            walk.append(nxt[walk[-1]])
        if nxt[walk[-1]] == j:
            curves.append((walk, np.concatenate([rows[:-1, i] for i in walk] + [ends[j:j + 1]])))
    areas = [_polygon_area(loop) for _, loop in curves]
    holes = {j: [] for j, area in enumerate(areas) if area > 0}
    for j, area in enumerate(areas):
        around = [o for o in holes if area < 0 and _encloses(curves[o][1], curves[j][1][0])]
        if around:
            holes[min(around, key=areas.__getitem__)].append(j)
    islands, n_ambiguous = [], 0
    for o, inner in holes.items():
        members, loop = curves[o]
        if np.abs(loop).max() > margin_radius(r, resolution) - 2.0 * r / resolution:
            n_ambiguous += 1
            continue
        degree = len(members) + sum(len(curves[j][0]) for j in inner)
        chi = 1 - len(inner)
        centroid, hole_loops = complex(z0[members[0]]), [curves[j][1] for j in inner]
        islands.append(IslandRecord(-1, loop, chi, degree, degree - chi, centroid, hole_loops))
    islands.sort(key=lambda q: (q.centroid.real, q.centroid.imag))
    return islands, n_ambiguous


def _lift(g, dg, z, path, t0, t1, stop):
    """Lift t -> path(t) = (w, dw/dt), t0 <= t <= t1, through g from points
    z near g(z) = w(t0), in lockstep: an Euler predictor dz = dw / g'(z) and
    three Newton corrections, taken when every live path's corrector
    converged and moved less than dz / 4, else halved.  A path stops at
    |z| >= stop.  Returns the points after each step (rows; a stopped path
    keeps its last point) and the mask of paths never stopped."""
    z = np.array(z, dtype=np.complex128)
    slope = evaluate_array(dg, z)
    live = np.ones(len(z), dtype=bool)
    rows = [z.copy()]
    u, h = 0.0, 1.0 / _LIFT_STEPS  # t = t0 + u (t1 - t0); dyadic steps end at u = 1 exactly
    while u < 1 and live.any():
        h = min(h, 1 - u)
        t, t_next = t0 + u * (t1 - t0), t0 + (u + h) * (t1 - t0)
        dz = np.broadcast_to(path(t)[1] * (t_next - t), z.shape)[live] / slope[live]
        w = np.broadcast_to(path(t_next)[0], z.shape)[live]
        moved = z[live] + dz
        for _ in range(3):
            gz, new_slope = evaluate_arrays([g, dg], moved)
            with np.errstate(all="ignore"):
                err = (gz - w) / new_slope
            moved = moved - err
        ok = (np.abs(moved - z[live] - dz) < np.abs(dz) / 4) & (np.abs(err) <= 1e-6 * np.abs(dz))
        if not ok.all():
            h /= 2
            if h < _MIN_LIFT_STEP:
                raise ResolutionError(f"path lifting stalled at t = {t!r}: refine the disk")
            continue
        u += h
        z[live], slope[live] = moved, new_slope  # g' at the last corrector iterate
        live &= np.abs(z) < stop
        rows.append(z.copy())
        h = min(2 * h, 1.0 / _LIFT_STEPS)
    return np.array(rows), live
