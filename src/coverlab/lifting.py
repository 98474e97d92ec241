"""Path lifting through a holomorphic map g (numerical continuation; Allgower
& Georg, Introduction to Numerical Continuation Methods, SIAM 2003).

A lift follows the points z(t) with g(z(t)) = w(t) along a path t -> w(t)
from points over its start.  lift_paths carries many independent lifts in
one array pass, each in its own lockstep, so that no lift's points depend
on the others'; trace.trace_preimage lifts the chart segments with it.
lift_boundaries lifts, for count.find_islands, the boundary of a disk in
its chart (_chart) from the preimages of its centre: all disks of one
chart map in one pass.  cycle_components reads components off lifts that
land on one another's starts: the cycles of the landings are their
boundary curves, with degree and Euler characteristic.
"""

from __future__ import annotations

import math

import numpy as np

from coverlab.expr import (
    INF,
    Div,
    as_fraction,
    differentiate,
    evaluate,
    evaluate_array,
    evaluate_arrays,
)

_LIFT_STEPS = 32  # a lift takes at least this many steps over its range
_MIN_LIFT_STEP = 1e-12  # a shorter step, relative to the range, is an underflow


class ResolutionError(ArithmeticError):
    """Grid too coarse to resolve the preimage of a graph (retry with a finer
    resolution), or a path lift stalled, as at a critical point on the path."""


def lift_paths(g, dg, lifts):
    """Lift t -> path(t) = (w, dw/dt), t0 <= t <= t1, through g, for each
    lift (z, path, t0, t1, stop) from its points z near g(z) = w(t0).  Each
    lift keeps its own lockstep: an Euler predictor dz = dw / g'(z) and
    three Newton corrections, taken when every live path of the lift
    converged and moved less than dz / 4, else halved.  A path stops at
    |z| >= stop.  The lifts share one array pass per step; no lift's points
    depend on the others'.  Returns per lift its points after each of its
    steps (rows; a stopped path keeps its last point) and the mask of paths
    never stopped, or the ResolutionError of a lift that stalled."""
    lo = np.cumsum([0] + [len(lift[0]) for lift in lifts])
    z = np.concatenate([np.asarray(lift[0], dtype=np.complex128) for lift in lifts])
    stop = np.repeat([lift[4] for lift in lifts], np.diff(lo))
    slope, live = evaluate_array(dg, z), np.ones(len(z), dtype=bool)
    rows = [[z[a:b].copy()] for a, b in zip(lo, lo[1:])]
    # t = t0 + u (t1 - t0); dyadic steps end at u = 1 exactly.  at and ahead
    # hold path(t) and path(t_next): a step taken makes ahead the next at
    u, h, stalled = [0.0] * len(lifts), [1.0 / _LIFT_STEPS] * len(lifts), [None] * len(lifts)
    at, ahead = [None] * len(lifts), [None] * len(lifts)
    going = range(len(lifts))
    while going := [j for j in going
                    if not stalled[j] and u[j] < 1 and live[lo[j]:lo[j + 1]].any()]:
        on, dz, w, ts, first = [], [], [], [], [0]
        for j in going:
            _, path, t0, t1, _ = lifts[j]
            h[j] = min(h[j], 1 - u[j])
            t, t_next = t0 + u[j] * (t1 - t0), t0 + (u[j] + h[j]) * (t1 - t0)
            at[j], ahead[j] = at[j] or path(t), path(t_next)
            mine = np.flatnonzero(live[lo[j]:lo[j + 1]])
            dz.append(_at_paths(at[j][1] * (t_next - t), mine))
            w.append(_at_paths(ahead[j][0], mine))
            on.append(lo[j] + mine)
            ts.append(t)
            first.append(first[-1] + len(mine))
        on, w = np.concatenate(on), np.concatenate(w)
        dz = np.concatenate(dz) / slope[on]
        moved = z[on] + dz
        for _ in range(3):
            gz, new_slope = evaluate_arrays([g, dg], moved)
            with np.errstate(all="ignore"):
                err = (gz - w) / new_slope
            moved = moved - err
        ok = (np.abs(moved - z[on] - dz) < np.abs(dz) / 4) & (np.abs(err) <= 1e-6 * np.abs(dz))
        counts = [b - a for a, b in zip(first, first[1:])]
        took = np.logical_and.reduceat(ok, first[:-1]).repeat(counts)
        step = on[took]
        z[step], slope[step] = moved[took], new_slope[took]  # g' at the last corrector iterate
        live[step] = np.abs(z[step]) < stop[step]
        for j, t, k in zip(going, ts, first):
            if took[k]:
                u[j], at[j] = u[j] + h[j], ahead[j]
                rows[j].append(z[lo[j]:lo[j + 1]].copy())
                h[j] = min(2 * h[j], 1.0 / _LIFT_STEPS)
                continue
            h[j] /= 2
            if h[j] < _MIN_LIFT_STEP:
                stalled[j] = ResolutionError(f"path lifting stalled at t = {t!r}: refine the disk")
    return [stalled[j] or (np.array(rows[j]), live[lo[j]:lo[j + 1]]) for j in range(len(lifts))]


def _at_paths(value, paths):
    """A path value, an array over a lift's paths or one scalar for all of
    them, at the paths of index array `paths`."""
    return value[paths] if isinstance(value, np.ndarray) else np.full(len(paths), value)


# ---------------------------------------------------------------------------
# Island boundaries


def _chart(m, disk):
    """(g, c, C, R): f, or D/N of f = N/D when |c| > 1, with the centre c and
    the disk |w - C| < R: |w - c|^2 < k (1 + |w|^2), k = pi rho^2 (1 + |c|^2)."""
    g, c = m, disk.center
    if c is INF or abs(c) > 1:  # the chordal distance is invariant under w -> 1/w
        n, d = as_fraction(m)
        g = Div(d, n)
        c = 0j if c is INF else 1 / c
    k = math.pi * disk.radius**2 * (1 + abs(c) ** 2)
    return g, c, c / (1 - k), math.sqrt(k * (1 + abs(c) ** 2 - k)) / (1 - k)


def _branches(g, seeds, c, centre, radius):
    """Per branch of the segments from c to b, a point of the disk's boundary
    circle in the chart (_chart): its seed z0 and start direction;
    and the segment and the circle as paths t -> (w, dw/dt)."""
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

    def segment(s):
        return c + s**k * (b - c), k * s ** (k - 1) * (b - c)

    def circle(t):
        arm = (b - centre) * np.exp(2j * np.pi * t)
        return centre + arm, 2j * np.pi * arm

    return z0, ((b - c) / a) ** (1 / k) * turn, segment, circle


def lift_boundaries(g, dg, disks):
    """For each disk (seeds, c, centre, radius, ring) in the chart of g,
    where g - c has the zeros `seeds` (Root records) inside the ring and
    the disk is |w - centre| < radius: the seed of each lift of the
    segments from c to b (_branches) that stays inside the ring, and the
    lifts of the boundary circle from their end points (rows and alive mask
    of lift_paths, if any), or the ResolutionError of a stalled lift.  The
    starts of all disks, then their segments, then their circles are
    lifted in one array pass each, each disk in its own lockstep."""
    z0, direction, segment, circle = zip(*[_branches(g, *disk[:4]) for disk in disks])
    ring = [disk[4] for disk in disks]
    # s0 = 0.01 unless a critical value near c puts a start off its branch:
    # then three Newton steps towards w(s0) move it by a quarter of its
    # distance from the seed or more, and s0 shrinks tenfold, to 1e-6 at most
    starts, pending = [None] * len(disks), range(len(disks))
    for s0 in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        start = [z0[k] + s0 * direction[k] for k in pending]
        moved = np.concatenate(start)
        w = np.concatenate([segment[k](s0)[0] for k in pending])
        with np.errstate(all="ignore"):
            for _ in range(3):
                gz, dgz = evaluate_arrays([g, dg], moved)
                moved = moved - (gz - w) / dgz
        moved = np.split(moved, np.cumsum([len(z) for z in start])[:-1])
        for k, begin, end in zip(pending, start, moved):
            if np.all(np.abs(end - begin) < np.abs(begin - z0[k]) / 4) or s0 == 1e-6:
                starts[k] = begin, segment[k], s0, 1.0, ring[k]
        if not (pending := [k for k in pending if starts[k] is None]):
            break
    out, circles = [], []
    for k, lift in enumerate(lift_paths(g, dg, starts)):
        if isinstance(lift, ResolutionError):
            out.append(lift)
            continue
        rows, alive = lift
        out.append((z0[k][alive],))
        if alive.any():
            circles.append((k, (rows[-1][alive], circle[k], 0.0, 1.0, ring[k])))
    if circles:
        for (k, _), lift in zip(circles, lift_paths(g, dg, [path for _, path in circles])):
            out[k] = lift if isinstance(lift, ResolutionError) else out[k] + lift
    return out


def cycle_components(rows, alive, tol):
    """Components bounded by lifts (rows and alive mask of lift_paths) that
    land on one another's starts rows[0]: a live lift lands on the start
    nearest its end if within tol(that start), else it is -1, as is a dead
    lift; two lifts landing on one start raise ResolutionError.  Each cycle
    of the landings, walked from its least lift, is a closed curve; a
    clockwise one is a hole of the smallest counterclockwise one around
    it.  Per counterclockwise curve, in the order of its least lift: its
    lifts and closed polyline, its holes' polylines, its degree (the lifts
    of both) and chi = 1 - #holes."""
    starts = rows[0]
    dist = np.abs(rows[-1][:, None] - starts[None, :])
    nxt = dist.argmin(axis=1)
    nxt[~alive | (dist.min(axis=1) > tol(starts[nxt]))] = -1
    if len(set(nxt[nxt >= 0])) < np.count_nonzero(nxt >= 0):
        raise ResolutionError("two lifts of the disk boundary land on one point")
    curves = []  # (lifts, closed polyline) of each cycle
    for j in range(len(starts)):
        walk = [j]
        while nxt[walk[-1]] > j:
            walk.append(nxt[walk[-1]])
        if nxt[walk[-1]] == j:
            curves.append((walk, np.concatenate([rows[:-1, i] for i in walk] + [starts[j:j + 1]])))
    areas = [_polygon_area(loop) for _, loop in curves]
    holes = {j: [] for j, area in enumerate(areas) if area > 0}
    for j, area in enumerate(areas):
        around = [o for o in holes if area < 0 and _encloses(curves[o][1], curves[j][1][0])]
        if around:
            holes[min(around, key=areas.__getitem__)].append(j)
    return [(*curves[o], [curves[j][1] for j in inner], sum(len(curves[j][0]) for j in [o, *inner]),
             1 - len(inner)) for o, inner in holes.items()]


def _encloses(loop, z):
    """Whether the closed polyline `loop` winds around z."""
    return abs(np.angle((loop[1:] - z) / (loop[:-1] - z)).sum()) > math.pi


def _polygon_area(points):
    x, y = points.real, points.imag
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
