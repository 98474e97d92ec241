"""Preimage counting, islands, covering degrees and ramification.

Every count here is a winding number by the argument principle, and one
helper computes them all (_windings): it winds f along every loop of a
path t -> z(t) around many targets at once.  Two kinds of path occur: the
circle |z| = r with t = theta, and polygons, one or many closed loops,
with t = edge index + fraction.  The path is sampled with f and f'; an arc
is bisected where |f'| changes by more than 2x, and wherever a target lies
in the arc's bound ball (about f at its start, radius max(chord, 2 * step *
|z'(t)| |f'|)).  Arcs never straddle a polygon corner.  The windings then
come from one vectorized crossing-number pass over the sampled polylines.
Band rule: a target still inside a ball whose arc cannot shrink below the
root-on-path scale (radius about 3e-7 |z'(t)| |f'|) is undecided.

- count_preimages_many: n(r, p) = wind(f(|z| = r), p) + P(r), where P(r)
  counts the poles of f in |z| < r with their order.  Undecided targets go
  to count_preimages, which raises RootOnCircleError if the root is on the
  circle.  Counts are distinct roots; they equal the winding count except
  at critical values, which random targets miss.
- find_roots (and count_preimages): subdivision of the disk's bounding
  square, level by level, winding the entire function g = N - p D of
  f = N/D around 0 along every cell of a level in one _windings pass.  A
  cell of winding 0 holds no root and is discarded; a split with an
  undecided cell is cut again off-centre in the next pass.  A cell of
  winding 1 <= w <= _MOMENT_MAX takes its zeros from contour moments
  (Delves & Lyness): Gauss-Legendre on its sides gives the power sums of
  its zeros, Newton's identities their polynomial, and its roots, the
  copies of a multiple zero clustered, the distinct zeros with their
  multiplicities.  A simple zero is polished by Newton's iteration; a
  multiple zero must be counted whole on a small square about it.  The
  order of f - p at a zero that D shares comes from D's moments on the
  same nodes.  A cell whose zeros fail is split, as is one of larger w.
  find_roots_many takes many (map, target, radius) queries: those of one
  root target g run their levels in lockstep, one _windings and one
  _cell_roots pass per level over the cells of all of them, each query
  keeping its own rules, so each gets its find_roots result or error bit
  for bit.  find_roots is its one-query call.
- find_islands: an island holds a preimage of its disk's centre and is
  bounded by lifts of the disk's boundary circle from there
  (lifting.lift_boundaries); the cycles of their landings are its
  boundary curves (lifting.cycle_components).  island_scans finds the
  islands of many (disk, radius) pairs at once: their seeds come from one
  find_roots_many call, and the lifts of all pairs with one chart map
  share array passes, each pair in its own lockstep, so each pair's
  islands, or its error, are those of its own find_islands call bit for
  bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from coverlab.expr import (
    INF,
    Const,
    Mul,
    Sub,
    as_fraction,
    differentiate,
    evaluate,
    evaluate_array,
    evaluate_arrays,
    pole_free,
)
from coverlab.lifting import ResolutionError, _chart, cycle_components, lift_boundaries
from coverlab.metric import _gauss_legendre, sample_sphere_uniform, sphere_point

_SPLIT_FRACTIONS = (0.5, 0.53, 0.4617)
_INFLATIONS = (1e-6, 7.3e-4)  # bounding-square margins, relative to r
_ISOLATION_REL = 1e-5  # root cells this small, relative to r, are isolated
_MAX_CELLS = 60_000  # root-finder cell budget
_MOMENT_MAX = 6  # a cell of winding up to this takes its zeros from contour moments
_QUAD_NODES, _QUAD_WEIGHTS = _gauss_legendre(  # the 20-point rule of a moment panel
    [0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
     0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
     0.9639719272779138, 0.993128599185095],
    [0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
     0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
     0.040601429800386446, 0.017614007139150893],
)
_QUAD_TOL = 1e-10  # a panel is done when its moments change less than this on halving
_QUAD_ROUNDS = 30  # panel halvings, down to 2^-30 of a cell side
_QUAD_PANELS = 64  # undone panels of a cell, beyond which rounding noise is taken to stop them
_CLUSTER = 1e-2  # moment zeros this close, relative to the cell's half-width, are one


class WindingError(ArithmeticError):
    """Contour refinement did not finish within its budget."""


class ContourPassesThroughRoot(ArithmeticError):
    """A root or a pole sits (numerically) on the contour."""


class RootOnCircleError(ArithmeticError):
    """A preimage sits on |z| = r within tolerance; perturb the radius."""


@dataclass(frozen=True)
class Root:
    location: complex
    multiplicity: int


# ---------------------------------------------------------------------------
# Contour winding

_CIRCLE_SAMPLES = 256
_BALL_SAFETY = 2.0  # |f'| on an arc is at most this times its larger end value
_BAND = 3e-7  # undecided band in units of |z'(t)| |f'|: the image of the 1e-7 r test
_MIN_STEP = _BAND / _BALL_SAFETY  # arcs this short are not split further
_MAX_CURVE_POINTS = 400_000
_CHUNK = 1 << 16  # (segment, target) pairs per numpy pass


class _Circle(NamedTuple):
    """The circle |z| = r, with t = theta."""

    r: float

    def start(self):
        """Initial arcs: their start parameters, common step, and the index
        of each arc's end among the starts."""
        step = 2 * math.pi / _CIRCLE_SAMPLES
        return step * np.arange(_CIRCLE_SAMPLES), step, np.roll(np.arange(_CIRCLE_SAMPLES), -1)

    def point(self, t):
        return self.r * np.exp(1j * t)

    def scale(self, t):
        """|z'(t)| on the arcs starting at t."""
        return self.r

    def loop(self, t):
        """Loop index of the arcs starting at t."""
        return np.zeros(len(t), dtype=int)


class _Polygon(NamedTuple):
    """Closed polygons, one per loop, with t = global edge index + fraction.

    Edge k runs from corners[k] to corners[nxt[k]], so every loop closes on
    its own first corner.  One initial arc per edge, so no arc straddles a
    corner.  t - k is exact: the fractions are dyadic down to 2^-23, and
    k < 24 _MAX_CELLS < 2^30.
    """

    corners: np.ndarray
    nxt: np.ndarray
    loops: np.ndarray  # loop index of each edge

    def start(self):
        return np.arange(len(self.corners), dtype=float), 1.0, self.nxt

    def edge(self, k):
        return self.corners[self.nxt[k]] - self.corners[k]

    def point(self, t):
        k = t.astype(int)
        return self.corners[k] + (t - k) * self.edge(k)

    def scale(self, t):
        return np.abs(self.edge(t.astype(int)))

    def loop(self, t):
        return self.loops[t.astype(int)]


def _rects(boxes):
    """Counterclockwise boundaries of the rectangles (x0, x1, y0, y1) in
    `boxes`, one loop each, six edges a side.  Corner k of a side a -> b is
    a + (b - a) k / 6, in each coordinate."""
    x0, x1, y0, y1 = np.asarray(boxes, dtype=float).reshape(-1, 4).T[:, :, None, None]
    ax, bx = np.concatenate([x0, x1, x1, x0], 1), np.concatenate([x1, x1, x0, x0], 1)
    ay, by = np.concatenate([y0, y0, y1, y1], 1), np.concatenate([y0, y1, y1, y0], 1)
    k = np.arange(6)
    corners = np.empty((len(ax), 4, 6), dtype=np.complex128)
    corners.real = ax + (bx - ax) * k / 6
    corners.imag = ay + (by - ay) * k / 6
    n = corners.size
    nxt = np.arange(1, n + 1)
    nxt[23::24] -= 24
    return _Polygon(corners.ravel(), nxt, np.arange(n) // 24)


def _sample(m, dm, path, t):
    """f and |f'| at the path points of parameters t.  A value that is not
    finite is a pole on or next to the path, or overflow if f has no poles
    (expr.pole_free)."""
    zs = path.point(t)
    w, dw = evaluate_arrays([m, dm], zs)
    dabs = np.abs(dw)
    if not (np.isfinite(w).all() and np.isfinite(dabs).all()):
        if pole_free(m):
            z = complex(zs[~(np.isfinite(w) & np.isfinite(dabs))][0])
            raise OverflowError(f"f overflows on the contour near z = {z!r}")
        raise ContourPassesThroughRoot("pole of f on or next to the contour")
    return w, dabs


class _Arcs(NamedTuple):
    """Arcs [t, t + step] of a path with f and |z'(t)| |f'| at both ends."""

    t: np.ndarray
    step: np.ndarray
    wa: np.ndarray
    wb: np.ndarray
    sa: np.ndarray
    sb: np.ndarray

    def take(self, idx):
        return _Arcs(*(a[idx] for a in self))

    def join(self, other):
        return _Arcs(*(np.concatenate([a, b]) for a, b in zip(self, other)))

    def bisect(self, m, dm, path):
        """Children of every arc: all left halves, then all right halves."""
        half = self.step / 2
        wm, dabs = _sample(m, dm, path, self.t + half)
        sm = path.scale(self.t) * dabs
        left = _Arcs(self.t, half, self.wa, wm, self.sa, sm)
        return left.join(_Arcs(self.t + half, half, wm, self.wb, sm, self.sb))

    def trusted(self):
        """|f'| changes by at most 2x, so its end values bound it on the arc."""
        return np.maximum(self.sa, self.sb) <= 2 * np.minimum(self.sa, self.sb)

    def radius(self):
        """Radius of a ball about f(start) holding the arc's image and chord."""
        speed = np.maximum(self.sa, self.sb)
        return np.maximum(
            np.abs(self.wb - self.wa), np.maximum(_BALL_SAFETY * self.step, _BAND) * speed
        )


def _ball_pairs(arcs, targets):
    """(arc, target) index pairs with the target inside the arc's ball."""
    radius = arcs.radius()
    rows = max(1, _CHUNK // len(targets))
    arc_idx, tgt_idx = [], []
    for lo in range(0, len(radius), rows):
        dist = np.abs(targets[None, :] - arcs.wa[lo:lo + rows, None])
        a, t = np.nonzero(dist < radius[lo:lo + rows, None])
        arc_idx.append(a + lo)
        tgt_idx.append(t)
    return np.concatenate(arc_idx), np.concatenate(tgt_idx)


def _image_polygon(m, dm, path, targets):
    """Closed polylines for f along the loops of `path`, and the (loop,
    target) pairs they cannot decide.

    Each arc's ball holds both its image and its chord, so a target outside
    the balls of some ancestor of every final arc has the same winding for
    polyline and curve.  Arcs are bisected where |f'| changes by more than
    2x, then wherever their ball holds a target.  A target still inside a
    ball whose arc is down to _MIN_STEP (radius _BAND |z'(t)| |f'|) is
    undecided.  Each loop refines on its own, within _MAX_CURVE_POINTS
    points.  Returns the vertices, loop after loop, their loop indices and
    the (loop, target) undecided mask.
    """
    t, step, nxt = path.start()
    n_loops = path.loop(t)[-1] + 1

    def over_budget(points, t):
        """Whether a loop of the arcs starting at t has more than
        _MAX_CURVE_POINTS points, given the per-loop counts `points`."""
        return (points[path.loop(t)] > _MAX_CURVE_POINTS).any()

    w, dabs = _sample(m, dm, path, t)
    scale = path.scale(t)
    arcs = _Arcs(t, np.full_like(t, step), w, w[nxt], scale * dabs, scale * dabs[nxt])
    while True:
        split = ~arcs.trusted() & (arcs.step > _MIN_STEP)
        if not split.any():
            break
        if over_budget(np.bincount(path.loop(arcs.t), minlength=n_loops), arcs.t[split]):
            raise WindingError("contour refinement budget exceeded")
        arcs = arcs.take(~split).join(arcs.take(split).bisect(m, dm, path))
    params, values = [arcs.t], [arcs.wa]
    n_points = np.bincount(path.loop(arcs.t), minlength=n_loops)
    undecided = np.zeros((n_loops, len(targets)), dtype=bool)
    arc_idx, tgt_idx = _ball_pairs(arcs, targets)
    while True:
        floor = arcs.step[arc_idx] <= _MIN_STEP
        undecided[path.loop(arcs.t[arc_idx[floor]]), tgt_idx[floor]] = True
        arc_idx, tgt_idx = arc_idx[~floor], tgt_idx[~floor]
        if not arc_idx.size:
            break
        if over_budget(n_points, arcs.t[arc_idx]):
            raise WindingError("contour refinement budget exceeded")
        parents, inverse = np.unique(arc_idx, return_inverse=True)
        arcs = arcs.take(parents).bisect(m, dm, path)
        n = len(parents)
        params.append(arcs.t[n:])
        values.append(arcs.wa[n:])
        n_points += np.bincount(path.loop(arcs.t[n:]), minlength=n_loops)
        arc_idx = np.concatenate([inverse, inverse + n])
        tgt_idx = np.concatenate([tgt_idx, tgt_idx])
        inside = np.abs(targets[tgt_idx] - arcs.wa[arc_idx]) < arcs.radius()[arc_idx]
        keep = inside | ~arcs.trusted()[arc_idx]
        arc_idx, tgt_idx = arc_idx[keep], tgt_idx[keep]
    t = np.concatenate(params)
    order = np.argsort(t, kind="stable")
    return np.concatenate(values)[order], path.loop(t[order]), undecided


def _windings(m, dm, path, targets):
    """Winding numbers of f along each loop of `path` around each target,
    and a mask of the (loop, target) pairs in the undecided band (their
    winding is meaningless); both are arrays of shape (loops, targets).

    The winding of the sampled polyline comes from the crossing rule of
    Hormann & Agathos: an edge going up past a target's height with the
    target on its left adds 1, one going down with the target on its right
    subtracts 1.  Targets are sorted by height, so each edge meets only the
    targets in its height range.
    """
    vertices, loop, undecided = _image_polygon(m, dm, path, targets)
    # each vertex's edge ends at the next vertex of its loop, a loop's last at its first
    nxt = np.arange(1, len(loop) + 1)
    nxt[np.flatnonzero(np.diff(loop, append=-1))] = np.flatnonzero(np.diff(loop, prepend=-1))
    start, end = vertices, vertices[nxt]
    order = np.argsort(targets.imag)
    heights = targets.imag[order]
    lo = np.searchsorted(heights, np.minimum(start.imag, end.imag))
    hits = np.searchsorted(heights, np.maximum(start.imag, end.imag)) - lo
    bounds = np.concatenate([[0], np.cumsum(hits)])
    wind = np.zeros(undecided.size)
    e0 = 0
    while e0 < len(hits):
        e1 = max(e0 + 1, int(np.searchsorted(bounds, bounds[e0] + _CHUNK, "right")) - 1)
        edge = np.repeat(np.arange(e0, e1), hits[e0:e1])
        first = np.repeat(bounds[e0:e1] - bounds[e0] - lo[e0:e1], hits[e0:e1])
        tgt = order[np.arange(len(edge)) - first]
        a, b, p = start[edge], end[edge], targets[tgt]
        side = (b.real - a.real) * (p.imag - a.imag) - (p.real - a.real) * (b.imag - a.imag)
        up = b.imag > a.imag
        sign = (up & (side > 0)).astype(float) - (~up & (side < 0))
        wind += np.bincount(loop[edge] * len(targets) + tgt, weights=sign, minlength=wind.size)
        e0 = e1
    return np.rint(wind).astype(int).reshape(undecided.shape), undecided


# ---------------------------------------------------------------------------
# Root finding


def _newton_polish(m, dm, z0, cell_size):
    """Newton's iteration for a simple zero of m from z0; None unless it
    converges in 40 steps without leaving the disk of 3 cell sizes about z0."""
    z = complex(z0)
    for _ in range(40):
        try:
            fz = evaluate(m, z)
            dz = evaluate(dm, z)
        except ArithmeticError:
            return None
        if not isinstance(fz, complex) or not isinstance(dz, complex):
            return None
        if fz == 0:
            return z
        if dz == 0:
            return None
        step = fz / dz
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            return None
        z -= step
        if abs(z - z0) > 3.0 * cell_size:
            return None
        if abs(step) < 1e-13 * (1.0 + abs(z)):
            return z
    return None


def _root_target(m, p):
    """(g, den) with f - p = g / den (1/f = g / den for p at infinity), both
    pole-free: g = N - p D and den = D for f = N/D, or g = D and den = N at
    infinity.  The cell scheme finds the zeros of g, so cell windings are
    always >= 0; the order of f - p at a zero of g is its order there less
    den's, which is positive except at a zero they share.
    """
    p = sphere_point(p)
    n_f, d_f = as_fraction(m)
    if p is INF:
        return d_f, n_f
    return (n_f if p == 0 else Sub(n_f, Mul(Const(p), d_f))), d_f


def find_roots(m, p, r):
    """Distinct solutions of f(z) = p with |z| < r (plus boundary guard): the
    one-query call of find_roots_many, raising that query's error.

    Square cells of the bounding square are wound around 0 by the entire
    function g = N - p D (D for p at infinity), one _windings pass for all
    the cells of a subdivision level.  A cell of winding 0 holds no root and
    is dropped.  A cell of winding 1 <= w <= _MOMENT_MAX takes its zeros and
    their multiplicities from the contour moments of g'/g (_cell_roots); a
    cell of larger winding, or whose zeros fail there, is split in four for
    the next level.  A split with an undecided cell (a root on a split line)
    is cut at the next of _SPLIT_FRACTIONS in the next pass, and the
    bounding square at the next of _INFLATIONS.  A cell down to the
    isolation scale 1e-5 r whose zeros fail is one root of multiplicity w
    (_isolated_root).  Roots within 2e-5 r of each other are merged.
    Returns Root records (location, multiplicity), sorted by (real, imag).
    A root within 1e-7 * r of the circle |z| = r raises RootOnCircleError.
    At a zero that g shares with the other half of f (D, or N for p at
    infinity) the multiplicity is the order of f - p (of 1/f for p at
    infinity).
    """
    (roots,) = find_roots_many([(m, p, r)])
    if isinstance(roots, Exception):
        raise roots
    return roots


def find_roots_many(queries):
    """find_roots for each query (m, p, r): its Root list, or the error its
    own find_roots call raises.  The queries of one root target (g, den) of
    _root_target, equal trees being one target, search in lockstep
    (_lockstep_roots): one _windings pass and one _cell_roots pass per
    subdivision level over the cells of all of them.  Every rule stays per
    query, so each query's roots are those of its own call, bit for bit.
    An error raised inside a shared pass (a pole on a cell side, a
    refinement budget) reruns that target's queries one at a time."""
    out, targets = [None] * len(queries), {}
    for k, (m, p, r) in enumerate(queries):
        try:
            targets.setdefault(_root_target(m, p), []).append(k)
        except (ValueError, ArithmeticError) as exc:
            out[k] = exc
    for (g, den), ks in targets.items():
        try:
            found = _lockstep_roots(g, den, [queries[k][2] for k in ks])
        except (ValueError, ArithmeticError) as exc:
            found = [exc] if len(ks) == 1 else [find_roots_many([queries[k]])[0] for k in ks]
        for k, roots in zip(ks, found):
            out[k] = roots
    return out


def _lockstep_roots(g, den, radii):
    """find_roots' search for the zeros of g in |z| < r for every r of
    `radii`, each level of all of them in one _windings and one _cell_roots
    pass: per r, its Root list or the error its own rules raise (the cell
    budget, a root on the cuts, a root on the circle).  An error of a shared
    pass propagates."""
    dg = differentiate(g)
    den = None if isinstance(den, Const) else (den, differentiate(den))
    isolation = [max(_ISOLATION_REL * r, 1e-12) for r in radii]
    out = [None] * len(radii)  # each r's error
    # per r: Root(location, order of f - p); the order is <= 0 at a shared zero
    found = [[] for _ in radii]
    # a split (cell, attempt) cuts the cell at _SPLIT_FRACTIONS[attempt]; the
    # split of no cell is the bounding square, inflated by _INFLATIONS[attempt]
    splits, wound = [[(None, 0)] for _ in radii], [0] * len(radii)
    while any(splits):
        groups = [[_children(cell, attempt, r) for cell, attempt in split]
                  for split, r in zip(splits, radii)]
        for q, group in enumerate(groups):
            wound[q] += sum(map(len, group))
            if wound[q] > _MAX_CELLS:
                out[q] = WindingError("cell subdivision budget exceeded")
                splits[q], groups[q] = [], []
        boxes = [box for group in groups for children in group for box in children]
        if not boxes:
            continue
        wind, undecided = _windings(g, dg, _rects(boxes), np.zeros(1, dtype=np.complex128))
        cells, owner, k = [], [], 0
        for q, group in enumerate(groups):
            n = sum(map(len, group))
            try:
                splits[q], wound_cells = _wound_cells(splits[q], group, wind[k:k + n, 0],
                                                      undecided[k:k + n, 0])
            except (WindingError, ContourPassesThroughRoot) as exc:
                out[q], splits[q], wound_cells = exc, [], []
            k += n
            cells += [(box, w, 2 * isolation[q]) for box, w in wound_cells]
            owner += [q] * len(wound_cells)
        for q, (cell, w, _), roots in zip(owner, cells, _cell_roots(g, dg, den, cells)):
            x0, x1, y0, y1 = cell
            if roots is not None:
                found[q] += roots
            elif max(x1 - x0, y1 - y0) > isolation[q]:
                splits[q].append((cell, 0))
            else:
                found[q].append(_isolated_root(g, dg, den, cell, w))
    return [out[q] or _merged(found[q], isolation[q], r) for q, r in enumerate(radii)]


def _wound_cells(splits, groups, wind, undecided):
    """One query's splits of a level, and the windings of their children
    `groups`: the splits to cut again and the cells (box, w) of winding
    w > 0; a split undecided at its last attempt raises."""
    pending, cells, k = [], [], 0
    for (cell, attempt), group in zip(splits, groups):
        windings, unsure = wind[k:k + len(group)].tolist(), undecided[k:k + len(group)]
        k += len(group)
        if unsure.any():  # a root on a split line or on the square: cut elsewhere
            if attempt + 1 < len(_INFLATIONS if cell is None else _SPLIT_FRACTIONS):
                pending.append((cell, attempt + 1))
                continue
            if cell is None:
                raise ContourPassesThroughRoot("root on the contour")
            raise WindingError("could not avoid a root on subdivision lines")
        cells += [(box, w) for box, w in zip(group, windings) if w > 0]
    return pending, cells


def _merged(found, isolation, r):
    """The roots `found` with those closer than the isolation scale merged,
    inside |z| < r, or the RootOnCircleError of one within 1e-7 r of it."""
    merged = []
    for root in sorted(found, key=lambda rt: (rt.location.real, rt.location.imag)):
        for k, other in enumerate(merged):
            if abs(other.location - root.location) <= 2 * isolation:
                merged[k] = Root(other.location, other.multiplicity + root.multiplicity)
                break
        else:
            merged.append(root)
    for root in merged:
        if abs(abs(root.location) - r) < 1e-7 * r:
            return RootOnCircleError(f"preimage at {root.location!r} lies on |z| = {r}; perturb r")
    return [root for root in merged if abs(root.location) < r and root.multiplicity > 0]


def _children(cell, attempt, r):
    """The cells of a split: `cell` cut in four at _SPLIT_FRACTIONS[attempt],
    or for cell None the bounding square of |z| < r inflated by
    _INFLATIONS[attempt] relative to r."""
    if cell is None:
        R = r * (1 + _INFLATIONS[attempt])
        return [(-R, R, -R, R)]
    x0, x1, y0, y1 = cell
    frac = _SPLIT_FRACTIONS[attempt]
    xm = x0 + frac * (x1 - x0)
    ym = y0 + frac * (y1 - y0)
    return [(x0, xm, y0, ym), (xm, x1, y0, ym), (x0, xm, ym, y1), (xm, x1, ym, y1)]


def _panel_moments(f, df, a, b, centre, half):
    """Gauss-Legendre values of the integrals of x^k f'/f dz / (2 pi i),
    k <= _MOMENT_MAX, x = (z - centre) / half, along the segments a -> b:
    one row per segment."""
    z = a[:, None] + (b - a)[:, None] * (1 + _QUAD_NODES) / 2
    x = (z - centre[:, None]) / half[:, None]
    s = np.empty((len(a), _MOMENT_MAX + 1), dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.divide(*evaluate_arrays([df, f], z))
        q = q * (b - a)[:, None] * (_QUAD_WEIGHTS / (4j * math.pi))
        for k in range(_MOMENT_MAX + 1):
            s[:, k] = q.sum(axis=1)
            q = q * x
    return s


def _moments(f, df, cells, noise_limit=1e-6):
    """Power sums s[c, k], k <= _MOMENT_MAX, of the zeros of f in each cell
    (x0, x1, y0, y1), in the unit x = (z - centre) / half-width: the
    integrals of x^k f'/f dz / (2 pi i) around the cell, so s[c, 0] counts
    them.  Each side is a panel at first.  A panel whose Gauss-Legendre
    value differs from the sum of its halves' by more than _QUAD_TOL is
    replaced by its halves, all cells' panels in one evaluation per round,
    so a zero near a side costs panels only there.  Rounding noise in f'/f
    leaves every panel undone: a cell with more than _QUAD_PANELS undone
    panels takes their halves' values as they are, and its row is NaN if
    they differ from the panels' by more than `noise_limit` in all.  A row is
    also NaN where f'/f is not finite at a node, or whose panels are not
    done in _QUAD_ROUNDS."""
    cells = np.asarray(cells, dtype=float).reshape(-1, 4)
    corners = np.empty((len(cells), 4), dtype=np.complex128)
    corners.real = cells[:, [0, 1, 1, 0]]
    corners.imag = cells[:, [2, 2, 3, 3]]
    centre = corners.mean(axis=1)
    half = np.maximum(cells[:, 1] - cells[:, 0], cells[:, 3] - cells[:, 2]) / 2
    cell = np.repeat(np.arange(len(cells)), 4)
    a, b = corners.ravel(), np.roll(corners, -1, axis=1).ravel()
    s = np.zeros((len(cells), _MOMENT_MAX + 1), dtype=np.complex128)
    noise = np.zeros(len(cells))
    coarse = None  # the panels' own values, taken with their halves' in the first round
    for _ in range(_QUAD_ROUNDS):
        if not len(a):
            break
        m = (a + b) / 2
        parts = 2 if coarse is not None else 3
        values = _panel_moments(
            f, df, np.concatenate([a, m, a][:parts]), np.concatenate([m, b, b][:parts]),
            np.tile(centre[cell], parts), np.tile(half[cell], parts),
        )
        left, right = values[:len(a)], values[len(a):2 * len(a)]
        coarse = values[2 * len(a):] if coarse is None else coarse
        with np.errstate(invalid="ignore"):
            fine = left + right
            change = np.abs(fine - coarse).max(axis=1)
        undone = ~(change <= _QUAD_TOL)  # also where NaN
        crowded = np.bincount(cell[undone], minlength=len(cells)) > _QUAD_PANELS
        np.add.at(s, cell, np.where(undone[:, None] & ~crowded[cell, None], 0, fine))
        np.add.at(noise, cell[crowded[cell]], change[crowded[cell]])
        split = undone & ~crowded[cell]
        a, b = np.concatenate([a[split], m[split]]), np.concatenate([m[split], b[split]])
        cell = np.tile(cell[split], 2)
        coarse = np.concatenate([left[split], right[split]])
    with np.errstate(invalid="ignore"):
        s[~(noise <= noise_limit)] = np.nan
    s[cell] = np.nan
    return s


def _moment_zeros(s, n):
    """Distinct zeros, in x, and their multiplicities from the power sums
    s[1..n] of n zeros: Newton's identities give the monic polynomial of the
    n zeros, numpy.roots its roots, and roots closer than _CLUSTER, which is
    how far rounding splits the copies of a multiple zero, are one zero at
    their mean."""
    e = [1.0]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i] for i in range(1, k + 1)) / k)
    clusters = []
    for x in np.roots([(-1) ** k * c for k, c in enumerate(e)]):
        near = [c for c in clusters if min(abs(x - y) for y in c) < _CLUSTER]
        clusters = [c for c in clusters if c not in near] + [[x] + sum(near, [])]
    return [(complex(sum(c) / len(c)), len(c)) for c in clusters]


def _count(s, tol=1e-6):
    """The number of zeros s[0] of a row of _moments, or None if it is no
    integer to `tol` (or NaN)."""
    n = s[0].real.round()
    return int(n) if abs(s[0] - n) <= tol else None


def _polished_zeros(f, df, cell, s, n):
    """(location, multiplicity, x) of the n zeros of f in `cell` from their
    power sums s (_moments), x as _moment_zeros gives it; None if a polish
    fails.  A simple zero is polished by Newton's iteration from x, which
    must converge in the cell.  A multiple zero stays at x: the rounding
    noise of f about it, which a polish would wander in, does not move the
    moments taken on the cell's far boundary."""
    x0, x1, y0, y1 = cell
    centre = complex((x0 + x1) / 2, (y0 + y1) / 2)
    half = max(x1 - x0, y1 - y0) / 2
    zeros = []
    for x, mult in _moment_zeros(s, n):
        z = centre + half * x if mult > 1 else _newton_polish(f, df, centre + half * x, 2 * half)
        if z is None or not (x0 < z.real < x1 and y0 < z.imag < y1):
            return None
        zeros.append((z, mult, x))
    return zeros


def _cell_roots(g, dg, den, cells):
    """Root records (location, order of f - p) of the zeros of g in each
    cell (box, w, merge) on which g winds w times, or None where they fail.

    A cell of winding up to _MOMENT_MAX takes its zeros from the moments of
    g'/g on its boundary (_moments, all cells at once).  A zero next to a
    side, or rounding noise of g there, spoils them: then they are taken on
    the cell widened by a quarter of its half-width.  The zeros found in the
    cell must number w.  A simple zero is one to which Newton's iteration
    converges in the cell, apart from the others: w of them are all that
    the winding leaves.  A multiple zero must be one zero, not a cluster of
    simpler ones the moments cannot part: the first of the squares about
    it, growing 4x from the cell's merge distance to as large as lies in
    the cell apart from the other zeros, on which the rounding noise of g
    leaves a count must count all of it.  The order of f - p at a zero comes from
    den's moments on the same nodes: a zero of den whose moment location is
    within 1e-9 of g's takes its multiplicity off, and a multiple one must
    count whole on the same squares, as a multiple zero of g must.
    """
    result = [None] * len(cells)
    small = [k for k, (_, w, _) in enumerate(cells) if w <= _MOMENT_MAX]
    if not small:
        return result
    contours = [cells[k][0] for k in small]
    moments = _moments(g, dg, contours)
    retry = [j for j, k in enumerate(small) if _count(moments[j]) != cells[k][1]]
    if retry:
        for j in retry:
            x0, x1, y0, y1 = contours[j]
            margin = max(x1 - x0, y1 - y0) / 8
            contours[j] = (x0 - margin, x1 + margin, y0 - margin, y1 + margin)
        moments[retry] = _moments(g, dg, [contours[j] for j in retry])
    den_moments = _moments(*den, contours) if den else np.zeros_like(moments)
    zooms = ([], [])  # of g and den: (cell, multiplicity, the squares about a multiple zero)
    for k, contour, s, s_den in zip(small, contours, moments, den_moments):
        (x0, x1, y0, y1), w, merge = cells[k]
        n, n_den = _count(s), _count(s_den)
        if None in (n, n_den) or max(n, n_den) > _MOMENT_MAX:
            continue
        zeros = _polished_zeros(g, dg, contour, s, n)
        if zeros is None:
            continue
        zeros = [zero for zero in zeros if x0 < zero[0].real < x1 and y0 < zero[0].imag < y1]
        if sum(mult for _, mult, _ in zeros) != w:
            continue
        poles = _moment_zeros(s_den, n_den) if n_den else []
        half = max(x1 - x0, y1 - y0) / 2
        roots = []
        for j, (z, mult, x) in enumerate(zeros):
            apart = min([abs(z - other[0]) for i, other in enumerate(zeros) if i != j],
                        default=math.inf)
            side = min(z.real - x0, x1 - z.real, z.imag - y0, y1 - z.imag, 0.7 * apart) / 2
            if side < 1e-9 * half:
                break
            shared = sum(m for pole, m in poles if abs(pole - x) <= 1e-9)
            if max(mult, shared) > 1:
                sides = [merge * 4**i for i in range(30) if merge * 4**i < side] + [side]
                squares = [(z.real - h, z.real + h, z.imag - h, z.imag + h) for h in sides]
                for checks, fold in zip(zooms, (mult, shared)):
                    if fold > 1:
                        checks.append((k, fold, squares))
            roots.append(Root(z, mult - shared))
        else:
            result[k] = roots
    for pair, checks in zip(((g, dg), den), zooms):
        if not checks:
            continue
        # each check's smallest square first, the rest only where its noise leaves no count
        firsts = [_count(s, 1e-2) for s in _moments(*pair, [sq[0] for _, _, sq in checks], 1e-3)]
        rest = [squares[1:] if n is None else [] for (_, _, squares), n in zip(checks, firsts)]
        squares = [square for squares in rest for square in squares]
        counts = [_count(s, 1e-2) for s in _moments(*pair, squares, 1e-3)]
        for (k, mult, _), n, squares in zip(checks, firsts, rest):
            first = next((c for c in [n] + counts[:len(squares)] if c is not None), None)
            counts = counts[len(squares):]
            if first != mult:
                result[k] = None
    return result


def _isolated_root(g, dg, den, cell, w):
    """Root for a cell down to the isolation scale on which g winds w times:
    at the mean of its zeros by their moments, or at its centre if that
    mean is not in the cell.  Its order is w less the count of den's zeros
    in the cell, where the moments give one."""
    x0, x1, y0, y1 = cell
    s = _moments(g, dg, [cell])[0]
    z = complex((x0 + x1) / 2, (y0 + y1) / 2) + max(x1 - x0, y1 - y0) / 2 * complex(s[1]) / w
    if not (x0 < z.real < x1 and y0 < z.imag < y1):  # also false for NaN
        z = complex((x0 + x1) / 2, (y0 + y1) / 2)
    return Root(z, w - ((_count(_moments(*den, [cell])[0]) or 0) if den else 0))


def count_preimages(m, p, r):
    """Number of DISTINCT solutions of f(z) = p in |z| < r."""
    return len(find_roots(m, p, r))


def multiplicity_count(m, p, r):
    """Solutions of f(z) = p in |z| < r counted with multiplicity."""
    return sum(rt.multiplicity for rt in find_roots(m, p, r))


# ---------------------------------------------------------------------------
# Batched counting from the boundary image f(|z| = r)


def count_preimages_many(m, points, r):
    """count_preimages for many targets from one pass over f(|z| = r).

    n(r, p) = wind(f(|z| = r), p) + P(r), with P(r) the poles of f in
    |z| < r counted with order.  Returns one entry per point: the count,
    or None where the boundary image cannot decide it (the point at
    infinity, a target within the band around the image, a pole on the
    circle); callers pass those to count_preimages.
    """
    points = [sphere_point(p) for p in points]
    result = [None] * len(points)
    finite = [k for k, p in enumerate(points) if p is not INF]
    if not finite:
        return result
    targets = np.array([points[k] for k in finite], dtype=np.complex128)
    try:
        poles = multiplicity_count(m, INF, r)
        windings, undecided = _windings(m, differentiate(m), _Circle(r), targets)
    except (WindingError, RootOnCircleError, ContourPassesThroughRoot):
        return result
    counts = windings[0] + poles
    for k, count, unsure in zip(finite, counts, undecided[0]):
        if not unsure and count >= 0:
            result[k] = int(count)
    return result

@dataclass(frozen=True)
class MeanDegree:
    mean: float
    stderr: float
    n_samples: int
    n_resampled: int


def mean_degree(m, r, n_samples, seed=0):
    """Monte-Carlo average of n(r, p) over uniform sphere points p.

    The first n_samples points are counted at once by count_preimages_many
    from the winding of the boundary image f(|z| = r); only points it leaves
    undecided (inside the band around the image) go to count_preimages.
    A point whose root lies on the circle therefore still raises there and
    is replaced by the next point of the sample stream, which count_preimages
    counts alone.  Counts are distinct roots, which equal the winding count
    except at critical values.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    resample_budget = max(50, n_samples // 4)
    pts = sample_sphere_uniform(seed, n_samples + resample_budget)
    counts = []
    resampled = 0
    batched = count_preimages_many(m, pts[:n_samples], r) + [None] * resample_budget
    for p, count in zip(pts, batched):
        if len(counts) == n_samples:
            break
        if count is None:
            try:
                count = count_preimages(m, p, r)
            except (WindingError, RootOnCircleError, ContourPassesThroughRoot):
                resampled += 1
                continue
        counts.append(count)
    if len(counts) < n_samples:
        raise WindingError("resample budget exhausted in mean_degree")
    arr = np.asarray(counts, dtype=float)
    return MeanDegree(
        mean=float(arr.mean()),
        stderr=float(arr.std(ddof=1) / math.sqrt(len(arr))),
        n_samples=n_samples,
        n_resampled=resampled,
    )


# ---------------------------------------------------------------------------
# Islands


@dataclass
class IslandRecord:
    disk_index: int
    boundary: np.ndarray  # outer boundary, closed complex polyline
    chi: int
    degree: int
    ramification: int
    centroid: complex = 0j  # a preimage of the disk centre inside the island
    holes: list = field(default_factory=list)  # inner boundaries, if any


def margin_radius(r, resolution):
    """Inner edge of the properness margin of |z| < r: the band of 10 cells
    of a resolution-`resolution` grid along the circle.  An island reaching
    it is ambiguous and a graph arc reaching it is bad."""
    return r * (1.0 - 10.0 / resolution)


def ring_radius(r, resolution):
    """Inner edge of the ring of pixels (2.5 pixel widths, 2r/resolution
    each) that touch the circle |z| = r."""
    return r - 2.5 * (2.0 * r / resolution)


def island_scans(m, disks, radii, resolution=512):
    """find_islands for every disk at every radius: per radius, the islands
    of all disks, each with its disk_index, and their ambiguous count, or
    the error that the first failing disk raised there.  The seed searches
    of all the (disk, radius) pairs are one find_roots_many call and their
    lifts share array passes (_island_lifts), and each pair's result equals
    its own find_islands call bit for bit."""
    lifted = iter(_island_lifts(m, [(disk, r) for r in radii for disk in disks], resolution))
    scans = []
    for r in radii:
        pairs = [(disk, next(lifted)) for disk in disks]
        try:
            found = [find_islands(m, disk, r, resolution, lift) for disk, lift in pairs]
        except (ValueError, ArithmeticError) as exc:
            scans.append(exc)
            continue
        for k, (islands, _) in enumerate(found):
            for rec in islands:
                rec.disk_index = k
        scans.append(([rec for islands, _ in found for rec in islands], sum(a for _, a in found)))
    return scans


def find_islands(m, disk, r, resolution=512, lifted=None):
    """Islands of `disk` inside |z| < r and the number of ambiguous ones:
    the components (lifting.cycle_components) of the pair's lifts from
    _island_lifts (`lifted`, as island_scans passes it, or made here), a
    lift landing within 1e-6 radius / |g'| of a start.  One whose outer
    curve reaches the properness margin is ambiguous; the seed of the
    curve's least lift is an island's centroid."""
    if lifted is None:
        (lifted,) = _island_lifts(m, [(disk, r)], resolution)
    if isinstance(lifted, Exception):
        raise lifted
    dg, radius, z0, *circles = lifted
    if not circles:
        return [], 0
    islands, n_ambiguous = [], 0
    for members, loop, holes, degree, chi in cycle_components(
            *circles, lambda at: 1e-6 * radius / np.abs(evaluate_array(dg, at))):
        if np.abs(loop).max() > margin_radius(r, resolution) - 2.0 * r / resolution:
            n_ambiguous += 1
            continue
        centroid = complex(z0[members[0]])
        islands.append(IslandRecord(-1, loop, chi, degree, degree - chi, centroid, holes))
    islands.sort(key=lambda q: (q.centroid.real, q.centroid.imag))
    return islands, n_ambiguous


def _island_lifts(m, jobs, resolution):
    """For each (SphericalDisk, r) of `jobs`, the error it raised or its
    lifts as find_islands reads them: g', the disk's radius in the chart
    (_chart), and the seeds and circle lifts of lift_boundaries.  The seeds
    of all pairs come from one find_roots_many call; the pairs of one chart
    map g (equal trees are one map) are lifted together."""
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    rings = [ring_radius(r, resolution) for _, r in jobs]
    out = find_roots_many([(m, disk.center, ring) for (disk, _), ring in zip(jobs, rings)])
    charts = {}  # chart map -> [(job, its lift_boundaries disk)]
    for j, ((disk, _), ring, seeds) in enumerate(zip(jobs, rings, out)):
        if not isinstance(seeds, Exception):
            g, c, centre, radius = _chart(m, disk)
            charts.setdefault(g, []).append((j, (seeds, c, centre, radius, ring)))
    for g, pairs in charts.items():
        dg = differentiate(g)
        lifted = lift_boundaries(g, dg, [disk for _, disk in pairs])
        for (j, (*_, radius, _)), lift in zip(pairs, lifted):
            out[j] = lift if isinstance(lift, Exception) else (dg, radius, *lift)
    return out


def total_ramification(islands):
    """Sum of (degree - chi) over island records; each term is >= 0."""
    total = 0
    for rec in islands:
        term = rec.degree - rec.chi
        if term < 0:
            raise ValueError(f"negative ramification term for island at {rec.centroid}")
        total += term
    return total
