"""Marching-squares extraction of {F = 0} on a rectangle, with local
subdivision of ambiguous (saddle) cells.

It traces the figure-eight's preimage (trace.build_preimage_graph).
`field` must map a numpy complex array of sample points to real values;
the traced level is 0 (callers bake the level into the field).

One array kernel (_march_grid) marches every cell of a grid: a table maps
each unambiguous case to its edge pair, and one vectorized interpolation
(_crossings) places the segment ends.  It returns the saddle cells (cases
5 and 10) as well.  The top grid goes through it one band of BAND_ROWS
cell rows at a time, each band sampled anew from the last node row of the
one before; the plain segments of all bands, then all their saddle cells,
come in row-major order, as from one pass.  Given a certificate
`positive` (a bound of the field > 0 on discs), one breadth-first quadtree
of blocks over the whole grid (_uncertified) skips the blocks it certifies
and returns the leaf blocks it cannot; it takes each level _SLICE blocks
at a time, so only the level's int block bounds span it.  Each band
paints the leaves that overlap it, samples the field only at their cells'
nodes and is marched over their column span.  A certified cell has code
15 and yields nothing, so the chains are bit-identical.  The 3 x 3
sub-grid of every saddle cell goes through it too; a saddle still
ambiguous after _MAX_DEPTH levels is split by the sign at its centre,
through the same interpolation.
Segments are oriented so the negative side of F lies to the left; chains
are assembled by endpoint matching with a tolerance that absorbs the tiny
cracks hanging nodes introduce at coarse/fine cell interfaces: endpoints
match when they round to one point of a fine lattice, and each lattice
point is keyed by one int, its rank among the segments' endpoints.

`runs` splits a sampled sequence into its maximal kept runs, walking a
closed one from a dropped entry around to it again; every cut of a traced
curve (disk, node ball) goes through it.

The pixel-set helpers of complement topology live here too, in plain
numpy, on a set given by its row runs, with no grid of the whole set.
`label_runs` joins the runs across rows by a union-find over their
touching pairs.  `mask_euler_characteristic` takes each component's
number of runs less its 8-touching pairs of runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Chain:
    points: np.ndarray  # complex polyline vertices
    closed: bool
    cell_size: float  # largest cell size along this chain


_MAX_DEPTH = 6  # saddle subdivision levels before the centre-sign fallback
BAND_ROWS = 64  # grid rows that extract samples and marches at once
_BLOCK = 64  # cells a side of the largest block extract's certificate may skip
_LEAF = 4  # cells a side of a block that is not split further
_SLICE = 8192  # blocks of one quadtree level certified at once

# corners as (row, col) offsets: 0 = (x0,y0), 1 = (x1,y0), 2 = (x1,y1), 3 = (x0,y1)
_CORNERS = ((0, 0), (0, 1), (1, 1), (1, 0))
# edges as their two corners: 0 = bottom, 1 = right, 2 = top, 3 = left
_EDGE_CORNERS = np.array([(0, 1), (1, 2), (3, 2), (0, 3)])

# oriented segment table: case index = bit i set when corner i has F > 0.
# Each unambiguous case has one (edge_from, edge_to) pair, oriented so that
# the F < 0 region is on the left of from->to.  Cases 0 and 15 cross nothing;
# 5 and 10 are the saddles, resolved by subdivision or by the centre sign.
_CASE_EDGES = np.array([
    (-1, -1), (3, 0), (0, 1), (3, 1), (1, 2), (-1, -1), (0, 2), (3, 2),
    (2, 3), (2, 0), (-1, -1), (2, 1), (1, 3), (1, 0), (0, 3), (-1, -1),
])


def _resolve_saddle(code, center_positive):
    """Split an ambiguous case into two case-3-style diagonals."""
    # case 5: corners 0,2 positive; case 10: corners 1,3 positive
    if code == 5:
        return [(3, 2), (1, 0)] if center_positive else [(3, 0), (1, 2)]
    return [(0, 3), (2, 1)] if center_positive else [(0, 1), (2, 3)]


def _crossings(cz, cv, edges):
    """Zero crossing of F on edge `edges[k]` of cell k, whose corner points
    and values are row k of `cz` and `cv`.

    t = -v0 / (v1 - v0), or 0.5 where v1 == v0, is clamped to [0, 1] the
    way min(1, max(0, t)) clamps: a NaN corner value (sub-grids are not
    sanitised) gives t = 0, where np.clip would keep the NaN.
    """
    k = np.arange(len(edges))
    a, b = _EDGE_CORNERS[edges, 0], _EDGE_CORNERS[edges, 1]
    p0, v0, p1, v1 = cz[k, a], cv[k, a], cz[k, b], cv[k, b]
    denominator = v1 - v0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denominator == 0, 0.5, -v0 / denominator)
    t = np.where(t > 0, t, 0.0)
    t = np.where(t < 1, t, 1.0)
    return p0 + t * (p1 - p0)


def _segments(cz, cv, pairs, size):
    """One (p, q, size) row per cell for its (edge_from, edge_to) pair."""
    p = _crossings(cz, cv, pairs[:, 0])
    q = _crossings(cz, cv, pairs[:, 1])
    return np.column_stack((p, q, np.full(len(p), size)))


def _march_grid(zz, vals, size):
    """March every cell of the grid of points `zz` with node values `vals`.

    Returns the (p, q, size) segment rows of the unambiguous crossing cells
    and the saddle cells (codes 5 and 10) as (corner points, corner values,
    code), both in row-major cell order.
    """
    pos = vals > 0
    codes = pos[:-1, :-1] + 2 * pos[:-1, 1:] + 4 * pos[1:, 1:] + 8 * pos[1:, :-1]
    j, i = np.nonzero((codes != 0) & (codes != 15))
    code = codes[j, i]
    cz = np.stack([zz[j + dj, i + di] for dj, di in _CORNERS], axis=1)
    cv = np.stack([vals[j + dj, i + di] for dj, di in _CORNERS], axis=1)
    saddle = (code == 5) | (code == 10)
    plain = ~saddle
    rows = _segments(cz[plain], cv[plain], _CASE_EDGES[code[plain]], size)
    return rows, list(zip(cz[saddle], cv[saddle], code[saddle]))


def extract(field, rect, nx, ny, positive=None):
    """Trace {field = 0} on `rect` = (x0, x1, y0, y1).

    Returns a list of :class:`Chain`.  Ambiguous cells are subdivided up to
    _MAX_DEPTH times; a still-ambiguous cell is split by the sign of the
    field at its centre.

    `positive(centres, radii)`, if given, certifies discs: it may be True
    only where the field is > 0 at every point of |z - centre| <= radius,
    as the field computes it there.  Then the field is sampled only at the
    nodes of the cells that _uncertified returns; a certified cell would
    have code 15, with no segment and no saddle, so the chains are the
    same as without `positive`, bit for bit.
    """
    x0, x1, y0, y1 = rect
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    segments, saddles = [np.empty((0, 3), dtype=complex)], []
    # without a certificate, every cell is in a leaf
    leaves = _uncertified(positive or (lambda c, rho: np.zeros(len(c), dtype=bool)), xs, ys)
    cell = np.arange(_LEAF * _LEAF)
    for j in range(0, ny, BAND_ROWS):
        # node rows j .. j + len(band_ys) - 1; the first is the last of the band before
        band_ys = ys[j : j + BAND_ROWS + 1]
        # the cells of the leaves (rectangles) that overlap the band
        r0, r1, c0, c1 = leaves[:, (leaves[0] < j + BAND_ROWS) & (leaves[1] > j), None]
        if not r0.size:
            continue
        rr, cc = r0 + cell // _LEAF, c0 + cell % _LEAF
        inside = (rr < r1) & (cc < c1) & (j <= rr) & (rr < j + BAND_ROWS)
        # march node columns lo .. hi - 1, the span of those cells
        lo, hi = c0.min(), c1.max() + 1
        cells = np.zeros((len(band_ys) - 1, hi - lo - 1), dtype=bool)
        cells[rr[inside] - j, cc[inside] - lo] = True
        need = np.zeros((len(band_ys), hi - lo), dtype=bool)
        for dj, di in _CORNERS:
            need[dj : dj + len(cells), di : di + cells.shape[1]] |= cells
        zz = xs[None, lo:hi] + 1j * band_ys[:, None]
        vals = np.ones(zz.shape)  # any positive value at certified nodes
        z = zz[need]
        v = np.asarray(field(z), dtype=float)
        bad = ~np.isfinite(v)
        if bad.any():
            # pointwise rescue: nudge bad nodes slightly off the grid
            v = v.copy()
            v[bad] = np.asarray(field(z[bad] + hx * 1e-4 * (1 + 1j)), dtype=float)
            v[~np.isfinite(v)] = 1e300
        vals[need] = v
        rows, band_saddles = _march_grid(zz, vals, max(hx, hy))
        segments.append(rows)
        saddles.extend(band_saddles)
    # local recursive subdivision of saddle cells, last found first
    queue = [(cz, cv, code, 0) for cz, cv, code in saddles]
    while queue:
        cz, cv, code, depth = queue.pop()
        cx0, cx1, cy0, cy1 = cz[0].real, cz[2].real, cz[0].imag, cz[2].imag
        size = max(cx1 - cx0, cy1 - cy0)
        if depth >= _MAX_DEPTH:
            center = 0.25 * sum(cz)
            cval = float(np.asarray(field(np.array([center])), dtype=float)[0])
            pairs = np.array(_resolve_saddle(code, cval > 0))
            segments.append(_segments(np.tile(cz, (2, 1)), np.tile(cv, (2, 1)), pairs, size))
            continue
        sub_zz = np.linspace(cx0, cx1, 3)[None, :] + 1j * np.linspace(cy0, cy1, 3)[:, None]
        sub_vals = np.asarray(field(sub_zz), dtype=float)
        # keep the already-sampled corner values exact so neighbors agree
        sub_vals[0, 0], sub_vals[0, 2], sub_vals[2, 2], sub_vals[2, 0] = cv
        rows, saddles = _march_grid(sub_zz, sub_vals, size * 0.5)
        segments.append(rows)
        queue.extend((sz, sv, scode, depth + 1) for sz, sv, scode in saddles)

    return _chain(np.concatenate(segments), quantum=0.25 * min(hx, hy) * 0.5**_MAX_DEPTH)


def _uncertified(positive, xs, ys):
    """The blocks (r0, r1, c0, c1), one a column, of the cells [r0, r1) x
    [c0, c1) of the grid of nodes xs x ys that `positive` does not certify;
    none has more than _LEAF cells a side.

    A quadtree starts from blocks of _BLOCK cells a side.  Each block is
    tested on the disc about its centre through all its nodes; a block that
    fails is halved along each side longer than one cell, down to blocks of
    at most _LEAF cells a side, which are not certified.  The tree is walked
    breadth first, each level _SLICE blocks at a time: a slice's discs, its
    `positive` call and its leaves and blocks to split are made together,
    so only the level's int32 block bounds span the whole level.
    """
    shape = (len(ys) - 1, len(xs) - 1)
    r0, c0 = (np.arange(0, n, _BLOCK, dtype=np.int32) for n in shape)
    r1, c1 = np.minimum(r0 + _BLOCK, shape[0]), np.minimum(c0 + _BLOCK, shape[1])
    blocks = np.stack(np.broadcast_arrays(r0[:, None], r1[:, None], c0, c1)).reshape(4, -1)
    leaves = []
    while blocks.shape[1]:
        # slice by slice, in the level's order, so the leaves and the blocks
        # to split come in the order the whole level would give them
        split = []
        for k in range(0, blocks.shape[1], _SLICE):
            part = blocks[:, k : k + _SLICE]
            r0, r1, c0, c1 = part
            x_lo, x_hi, y_lo, y_hi = xs[c0], xs[c1], ys[r0], ys[r1]
            centres = 0.5 * (x_lo + x_hi) + 0.5j * (y_lo + y_hi)
            # half the diagonal, widened past the rounding of the centre
            radii = np.hypot(x_hi - x_lo, y_hi - y_lo) * (0.5 + 1e-12) + 1e-15 * np.abs(centres)
            r0, r1, c0, c1 = part = part[:, ~np.asarray(positive(centres, radii), dtype=bool)]
            leaf = np.maximum(r1 - r0, c1 - c0) <= _LEAF
            leaves.append(part[:, leaf])
            split.append(part[:, ~leaf])
        r0, r1, c0, c1 = np.concatenate(split, axis=1)
        rm, cm = (r0 + r1 + 1) // 2, (c0 + c1 + 1) // 2
        blocks = np.concatenate(
            ([r0, rm, c0, cm], [r0, rm, cm, c1], [rm, r1, c0, cm], [rm, r1, cm, c1]), axis=1
        )
        blocks = blocks[:, (blocks[0] < blocks[1]) & (blocks[2] < blocks[3])]
    return np.concatenate(leaves, axis=1)


def _chain(segments, quantum):
    """Assemble oriented segments into chains by endpoint matching.

    `segments` holds one (p, q, size) row per segment: a list of triples or
    an (n, 3) complex array.  Endpoints match when they round to the same
    multiple of `quantum`: each distinct pair of multiples gets one int key,
    its rank among them.
    """
    seg = np.asarray(segments, dtype=complex).reshape(-1, 3)
    p, q, size = seg[:, 0], seg[:, 1], seg[:, 2].real
    ends = seg[:, :2].T.reshape(-1)  # every start, then every end
    grid = np.rint(np.stack((ends.real, ends.imag), axis=1) / quantum).astype(np.int64)
    key = np.unique(grid, axis=0, return_inverse=True)[1].reshape(-1)
    start, end = key[: len(seg)].tolist(), key[len(seg) :].tolist()
    degenerate = (p == q).tolist()
    # segment indices by start and by end key, in index order; degenerate
    # p == q segments never start a forward step but may end a backward one
    by_start, by_end = {}, {}
    for idx in range(len(seg)):
        by_end.setdefault(end[idx], []).append(idx)
        if not degenerate[idx]:
            by_start.setdefault(start[idx], []).append(idx)
    used = [False] * len(seg)

    def take_first_unused(candidates):
        idx = next((c for c in candidates if not used[c]), None)
        if idx is not None:
            used[idx] = True
        return idx

    chains = []
    for idx in range(len(seg)):
        if used[idx]:
            continue
        used[idx] = True
        if degenerate[idx]:
            continue
        # extend forward by segments starting at our end, then backward by
        # segments ending at our start; both lists begin with idx
        forward, backward = [idx], [idx]
        while (nxt := take_first_unused(by_start.get(end[forward[-1]], ()))) is not None:
            forward.append(nxt)
        while (prev := take_first_unused(by_end.get(start[backward[-1]], ()))) is not None:
            backward.append(prev)
        pts = np.concatenate((p[backward[::-1]], q[forward]))
        closed = start[backward[-1]] == end[forward[-1]] and len(pts) > 2
        cell_size = float(size[backward + forward].max())
        chains.append(Chain(points=pts, closed=closed, cell_size=cell_size))

    # close sub-cell cracks: greedily join chains whose loose ends are within
    # 1.2 times the larger of their cell sizes
    chains = _mend_cracks(chains)
    for ch in chains:
        if not ch.closed and len(ch.points) > 2:
            gap = abs(ch.points[0] - ch.points[-1])
            if gap <= 1.2 * ch.cell_size:
                ch.closed = True
    # isolated slivers shorter than a couple of cells are subdivision debris
    # (duplicate fragments along hanging-node cracks), not curve topology
    kept = []
    for ch in chains:
        arclen = float(np.abs(np.diff(ch.points)).sum())
        if len(ch.points) <= 3 and arclen <= 2.0 * ch.cell_size and not ch.closed:
            continue
        kept.append(ch)
    return kept


def _mend_cracks(chains):
    changed = True
    while changed:
        changed = False
        open_idx = [i for i, c in enumerate(chains) if not c.closed]
        for ii in range(len(open_idx)):
            if changed:
                break
            for jj in range(ii + 1, len(open_idx)):
                a = chains[open_idx[ii]]
                b = chains[open_idx[jj]]
                tol = 1.2 * max(a.cell_size, b.cell_size)
                joined = None
                if abs(a.points[-1] - b.points[0]) <= tol:
                    joined = np.concatenate([a.points, b.points])
                elif abs(a.points[-1] - b.points[-1]) <= tol:
                    joined = np.concatenate([a.points, b.points[::-1]])
                elif abs(a.points[0] - b.points[-1]) <= tol:
                    joined = np.concatenate([b.points, a.points])
                elif abs(a.points[0] - b.points[0]) <= tol:
                    joined = np.concatenate([b.points[::-1], a.points])
                if joined is not None:
                    merged = Chain(
                        points=joined,
                        closed=False,
                        cell_size=max(a.cell_size, b.cell_size),
                    )
                    lo, hi = sorted((open_idx[ii], open_idx[jj]), reverse=True)
                    chains.pop(lo)
                    chains.pop(hi)
                    chains.append(merged)
                    changed = True
                    break
    return chains


def runs(keep, closed):
    """Walk order and maximal kept runs of a sampled sequence.

    Returns ``(order, spans)``: ``order`` indexes the sequence in walk
    order and ``spans`` holds one ``(lo, hi)`` per maximal run of kept
    entries, as the slice ``order[lo:hi]``.  An open sequence, or a closed
    one with every entry kept, is walked once from its start.  A closed
    sequence with a dropped entry is walked from its first dropped entry
    around to that entry again, so no run wraps the seam and every run
    has a dropped neighbour in the walk on both sides.  A run with
    ``lo > 0`` (``hi < len(order)``) was entered (left) through the walk
    entry before (after) it.
    """
    keep = np.asarray(keep, dtype=bool)
    n = len(keep)
    order = np.arange(n)
    if closed and not keep.all():
        start = int(np.argmin(keep))
        order = np.r_[start:n, : start + 1]
    edges = np.flatnonzero(np.diff(np.r_[False, keep[order], False]))
    return order, list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def _touching(row, lo, hi, reach):
    """Pairs (a, b) of runs, a in the row above b's, that 4-touch (reach 0)
    or 8-touch (reach 1); run k covers columns lo[k] .. hi[k] - 1 of row
    row[k], in raster order."""
    stride = int(hi.max(initial=0)) + 2
    above = (row - 1) * stride
    # runs a of row i - 1 that touch run b of row i: lo_a < hi_b + reach and lo_b - reach < hi_a
    first = np.searchsorted(row * stride + hi, above + lo - reach, side="right")
    stop = np.searchsorted(row * stride + lo, above + hi + reach, side="left")
    touching = np.maximum(stop - first, 0)
    # one (a, b) per touching pair: a = first[b], ..., stop[b] - 1
    b = np.repeat(np.arange(len(lo)), touching)
    a = np.arange(len(b)) - np.repeat(np.cumsum(touching) - touching - first, touching)
    return a, b


def label_runs(row, lo, hi):
    """Component label 0, 1, ... of every run of a pixel set (4-connectivity),
    numbered in the raster order of each component's first run, the order
    ``ndimage.label`` gives.  The 4-touching runs of adjacent rows are
    joined by a union-find that keeps the smallest run index, so the Python
    loop runs once per touching pair (He, Chao & Suzuki, IEEE TIP 2008).
    """
    root = list(range(len(lo)))

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    for ka, kb in zip(*(side.tolist() for side in _touching(row, lo, hi, 0))):
        ra, rb = find(ka), find(kb)
        root[max(ra, rb)] = min(ra, rb)
    # a root is its component's first run in raster order
    run_root = np.array([find(k) for k in range(len(lo))], dtype=int)
    return np.unique(run_root, return_inverse=True)[1]


def mask_euler_characteristic(row, lo, hi, label):
    """Euler characteristic V - E + F of the closed cell complex of each
    component of a pixel set, given by its runs and their labels.

    A run's closed pixels form a contractible strip.  Two runs of one row
    are apart, two of adjacent rows that 8-touch meet in a segment or a
    corner, and no three meet, so a component's chi is its number of runs
    less its number of 8-touching pairs of runs.
    """
    a, b = _touching(row, lo, hi, 1)
    size = int(label.max(initial=-1)) + 1
    joined = label[a][label[a] == label[b]]
    return np.bincount(label, minlength=size) - np.bincount(joined, minlength=size)
