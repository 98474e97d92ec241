"""Marching-squares extraction of {F = 0} on a rectangle, with local
subdivision of ambiguous (saddle) cells.

This is the shared tracer behind curve preimages and island boundaries.
`field` must map a numpy complex array of sample points to real values;
the traced level is 0 (callers bake the level into the field).

Segments are oriented so the negative side of F lies to the left; chains
are assembled by endpoint matching with a tolerance that absorbs the tiny
cracks hanging nodes introduce at coarse/fine cell interfaces.

The pixel-mask helpers of island and complement topology live here too:
`components` labels a mask once and gives each component with its
bounding box and its mask inside that box, so per-component work costs
the box, not the grid.  `deepest_pixel` and `mask_euler_characteristic`
take a component's box and give what the full grid would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


class AmbiguityError(ArithmeticError):
    """A saddle cell stayed ambiguous at maximum subdivision depth."""

    def __init__(self, cell):
        super().__init__(
            f"unresolved topological ambiguity in cell {cell!r}; "
            f"perturb the traced level"
        )
        self.cell = cell


@dataclass
class Chain:
    points: np.ndarray  # complex polyline vertices
    closed: bool
    cell_size: float  # finest cell size along this chain


_MAX_DEPTH = 6  # saddle subdivision levels before the centre-sign fallback

# corner order: 0 = (x0,y0), 1 = (x1,y0), 2 = (x1,y1), 3 = (x0,y1)
# edges: 0 = bottom, 1 = right, 2 = top, 3 = left
_EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))

# oriented segment table: case index = bit i set when corner i has F > 0.
# each entry is a list of (edge_from, edge_to) pairs, oriented so that the
# F < 0 region is on the left of from->to.
_CASES = {
    0: [],
    15: [],
    1: [(3, 0)],
    14: [(0, 3)],
    2: [(0, 1)],
    13: [(1, 0)],
    4: [(1, 2)],
    11: [(2, 1)],
    8: [(2, 3)],
    7: [(3, 2)],
    3: [(3, 1)],
    12: [(1, 3)],
    6: [(0, 2)],
    9: [(2, 0)],
    # 5 and 10 are the ambiguous saddle cases, resolved by subdivision or
    # by the cell-center sign
}


def _interp(p0, v0, p1, v1):
    """Zero crossing on the edge p0-p1 given corner values v0, v1."""
    denominator = v1 - v0
    t = 0.5 if denominator == 0 else -v0 / denominator
    t = min(1.0, max(0.0, t))
    return p0 + t * (p1 - p0)


def _cell_segments(corners, values, code):
    segs = []
    for e_from, e_to in _CASES[code]:
        a0, a1 = _EDGE_CORNERS[e_from]
        b0, b1 = _EDGE_CORNERS[e_to]
        p = _interp(corners[a0], values[a0], corners[a1], values[a1])
        q = _interp(corners[b0], values[b0], corners[b1], values[b1])
        segs.append((p, q))
    return segs


def _resolve_saddle(code, center_positive):
    """Split an ambiguous case into two case-3-style diagonals."""
    # case 5: corners 0,2 positive; case 10: corners 1,3 positive
    if code == 5:
        return [(3, 2), (1, 0)] if center_positive else [(3, 0), (1, 2)]
    return [(0, 3), (2, 1)] if center_positive else [(0, 1), (2, 3)]


def extract(field, rect, nx, ny, on_ambiguous="error"):
    """Trace {field = 0} on `rect` = (x0, x1, y0, y1).

    Returns a list of :class:`Chain`.  Ambiguous cells are subdivided up to
    _MAX_DEPTH times; a still-ambiguous cell raises AmbiguityError when
    `on_ambiguous` is "error", and is resolved by the center sign when it is
    "resolve" (callers that split at graph vertices use the latter).
    """
    x0, x1, y0, y1 = rect
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    zz = xs[None, :] + 1j * ys[:, None]
    vals = np.asarray(field(zz), dtype=float)
    if not np.all(np.isfinite(vals)):
        # pointwise rescue: nudge bad nodes slightly off the grid
        bad = ~np.isfinite(vals)
        nudge = (xs[1] - xs[0]) * 1e-4
        vals = vals.copy()
        repl = np.asarray(field(zz[bad] + nudge * (1 + 1j)), dtype=float)
        vals[bad] = repl
        if not np.all(np.isfinite(vals)):
            vals[~np.isfinite(vals)] = 1e300

    hx = xs[1] - xs[0]
    hy = ys[1] - ys[0]
    segments = []  # (p, q, cell_size)

    pos = vals > 0
    codes = (
        pos[:-1, :-1].astype(int)
        + 2 * pos[:-1, 1:]
        + 4 * pos[1:, 1:]
        + 8 * pos[1:, :-1]
    )
    interesting = np.nonzero((codes != 0) & (codes != 15))
    ambiguous_queue = []
    for j, i in zip(*interesting):
        code = int(codes[j, i])
        corners = (
            xs[i] + 1j * ys[j],
            xs[i + 1] + 1j * ys[j],
            xs[i + 1] + 1j * ys[j + 1],
            xs[i] + 1j * ys[j + 1],
        )
        cvals = (
            vals[j, i],
            vals[j, i + 1],
            vals[j + 1, i + 1],
            vals[j + 1, i],
        )
        if code in (5, 10):
            ambiguous_queue.append((corners, cvals, code, 0))
        else:
            for p, q in _cell_segments(corners, cvals, code):
                segments.append((p, q, max(hx, hy)))

    # local recursive subdivision of saddle cells
    while ambiguous_queue:
        corners, cvals, code, depth = ambiguous_queue.pop()
        cell = (corners[0].real, corners[2].real, corners[0].imag, corners[2].imag)
        size = max(corners[2].real - corners[0].real, corners[2].imag - corners[0].imag)
        if depth >= _MAX_DEPTH:
            center = 0.25 * sum(corners)
            cval = float(np.asarray(field(np.array([center])), dtype=float)[0])
            if on_ambiguous == "error":
                raise AmbiguityError(cell)
            pairs = _resolve_saddle(code, cval > 0)
            for e_from, e_to in pairs:
                a0, a1 = _EDGE_CORNERS[e_from]
                b0, b1 = _EDGE_CORNERS[e_to]
                p = _interp(corners[a0], cvals[a0], corners[a1], cvals[a1])
                q = _interp(corners[b0], cvals[b0], corners[b1], cvals[b1])
                segments.append((p, q, size))
            continue
        cx0, cx1 = corners[0].real, corners[2].real
        cy0, cy1 = corners[0].imag, corners[2].imag
        sub_xs = np.linspace(cx0, cx1, 3)
        sub_ys = np.linspace(cy0, cy1, 3)
        sub_zz = sub_xs[None, :] + 1j * sub_ys[:, None]
        sub_vals = np.asarray(field(sub_zz), dtype=float)
        # keep the already-sampled corner values exact so neighbors agree
        sub_vals[0, 0], sub_vals[0, 2] = cvals[0], cvals[1]
        sub_vals[2, 2], sub_vals[2, 0] = cvals[2], cvals[3]
        sub_pos = sub_vals > 0
        for jj in range(2):
            for ii in range(2):
                sub_code = int(
                    sub_pos[jj, ii]
                    + 2 * sub_pos[jj, ii + 1]
                    + 4 * sub_pos[jj + 1, ii + 1]
                    + 8 * sub_pos[jj + 1, ii]
                )
                if sub_code in (0, 15):
                    continue
                sc = (
                    sub_xs[ii] + 1j * sub_ys[jj],
                    sub_xs[ii + 1] + 1j * sub_ys[jj],
                    sub_xs[ii + 1] + 1j * sub_ys[jj + 1],
                    sub_xs[ii] + 1j * sub_ys[jj + 1],
                )
                sv = (
                    sub_vals[jj, ii],
                    sub_vals[jj, ii + 1],
                    sub_vals[jj + 1, ii + 1],
                    sub_vals[jj + 1, ii],
                )
                if sub_code in (5, 10):
                    ambiguous_queue.append((sc, sv, sub_code, depth + 1))
                else:
                    for p, q in _cell_segments(sc, sv, sub_code):
                        segments.append((p, q, size * 0.5))

    return _chain(segments, quantum=0.25 * min(hx, hy) * 0.5**_MAX_DEPTH)


def _chain(segments, quantum):
    """Assemble oriented segments into chains by endpoint matching."""
    if not segments:
        return []

    def key(p):
        return (round(p.real / quantum), round(p.imag / quantum))

    # segment indices by start and by end key, in index order; degenerate
    # p == q segments never start a forward step but may end a backward one
    by_start, by_end = {}, {}
    for idx, (p, q, size) in enumerate(segments):
        by_end.setdefault(key(q), []).append(idx)
        if p != q:
            by_start.setdefault(key(p), []).append(idx)
    used = [False] * len(segments)

    def first_unused(candidates):
        return next((c for c in candidates if not used[c]), None)

    chains = []
    for idx in range(len(segments)):
        if used[idx]:
            continue
        p, q, size = segments[idx]
        if p == q:
            used[idx] = True
            continue
        used[idx] = True
        pts = [p, q]
        max_size = size
        # extend forward
        while True:
            nxt = first_unused(by_start.get(key(pts[-1]), ()))
            if nxt is None:
                break
            used[nxt] = True
            cp, cq, csize = segments[nxt]
            pts.append(cq)
            max_size = max(max_size, csize)
        # extend backward: a segment whose end matches our start
        while True:
            prev = first_unused(by_end.get(key(pts[0]), ()))
            if prev is None:
                break
            used[prev] = True
            cp, _, csize = segments[prev]
            pts.insert(0, cp)
            max_size = max(max_size, csize)
        closed = key(pts[0]) == key(pts[-1]) and len(pts) > 2
        chains.append(Chain(points=np.array(pts), closed=closed, cell_size=max_size))

    # close sub-cell cracks: greedily join chains whose loose ends are within
    # a fraction of the local cell size
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


def components(mask):
    """Connected components of a boolean pixel mask (4-connectivity).

    Returns the label grid of ``ndimage.label`` and one entry
    ``(label, box, local)`` per component in label order: ``box`` is the
    pair of slices of its bounding box and ``local`` is
    ``labels[box] == label``, the component's mask inside that box.
    """
    labels, _ = ndimage.label(mask)
    return labels, [
        (label, box, labels[box] == label)
        for label, box in enumerate(ndimage.find_objects(labels), start=1)
    ]


def deepest_pixel(labels, label, box):
    """(row, col) of the first pixel, in row-major order, of component
    `label` (bounding box `box`) at the largest chessboard distance from
    the rest of the grid.  The box grown by one pixel, as far as the grid
    reaches, holds the nearest non-component pixel of every component
    pixel, so this is the argmax of the full-grid distance transform.
    """
    grown = tuple(slice(max(s.start - 1, 0), s.stop + 1) for s in box)
    dist = ndimage.distance_transform_cdt(labels[grown] == label)
    j, i = np.unravel_index(int(np.argmax(dist)), dist.shape)
    return grown[0].start + j, grown[1].start + i


def mask_euler_characteristic(mask):
    """Euler characteristic V - E + F of a pixel set's closed cell complex."""
    mask = np.asarray(mask, dtype=bool)
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    faces = int(mask.sum())
    # vertical edges between column neighbors exist where either side pixel is set
    e_v = int((padded[:, :-1] | padded[:, 1:]).sum())
    e_h = int((padded[:-1, :] | padded[1:, :]).sum())
    corners = (
        padded[:-1, :-1] | padded[:-1, 1:] | padded[1:, :-1] | padded[1:, 1:]
    )
    vertices = int(corners.sum())
    return vertices - (e_v + e_h) + faces
