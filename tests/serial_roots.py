"""The root finder one query at a time: the reference that
count.find_roots_many, which runs the queries of one root target in
lockstep, and count.find_roots must match bit for bit.

This is find_roots as it stood before the queries were batched, with the
_cell_roots it called (one merge distance for all cells), kept verbatim
apart from their imports."""

import math

import numpy as np

from coverlab.count import (
    _INFLATIONS,
    _ISOLATION_REL,
    _MAX_CELLS,
    _MOMENT_MAX,
    _SPLIT_FRACTIONS,
    ContourPassesThroughRoot,
    Root,
    RootOnCircleError,
    WindingError,
    _children,
    _count,
    _isolated_root,
    _moment_zeros,
    _moments,
    _polished_zeros,
    _rects,
    _root_target,
    _windings,
)
from coverlab.expr import Const, differentiate


def find_roots(m, p, r):
    """Distinct solutions of f(z) = p with |z| < r (plus boundary guard).

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
    g, den = _root_target(m, p)
    dg = differentiate(g)
    den = None if isinstance(den, Const) else (den, differentiate(den))
    isolation = max(_ISOLATION_REL * r, 1e-12)
    found = []  # Root(location, order of f - p); the order is <= 0 at a shared zero
    # a split (cell, attempt) cuts the cell at _SPLIT_FRACTIONS[attempt]; the
    # split of no cell is the bounding square, inflated by _INFLATIONS[attempt]
    splits, wound = [(None, 0)], 0
    while splits:
        groups = [_children(cell, attempt, r) for cell, attempt in splits]
        boxes = [box for group in groups for box in group]
        wound += len(boxes)
        if wound > _MAX_CELLS:
            raise WindingError("cell subdivision budget exceeded")
        wind, undecided = _windings(g, dg, _rects(boxes), np.zeros(1, dtype=np.complex128))
        pending, cells, k = [], [], 0
        for (cell, attempt), group in zip(splits, groups):
            windings, unsure = wind[k:k + len(group), 0].tolist(), undecided[k:k + len(group), 0]
            k += len(group)
            if unsure.any():  # a root on a split line or on the square: cut elsewhere
                if attempt + 1 < len(_INFLATIONS if cell is None else _SPLIT_FRACTIONS):
                    pending.append((cell, attempt + 1))
                    continue
                if cell is None:
                    raise ContourPassesThroughRoot("root on the contour")
                raise WindingError("could not avoid a root on subdivision lines")
            cells += [(box, w) for box, w in zip(group, windings) if w > 0]
        for (cell, w), roots in zip(cells, _cell_roots(g, dg, den, cells, 2 * isolation)):
            x0, x1, y0, y1 = cell
            if roots is not None:
                found += roots
            elif max(x1 - x0, y1 - y0) > isolation:
                pending.append((cell, 0))
            else:
                found.append(_isolated_root(g, dg, den, cell, w))
        splits = pending

    # cluster anything closer than the isolation scale
    merged = []
    for root in sorted(found, key=lambda rt: (rt.location.real, rt.location.imag)):
        for k, other in enumerate(merged):
            if abs(other.location - root.location) <= 2 * isolation:
                merged[k] = Root(other.location, other.multiplicity + root.multiplicity)
                break
        else:
            merged.append(root)

    inside = []
    for root in merged:
        if abs(abs(root.location) - r) < 1e-7 * r:
            raise RootOnCircleError(
                f"preimage at {root.location!r} lies on |z| = {r}; perturb r"
            )
        if abs(root.location) < r and root.multiplicity > 0:
            inside.append(root)
    return inside


def _cell_roots(g, dg, den, cells, merge):
    """Root records (location, order of f - p) of the zeros of g in each
    cell (box, w) on which g winds w times, or None where they fail.

    A cell of winding up to _MOMENT_MAX takes its zeros from the moments of
    g'/g on its boundary (_moments, all cells at once).  A zero next to a
    side, or rounding noise of g there, spoils them: then they are taken on
    the cell widened by a quarter of its half-width.  The zeros found in the
    cell must number w.  A simple zero is one to which Newton's iteration
    converges in the cell, apart from the others: w of them are all that
    the winding leaves.  A multiple zero must be one zero, not a cluster of
    simpler ones the moments cannot part: the first of the squares about
    it, growing 4x from the merge distance to as large as lies in the cell
    apart from the other zeros, on which the rounding noise of g leaves a
    count must count all of it.  The order of f - p at a zero comes from
    den's moments on the same nodes: a zero of den whose moment location is
    within 1e-9 of g's takes its multiplicity off.
    """
    result = [None] * len(cells)
    small = [k for k, (_, w) in enumerate(cells) if w <= _MOMENT_MAX]
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
    zooms = []  # (cell, multiplicity, the squares about a multiple zero)
    for k, contour, s, s_den in zip(small, contours, moments, den_moments):
        (x0, x1, y0, y1), w = cells[k]
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
            if mult > 1:
                sides = [merge * 4**i for i in range(30) if merge * 4**i < side] + [side]
                squares = [(z.real - h, z.real + h, z.imag - h, z.imag + h) for h in sides]
                zooms.append((k, mult, squares))
            order = mult - sum(m for pole, m in poles if abs(pole - x) <= 1e-9)
            roots.append(Root(z, order))
        else:
            result[k] = roots
    if zooms:
        squares = [square for _, _, squares in zooms for square in squares]
        counts = [_count(s, 1e-2) for s in _moments(g, dg, squares, 1e-3)]
        for k, mult, squares in zooms:
            first = next((n for n in counts[:len(squares)] if n is not None), None)
            counts = counts[len(squares):]
            if first != mult:
                result[k] = None
    return result
