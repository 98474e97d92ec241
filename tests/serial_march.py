"""The deepest-pixel search with one erosion per binary-search step: the
reference that _march.deepest, which answers every step from one erosion
table, must match bit for bit.

This is deepest as it stood before the table, with the _eroded it called,
kept verbatim apart from their imports."""

import numpy as np

from coverlab._march import _touching


def deepest(row, lo, hi, label, shape):
    """(row, col) of every component's deepest pixel, one row per label: the
    first pixel, in row-major order, at the largest chessboard distance from
    the pixels off the component, where pixels beyond ``shape`` count as on
    it.  Two components touch only at corners, across two pixels off both,
    so this is its depth in the whole pixel set.

    A pixel is deeper than k exactly when it lies in E_k, the component
    eroded by the (2k + 1)-square within the grid.  Every component
    binary-searches its largest k with E_k nonempty, all in lockstep; the
    first pixel of that E_k is its deepest.  A grid-filling component's E_k
    is never empty, and no other depth reaches n_rows + n_cols.
    """
    size = int(label.max(initial=-1)) + 1
    _, first = np.unique(label, return_index=True)
    probe = np.column_stack((row[first], lo[first]))  # the first pixel of E_0
    low, high = np.zeros(size, dtype=int), np.full(size, sum(shape))
    while (high - low > 1).any():
        # a finished component tests its own low again, which changes nothing
        k = (low + high) // 2
        e_row, e_lo, e_label = _eroded(row, lo, hi, label, k, shape)
        hit = np.bincount(e_label, minlength=size) > 0
        low, high = np.where(hit, k, low), np.where(hit, high, k)
        _, first = np.unique(e_label, return_index=True)
        probe[hit] = np.column_stack((e_row[first], e_lo[first]))
    return probe


def _eroded(row, lo, hi, label, k, shape):
    """Runs (row, lo, label) of every component c of the runs (row, lo, hi,
    label), given in raster order, eroded by the (2k[c] + 1)-square within
    the grid; they come in label order, then raster order."""
    n_rows, n_cols = shape
    # across: a run loses k columns at each end off the grid edges
    lo = np.where(lo == 0, 0, lo + k[label])
    hi = np.where(hi == n_cols, n_cols, hi - k[label])
    kept = lo < hi
    # down: k whole rows beyond the first or last grid row, if the component is on it
    top, bottom = np.unique(label[row == 0]), np.unique(label[row == n_rows - 1])
    pad = np.r_[top, bottom]
    count = k[pad]
    step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    pad_row = np.repeat(np.r_[-k[top], np.full(len(bottom), n_rows)], count) + step
    # each component's rows as one key, far enough from the next component's
    # that no gap below spans the distance; a row's runs keep column order
    span = n_rows + 4 * (n_rows + n_cols)
    label = np.r_[label[kept], np.repeat(pad, count)]
    key = label * span + np.r_[row[kept], pad_row]
    lo = np.r_[lo[kept], np.zeros_like(pad_row)]
    hi = np.r_[hi[kept], np.full_like(pad_row, n_cols)]
    order = np.argsort(key, kind="stable")
    key, lo, hi, label = key[order], lo[order], hi[order], label[order]
    # the runs of rows j .. j + length - 1 all hold, as runs of row j; double
    # the length (sparse-table style) until the last step meets 2k + 1 rows
    width = 2 * k + 1
    length = np.ones_like(k)
    while (gap := np.minimum(length, width - length)).any():
        a, b = _touching(key, lo, hi, 0, gap[label])
        key, lo, hi, label = key[a], np.maximum(lo[a], lo[b]), np.minimum(hi[a], hi[b]), label[a]
        length += gap
    return key - label * span + k[label], lo, label
