"""Dense matrices over a prime field.

Matrices are immutable (flat row-major tuple of residues) and all
operations are pure functions returning fresh values. Elimination runs
on int64 numpy arrays of residues, either one matrix a row-vectorised
step at a time (`rref`, `rank`, `solve`, `nullspace`) or a whole stack of
equally shaped matrices at once (`ranks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicatePoint,
    Inconsistent,
    IndexOutOfRange,
    Underdetermined,
)
from .field import Felt, PrimeField

# ---------- type ----------


@dataclass(frozen=True)
class MatrixGF:
    """rows x cols matrix over GF(q), entries stored row-major."""

    field: PrimeField
    rows: int
    cols: int
    entries: tuple[Felt, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    def at(self, i: int, j: int) -> Felt:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Felt, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Felt]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def array(self) -> np.ndarray:
        """A fresh rows x cols int64 array of the entries."""
        return np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)


def make_matrix(f: PrimeField, rows: Sequence[Sequence[int]]) -> MatrixGF:
    """Build a matrix from nested sequences, reducing entries mod q."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    flat: list[Felt] = []
    for r in rows:
        if len(r) != ncols:
            raise DimensionMismatch("ragged rows")
        flat.extend(v % f.q for v in r)
    return MatrixGF(f, nrows, ncols, tuple(flat))


# ---------- elimination ----------
# Both entry points reduce int64 residues mod q after every multiply-subtract;
# for q <= 2^31 - 1 no intermediate exceeds (q-1)^2 + q < 2^63 in size.


def ranks(f: PrimeField, stack: np.ndarray) -> np.ndarray:
    """Rank of each matrix in a (B, r, c) stack of residues, as a (B,) array.

    Per column, each matrix takes its first unused row with a nonzero entry
    as pivot and clears the column from its other unused rows by
    row * pivot - entry * pivot_row, which needs no inverse.
    """
    q = f.q
    m = np.array(stack, dtype=np.int64)
    b, r, c = m.shape
    free = np.ones((b, r), dtype=bool)
    batch = np.arange(b)
    for j in range(c):
        if not free.any():
            break
        col = m[:, :, j]
        cand = (col != 0) & free
        p = cand.argmax(axis=1)
        has = cand[batch, p]
        free[batch, p] &= ~has
        piv = np.where(has, col[batch, p], 1)
        factor = col * free
        pivot_row = m[batch, p, j + 1 :]
        rest = m[:, :, j + 1 :]
        # In place: one (B, r, c) temporary per column instead of four. At
        # RANK_CHUNK matrices each is near glibc's 128 KB mmap and trim
        # thresholds, where every fresh one can cost page faults.
        rest *= piv[:, None, None]
        rest -= factor[:, :, None] * pivot_row[:, None, :]
        rest %= q
    return r - free.sum(axis=1)


def _rref(f: PrimeField, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduce a 2-D residue array to RREF in place, all rows at once per column."""
    q = f.q
    pivots: list[int] = []
    for j in range(a.shape[1]):
        pr = len(pivots)
        if pr == a.shape[0]:
            break
        col = a[pr:, j].tolist()
        src = next((i for i, v in enumerate(col, pr) if v), None)
        if src is None:
            continue
        if src != pr:
            a[[pr, src]] = a[[src, pr]]
        pivot_row = a[pr, j:] * pow(col[src - pr], -1, q) % q
        rest = a[:, j:]
        rest -= a[:, j, None] * pivot_row
        rest %= q
        a[pr, j:] = pivot_row
        pivots.append(j)
    return a, pivots


def rref(m: MatrixGF) -> tuple[MatrixGF, int, list[int]]:
    """Reduced row-echelon form; returns (rref, rank, pivot columns)."""
    a, pivots = _rref(m.field, m.array())
    return MatrixGF(m.field, m.rows, m.cols, tuple(a.ravel().tolist())), len(pivots), pivots


def rank(m: MatrixGF) -> int:
    return len(_rref(m.field, m.array())[1])


def nullspace(m: MatrixGF) -> list[list[Felt]]:
    """Basis of the right kernel {v : m v = 0}.

    One basis vector per free column, in increasing column order, with
    the free variable set to 1.
    """
    q = m.field.q
    reduced, pivot_cols = _rref(m.field, m.array())
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [0] * m.cols
        v[free] = 1
        for r, pc in enumerate(pivot_cols):
            v[pc] = (-int(reduced[r, free])) % q
        basis.append(v)
    return basis


def solve(a: MatrixGF, b: Sequence[Felt]) -> list[Felt]:
    """Solve x a = b for the row vector x (length = a.rows)."""
    if len(b) != a.cols:
        raise DimensionMismatch(f"rhs length {len(b)} != {a.cols} columns")
    # Transpose to the column convention and eliminate the augmented system.
    entries = list(a.entries) + [v % a.field.q for v in b]
    aug = np.array(entries, dtype=np.int64).reshape(a.rows + 1, a.cols).T
    reduced, pivot_cols = _rref(a.field, aug)
    if a.rows in pivot_cols:
        raise Inconsistent("no x satisfies x a = b")
    if len(pivot_cols) < a.rows:
        raise Underdetermined(f"rank {len(pivot_cols)} < {a.rows} unknowns")
    return reduced[: a.rows, a.rows].tolist()


# ---------- builders ----------


def vandermonde(f: PrimeField, points: Sequence[Felt], k: int) -> MatrixGF:
    """k x n matrix with entry (i, j) = points[j]^i."""
    pts = [p % f.q for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoint(f"evaluation points not distinct: {pts}")
    if k > len(pts):
        raise DimensionMismatch(f"k={k} exceeds {len(pts)} points")
    flat: list[Felt] = []
    current = [1] * len(pts)
    for _ in range(k):
        flat.extend(current)
        current = [c * p % f.q for c, p in zip(current, pts)]
    return MatrixGF(f, k, len(pts), tuple(flat))


def submatrix(m: MatrixGF, row_idx: Sequence[int], col_idx: Sequence[int]) -> MatrixGF:
    """Extract rows and columns by 0-based index lists, in the given order."""
    for i in row_idx:
        if not 0 <= i < m.rows:
            raise IndexOutOfRange(f"row {i} outside 0..{m.rows - 1}")
    for j in col_idx:
        if not 0 <= j < m.cols:
            raise IndexOutOfRange(f"column {j} outside 0..{m.cols - 1}")
    entries = tuple(m.at(i, j) for i in row_idx for j in col_idx)
    return MatrixGF(m.field, len(row_idx), len(col_idx), entries)


def row_vec_mul(x: Sequence[Felt], m: MatrixGF) -> list[Felt]:
    """Row vector times matrix: (x m)_j = sum_i x_i m_ij."""
    if len(x) != m.rows:
        raise DimensionMismatch(f"vector length {len(x)} != {m.rows} rows")
    q = m.field.q
    out = [0] * m.cols
    for i, xi in enumerate(x):
        if xi % q == 0:
            continue
        base = i * m.cols
        for j in range(m.cols):
            out[j] += xi * m.entries[base + j]
    return [v % q for v in out]
