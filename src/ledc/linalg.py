"""Dense matrices over a prime field.

Matrices are immutable (flat row-major tuple of residues) and all
operations are pure functions returning fresh values. Elimination runs
on int64 numpy arrays of residues: one matrix a row-vectorised step at a
time (`rank`, `solve`, `nullspace`), or every w-column subset of a matrix
by a walk that shares each prefix of columns (`full_rank_subsets`).
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

# Entries (prefixes x rows x columns) in one slice of the subset walk: it
# holds about one slice per level of its tree, whatever the level's size.
WALK_SLICE = 1 << 16


def full_rank_subsets(f: PrimeField, M: np.ndarray, w: int) -> bool:
    """Does every w-column submatrix of the r x n residue array M have rank min(r, w)?

    Walks the tree of column combinations. A node is a prefix of columns:
    M reduced against them, cut to the columns right of its last one. Each
    chosen column took a row where it is nonzero as pivot and was cleared
    from every row by row * pivot - entry * pivot_row, which needs no inverse
    and zeroes the pivot row, so a child costs one such reduction of its
    parent. A column adds no rank when it is zero in its parent; a subset has
    rank min(r, w) when at most w - min(r, w) of its columns add none. A
    prefix of rank r passes whatever follows, and the last level only tests
    its parents' columns for zeros.
    """
    q = f.q
    r, n = M.shape
    spare = w - min(r, w)

    def walk(R: np.ndarray, last: np.ndarray, dead: np.ndarray, depth: int) -> bool:
        # R is (B, r, W): B prefixes of `depth` columns on the columns n - W ..
        # n - 1, `last` their last columns, `dead` their columns that added no rank.
        lo = n - R.shape[2]
        if depth == w - 1:
            zero = ~R.any(axis=1) & (np.arange(lo, n) > last[:, None])
            return not (zero.any(axis=1) & (dead == spare)).any()
        # Children (prefix, next column) in column order, so each slice is
        # cut to the columns right of its first child's.
        cols = np.arange(lo, n - w + depth + 1)
        at, parents = np.nonzero(last < cols[:, None])
        nexts = cols[at]
        start = 0
        while start < len(parents):
            first = int(nexts[start])
            stop = start + max(1, WALK_SLICE // (r * (n - first)))
            b, c = parents[start:stop], nexts[start:stop]
            start = stop
            col = R[b, :, c - lo]
            p = col.argmax(axis=1)
            i = np.arange(len(b))
            pivot = col[i, p]
            adds = pivot != 0
            np.maximum(pivot, 1, out=pivot)  # a zero column leaves its parent as it is
            child = np.take(R[:, :, first + 1 - lo :], b, axis=0)
            pivot_row = child[i, p]
            child *= pivot[:, None, None]
            child -= col[:, :, None] * pivot_row[:, None, :]
            child -= child // q * q  # mod q: numpy divides by a scalar faster than it takes %
            child_dead = dead[b]
            if not adds.all():
                child_dead += ~adds
                if (child_dead > spare).any():
                    return False
            if depth + 1 >= r:
                live = depth + 1 - child_dead < r
                child, c, child_dead = child[live], c[live], child_dead[live]
            if len(c) and not walk(child, c, child_dead, depth + 1):
                return False
        return True

    if w == 0 or r == 0 or w > n:
        return True
    return walk(np.array(M, dtype=np.int64)[None], np.full(1, -1), np.zeros(1, dtype=np.intp), 0)


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
