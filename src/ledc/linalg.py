"""Dense matrices over a prime field.

A matrix is an immutable value holding one read-only rows x cols int64
array of residues. Elimination runs on such arrays: one matrix a row at a
time, at most once per matrix and cached for `rank`, `nullspace` and
`solve` (O(rows x (rows + cols)) memory per matrix, none per call), or
every w-column subset of a matrix by a walk that shares each prefix of
columns (`full_rank_subsets`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

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


@dataclass(frozen=True, eq=False)
class MatrixGF:
    """rows x cols matrix over GF(q): one read-only int64 array of residues."""

    field: PrimeField
    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=np.int64)
        if a.ndim != 2:
            raise DimensionMismatch(f"a matrix needs 2-D entries, got {a.ndim}-D")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, MatrixGF) and self.field == other.field
        return same and np.array_equal(self.entries, other.entries)

    def to_rows(self) -> list[list[Felt]]:
        return self.entries.tolist()

    @cached_property
    def echelon(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """(R, T, P) from the RREF [R | T] of [M | I_rows], reduced once per matrix.

        R is M's RREF, T M = R and P its pivot columns. With full row rank P is an
        information set: R[:, P] = I and T = M[:, P]^-1. R and T are read-only.
        """
        k, n = self.entries.shape
        reduced = np.eye(k, n + k, n, dtype=np.int64)
        reduced[:, :n] = self.entries
        pivots = tuple(p for p in _rref(self.field, reduced)[1] if p < n)
        reduced.flags.writeable = False
        return reduced[:, :n], reduced[:, n:], pivots


def make_matrix(f: PrimeField, rows: Sequence[Sequence[int]]) -> MatrixGF:
    """Build a matrix from nested sequences, reducing entries mod q."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch("ragged rows")
    entries = np.array([[v % f.q for v in r] for r in rows], dtype=np.int64)
    return MatrixGF(f, entries.reshape(len(rows), ncols))


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
    return len(m.echelon[2])


def nullspace(m: MatrixGF) -> list[list[Felt]]:
    """Basis of the right kernel {v : m v = 0}.

    One basis vector per free column, in increasing column order, with
    the free variable set to 1.
    """
    R, _, pivots = m.echelon
    rows = R[: len(pivots)].tolist()
    basis = []
    for free in (j for j in range(m.cols) if j not in pivots):
        v = [0] * m.cols
        v[free] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[free] % m.field.q
        basis.append(v)
    return basis


def solve(a: MatrixGF, b: Sequence[Felt], cols: Optional[Sequence[int]] = None) -> list[Felt]:
    """Solve x a[:, cols] = b for x through a's cached RREF; distinct `cols`, all by default.

    With u = x T^-1 the system is u R[:, cols] = b, and only R's first
    r = rank(a) rows are nonzero, with R[:r, P] = I on the pivot columns P.
    Each pivot column in `cols` gives its u_t; the pivots E left out solve
    u_E R[E, F] = b_F - u R[:r, F] over the other columns F (u still zero on
    E), by elimination of the augmented transpose; then x = u T. That small
    system has the solutions of the whole one, so Inconsistent is checked first
    and Underdetermined follows, also when r < rows.
    """
    cols = np.arange(a.cols) if cols is None else np.asarray(cols, dtype=np.intp)
    if len(b) != len(cols):
        raise DimensionMismatch(f"rhs length {len(b)} != {len(cols)} columns")
    q, k = a.field.q, a.rows
    b = np.array([v % q for v in b], dtype=np.int64)
    R, T, pivots = a.echelon
    r = len(pivots)
    slot = np.full(a.cols, -1)  # slot[P[t]] = t
    slot[list(pivots)] = np.arange(r)
    at = slot[cols]
    known = at >= 0
    u = np.zeros(r, dtype=np.int64)
    u[at[known]] = b[known]
    erased = np.ones(r, dtype=bool)
    erased[at[known]] = False
    F = cols[~known]
    rhs = (b[~known] - (u[:, None] * R[:r, F] % q).sum(axis=0)) % q
    e = int(erased.sum())
    reduced, small = _rref(a.field, np.vstack([R[:r][erased][:, F], rhs[None]]).T)
    if e in small:
        raise Inconsistent("no x satisfies x a = b")
    if len(small) < e or r < k:
        raise Underdetermined(f"rank {r - e + len(small)} < {k} unknowns")
    u[erased] = reduced[:e, e]
    return ((u[:, None] * T % q).sum(axis=0) % q).tolist()


# ---------- builders ----------


def vandermonde(f: PrimeField, points: Sequence[Felt], k: int) -> MatrixGF:
    """k x n matrix with entry (i, j) = points[j]^i."""
    pts = [p % f.q for p in points]
    if len(set(pts)) != len(pts):
        raise DuplicatePoint(f"evaluation points not distinct: {pts}")
    if k > len(pts):
        raise DimensionMismatch(f"k={k} exceeds {len(pts)} points")
    powers = [[pow(p, i, f.q) for p in pts] for i in range(k)]
    return MatrixGF(f, np.array(powers, dtype=np.int64).reshape(k, len(pts)))


def submatrix(m: MatrixGF, row_idx: Sequence[int], col_idx: Sequence[int]) -> MatrixGF:
    """Extract rows and columns by 0-based index lists, in the given order."""
    for i in row_idx:
        if not 0 <= i < m.rows:
            raise IndexOutOfRange(f"row {i} outside 0..{m.rows - 1}")
    for j in col_idx:
        if not 0 <= j < m.cols:
            raise IndexOutOfRange(f"column {j} outside 0..{m.cols - 1}")
    return MatrixGF(m.field, m.entries.take(row_idx, axis=0).take(col_idx, axis=1))


def row_vec_mul(x: Sequence[Felt], m: MatrixGF) -> list[Felt]:
    """Row vector times matrix: (x m)_j = sum_i x_i m_ij, each product reduced before the sum."""
    if len(x) != m.rows:
        raise DimensionMismatch(f"vector length {len(x)} != {m.rows} rows")
    q = m.field.q
    v = np.array([xi % q for xi in x], dtype=np.int64)
    return ((v[:, None] * m.entries % q).sum(axis=0) % q).tolist()
