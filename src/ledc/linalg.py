"""Dense matrices over a prime field.

A matrix is an immutable value holding one read-only rows x cols int64 array of residues, made one way:
MatrixGF(f, rows). Elimination runs on such arrays: one matrix a row at a time, once per matrix and cached for
`rank`, `nullspace` and `solve`, or every w-column subset by a walk that shares each prefix (`full_rank_subsets`).
The first `solve` also caches a decode plan, R's non-pivot columns in Python ints (about the echelon's bytes again
at q <= 257, up to 5 times them past 2^30) and their supports; a call reads the word once, then only the equations
that can add rank, and re-encodes in one `vec_mat` product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import mul
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, Inconsistent, PreconditionViolated, Underdetermined
from .field import Felt, PrimeField, non_integers

# ---------- type ----------


@dataclass(frozen=True, eq=False)
class MatrixGF:
    """rows x cols matrix over GF(q): one read-only int64 array of residues, reduced mod q when made."""

    field: PrimeField
    entries: np.ndarray

    def __post_init__(self) -> None:
        a = self.entries
        if not isinstance(a, np.ndarray) or a.dtype.kind != "i":  # each entry's own type decides, as numpy
            a = np.array(a, dtype=object)  # alone reads bools among ints as ints and big ints as floats
        if a.ndim != 2:
            raise DimensionMismatch(f"a matrix needs 2-D entries in rows of equal length, got {a.ndim}-D")
        boxed = a.dtype.kind == "O"
        if boxed and (bad := sorted({type(v).__name__ for v in non_integers(a.ravel())})):
            raise PreconditionViolated(f"matrix entries must be integers, got {', '.join(bad)}")
        q = self.field.q  # Python ints past int64 are reduced exactly, before the cast
        a = np.asarray(a % q if boxed else a, dtype=np.int64) % q  # a new array, whatever was passed
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
    def echelon(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """(RT, P): RT = [R | T], the RREF of [M | I_rows] in one read-only array, reduced once per matrix.

        R = RT[:, :cols] is M's RREF, T = RT[:, cols:] has T M = R, and P are R's pivot columns. With full row rank
        P is an information set: R[:, P] = I and T = M[:, P]^-1.
        """
        k, n = self.entries.shape
        reduced = np.eye(k, n + k, n, dtype=np.int64)
        reduced[:, :n] = self.entries
        pivots = tuple(p for p in _rref(self.field, reduced)[1] if p < n)
        reduced.flags.writeable = False
        return reduced, pivots

    @cached_property
    def decode_plan(self) -> tuple[tuple[Optional[int], ...], tuple, tuple[int, ...], np.ndarray]:
        """Built by the first `solve`: per column j its pivot index, else R[:r, j] in Python ints; per column the bits t
        with R[t, j] != 0; and [R | T][:r]."""
        RT, pivots = self.echelon
        at = tuple(map({p: t for t, p in enumerate(pivots)}.get, range(self.cols)))
        R = RT[: len(pivots), : self.cols].T.tolist()
        support = tuple(sum(1 << t for t, v in enumerate(c) if v) for c in R)
        return at, tuple(None if t is not None else c for t, c in zip(at, R)), support, RT[: len(pivots)]


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
    return len(m.echelon[1])


def nullspace(m: MatrixGF) -> np.ndarray:
    """Basis of the right kernel {v : m v = 0}, one row of an int64 array each.

    One basis vector per free column, in increasing column order, with
    the free variable set to 1.
    """
    RT, pivots = m.echelon
    free = [j for j in range(m.cols) if j not in pivots]
    H = np.zeros((len(free), m.cols), dtype=np.int64)
    H[:, free] = np.eye(len(free), dtype=np.int64)
    H[:, list(pivots)] = -RT[: len(pivots), free].T % m.field.q
    return H


def solve(a: MatrixGF, word: Sequence[Optional[Felt]]) -> list[Felt]:
    """Solve x a = word on the columns where the word is known (an integer, not None), through a's decode plan.

    With u = x T^-1 the system is u R = word there, R[:r, P] = I on the pivot columns P. One pass over the word gives
    u at the known pivots (0 at the erased ones E) and the known columns F outside P. Forward elimination reads F in
    column order, each column an equation u_E R[E, j] = word[j] - u R[:r, j], until |E| independent ones: it skips a
    column while the pivot rows so far span every row supported where the equations read reach, and the column's
    support lies there, and a dependent equation read needs a zero right-hand side. Back substitution writes u_E into
    u; one product u [R | T][:r] re-encodes, which must match the word on F (pivots match by construction), and its
    last k entries are x. If F runs out first, the skipped equations are reduced too. Inconsistent is checked first,
    then Underdetermined.
    """
    if len(word) != a.cols:
        raise DimensionMismatch(f"word length {len(word)} != {a.cols} columns")
    word = integer_symbols(word, erasable=True)
    (at, columns, support, RT), q, k = a.decode_plan, a.field.q, a.rows
    r = len(RT)
    u, E, F = [0] * r, [], []
    for j, v, t in zip(range(a.cols), word, at):
        if v is None:
            if t is not None:
                E.append(t)
        elif t is None:
            F.append(j)
        else:
            u[t] = v % q
    if E:
        basis: list = [None] * len(E)  # basis[p]: an equation [row | rhs], 0 before p; inverse[p]: 1 / its entry at p
        inverse = basis.copy()

        def reduced(j: int) -> tuple[list[int], int]:
            """Column j's equation and its first nonzero with no pivot row (len(E) when none), reduced up to there."""
            column = columns[j]
            eq = [*map(column.__getitem__, E), (word[j] - sum(map(mul, u, column))) % q]
            for p, pivot in enumerate(basis):
                if c := eq[p]:
                    if pivot is None:
                        return eq, p
                    c = c * inverse[p] % q
                    eq = [(e - c * b) % q for e, b in zip(eq, pivot)]
            if eq[-1]:
                raise Inconsistent("no x satisfies x a = b")
            return eq, len(E)

        erased = sum(1 << t for t in E)
        reach, have, skipped = 0, 0, []  # bits t of E: the supports of the equations read, the pivot rows found
        for j in F:
            if not (s := support[j] & erased) & ~have and reach == have:  # a combination of the pivot rows
                skipped.append(j)
                continue
            reach |= s
            eq, p = reduced(j)
            if p < len(E):
                basis[p], inverse[p] = eq, pow(eq[p], -1, q)
                if (have := have | 1 << E[p]) == erased:
                    break
        else:
            for j in skipped:
                reduced(j)
            raise Underdetermined(f"rank {r - basis.count(None)} < {k} unknowns")
        for p in reversed(range(len(E))):  # back substitution; u is still 0 at E[: p + 1], basis[p] 0 before p
            u[E[p]] = (basis[p][-1] - sum(map(mul, basis[p], map(u.__getitem__, E)))) * inverse[p] % q
    encoded = vec_mat(q, u, RT).tolist()
    if any(word[j] % q != encoded[j] for j in F):
        raise Inconsistent("no x satisfies x a = b")
    if r < k:
        raise Underdetermined(f"rank {r} < {k} unknowns")
    return encoded[a.cols :]


def integer_symbols(word: Sequence, erasable: bool = False) -> Sequence:
    """The word, numpy integers made ints; a bool, float or string symbol (None unless `erasable`) raises."""
    if set(map(type, word)) <= {int, type(None) if erasable else int}:  # plain ints: one pass over the types
        return word
    if bad := {type(v).__name__ for v in non_integers([v for v in word if v is not None or not erasable])}:
        raise PreconditionViolated(f"symbols must be integers, got {', '.join(sorted(bad))}")
    return [v if v is None else int(v) for v in word]  # numpy scalar arithmetic would wrap


def vec_mat(q: int, x: Sequence | np.ndarray, M: np.ndarray) -> np.ndarray:
    """x M mod q for residues x, a vector or matrix of rows of length l: one int64 product while l (q-1)^2 < 2^63,
    else Horner over b-bit limbs of x, acc = (acc 2^b + limb M) mod q, b the widest with (l+1) 2^b (q-1) < 2^63."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape[-1] * (q - 1) ** 2 < 1 << 63:
        return x @ M % q
    b = (((1 << 63) - 1) // ((x.shape[-1] + 1) * (q - 1))).bit_length() - 1
    acc = 0
    for shift in reversed(range(0, (q - 1).bit_length(), b)):
        acc = (acc * (1 << b) + (x >> shift & (1 << b) - 1) @ M) % q
    return acc


def scaled_powers(q: int, X: np.ndarray, points: np.ndarray) -> Iterator[np.ndarray]:
    """X diag(a)^i for i = 0, 1, ...: each entry of X's last axis times its point's powers, one X at a time."""
    return accumulate(repeat(points), lambda Y, a: Y * a % q, initial=X)
