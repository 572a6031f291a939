"""Locality structures and the optimal-distance bound.

A locality structure lists, for each of m groups, which data symbols
K_i feed it and which coded positions N_i it owns. The K_i may overlap;
the N_i partition the coded positions. All indices are 1-based at this
interface. A structure is its K and N, checked once, when it is made;
k and n are derived, as the largest index each side names.
Its support pattern, the k x n mask of which data symbol each position
may depend on, is built only by `LocalityStructure.support`, on first use.

The largest minimum distance any code with a given structure can reach
is

    dmax = 1 + min over nonempty I of (|union of R_i, i in I| - |I|)

where R_i, row i of the support pattern, is the set of coded positions
whose value may depend on data symbol i. Because each R_i is a union of
whole position blocks, the minimum is attained at
I_T = {i : every group containing i lies in T}
for some group subset T. A subset-sum (zeta) transform gives |I_T| for all 2^m
subsets, in the narrowest unsigned type holding k, with T = h 2^low + l at [h, l]
and low = min(m, 8): over the low bits, row h is the count of symbols per low part
times a subset table, so only the high bits take passes. The value n(T) - |I_T|,
with n(T) the positions T's blocks own, lies in [0, n], as k_g <= n_g, and takes
the narrowest type holding n. The witness is the lowest-numbered minimizing T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    CoverageGap,
    GroupTooSmall,
    OverlapN,
    PreconditionViolated,
    TooManyGroups,
)
from .field import non_integers

MAX_GROUPS = 20
_LOW_BITS = 8  # T's low group bits, summed through _SUBSET_OF; the rest take butterfly passes
_SUBSET_OF = np.fromfunction(lambda a, l: (a & l) == a, (1 << _LOW_BITS,) * 2, dtype=np.uint8)  # a in l: 64 KB

# ---------- types ----------


@dataclass(frozen=True)
class LocalityStructure:
    """Data groups K and coded-position groups N, checked when made and stored as sorted tuples;
    k and n are the largest data index and position mentioned."""

    k: int = field(init=False)
    n: int = field(init=False)
    K: tuple[tuple[int, ...], ...]
    N: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        K, N = _index_groups(self.K, "data index"), _index_groups(self.N, "position")
        if len(K) != len(N) or not K:
            raise CoverageGap("need matching nonempty lists of K and N groups")
        for name, groups, kind, what, unowned in (
            ("k", K, "data set", "data index", "data indices covered by"),
            ("n", N, "position set", "position", "positions owned by"),
        ):
            object.__setattr__(self, name, size := max((g[-1] for g in groups if g), default=0))
            seen: set[int] = set()
            for gi, g in enumerate(groups, start=1):
                if not g:
                    raise CoverageGap(f"group {gi} has an empty {kind}")
                if g[0] < 1:
                    raise CoverageGap(f"group {gi} has {what} {g[0]}, below 1")
                if groups is N and (overlap := seen.intersection(g)):
                    raise OverlapN(f"positions claimed by two groups: {sorted(overlap)}")
                seen.update(g)
            # Indices are in range, so counting settles coverage; the lowest gap is at most len + 1.
            if len(seen) < size:
                lowest = next(i for i in range(1, size + 1) if i not in seen)
                raise CoverageGap(f"{size - len(seen)} {unowned} no group, the lowest {lowest}")

        for gi, (kg, ng) in enumerate(zip(K, N), start=1):
            if len(ng) < len(kg):
                raise GroupTooSmall(
                    f"group {gi}: {len(ng)} coded positions for {len(kg)} data symbols"
                )
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "N", N)

    @property
    def m(self) -> int:
        return len(self.K)

    @cached_property
    def support(self) -> np.ndarray:
        """The support pattern: a read-only k x n bool mask, True at (i - 1, j - 1) when position j
        may depend on data symbol i, i.e. on the union of the K_g x N_g blocks. Built on first use."""
        mask = np.zeros((self.k, self.n), dtype=bool)
        for Kg, Ng in zip(self.K, self.N):
            mask[np.ix_([i - 1 for i in Kg], [j - 1 for j in Ng])] = True
        mask.flags.writeable = False
        return mask


@dataclass(frozen=True)
class DmaxWitness:
    """The bound value with a minimizing group subset and its data set."""

    dmax: int
    blocks: tuple[int, ...]
    data: tuple[int, ...]


# ---------- construction ----------


def blocks_for_sizes(sizes: Sequence[int]) -> list[list[int]]:
    """Consecutive 1-based position blocks of the given sizes."""
    out = []
    start = 1
    for s in sizes:
        out.append(list(range(start, start + s)))
        start += s
    return out


def _index_groups(groups: Sequence[Sequence[int]], what: str) -> tuple[tuple[int, ...], ...]:
    """The groups as sorted tuples of distinct ints; a bool, float or string index raises CoverageGap."""
    if not {type(v) for g in groups for v in g} <= {int}:  # plain ints: one pass over the types
        for gi, g in enumerate(groups, start=1):
            if bad := non_integers(g):
                raise CoverageGap(f"group {gi} has {what} {bad[0]!r}, not an integer")
        groups = [list(map(int, g)) for g in groups]
    return tuple(tuple(sorted(set(g))) for g in groups)


make_structure = LocalityStructure


# ---------- the distance bound ----------


def group_masks(s: LocalityStructure) -> list[int]:
    """Per data symbol (index 0 = symbol 1), the bitmask of the groups holding it (bit 0 = group 1)."""
    sig = [0] * s.k
    for g, Kg in enumerate(s.K):
        for i in Kg:
            sig[i - 1] |= 1 << g
    return sig


def dmax_witness(s: LocalityStructure) -> DmaxWitness:
    """The bound plus the lowest-numbered minimizing group subset and its data."""
    m, low = s.m, min(s.m, _LOW_BITS)
    if m > MAX_GROUPS:
        raise TooManyGroups(f"{m} groups exceed the cap of {MAX_GROUPS}")
    sig = group_masks(s)
    # Zeta transform: cnt[T] = |I_T| <= k, in the narrowest unsigned type holding k, with T = h 2^low + l
    # at [h, l], row-major. Over the low bits row h is sum_a c[h, a] [a in l], c[h, a] the count of symbols
    # of high part h and low part a: one float64 product (exact, on BLAS) with _SUBSET_OF's rows, all for
    # the one row below 9 groups, else those in use: at most min(k, 2^(m - low)) x min(k, 2^low) x 2^low terms.
    masks = np.array(sig)
    cnt = np.zeros((1 << m - low, 1 << low), dtype=np.min_scalar_type(s.k))
    if m == low:
        cnt[0] = np.bincount(masks, minlength=1 << m) @ _SUBSET_OF[: 1 << m, : 1 << m].astype(float)
    else:
        hi, lo = masks >> low, masks & (1 << low) - 1
        high, used = np.flatnonzero(np.bincount(hi)), np.flatnonzero(np.bincount(lo))
        pair = np.searchsorted(high, hi) * len(used) + np.searchsorted(used, lo)
        counts = np.bincount(pair, minlength=len(high) * len(used)).reshape(len(high), -1)
        cnt[high] = counts @ _SUBSET_OF[used].astype(float)
    for g in range(low, m):
        pairs = cnt.reshape(-1, 2, 1 << g)
        pairs[:, 1] += pairs[:, 0]
    # n(T) <= n, in the narrowest unsigned type holding n, doubled a block at a time. |I_T| <= n(T): no wrap.
    value = np.zeros(1 << m, dtype=np.min_scalar_type(s.n))
    for g, block in enumerate(s.N):
        np.add(value[: 1 << g], len(block), value[1 << g : 2 << g])
    value -= cnt.reshape(-1)  # row-major [h, l] is T's own order
    np.copyto(value, value.dtype.type(s.n), where=cnt.reshape(-1) == 0)  # empty I_T: n, above every other value
    T = int(value.argmin())  # the first minimum is the lowest T
    blocks = tuple(g + 1 for g in range(m) if T >> g & 1)
    data = tuple(i for i, groups in enumerate(sig, 1) if groups | T == T)
    return DmaxWitness(1 + int(value[T]), blocks, data)


def dmax(s: LocalityStructure) -> int:
    """Largest global minimum distance achievable for this structure."""
    return dmax_witness(s).dmax


def two_group_params(s: LocalityStructure) -> tuple[int, int, int, int, int]:
    """(n1, k1, n2, k2, t) for a two-group structure."""
    if s.m != 2:
        raise PreconditionViolated(f"need exactly 2 groups, got {s.m}")
    (k1, k2), (n1, n2) = map(len, s.K), map(len, s.N)
    t = len(set(s.K[0]) & set(s.K[1]))
    return n1, k1, n2, k2, t
