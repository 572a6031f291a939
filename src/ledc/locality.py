"""Locality structures and the optimal-distance bound.

A locality structure lists, for each of m groups, which data symbols
K_i feed it and which coded positions N_i it owns. The K_i may overlap;
the N_i partition the coded positions. All indices are 1-based at this
interface.

The largest minimum distance any code with a given structure can reach
is

    dmax = 1 + min over nonempty I of (|union of R_i, i in I| - |I|)

where R_i is the set of coded positions whose value may depend on data
symbol i. Because each R_i is a union of whole position blocks, the
minimum is attained at I_T = {i : every group containing i lies in T}
for some group subset T. A subset-sum (zeta) transform gives |I_T| and
the positions owned by T's blocks for all 2^m subsets in O(m 2^m) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CoverageGap,
    GroupTooSmall,
    OverlapN,
    PreconditionViolated,
    TooManyGroups,
)

MAX_GROUPS = 20

# ---------- types ----------


@dataclass(frozen=True)
class LocalityStructure:
    """Data groups K and coded-position groups N, stored as sorted tuples."""

    k: int
    n: int
    K: tuple[tuple[int, ...], ...]
    N: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.K)

    def k_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.K)

    def n_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.N)


@dataclass(frozen=True)
class DmaxWitness:
    """The bound value with a minimizing group subset and its data set."""

    dmax: int
    blocks: tuple[int, ...]
    data: tuple[int, ...]


# ---------- construction and validation ----------


def blocks_for_sizes(sizes: Sequence[int]) -> list[list[int]]:
    """Consecutive 1-based position blocks of the given sizes."""
    out = []
    start = 1
    for s in sizes:
        out.append(list(range(start, start + s)))
        start += s
    return out


def make_structure(
    K: Sequence[Sequence[int]],
    N: Sequence[Sequence[int]],
    k: Optional[int] = None,
    n: Optional[int] = None,
) -> LocalityStructure:
    """Normalize, validate and return a structure.

    k and n default to the largest mentioned index so that a gap-free
    cover determines them; passing them explicitly lets validation catch
    declared-but-uncovered indices.
    """
    K_norm = tuple(tuple(sorted(set(g))) for g in K)
    N_norm = tuple(tuple(sorted(set(g))) for g in N)
    k_eff = k if k is not None else max((g[-1] for g in K_norm if g), default=0)
    n_eff = n if n is not None else max((g[-1] for g in N_norm if g), default=0)
    return validate(LocalityStructure(k_eff, n_eff, K_norm, N_norm))


def validate(s: LocalityStructure) -> LocalityStructure:
    """Check every structure invariant; returns the normalized structure."""
    if len(s.K) != len(s.N) or s.m == 0:
        raise CoverageGap("need matching nonempty lists of K and N groups")
    K_norm = tuple(tuple(sorted(set(g))) for g in s.K)
    N_norm = tuple(tuple(sorted(set(g))) for g in s.N)

    covered = set()
    for gi, g in enumerate(K_norm, start=1):
        if not g:
            raise CoverageGap(f"group {gi} has an empty data set")
        if g[0] < 1 or g[-1] > s.k:
            raise CoverageGap(f"group {gi} mentions data index outside 1..{s.k}")
        covered.update(g)
    missing = set(range(1, s.k + 1)) - covered
    if missing:
        raise CoverageGap(f"data indices covered by no group: {sorted(missing)}")

    seen: set[int] = set()
    for gi, g in enumerate(N_norm, start=1):
        if not g:
            raise CoverageGap(f"group {gi} has an empty position set")
        if g[0] < 1 or g[-1] > s.n:
            raise CoverageGap(f"group {gi} mentions position outside 1..{s.n}")
        overlap = seen.intersection(g)
        if overlap:
            raise OverlapN(f"positions claimed by two groups: {sorted(overlap)}")
        seen.update(g)
    missing_pos = set(range(1, s.n + 1)) - seen
    if missing_pos:
        raise CoverageGap(f"positions owned by no group: {sorted(missing_pos)}")

    for gi, (kg, ng) in enumerate(zip(K_norm, N_norm), start=1):
        if len(ng) < len(kg):
            raise GroupTooSmall(
                f"group {gi}: {len(ng)} coded positions for {len(kg)} data symbols"
            )
    return LocalityStructure(s.k, s.n, K_norm, N_norm)


def reach(s: LocalityStructure) -> tuple[frozenset[int], ...]:
    """R_i per data symbol i (index 0 = symbol 1): the positions it may touch."""
    out: list[set[int]] = [set() for _ in range(s.k)]
    for Kg, Ng in zip(s.K, s.N):
        for i in Kg:
            out[i - 1].update(Ng)
    return tuple(frozenset(r) for r in out)


# ---------- the distance bound ----------


def dmax_witness(s: LocalityStructure) -> DmaxWitness:
    """The bound plus the lowest-numbered minimizing group subset and its data."""
    s = validate(s)
    if s.m > MAX_GROUPS:
        raise TooManyGroups(f"{s.m} groups exceed the cap of {MAX_GROUPS}")
    sig = [0] * s.k  # bitmask of the groups holding each data symbol
    for g, Kg in enumerate(s.K):
        for i in Kg:
            sig[i - 1] |= 1 << g
    # Zeta transform, one butterfly pass per group: cnt[T] = |I_T|, tot[T] = owned positions.
    cnt = np.bincount(sig, minlength=1 << s.m).astype(np.int32)
    tot = np.zeros(1 << s.m, dtype=np.int32)
    for g, size in enumerate(s.n_sizes()):
        pairs = cnt.reshape(-1, 2, 1 << g)
        pairs[:, 1] += pairs[:, 0]
        tot.reshape(-1, 2, 1 << g)[:, 1] += size
    tot -= cnt
    tot[cnt == 0] = s.n  # above every T with cnt > 0, whose value is at most n - 1
    T = int(tot.argmin())  # the first minimum, so the lowest T wins ties
    blocks = tuple(g + 1 for g in range(s.m) if T >> g & 1)
    data = tuple(i + 1 for i in range(s.k) if sig[i] & ~T == 0)
    return DmaxWitness(1 + int(tot[T]), blocks, data)


def dmax(s: LocalityStructure) -> int:
    """Largest global minimum distance achievable for this structure."""
    return dmax_witness(s).dmax


def two_group_params(s: LocalityStructure) -> tuple[int, int, int, int, int]:
    """(n1, k1, n2, k2, t) for a two-group structure."""
    if s.m != 2:
        raise PreconditionViolated(f"need exactly 2 groups, got {s.m}")
    k1, k2 = s.k_sizes()
    n1, n2 = s.n_sizes()
    t = len(set(s.K[0]) & set(s.K[1]))
    return n1, k1, n2, k2, t
