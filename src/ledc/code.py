"""Codes with a locality structure: encoding, decoding, verification.

A LedcCode couples a locality structure with a generator matrix. The
constructor checks the matrix's shape and field only; whether it actually
satisfies the support pattern and the local MDS property is the job of
the verification functions, which report rather than raise, so defective
matrices can be inspected.

Two independent minimum-distance algorithms are provided on purpose:
exhaustive message enumeration and column-rank certification. They
share only the rank-deficiency verdict (distance 0). Golden values in
the test suite never rest on a single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import comb
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DistanceDisagreement,
    NotEnoughSymbols,
    PositionsOutsideGroup,
    SingularSubmatrix,
    SupportViolation,
    TooLarge,
    Underdetermined,
    UnrecoverableErasurePattern,
)
from .field import Felt, PrimeField
from .linalg import MatrixGF, full_rank_subsets, nullspace, rank, row_vec_mul, solve, submatrix
from .locality import LocalityStructure, dmax, reach

# Erasure marker inside a received word.
ERASED = None

EXHAUSTIVE_BUDGET = 10**9
RANK_BUDGET = 4 * 10**6
# Suffix codewords tabulated at once by the exhaustive search: the table stays
# cache-sized, since every prefix scans all of it.
SUFFIX_CAP = 1 << 15
# Verification enumerates messages by default while q^k stays within this.
AUTO_EXHAUSTIVE_LIMIT = 10**7

# ---------- type ----------


@dataclass(frozen=True)
class LedcCode:
    """A locality structure plus a k x n generator matrix over GF(q), checked for shape and field when made."""

    structure: LocalityStructure
    field: PrimeField
    G: MatrixGF
    meta: dict = dc_field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        s, G = self.structure, self.G
        if G.rows != s.k or G.cols != s.n:
            raise DimensionMismatch(
                f"generator must be {s.k}x{s.n}, got {G.rows}x{G.cols}"
            )
        if G.field.q != self.field.q:
            raise DimensionMismatch(f"matrix over GF({G.field.q}), expected GF({self.field.q})")

    @cached_property
    def dmax(self) -> int:
        """locality.dmax of the structure, computed once per code."""
        return dmax(self.structure)

    @cached_property
    def local_generators(self) -> tuple[MatrixGF, ...]:
        """The k_i x n_i generator G[K_i, N_i] per group (index 0 = group 1), each with its own cached RREF."""
        s = self.structure
        return tuple(submatrix(self.G, [i - 1 for i in Kg], [j - 1 for j in Ng]) for Kg, Ng in zip(s.K, s.N))

    @cached_property
    def off_support(self) -> np.ndarray:
        """Read-only k x n mask of G's nonzero entries outside their data symbol's reach."""
        mask = self.G.entries != 0
        for i, positions in enumerate(reach(self.structure)):
            mask[i, [j - 1 for j in positions]] = False
        mask.flags.writeable = False
        return mask


# ---------- encoding and decoding ----------


def encode(c: LedcCode, x: Sequence[Felt]) -> list[Felt]:
    """Codeword x G; positions in N_i depend only on entries in K_i."""
    if len(x) != c.structure.k:
        raise DimensionMismatch(f"data length {len(x)} != k={c.structure.k}")
    return row_vec_mul(x, c.G)


def local_decode(
    c: LedcCode, group: int, observed: Sequence[tuple[int, Felt]]
) -> dict[int, Felt]:
    """Recover the data symbols K_i from >= k_i symbols inside N_i.

    `observed` pairs are (1-based position, value). Returns a map from
    data index to value. A singular local submatrix means the code
    violates its own local MDS invariant and raises SingularSubmatrix; G off
    the support pattern at an observed position raises SupportViolation.
    """
    s = c.structure
    if not 1 <= group <= s.m:
        raise PositionsOutsideGroup(f"no group {group} (have 1..{s.m})")
    local = {p: j for j, p in enumerate(s.N[group - 1])}
    positions = [p for p, _ in observed]
    outside = [p for p in positions if p not in local]
    if outside:
        raise PositionsOutsideGroup(f"positions {outside} not in group {group}")
    if len(set(positions)) != len(positions):
        raise PositionsOutsideGroup("observed positions must be distinct")
    ki = len(s.K[group - 1])
    if len(observed) < ki:
        raise NotEnoughSymbols(f"{len(observed)} symbols < k_{group}={ki}")
    # An off-support entry in a column of N_i lies in a row outside K_i.
    off = c.off_support[:, [p - 1 for p in positions]]
    if off.any():
        i, at = np.argwhere(off)[0]
        raise SupportViolation(f"group {group}: position {positions[at]} depends on data {i + 1}, outside K_{group}")
    try:
        x = solve(c.local_generators[group - 1], [v for _, v in observed], [local[p] for p in positions])
    except Underdetermined as exc:
        raise SingularSubmatrix(
            f"group {group}: {len(observed)} observed columns do not determine "
            f"the {ki} local data symbols; local MDS invariant is broken"
        ) from exc
    return dict(zip(s.K[group - 1], x))


def erasure_decode(c: LedcCode, received: Sequence[Optional[Felt]]) -> list[Felt]:
    """Recover the full data vector from a word with erased positions.

    Succeeds exactly when the surviving columns of G have rank k; in
    particular always for at most d-1 erasures.
    """
    s = c.structure
    if len(received) != s.n:
        raise DimensionMismatch(f"received length {len(received)} != n={s.n}")
    cols = [j for j, v in enumerate(received) if v is not ERASED]
    try:
        return solve(c.G, [received[j] for j in cols], cols)
    except Underdetermined as exc:
        raise UnrecoverableErasurePattern(
            f"{s.n - len(cols)} erasures leave rank below k={s.k}"
        ) from exc


# ---------- minimum distance, two ways ----------


def _span(q: int, rows: np.ndarray, start: np.ndarray, dtype) -> np.ndarray:
    """start + x @ rows for every x in GF(q)^len(rows), one column each, first row most significant."""
    table = start.astype(dtype)[:, None]
    for row in rows:
        mult = (row[:, None] * np.arange(q, dtype=np.int64)[None, :] % q).astype(dtype)
        table = (table[:, :, None] + mult[:, None, :]).reshape(len(row), -1) % q
    return table


def min_distance_exhaustive(c: LedcCode) -> int:
    """Minimum weight over the nonzero messages, one per scalar class.

    x and λx have the same weight, so only the (q^k - 1)/(q - 1) messages
    whose first nonzero entry is 1 are enumerated. The last rows span a
    suffix table, one column per codeword; each prefix (a leading 1, then
    any later prefix entries) is one vectorized scan of it. Within the
    budget, the suffix table and each leading position's prefix table
    hold at most max(SUFFIX_CAP, q) codewords. The split only partitions
    the work, never changes the result. Returns 0 when G is rank deficient.
    """
    q, k, n = c.field.q, c.structure.k, c.structure.n
    if q**k > EXHAUSTIVE_BUDGET:
        raise TooLarge(f"q^k = {q}^{k} exceeds the enumeration budget")
    if rank(c.G) < k:
        return 0
    dtype = np.int16 if q <= 16383 else np.int32
    G = c.G.entries

    k_suf = 0
    while k_suf < k and q ** (k_suf + 1) <= max(SUFFIX_CAP, q):
        k_suf += 1
    k_pre = k - k_suf

    S = _span(q, G[k_pre:], np.zeros(n, dtype=np.int64), dtype)
    best = n - _most_matches(S[:, 1:], np.zeros(n, dtype=dtype))
    neg = (q - G[:k_pre]) % q
    for lead in range(k_pre):
        if best <= 1:
            break
        for target in _span(q, neg[lead + 1 :], neg[lead], dtype).T:
            best = min(best, n - _most_matches(S, target))
            if best <= 1:
                break
    return best


def _most_matches(S: np.ndarray, target: np.ndarray) -> int:
    """Most positions at which a codeword (column) of the n x R table S equals target.

    The reduction adds each position's matches into one counter per
    codeword, a position at a time; the counter's dtype holds n.
    """
    return int(np.add.reduce(S == target[:, None], axis=0, dtype=np.min_scalar_type(len(S))).max())


def check_distance_budget(n: int, d0: int) -> None:
    """Raise TooLarge when the level d >= d0, C(n, d0 - 1) erasure patterns, exceeds RANK_BUDGET."""
    if comb(n, d0 - 1) > RANK_BUDGET:
        raise TooLarge(f"C({n},{d0 - 1}) erasure patterns exceed the budget")


def _level(f: PrimeField, G: MatrixGF, d0: int) -> bool:
    """Does the code generated by the k x n matrix G have d >= d0 >= 1?

    That is, every e = d0 - 1 erasures leave rank k; equivalently, every e
    columns of the parity-check matrix H = nullspace(G) are independent.
    The budget is checked before any work. The level then runs on whichever
    side sweeps less: G's k x (n - e) submatrices or H's (n - k) x e ones,
    compared by rows times columns squared.
    """
    k, n = G.rows, G.cols
    e = d0 - 1
    if e > n - k:
        return False
    check_distance_budget(n, d0)
    if k * (n - e) ** 2 <= (n - k) * e**2:
        return full_rank_subsets(f, G.entries, n - e)
    H = nullspace(G)
    if len(H) > n - k:
        return False  # G is rank deficient
    return full_rank_subsets(f, np.array(H, dtype=np.int64).reshape(len(H), n), e)


def distance_at_least(c: LedcCode, d0: int) -> bool:
    """Certify d >= d0: every set of d0 - 1 erasures leaves rank k, on G or on H."""
    return d0 <= 0 or _level(c.field, c.G, d0)


def min_distance_rank(c: LedcCode) -> int:
    """Largest d such that every (n - d + 1)-column submatrix has rank k.

    The search starts at min(dmax, n - k + 1) and walks up or down. The
    result rests on two facts: every (d - 1)-erasure pattern leaves rank
    k, and no larger d holds. The second is the paper's bound d <= dmax
    when G respects the support pattern and d = dmax; otherwise some
    d-erasure pattern leaves rank below k, or d = n - k + 1. Only the
    levels searched are enumerated, each within RANK_BUDGET.

    Returns 0 when G itself is rank deficient (some nonzero message maps
    to the zero codeword, so no distance is defined in the usual sense).
    """
    k, n = c.structure.k, c.structure.n
    if rank(c.G) < k:
        return 0
    bound = c.dmax
    d = min(bound, n - k + 1)
    if distance_at_least(c, d):
        if d == bound and not support_violations(c):
            return d
        while distance_at_least(c, d + 1):
            d += 1
        return d
    while not distance_at_least(c, d - 1):
        d -= 1
    return d - 1


# ---------- verification ----------


def support_violations(c: LedcCode) -> list[tuple[int, int]]:
    """(data index, position) pairs where G is nonzero outside the reach."""
    rows, cols = np.nonzero(c.off_support)
    return list(zip((rows + 1).tolist(), (cols + 1).tolist()))


def verify_local_mds(c: LedcCode) -> dict[int, bool]:
    """Group -> does G[K_i, N_i] generate an [n_i, k_i] MDS code.

    A local code is MDS exactly when it has distance n_i - k_i + 1, so each
    group is that distance level of its local generator: on the generator
    when k_i <= n_i - k_i, on its local parity-check matrix otherwise.
    """
    return {g: _level(c.field, G, G.cols - G.rows + 1) for g, G in enumerate(c.local_generators, start=1)}


@dataclass(frozen=True)
class VerifyReport:
    support_ok: bool
    local_mds: tuple[bool, ...]
    distance: int
    dmax: int
    optimal: bool
    method: str

    @property
    def local_mds_ok(self) -> bool:
        return all(self.local_mds)

    @property
    def all_ok(self) -> bool:
        return self.support_ok and self.local_mds_ok and self.optimal


def verify_ledc(c: LedcCode, distance_method: str = "auto") -> VerifyReport:
    """Aggregate check: support pattern, local MDS, distance, optimality.

    distance_method is one of auto, exhaustive, rank, both; auto uses
    exhaustive enumeration within its budget and rank certification
    beyond it. Under `both` a disagreement raises DistanceDisagreement.
    """
    q, k = c.field.q, c.structure.k
    method = distance_method
    if method == "auto":
        method = "exhaustive" if q**k <= AUTO_EXHAUSTIVE_LIMIT else "rank"
    if method not in ("exhaustive", "rank", "both"):
        raise ValueError(f"unknown distance method {distance_method!r}")
    # Local MDS first: its budget check refuses a code before any enumeration.
    mds = verify_local_mds(c)
    distance = min_distance_rank(c) if method == "rank" else min_distance_exhaustive(c)
    if method == "both" and distance != (by_rank := min_distance_rank(c)):
        raise DistanceDisagreement(
            f"distance algorithms disagree: enumeration {distance}, rank {by_rank}"
        )
    return VerifyReport(
        support_ok=not support_violations(c),
        local_mds=tuple(mds[g] for g in sorted(mds)),
        distance=distance,
        dmax=c.dmax,
        optimal=distance == c.dmax,
        method=method,
    )
