"""Codes with a locality structure: encoding, decoding, verification.

A LedcCode couples a locality structure with a generator matrix, whose field is the code's. The constructor checks
the matrix's shape only; whether it actually satisfies the support pattern and the local MDS property is the job of
the verification functions, which report rather than raise, so defective matrices can be inspected.

Two independent minimum-distance algorithms are provided on purpose: exhaustive message enumeration and column-rank
certification. They share only the rank-deficiency verdict (distance 0). Golden values in the test suite never rest
on a single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import accumulate, count, islice, pairwise
from math import comb
from types import MappingProxyType
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
from .field import Felt, PrimeField, non_integers
from .linalg import MatrixGF, full_rank_subsets, integer_symbols, nullspace, rank, scaled_powers, solve, vec_mat
from .locality import LocalityStructure, dmax, group_masks

EXHAUSTIVE_BUDGET = 10**9
RANK_BUDGET = 4 * 10**6
# Suffix codewords tabulated at once by the exhaustive search: the table stays
# cache-sized, since every prefix scans all of it.
SUFFIX_CAP = 1 << 15
# Verification enumerates messages by default while q^k stays within this.
AUTO_EXHAUSTIVE_LIMIT = 10**7
# A parity certificate makes P in blocks of about this many products, the first kept across calls in one of 64 tables
# when it has no more entries: design and sweep check the same shapes over and over, each within one block.
PARITY_TABLE_CAP = 1 << 14

# ---------- type ----------


@dataclass(frozen=True)
class LedcCode:
    """A locality structure plus a k x n generator matrix G, checked for shape when made; its field is G's.

    meta holds what a construction or a code file says of it: "method" and "claimed_distance", plus "omega"
    (cyclic; parity_certify's hint, checked against G), "seed" and "attempt" (random) where they apply.
    """

    structure: LocalityStructure
    G: MatrixGF
    meta: dict = dc_field(default_factory=dict, compare=False)
    local_levels: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        s, G = self.structure, self.G
        if G.rows != s.k or G.cols != s.n:
            raise DimensionMismatch(f"generator must be {s.k}x{s.n}, got {G.rows}x{G.cols}")

    @property
    def field(self) -> PrimeField:
        return self.G.field

    @cached_property
    def dmax(self) -> int:
        """locality.dmax of the structure, computed once per code."""
        return dmax(self.structure)

    @cached_property
    def local_generators(self) -> tuple[MatrixGF, ...]:
        """The k_i x n_i generator G[K_i, N_i] per group (index 0 = group 1), each with its own cached RREF."""
        s = self.structure
        return tuple(
            MatrixGF(self.field, self.G.entries[np.ix_([i - 1 for i in Kg], [j - 1 for j in Ng])])
            for Kg, Ng in zip(s.K, s.N)
        )

    @cached_property
    def off_support(self) -> np.ndarray:
        """Read-only k x n mask of G's nonzero entries outside the structure's support pattern."""
        mask = (self.G.entries != 0) & ~self.structure.support
        mask.flags.writeable = False
        return mask

    @cached_property
    def off_columns(self) -> tuple[bool, ...]:
        """Per position (index 0 = position 1): is G's column nonzero off the support pattern, outside its group's K?"""
        return tuple(self.off_support.any(axis=0).tolist())

    @cached_property
    def local_index(self) -> tuple[MappingProxyType, ...]:
        """Per group (index 0 = group 1), a read-only map from each position of N_i to its index in N_i."""
        return tuple(MappingProxyType({p: i for i, p in enumerate(Ng)}) for Ng in self.structure.N)


# ---------- encoding and decoding ----------


def encode(c: LedcCode, x: Sequence[Felt]) -> list[Felt]:
    """Codeword x G, integer symbols x reduced mod q first; positions in N_i depend only on entries in K_i."""
    if len(x) != c.structure.k:
        raise DimensionMismatch(f"data length {len(x)} != k={c.structure.k}")
    q = c.field.q
    return vec_mat(q, [v % q for v in integer_symbols(x)], c.G.entries).tolist()


def local_decode(c: LedcCode, group: int, observed: Sequence[tuple[int, Felt]]) -> dict[int, Felt]:
    """Recover the data symbols K_i from >= k_i symbols inside N_i.

    `observed` pairs are (1-based integer position, value); a value of None is an erasure, which only the position
    checks see. Returns a map from data index to value. A singular local submatrix means the code violates its own
    local MDS invariant and raises SingularSubmatrix; G off the support pattern at an observed position raises
    SupportViolation.
    """
    s = c.structure
    if type(group) is not int and non_integers([group]):
        raise PositionsOutsideGroup(f"group {group!r} is a {type(group).__name__}, not an integer")
    if not 1 <= group <= s.m:
        raise PositionsOutsideGroup(f"no group {group} (have 1..{s.m})")
    positions = [p for p, _ in observed]
    if bad := non_integers(positions):
        raise PositionsOutsideGroup(f"position {bad[0]!r} is a {type(bad[0]).__name__}, not an integer")
    index = c.local_index[group - 1]
    if not index.keys() >= (seen := set(positions)):
        raise PositionsOutsideGroup(f"positions {[p for p in positions if p not in index]} not in group {group}")
    if len(seen) != len(positions):
        raise PositionsOutsideGroup("observed positions must be distinct")
    word: list = [None] * len(index)  # the local word, in N_i's order
    known = []
    for p, v in observed:
        word[index[p]] = v
        if v is not None:
            known.append(p)
    ki = len(s.K[group - 1])
    if len(known) < ki:
        raise NotEnoughSymbols(f"{len(known)} symbols < k_{group}={ki}")
    off = c.off_columns
    if any([off[p - 1] for p in known]):
        i, at = np.argwhere(c.off_support[:, [p - 1 for p in known]])[0]
        raise SupportViolation(f"group {group}: position {known[at]} depends on data {i + 1}, outside K_{group}")
    try:
        x = solve(c.local_generators[group - 1], word)
    except Underdetermined as exc:
        raise SingularSubmatrix(
            f"group {group}: {len(known)} observed columns do not determine the {ki} local data symbols; "
            "local MDS invariant is broken"
        ) from exc
    return dict(zip(s.K[group - 1], x))


def erasure_decode(c: LedcCode, received: Sequence[Optional[Felt]]) -> list[Felt]:
    """Recover the full data vector from a length-n word with erased positions.

    Succeeds exactly when the surviving columns of G have rank k; in particular always for at most d-1 erasures.
    """
    try:
        return solve(c.G, received)
    except Underdetermined as exc:
        erased = sum(v is None for v in received)  # list.count(None) is not there on an object ndarray
        raise UnrecoverableErasurePattern(f"{erased} erasures leave rank below k={c.structure.k}") from exc


# ---------- minimum distance, two ways ----------


def _span(q: int, rows: np.ndarray, start: np.ndarray) -> np.ndarray:
    """start + x @ rows for every x in GF(q)^len(rows), one column each, first row most significant.

    Entries are unsigned, one byte for q <= 128, two for q <= 2^15, else four, so a sum t < 2q of
    two residues reduces with no division as min(t, t - q): for t < q, t - q wraps above t.
    """
    dtype = np.uint8 if q <= 128 else np.uint16 if q <= 1 << 15 else np.uint32
    table = start.astype(dtype)[:, None]
    for mult in (rows[::-1, :, None] * np.arange(q, dtype=np.int64) % q).astype(dtype):  # each row's multiples
        table = (mult[:, :, None] + table[:, None, :]).reshape(len(start), -1)  # the new digit on the outer axis
        np.minimum(table, table - q, out=table)
    return table


def _fit(q: int, rows: Sequence) -> Sequence:
    """The last of `rows` whose span, q^j codewords, fits in one table of max(SUFFIX_CAP, q) columns."""
    return rows[len(rows) - min(len(rows), next(j for j in count(1) if q**j > max(SUFFIX_CAP, q)) - 1) :]


def min_distance_exhaustive(c: LedcCode) -> int:
    """Minimum weight over the nonzero messages, one per scalar class, group by group.

    A symbol is private to group g when its row of G is nonzero in block N_g alone (G decides, so the result is
    exact for any G; a zero row gives 0 at once). Each group's last private rows that _fit span its own suffix
    table on N_g; the other rows form the prefix. Weight adds up over the blocks, so for a prefix word -t each
    group picks its best suffix word alone: the least weight is n minus the sum over g of the most positions of
    N_g where a word of g's table equals t. Only prefixes whose first nonzero entry is 1 are enumerated, one
    leading position at a time, in batches of at most max(SUFFIX_CAP, q); a zero prefix leaves one group's nonzero
    suffix words. A lone group's table is G's last rows. Only a scan that stops early at weight 1 computes rank.
    """
    q, k, n = c.field.q, c.structure.k, c.structure.n
    if q**k > EXHAUSTIVE_BUDGET:
        raise TooLarge(f"q^k = {q}^{k} exceeds the enumeration budget")
    G = c.G.entries[:, [j - 1 for Ng in c.structure.N for j in Ng]]  # block by block: N_g is columns a:z
    blocks = list(pairwise([0, *accumulate(map(len, c.structure.N))]))
    reach = np.logical_or.reduceat(G != 0, [a for a, _ in blocks], axis=1).tolist()  # per row, the blocks it reaches
    if not all(map(any, reach)):
        return 0
    owner = [row.index(True) if sum(row) == 1 else -1 for row in reach]  # a private row's group, else -1
    kept = [_fit(q, [i for i, h in enumerate(owner) if h == g]) for g in range(len(blocks))]
    tables = [_span(q, G[rows, a:z], np.zeros(z - a, dtype=np.int64)) for rows, (a, z) in zip(kept, blocks)]
    zeros = [np.add.reduce((S[:, 1:] == 0).view(np.uint8), axis=0, dtype=np.min_scalar_type(len(S))) for S in tables]
    best = min([n] + [len(S) - int(z.max()) for S, z in zip(tables, zeros) if z.size])
    neg = (q - G[sorted(set(range(k)).difference(*kept))]) % q
    j = len(_fit(q, neg[1:]))
    inner = _span(q, neg[len(neg) - j :], np.zeros(n, dtype=np.int64))  # the last j prefix rows, for every lead
    for lead in range(len(neg)):
        if best <= 1:
            break
        outer, tail = neg[lead + 1 : len(neg) - j], inner[:, : q ** min(j, len(neg) - lead - 1)]
        for s in _span(q, outer, neg[lead]).T if len(outer) else [neg[lead]]:
            T = tail + s.astype(tail.dtype)[:, None]  # a batch of targets, s + x @ (the later rows)
            np.minimum(T, T - q, out=T)
            matched = sum(_most_matches(S, T[a:z]).astype(np.int64) for (a, z), S in zip(blocks, tables))
            best = min(best, n - int(matched.max()))
            if best <= 1:
                break
    return 0 if best == 1 and rank(c.G) < k else best


def _most_matches(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """For each column of T, the most positions at which a codeword (column) of the table S equals it.

    Each step pairs all of the wider of the two with a chunk of the other, at most 4 SUFFIX_CAP pairs, inner loops
    along the wider. The matches, viewed as bytes, add up a position at a time into a counter per pair; it holds len(S).
    """
    short, wide = (T, S) if S.shape[1] >= T.shape[1] else (S, T)
    step, counter = max(1, 4 * SUFFIX_CAP // wide.shape[1]), np.min_scalar_type(len(S))
    most = [
        np.add.reduce((short[:, i : i + step, None] == wide[:, None, :]).view(np.uint8), axis=0, dtype=counter)
        for i in range(0, short.shape[1], step)
    ]
    if short is T:
        return np.concatenate([m.max(axis=1) for m in most])
    return np.maximum.reduce([m.max(axis=0) for m in most])


def check_distance_budget(n: int, d0: int) -> None:
    """Raise TooLarge when the level d >= d0, C(n, d0 - 1) erasure patterns, exceeds RANK_BUDGET."""
    if comb(n, d0 - 1) > RANK_BUDGET:
        raise TooLarge(f"C({n},{d0 - 1}) erasure patterns exceed the budget")


def _level(G: MatrixGF, d0: int) -> bool:
    """Does the code generated by the k x n matrix G have d >= d0 >= 1?

    That is, every e = d0 - 1 erasures leave rank k; equivalently, every e columns of the parity-check matrix
    H = nullspace(G) are independent. The budget is checked before any work. The level then runs on whichever side
    sweeps less: G's k x (n - e) submatrices or H's (n - k) x e ones, compared by rows times columns squared.
    """
    k, n, e = G.rows, G.cols, d0 - 1
    if e > n - k:
        return False
    check_distance_budget(n, d0)
    if k * (n - e) ** 2 <= (n - k) * e**2:
        return full_rank_subsets(G.field, G.entries, n - e)
    H = nullspace(G)
    if len(H) > n - k:
        return False  # G is rank deficient
    return full_rank_subsets(G.field, H, e)


def distance_at_least(c: LedcCode, d0: int) -> bool:
    """Certify d >= d0: every set of d0 - 1 erasures leaves rank k, on G or on H."""
    return d0 <= 0 or _level(c.G, d0)


@lru_cache(maxsize=64)
def _parity_table(q: int, n: int, omega: Optional[int], width: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The n points a_j of a parity hint over GF(q) and the read-only n x width matrix P = diag(w) [a_j^i], i < width,
    as int64 arrays; None when the points repeat.

    With omega, a_j = omega^j and w_j = 1: the BCH roots. Without, a_j = j for j = 1..n and w_j = (-1)^(n-j) C(n-1, j-1)
    = (n-1)! / prod_{l != j} (j - l): the GRS code with these weights is the dual of the Reed-Solomon code on 1..n, and
    the common factor (n-1)!, nonzero as n <= q, leaves M P = 0 as it is.
    """
    if omega is None:
        points = [j % q for j in range(1, n + 1)]
    else:  # omega^j by running products
        points = list(accumulate(range(1, n), lambda a, _: a * omega % q, initial=1))
    if len(set(points)) < n:
        return None
    weights = np.ones(n, dtype=np.int64)
    if omega is None:  # C(n-1, j-1) = (n-1)! / ((j-1)! (n-j)!), from i! and 1 / i! for i < n: one inverse, as n <= q
        factorial = list(accumulate(range(1, n), lambda f, i: f * i % q, initial=1))
        down = accumulate(range(n - 1, 0, -1), lambda f, i: f * i % q, initial=pow(factorial[-1], -1, q))
        inverse = np.array(list(down)[::-1], dtype=np.int64)  # 1 / i!
        weights = factorial[-1] * inverse % q * inverse[::-1] % q
        weights[n % 2 :: 2] = -weights[n % 2 :: 2] % q  # the sign (-1)^(n-j), at j = n - 1, n - 3, ...
    a = np.array(points, dtype=np.int64)
    P = np.array(list(islice(scaled_powers(q, weights, a), width))).T
    a.flags.writeable = P.flags.writeable = False
    return a, P


def _distinct_leads(A: np.ndarray) -> bool:
    """Are the rows of A independent because their first nonzero entries sit in distinct columns?"""
    lead = (A != 0).argmax(axis=1)
    return len(set(lead.tolist())) == len(A) and bool(A[np.arange(len(A)), lead].all())


def parity_certify(M: MatrixGF, delta: int, omega: Optional[int] = None) -> bool:
    """Do parity checks prove that the s rows of M, column j at the point a_j, are independent and span d >= delta?

    They do when M P = 0 for P = diag(w) [a_j^i], i < delta - 1 (see _parity_table), at distinct points with nonzero
    weights: any delta - 1 rows of P form a scaled Vandermonde matrix, so no nonzero codeword has fewer than delta
    nonzeros. Rank s follows from distinct leading columns of M, else of M times the next s columns of P (a power
    block's is anti-triangular), else from rank(M). A wrong hint answers no, as does delta past the Singleton bound
    and, before any point is built, more than RANK_BUDGET products. M P is one product per block of
    PARITY_TABLE_CAP // (s n) columns (at least one), up to the first block with a nonzero check: the first block is
    kept across calls while its entries fit in PARITY_TABLE_CAP, so a check within PARITY_TABLE_CAP products is one
    product with a kept P.
    """
    (s, n), q, X = M.entries.shape, M.field.q, M.entries
    if s * n * (width := delta - 1 + s) > RANK_BUDGET:
        return False
    step = max(1, PARITY_TABLE_CAP // (s * n))
    build = _parity_table if n * min(width, step) <= PARITY_TABLE_CAP else _parity_table.__wrapped__
    if (table := build(q, n, omega, min(width, step))) is None:
        return False
    points, P = table
    blocks = []
    for start in range(0, width, step):  # P's columns, step at a time: one product each
        if start:  # the next block goes on from the last column of the one before
            P = np.array(list(islice(scaled_powers(q, P[:, -1], points), 1, 1 + min(step, width - start)))).T
        blocks.append(vec_mat(q, X, P))
        if np.count_nonzero(blocks[-1][:, : max(0, delta - 1 - start)]):
            return False
    return _distinct_leads(X) or _distinct_leads(np.concatenate(blocks, axis=1)[:, delta - 1 :]) or rank(M) == s


def _local_level(c: LedcCode, g: int, rows: tuple[int, ...], d0: int) -> bool:
    """Does the code that `rows` of group g's local generator spans (index 0 = group 1) have d >= d0?

    parity_certify is tried on the columns in N_g's order, at the roots of c.meta["omega"] if it is there, then at the
    points 1..n_g; else the level is swept. Each level is checked once per code, kept in c.local_levels under
    (g, rows, d0); TooLarge is not kept.
    """
    verdict = c.local_levels.get(key := (g, rows, d0))
    if verdict is None:
        G, omega = c.local_generators[g], c.meta.get("omega")
        sub = G if len(rows) == G.rows else MatrixGF(G.field, G.entries[list(rows)])
        certified = omega is not None and parity_certify(sub, d0, omega) or parity_certify(sub, d0)
        verdict = c.local_levels[key] = certified or _level(sub, d0)
    return verdict


def _subcode_distance(c: LedcCode, g: int, rows: tuple[int, ...]) -> int:
    """Exact distance of the code that `rows` of group g's local generator spans, walked down from the Singleton
    level n_g - len(rows) + 1; 0 when they are dependent, as only then does level 1 fail."""
    d = c.local_generators[g].cols - len(rows) + 1
    while d and not _local_level(c, g, rows, d):
        d -= 1
    return d


def certifies_dmax(c: LedcCode) -> bool:
    """Do the local subcodes alone prove d >= dmax? No global pattern is enumerated.

    Valid for a G on its support pattern, where block N_g of xG is x_{K_g} G_g. For a nonzero message x let A be the
    groups with x_{K_g} != 0. Then supp(x) lies in I_A = {i : every group holding i is in A}, and each block of A is a
    nonzero word of the subcode that the rows K_g & I_A of G_g span, so wt(xG) >= LB(A), the sum over g in A of those
    subcodes' distances, and d >= min LB(A). Two facts keep the search small. LB adds up over the parts of an A that no
    symbol of I_A spans, so only connected A are searched: unions of symbols' group sets, each meeting the union so far.
    And a subcode's distance is at least its group's, d_g, so an A with sum d_g >= dmax, and every A grown from it,
    passes unseen. Each (group, rows) level is checked once per code, by _local_level's parity certificate first (every
    level of a nested or cyclic code passes it); one past the budget gives False.
    """
    s, bound = c.structure, c.dmax
    edges = set(sig := group_masks(s))
    try:
        floor = [_subcode_distance(c, g, tuple(range(len(Kg)))) for g, Kg in enumerate(s.K)]
        todo, seen = list(edges), set(edges)
        while todo:
            A = todo.pop()
            groups = [g for g in range(s.m) if A >> g & 1]
            lb = sum(floor[g] for g in groups)
            if lb >= bound:
                continue
            for g in groups:  # raise the floors one at a time, until A passes
                rows = tuple(j for j, i in enumerate(s.K[g]) if sig[i - 1] & ~A == 0)
                lb += _subcode_distance(c, g, rows) - floor[g]
                if lb >= bound:
                    break
            else:
                return False
            for e in edges:
                if e & A and e & ~A and A | e not in seen:
                    seen.add(A | e)
                    todo.append(A | e)
    except TooLarge:
        return False
    return True


def min_distance_rank(c: LedcCode) -> int:
    """Largest d such that every (n - d + 1)-column submatrix has rank k.

    A code on its support pattern has d = dmax by the paper's bound, with no global enumeration, when `parity_certify`
    proves d >= dmax at the roots of c.meta["omega"] on G's columns group by group, each group ascending (the cyclic
    layout), or else when `certifies_dmax` does. Otherwise the search starts at dmax, which never exceeds n - k + 1, and
    walks up or down. The result rests on two facts: every (d - 1)-erasure pattern leaves rank k, and no larger d holds.
    The second is the paper's bound d <= dmax when G respects the support pattern and d = dmax; otherwise some d-erasure
    pattern leaves rank below k, or d = n - k + 1. Only the levels searched are enumerated, each within RANK_BUDGET.
    Returns 0 when G itself is rank deficient (some nonzero message maps to the zero codeword, so no distance is defined
    in the usual sense).
    """
    d, s, omega, on_support = c.dmax, c.structure, c.meta.get("omega"), not support_violations(c)
    blocks = on_support and omega is not None and MatrixGF(c.field, c.G.entries[:, [j - 1 for Ng in s.N for j in Ng]])
    if on_support and (blocks and parity_certify(blocks, d, omega) or certifies_dmax(c)):
        return d
    if rank(c.G) < s.k:
        return 0
    if distance_at_least(c, d):
        if on_support:
            return d
        while distance_at_least(c, d + 1):
            d += 1
        return d
    while not distance_at_least(c, d - 1):
        d -= 1
    return d - 1


# ---------- verification ----------


def support_violations(c: LedcCode) -> list[tuple[int, int]]:
    """(data index, position) pairs where G is nonzero outside the support pattern."""
    rows, cols = np.nonzero(c.off_support)
    return list(zip((rows + 1).tolist(), (cols + 1).tolist()))


def verify_local_mds(c: LedcCode) -> dict[int, bool]:
    """Group -> does G[K_i, N_i] generate an [n_i, k_i] MDS code.

    A local code is MDS exactly when it has distance n_i - k_i + 1, so each group is that distance level of its local
    generator: proved by `parity_certify` when it holds, else swept on the generator when k_i <= n_i - k_i, on its
    local parity-check matrix otherwise.
    """
    return {
        g + 1: _local_level(c, g, tuple(range(G.rows)), G.cols - G.rows + 1)
        for g, G in enumerate(c.local_generators)
    }


@dataclass(frozen=True)
class VerifyReport:
    support_ok: bool
    local_mds: tuple[bool, ...]
    distance: int
    dmax: int
    optimal: bool
    method: str

    @property
    def all_ok(self) -> bool:
        return self.support_ok and all(self.local_mds) and self.optimal


def verify_ledc(c: LedcCode, distance_method: str = "auto") -> VerifyReport:
    """Aggregate check: support pattern, local MDS, distance, optimality.

    distance_method is one of auto, exhaustive, rank, both; auto uses exhaustive enumeration within its budget and
    rank certification beyond it. Under `both` a disagreement raises DistanceDisagreement.
    """
    q, k, method = c.field.q, c.structure.k, distance_method
    if method == "auto":
        method = "exhaustive" if q**k <= AUTO_EXHAUSTIVE_LIMIT else "rank"
    if method not in ("exhaustive", "rank", "both"):
        raise ValueError(f"unknown distance method {distance_method!r}")
    # Local MDS first: its budget check refuses a code before any enumeration.
    mds = verify_local_mds(c)
    distance = min_distance_rank(c) if method == "rank" else min_distance_exhaustive(c)
    if method == "both" and distance != (by_rank := min_distance_rank(c)):
        raise DistanceDisagreement(f"distance algorithms disagree: enumeration {distance}, rank {by_rank}")
    return VerifyReport(
        support_ok=not support_violations(c),
        local_mds=tuple(mds[g] for g in sorted(mds)),
        distance=distance,
        dmax=c.dmax,
        optimal=distance == c.dmax,
        method=method,
    )
