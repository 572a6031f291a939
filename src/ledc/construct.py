"""Generator-matrix constructions for two-group and general structures.

Three methods are provided.

* construct_nested: two groups, one Vandermonde block per group with the
  group's private data rows first, so that the private rows generate a
  smaller MDS code nested inside the full local code. Reaches the
  distance bound whenever the shared-symbol count t is at most the larger
  group redundancy plus one.

* construct_cyclic: two groups with equal redundancy r, any t, and
  n1 + n2 <= q - 1. Every row, a polynomial as a coefficient tuple (see
  ledc.poly), vanishes at w^0..w^(r+t-1), the roots of
  u = prod_{j<r+t} (x - w^j), which forces global distance r + t + 1;
  both local projections vanish at the roots of g2 = prod_{j<r} (x - w^j)
  and hence are MDS. Shared row l is g2 times Lemma 3's vector over the
  exponents {0..t-l} + {T_l..T_l+l-1}, T_l = r + k2 + t - 2l + 1. They
  are distinct, as t - l < T_l (k2 >= t >= l), and below q - 1, as
  T_l + l - 1 <= n2 + t - 1 < n1 + n2, so with w primitive the nodes w^e
  are distinct units and the closed form needs no check.

* construct_random: any structure. Samples the free entries uniformly
  and keeps the first attempt whose local codes are MDS and whose
  distance certifies at the structure bound. The sampling stream is a
  counter-based SplitMix64 generator, fully specified in the README, so
  results are reproducible bit for bit from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import prod
from typing import Optional

import numpy as np

from .code import LedcCode, check_distance_budget, min_distance_rank, verify_local_mds
from .errors import ExhaustedAttempts, FieldTooSmall, NotPrimitive, PreconditionViolated
from .field import Felt, PrimeField, find_primitive, is_primitive, non_integers
from .linalg import MatrixGF, scaled_powers
from .locality import LocalityStructure, dmax, two_group_params
from .poly import linear_factor_product, poly_eval, poly_mul

# ---------- nested Vandermonde construction ----------


def construct_nested(s: LocalityStructure, f: PrimeField) -> LedcCode:
    """One Vandermonde block per group: G[K_g, N_g] has entry (i, j) = j^i, i < k_g, 1 <= j <= n_g.

    The rows of K_g are its private data symbols first, then the shared
    ones, each in index order, so the private rows generate a smaller MDS
    code nested inside the group's local code. The resulting
    distance is exactly min(r1, r2) + t + 1, which equals the structure
    bound under the stated preconditions.
    """
    n1, k1, n2, k2, t = two_group_params(s)
    if f.q < max(n1, n2):
        raise FieldTooSmall(
            f"need q >= max(n1, n2) = {max(n1, n2)} distinct evaluation "
            f"points, got q = {f.q}"
        )
    if t >= min(k1, k2):
        raise PreconditionViolated(
            f"nested pairs need a private data symbol in each group "
            f"(t < min(k1, k2)); got t={t}, k1={k1}, k2={k2}"
        )
    r1, r2 = n1 - k1, n2 - k2
    if t > max(r1, r2) + 1:
        raise PreconditionViolated(
            f"construction requires n2 - k2 + 1 >= t once groups are ordered "
            f"by redundancy; got t={t} > {max(r1, r2) + 1}"
        )
    G = np.zeros((s.k, s.n), dtype=np.int64)
    for Kg, Ng, other in zip(s.K, s.N, (set(s.K[1]), set(s.K[0]))):
        rows = sorted(Kg, key=lambda i: i in other)  # private first; the sort is stable
        points = np.arange(1, len(Ng) + 1, dtype=np.int64)
        block = list(islice(scaled_powers(f.q, np.ones_like(points), points), len(Kg)))  # row i: j^i mod q
        G[np.ix_([i - 1 for i in rows], [j - 1 for j in Ng])] = block
    meta = {"method": "nested", "claimed_distance": min(r1, r2) + t + 1}
    return LedcCode(s, MatrixGF(f, G), meta)


# ---------- cyclic polynomial construction ----------


@dataclass(frozen=True)
class CyclicIngredients:
    """The polynomials behind a cyclic code, as coefficient tuples in ascending degree.

    u = prod_{j<r+t} (x - w^j) generates both groups' private rows (the
    paper's v and g1 are u too), g2 = prod_{j<r} (x - w^j) divides every
    a_l and b_l, and shared row l (index l-1 of T, a and b) is the
    polynomial x^(k1-t+l-1) (a_l + x^(T_l) b_l); G holds those rows.
    With no shared data symbol (t = 0), u = g2 and T, a and b are empty.
    """

    omega: Felt
    u: tuple[int, ...]
    g2: tuple[int, ...]
    T: tuple[int, ...]
    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]


def _lemma3(f: PrimeField, omega: Felt, exponents: list[int], r: int) -> list[int]:
    """Lemma 3's vector over t + 1 exponents, distinct and below q - 1 as construct_cyclic's are (see the module
    docstring), so that the nodes y_e = w^e are distinct units: c_e = y_e^(-r) / prod_{e' != e} (y_e - y_e'), c_0 = 1.

    c spans the kernel of (y_e^j), j = r .. r + t - 1: for deg p < t, sum_e p(y_e) / prod_{e' != e} (y_e - y_e') is
    the x^t coefficient of p's interpolant through the nodes, 0, and any t columns form a scaled Vandermonde matrix.
    """
    nodes = [pow(omega, e, f.q) for e in exponents]
    weights = [pow(y, r, f.q) * prod(y - z for z in nodes if z != y) % f.q for y in nodes]
    return [weights[0] * pow(w, -1, f.q) % f.q for w in weights]  # 1 / weight_e, scaled so c_0 = 1


def construct_cyclic(
    s: LocalityStructure, f: PrimeField, omega: Optional[Felt] = None
) -> tuple[LedcCode, CyclicIngredients]:
    """Equal-redundancy two-group construction from shared-root polynomials.

    The canonical array, over group 1's positions then group 2's, holds
    group 1's private rows x^i u, then shared row l as a_l in columns
    [k1-t+l-1, n1) and b_l in [n1+k2-l, n), slots exactly as long as the
    polynomials, then group 2's private rows x^(n1+j) u; one scatter
    places it in the structure's indexing.

    Returns the code and its ingredients; with no shared data symbol (t = 0) every row is private.
    """
    n1, k1, n2, k2, t = two_group_params(s)
    r = n1 - k1
    if n2 - k2 != r:
        raise PreconditionViolated(f"equal redundancies required; got n1-k1={r}, n2-k2={n2 - k2}")
    if n1 + n2 > f.q - 1:
        raise PreconditionViolated(f"need n1 + n2 <= q - 1, got {n1 + n2} > {f.q - 1}")
    if t >= s.k:
        raise PreconditionViolated(
            "both groups use the same data symbols (t = k); encode a plain "
            "MDS code instead of an overlapping structure"
        )
    if omega is not None and non_integers([omega]):
        raise PreconditionViolated(f"omega must be an integer, got {type(omega).__name__}")
    if omega is not None and not is_primitive(f, int(omega)):
        raise NotPrimitive(f"{omega} does not generate the units of GF({f.q})")
    omega = find_primitive(f) if omega is None else int(omega) % f.q

    roots = [pow(omega, j, f.q) for j in range(r + t)]
    g2 = linear_factor_product(f, roots[:r])
    u = poly_mul(f, g2, linear_factor_product(f, roots[r:]))  # g2 times the t roots past it
    T = tuple((n1 + k2 - ell) - (k1 - t + ell - 1) for ell in range(1, t + 1))
    c = [_lemma3(f, omega, [*range(t - ell + 1), *range(Tl, Tl + ell)], r) for ell, Tl in enumerate(T, 1)]
    a = tuple(poly_mul(f, g2, c_l[: t - ell + 1]) for ell, c_l in enumerate(c, 1))
    b = tuple(poly_mul(f, g2, c_l[t - ell + 1 :]) for ell, c_l in enumerate(c, 1))

    canonical = np.zeros((s.k, s.n), dtype=np.int64)
    for row, col in [*zip(range(k1 - t), range(n1)), *zip(range(k1, s.k), range(n1, s.n))]:  # private rows
        canonical[row, col : col + r + t + 1] = u
    for ell in range(1, t + 1):
        canonical[k1 - t + ell - 1, k1 - t + ell - 1 : n1] = a[ell - 1]
        canonical[k1 - t + ell - 1, n1 + k2 - ell :] = b[ell - 1]
    K1, K2 = set(s.K[0]), set(s.K[1])
    data_order = sorted(K1 - K2) + sorted(K1 & K2) + sorted(K2 - K1)
    G = np.zeros((s.k, s.n), dtype=np.int64)
    G[np.ix_([i - 1 for i in data_order], [j - 1 for j in s.N[0] + s.N[1]])] = canonical
    meta = {"method": "cyclic", "omega": omega, "claimed_distance": r + t + 1}
    ingredients = CyclicIngredients(omega=omega, u=u, g2=g2, T=T, a=a, b=b)
    return LedcCode(s, MatrixGF(f, G), meta), ingredients


@dataclass(frozen=True)
class CyclicConditionReport:
    nonzero_constants: bool
    u_roots: bool
    ab_roots: bool
    c_roots: bool
    c_halves: bool

    @property
    def all_ok(self) -> bool:
        return all(vars(self).values())


def verify_cyclic_conditions(ing: CyclicIngredients, s: LocalityStructure, f: PrimeField) -> CyclicConditionReport:
    """Check the paper's conditions on the ingredients, which prove the code's design.

    Every global row (x^i u, x^(n1+j) u and the shared rows
    x^(k1-t+l-1) (a_l + x^(T_l) b_l)) vanishes at w^0..w^(r+t-1), giving
    distance at least r+t+1; both local projections, made of u, a_l and
    b_l shifted, vanish at w^0..w^(r-1), and nonzero constants give each
    row its own lowest term, so every local code is MDS and G has full
    rank. w is primitive and r + t <= n1 < q - 1, so the roots are
    distinct and nonzero. c_halves checks that each polynomial fills its
    slot exactly (u: r+t+1 coefficients, a_l: r+t-l+1, b_l: r+l), so no
    row spills into another's columns, and that T is the structure's.
    """
    n1, k1, _, k2, t = two_group_params(s)
    q, r = f.q, n1 - k1
    roots = [pow(ing.omega, j, q) for j in range(r + t)]
    T = tuple((n1 + k2 - ell) - (k1 - t + ell - 1) for ell in range(1, t + 1))
    halves = (*ing.a, *ing.b)
    return CyclicConditionReport(
        nonzero_constants=all(p and p[0] % q for p in (ing.u, *halves)),
        u_roots=all(poly_eval(f, ing.u, z) == 0 for z in roots),
        ab_roots=all(poly_eval(f, p, z) == 0 for p in halves for z in roots[:r]),
        c_roots=all(
            (poly_eval(f, a, z) + pow(z, Tl, q) * poly_eval(f, b, z)) % q == 0
            for a, b, Tl in zip(ing.a, ing.b, T)
            for z in roots
        ),
        c_halves=ing.T == T
        and [len(p) for p in (ing.u, *halves)] == [r + t + 1, *range(r + t, r, -1), *range(r + 1, r + t + 1)],
    )


# ---------- randomized construction ----------

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class _SplitMix64:
    """The SplitMix64 sequence; the exact stream is documented in the README."""

    def __init__(self, state: int):
        self.state = state & _M64

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _M64
        z = self.state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
        return z ^ (z >> 31)

    def below(self, q: int) -> int:
        """Uniform draw in [0, q) by rejection, bias free."""
        limit = (1 << 64) - ((1 << 64) % q)
        while True:
            v = self.next64()
            if v < limit:
                return v % q


def construct_random(
    s: LocalityStructure, f: PrimeField, seed: int, max_attempts: int
) -> LedcCode:
    """Sample supported entries uniformly until a code meets the bound.

    Entries are drawn row by row in ascending (data index, position)
    order over the support pattern; everything off it stays zero.
    An attempt is judged as `verify --distance-method rank` judges a code:
    it is accepted when every local code is MDS (`verify_local_mds`) and
    `min_distance_rank` puts it at the structure bound. Attempts are
    independent streams, so the result is the lowest-numbered succeeding
    attempt regardless of evaluation order. Otherwise ExhaustedAttempts
    carries the locally MDS attempt of largest distance, or None if no
    attempt was locally MDS. TooLarge is raised before the first attempt
    when a group's local-MDS level, C(n_i, n_i - k_i) patterns, exceeds the
    rank budget. Later it comes from `min_distance_rank`, at the first
    attempt that needs a global level past the budget: C(n, dmax - 1)
    erasure patterns when the local certificate fails, or a lower level's
    when the attempt misses dmax.
    """
    if max_attempts < 1:
        raise PreconditionViolated(f"max_attempts must be >= 1, got {max_attempts}")
    support = s.support
    draws = np.count_nonzero(support)
    bound = dmax(s)
    for Kg, Ng in zip(s.K, s.N):  # the local levels every attempt runs, before any attempt
        check_distance_budget(len(Ng), len(Ng) - len(Kg) + 1)
    best_code: Optional[LedcCode] = None
    best_distance = 0
    master = _SplitMix64(seed)
    for attempt in range(max_attempts):
        stream = _SplitMix64(master.next64())  # attempt a: the (a+1)-th master output
        G = np.zeros(support.shape, dtype=np.int64)
        G[support] = [stream.below(f.q) for _ in range(draws)]  # in row-major order, as documented
        meta = {"method": "random", "seed": seed, "attempt": attempt, "claimed_distance": bound}
        code = LedcCode(s, MatrixGF(f, G), meta)
        if not all(verify_local_mds(code).values()):
            continue
        achieved = min_distance_rank(code)
        if achieved == bound:
            return code
        if best_code is None or achieved > best_distance:
            best_code, best_distance = code, achieved
    best = "none locally MDS" if best_code is None else f"best achieved: {best_distance}"
    raise ExhaustedAttempts(
        f"no attempt out of {max_attempts} reached distance {bound} ({best})",
        best_code=best_code,
        best_distance=best_distance,
    )
