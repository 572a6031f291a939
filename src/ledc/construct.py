"""Generator-matrix constructions for two-group and general structures.

Three methods are provided.

* construct_nested: two groups, each built from a prefix of a Vandermonde
  matrix so that the private rows generate a smaller MDS code nested
  inside the full local code. Reaches the distance bound whenever the
  shared-symbol count t is at most the larger group redundancy plus one.

* construct_cyclic: two groups with equal redundancy r. Rows are
  coefficient vectors of polynomials that are all divisible by
  g1 = prod_{j<r+t} (x - w^j), which forces global distance r + t + 1,
  while both local projections stay divisible by g2 = prod_{j<r} (x - w^j)
  and hence MDS. Works whenever n1 + n2 <= q - 1.

* construct_random: any structure. Samples the free entries uniformly
  and keeps the first attempt whose local codes are MDS and whose
  distance certifies at the structure bound. The sampling stream is a
  counter-based SplitMix64 generator, fully specified in the README, so
  results are reproducible bit for bit from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .code import (
    LedcCode,
    check_distance_budget,
    distance_at_least,
    min_distance_rank,
    verify_local_mds,
)
from .errors import (
    DegenerateSystem,
    ExhaustedAttempts,
    FieldTooSmall,
    NotPrimitive,
    PreconditionViolated,
    TooLarge,
)
from .field import Felt, PrimeField, find_primitive, inv, is_primitive
from .linalg import MatrixGF, make_matrix, nullspace, vandermonde
from .locality import LocalityStructure, dmax, reach, two_group_params
from .poly import (
    PolyGF,
    coeffs_to_row,
    linear_factor_product,
    make_poly,
    poly_add,
    poly_divides,
    poly_eval,
    poly_mul,
    poly_shift,
)

# ---------- shared two-group plumbing ----------


def _scatter(f: PrimeField, s: LocalityStructure, canonical: np.ndarray, first: int, second: int) -> MatrixGF:
    """Place a residue array in canonical order into the structure's indexing.

    Its rows are the data symbols of the group `first` only, then the shared
    ones, then those of `second` only; its columns are `first`'s block, then
    `second`'s.
    """
    Kf, Ks = set(s.K[first]), set(s.K[second])
    data_order = sorted(Kf - Ks) + sorted(Kf & Ks) + sorted(Ks - Kf)
    G = np.zeros((s.k, s.n), dtype=np.int64)
    G[np.ix_([i - 1 for i in data_order], [j - 1 for j in s.N[first] + s.N[second]])] = canonical
    return MatrixGF(f, G)


# ---------- nested Vandermonde construction ----------


def construct_nested(s: LocalityStructure, f: PrimeField) -> LedcCode:
    """Two nested Vandermonde pairs assembled as [[U,0],[A,B],[0,V]].

    Groups are ordered internally so the first has the smaller
    redundancy; the swap is reported in the returned code's meta. The
    resulting distance is exactly min(r1, r2) + t + 1, which equals the
    structure bound under the stated preconditions.
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
    swapped = (n1 - k1) > (n2 - k2)
    first, second = (1, 0) if swapped else (0, 1)
    nf, kf = len(s.N[first]), len(s.K[first])
    ns, ks = len(s.N[second]), len(s.K[second])
    if t > ns - ks + 1:
        raise PreconditionViolated(
            f"construction requires n2 - k2 + 1 >= t once groups are ordered "
            f"by redundancy; got t={t} > {ns - ks + 1}"
        )
    Wf = vandermonde(f, range(1, nf + 1), kf).entries
    Ws = vandermonde(f, range(1, ns + 1), ks).entries
    # [[U, 0], [A, B], [0, V]] with U = Wf[:kf-t], A = Wf[kf-t:], V = Ws[:ks-t], B = Ws[ks-t:]
    canonical = np.zeros((kf + ks - t, nf + ns), dtype=np.int64)
    canonical[:kf, :nf] = Wf
    canonical[kf - t :, nf:] = np.vstack([Ws[ks - t :], Ws[: ks - t]])
    G = _scatter(f, s, canonical, first, second)
    meta = {
        "method": "nested",
        "swapped": swapped,
        "claimed_distance": min(n1 - k1, n2 - k2) + t + 1,
    }
    return LedcCode(s, f, G, meta)


# ---------- cyclic polynomial construction ----------


@dataclass(frozen=True)
class CyclicIngredients:
    """Everything the cyclic construction produced besides the matrix.

    Index ell-1 of each per-row tuple belongs to shared row ell
    (1 <= ell <= t).
    """

    omega: Felt
    r: int
    t: int
    u: PolyGF
    v: PolyGF
    g1: PolyGF
    g2: PolyGF
    T: tuple[int, ...]
    a_star: tuple[PolyGF, ...]
    b_star: tuple[PolyGF, ...]
    a: tuple[PolyGF, ...]
    b: tuple[PolyGF, ...]
    c: tuple[PolyGF, ...]


def lemma3_solve(
    f: PrimeField, omega: Felt, ell: int, t: int, r: int, T: int
) -> tuple[PolyGF, PolyGF]:
    """Solve for a_star (degree <= t - ell) and b_star (degree <= ell - 1)
    with a_star(w^j) + w^(jT) b_star(w^j) = 0 for j = r .. r + t - 1.

    The t x (t+1) system matrix has rows (w^j)^e over the t + 1 distinct
    exponents e in {0..t-ell} + {T..T+ell-1}, so its kernel is spanned by
    a single vector with every coordinate nonzero; anything else raises
    DegenerateSystem. The kernel vector is normalized so a_star(0) = 1.
    r = 0 is accepted (the distinct-exponent argument is unchanged).
    """
    if not 1 <= ell <= t:
        raise PreconditionViolated(f"need 1 <= ell <= t, got ell={ell}, t={t}")
    if r < 0:
        raise PreconditionViolated(f"need r >= 0, got r={r}")
    if not t - ell < T < f.q - ell:
        raise PreconditionViolated(
            f"need t - ell < T < q - ell, got T={T} with t={t}, ell={ell}, q={f.q}"
        )
    exponents = list(range(t - ell + 1)) + list(range(T, T + ell))
    rows = []
    for j in range(r, r + t):
        wj = pow(omega, j, f.q)
        rows.append([pow(wj, e, f.q) for e in exponents])
    kernel = nullspace(make_matrix(f, rows))
    if len(kernel) != 1:
        raise DegenerateSystem(
            f"kernel dimension {len(kernel)}, expected 1; is omega primitive?"
        )
    vec = kernel[0]
    if any(x == 0 for x in vec):
        raise DegenerateSystem("kernel vector has a zero coordinate")
    scale = inv(f, vec[0])
    vec = [x * scale % f.q for x in vec]
    return make_poly(f, vec[: t - ell + 1]), make_poly(f, vec[t - ell + 1 :])


def construct_cyclic(
    s: LocalityStructure, f: PrimeField, omega: Optional[Felt] = None
) -> tuple[LedcCode, Optional[CyclicIngredients]]:
    """Equal-redundancy two-group construction from shared-root polynomials.

    Returns the code and the polynomial ingredients. A structure with no
    shared data symbols (t = 0) needs no shared rows at all and is built
    by construct_nested instead; the ingredients are then None.
    """
    n1, k1, n2, k2, t = two_group_params(s)
    r = n1 - k1
    if n2 - k2 != r:
        raise PreconditionViolated(
            f"equal redundancies required; got n1-k1={r}, n2-k2={n2 - k2}"
        )
    if n1 + n2 > f.q - 1:
        raise PreconditionViolated(
            f"need n1 + n2 <= q - 1, got {n1 + n2} > {f.q - 1}"
        )
    if t == 0:
        code = construct_nested(s, f)
        code.meta["delegated"] = "no shared symbols, used nested construction"
        return code, None
    if t >= s.k:
        raise PreconditionViolated(
            "both groups use the same data symbols (t = k); encode a plain "
            "MDS code instead of an overlapping structure"
        )
    if omega is None:
        omega = find_primitive(f)
    elif not is_primitive(f, omega):
        raise NotPrimitive(f"{omega} does not generate the units of GF({f.q})")

    n = s.n
    u = linear_factor_product(f, [pow(omega, j, f.q) for j in range(r + t)])
    v = u
    g2 = linear_factor_product(f, [pow(omega, j, f.q) for j in range(r)])
    T_list, a_stars, b_stars, a_list, b_list, c_list = [], [], [], [], [], []
    for ell in range(1, t + 1):
        T = (n1 + k2 - ell) - (k1 - t + ell - 1)
        a_star, b_star = lemma3_solve(f, omega, ell, t, r, T)
        a = poly_mul(g2, a_star)
        b = poly_mul(g2, b_star)
        c = poly_add(poly_shift(a, k1 - t + ell - 1), poly_shift(b, n1 + k2 - ell))
        T_list.append(T)
        a_stars.append(a_star)
        b_stars.append(b_star)
        a_list.append(a)
        b_list.append(b)
        c_list.append(c)

    rows: list[list[Felt]] = []
    for i in range(k1 - t):
        rows.append(coeffs_to_row(u, i, n))
    for c_poly in c_list:
        rows.append(coeffs_to_row(c_poly, 0, n))
    for j in range(k2 - t):
        rows.append(coeffs_to_row(v, n1 + j, n))
    G = _scatter(f, s, np.array(rows, dtype=np.int64), 0, 1)
    meta = {"method": "cyclic", "omega": omega, "claimed_distance": r + t + 1}
    ingredients = CyclicIngredients(
        omega=omega,
        r=r,
        t=t,
        u=u,
        v=v,
        g1=u,
        g2=g2,
        T=tuple(T_list),
        a_star=tuple(a_stars),
        b_star=tuple(b_stars),
        a=tuple(a_list),
        b=tuple(b_list),
        c=tuple(c_list),
    )
    return LedcCode(s, f, G, meta), ingredients


@dataclass(frozen=True)
class CyclicConditionReport:
    nonzero_constants: bool
    uv_roots: bool
    ab_roots: bool
    c_roots: bool
    global_rows_divisible: bool
    local_rows_divisible: bool

    @property
    def all_ok(self) -> bool:
        return all(vars(self).values())


def verify_cyclic_conditions(
    ing: CyclicIngredients, s: LocalityStructure, f: PrimeField
) -> CyclicConditionReport:
    """Re-check every root and divisibility condition behind the design.

    The global row polynomials must vanish at w^0..w^(r+t-1) (so g1
    divides them, giving distance at least r+t+1), and the two local
    projections must vanish at w^0..w^(r-1) (so g2 divides them, keeping
    each local code MDS).
    """
    n1, k1, n2, k2, t = two_group_params(s)
    r, omega = ing.r, ing.omega
    roots_rt = [pow(omega, j, f.q) for j in range(r + t)]
    roots_r = [pow(omega, j, f.q) for j in range(r)]

    nonzero_constants = (
        ing.u.constant() != 0
        and ing.v.constant() != 0
        and all(p.constant() != 0 for p in ing.a)
        and all(p.constant() != 0 for p in ing.b)
    )
    uv_roots = all(
        poly_eval(ing.u, z) == 0 and poly_eval(ing.v, z) == 0 for z in roots_rt
    )
    ab_roots = all(
        poly_eval(p, z) == 0 for z in roots_r for pair in zip(ing.a, ing.b) for p in pair
    )
    c_roots = all(poly_eval(c, z) == 0 for c in ing.c for z in roots_rt)

    global_rows = (
        [poly_shift(ing.u, i) for i in range(k1 - t)]
        + list(ing.c)
        + [poly_shift(ing.v, n1 + j) for j in range(k2 - t)]
    )
    local_rows = (
        [poly_shift(ing.u, i) for i in range(k1 - t)]
        + [poly_shift(a, k1 - t + ell) for ell, a in enumerate(ing.a)]
        + [poly_shift(b, k2 - 1 - ell) for ell, b in enumerate(ing.b)]
        + [poly_shift(ing.v, j) for j in range(k2 - t)]
    )
    return CyclicConditionReport(
        nonzero_constants=nonzero_constants,
        uv_roots=uv_roots,
        ab_roots=ab_roots,
        c_roots=c_roots,
        global_rows_divisible=all(poly_divides(ing.g1, p) for p in global_rows),
        local_rows_divisible=all(poly_divides(ing.g2, p) for p in local_rows),
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


def _attempt_stream(seed: int, attempt: int) -> _SplitMix64:
    """Stream for one attempt: seeded with the (attempt+1)-th master output."""
    base = _SplitMix64(seed)
    out = 0
    for _ in range(attempt + 1):
        out = base.next64()
    return _SplitMix64(out)


def construct_random(
    s: LocalityStructure, f: PrimeField, seed: int, max_attempts: int
) -> LedcCode:
    """Sample supported entries uniformly until a code meets the bound.

    Entries are drawn row by row in ascending (data index, position)
    order over the allowed support; everything off support stays zero.
    An attempt is accepted when every local code is MDS and the distance
    certifies at the structure bound. Attempts are independent streams,
    so the result is the lowest-numbered succeeding attempt regardless
    of evaluation order. Otherwise ExhaustedAttempts carries the locally
    MDS attempt of largest distance, or None if no attempt was locally MDS.
    TooLarge is raised before the first attempt when the distance level's
    C(n, dmax - 1) erasure patterns exceed the rank budget.
    """
    if max_attempts < 1:
        raise PreconditionViolated(f"max_attempts must be >= 1, got {max_attempts}")
    reaches = reach(s)
    bound = dmax(s)
    check_distance_budget(s.n, bound)  # before any attempt
    best_code: Optional[LedcCode] = None
    best_distance = 0
    for attempt in range(max_attempts):
        stream = _attempt_stream(seed, attempt)
        rows = [
            [stream.below(f.q) if j in allowed else 0 for j in range(1, s.n + 1)]
            for allowed in reaches
        ]
        code = LedcCode(
            s,
            f,
            make_matrix(f, rows),
            {
                "method": "random",
                "seed": seed,
                "attempt": attempt,
                "claimed_distance": bound,
            },
        )
        if not all(verify_local_mds(code).values()):
            continue
        if distance_at_least(code, bound):
            return code
        try:
            achieved = min_distance_rank(code)
        except TooLarge:
            achieved = 0
        if best_code is None or achieved > best_distance:
            best_code, best_distance = code, achieved
    best = "none locally MDS" if best_code is None else f"best achieved: {best_distance}"
    raise ExhaustedAttempts(
        f"no attempt out of {max_attempts} reached distance {bound} ({best})",
        best_code=best_code,
        best_distance=best_distance,
    )
