import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import det, min_weight_bruteforce, oracle_solve

import ledc.code as code_module
from ledc.code import (
    ERASED,
    LedcCode,
    distance_at_least,
    encode,
    erasure_decode,
    local_decode,
    min_distance_exhaustive,
    min_distance_rank,
    support_violations,
    verify_ledc,
    verify_local_mds,
)
from ledc.construct import construct_cyclic, construct_nested
from ledc.errors import (
    DimensionMismatch,
    DistanceDisagreement,
    NotEnoughSymbols,
    PositionsOutsideGroup,
    SingularSubmatrix,
    SupportViolation,
    TooLarge,
    UnrecoverableErasurePattern,
)
from ledc.field import make_field
from ledc.linalg import make_matrix, nullspace, vandermonde
from ledc.locality import blocks_for_sizes, dmax, make_structure, reach

F7 = make_field(7)


def single_group_code(f, G_rows):
    k = len(G_rows)
    n = len(G_rows[0])
    s = make_structure([list(range(1, k + 1))], [list(range(1, n + 1))])
    return LedcCode(s, f, make_matrix(f, G_rows))


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_single_group_code(f, k, n, rng):
    return single_group_code(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)])


# ---------- construction guards ----------


def test_make_code_shape_checks(suboptimal_codefile):
    s = suboptimal_codefile.code.structure
    with pytest.raises(DimensionMismatch):
        LedcCode(s, F7, make_matrix(F7, identity_rows(5)))
    with pytest.raises(DimensionMismatch):
        LedcCode(s, make_field(11), suboptimal_codefile.code.G)


def test_local_generator(suboptimal_codefile):
    lg = suboptimal_codefile.code.local_generators[0]
    assert (lg.rows, lg.cols) == (4, 5)
    assert lg.to_rows()[0] == [1, 1, 1, 1, 1]


# ---------- encode ----------


def test_encode_zero_and_units(suboptimal_codefile):
    c = suboptimal_codefile.code
    assert encode(c, [0] * 5) == [0] * 10
    for i in range(5):
        x = [0] * 5
        x[i] = 1
        assert encode(c, x) == c.G.to_rows()[i]


def test_encode_all_ones_is_column_sums(suboptimal_codefile):
    c = suboptimal_codefile.code
    rows = c.G.to_rows()
    expected = [sum(row[j] for row in rows) % 7 for j in range(10)]
    assert encode(c, [1] * 5) == expected


def test_encode_length_checked(suboptimal_codefile):
    with pytest.raises(DimensionMismatch):
        encode(suboptimal_codefile.code, [1, 2, 3])


def test_encode_changes_stay_local(suboptimal_codefile, cyclic_codefile):
    """A data symbol owned by one group only touches that group's block."""
    rng = random.Random(5601)
    for cf in (suboptimal_codefile, cyclic_codefile):
        c = cf.code
        s = c.structure
        q = c.field.q
        x = [rng.randrange(q) for _ in range(s.k)]
        base = encode(c, x)
        for g in range(s.m):
            private = set(s.K[g]) - set().union(
                *(set(s.K[h]) for h in range(s.m) if h != g)
            )
            for i in private:
                bumped = list(x)
                bumped[i - 1] = (bumped[i - 1] + 1) % q
                moved = encode(c, bumped)
                changed = {j + 1 for j in range(s.n) if moved[j] != base[j]}
                assert changed <= set(s.N[g]), (g + 1, i, changed)


# ---------- local decode ----------


def test_local_decode_all_subsets_round_trip(suboptimal_codefile):
    c = suboptimal_codefile.code
    s = c.structure
    rng = random.Random(5602)
    x = [rng.randrange(7) for _ in range(s.k)]
    word = encode(c, x)
    for g in range(1, s.m + 1):
        Kg, Ng = s.K[g - 1], s.N[g - 1]
        for subset in combinations(Ng, len(Kg)):
            got = local_decode(c, g, [(p, word[p - 1]) for p in subset])
            assert got == {i: x[i - 1] for i in Kg}


def test_local_decode_uses_extra_symbols(cyclic_codefile):
    c = cyclic_codefile.code
    x = list(range(1, 8))
    word = encode(c, x)
    got = local_decode(c, 2, [(p, word[p - 1]) for p in c.structure.N[1]])
    assert got == {i: x[i - 1] for i in c.structure.K[1]}


def test_local_decode_input_errors(suboptimal_codefile):
    c = suboptimal_codefile.code
    word = encode(c, [1, 2, 3, 4, 5])
    with pytest.raises(NotEnoughSymbols):
        local_decode(c, 1, [(1, word[0]), (2, word[1]), (3, word[2])])
    with pytest.raises(PositionsOutsideGroup):
        local_decode(c, 1, [(p, word[p - 1]) for p in (1, 2, 3, 6)])
    with pytest.raises(PositionsOutsideGroup):
        local_decode(c, 3, [(1, 0)])
    with pytest.raises(PositionsOutsideGroup):
        local_decode(c, 1, [(1, word[0]), (1, word[0]), (2, word[1]), (3, word[2])])


def test_local_decode_singular_submatrix_is_invariant_breach():
    c = single_group_code(F7, [[1, 0], [1, 0]])
    with pytest.raises(SingularSubmatrix):
        local_decode(c, 1, [(1, 2), (2, 0)])


def off_support_code():
    """GF(2), K = {1, 2}, {2}, N = {1, 2}, {3, 4}: data 1 reaches position 3, outside its group."""
    f2 = make_field(2)
    s = make_structure([[1, 2], [2]], [[1, 2], [3, 4]])
    return LedcCode(s, f2, make_matrix(f2, [[0, 0, 1, 0], [0, 0, 1, 1]]))


def test_local_decode_refuses_off_support_position():
    """Position 3 alone would give x_2 = 1 for x = (1, 0): it carries x_1 + x_2."""
    c = off_support_code()
    word = encode(c, [1, 0])
    with pytest.raises(SupportViolation, match="position 3 depends on data 1"):
        local_decode(c, 2, [(3, word[2])])
    assert local_decode(c, 2, [(4, word[3])]) == {2: 0}  # position 4 carries x_2 alone


# ---------- erasure decode ----------


def test_erasure_decode_no_erasures(suboptimal_codefile):
    c = suboptimal_codefile.code
    x = [3, 1, 4, 1, 5]
    assert erasure_decode(c, encode(c, x)) == x


def test_erasure_decode_every_small_pattern(suboptimal_codefile):
    c = suboptimal_codefile.code
    x = [2, 0, 6, 1, 3]
    word = encode(c, x)
    for size in range(1, 4):  # distance is 4, all 3-erasure patterns recover
        for erased in combinations(range(10), size):
            received = [ERASED if j in erased else word[j] for j in range(10)]
            assert erasure_decode(c, received) == x


def test_erasure_decode_unrecoverable_pattern_exists(suboptimal_codefile):
    c = suboptimal_codefile.code
    word = encode(c, [2, 0, 6, 1, 3])
    failures = 0
    for erased in combinations(range(10), 4):
        received = [ERASED if j in erased else word[j] for j in range(10)]
        try:
            erasure_decode(c, received)
        except UnrecoverableErasurePattern:
            failures += 1
    assert failures > 0


def test_erasure_decode_length_checked(suboptimal_codefile):
    with pytest.raises(DimensionMismatch):
        erasure_decode(suboptimal_codefile.code, [0] * 9)


def test_erasure_decode_all_erased():
    c = single_group_code(F7, [[1, 0], [0, 1]])
    with pytest.raises(UnrecoverableErasurePattern):
        erasure_decode(c, [ERASED, ERASED])


# ---------- minimum distance ----------


def test_distance_golden_suboptimal_code(suboptimal_codefile):
    c = suboptimal_codefile.code
    assert min_distance_exhaustive(c) == 4
    assert min_distance_rank(c) == 4


def test_distance_golden_cyclic_fixture(cyclic_codefile, cyclic_descending):
    assert min_distance_rank(cyclic_codefile.code) == 5
    assert min_distance_rank(cyclic_descending.code) == 5


def test_distance_identity_code():
    c = single_group_code(F7, identity_rows(3))
    assert min_distance_exhaustive(c) == 1
    assert min_distance_rank(c) == 1


def test_distance_rank_deficient_is_zero():
    c = single_group_code(F7, [[1, 2, 3], [2, 4, 6]])
    assert min_distance_rank(c) == 0
    assert min_distance_exhaustive(c) == 0


def test_distance_agrees_with_bruteforce_oracle(monkeypatch):
    # Caps 1 and q split off a one-row suffix table, so the lead loop runs.
    default_cap = code_module.SUFFIX_CAP
    rng = random.Random(5603)
    for q in (3, 5, 7, 2):
        f = make_field(q)
        for _ in range(25):
            k = rng.randint(1, 4)
            n = rng.randint(k, 9)
            if q**k > 3000:
                continue
            c = random_single_group_code(f, k, n, rng)
            expected = min_weight_bruteforce(q, c.G.to_rows())
            for cap in (1, q, default_cap):
                monkeypatch.setattr(code_module, "SUFFIX_CAP", cap)
                assert min_distance_exhaustive(c) == expected, (q, cap, c.G.to_rows())
            assert min_distance_rank(c) == expected


def test_exhaustive_distance_edge_cases_under_small_cap(monkeypatch):
    default_cap = code_module.SUFFIX_CAP
    monkeypatch.setattr(code_module, "SUFFIX_CAP", 1)  # one suffix row, k - 1 leads
    f2 = make_field(2)
    # Rank deficient: rows 2 + 3 give the zero codeword, from the nonzero
    # prefix (0, 1); row 3 alone is a weight-1 codeword of the suffix scan.
    deficient = single_group_code(f2, [[1, 0, 1], [0, 1, 0], [0, 1, 0]])
    assert min_distance_exhaustive(deficient) == 0 == min_weight_bruteforce(2, deficient.G.to_rows())
    assert min_distance_rank(deficient) == 0

    # Every suffix codeword has weight 2; row 1 - row 2 = (1, 0, 0) is found
    # by lead 0, which returns before lead 1's prefix table is built.
    rows = [[1, 1, 1], [0, 1, 1], [0, 1, 2]]
    tables = []
    span = code_module._span
    monkeypatch.setattr(code_module, "_span", lambda *args: tables.append(args) or span(*args))
    assert min_distance_exhaustive(single_group_code(F7, rows)) == 1 == min_weight_bruteforce(7, rows)
    assert len(tables) == 2  # the suffix table, then lead 0's prefixes
    monkeypatch.setattr(code_module, "_span", span)

    f65537 = make_field(65537)  # int32 tables
    wide = single_group_code(f65537, [[1, 2, 0, 65536, 3]])
    for cap in (1, default_cap):
        monkeypatch.setattr(code_module, "SUFFIX_CAP", cap)
        assert min_distance_exhaustive(wide) == 4


def test_distance_rank_search_walks_from_the_bound(suboptimal_codefile, cyclic_codefile, monkeypatch):
    f11 = make_field(11)
    s = make_structure([[1, 2, 3], [3, 4]], blocks_for_sizes([3, 4]))
    dense = LedcCode(s, f11, vandermonde(f11, range(1, 8), 4))  # MDS, ignores the support
    deficient = single_group_code(F7, [[1, 2, 3], [2, 4, 6]])
    levels = []
    certify = code_module.distance_at_least
    monkeypatch.setattr(code_module, "distance_at_least", lambda c, d0: levels.append(d0) or certify(c, d0))
    cases = (
        (cyclic_codefile.code, 5, [5]),  # d >= dmax = 5 and the support holds: the bound is the upper side
        (suboptimal_codefile.code, 4, [5, 4]),  # dmax = 5: walks down
        (dense, 4, [2, 3, 4, 5]),  # dmax = 2: walks up to n - k + 1
        (deficient, 0, []),
    )
    for c, d, searched in cases:
        levels.clear()
        assert min_distance_rank(c) == min_distance_exhaustive(c) == d
        assert levels == searched
    assert dmax(dense.structure) < 4 < dmax(suboptimal_codefile.code.structure)


@st.composite
def small_codes(draw, fields=(2, 3, 5, 7, 11), kinds=("support", "off support", "deficient")):
    """Codes over GF(q), q in `fields`, n <= 9, k <= 4 on a random structure.

    G is drawn on the support pattern, or with entries off it, or with a
    row that repeats a multiple of another (rank deficient), or, as the kind
    "singular local", with a group's second column a multiple of its first
    (every local minor holding both is singular).
    """
    q = draw(st.sampled_from(fields))
    f = make_field(q)
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, min(3, n)))
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), min_size=m - 1, max_size=m - 1)))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    k = draw(st.integers(1, min(4, n)))
    K = [set() for _ in sizes]
    for i in range(1, k + 1):  # every symbol gets a group with room
        K[draw(st.sampled_from([g for g in range(m) if len(K[g]) < sizes[g]]))].add(i)
    for g in range(m):
        for i in draw(st.lists(st.integers(1, k), min_size=0 if K[g] else 1, max_size=sizes[g])):
            if len(K[g]) < sizes[g]:
                K[g].add(i)
    s = make_structure(K, blocks_for_sizes(sizes))
    kind = draw(st.sampled_from(kinds))
    value = st.integers(0, q - 1)
    rows = [
        [draw(value) if j in allowed or kind == "off support" else 0 for j in range(1, n + 1)]
        for allowed in reach(s)
    ]
    if kind == "deficient" and k >= 2:
        scale = draw(value)
        rows[-1] = [scale * v % q for v in rows[0]]
    group = s.N[draw(st.integers(0, m - 1))] if kind == "singular local" else ()
    if len(group) >= 2:
        scale = draw(value)
        for row in rows:
            row[group[1] - 1] = scale * row[group[0] - 1] % q
    return LedcCode(s, f, make_matrix(f, rows))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_codes())
def test_distance_sides_agree_with_enumeration(c):
    """G's (n - d0 + 1)-column subsets, H's (d0 - 1)-column subsets and enumeration agree on d >= d0."""
    f, k, n = c.field, c.structure.k, c.structure.n
    d = min_distance_exhaustive(c)
    assert d == min_weight_bruteforce(f.q, c.G.to_rows())
    assert min_distance_rank(c) == d
    if not support_violations(c):
        assert d <= dmax(c.structure)
    H = np.array(nullspace(c.G), dtype=np.int64).reshape(-1, n)
    for d0 in range(1, n - k + 2):
        on_G = code_module.full_rank_subsets(f, c.G.entries, n - d0 + 1)
        assert on_G == (d >= d0) == distance_at_least(c, d0)
        if len(H) == n - k:
            assert code_module.full_rank_subsets(f, H, d0 - 1) == on_G
        else:
            assert d == 0  # H has more than n - k rows only when G is rank deficient


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_codes())
def test_local_mds_is_every_minor_invertible(c):
    """verify_local_mds against its definition: every k_i-column minor of G[K_i, N_i] has a nonzero determinant."""
    for g, mds in verify_local_mds(c).items():
        rows = c.local_generators[g - 1].to_rows()
        minors = combinations(range(len(rows[0])), len(rows))
        assert mds == all(det(c.field.q, [[row[j] for j in cols] for row in rows]) for cols in minors)


def test_distance_level_side_follows_the_shape_rule(cyclic_codefile, monkeypatch):
    """k (n - e)^2 <= (n - k) e^2 sweeps G, otherwise H (timings in BENCH_dual.json)."""
    swept = []
    sweep = code_module.full_rank_subsets
    monkeypatch.setattr(code_module, "full_rank_subsets", lambda f, M, w: swept.append((M.shape, w)) or sweep(f, M, w))
    f31 = make_field(31)
    low_rate = single_group_code(f31, vandermonde(f31, range(1, 31), 2).to_rows())
    assert distance_at_least(low_rate, 29)  # 2 * 2^2 <= 28 * 28^2: G's 2 x 2 submatrices
    assert distance_at_least(cyclic_codefile.code, 5)  # 7 * 8^2 > 5 * 4^2: H's 5 x 4 ones
    assert swept == [((2, 30), 2), ((5, 12), 4)]


def test_exhaustive_distance_independent_of_partitioning(suboptimal_codefile, monkeypatch):
    c = suboptimal_codefile.code
    results = set()
    for cap in (1, 7, 49, 1 << 19):
        monkeypatch.setattr(code_module, "SUFFIX_CAP", cap)
        results.add(min_distance_exhaustive(c))
    assert results == {4}


def test_exhaustive_distance_counts_past_255_positions():
    """The match counter's dtype holds n: a uint8 counter wraps at 256 matching positions and gives 256 here."""
    f2 = make_field(2)
    assert min_distance_exhaustive(single_group_code(f2, [[1] * 300, [1] * 44 + [0] * 256])) == 44
    assert min_distance_exhaustive(single_group_code(f2, [[1] * 300])) == 300


def test_distance_budgets():
    f101 = make_field(101)
    c = single_group_code(f101, identity_rows(5))
    with pytest.raises(TooLarge):
        min_distance_exhaustive(c)  # 101^5 > 10^9
    wide = single_group_code(F7, [[1 if i == j else 0 for j in range(30)] for i in range(5)])
    with pytest.raises(TooLarge, match=r"C\(30,22\) erasure patterns"):
        min_distance_rank(wide)  # walks down from d = 26, on G's side, to the level d = 23
    with pytest.raises(TooLarge, match=r"C\(30,10\) erasure patterns"):
        distance_at_least(wide, 11)  # on H's side
    # Only the searched level is budgeted: C(30,28) patterns, though the
    # levels 1..29 hold about 2^30 together.
    f31 = make_field(31)
    mds = single_group_code(f31, vandermonde(f31, range(1, 31), 2).to_rows())
    assert min_distance_rank(mds) == 29


def test_local_mds_budget_fails_before_any_rank(monkeypatch):
    f = make_field(2**31 - 1)
    c = random_single_group_code(f, 15, 30, random.Random(5604))  # C(30,15) minors
    for kernel in ("full_rank_subsets", "nullspace"):
        monkeypatch.setattr(code_module, kernel, lambda *args: pytest.fail("eliminated past the budget"))
    with pytest.raises(TooLarge):
        verify_local_mds(c)


def test_verify_ledc_checks_local_mds_before_distance(monkeypatch):
    c = random_single_group_code(make_field(3), 15, 30, random.Random(5605))  # C(30,15) minors
    monkeypatch.setattr(code_module, "min_distance_exhaustive", lambda c: pytest.fail("enumerated past the budget"))
    with pytest.raises(TooLarge):
        verify_ledc(c, distance_method="exhaustive")


def test_distance_at_least_bounds(suboptimal_codefile):
    c = suboptimal_codefile.code
    assert distance_at_least(c, 0)
    assert distance_at_least(c, 4)
    assert not distance_at_least(c, 5)
    assert not distance_at_least(c, 7)  # erasures beyond n - k


# ---------- decode round trips ----------


@st.composite
def two_group_codes(draw):
    """construct_nested over GF(7) or construct_cyclic over GF(13), on shapes each accepts, n_i <= 6."""
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    nested = draw(st.booleans())
    if nested:
        k1, k2 = draw(st.integers(1, n1)), draw(st.integers(1, n2))
        t = draw(st.integers(0, min(k1 - 1, k2 - 1, max(n1 - k1, n2 - k2) + 1)))
    else:  # equal redundancies, n1 + n2 <= q - 1, and t = k1 = k2 excluded
        k1 = draw(st.integers(max(1, n1 - n2 + 1), n1))
        k2 = n2 - (n1 - k1)
        assume(min(k1, k2) - (k1 == k2) >= 1)
        t = draw(st.integers(1, min(k1, k2) - (k1 == k2)))
    s = make_structure(
        [list(range(1, k1 + 1)), list(range(k1 - t + 1, k1 - t + k2 + 1))], blocks_for_sizes([n1, n2])
    )
    return construct_nested(s, make_field(7)) if nested else construct_cyclic(s, make_field(13))[0]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.one_of(two_group_codes(), small_codes()), st.data())
def test_decode_round_trips_fuzz(c, data):
    """erasure_decode undoes any <= d - 1 erasures; local_decode any k_i survivors of a locally MDS group,
    or refuses them when one depends on data outside the group."""
    s, q = c.structure, c.field.q
    x = data.draw(st.lists(st.integers(0, q - 1), min_size=s.k, max_size=s.k))
    word = encode(c, x)
    d = min_distance_rank(c)
    if d:
        erased = data.draw(st.sets(st.integers(0, s.n - 1), max_size=d - 1))
        assert erasure_decode(c, [ERASED if j in erased else v for j, v in enumerate(word)]) == x
    for g, mds in verify_local_mds(c).items():
        Kg = s.K[g - 1]
        survivors = data.draw(st.permutations(s.N[g - 1]))[: len(Kg)]
        observed = [(p, word[p - 1]) for p in survivors]
        off = [(i, p) for i, p in support_violations(c) if i not in Kg and p in survivors]
        if off:
            with pytest.raises(SupportViolation):
                local_decode(c, g, observed)
        elif mds:
            assert local_decode(c, g, observed) == {i: x[i - 1] for i in Kg}


@st.composite
def wide_codes(draw):
    """One group of k = 20 data symbols and up to 4 parity positions over GF(2^31 - 1).

    Residues near 2^31 make a sum of two unreduced products pass 2^63. The
    entries come from a drawn seed, which keeps hypothesis's buffer small.
    """
    f = make_field(2**31 - 1)
    k = 20
    n = k + draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    s = make_structure([list(range(1, k + 1))], [list(range(1, n + 1))])
    return LedcCode(s, f, make_matrix(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]))


def outcome(fn, *args):
    """fn's value, or the type name and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def oracle_erasure_decode(q, rows, received):
    """erasure_decode's contract, by a pure-Python solve of x G[:, survivors] = survivors."""
    cols = [j for j, v in enumerate(received) if v is not ERASED]
    got = oracle_solve(q, [[row[j] for j in cols] for row in rows], [received[j] for j in cols])
    if got == "Underdetermined":
        return "UnrecoverableErasurePattern", f"{len(received) - len(cols)} erasures leave rank below k={len(rows)}"
    return ("Inconsistent", "no x satisfies x a = b") if got == "Inconsistent" else got


def oracle_local_decode(q, rows, Kg, Ng, group, observed):
    """local_decode's contract, checked in its order, with a pure-Python solve of x G[K_i, observed] = observed."""
    positions = [p for p, _ in observed]
    outside = [p for p in positions if p not in Ng]
    if outside:
        return "PositionsOutsideGroup", f"positions {outside} not in group {group}"
    if len(observed) < len(Kg):
        return "NotEnoughSymbols", f"{len(observed)} symbols < k_{group}={len(Kg)}"
    for i in range(1, len(rows) + 1):
        for p in positions:
            if i not in Kg and rows[i - 1][p - 1]:
                return "SupportViolation", f"group {group}: position {p} depends on data {i}, outside K_{group}"
    got = oracle_solve(q, [[rows[i - 1][p - 1] for p in positions] for i in Kg], [v for _, v in observed])
    if got == "Underdetermined":
        return "SingularSubmatrix", (
            f"group {group}: {len(observed)} observed columns do not determine "
            f"the {len(Kg)} local data symbols; local MDS invariant is broken"
        )
    return ("Inconsistent", "no x satisfies x a = b") if got == "Inconsistent" else dict(zip(Kg, got))


DECODE_FIELDS = (2, 7, 257, 2**31 - 1)
DECODE_KINDS = ("support", "off support", "deficient", "singular local")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(small_codes(DECODE_FIELDS, DECODE_KINDS), wide_codes()), st.data())
def test_decoders_match_oracle_fuzz(c, data):
    """Both decoders against a pure-Python solve: the same value, or the same exception and message.

    The word is a codeword, maybe with one position corrupted; any number of
    positions is erased, and k_i - 1 or more positions of a group's block are
    observed, in any order, maybe with a position of another group.
    """
    s, q, rows = c.structure, c.field.q, c.G.to_rows()
    x = data.draw(st.lists(st.integers(0, q - 1), min_size=s.k, max_size=s.k))
    word = [sum(a * g for a, g in zip(x, col)) % q for col in zip(*rows)]
    assert encode(c, x) == word
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, s.n - 1))
        word[j] = (word[j] + data.draw(st.integers(1, q - 1))) % q
    erased = data.draw(st.sets(st.integers(0, s.n - 1), max_size=data.draw(st.integers(0, s.n))))
    received = [ERASED if j in erased else v for j, v in enumerate(word)]
    assert outcome(erasure_decode, c, received) == oracle_erasure_decode(q, rows, received)
    group = data.draw(st.integers(1, s.m))
    Kg, Ng = s.K[group - 1], s.N[group - 1]
    positions = data.draw(st.permutations(Ng))[: data.draw(st.integers(max(0, len(Kg) - 1), len(Ng)))]
    if data.draw(st.integers(0, 9)) == 0:
        positions.append(data.draw(st.integers(1, s.n).filter(lambda p: p not in positions)))
    observed = [(p, word[p - 1]) for p in positions]
    assert outcome(local_decode, c, group, observed) == oracle_local_decode(q, rows, Kg, Ng, group, observed)


def test_code_caches_are_built_once_and_read_only(cyclic_codefile):
    c = cyclic_codefile.code
    assert c.local_generators is c.local_generators and c.off_support is c.off_support
    assert not c.off_support.flags.writeable and not c.off_support.any()
    assert [g.to_rows() for g in c.local_generators] == [
        [[c.G.to_rows()[i - 1][j - 1] for j in Ng] for i in Kg] for Kg, Ng in zip(c.structure.K, c.structure.N)
    ]


# ---------- verification ----------


def test_support_violations(cyclic_codefile):
    c = cyclic_codefile.code
    assert support_violations(c) == []
    rows = c.G.to_rows()
    rows[0][11] = 1  # data 1 may only touch group 1 positions
    bad = LedcCode(c.structure, c.field, make_matrix(c.field, rows))
    assert support_violations(bad) == [(1, 12)]


def test_verify_local_mds(suboptimal_codefile, cyclic_codefile):
    assert verify_local_mds(suboptimal_codefile.code) == {1: True, 2: True}
    assert verify_local_mds(cyclic_codefile.code) == {1: True, 2: True}


def test_verify_local_mds_zero_column_fails():
    c = single_group_code(F7, [[1, 0, 1], [2, 0, 3]])
    assert verify_local_mds(c) == {1: False}


def test_verify_ledc_suboptimal_not_optimal(suboptimal_codefile):
    report = verify_ledc(suboptimal_codefile.code, distance_method="both")
    assert report.support_ok
    assert report.local_mds == (True, True)
    assert report.distance == 4
    assert report.dmax == 5
    assert not report.optimal
    assert not report.all_ok


def test_verify_ledc_cyclic_fixture_optimal(cyclic_codefile):
    report = verify_ledc(cyclic_codefile.code, distance_method="rank")
    assert report.all_ok
    assert report.distance == report.dmax == 5


def test_verify_ledc_auto_method_selection(suboptimal_codefile, cyclic_codefile):
    assert verify_ledc(suboptimal_codefile.code).method == "exhaustive"  # 7^5 within budget
    assert verify_ledc(cyclic_codefile.code).method == "rank"  # 13^7 beyond it


def test_verify_ledc_both_raises_on_disagreement(suboptimal_codefile, monkeypatch):
    monkeypatch.setattr(code_module, "min_distance_rank", lambda c: 3)
    with pytest.raises(DistanceDisagreement, match="enumeration 4, rank 3"):
        verify_ledc(suboptimal_codefile.code, distance_method="both")


def test_verify_ledc_rejects_unknown_method(suboptimal_codefile):
    with pytest.raises(ValueError):
        verify_ledc(suboptimal_codefile.code, distance_method="guess")
