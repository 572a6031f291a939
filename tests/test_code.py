import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from conftest import load_code, log_plan_reads, vandermonde
from oracles import det, local_subcode_bound, min_weight_bruteforce, oracle_solve

import ledc.code as code_module
import ledc.linalg as linalg_module
from ledc.code import (
    LedcCode,
    certifies_dmax,
    distance_at_least,
    encode,
    erasure_decode,
    local_decode,
    min_distance_exhaustive,
    min_distance_rank,
    parity_certify,
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
    PreconditionViolated,
    SingularSubmatrix,
    SupportViolation,
    TooLarge,
    UnrecoverableErasurePattern,
)
from ledc.field import find_primitive, make_field
from ledc.linalg import MatrixGF, nullspace, rank, vec_mat
from ledc.locality import blocks_for_sizes, dmax, make_structure
from ledc.poly import linear_factor_product, poly_mul

F7 = make_field(7)


def single_group_code(f, G_rows):
    k = len(G_rows)
    n = len(G_rows[0])
    s = make_structure([list(range(1, k + 1))], [list(range(1, n + 1))])
    return LedcCode(s, MatrixGF(f, G_rows))


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def random_single_group_code(f, k, n, rng):
    return single_group_code(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)])


# ---------- construction guards ----------


def test_make_code_shape_checks(suboptimal_codefile):
    s = suboptimal_codefile.structure
    with pytest.raises(DimensionMismatch):
        LedcCode(s, MatrixGF(F7, identity_rows(5)))


def test_local_generator(suboptimal_codefile):
    lg = suboptimal_codefile.local_generators[0]
    assert (lg.rows, lg.cols) == (4, 5)
    assert lg.to_rows()[0] == [1, 1, 1, 1, 1]


# ---------- encode ----------


def test_encode_zero_and_units(suboptimal_codefile):
    c = suboptimal_codefile
    assert encode(c, [0] * 5) == [0] * 10
    for i in range(5):
        x = [0] * 5
        x[i] = 1
        assert encode(c, x) == c.G.to_rows()[i]


def test_encode_all_ones_is_column_sums(suboptimal_codefile):
    c = suboptimal_codefile
    rows = c.G.to_rows()
    expected = [sum(row[j] for row in rows) % 7 for j in range(10)]
    assert encode(c, [1] * 5) == expected


def test_encode_length_checked(suboptimal_codefile):
    with pytest.raises(DimensionMismatch):
        encode(suboptimal_codefile, [1, 2, 3])


def test_encode_is_exact_at_the_largest_field():
    """Every entry q - 1 at q = 2^31 - 1: 2 (q-1)^2 < 2^63 < 3 (q-1)^2, so k = 2 sums one int64 product
    and k = 3 must reduce each product before the sum. Data is reduced mod q first, also past int64."""
    f = make_field(2**31 - 1)
    q = f.q
    for k in (2, 3):
        rows, x = [[q - 1] * 4] * k, [q - 1] * k
        expected = [sum(xi * row[j] for xi, row in zip(x, rows)) % q for j in range(4)]
        c = single_group_code(f, rows)
        assert encode(c, x) == expected, k
        assert encode(c, [v - q for v in x]) == encode(c, [v + 2**70 * q for v in x]) == expected, k


def test_encode_changes_stay_local(suboptimal_codefile, cyclic_codefile):
    """A data symbol owned by one group only touches that group's block."""
    rng = random.Random(5601)
    for c in (suboptimal_codefile, cyclic_codefile):
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
    c = suboptimal_codefile
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
    c = cyclic_codefile
    x = list(range(1, 8))
    word = encode(c, x)
    got = local_decode(c, 2, [(p, word[p - 1]) for p in c.structure.N[1]])
    assert got == {i: x[i - 1] for i in c.structure.K[1]}


def test_local_decode_input_errors(suboptimal_codefile):
    c = suboptimal_codefile
    word = encode(c, [1, 2, 3, 4, 5])
    with pytest.raises(NotEnoughSymbols):
        local_decode(c, 1, [(1, word[0]), (2, word[1]), (3, word[2])])
    with pytest.raises(PositionsOutsideGroup):
        local_decode(c, 1, [(p, word[p - 1]) for p in (1, 2, 3, 6)])
    with pytest.raises(PositionsOutsideGroup):
        local_decode(c, 3, [(1, 0)])
    with pytest.raises(PositionsOutsideGroup):
        local_decode(c, 1, [(1, word[0]), (1, word[0]), (2, word[1]), (3, word[2])])
    # True would be read as position 1 and 1.0 would index G: each is named with its type
    for p, kind in ((True, "bool"), (1.0, "float")):
        with pytest.raises(PositionsOutsideGroup, match=rf"^position {p!r} is a {kind}, not an integer$"):
            local_decode(c, 1, [(p, word[0]), (2, word[1]), (3, word[2]), (4, word[3])])
    # so is the group: True would decode group 1, and 1.0 would index the groups
    observed = [(p, word[p - 1]) for p in c.structure.N[0]]
    for group, kind in ((True, "bool"), (1.0, "float"), ("1", "str"), (None, "NoneType")):
        with pytest.raises(PositionsOutsideGroup, match=rf"^group {group!r} is a {kind}, not an integer$"):
            local_decode(c, group, observed)
    assert local_decode(c, np.int64(1), observed) == local_decode(c, 1, observed)


def test_local_decode_singular_submatrix_is_invariant_breach():
    c = single_group_code(F7, [[1, 0], [1, 0]])
    with pytest.raises(SingularSubmatrix):
        local_decode(c, 1, [(1, 2), (2, 0)])


def off_support_code():
    """GF(2), K = {1, 2}, {2}, N = {1, 2}, {3, 4}: data 1 reaches position 3, outside its group."""
    f2 = make_field(2)
    s = make_structure([[1, 2], [2]], [[1, 2], [3, 4]])
    return LedcCode(s, MatrixGF(f2, [[0, 0, 1, 0], [0, 0, 1, 1]]))


def test_local_decode_refuses_off_support_position():
    """Position 3 alone would give x_2 = 1 for x = (1, 0): it carries x_1 + x_2."""
    c = off_support_code()
    word = encode(c, [1, 0])
    with pytest.raises(SupportViolation, match="position 3 depends on data 1"):
        local_decode(c, 2, [(3, word[2])])
    assert local_decode(c, 2, [(4, word[3])]) == {2: 0}  # position 4 carries x_2 alone
    assert local_decode(c, 2, [(3, None), (4, word[3])]) == {2: 0}  # an erased position depends on nothing


def test_local_decode_reads_the_support_verdict_per_code():
    """The off-support verdict is one bool per position, built once per code: position 3 of off_support_code() is
    flagged and still named with data 1, while an on-support G of the same structure flags nothing and decodes
    position 3 alone."""
    c = off_support_code()
    assert c.off_columns == (False, False, True, False) and c.off_columns is c.off_columns
    with pytest.raises(SupportViolation, match=r"^group 2: position 3 depends on data 1, outside K_2$"):
        local_decode(c, 2, [(4, 1), (3, 1)])
    sound = LedcCode(c.structure, MatrixGF(c.field, [[1, 1, 0, 0], [0, 1, 1, 1]]))
    assert sound.off_columns == (False,) * 4
    assert local_decode(sound, 2, [(3, 1)]) == {2: 1}


def test_local_decode_checks_in_order():
    """Each input breaks every check from one on, and the first of them answers: group, positions, distinct,
    NotEnoughSymbols, SupportViolation, SingularSubmatrix. Position 3 depends on data 1, outside K_2 = {2}, and
    group 2's local generator G[{2}, {3, 4}] is zero."""
    c = LedcCode(make_structure([[1, 2], [2]], [[1, 2], [3, 4]]), MatrixGF(F7, [[1, 0, 1, 0], [0, 1, 0, 0]]))
    for group, observed, error, message in (
        (3, [(1, 1), (1, 1)], PositionsOutsideGroup, r"^no group 3 \(have 1..2\)$"),
        (2, [(1, 1), (3, 1), (3, 1)], PositionsOutsideGroup, r"^positions \[1\] not in group 2$"),
        (2, [(3, 1), (3, 1), (4, None)], PositionsOutsideGroup, r"^observed positions must be distinct$"),
        (2, [(3, None), (4, None)], NotEnoughSymbols, r"^0 symbols < k_2=1$"),
        (2, [(4, 0), (3, 1)], SupportViolation, r"^group 2: position 3 depends on data 1, outside K_2$"),
        (2, [(3, None), (4, 0)], SingularSubmatrix, r"^group 2: 1 observed columns do not determine the 1 local"),
    ):
        with pytest.raises(error, match=message):
            local_decode(c, group, observed)


def test_local_decode_reads_none_as_an_erasure(cyclic_codefile):
    """A pair (p, None) is an erasure: three known symbols of group 1 (k_1 = 4) are too few on a sound code."""
    c = cyclic_codefile
    x = [1, 2, 3, 4, 5, 6, 7]
    word = encode(c, x)
    with pytest.raises(NotEnoughSymbols, match=r"^3 symbols < k_1=4$"):
        local_decode(c, 1, [(1, word[0]), (2, word[1]), (3, word[2]), (4, None)])
    got = local_decode(c, 1, [(5, None)] + [(p, word[p - 1]) for p in (4, 1, 3, 2)])
    assert got == {i: x[i - 1] for i in c.structure.K[0]}


@pytest.mark.parametrize(
    "bad",
    [1.5, True, "1", None, np.float64(1.0), np.bool_(True)],
    ids=["float", "bool", "str", "None", "np-float", "np-bool"],
)
def test_encode_refuses_symbols_that_are_not_integers(cyclic_codefile, bad):
    """A float or bool equal to an integer is refused as a string is; None marks erasures only in decode words."""
    with pytest.raises(PreconditionViolated, match=f"^symbols must be integers, got {type(bad).__name__}$"):
        encode(cyclic_codefile, [bad, 2, 3, 4, 5, 6, 7])


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int8, np.uint64])
def test_symbols_may_be_numpy_integers(cyclic_codefile, dtype):
    """Numpy integers are read as the ints they hold: narrow ones must not wrap in the decoders' arithmetic."""
    c = cyclic_codefile
    x = [1, 2, 3, 4, 5, 6, 7]
    word = encode(c, x)
    assert encode(c, [dtype(v) for v in x]) == encode(c, np.array(x, dtype=dtype)) == word
    received = [None if j in (0, 3, 5) else dtype(v) for j, v in enumerate(word)]
    assert erasure_decode(c, received) == x
    assert local_decode(c, 1, [(p, dtype(word[p - 1])) for p in (2, 3, 4, 5)]) == dict(zip(range(1, 5), x))


@pytest.mark.parametrize("bad", [0.5, "1"], ids=["fraction", "string"])
def test_decoders_refuse_symbols_that_are_not_integers(cyclic_codefile, bad):
    """A codeword with positions 1 and 4 erased and position 2 raised by 0.5 is not decoded to the data
    it came from, and a string symbol is named rather than failing inside the arithmetic."""
    c = cyclic_codefile
    word = encode(c, [1, 2, 3, 4, 5, 6, 7])
    received = [None, word[1] + bad if bad == 0.5 else bad, word[2], None, *word[4:]]
    with pytest.raises(PreconditionViolated, match=f"^symbols must be integers, got {type(bad).__name__}$"):
        erasure_decode(c, received)
    with pytest.raises(PreconditionViolated, match="^symbols must be integers"):
        local_decode(c, 1, [(1, word[0]), (2, received[1]), (3, word[2]), (4, word[3])])


# ---------- erasure decode ----------


def test_erasure_decode_no_erasures(suboptimal_codefile):
    c = suboptimal_codefile
    x = [3, 1, 4, 1, 5]
    assert erasure_decode(c, encode(c, x)) == x


def test_erasure_decode_every_small_pattern(suboptimal_codefile):
    c = suboptimal_codefile
    x = [2, 0, 6, 1, 3]
    word = encode(c, x)
    for size in range(1, 4):  # distance is 4, all 3-erasure patterns recover
        for erased in combinations(range(10), size):
            received = [None if j in erased else word[j] for j in range(10)]
            assert erasure_decode(c, received) == x


def test_erasure_decode_unrecoverable_pattern_exists(suboptimal_codefile):
    c = suboptimal_codefile
    word = encode(c, [2, 0, 6, 1, 3])
    failures = 0
    for erased in combinations(range(10), 4):
        received = [None if j in erased else word[j] for j in range(10)]
        try:
            erasure_decode(c, received)
        except UnrecoverableErasurePattern:
            failures += 1
    assert failures > 0


def test_erasure_decode_length_checked(suboptimal_codefile):
    with pytest.raises(DimensionMismatch):
        erasure_decode(suboptimal_codefile, [0] * 9)


def test_erasure_decode_counts_the_erasures_of_an_ndarray_word(cyclic_codefile):
    """An object ndarray word is decoded like a list, and its refusal counts its erasures too."""
    c = cyclic_codefile
    received = np.array(encode(c, [1, 2, 3, 4, 5, 6, 7]), dtype=object)
    received[[0, 3]] = None
    assert erasure_decode(c, received) == [1, 2, 3, 4, 5, 6, 7]
    received[6:] = None
    with pytest.raises(UnrecoverableErasurePattern, match="^8 erasures leave rank below k=7$"):
        erasure_decode(c, received)
    received[:] = np.array(encode(c, [1, 2, 3, 4, 5, 6, 7]), dtype=object)
    received[:6] = None
    with pytest.raises(UnrecoverableErasurePattern, match="^6 erasures leave rank below k=7$"):
        erasure_decode(c, received)


def test_erasure_decode_all_erased():
    c = single_group_code(F7, [[1, 0], [0, 1]])
    with pytest.raises(UnrecoverableErasurePattern):
        erasure_decode(c, [None, None])


# ---------- minimum distance ----------


def test_distance_golden_suboptimal_code(suboptimal_codefile):
    c = suboptimal_codefile
    assert min_distance_exhaustive(c) == 4
    assert min_distance_rank(c) == 4


def test_distance_golden_cyclic_fixture(cyclic_codefile, cyclic_descending):
    assert min_distance_rank(cyclic_codefile) == 5
    assert min_distance_rank(cyclic_descending) == 5


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

    f65537 = make_field(65537)  # uint32 tables
    wide = single_group_code(f65537, [[1, 2, 0, 65536, 3]])
    for cap in (1, default_cap):
        monkeypatch.setattr(code_module, "SUFFIX_CAP", cap)
        assert min_distance_exhaustive(wide) == 4


def test_exhaustive_distance_at_each_table_width_edge(monkeypatch):
    """GF(127) is the largest field with one-byte tables, whose residue sums reach 252; GF(131) the first with
    two, and GF(31607) lies near 2^15 within the budget at k = 2; GF(32771) is the first with four."""
    default_cap = code_module.SUFFIX_CAP
    rng = random.Random(1931)
    for q, width, k in ((127, 1, 3), (131, 2, 3), (31607, 2, 2), (32771, 4, 1), (65537, 4, 1)):
        f = make_field(q)
        # One row onto a nonzero start: every sum of two residues, wrapped or not.
        row, start = MatrixGF(f, [[1, q - 1, q - 2, rng.randrange(q)], [q - 1, q - 1, 1, rng.randrange(q)]]).entries
        table = code_module._span(q, row[None, :], start)
        assert (table.dtype.kind, table.dtype.itemsize) == ("u", width), q
        assert table.tolist() == [[(b + x * a) % q for x in range(q)] for a, b in zip(row.tolist(), start.tolist())]
        for _ in range(4):
            c = random_single_group_code(f, k, rng.randint(k + 1, 6), rng)
            expected = min_distance_rank(c)
            for cap in (1, q, default_cap):
                monkeypatch.setattr(code_module, "SUFFIX_CAP", cap)
                assert min_distance_exhaustive(c) == expected, (q, cap, c.G.to_rows())


def test_span_columns_count_in_base_q_first_row_most_significant():
    """Column c is start + sum of digit_i(c) row_i, digit 0 of c in base q the most significant."""
    rng = random.Random(1933)
    for q, k in ((2, 4), (3, 3), (5, 3), (7, 2)):
        rows = np.array([[rng.randrange(q) for _ in range(4)] for _ in range(k)])
        for start in ([0] * 4, [rng.randrange(q) for _ in range(4)]):
            table = code_module._span(q, rows, np.array(start))
            expected = []
            for c in range(q**k):
                digits = [c // q ** (k - 1 - i) % q for i in range(k)]
                expected.append([(b + sum(d * int(row[j]) for d, row in zip(digits, rows))) % q for j, b in enumerate(start)])
            assert table.T.tolist() == expected, (q, start)


def test_exhaustive_distance_checks_rank_only_at_a_weight_one_exit(monkeypatch):
    """A rank-deficient G gives 0 under every cap, also when the scan stops early at weight 1."""
    default_cap = code_module.SUFFIX_CAP
    ranks = []
    rank = code_module.rank
    monkeypatch.setattr(code_module, "rank", lambda G: ranks.append(G) or rank(G))
    cases = (
        # Rows 2 + 3 are the zero word; under a one-row suffix, row 3 alone is a
        # weight-1 word of the zero-prefix scan.
        (make_field(2), [[1, 0, 1], [0, 1, 0], [0, 1, 0]]),
        # Row 4 = 2 row 3, but every suffix word has weight 2 and lead 0 finds
        # row 1 - row 2 = (1, 0, 0, 0) before lead 2 reaches the zero word.
        (F7, [[1, 1, 1, 0], [0, 1, 1, 0], [0, 1, 2, 1], [0, 2, 4, 2]]),
    )
    for f, rows in cases:
        c = single_group_code(f, rows)
        assert min_weight_bruteforce(f.q, rows) == 0
        for cap, stops_at_one in ((1, True), (f.q, True), (default_cap, False)):
            monkeypatch.setattr(code_module, "SUFFIX_CAP", cap)
            ranks.clear()
            assert min_distance_exhaustive(c) == 0, (f.q, cap)
            assert len(ranks) == stops_at_one, (f.q, cap)


def test_exhaustive_distance_never_ranks_a_code_of_distance_two_or_more(suboptimal_codefile, monkeypatch):
    default_cap = code_module.SUFFIX_CAP
    rng = random.Random(2)
    codes = [suboptimal_codefile, single_group_code(F7, [[1, 1, 0, 2], [0, 1, 1, 3]])]
    codes += [random_single_group_code(make_field(q), 3, 7, rng) for q in (11, 13, 131)]
    distances = [min_distance_rank(c) for c in codes]
    assert min(distances) >= 2
    monkeypatch.setattr(code_module, "rank", lambda G: pytest.fail("min_distance_exhaustive reduced G"))
    for c, d in zip(codes, distances):
        for cap in (1, c.field.q, default_cap):
            monkeypatch.setattr(code_module, "SUFFIX_CAP", cap)
            assert min_distance_exhaustive(c) == d, (c.field.q, cap)


def grouped_code(rng, m, kind):
    """A code over GF(2..7) on m groups whose data symbols are each private to one group or shared by two or more.

    With m > 1 group 1 has no private symbol. G is drawn on the support pattern, or with entries off it, or on it
    with one row zero; a shared row that happens to vanish on a block is private by G's own pattern.
    """
    while True:
        q = rng.choice((2, 3, 5, 7))
        private = [0 if g == 0 and m > 1 else rng.randint(0, 3) for g in range(m)]
        shared = [rng.sample(range(m), rng.randint(2, m)) for _ in range(rng.randint(1, 2) if m > 1 else 0)]
        k = sum(private) + len(shared)
        if k and q**k <= 4000:
            break
    K = [set() for _ in range(m)]
    symbols = iter(range(1, k + 1))
    for g, count in enumerate(private):
        K[g].update(next(symbols) for _ in range(count))
    for groups in shared:
        i = next(symbols)
        for g in groups:
            K[g].add(i)
    for g in range(m):  # a group that no symbol reached takes a shared one
        if not K[g]:
            K[g].add(rng.randint(1, k))
    s = make_structure(K, blocks_for_sizes([len(Kg) + rng.randint(0, 2) for Kg in K]))
    rows = [[rng.randrange(q) if ok or kind == "off support" and rng.random() < 0.3 else 0 for ok in row] for row in s.support]
    if kind == "zero row":
        rows[rng.randrange(k)] = [0] * s.n
    return LedcCode(s, MatrixGF(make_field(q), rows))


def test_exhaustive_distance_by_groups_agrees_with_the_oracles(monkeypatch):
    """Per-group suffix tables against brute force and the rank path, on 1..4 groups and under caps 1, q and the
    default; caps 1 and q put some private symbols of a group with two or more in the prefix. A zero row builds no
    table; otherwise the first m tables a code on m >= 2 groups builds each span one block."""
    default_cap = code_module.SUFFIX_CAP
    rng = random.Random(2704)
    span, widths = code_module._span, []
    monkeypatch.setattr(code_module, "_span", lambda q, rows, start: widths.append(len(start)) or span(q, rows, start))
    seen = set()
    for m in range(1, 5):
        for trial in range(45):
            kind = ("support", "off support", "zero row")[trial % 3]
            c = grouped_code(rng, m, kind)
            q, rows, N = c.field.q, c.G.to_rows(), c.structure.N
            expected = min_weight_bruteforce(q, rows)
            assert min_distance_rank(c) == expected, rows
            for cap in (1, q, default_cap):
                monkeypatch.setattr(code_module, "SUFFIX_CAP", cap)
                widths.clear()
                assert min_distance_exhaustive(c) == expected, (q, cap, c.structure, rows)
                if not all(map(any, rows)):
                    assert widths == []  # a zero row is a weight-0 message: no table is built
                elif m > 1:
                    assert widths[:m] == [len(Ng) for Ng in N]
            monkeypatch.setattr(code_module, "SUFFIX_CAP", default_cap)
            reach = [[any(row[j - 1] for j in Ng) for Ng in N] for row in rows]
            private = [sum(r == [h == g for h in range(m)] for r in reach) for g in range(m)]
            seen |= {(m, kind), f"distance {expected}"}
            if m > 1 and 0 in private:
                seen.add("no private symbol")
            if max(private) >= 2:
                seen.add("a prefix of private symbols")
    assert {(m, kind) for m in range(1, 5) for kind in ("support", "off support", "zero row")} <= seen
    assert {"no private symbol", "a prefix of private symbols", "distance 0", "distance 1", "distance 3"} <= seen


def test_exhaustive_distance_overflows_the_default_cap():
    """GF(2), 16 symbols private to group 1, whose block is the [18, 17] parity code on them and shared symbol 17: its
    table holds the last 15 (2^15 = SUFFIX_CAP), and the first joins the prefix with symbol 17. Symbol 18 is private
    to group 2. A single private symbol of group 1 has weight 2, the least; the rank path agrees."""
    s = make_structure([list(range(1, 18)), [17, 18]], blocks_for_sizes([18, 3]))
    rows = [[int(j in (i, 18)) for j in range(1, 19)] + [0, 0, 0] for i in range(1, 18)]
    rows[16][18:] = [1, 0, 1]
    rows.append([0] * 19 + [1, 1])
    c = LedcCode(s, MatrixGF(make_field(2), rows))
    assert not support_violations(c)
    assert len(code_module._fit(2, list(range(16)))) == 15 == code_module.SUFFIX_CAP.bit_length() - 1
    assert min_distance_exhaustive(c) == min_distance_rank(c) == 2


def test_distance_rank_search_walks_from_the_bound(suboptimal_codefile, cyclic_codefile, monkeypatch):
    f11 = make_field(11)
    s = make_structure([[1, 2, 3], [3, 4]], blocks_for_sizes([3, 4]))
    dense = LedcCode(s, vandermonde(f11, range(1, 8), 4))  # MDS, ignores the support
    deficient = single_group_code(F7, [[1, 2, 3], [2, 4, 6]])
    levels = []
    certify = code_module.distance_at_least
    monkeypatch.setattr(code_module, "distance_at_least", lambda c, d0: levels.append(d0) or certify(c, d0))
    cases = (
        (cyclic_codefile, 5, []),  # its roots prove d >= dmax = 5 on the support: no level is searched
        (LedcCode(cyclic_codefile.structure, cyclic_codefile.G), 5, [5]),  # no omega: d >= dmax, the bound above
        (suboptimal_codefile, 4, [5, 4]),  # dmax = 5: walks down
        (dense, 4, [2, 3, 4, 5]),  # dmax = 2: walks up to n - k + 1
        (deficient, 0, []),
    )
    for c, d, searched in cases:
        levels.clear()
        assert min_distance_rank(c) == min_distance_exhaustive(c) == d
        assert levels == searched
    assert dmax(dense.structure) < 4 < dmax(suboptimal_codefile.structure)


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
        [draw(value) if allowed[j - 1] or kind == "off support" else 0 for j in range(1, n + 1)]
        for allowed in s.support
    ]
    if kind == "deficient" and k >= 2:
        scale = draw(value)
        rows[-1] = [scale * v % q for v in rows[0]]
    group = s.N[draw(st.integers(0, m - 1))] if kind == "singular local" else ()
    if len(group) >= 2:
        scale = draw(value)
        for row in rows:
            row[group[1] - 1] = scale * row[group[0] - 1] % q
    return LedcCode(s, MatrixGF(f, rows))


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
    H = nullspace(c.G)
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


@st.composite
def subcode_codes(draw):
    """Codes on their support pattern over GF(5..13): m = 2..4 groups, k <= 5, k_i <= 3, n <= 14.

    Symbols sit in one or two groups. G is uniform, or nonzero on the whole
    support, or has a group where one row's block repeats a multiple of
    another's, so that the group's subcodes holding both are rank deficient.
    """
    q = draw(st.sampled_from((5, 7, 11, 13)))
    m = draw(st.integers(2, 4))
    k = draw(st.integers(1, 5))
    K = [set() for _ in range(m)]
    for i in range(1, k + 1):
        for g in draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=2)):
            K[g].add(i)
    for g in range(m):
        if not K[g]:
            K[g].add(draw(st.integers(1, k)))
    assume(max(map(len, K)) <= 3)
    sizes = [len(Kg) + draw(st.integers(0, 3)) for Kg in K]
    assume(sum(sizes) <= 14)
    s = make_structure(K, blocks_for_sizes(sizes))
    kind = draw(st.sampled_from(("uniform", "nonzero", "dependent")))
    value = st.integers(1 if kind == "nonzero" else 0, q - 1)
    rows = [[draw(value) if allowed[j - 1] else 0 for j in range(1, s.n + 1)] for allowed in s.support]
    wide = [g for g in range(m) if len(s.K[g]) >= 2]
    if kind == "dependent" and wide:
        g = draw(st.sampled_from(wide))
        a, b = draw(st.permutations(s.K[g]))[:2]
        scale = draw(st.integers(0, q - 1))
        for j in s.N[g]:
            rows[b - 1][j - 1] = scale * rows[a - 1][j - 1] % q
    return LedcCode(s, MatrixGF(make_field(q), rows))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(subcode_codes())
def test_local_certificate_against_oracles(c):
    """The local subcode bound LB never exceeds d; the certificate holds exactly when LB >= dmax, and then the walk finds dmax."""
    s = c.structure
    lb = local_subcode_bound(c.field.q, s.K, s.N, c.G.to_rows())
    d = min_distance_exhaustive(c)
    assert lb <= d
    assert certifies_dmax(c) == (lb >= c.dmax)
    event("certified" if lb >= c.dmax else "LB = 0" if lb == 0 else "LB below dmax")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "certifies_dmax", lambda c: False)
        walked = min_distance_rank(LedcCode(s, c.G))
    assert min_distance_rank(c) == walked == d
    if lb >= c.dmax:
        assert walked == c.dmax


@st.composite
def parity_codes(draw, roots):
    """(code, delta, omega, kind, right): one group of k <= 4 rows on n <= 9 columns over GF(2..13), checked at delta.

    With `roots` the rows are g h_i with g = prod_{j < delta - 1} (x - w^j) for a primitive w or any residue, at
    distinct shifts s_i with h_i(0) != 0 (rows that find no shift left stay zero), checked at omega = w or at another
    integer; n >= q makes the points w^j repeat. Without it they are the power rows p^i, i < k, at the points
    p = 1..n in any order, each scaled, also with n > q, checked without omega. `right` says the hint is the one the
    rows were built for. Then kind "built" leaves the rows as they are, "basis" adds a multiple of one row to another,
    "dependent" sets one row to a multiple of another, so every parity product still vanishes, "perturbed" changes
    one entry and "permuted" permutes the columns.
    """
    q = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    f = make_field(q)
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(4, n)))
    delta = draw(st.integers(1, n - k + 2))
    if roots:
        w = draw(st.sampled_from((find_primitive(f), draw(st.integers(0, q - 1)))))
        g = linear_factor_product(f, [pow(w, j, q) for j in range(delta - 1)])
        room = n - len(g) + 1  # shifts at which a multiple of g fits
        rows = [[0] * n for _ in range(k)]
        for row, shift in zip(rows, draw(st.permutations(range(max(room, 0))))):
            h = [draw(st.integers(1, q - 1)), *draw(st.lists(st.integers(0, q - 1), max_size=room - shift - 1))]
            row[shift : shift + len(g) + len(h) - 1] = poly_mul(f, g, h)
        omega = draw(st.sampled_from((w, draw(st.integers(-q, 2 * q)))))
        right = omega % q == w
    else:
        scales = draw(st.lists(st.integers(1, q - 1), min_size=k, max_size=k))
        exponents = draw(st.permutations(range(k)))
        rows = [[a * pow(p, i, q) % q for p in range(1, n + 1)] for a, i in zip(scales, exponents)]
        omega, right = None, True
    kind = draw(st.sampled_from(("built", "perturbed", "permuted") + (("basis", "dependent") if k >= 2 else ())))
    if kind in ("basis", "dependent"):
        a, b = draw(st.permutations(range(k)))[:2]
        scale = draw(st.integers(1, q - 1))
        rows[b] = [(scale * u + (v if kind == "basis" else 0)) % q for u, v in zip(rows[a], rows[b])]
    if kind == "perturbed":
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = (rows[i][j] + draw(st.integers(1, q - 1))) % q
    if kind == "permuted":
        order = draw(st.permutations(range(n)))
        rows = [[row[j] for j in order] for row in rows]
    s = make_structure([range(1, k + 1)], [range(1, n + 1)])
    return LedcCode(s, MatrixGF(f, rows), {} if omega is None else {"omega": omega}), delta, omega, kind, right


@settings(derandomize=True, max_examples=400, deadline=None)
@given(parity_codes(roots=True))
def test_root_certificate_never_exceeds_the_enumerated_distance(case):
    """parity_certify on multiples of the root polynomial, at the right omega or another one."""
    check_parity_certificate(case)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(parity_codes(roots=False))
def test_vandermonde_certificate_is_sound(case):
    """parity_certify on scaled power rows at the points 1..n in any order, also with n > q."""
    check_parity_certificate(case)


def check_parity_certificate(case):
    """Whenever the certificate holds, the rows are independent and enumeration finds no nonzero codeword of weight
    below delta. At the right hint, built rows and rows in another basis are proved exactly when the points are
    distinct and delta is within the Singleton level; dependent rows and, past delta = 1, a changed entry never are.
    verify_ledc returns what the walks alone give."""
    c, delta, omega, kind, right = case
    (k, n), q = c.G.entries.shape, c.field.q
    certified = parity_certify(c.G, delta, omega)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "PARITY_TABLE_CAP", 0)  # the columns one at a time, as past the cap
        assert parity_certify(c.G, delta, omega) == certified
    hint = ("omega" if omega is not None else "points 1..n") + ("" if right else " (wrong)")
    event(f"{kind}, {hint}: {'certified' if certified else 'not certified'}")
    if certified:
        assert rank(c.G) == k and min_distance_exhaustive(c) >= delta
    if kind == "dependent" or kind == "perturbed" and delta >= 2:
        assert not certified
    if right and kind in ("built", "basis"):
        points = [pow(omega, j, q) for j in range(n)] if omega is not None else [p % q for p in range(1, n + 1)]
        assert certified == (len(set(points)) == n and delta <= n - k + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "parity_certify", lambda *args: False)
        walked = verify_ledc(LedcCode(c.structure, c.G, c.meta), "rank")
    assert verify_ledc(c, "rank") == walked


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.deferred(lambda: two_group_codes()), st.data())
def test_parity_certificate_on_built_and_damaged_codes(c, data):
    """Nested and cyclic codes as built: every local level and the distance are proved with no level swept and no
    rank. With one entry changed on the support, or two columns of a block swapped, verify_ledc gives what the walks
    alone give."""
    s, q = c.structure, c.field.q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "_level", lambda *args: pytest.fail("swept a level"))
        mp.setattr(code_module, "rank", lambda *args: pytest.fail("computed a rank"))
        report = verify_ledc(LedcCode(s, c.G, c.meta), "rank")
    assert report.all_ok and report.distance == report.dmax == c.meta["claimed_distance"]
    G = c.G.entries.copy()
    Ng = data.draw(st.sampled_from(s.N))
    if len(Ng) >= 2 and data.draw(st.booleans()):
        a, b = (j - 1 for j in data.draw(st.permutations(Ng))[:2])
        G[:, [a, b]] = G[:, [b, a]]
    else:
        i, j = data.draw(st.sampled_from(np.argwhere(s.support).tolist()))
        G[i, j] = (G[i, j] + data.draw(st.integers(1, q - 1))) % q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(code_module, "parity_certify", lambda *args: False)
        walked = verify_ledc(LedcCode(s, MatrixGF(c.field, G), c.meta), "rank")
    assert verify_ledc(LedcCode(s, MatrixGF(c.field, G), c.meta), "rank") == walked


def test_root_certificate_falls_back_when_one_entry_changes(cyclic_codefile, monkeypatch):
    """Any one entry of the cyclic fixture changed on its support: its row no longer vanishes at the roots, so the
    global check and its group's local-MDS check fall back to the walks, which agree with the code without omega
    and with enumeration."""
    c0 = cyclic_codefile
    checked = []
    certify = code_module.parity_certify

    def spy(M, delta, omega=None):
        checked.append((M.entries.shape, delta, certify(M, delta, omega)))
        return checked[-1][2]

    monkeypatch.setattr(code_module, "parity_certify", spy)
    distances = set()
    for i, j in zip(*np.nonzero(c0.structure.support)):
        rows = c0.G.to_rows()
        rows[i][j] = (rows[i][j] + 1) % 13
        c = LedcCode(c0.structure, MatrixGF(c0.field, rows), c0.meta)
        bare = LedcCode(c.structure, c.G)
        checked.clear()
        assert verify_local_mds(c) == verify_local_mds(bare)
        d = min_distance_rank(c)
        assert d == min_distance_rank(bare) == min_distance_exhaustive(c)
        k_g, n_g = c.local_generators[0 if j + 1 in c.structure.N[0] else 1].entries.shape
        for shape, delta in (((7, 12), 5), ((k_g, n_g), n_g - k_g + 1)):  # the global check, then the group's
            assert (shape, delta, False) in checked and (shape, delta, True) not in checked
        distances.add(d)
    assert distances == {4, 5}


def test_root_certificate_is_bounded_in_work(cyclic_codefile, monkeypatch):
    """More than RANK_BUDGET products, k n (delta - 1 + k), give False before any point is built; otherwise one product
    decides, also for a row that misses the first root."""
    c = cyclic_codefile
    products = []
    monkeypatch.setattr(code_module, "vec_mat", lambda *args: products.append(args) or vec_mat(*args))
    code_module._parity_table.cache_clear()
    assert parity_certify(c.G, 5, 2) and len(products) == 1
    rows = c.G.to_rows()
    rows[0][1] += 1  # the row's sum, its value at w^0, is no longer 0
    products.clear()
    assert not parity_certify(MatrixGF(c.field, rows), 5, 2) and len(products) == 1
    kept, powers = code_module._parity_table, code_module.scaled_powers
    monkeypatch.setattr(code_module, "_parity_table", lambda *args: pytest.fail("built the points past the budget"))
    monkeypatch.setattr(code_module, "scaled_powers", lambda *args: pytest.fail("built a column past the budget"))
    monkeypatch.setattr(code_module, "RANK_BUDGET", 7 * 12 * 11 - 1)
    products.clear()
    assert not parity_certify(c.G, 5, 2) and not products
    monkeypatch.setattr(code_module, "_parity_table", kept)
    monkeypatch.setattr(code_module, "scaled_powers", powers)
    monkeypatch.setattr(code_module, "RANK_BUDGET", 7 * 12 * 11)
    assert parity_certify(c.G, 5, 2)


def test_parity_certificate_past_the_table_cap_goes_block_by_block(cyclic_codefile, monkeypatch):
    """P's columns come in blocks of PARITY_TABLE_CAP // (k n), one product each: below a cap of k n (delta - 1 + k),
    7 x 12 x 11, the cyclic fixture takes its 11 columns in blocks of 10 and 1, and a row that misses the first root
    stops after the first block. A cap under k n makes one column per block. The first block is the kept table, made
    by one call of the builder; each later block goes on from the last column of the one before, so no column is
    made twice or past the first block with a nonzero check."""
    c = cyclic_codefile
    kept, powers = code_module._parity_table, code_module.scaled_powers
    tables, columns, products = [], [], []

    def spy(*args):
        for X in powers(*args):
            columns.append(X)
            yield X

    monkeypatch.setattr(code_module, "_parity_table", lambda *args: tables.append(args) or kept(*args))
    monkeypatch.setattr(code_module, "scaled_powers", spy)
    monkeypatch.setattr(code_module, "vec_mat", lambda *args: products.append(args[2]) or vec_mat(*args))
    rows = c.G.to_rows()
    rows[0][1] += 1
    damaged = MatrixGF(c.field, rows)
    whole = kept(13, 12, 2, 11)[1]
    for cap, M, proved, blocks in (
        (7 * 12 * 11 - 1, c.G, True, [10, 1]),
        (7 * 12 * 11 - 1, damaged, False, [10]),
        (7 * 12 - 1, c.G, True, [1] * 11),
        (7 * 12 - 1, damaged, False, [1]),
    ):
        monkeypatch.setattr(code_module, "PARITY_TABLE_CAP", cap)
        kept.cache_clear()
        tables.clear()
        columns.clear()
        products.clear()
        assert parity_certify(M, 5, 2) == proved
        assert [P.shape for P in products] == [(12, b) for b in blocks]
        assert (np.hstack(products) == whole[:, : sum(blocks)]).all()
        assert tables == [(13, 12, 2, blocks[0])] and kept.cache_info().currsize == 1
        # each block's columns, and each later block's start: the last column of the one before
        assert len(columns) == sum(blocks) + len(blocks) - 1


def test_parity_certificate_at_the_table_cap(monkeypatch):
    """At k n (delta - 1 + k) = PARITY_TABLE_CAP products a check is one product with the kept table; one product more
    makes two, the first from the kept table and the next going on from its last column. Either way the check adds
    one kept table, of at most PARITY_TABLE_CAP // k cells. Power rows p^i, i < k, at the points 1..n are proved."""
    f, cap = make_field(2003), code_module.PARITY_TABLE_CAP
    kept, products = code_module._parity_table, []
    monkeypatch.setattr(code_module, "vec_mat", lambda *args: products.append(args[2].shape) or vec_mat(*args))
    for k, n, delta, blocks in ((4, 128, 29, [32]), (5, 113, 25, [28, 1])):
        assert k * n * (delta - 1 + k) == cap + len(blocks) - 1
        kept.cache_clear()
        products.clear()
        assert parity_certify(vandermonde(f, range(1, n + 1), k), delta)
        assert products == [(n, b) for b in blocks]
        first = kept(2003, n, None, blocks[0])[1]  # a hit: the entry the check added
        assert kept.cache_info().currsize == 1 and first.size <= cap // k


def test_parity_tables_past_the_cap_are_not_kept():
    """A first block of more than PARITY_TABLE_CAP entries is built for its check alone. Distinct 1 x 20,000 checks at
    delta = 3, each one column of n entries beside the n points, retain less than one such table of 2 n int64s once
    they return, and the cache stays empty (64 kept tables would hold 20 MB). Eight are traced: under tracemalloc a
    check's 20,000 modular inverses take a quarter of a second. The ones row is the Reed-Solomon codeword of the
    constant, of weight n, so each is proved."""
    f, kept = make_field(65537), code_module._parity_table
    kept.cache_clear()
    tracemalloc.start()
    try:
        for n in range(20_000, 20_008):
            assert n > code_module.PARITY_TABLE_CAP and parity_certify(MatrixGF(f, np.ones((1, n), dtype=np.int64)), 3)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 16 * 20_000 and kept.cache_info().currsize == 0


def test_root_certificate_is_exact_at_the_largest_field(monkeypatch):
    """At q = 2^31 - 1 every evaluation takes vec_mat's product by limbs; the roots alone still prove the code."""
    q = 2**31 - 1
    s = make_structure([[1, 2, 3, 4], [2, 3, 4, 5, 6, 7]], blocks_for_sizes([5, 7]))
    # 7^1000003 is primitive (1000003 is prime to q - 1), and its powers spread over GF(q), so one int64 product wraps
    c, _ = construct_cyclic(s, make_field(q), pow(7, 1_000_003, q))
    monkeypatch.setattr(code_module, "_level", lambda *args: pytest.fail("swept a level"))
    assert verify_local_mds(c) == {1: True, 2: True}
    assert min_distance_rank(c) == c.dmax == 5


@pytest.mark.parametrize("q", [2003, 2**31 - 1])
def test_parity_certificate_memory_is_linear_in_the_block(q):
    """A 1 x 2000 block at its local-MDS level, delta = 2000, uses the whole budget of 4 * 10^6 products. The all-ones
    row, dual to the GRS code on the points 1..2000, is proved through every column of M P; a random row stops at the
    first. Either way the columns come in blocks of PARITY_TABLE_CAP // n = 8: the traced peak stays within 1 MiB,
    where an n x delta matrix of int64 checks would take 32 MB."""
    f = make_field(q)
    for row, proved in (([1] * 2000, True), (random.Random(q).choices(range(1, q), k=2000), False)):
        tracemalloc.start()
        try:
            assert parity_certify(MatrixGF(f, [row]), 2000) == proved
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


def chain_code():
    """20 groups in a chain, each with 3 symbols of its own and the next group's first: n = 119, dmax = 4."""
    K = [range(3 * g + 1, min(3 * g + 5, 61)) for g in range(20)]
    s = make_structure(K, blocks_for_sizes([len(Kg) + 2 for Kg in K]))
    rng = random.Random(2020)
    f = make_field(65537)
    rows = [[rng.randrange(1, f.q) if allowed[j - 1] else 0 for j in range(1, s.n + 1)] for allowed in s.support]
    return LedcCode(s, MatrixGF(f, rows))


def test_certificate_at_20_groups_no_slower_than_the_walk(monkeypatch):
    """Only the connected group sets whose local distances sum below dmax are searched: 20 here, not 2^20."""
    c = chain_code()
    assert c.dmax == 4 and c.structure.n == 119
    fresh = LedcCode(c.structure, c.G)
    start = time.perf_counter()
    certified = verify_ledc(fresh, "rank")
    certify_s = time.perf_counter() - start
    monkeypatch.setattr(code_module, "certifies_dmax", lambda c: False)
    start = time.perf_counter()
    walked = verify_ledc(c, "rank")
    walk_s = time.perf_counter() - start
    assert certified == walked and walked.all_ok and walked.distance == 4
    assert certify_s <= walk_s


def test_local_levels_are_checked_once_per_code(monkeypatch):
    """verify_local_mds and the certificate share one cache: each (group, rows, d0) level is checked once. The nested
    code's power blocks prove every level with no sweep, under any method; a level they do not prove is swept once."""
    swept = []
    level = code_module._level
    monkeypatch.setattr(code_module, "_level", lambda G, d0: swept.append((G.rows, G.cols, d0)) or level(G, d0))
    s = make_structure([[1, 2, 3], [3, 4, 5]], blocks_for_sizes([6, 6]))
    nested = construct_nested(s, make_field(13))
    report = verify_ledc(nested, "rank")
    assert report.all_ok and report.distance == report.dmax == 5 and swept == []
    assert verify_ledc(LedcCode(s, nested.G, {**nested.meta, "method": "random"}), "rank") == report and swept == []
    c = LedcCode(s, MatrixGF(nested.field, nested.G.entries[:, [1, 0, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11]]))
    assert verify_ledc(c, "rank") == report  # two columns swapped in each block: the points 1..n no longer fit
    # local MDS at 4 per group, then each private subcode (2 rows) at 5; no global level
    assert swept == [(3, 6, 4), (3, 6, 4), (2, 6, 5), (2, 6, 5)]
    swept.clear()
    assert min_distance_rank(c) == 5 and swept == []


def test_vandermonde_certificate_is_bounded_in_work(monkeypatch):
    """A power block of more than RANK_BUDGET products, s n (delta - 1 + s), answers no; past the Singleton level, or
    with two columns swapped, a block within it does too."""
    s = make_structure([[1, 2, 3], [3, 4, 5]], blocks_for_sizes([6, 6]))
    c = construct_nested(s, make_field(13))
    M = c.local_generators[0]
    assert parity_certify(M, 4) and not parity_certify(M, 5)
    assert not parity_certify(MatrixGF(c.field, M.entries[:, [1, 0, 2, 3, 4, 5]]), 4)
    monkeypatch.setattr(code_module, "RANK_BUDGET", 3 * 6 * 6)
    assert parity_certify(M, 4)
    monkeypatch.setattr(code_module, "RANK_BUDGET", 3 * 6 * 6 - 1)
    assert not parity_certify(M, 4)


def test_distance_level_side_follows_the_shape_rule(cyclic_codefile, monkeypatch):
    """k (n - e)^2 <= (n - k) e^2 sweeps G, otherwise H (timings in BENCH_dual.json)."""
    swept = []
    sweep = code_module.full_rank_subsets
    monkeypatch.setattr(code_module, "full_rank_subsets", lambda f, M, w: swept.append((M.shape, w)) or sweep(f, M, w))
    f31 = make_field(31)
    low_rate = single_group_code(f31, vandermonde(f31, range(1, 31), 2).to_rows())
    assert distance_at_least(low_rate, 29)  # 2 * 2^2 <= 28 * 28^2: G's 2 x 2 submatrices
    assert distance_at_least(cyclic_codefile, 5)  # 7 * 8^2 > 5 * 4^2: H's 5 x 4 ones
    assert swept == [((2, 30), 2), ((5, 12), 4)]


def test_exhaustive_distance_independent_of_partitioning(suboptimal_codefile, monkeypatch):
    c = suboptimal_codefile
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


def test_exhaustive_distance_sums_groups_past_255_positions():
    """Each group's counter holds its 200 positions; their sum, 370 matches for the prefix word of symbol 3, does not
    wrap at 256: x_1 + x_2 + x_3 has weight 400 - 370 = 30."""
    f2 = make_field(2)
    s = make_structure([[1, 3], [2, 3]], blocks_for_sizes([200, 200]))
    rows = [[1] * 190 + [0] * 210, [0] * 200 + [1] * 180 + [0] * 20, [1] * 400]
    assert min_distance_exhaustive(LedcCode(s, MatrixGF(f2, rows))) == 30


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
    c = suboptimal_codefile
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
        assert erasure_decode(c, [None if j in erased else v for j, v in enumerate(word)]) == x
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
    return LedcCode(s, MatrixGF(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]))


def outcome(fn, *args):
    """fn's value, or the type name and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def oracle_erasure_decode(q, rows, received):
    """erasure_decode's contract, by a pure-Python solve of x G[:, survivors] = survivors."""
    cols = [j for j, v in enumerate(received) if v is not None]
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
    received = [None if j in erased else v for j, v in enumerate(word)]
    assert outcome(erasure_decode, c, received) == oracle_erasure_decode(q, rows, received)
    group = data.draw(st.integers(1, s.m))
    Kg, Ng = s.K[group - 1], s.N[group - 1]
    positions = data.draw(st.permutations(Ng))[: data.draw(st.integers(max(0, len(Kg) - 1), len(Ng)))]
    if data.draw(st.integers(0, 9)) == 0:
        positions.append(data.draw(st.integers(1, s.n).filter(lambda p: p not in positions)))
    observed = [(p, word[p - 1]) for p in positions]
    assert outcome(local_decode, c, group, observed) == oracle_local_decode(q, rows, Kg, Ng, group, observed)


def storage_codes():
    """The three codes of the storage benchmark: cyclic [12,7] over GF(13), cyclic [20,11] and nested [36,20] over
    GF(257), each of two groups."""

    def two_group(n1, k1, n2, k2, t):
        K = [list(range(1, k1 + 1)), list(range(k1 - t + 1, k1 - t + k2 + 1))]
        return make_structure(K, blocks_for_sizes([n1, n2]))

    f13, f257 = make_field(13), make_field(257)
    return (
        construct_cyclic(two_group(5, 4, 7, 6, 3), f13)[0],
        construct_cyclic(two_group(10, 7, 10, 7, 3), f257)[0],
        construct_nested(two_group(18, 11, 18, 11, 2), f257),
    )


@pytest.mark.parametrize("index", range(3))
def test_decoders_match_oracle_on_the_storage_codes(index):
    """Seeded words on the storage codes, with 0..n - k + 1 erasures (so with and without erased pivots, up to past
    d - 1) and one corrupted symbol in a third of them: both decoders give the pure-Python solve's value or its
    exception and message."""
    c = storage_codes()[index]
    s, q, rows = c.structure, c.field.q, c.G.to_rows()
    rng = random.Random(2012 + index)
    for _ in range(150):
        x = [rng.randrange(q) for _ in range(s.k)]
        word = encode(c, x)
        if rng.random() < 1 / 3:
            j = rng.randrange(s.n)
            word[j] = (word[j] + rng.randrange(1, q)) % q
        erased = set(rng.sample(range(s.n), rng.randint(0, s.n - s.k + 1)))
        received = [None if j in erased else v for j, v in enumerate(word)]
        assert outcome(erasure_decode, c, received) == oracle_erasure_decode(q, rows, received)
        group = rng.randint(1, s.m)
        Kg, Ng = s.K[group - 1], s.N[group - 1]
        observed = [(p, word[p - 1]) for p in rng.sample(Ng, rng.randint(len(Kg), len(Ng)))]
        assert outcome(local_decode, c, group, observed) == oracle_local_decode(q, rows, Kg, Ng, group, observed)


def test_degraded_reads_of_the_nested_storage_code_read_one_equation_per_erased_pivot(monkeypatch):
    """On the nested [36,20] storage code over GF(257), two groups of 18 positions with 11 data symbols each and 2
    shared, seeded reads at d - 1 = 9 erasures read exactly one known non-pivot column per erased pivot: every
    equation that cannot add rank is skipped. vec_mat runs once a read, for the re-encode."""
    c = storage_codes()[2]
    q, (k, n) = c.field.q, c.G.entries.shape
    assert (k, n, c.meta["claimed_distance"]) == (20, 36, 10)
    log = log_plan_reads(c.G)
    at = c.G.decode_plan[0]
    products = []
    monkeypatch.setattr(linalg_module, "vec_mat", lambda *args: products.append(1) or vec_mat(*args))
    rng = random.Random(36)
    for _ in range(200):
        x = [rng.randrange(q) for _ in range(k)]
        word = vec_mat(q, x, c.G.entries).tolist()
        erased = rng.sample(range(n), 9)
        log.clear()
        products.clear()
        assert erasure_decode(c, [None if j in erased else v for j, v in enumerate(word)]) == x
        assert [name for name, _ in log].count("column") == sum(at[j] is not None for j in erased)
        assert len(products) == 1


def test_code_caches_are_built_once_and_read_only(cyclic_codefile):
    c = cyclic_codefile
    assert c.local_generators is c.local_generators and c.off_support is c.off_support
    assert not c.off_support.flags.writeable and not c.off_support.any()
    assert [g.to_rows() for g in c.local_generators] == [
        [[c.G.to_rows()[i - 1][j - 1] for j in Ng] for i in Kg] for Kg, Ng in zip(c.structure.K, c.structure.N)
    ]
    assert c.local_index is c.local_index
    assert [dict(index) for index in c.local_index] == [{p: i for i, p in enumerate(Ng)} for Ng in c.structure.N]
    for index in c.local_index:
        with pytest.raises(TypeError):
            index[1] = 0


def test_only_decoding_builds_decode_plans():
    """Verification, rank and nullspace build no decode plan; a local repair builds its group's alone, a degraded
    read G's."""
    c = load_code("cyclic_code.json")
    matrices = (c.G, *c.local_generators)
    verify_ledc(c, distance_method="both")
    assert [(rank(m), len(nullspace(m))) for m in matrices] == [(7, 5), (4, 1), (6, 1)]
    assert not any("decode_plan" in vars(m) for m in matrices)
    word = encode(c, [1, 2, 3, 4, 5, 6, 7])
    assert local_decode(c, 2, [(p, word[p - 1]) for p in c.structure.N[1]]) == {i: i for i in c.structure.K[1]}
    assert ["decode_plan" in vars(m) for m in matrices] == [False, False, True]
    assert erasure_decode(c, [None] + word[1:]) == [1, 2, 3, 4, 5, 6, 7]
    assert ["decode_plan" in vars(m) for m in matrices] == [True, False, True]


# ---------- verification ----------


def test_support_violations(cyclic_codefile):
    c = cyclic_codefile
    assert support_violations(c) == []
    rows = c.G.to_rows()
    rows[0][11] = 1  # data 1 may only touch group 1 positions
    bad = LedcCode(c.structure, MatrixGF(c.field, rows))
    assert support_violations(bad) == [(1, 12)]


def test_verify_local_mds(suboptimal_codefile, cyclic_codefile):
    assert verify_local_mds(suboptimal_codefile) == {1: True, 2: True}
    assert verify_local_mds(cyclic_codefile) == {1: True, 2: True}


def test_verify_local_mds_zero_column_fails():
    c = single_group_code(F7, [[1, 0, 1], [2, 0, 3]])
    assert verify_local_mds(c) == {1: False}


def test_verify_ledc_suboptimal_not_optimal(suboptimal_codefile):
    report = verify_ledc(suboptimal_codefile, distance_method="both")
    assert report.support_ok
    assert report.local_mds == (True, True)
    assert report.distance == 4
    assert report.dmax == 5
    assert not report.optimal
    assert not report.all_ok


def test_verify_ledc_cyclic_fixture_optimal(cyclic_codefile):
    report = verify_ledc(cyclic_codefile, distance_method="rank")
    assert report.all_ok
    assert report.distance == report.dmax == 5


def test_verify_ledc_auto_method_selection(suboptimal_codefile, cyclic_codefile):
    assert verify_ledc(suboptimal_codefile).method == "exhaustive"  # 7^5 within budget
    assert verify_ledc(cyclic_codefile).method == "rank"  # 13^7 beyond it


def test_verify_ledc_both_raises_on_disagreement(suboptimal_codefile, monkeypatch):
    monkeypatch.setattr(code_module, "min_distance_rank", lambda c: 3)
    with pytest.raises(DistanceDisagreement, match="enumeration 4, rank 3"):
        verify_ledc(suboptimal_codefile, distance_method="both")


def test_verify_ledc_rejects_unknown_method(suboptimal_codefile):
    with pytest.raises(ValueError):
        verify_ledc(suboptimal_codefile, distance_method="guess")
