import json
import random
import tracemalloc
from itertools import combinations, product

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import log_plan_reads, vandermonde
from oracles import det, oracle_solve

import ledc.linalg as linalg_module

from ledc.cli import code_from_dict, run
from ledc.errors import DimensionMismatch, Inconsistent, PreconditionViolated, Underdetermined
from ledc.field import make_field
from ledc.linalg import MatrixGF, full_rank_subsets, nullspace, rank, solve, vec_mat

F3 = make_field(3)
F7 = make_field(7)
F13 = make_field(13)


def identity(f, n):
    return MatrixGF(f, [[int(i == j) for j in range(n)] for i in range(n)])


def random_matrix(f, rows, cols, rng):
    return MatrixGF(f, [[rng.randrange(f.q) for _ in range(cols)] for _ in range(rows)])


def mat_vec(m, v):
    # m v for a column vector, plain check helper
    q = m.field.q
    return [sum(a * b for a, b in zip(row, v)) % q for row in m.to_rows()]


# ---------- rref / rank ----------


def rref(m):
    """(reduced matrix, rank, pivot columns) from the package's in-place elimination."""
    a, pivots = linalg_module._rref(m.field, m.entries.copy())
    return MatrixGF(m.field, a), len(pivots), pivots


def test_rref_identity_is_fixed_point():
    m = identity(F7, 4)
    reduced, rk, pivots = rref(m)
    assert reduced == m
    assert rk == 4
    assert pivots == [0, 1, 2, 3]


def test_rref_zero_matrix():
    m = MatrixGF(F7, [[0, 0]] * 3)
    reduced, rk, pivots = rref(m)
    assert reduced == m
    assert rk == 0
    assert pivots == []


def test_rref_proportional_rows():
    m = MatrixGF(F7, [[1, 1, 1], [2, 2, 2]])
    _, rk, pivots = rref(m)
    assert rk == 1
    assert pivots == [0]


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(2301)
    for _ in range(40):
        m = random_matrix(F7, rng.randint(1, 6), rng.randint(1, 6), rng)
        reduced, rk, pivots = rref(m)
        again, rk2, pivots2 = rref(reduced)
        assert again == reduced
        assert (rk, pivots) == (rk2, pivots2)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(2302)
    for f in (F7, F13):
        for _ in range(60):
            m = random_matrix(f, rng.randint(1, 8), rng.randint(1, 8), rng)
            assert rank(m) == rank(MatrixGF(f, m.entries.T))


# ---------- numpy kernel against the pure-Python oracle ----------

ORACLE_FIELDS = (2, 3, 13, 257, 65537, 2**31 - 1)


def oracle_cases(q, rng):
    """(rows, column count) of full-rank, rank-deficient, zero and empty
    matrices over GF(q)."""
    cases = [([], 0), ([], 3), ([[], []], 0), ([[0] * 4] * 3, 4)]
    for rows, cols in ((3, 3), (4, 6), (6, 4), (1, 5), (5, 1)):
        for _ in range(6):
            m = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
            cases.append((m, cols))
            # rank deficient: repeat a combination of the first rows, one coefficient per row
            coefficients = [rng.randrange(q) for _ in m[:-1]]
            combo = [sum(c * row[j] for c, row in zip(coefficients, m[:-1])) % q for j in range(cols)]
            cases.append((m[:-1] + [combo], cols))
    for _ in range(6):
        cases.append(([[rng.choice([0, 0, 0, 1, q - 1]) for _ in range(5)] for _ in range(4)], 5))
    return cases


def oracle_nullspace(q, rows, cols):
    reduced, _, pivots = oracles.rref(q, rows)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free] % q
        basis.append(v)
    return basis


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_elimination_matches_oracle(q):
    f = make_field(q)
    rng = random.Random(q)
    for rows, cols in oracle_cases(q, rng):
        m = MatrixGF(f, np.array(rows, dtype=np.int64).reshape(len(rows), cols))
        reduced, rk, pivots = oracles.rref(q, rows)
        got, got_rk, got_pivots = rref(m)
        assert (got.to_rows(), got_rk, got_pivots) == (reduced, rk, pivots), rows
        assert rank(m) == rk
        RT, P = m.echelon
        R, T = RT[:, :cols], RT[:, cols:]
        assert (R.tolist(), list(P)) == (reduced, pivots), rows
        # T M = R, computed on Python ints: the cached row operation really produces R.
        assert [[sum(t * r[j] for t, r in zip(trow, rows)) % q for j in range(cols)] for trow in T.tolist()] == reduced
        assert full_rank_subsets(f, m.entries, m.cols) == (rk == min(m.rows, m.cols))
        assert nullspace(m).tolist() == oracle_nullspace(q, rows, cols)
        b = [rng.randrange(q) for _ in range(cols)]
        for rhs in (b, vec_mat(q, [rng.randrange(q) for _ in range(len(rows))], m.entries).tolist()):
            try:
                x = solve(m, rhs)
            except (Inconsistent, Underdetermined) as exc:
                x = type(exc).__name__
            assert x == oracle_solve(q, rows, rhs), rows
            picked = rng.sample(range(cols), rng.randint(0, cols))  # any subset of the columns is known
            word = [rhs[j] if j in picked else None for j in range(cols)]
            words = [word]
            if rhs is not b and picked:
                # consistent but for the last known entry: solve reads the word in column order, so
                # the mismatch lies past the first independent equations, where the re-encode product checks it
                last = max(picked)
                words.append(word[:last] + [(word[last] + 1) % q] + word[last + 1 :])
            for word in words:
                try:
                    x = solve(m, word)
                except (Inconsistent, Underdetermined) as exc:
                    x = type(exc).__name__
                known = [j for j, v in enumerate(word) if v is not None]
                assert x == oracle_solve(q, [[row[j] for j in known] for row in rows], [word[j] for j in known]), (rows, word)


def every_subset_full_rank(q, M, w):
    """Oracle: every w-column subset of M has rank min(rows, w), each ranked by schoolbook elimination."""
    r, n = M.shape
    return all(
        oracles.rref(q, M[:, list(cols)].tolist())[1] == min(r, w) for cols in combinations(range(n), w)
    )


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_ranks_of_stacks_match_oracle(q):
    """The subset walk on each matrix of a sparse stack, a quarter of them zero, at every w."""
    f = make_field(q)
    rng = random.Random(7 * q)
    for shape in ((40, 3, 5), (40, 5, 3), (40, 4, 4), (7, 0, 3), (7, 3, 0), (0, 2, 2)):
        stack = np.array(
            [[[rng.choice([0, rng.randrange(q)]) for _ in range(shape[2])] for _ in range(shape[1])]
             for _ in range(shape[0])],
            dtype=np.int64,
        ).reshape(shape)
        stack[: shape[0] // 4] = 0
        for m in stack:
            for w in range(shape[2] + 2):
                assert full_rank_subsets(f, m, w) == every_subset_full_rank(q, m, w), (m.tolist(), w)


@st.composite
def walk_cases(draw):
    """A matrix over GF(q), q in {2, 3, 5, 7, 257, 65537}, up to 5 x 8, maybe with a zero
    column, a repeated (scaled) column or a row that combines two others."""
    q = draw(st.sampled_from((2, 3, 5, 7, 257, 65537)))
    r, n = draw(st.integers(0, 5)), draw(st.integers(0, 8))
    entry = st.integers(0, q - 1)
    M = np.array([[draw(entry) for _ in range(n)] for _ in range(r)], dtype=np.int64).reshape(r, n)
    defect = draw(st.sampled_from(("none", "zero column", "repeated column", "deficient")))
    if defect == "zero column" and n:
        M[:, draw(st.integers(0, n - 1))] = 0
    elif defect == "repeated column" and n >= 2:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        M[:, j] = M[:, i] * draw(st.integers(1, q - 1)) % q
    elif defect == "deficient" and r >= 3:
        M[-1] = (M[0] * draw(entry) + M[1] * draw(entry)) % q
    return q, M


@settings(derandomize=True, max_examples=300, deadline=None)
@given(walk_cases())
def test_full_rank_subsets_fuzz(case):
    """Every w from 0 to n, so w < r, w = r and w > r all occur whenever n > r."""
    q, M = case
    for w in range(M.shape[1] + 1):
        assert full_rank_subsets(make_field(q), M, w) == every_subset_full_rank(q, M, w), (M.tolist(), w)


def test_full_rank_subsets_memory_is_flat(monkeypatch):
    """A level of C(30, 5) = 142,506 subsets peaks under 8 MB; with every level built whole it peaks near 90."""
    f = make_field(65537)
    M = vandermonde(f, range(1, 31), 5).entries  # MDS: the walk visits every subset

    def peak():
        tracemalloc.start()
        try:
            assert full_rank_subsets(f, M, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak() < 8 << 20
    monkeypatch.setattr(linalg_module, "WALK_SLICE", 1 << 40)
    assert peak() > 8 << 20


def test_matrix_and_its_cached_forms_are_read_only():
    """A matrix copies its entries; they and its cached RREF are read-only, and the RREF is reduced once."""
    rows = [[1, 2, 3], [2, 4, 6]]
    m = MatrixGF(F7, rows)
    rows[0][0] = 5
    source = np.array([[1, 0], [0, 1]], dtype=np.int64)
    copied = MatrixGF(F7, source)
    source[0, 0] = 3
    assert m.to_rows() == [[1, 2, 3], [2, 4, 6]] and copied.to_rows() == [[1, 0], [0, 1]]
    assert m.echelon is m.echelon
    RT, _ = m.echelon
    for a in (m.entries, copied.entries, RT, RT[:, :3], RT[:, 3:]):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1
    assert all(type(v) is int for row in m.to_rows() for v in row)


def test_matrix_reduces_its_entries_mod_q():
    """A MatrixGF holds residues however it is made, so elimination never takes q as a nonzero pivot."""
    m = MatrixGF(F13, [[13, 0], [0, 1]])
    assert m.to_rows() == [[0, 0], [0, 1]] and rank(m) == 1
    assert MatrixGF(F13, np.array([[-1, 27]], dtype=np.int64)).to_rows() == [[12, 1]]

    big = [[2**70, -(2**70)], [2**64 - 1, 2**63]]  # past int64, where numpy alone overflows or rounds
    exact = [[v % 13 for v in row] for row in big]
    assert MatrixGF(F13, big).to_rows() == exact
    assert MatrixGF(F13, np.array(big, dtype=object)).to_rows() == exact
    assert MatrixGF(F13, np.array(big[1:], dtype=np.uint64)).to_rows() == exact[1:]
    assert MatrixGF(F13, [[np.int32(-1), np.uint8(200)], np.array([5, 14])]).to_rows() == [[12, 5], [5, 1]]


def test_matrix_refuses_entries_that_are_not_a_2d_integer_array():
    """Ragged or non-2-D entries are a shape error; bool, float and string entries are refused, not rounded."""
    for entries in ([[1, 2], [3]], [(1,), np.arange(2)], [], [1, 2], [[[1]]], np.zeros(3, dtype=np.int64), 5):
        with pytest.raises(DimensionMismatch):
            MatrixGF(F7, entries)
    for entries in ([[1.5, 2]], [["3", 1]], [[True, 0]], [[np.True_, 1]], [[1, [2]], [3, 4]], np.ones((1, 1)), np.eye(2) > 0):
        with pytest.raises(PreconditionViolated, match="^matrix entries must be integers, got "):
            MatrixGF(F7, entries)
    assert MatrixGF(F7, [[]]).to_rows() == [[]]


# ---------- det (test oracle) ----------


def test_det_golden_values():
    assert det(7, identity(F7, 3).to_rows()) == 1
    assert det(7, [[1, 1], [2, 5]]) == 3
    assert det(7, [[1, 1], [3, 3]]) == 0


def test_det_two_by_two_vandermonde():
    for a in range(7):
        for b in range(7):
            assert det(7, [[1, 1], [a, b]]) == (b - a) % 7


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(7, [[0, 0, 0]] * 2)


def test_det_nonzero_iff_full_rank():
    # exhaustive over all 2x2 matrices of GF(3)
    for entries in product(range(3), repeat=4):
        m = MatrixGF(F3, [list(entries[:2]), list(entries[2:])])
        assert (det(3, m.to_rows()) != 0) == (rank(m) == 2)
    rng = random.Random(2303)
    for f in (F7, F13):
        for size in (3, 4):
            for _ in range(40):
                m = random_matrix(f, size, size, rng)
                assert (det(f.q, m.to_rows()) != 0) == (rank(m) == size)


def test_det_tracks_row_swaps():
    assert det(7, [[0, 1], [1, 0]]) == 6  # -1 mod 7


# ---------- nullspace ----------


def test_nullspace_identity_empty():
    assert nullspace(identity(F7, 3)).tolist() == []


def test_nullspace_zero_matrix_full():
    basis = nullspace(MatrixGF(F7, [[0, 0, 0]] * 2))
    assert basis.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_nullspace_rank_deficiency_one():
    # t x (t+1) of rank t leaves exactly one kernel vector
    m = MatrixGF(F7, [[1, 1, 1], [1, 2, 3]])
    basis = nullspace(m)
    assert len(basis) == 1


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(2304)
    for _ in range(50):
        m = random_matrix(F13, rng.randint(1, 6), rng.randint(1, 6), rng)
        basis = nullspace(m)
        assert len(basis) == m.cols - rank(m)
        for v in basis.tolist():
            assert mat_vec(m, v) == [0] * m.rows


# ---------- solve ----------


def test_solve_identity():
    assert solve(identity(F7, 3), [4, 5, 6]) == [4, 5, 6]


def test_solve_round_trip_random_invertible():
    rng = random.Random(2305)
    done = 0
    while done < 40:
        size = rng.randint(1, 6)
        a = random_matrix(F13, size, size, rng)
        if det(13, a.to_rows()) == 0:
            continue
        x = [rng.randrange(13) for _ in range(size)]
        assert solve(a, vec_mat(13, x, a.entries).tolist()) == x
        done += 1


def test_solve_rectangular_overdetermined():
    a = MatrixGF(F7, [[1, 1, 1, 1], [1, 2, 3, 4]])
    x = [3, 5]
    assert solve(a, vec_mat(7, x, a.entries).tolist()) == x


def test_solve_rank_deficient_square():
    a = MatrixGF(F7, [[1, 1], [2, 2]])
    with pytest.raises(Inconsistent):
        solve(a, [1, 0])
    with pytest.raises(Underdetermined):
        solve(a, [1, 1])


def test_solve_rhs_length_checked():
    """A word has one entry, known or None, per column; repeated or outside columns cannot be written."""
    with pytest.raises(DimensionMismatch, match="word length 3 != 2 columns"):
        solve(identity(F7, 2), [1, 2, 3])
    with pytest.raises(DimensionMismatch, match="word length 1 != 2 columns"):
        solve(identity(F7, 2), [None])


def test_solve_reads_only_the_known_columns():
    a = MatrixGF(F7, [[1, 2, 3], [0, 1, 4]])
    x = [3, 5]
    word = vec_mat(7, x, a.entries).tolist()
    for erased in range(3):
        assert solve(a, [None if j == erased else v for j, v in enumerate(word)]) == x
    with pytest.raises(Underdetermined):
        solve(a, [None, None, word[2]])


def outcome(a, word):
    """solve's value, or the name of the exception it raised."""
    try:
        return solve(a, word)
    except (Inconsistent, Underdetermined) as exc:
        return type(exc).__name__


def known_part(a, word):
    """The rows and the word on the known columns, as oracle_solve takes them."""
    known = [j for j, v in enumerate(word) if v is not None]
    return [[row[j] for j in known] for row in a.to_rows()], [word[j] for j in known]


def test_solve_with_every_pivot_known_is_one_product(monkeypatch):
    """No erased pivot: the re-encode product alone decides. A corrupted non-pivot column raises Inconsistent, an
    erased one does not matter, and nothing is reduced on the way: vec_mat runs once, on the whole of [R | T][:r]."""
    a = MatrixGF(F13, [[1, 0, 0, 3, 5, 7], [0, 1, 0, 2, 4, 6], [0, 0, 1, 9, 8, 1]])
    x = [4, 11, 2]
    word = vec_mat(13, x, a.entries).tolist()
    products = []
    monkeypatch.setattr(linalg_module, "vec_mat", lambda q, u, M: products.append(M.shape) or vec_mat(q, u, M))
    for j in (3, 4, 5):
        corrupted = word[:j] + [(word[j] + 1) % 13] + word[j + 1 :]
        products.clear()
        assert outcome(a, corrupted) == "Inconsistent" == oracle_solve(13, a.to_rows(), corrupted)
        assert products == [(3, 9)]
        products.clear()
        assert outcome(a, corrupted[:j] + [None] + corrupted[j + 1 :]) == x and products == [(3, 9)]


def test_solve_with_erased_pivots_is_one_product(monkeypatch):
    """Erased pivots E: the right-hand sides come from the plan's columns, back substitution writes u_E into u, and
    vec_mat runs once, on [R | T][:r] with every entry of u filled in; no product is taken on the rows [R | T][E] or
    the known columns F alone. A corrupted column left unread once u_E is fixed is caught by the comparison on F."""
    a = MatrixGF(F13, [[1, 0, 0, 3, 5, 7], [0, 1, 0, 2, 4, 6], [0, 0, 1, 9, 8, 1]])
    RT, _ = a.echelon
    x = [4, 11, 2]
    word = vec_mat(13, x, a.entries).tolist()
    products = []
    monkeypatch.setattr(
        linalg_module, "vec_mat", lambda q, u, M: products.append((list(u), M.tolist())) or vec_mat(q, u, M)
    )
    for E in ([0], [2], [0, 2], [0, 1, 2]):
        products.clear()
        assert solve(a, [None if j in E else v for j, v in enumerate(word)]) == x
        assert products == [(x, RT.tolist())]  # a[:, P] = I here, so u = x a[:, P] = x
    products.clear()
    corrupted = [None] + word[1:5] + [(word[5] + 1) % 13]
    assert outcome(a, corrupted) == "Inconsistent" == oracle_solve(13, *known_part(a, corrupted))
    assert products == [(x, RT.tolist())]


def locality_rows(q, rng):
    """Rows on two column blocks, like a two-group G: each on the first block, the second or both, and in about half
    the matrices the last row a multiple of an earlier one."""
    n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
    blocks = (range(n1), range(n1, n1 + n2), range(n1 + n2))
    rows = []
    for _ in range(rng.randint(2, 6)):
        on = rng.choices(blocks, weights=(4, 4, 1))[0]
        rows.append([rng.randrange(q) if j in on else 0 for j in range(n1 + n2)])
    if rng.random() < 0.5:
        rows[-1] = [rng.randrange(q) * v % q for v in rng.choice(rows[:-1])]
    return rows


@pytest.mark.parametrize("q", ORACLE_FIELDS)
def test_solve_outcomes_match_oracle_fuzz(q, monkeypatch):
    """Seeded words on full-rank and rank-deficient dense matrices, then on locality-shaped ones, with 0..n erasures
    and 0-2 corrupted symbols: solve gives the pure-Python solve's value or exception type, and Underdetermined names
    the rank of the known columns. On locality-shaped matrices the elimination skips equations, and a corrupted
    skipped column raises Inconsistent at the comparison on F after the one product in both cases: when |E| pivot
    rows were found, and when F ran out, the known columns' rank below a's."""
    f = make_field(q)
    rng = random.Random(q)
    products = []
    monkeypatch.setattr(linalg_module, "vec_mat", lambda *args: products.append(1) or vec_mat(*args))
    caught = set()
    for case in range(300):
        if case >= 200:
            rows = locality_rows(q, rng)
            k, n = len(rows), len(rows[0])
        else:
            k = rng.randint(1, 6)
            n = rng.randint(k, 9) if case % 2 else rng.randint(1, 9)
            while True:
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                if case % 2 == 0:  # rank deficient: the last row a combination of the others
                    coefficients = [rng.randrange(q) for _ in rows[:-1]]
                    rows[-1] = [sum(c * row[j] for c, row in zip(coefficients, rows[:-1])) % q for j in range(n)]
                if (oracles.rref(q, rows)[1] == k) == (case % 2 == 1):
                    break
        a = MatrixGF(f, rows)
        log = log_plan_reads(a)
        for _ in range(8):
            word = vec_mat(q, [rng.randrange(q) for _ in range(k)], a.entries).tolist()
            corrupted = rng.sample(range(n), min(n, rng.randint(0, 2)))
            for j in corrupted:
                word[j] = (word[j] + rng.randrange(1, q)) % q
            erased = rng.sample(range(n), rng.randint(0, n))
            received = [None if j in erased else v for j, v in enumerate(word)]
            known_rows, known_word = known_part(a, received)
            log.clear()
            products.clear()
            try:
                got = solve(a, received)
            except Inconsistent:
                got = "Inconsistent"
            except Underdetermined as exc:
                got = "Underdetermined"
                assert str(exc) == f"rank {oracles.rref(q, known_rows)[1]} < {k} unknowns", (rows, received)
            assert got == oracle_solve(q, known_rows, known_word), (rows, received)
            if case >= 200 and got == "Inconsistent":  # skipped: support read, and the equation not right after
                pairs = zip(log, log[1:] + [None])
                skipped = {j for (name, j), after in pairs if name == "support" and after != ("column", j)}
                if skipped & set(corrupted):
                    assert products == [1], (rows, received)
                    ran_out = oracles.rref(q, known_rows)[1] < oracles.rref(q, rows)[1]
                    caught.add("F ran out" if ran_out else "|E| pivot rows found")
    assert caught == {"|E| pivot rows found", "F ran out"}


def test_decode_plan_is_built_on_the_first_solve_only():
    """rank, nullspace and echelon never build the decode plan; the first solve does, once. It holds each column's
    index among the pivots, R's other columns in Python ints, each column's support as the bits t of its nonzero
    R[t, j], and [R | T][:r] itself, read-only and not copied."""
    a = MatrixGF(F13, [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [0, 1, 4, 9, 3]])
    assert rank(a) == 2 and len(nullspace(a)) == 3
    RT, pivots = a.echelon
    assert "decode_plan" not in vars(a)
    word = vec_mat(13, [1, 0, 5], a.entries).tolist()
    assert outcome(a, word) == "Underdetermined"
    plan = a.decode_plan
    assert outcome(a, [None] + word[1:]) == "Underdetermined" and a.decode_plan is plan
    at, columns, support, RT_r = plan
    assert pivots == (0, 1) and at == (0, 1, None, None, None)
    assert columns == (None, None, *RT[:2, 2:5].T.tolist())
    assert support == tuple(sum(1 << t for t in range(2) if RT[t, j]) for j in range(5)) == (1, 2, 3, 3, 3)
    assert all(type(s) is int for s in support)
    assert all(type(v) is int for c in columns[2:] for v in c)
    assert np.shares_memory(RT_r, RT) and RT_r.shape == (2, 8) and not RT_r.flags.writeable
    with pytest.raises(ValueError):
        RT_r[0, 0] = 1


@pytest.mark.parametrize("q, ratio", [(257, 1.25), (2**31 - 1, 5.25)])
def test_decode_plan_memory_against_the_echelon(q, ratio, tmp_path, capsys):
    """The plan of a 64 x 2000 matrix, against the 8 bytes an entry of RT costs. At q = 257 every residue is one of
    CPython's shared small ints, so a column of R costs a pointer per entry: the traced peak is 1.25 times RT's bytes
    at most. Past 2^30 each entry is its own 32-byte int as well: 5.25 times at most. CLI decode on the matrix as a
    code file peaks at most that many RT's bytes above the peak of loading the file and reducing G."""

    def traced_peak(work):
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rng = random.Random(q)
    rows = [[rng.randrange(q) for _ in range(2000)] for _ in range(64)]
    a = MatrixGF(make_field(q), rows)
    echelon_bytes = a.echelon[0].nbytes
    assert traced_peak(lambda: a.decode_plan) <= ratio * echelon_bytes

    path = tmp_path / "code.json"
    structure = {"q": q, "groups": [{"K": list(range(1, 65)), "n": 2000}]}
    path.write_text(json.dumps({"structure": structure, "method": "random", "G": rows, "claimed_distance": 1}))
    x = [rng.randrange(q) for _ in range(64)]
    word = vec_mat(q, x, a.entries).tolist()
    received = ",".join("?" if j % 50 < 2 else str(v) for j, v in enumerate(word))  # 80 erasures
    del a
    loaded = traced_peak(lambda: code_from_dict(json.loads(path.read_text())).G.echelon)
    decoded = traced_peak(lambda: run(["decode", str(path), "--received", received]))
    assert capsys.readouterr().out == f"data={','.join(map(str, x))}\n"
    assert decoded <= loaded + ratio * echelon_bytes


def test_solve_inconsistent_before_underdetermined_on_a_rank_deficient_matrix(monkeypatch):
    """Row 3 = row 1 + row 2, so rank 2 < 3 unknowns. With its pivots erased the equations still fix u_E, and a
    corrupted known column must raise Inconsistent before rank raises Underdetermined, and the re-encode product
    finds every mismatch: each outcome costs one product. Row 1 is 0 at column 3, so with column 1 erased the first
    equation is a dependent one: it is skipped, and left to the re-encode while column 4 fixes u_E. With columns 4-7
    erased too, no equation fixes u_E, the erased pivot stays 0, and the skipped one is still checked by the
    re-encode before Underdetermined."""
    rows = [[1, 0, 0, 4, 5, 6, 2], [0, 1, 5, 2, 2, 7, 3]]
    rows.append([(u + v) % 13 for u, v in zip(*rows)])
    a = MatrixGF(F13, rows)
    _, pivots = a.echelon
    assert pivots == (0, 1)
    word = vec_mat(13, [3, 8, 0], a.entries).tolist()
    products = []
    monkeypatch.setattr(linalg_module, "vec_mat", lambda *args: products.append(1) or vec_mat(*args))
    found_by = set()
    for erased in ({0}, {1}, {0, 1}, {0, 1, 2, 3}, {0, 1, 2, 5}, {0, 3, 4, 5, 6}):
        received = [None if j in erased else v for j, v in enumerate(word)]
        assert outcome(a, received) == "Underdetermined" == oracle_solve(13, *known_part(a, received))
        for j in set(range(7)) - erased:
            corrupted = received[:j] + [(received[j] + 5) % 13] + received[j + 1 :]
            products.clear()
            assert outcome(a, corrupted) == "Inconsistent" == oracle_solve(13, *known_part(a, corrupted)), (erased, j)
            found_by.add(len(products))
    assert found_by == {1}
    with pytest.raises(Underdetermined, match=r"^rank 1 < 3 unknowns$"):
        solve(a, [None, None, None, None, None, None, word[6]])


def test_solve_reencodes_exactly_at_the_largest_field():
    """At q = 2^31 - 1 the product u [R | T][:r] sums r >= 3 terms near 2^62, so vec_mat goes by limbs of u;
    random words with erased pivots and single corruptions match the pure-Python solve."""
    q = 2**31 - 1
    f = make_field(q)
    rng = random.Random(2147)
    for _ in range(30):
        k, n = rng.randint(3, 20), rng.randint(20, 26)
        a = MatrixGF(f, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
        assert rank(a) * (q - 1) ** 2 >= 1 << 63 and a.echelon[0].shape == (k, n + k)
        word = vec_mat(q, [rng.randrange(q) for _ in range(k)], a.entries).tolist()
        for _ in range(5):
            received = [None if rng.random() < 0.3 else v for v in word]
            if rng.random() < 0.5:
                j = rng.randrange(n)
                received[j] = None if received[j] is None else (received[j] + rng.randrange(1, q)) % q
            assert outcome(a, received) == oracle_solve(q, *known_part(a, received))


@st.composite
def vec_mat_cases(draw):
    """(q, x, M) at primes on each side of vec_mat's int64 rule l (q-1)^2 < 2^63: 1518500213 and 1518500279 are the
    primes around its edge at l = 4, 10^9 + 7 crosses it between l = 9 and 10, 2^31 - 1 between l = 2 and 3."""
    q = draw(st.sampled_from([1518500213, 1518500279, 10**9 + 7, 2**31 - 1]))
    l, cols = draw(st.integers(1, 24)), draw(st.integers(1, 5))
    residues = st.just(q - 1) | st.integers(0, q - 1)  # all q - 1 gives the largest sums
    vector = st.lists(residues, min_size=l, max_size=l)
    x = draw(st.lists(vector, min_size=1, max_size=3) | vector)
    M = draw(st.lists(st.lists(residues, min_size=cols, max_size=cols), min_size=l, max_size=l))
    return q, x, M


@settings(derandomize=True, max_examples=200, deadline=None)
@given(vec_mat_cases())
def test_vec_mat_matches_python_ints_around_the_int64_rule(case):
    q, x, M = case
    rows = x if isinstance(x[0], list) else [x]
    want = [[sum(v * M[i][j] for i, v in enumerate(row)) % q for j in range(len(M[0]))] for row in rows]
    got = vec_mat(q, x, np.array(M, dtype=np.int64)).tolist()
    assert (got if rows is x else [got]) == want


@pytest.mark.parametrize("rows", [None, 8])
def test_vec_mat_past_int64_keeps_its_temporaries_near_the_output(rows):
    """At q = 2^31 - 1 a vector, or an 8-row matrix, of 64 residues times a 64 x 2000 matrix peaks within 5 times the
    output's bytes; a temporary of every term, l x 2000 per row, would be 64 times it."""
    q, rng = 2**31 - 1, np.random.default_rng(64)
    x = rng.integers(q, size=64 if rows is None else (rows, 64), dtype=np.int64)
    M = rng.integers(q, size=(64, 2000), dtype=np.int64)
    tracemalloc.start()
    try:
        out = vec_mat(q, x, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * out.nbytes
    assert out.tolist() == (np.array(x.tolist(), dtype=object) @ np.array(M.tolist(), dtype=object) % q).tolist()

# ---------- vandermonde ----------
# conftest.vandermonde is the MDS matrix the distance tests build on; these check that premise.


def test_vec_mat_matrix_rows_match_python_ints():
    """A matrix left operand gives one product per row, exact on both sides of the int64 overflow rule."""
    rng = random.Random(2531)
    for q in (13, 2**31 - 1):
        X = [[rng.randrange(q) for _ in range(12)] for _ in range(3)] + [[q - 1] * 12]
        M = np.array([[rng.randrange(q) for _ in range(4)] for _ in range(11)] + [[q - 1] * 4], dtype=np.int64)
        want = [[sum(x * int(M[i, j]) for i, x in enumerate(row)) % q for j in range(4)] for row in X]
        assert vec_mat(q, X, M).tolist() == want == [vec_mat(q, row, M).tolist() for row in X]


def test_vandermonde_golden():
    m = vandermonde(F7, [1, 2, 3], 2)
    assert m.to_rows() == [[1, 1, 1], [1, 2, 3]]


def test_vandermonde_any_k_columns_invertible():
    m = vandermonde(F7, [1, 2, 3, 4, 5], 4)
    for cols in combinations(range(5), 4):
        assert det(7, m.entries[:, list(cols)].tolist()) != 0


def test_vandermonde_square_det_is_product_of_differences():
    pts = [1, 2, 4, 8]
    m = vandermonde(F13, pts, 4)
    expected = 1
    for i in range(4):
        for j in range(i + 1, 4):
            expected = expected * (pts[j] - pts[i]) % 13
    assert det(13, m.to_rows()) == expected != 0
