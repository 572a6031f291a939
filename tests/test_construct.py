import dataclasses
import hashlib
import json
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cap_structure
from oracles import lemma3_eliminate, nested_canonical

import ledc.code as code_module
import ledc.construct as construct_module
from ledc.code import (
    encode,
    min_distance_exhaustive,
    min_distance_rank,
    support_violations,
    verify_ledc,
    verify_local_mds,
)
from ledc.construct import (
    construct_cyclic,
    construct_nested,
    construct_random,
    verify_cyclic_conditions,
)
from ledc.errors import (
    ExhaustedAttempts,
    FieldTooSmall,
    LedcError,
    NotPrimitive,
    PreconditionViolated,
    TooLarge,
)
from ledc.field import find_primitive, is_primitive, make_field
from ledc.locality import blocks_for_sizes, dmax, make_structure
from ledc.poly import poly_eval, poly_mul

F7 = make_field(7)
F13 = make_field(13)


def disjoint_structure():
    return make_structure([[1, 2], [3, 4]], [[1, 2, 3], [4, 5, 6]])


# ---------- nested Vandermonde pairs ----------


def test_nested_reference_structure(unequal_r):
    s, f = unequal_r
    code = construct_nested(s, f)
    assert code.G.to_rows() == [
        [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
        [1, 2, 3, 4, 1, 4, 2, 2, 4, 1],
        [1, 4, 2, 2, 1, 1, 6, 1, 6, 6],
        [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 1, 2, 3, 4, 5, 6],
    ]
    assert code.meta["claimed_distance"] == 4
    assert min_distance_exhaustive(code) == 4 == dmax(s)
    assert support_violations(code) == []


def test_nested_orders_groups_by_redundancy(unequal_r):
    s, f = unequal_r
    flipped = make_structure(
        [[2, 3, 4, 5], [1, 2, 3]], [[1, 2, 3, 4, 5, 6], [7, 8, 9, 10]]
    )
    code = construct_nested(flipped, f)
    assert min_distance_exhaustive(code) == dmax(flipped) == 4


def test_nested_proof_case_weights(unequal_r):
    """Nonzero messages split by which data block is live; each case
    meets the weight bound from the nesting argument."""
    s, f = unequal_r
    code = construct_nested(s, f)
    worst = {"first": 10, "second": 10, "shared": 10}
    for x in product(range(7), repeat=5):
        if not any(x):
            continue
        w = sum(1 for v in encode(code, list(x)) if v)
        if x[1] or x[2]:  # shared data 2,3
            case = "shared"
        elif x[3] or x[4]:  # private to group 2
            case = "second"
        else:  # private to group 1
            case = "first"
        worst[case] = min(worst[case], w)
    r1, r2, t = 1, 2, 2
    assert worst["first"] >= r1 + t + 1
    assert worst["second"] >= r2 + t + 1
    assert worst["shared"] >= r1 + r2 + 2
    assert worst == {"first": 4, "second": 5, "shared": 5}


def test_nested_rejects_large_overlap():
    s = make_structure(
        [[1, 2, 3, 4], [2, 3, 4, 5]], [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
    )
    with pytest.raises(PreconditionViolated, match="n2 - k2 \\+ 1 >= t"):
        construct_nested(s, F7)


def test_nested_rejects_small_field(unequal_r):
    s, _ = unequal_r
    with pytest.raises(FieldTooSmall):
        construct_nested(s, make_field(5))


def test_nested_needs_private_symbols():
    s = make_structure([[1, 2], [1, 2, 3]], [[1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(PreconditionViolated, match="private"):
        construct_nested(s, F7)


def test_nested_disjoint_groups_block_diagonal():
    s = disjoint_structure()
    code = construct_nested(s, F7)
    assert min_distance_exhaustive(code) == dmax(s) == 2
    top = code.G.to_rows()[:2]
    assert all(row[3:] == [0, 0, 0] for row in top)


@st.composite
def relabelled_two_group(draw):
    """A two-group structure with its data and positions relabelled, and a prime q.

    The group order is drawn too, so either group may have the larger
    redundancy; sizes run past every precondition of the nested method.
    """
    n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k1, k2 = draw(st.integers(1, n1)), draw(st.integers(1, n2))
    t = draw(st.integers(0, min(k1, k2)))
    data = draw(st.permutations(range(1, k1 + k2 - t + 1)))
    positions = draw(st.permutations(range(1, n1 + n2 + 1)))
    K = [data[:k1], data[k1 - t : k1 - t + k2]]
    N = [positions[:n1], positions[n1:]]
    if draw(st.booleans()):
        K, N = K[::-1], N[::-1]
    return K, N, draw(st.sampled_from([2, 3, 5, 7, 11, 13]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(relabelled_two_group())
def test_nested_matches_canonical_layout(case):
    """One Vandermonde block per group gives the canonical [[U,0],[A,B],[0,V]] array, placed."""
    K, N, q = case
    s, f = make_structure(K, N), make_field(q)
    expected = nested_canonical(q, K, N)
    if expected is None:
        with pytest.raises((FieldTooSmall, PreconditionViolated)):
            construct_nested(s, f)
        return
    code = construct_nested(s, f)
    assert code.G.to_rows() == expected


def test_nested_power_table_at_size():
    """Two groups of 1,000 positions over GF(1009): at seeded entries, group g's i-th row in private-first order
    holds j^i mod q at the group's j-th position, and each private row is zero on the other group's positions."""
    s = make_structure([range(1, 501), range(499, 999)], blocks_for_sizes([1000, 1000]))
    q, rng = 1009, random.Random(3607)
    G = construct_nested(s, make_field(q)).G.entries
    orders = ([*range(1, 501)], [*range(501, 999), 499, 500])
    for rows, Ng in zip(orders, s.N):
        for _ in range(500):
            i, j = rng.randrange(len(rows)), rng.randrange(1, 1001)
            assert G[rows[i] - 1, Ng[j - 1] - 1] == pow(j, i, q), (rows[i], Ng[j - 1])
    assert not G[:498, 1000:].any() and not G[500:, :1000].any()


# ---------- shared-row solver ----------


def lemma3(f, omega, ell, t, r, T):
    """Lemma 3's (a_star, b_star) for shared row ell: the kernel vector over {0..t-ell} + {T..T+ell-1}, split."""
    c = construct_module._lemma3(f, omega, [*range(t - ell + 1), *range(T, T + ell)], r)
    return tuple(c[: t - ell + 1]), tuple(c[t - ell + 1 :])


def test_lemma3_reference_solutions():
    g2 = (12, 1)
    a_star, b_star = lemma3(F13, 2, ell=1, t=3, r=1, T=9)
    assert poly_mul(F13, g2, a_star) == (12, 2, 5, 7)
    a_star, b_star = lemma3(F13, 2, ell=3, t=3, r=1, T=5)
    assert poly_mul(F13, g2, b_star) == (10, 12, 3, 1)


def test_lemma3_single_shared_row_closed_form():
    omega, r, T = 2, 1, 5
    a_star, b_star = lemma3(F13, omega, ell=1, t=1, r=r, T=T)
    assert a_star == (1,)
    expected = (13 - pow(omega, -r * T, 13)) % 13
    assert b_star == (expected,)


def test_lemma3_defining_equation_sweep():
    rng = random.Random(6001)
    checked = 0
    for q in (11, 13, 17):
        f = make_field(q)
        omega = find_primitive(f)
        for _ in range(60):
            t = rng.randint(1, 4)
            ell = rng.randint(1, t)
            r = rng.randint(0, 3)
            T = rng.randint(t - ell + 1, q - ell - 1)
            a_star, b_star = lemma3(f, omega, ell, t, r, T)
            assert len(a_star) == t - ell + 1
            assert len(b_star) == ell
            assert all(0 < c < q for c in a_star + b_star)
            assert a_star[0] == 1
            for j in range(r, r + t):
                wj = pow(omega, j, f.q)
                lhs = poly_eval(f, a_star, wj) + pow(wj, T, f.q) * poly_eval(f, b_star, wj)
                assert lhs % q == 0
            checked += 1
    assert checked == 180


def test_lemma3_accepts_zero_local_redundancy():
    a_star, b_star = lemma3(F13, 2, ell=1, t=2, r=0, T=6)
    for j in range(2):
        wj = pow(2, j, 13)
        assert (poly_eval(F13, a_star, wj) + pow(wj, 6, 13) * poly_eval(F13, b_star, wj)) % 13 == 0


def test_lemma3_matches_elimination_on_a_seeded_grid():
    """For every primitive w of each q and exponents below q - 1, as construct_cyclic's are, the closed form gives
    elimination's vector, and elimination always finds a one-dimensional kernel with no zero coordinate."""
    rng = random.Random(2801)
    cases = 0
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 31, 257):
        f = make_field(q)
        for omega in filter(lambda w: is_primitive(f, w), range(1, q)):
            for _ in range(15):
                t = rng.randint(1, min(6, q - 2))
                ell, r = rng.randint(1, t), rng.randint(0, 4)
                T = rng.randint(t - ell + 1, q - ell - 1)  # the last exponent, T + ell - 1, is below q - 1
                expected = lemma3_eliminate(q, omega, ell, t, r, T)
                assert not isinstance(expected, str), (q, omega, ell, t, r, T)
                assert lemma3(f, omega, ell, t, r, T) == expected, (q, omega, ell, t, r, T)
                cases += 1
    assert cases == 15 * 173  # 173 primitive elements over the ten fields


# ---------- cyclic construction ----------


def test_cyclic_reference_code(equal_r, cyclic_descending, cyclic_codefile):
    s, f = equal_r
    code, ing = construct_cyclic(s, f)
    assert code.meta["omega"] == 2
    assert code.meta["claimed_distance"] == 5
    assert code.G.to_rows() == cyclic_codefile.G.to_rows()
    descending_rows = {tuple(row) for row in cyclic_descending.G.to_rows()}
    assert {tuple(row) for row in code.G.to_rows()} == descending_rows
    assert [field.name for field in dataclasses.fields(ing)] == ["omega", "u", "g2", "T", "a", "b"]
    assert ing.u == (12, 10, 5, 11, 1)
    assert ing.g2 == (12, 1)
    assert ing.T == (9, 7, 5)
    assert min_distance_rank(code) == 5 == dmax(s)
    assert support_violations(code) == []


def test_cyclic_conditions_hold(equal_r):
    s, f = equal_r
    _, ing = construct_cyclic(s, f)
    report = verify_cyclic_conditions(ing, s, f)
    assert report.all_ok
    assert all(dataclasses.asdict(report).values())


def test_cyclic_conditions_catch_corruption(equal_r):
    s, f = equal_r
    _, ing = construct_cyclic(s, f)
    broken_b0 = (0,) + ing.b[0][1:]
    broken = dataclasses.replace(ing, b=(broken_b0,) + ing.b[1:])
    report = verify_cyclic_conditions(broken, s, f)
    assert not report.nonzero_constants
    assert not report.all_ok


SHAPES = [  # (q, n1, k1, n2, k2, t); the last has r = 0
    (13, 5, 4, 7, 6, 3),
    (13, 3, 1, 4, 2, 1),
    (17, 6, 3, 6, 3, 2),
    (19, 4, 2, 5, 3, 2),
    (19, 7, 5, 4, 2, 2),
    (13, 3, 3, 4, 4, 2),
]


def cyclic_case(q, n1, k1, n2, k2, t):
    f = make_field(q)
    K = [list(range(1, k1 + 1)), list(range(k1 - t + 1, k1 - t + k2 + 1))]
    s = make_structure(K, blocks_for_sizes([n1, n2]))
    _, ing = construct_cyclic(s, f)
    assert verify_cyclic_conditions(ing, s, f).all_ok
    return s, f, ing


def replaced(ing, name, ell, p):
    """ing with its polynomial `name` (index ell of it, when ell is not None) set to p."""
    if ell is None:
        return dataclasses.replace(ing, **{name: p})
    polys = list(getattr(ing, name))
    polys[ell] = p
    return dataclasses.replace(ing, **{name: tuple(polys)})


@pytest.mark.parametrize("q,n1,k1,n2,k2,t", SHAPES)
def test_cyclic_conditions_catch_every_bumped_coefficient(q, n1, k1, n2, k2, t):
    """Changing any one coefficient of u, a_l or b_l breaks a condition.

    Adding d x^i moves the value at a nonzero root by d z^i != 0, so a bump
    of u, or of a_l or b_l when r >= 1, breaks a root condition of its own.
    The last shape has r = 0: a_l and b_l have no roots of their own there,
    and c_roots, which checks a_l + x^(T_l) b_l at the r + t >= 1 roots of
    u, catches their bumps.
    """
    s, f, ing = cyclic_case(q, n1, k1, n2, k2, t)
    variants = [("u", None, ing.u)]
    variants += [(name, ell, p) for name in ("a", "b") for ell, p in enumerate(getattr(ing, name))]
    checked = 0
    for name, ell, p in variants:
        for i in range(len(p)):
            bumped = p[:i] + ((p[i] + 1) % q,) + p[i + 1 :]
            assert not verify_cyclic_conditions(replaced(ing, name, ell, bumped), s, f).all_ok, (name, ell, i)
            checked += 1
    assert checked >= 1 + 2 * t


def test_cyclic_conditions_catch_lengthened_halves():
    """A polynomial longer than its slot would spill into another row's columns, or past the row.

    u (1 + x) has the roots of u and one more coefficient: every root
    condition holds, and only the slot lengths of c_halves catch it. The
    last shape has r = 0 and t = k2, where a_2's slot ends where b_2's begins.
    """
    for shape in SHAPES + [(13, 3, 3, 2, 2, 2)]:
        s, f, ing = cyclic_case(*shape)
        variants = [("u", None, poly_mul(f, ing.u, (1, 1)))]
        variants += [(name, ell, p + (1,)) for name in ("a", "b") for ell, p in enumerate(getattr(ing, name))]
        for name, ell, p in variants:
            report = verify_cyclic_conditions(replaced(ing, name, ell, p), s, f)
            assert not report.c_halves and not report.all_ok, (shape, name, ell)
        report = verify_cyclic_conditions(replaced(ing, *variants[0]), s, f)
        assert (report.u_roots, report.c_roots) == (True, True), shape


def test_cyclic_alternative_generator(equal_r):
    s, f = equal_r
    code, ing = construct_cyclic(s, f, omega=6)
    assert code.meta["omega"] == 6
    assert verify_cyclic_conditions(ing, s, f).all_ok
    assert min_distance_rank(code) == 5


def test_cyclic_rejects_unequal_redundancy(unequal_r):
    s, f = unequal_r
    with pytest.raises(PreconditionViolated, match="redundanc"):
        construct_cyclic(s, make_field(13))


def test_cyclic_rejects_field_without_room():
    s = make_structure(
        [[1, 2, 3, 4], [2, 3, 4, 5]], [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]
    )
    with pytest.raises(PreconditionViolated, match="n1 \\+ n2"):
        construct_cyclic(s, F7)


def test_cyclic_rejects_non_primitive(equal_r):
    s, f = equal_r
    with pytest.raises(NotPrimitive):
        construct_cyclic(s, f, omega=3)


def test_cyclic_reduces_omega_to_its_residue(equal_r):
    """-2 and 24 are the element 11 of GF(13): the code, meta and ingredients name 11."""
    s, f = equal_r
    canonical, canonical_ing = construct_cyclic(s, f, omega=11)
    for omega in (-2, 24):
        code, ing = construct_cyclic(s, f, omega=omega)
        assert code.G.to_rows() == canonical.G.to_rows()
        assert code.meta == canonical.meta and code.meta["omega"] == 11
        assert ing == canonical_ing and ing.omega == 11
    with pytest.raises(NotPrimitive, match="^-10 does not generate"):
        construct_cyclic(s, f, omega=-10)  # -10 = 3, as rejected above


def test_cyclic_reads_omega_as_an_integer(equal_r):
    """A numpy integer omega builds the same code as the int, and meta and ingredients hold a plain int; a bool,
    float or string omega is refused before any arithmetic."""
    s, f = equal_r
    canonical, canonical_ing = construct_cyclic(s, f, omega=11)
    for omega in (np.int64(11), np.uint8(24), np.int32(-2)):
        code, ing = construct_cyclic(s, f, omega=omega)
        assert code.G.to_rows() == canonical.G.to_rows() and ing == canonical_ing
        assert code.meta == canonical.meta and type(code.meta["omega"]) is int and type(ing.omega) is int
    with pytest.raises(NotPrimitive, match="^3 does not generate"):
        construct_cyclic(s, f, omega=np.int64(3))
    for omega, name in ((True, "bool"), (11.0, "float"), ("11", "str")):
        with pytest.raises(PreconditionViolated, match=f"^omega must be an integer, got {name}$"):
            construct_cyclic(s, f, omega=omega)


def test_constructions_read_a_numpy_field_order_as_an_int(equal_r):
    """A field made from a numpy q builds the same codes as one made from the int: the field keeps q as an int."""
    s, _ = equal_r
    for q in (13, 257):
        f, f_np = make_field(q), make_field(np.int64(q))
        assert construct_cyclic(s, f_np)[0].G.to_rows() == construct_cyclic(s, f)[0].G.to_rows()
    assert construct_random(s, f_np, 3, 50).G.to_rows() == construct_random(s, f, 3, 50).G.to_rows()


def test_cyclic_disjoint_groups_use_the_cyclic_layout():
    """t = 0: only private rows x^i u, with u = g2 = prod_{j<r} (x - w^j), and the claim r + 1 = dmax."""
    s = disjoint_structure()
    code, ing = construct_cyclic(s, F7)
    assert (ing.omega, ing.u, ing.T, ing.a, ing.b) == (3, ing.g2, (), (), ())
    assert code.G.to_rows() == [[6, 1, 0, 0, 0, 0], [0, 6, 1, 0, 0, 0], [0, 0, 0, 6, 1, 0], [0, 0, 0, 0, 6, 1]]
    assert code.meta == {"method": "cyclic", "omega": 3, "claimed_distance": 2}
    assert verify_cyclic_conditions(ing, s, F7).all_ok
    assert verify_ledc(code, "both").all_ok


def test_cyclic_checks_omega_at_every_shared_count():
    s = disjoint_structure()
    for omega in (2, 0):  # 2 has order 3 in GF(7)
        with pytest.raises(NotPrimitive):
            construct_cyclic(s, F7, omega=omega)
    code, ing = construct_cyclic(s, F7, omega=5)
    assert code.meta["omega"] == ing.omega == 5
    assert code.G.to_rows() == construct_cyclic(s, F7)[0].G.to_rows()  # r = 1: u = x - w^0 for every w


def test_cyclic_without_shared_symbols_meets_the_bound():
    """Every equal-redundancy t = 0 shape with n1, n2 <= 6 over GF(7), GF(11), GF(13) and GF(17),
    contiguous and with data indices and positions reversed.

    A shape is refused, with PreconditionViolated, exactly when n1 + n2 > q - 1. Every other one builds a
    code that verifies at its claim r + 1 = dmax (enumeration and rank agreeing where q^k <= 10^7) and
    whose ingredients meet the paper's conditions.
    """
    built = 0
    for q, n1, n2 in product((7, 11, 13, 17), range(1, 7), range(1, 7)):
        f = make_field(q)
        for k1 in range(max(1, n1 - n2 + 1), n1 + 1):
            k2 = n2 - n1 + k1
            k, n = k1 + k2, n1 + n2
            K, N = [range(1, k1 + 1), range(k1 + 1, k + 1)], blocks_for_sizes([n1, n2])
            reversed_ = [[k + 1 - i for i in Kg] for Kg in K], [[n + 1 - j for j in Ng] for Ng in N]
            for s in (make_structure(K, N), make_structure(*reversed_)):
                shape = (q, n1, k1, n2, k2, s.K)
                if n1 + n2 > q - 1:
                    with pytest.raises(PreconditionViolated, match="n1 \\+ n2"):
                        construct_cyclic(s, f)
                    continue
                code, ing = construct_cyclic(s, f)
                assert code.meta["claimed_distance"] == dmax(s) == n1 - k1 + 1, shape
                assert code.meta["omega"] == ing.omega, shape
                assert verify_ledc(code, "both" if q**k <= 10**7 else "rank").all_ok, shape
                assert verify_cyclic_conditions(ing, s, f).all_ok, shape
                built += 1
    assert built == 558


def test_cyclic_rejects_identical_groups():
    s = make_structure([[1, 2], [1, 2]], [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(PreconditionViolated, match="t = k"):
        construct_cyclic(s, F7)


# ---------- pinned outputs ----------


def test_two_group_constructions_are_pinned_byte_for_byte():
    """One SHA-256 over G and meta of every two-group shape with n1, n2 <= 5 over GF(13) and GF(17).

    Each shape is built contiguously and with data indices and positions
    reversed, by construct_nested and by construct_cyclic; a refused shape
    contributes its error type.
    """
    digest = hashlib.sha256()
    for q, n1, n2 in product((13, 17), range(1, 6), range(1, 6)):
        f = make_field(q)
        for k1, k2 in product(range(1, n1 + 1), range(1, n2 + 1)):
            for t in range(min(k1, k2) + 1):
                k, n = k1 + k2 - t, n1 + n2
                K, N = [range(1, k1 + 1), range(k1 - t + 1, k + 1)], blocks_for_sizes([n1, n2])
                reversed_ = [[k + 1 - i for i in Kg] for Kg in K], [[n + 1 - j for j in Ng] for Ng in N]
                for s in (make_structure(K, N), make_structure(*reversed_)):
                    for build in (construct_nested, lambda s, f: construct_cyclic(s, f)[0]):
                        try:
                            code = build(s, f)
                        except LedcError as exc:
                            digest.update(type(exc).__name__.encode())
                            continue
                        digest.update(json.dumps([code.G.to_rows(), code.meta], sort_keys=True).encode())
    assert digest.hexdigest() == "d49f3f6d05d2b80d26f5438341f6b28753c77b587178aa295e7fc618da2f6914"


# ---------- randomized construction ----------


def test_random_large_field_first_attempt(unequal_r):
    s, _ = unequal_r
    f = make_field(101)
    code = construct_random(s, f, seed=0, max_attempts=20)
    assert code.meta["attempt"] == 0
    assert code.meta["claimed_distance"] == dmax(s) == 4
    assert min_distance_rank(code) == 4
    assert support_violations(code) == []
    again = construct_random(s, f, seed=0, max_attempts=20)
    assert again.G.to_rows() == code.G.to_rows()


def test_random_small_field_search(unequal_r):
    s, f = unequal_r
    code = construct_random(s, f, seed=7, max_attempts=200)
    assert code.meta["attempt"] == 79
    assert min_distance_exhaustive(code) == 4


def test_random_seeds_give_different_codes(unequal_r):
    s, _ = unequal_r
    f = make_field(101)
    a = construct_random(s, f, seed=1, max_attempts=20)
    b = construct_random(s, f, seed=2, max_attempts=20)
    assert a.G.to_rows() != b.G.to_rows()


def test_random_trivial_structure():
    s = make_structure([[1, 2]], [[1, 2]])
    code = construct_random(s, F7, seed=0, max_attempts=50)
    assert min_distance_exhaustive(code) == dmax(s) == 1


def test_random_exhausts_on_impossible_target():
    s = make_structure([[1, 2]], [[1, 2, 3, 4]])
    f2 = make_field(2)
    with pytest.raises(ExhaustedAttempts) as exc_info:
        construct_random(s, f2, seed=0, max_attempts=30)
    # no [4, 2] MDS code exists over GF(2), so no attempt may compete
    err = exc_info.value
    assert err.best_code is None
    assert err.best_distance == 0 < dmax(s) == 3


def test_random_best_code_is_locally_mds():
    s = make_structure([range(1, 7), range(4, 11)], blocks_for_sizes([9, 10]))
    with pytest.raises(ExhaustedAttempts) as exc_info:
        construct_random(s, make_field(257), seed=1, max_attempts=2)
    err = exc_info.value
    assert err.best_distance == 6 < dmax(s) == 7
    assert err.best_code.meta["attempt"] == 0
    assert all(verify_local_mds(err.best_code).values())


def test_random_walks_each_global_level_once(monkeypatch):
    """An attempt's global distance levels are each walked once, also when it misses dmax.

    Attempt 0 is locally MDS at distance 6 < dmax 7, so levels 7 and 6 of
    its generator are both walked.
    """
    s = make_structure([range(1, 7), range(4, 11)], blocks_for_sizes([9, 10]))
    walked = []
    level = code_module._level

    def record(G, d0):
        if (G.rows, G.cols) == (s.k, s.n):  # the global generator; local ones are smaller
            walked.append((G.entries.tobytes(), d0))
        return level(G, d0)

    monkeypatch.setattr(code_module, "_level", record)
    with pytest.raises(ExhaustedAttempts):
        construct_random(s, make_field(257), seed=1, max_attempts=2)
    assert {7, 6} <= {d0 for _, d0 in walked}
    assert len(set(walked)) == len(walked)


def test_random_budgets_local_levels_before_sampling(monkeypatch):
    # Group 1's local-MDS level needs C(30,15) minors, past the budget; every
    # attempt would run it, so nothing is sampled.
    s = make_structure([range(1, 16), range(16, 21)], blocks_for_sizes([30, 8]))
    for kernel in ("full_rank_subsets", "nullspace"):
        monkeypatch.setattr(code_module, kernel, lambda *args: pytest.fail("eliminated past the budget"))
    monkeypatch.setattr(construct_module, "_SplitMix64", lambda *args: pytest.fail("sampled an attempt"))
    with pytest.raises(TooLarge, match=r"C\(30,15\) erasure patterns"):
        construct_random(s, make_field(65537), seed=0, max_attempts=20)


def test_random_budgets_the_walk_when_the_certificate_fails(monkeypatch):
    # Every symbol of cap_structure sits in two groups, so some group set's
    # local subcodes sum below dmax = 6: the first locally MDS attempt needs
    # the global walk, whose C(95,5) erasure patterns are past the budget.
    s = cap_structure()
    attempts = []
    certify = code_module.certifies_dmax
    monkeypatch.setattr(code_module, "certifies_dmax", lambda c: attempts.append(c) or certify(c))
    with pytest.raises(TooLarge, match=r"C\(95,5\) erasure patterns"):
        construct_random(s, make_field(65537), seed=0, max_attempts=20)
    assert len(attempts) == 1 and not certify(attempts[0])


def test_random_certificate_keeps_the_accepted_attempt(monkeypatch):
    """The attempt a certificate accepts is the one the global walk accepts, with the same G."""
    f257 = make_field(257)
    cases = [
        (make_structure([range(1, 7), range(4, 11)], blocks_for_sizes([9, 10])), f257),
        (make_structure([[1, 2, 3], [3, 4, 5], [5, 6, 1]], blocks_for_sizes([5, 5, 5])), make_field(31)),
        (make_structure([[1, 2, 3, 4], [2, 3, 4, 5, 6, 7]], blocks_for_sizes([5, 7])), make_field(13)),
    ]
    def outcome(s, f, seed):
        try:
            code = construct_random(s, f, seed=seed, max_attempts=10)
        except ExhaustedAttempts as exc:
            return str(exc), exc.best_distance
        return code.meta, code.G.to_rows()

    certified = []
    certify = code_module.certifies_dmax
    for s, f in cases:
        for seed in range(8):
            monkeypatch.setattr(code_module, "certifies_dmax", lambda c: certified.append(certify(c)) or certified[-1])
            built = outcome(s, f, seed)
            monkeypatch.setattr(code_module, "certifies_dmax", lambda c: False)
            assert built == outcome(s, f, seed)
    assert 0 < certified.count(True) < len(certified)


def test_random_rejects_zero_attempts(unequal_r):
    s, f = unequal_r
    with pytest.raises(PreconditionViolated):
        construct_random(s, f, seed=0, max_attempts=0)
