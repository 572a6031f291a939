"""End-to-end acceptance checks.

Each test prints one ACCEPTANCE line with its verdict and wall time so
the suite output doubles as a report. The sweeps in criteria 5 and 6
enumerate every admissible two-group shape up to the size cutoffs and
take a few seconds each.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

import pytest

from conftest import FIXTURES, random_structure
from oracles import dmax_bruteforce, lemma3_eliminate

import ledc.code as code_module
from ledc.cli import run
from ledc.code import (
    encode,
    erasure_decode,
    local_decode,
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
from ledc.errors import ExhaustedAttempts, UnrecoverableErasurePattern
from ledc.field import find_primitive, is_primitive, make_field
from ledc.locality import blocks_for_sizes, dmax, make_structure
from ledc.poly import poly_mul


@contextmanager
def criterion(capsys, number, name):
    start = time.perf_counter()
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} {name}: {verdict} ({elapsed:.2f}s)")


def next_prime(x):
    def is_prime(v):
        if v < 2:
            return False
        d = 2
        while d * d <= v:
            if v % d == 0:
                return False
            d += 1
        return True

    while not is_prime(x):
        x += 1
    return x


def two_group_structure(n1, k1, n2, k2, t):
    K1 = list(range(1, k1 + 1))
    K2 = list(range(k1 - t + 1, k1 - t + k2 + 1))
    return make_structure([K1, K2], blocks_for_sizes([n1, n2]))


def test_criterion_1_reference_nested_construction(unequal_r, capsys):
    with criterion(capsys, 1, "nested construction on reference structure"):
        s, f = unequal_r
        start = time.perf_counter()
        code = construct_nested(s, f)
        distance = min_distance_exhaustive(code)
        elapsed = time.perf_counter() - start
        assert distance == dmax(s) == 4
        assert verify_local_mds(code) == {1: True, 2: True}
        assert support_violations(code) == []
        assert elapsed < 1.0


def test_criterion_2_cyclic_reference_code(equal_r, cyclic_descending, cyclic_codefile, capsys):
    with criterion(capsys, 2, "cyclic construction reproduces reference code"):
        s, f = equal_r
        code, ing = construct_cyclic(s, f)
        assert ing.omega == 2
        assert ing.u == (12, 10, 5, 11, 1)  # the paper's v and g1 are u
        assert ing.g2 == (12, 1)
        assert ing.T == (9, 7, 5)
        assert ing.a == ((12, 2, 5, 7), (12, 7, 7), (12, 1))
        assert ing.b == ((8, 5), (7, 2, 4), (10, 12, 3, 1))
        assert code.G.to_rows() == cyclic_codefile.G.to_rows()
        descending_rows = {tuple(row) for row in cyclic_descending.G.to_rows()}
        assert {tuple(row) for row in code.G.to_rows()} == descending_rows

        start = time.perf_counter()
        assert min_distance_rank(code) == 5 == dmax(s)
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        assert min_distance_exhaustive(code) == 5
        assert time.perf_counter() - start <= 120.0


def test_criterion_3_suboptimal_code_detected(suboptimal_codefile, capsys):
    with criterion(capsys, 3, "valid but suboptimal code is flagged"):
        code = suboptimal_codefile
        assert min_distance_exhaustive(code) == 4
        assert dmax(code.structure) == 5
        assert verify_local_mds(code) == {1: True, 2: True}
        assert support_violations(code) == []
        exit_code = run(["verify", str(FIXTURES / "suboptimal_code.json")])
        out = capsys.readouterr().out
        assert exit_code == 4
        assert "optimal=false" in out


def test_criterion_4_bound_matches_brute_force(capsys):
    with criterion(capsys, 4, "distance bound agrees with exhaustive search"):
        rng = random.Random(8204)
        start = time.perf_counter()
        for _ in range(500):
            s = random_structure(rng)
            assert dmax(s) == dmax_bruteforce(s.K, s.N), (s.K, s.N)
        assert time.perf_counter() - start < 10.0


def nested_shapes():
    """(n1, k1, n2, k2, t, q) for every admissible nested shape of criterion 5, q the least prime >= max(n1, n2, 2)
    with q^k <= 10^7."""
    for n1 in range(1, 12):
        for n2 in range(1, 13 - n1):
            for k1 in range(1, n1 + 1):
                for k2 in range(1, n2 + 1):
                    r1, r2 = n1 - k1, n2 - k2
                    for t in range(0, min(k1, k2)):
                        if t > max(r1, r2) + 1:
                            continue
                        q = next_prime(max(n1, n2, 2))
                        if q ** (k1 + k2 - t) <= 10**7:
                            yield n1, k1, n2, k2, t, q


def test_criterion_5_nested_sweep_optimal(capsys):
    with criterion(capsys, 5, "nested construction optimal on every admissible shape"):
        count = 0
        for params in nested_shapes():
            n1, k1, n2, k2, t, q = params
            s = two_group_structure(n1, k1, n2, k2, t)
            code = construct_nested(s, make_field(q))
            d = min_distance_exhaustive(code)
            assert d == min(n1 - k1, n2 - k2) + t + 1 == dmax(s), params
            assert all(verify_local_mds(code).values()), params
            assert support_violations(code) == [], params
            count += 1
        assert count == 1313


def test_nested_codes_are_proved_by_their_vandermonde_blocks(monkeypatch):
    """On every shape of criterion 5, local MDS and d = dmax on the rank path need no level swept."""
    monkeypatch.setattr(code_module, "_level", lambda *args: pytest.fail(f"swept a level of {params}"))
    for params in nested_shapes():
        code = construct_nested(two_group_structure(*params[:5]), make_field(params[5]))
        assert verify_local_mds(code) == {1: True, 2: True}, params
        assert verify_ledc(code, "rank").all_ok, params


def cyclic_shapes():
    """(q, n1, k1, n2, k2, t) for every admissible cyclic shape of criterion 6: equal redundancy, n1 + n2 <= q - 1,
    1 <= t < k and q^k <= 10^7."""
    for q in (13, 17, 19):
        for n1 in range(1, 14):
            for n2 in range(1, 15 - n1):
                if n1 + n2 > q - 1:
                    continue
                for k1 in range(1, n1 + 1):
                    k2 = n2 - (n1 - k1)
                    if not 1 <= k2 <= n2:
                        continue
                    for t in range(1, min(k1, k2) + 1):
                        if t == k1 == k2:
                            continue
                        if q ** (k1 + k2 - t) > 10**7:
                            continue
                        yield q, n1, k1, n2, k2, t


def test_criterion_6_cyclic_sweep_optimal(capsys):
    with criterion(capsys, 6, "cyclic construction optimal on every admissible shape"):
        count = 0
        for params in cyclic_shapes():
            q, n1, k1, n2, k2, t = params
            f, r = make_field(q), n1 - k1
            s = two_group_structure(n1, k1, n2, k2, t)
            code, ing = construct_cyclic(s, f)
            d = min_distance_exhaustive(code)
            assert d == r + t + 1 == dmax(s), params
            assert verify_cyclic_conditions(ing, s, f).all_ok, params
            assert all(verify_local_mds(code).values()), params
            assert support_violations(code) == [], params
            count += 1
        assert count == 445


def test_cyclic_shared_rows_match_elimination_at_other_primitive_elements():
    """On every shape of criterion 6, built at a primitive w other than the smallest (each shape takes the next one
    in turn), shared row l's halves a_l and b_l are g2 times Lemma 3's pair found by elimination."""
    count = 0
    for index, params in enumerate(cyclic_shapes()):
        q, n1, k1, n2, k2, t = params
        f = make_field(q)
        others = [w for w in range(find_primitive(f) + 1, q) if is_primitive(f, w)]
        omega = others[index % len(others)]
        _, ing = construct_cyclic(two_group_structure(n1, k1, n2, k2, t), f, omega)
        assert ing.omega == omega
        pairs = [lemma3_eliminate(q, omega, ell, t, n1 - k1, T) for ell, T in enumerate(ing.T, 1)]
        assert ing.a == tuple(poly_mul(f, ing.g2, a_star) for a_star, _ in pairs), params
        assert ing.b == tuple(poly_mul(f, ing.g2, b_star) for _, b_star in pairs), params
        count += 1
    assert count == 445


def test_criterion_7_decoding_guarantees(suboptimal_codefile, cyclic_descending, cyclic_codefile, capsys):
    with criterion(capsys, 7, "erasure and local decoding guarantees"):
        rng = random.Random(8207)
        for code in (suboptimal_codefile, cyclic_descending, cyclic_codefile):
            s, q, d = code.structure, code.field.q, code.meta["claimed_distance"]
            x = [rng.randrange(q) for _ in range(s.k)]
            word = encode(code, x)
            for size in range(d):
                for erased in combinations(range(s.n), size):
                    received = [None if j in erased else word[j] for j in range(s.n)]
                    assert erasure_decode(code, received) == x
            failures = 0
            for erased in combinations(range(s.n), d):
                received = [None if j in erased else word[j] for j in range(s.n)]
                try:
                    erasure_decode(code, received)
                except UnrecoverableErasurePattern:
                    failures += 1
            assert failures > 0
            for g in range(1, s.m + 1):
                Kg, Ng = s.K[g - 1], s.N[g - 1]
                for subset in combinations(Ng, len(Kg)):
                    got = local_decode(code, g, [(p, word[p - 1]) for p in subset])
                    assert got == {i: x[i - 1] for i in Kg}


def test_criterion_8_random_construction(unequal_r, capsys):
    with criterion(capsys, 8, "randomized construction reaches the bound"):
        s, _ = unequal_r
        f = make_field(101)
        successes = 0
        for seed in range(100):
            try:
                code = construct_random(s, f, seed=seed, max_attempts=20)
            except ExhaustedAttempts:
                continue
            assert code.meta["claimed_distance"] == dmax(s) == 4
            successes += 1
        assert successes >= 95
        first = construct_random(s, f, seed=3, max_attempts=20)
        second = construct_random(s, f, seed=3, max_attempts=20)
        assert first.G.to_rows() == second.G.to_rows()
