import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cap_structure, random_structure
from oracles import dmax_bruteforce, dmax_two_subcodes, dmax_witness_scan, structure_violation

from ledc.errors import (
    CoverageGap,
    GroupTooSmall,
    OverlapN,
    PreconditionViolated,
    TooManyGroups,
)
from ledc.locality import (
    LocalityStructure,
    blocks_for_sizes,
    dmax,
    dmax_witness,
    make_structure,
    reach,
    two_group_params,
)


# ---------- validation ----------


def test_make_structure_normalizes(unequal_r):
    s, _ = unequal_r
    assert s.k == 5 and s.n == 10 and s.m == 2
    assert s.K == ((1, 2, 3), (2, 3, 4, 5))
    assert s.N == ((1, 2, 3, 4), (5, 6, 7, 8, 9, 10))
    assert s.k_sizes() == (3, 4)
    assert s.n_sizes() == (4, 6)


def test_make_structure_sorts_and_dedups():
    s = make_structure([[3, 1, 1, 2]], [[2, 1, 3]])
    assert s.K == ((1, 2, 3),)
    assert s.N == ((1, 2, 3),)


def test_validate_coverage_gap():
    with pytest.raises(CoverageGap):
        LocalityStructure(2, 2, [[1]], [[1, 2]])
    with pytest.raises(CoverageGap):
        make_structure([[1], []], [[1], [2]])
    with pytest.raises(CoverageGap):
        LocalityStructure(2, 2, [[1, 3]], [[1, 2]])  # index outside 1..k


def test_validate_position_errors():
    with pytest.raises(OverlapN):
        make_structure([[1], [2]], [[1, 2], [2, 3]])
    with pytest.raises(CoverageGap):
        make_structure([[1], [2]], [[1], [3]])  # position 2 unowned
    with pytest.raises(CoverageGap):
        make_structure([[1], [2]], [[1]])  # group count mismatch


def test_validate_group_too_small():
    with pytest.raises(GroupTooSmall):
        make_structure([[1, 2]], [[1]])


def test_validate_returns_normalized():
    s = make_structure([[1, 2]], [[1, 2, 3]])
    assert s.K == ((1, 2),)


@st.composite
def structure_fields(draw):
    """(k, n, K, N), often invalid: groups from a random labelling of 1..k and 1..n, shuffled,
    with repeated or stray indices, sometimes one out of range, one dropped or all dropped, and
    sometimes one group more."""
    rarely = st.sampled_from((False,) * 9 + (True,))
    m = 0 if draw(rarely) else draw(st.integers(1, 3))
    k, n = draw(st.integers(m, 6)), draw(st.integers(m, 9))

    def groups(size):
        rest = draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=size - m, max_size=size - m))
        labels = draw(st.permutations(list(range(m)) + rest))  # every group gets an index
        out = [[i for i, g in enumerate(labels, start=1) if g == h] for h in range(m)]
        for g in out:
            g += draw(st.lists(st.integers(1, size), max_size=2))
            if draw(rarely):
                g.append(draw(st.sampled_from((-1, 0, size + 1))))
            if draw(rarely) and g:
                g.remove(draw(st.sampled_from(g)))  # may leave an index uncovered
            if draw(rarely):
                g.clear()
        if draw(rarely):
            out.append(draw(st.lists(st.integers(1, size + 1), max_size=3)))
        return [draw(st.permutations(g)) for g in out]

    return k, n, groups(k), groups(n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(structure_fields())
def test_structure_checks_itself_against_invariant_oracle(fields):
    k, n, K, N = fields
    expected = structure_violation(k, n, K, N)
    try:
        s = LocalityStructure(k, n, K, N)
    except (CoverageGap, OverlapN, GroupTooSmall) as exc:
        assert type(exc).__name__ == expected, fields
        return
    assert expected is None, fields
    assert (s.k, s.n) == (k, n)
    assert s.K == tuple(tuple(sorted(set(Kg))) for Kg in K)
    assert s.N == tuple(tuple(sorted(set(Ng))) for Ng in N)


# ---------- constraints ----------


def test_constraints_reference_structure(unequal_r):
    s, _ = unequal_r
    R = reach(s)
    assert len(R) == s.k == 5
    assert R[0] == frozenset(range(1, 5))
    assert R[1] == frozenset(range(1, 11))
    assert R[3] == frozenset(range(5, 11))


def test_constraints_single_group():
    s = make_structure([[1, 2, 3]], [[1, 2, 3, 4, 5]])
    assert reach(s) == (frozenset(range(1, 6)),) * 3


# ---------- dmax ----------


def test_dmax_reference_structures(unequal_r, equal_r):
    assert dmax(unequal_r[0]) == 4
    assert dmax(equal_r[0]) == 5


def test_dmax_single_group_is_singleton_bound():
    for n, k in [(5, 3), (7, 7), (12, 1)]:
        s = make_structure([list(range(1, k + 1))], [list(range(1, n + 1))])
        assert dmax(s) == n - k + 1


def assert_witness_consistent(s, w):
    sizes = s.n_sizes()
    union = sum(sizes[g - 1] for g in w.blocks)
    assert w.dmax == 1 + union - len(w.data)
    # the data set must be exactly the symbols confined to those blocks
    T = set(w.blocks)
    for i in range(1, s.k + 1):
        groups = {g for g in range(1, s.m + 1) if i in s.K[g - 1]}
        assert (i in w.data) == (groups <= T)


def test_dmax_witness_is_consistent(equal_r):
    s = equal_r[0]
    assert_witness_consistent(s, dmax_witness(s))


def test_dmax_witness_takes_lowest_minimizing_subset():
    rng = random.Random(4503)
    for _ in range(60):
        s = random_structure(rng)
        w = dmax_witness(s)
        assert (w.dmax, w.blocks, w.data) == dmax_witness_scan(s.K, s.N), (s.K, s.N)


@st.composite
def structures(draw, max_k=14, max_m=10):
    """Valid structures with up to 10 groups and 0..3 spare positions per group.

    Hypothesis leans towards 0 spare positions, where tied subsets are common.
    """
    k = draw(st.integers(1, max_k))
    m = draw(st.integers(1, max_m))
    K = [draw(st.sets(st.integers(1, k), min_size=1)) for _ in range(m)]
    for i in set(range(1, k + 1)).difference(*K):
        K[draw(st.integers(0, m - 1))].add(i)
    sizes = [len(Kg) + draw(st.integers(0, 3)) for Kg in K]
    return make_structure(K, blocks_for_sizes(sizes))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(structures())
def test_dmax_witness_fuzz_past_four_groups(s):
    """Reaches the bit positions >= 4 of the subset transform that random_structure never draws."""
    assert dmax(s) == dmax_bruteforce(s.K, s.N)
    w = dmax_witness(s)
    assert (w.dmax, w.blocks, w.data) == dmax_witness_scan(s.K, s.N)


def test_dmax_witness_at_group_cap():
    s = cap_structure()
    start = time.perf_counter()
    w = dmax_witness(s)
    assert time.perf_counter() - start < 2.0
    assert_witness_consistent(s, w)
    # golden value from the per-subset enumeration this transform replaced
    assert (w.dmax, w.blocks, w.data) == (6, (12, 18), (6, 15))


def test_dmax_matches_bruteforce_oracle():
    rng = random.Random(4501)
    for _ in range(120):
        s = random_structure(rng)
        assert dmax(s) == dmax_bruteforce(s.K, s.N), (s.K, s.N)


def test_dmax_never_exceeds_singleton():
    rng = random.Random(4502)
    for _ in range(80):
        s = random_structure(rng)
        assert dmax(s) <= s.n - s.k + 1


def test_dmax_monotone_in_parity_positions():
    rng = random.Random(4503)
    for _ in range(60):
        s = random_structure(rng)
        g = rng.randrange(s.m)
        N2 = [list(Ng) for Ng in s.N]
        N2[g].append(s.n + 1)
        bigger = make_structure([list(Kg) for Kg in s.K], N2)
        assert dmax(bigger) >= dmax(s)


def test_dmax_group_cap():
    K = [[i] for i in range(1, 22)]
    N = [[i] for i in range(1, 22)]
    with pytest.raises(TooManyGroups):
        dmax(make_structure(K, N))


# ---------- two-group closed form ----------


def test_two_group_params(equal_r):
    assert two_group_params(equal_r[0]) == (5, 4, 7, 6, 3)
    with pytest.raises(PreconditionViolated):
        two_group_params(make_structure([[1]], [[1]]))


def test_dmax_two_subcodes_golden(unequal_r, equal_r):
    assert dmax_two_subcodes(equal_r[0].K, equal_r[0].N) == 5
    assert dmax_two_subcodes(unequal_r[0].K, unequal_r[0].N) == 4


def test_dmax_two_subcodes_disjoint_groups():
    s = make_structure([[1, 2], [3, 4]], blocks_for_sizes([4, 5]))
    assert dmax_two_subcodes(s.K, s.N) == 1 + min(4 - 2, 5 - 2)


def test_dmax_two_subcodes_refusals():
    # t = k: both groups use all data symbols
    s = make_structure([[1, 2], [1, 2]], blocks_for_sizes([3, 3]))
    with pytest.raises(ValueError):
        dmax_two_subcodes(s.K, s.N)
    # t = min(k1, k2) with unequal redundancies
    s = make_structure([[1, 2], [1, 2, 3]], blocks_for_sizes([3, 6]))
    with pytest.raises(ValueError):
        dmax_two_subcodes(s.K, s.N)


def test_dmax_two_subcodes_agrees_with_general_bound():
    """Closed form equals the block-subset minimization wherever it applies."""
    checked = 0
    for n1 in range(1, 14):
        for n2 in range(1, 15 - n1):
            for k1 in range(1, n1 + 1):
                for k2 in range(1, n2 + 1):
                    for t in range(0, min(k1, k2) + 1):
                        k = k1 + k2 - t
                        if t >= k:
                            continue
                        if not (t < min(k1, k2) or n1 - k1 == n2 - k2):
                            continue
                        K1 = list(range(1, k1 + 1))
                        K2 = list(range(k1 - t + 1, k1 - t + k2 + 1))
                        s = make_structure([K1, K2], blocks_for_sizes([n1, n2]))
                        assert dmax_two_subcodes(s.K, s.N) == dmax(s), (n1, k1, n2, k2, t)
                        checked += 1
    assert checked > 2000
