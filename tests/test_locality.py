import inspect
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cap_structure, random_structure
from oracles import (
    dmax_bruteforce,
    dmax_two_subcodes,
    dmax_witness_by_data,
    dmax_witness_scan,
    structure_violation,
    support_bruteforce,
)

from ledc.cli import MAX_POSITIONS
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
    two_group_params,
)


# ---------- validation ----------


def test_make_structure_normalizes(unequal_r):
    s, _ = unequal_r
    assert s.k == 5 and s.n == 10 and s.m == 2
    assert s.K == ((1, 2, 3), (2, 3, 4, 5))
    assert s.N == ((1, 2, 3, 4), (5, 6, 7, 8, 9, 10))


def test_make_structure_sorts_and_dedups():
    s = make_structure([[3, 1, 1, 2]], [[2, 1, 3]])
    assert s.K == ((1, 2, 3),)
    assert s.N == ((1, 2, 3),)


def test_structure_is_its_groups():
    """The constructor takes K and N alone; k and n are the largest index on each side."""
    assert list(inspect.signature(LocalityStructure).parameters) == ["K", "N"]
    assert make_structure is LocalityStructure
    s = LocalityStructure(K=[[4, 1], [2, 3]], N=[[5, 1, 2], [3, 4]])
    assert (s.k, s.n) == (4, 5)
    with pytest.raises(TypeError):
        LocalityStructure(4, 5, [[1, 2, 3, 4]], [[1, 2, 3, 4, 5]])


def test_validate_coverage_gap():
    with pytest.raises(CoverageGap):
        make_structure([[1], []], [[1], [2]])
    with pytest.raises(CoverageGap, match="1 data indices covered by no group, the lowest 2"):
        LocalityStructure([[1, 3]], [[1, 2]])
    # an index below 1 is named itself, not as outside a range built from a k or n it may have set
    below = [
        ([[0, 2]], [[1, 2]], "group 1 has data index 0, below 1"),
        ([[-1]], [[1]], "group 1 has data index -1, below 1"),
        ([[1]], [[-2]], "group 1 has position -2, below 1"),
        ([[1], [2]], [[1], [0, 2]], "group 2 has position 0, below 1"),
    ]
    for K, N, message in below:
        with pytest.raises(CoverageGap, match=f"^{re.escape(message)}$"):
            LocalityStructure(K, N)


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


def test_validate_refuses_indices_that_are_not_integers():
    """A bool, float or string index names its group and value, before any count or bound is taken."""
    cases = [
        ([[1, 2], [2, 3]], [[1, 2, 3.5], [4, 5, 6]], "group 1 has position 3.5,"),
        ([[1, 2.0], [2, 3]], [[1, 2, 3], [4, 5, 6]], "group 1 has data index 2.0,"),
        ([[1], [True, 2]], [[1], [2, 3]], "group 2 has data index True,"),
        ([[1], [2]], [[1], [2, "3"]], "group 2 has position '3',"),
    ]
    for K, N, message in cases:
        with pytest.raises(CoverageGap, match=re.escape(message)):
            make_structure(K, N)
    s = make_structure([[np.int64(2), 1]], [np.arange(1, 4, dtype=np.int32)])
    assert (s.K, s.N) == (((1, 2),), ((1, 2, 3),))
    assert all(type(v) is int for g in s.K + s.N for v in g)


def test_validate_returns_normalized():
    s = make_structure([[1, 2]], [[1, 2, 3]])
    assert s.K == ((1, 2),)


@st.composite
def structure_fields(draw):
    """(K, N), often invalid: groups from a random labelling of 1..k and 1..n, shuffled,
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

    return groups(k), groups(n)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(structure_fields())
def test_structure_checks_itself_against_invariant_oracle(fields):
    """Checked against the invariants over 1..k and 1..n, with k and n the largest index each side names."""
    K, N = fields
    k, n = (max((v for g in groups for v in g), default=0) for groups in (K, N))
    expected = structure_violation(k, n, K, N)
    try:
        s = LocalityStructure(K, N)
    except (CoverageGap, OverlapN, GroupTooSmall) as exc:
        assert type(exc).__name__ == expected, fields
        return
    assert expected is None, fields
    assert (s.k, s.n) == (k, n)
    assert s.K == tuple(tuple(sorted(set(Kg))) for Kg in K)
    assert s.N == tuple(tuple(sorted(set(Ng))) for Ng in N)


# ---------- constraints: the support pattern ----------


def test_constraints_reference_structure(unequal_r):
    s, _ = unequal_r
    S = s.support
    assert S.shape == (s.k, s.n) == (5, 10) and S.dtype == bool
    assert S[0].tolist() == [True] * 4 + [False] * 6
    assert S[1].all()
    assert S[3].tolist() == [False] * 4 + [True] * 6


def test_constraints_single_group():
    s = make_structure([[1, 2, 3]], [[1, 2, 3, 4, 5]])
    assert s.support.tolist() == [[True] * 5] * 3


def test_support_matches_bruteforce_oracle():
    """Random structures, each also with its positions permuted so blocks are not consecutive, and the cap one."""
    rng = random.Random(4504)
    cases = [cap_structure()]
    for _ in range(60):
        s = random_structure(rng)
        perm = rng.sample(range(1, s.n + 1), s.n)
        cases += [s, make_structure(s.K, [[perm[j - 1] for j in Ng] for Ng in s.N])]
    for s in cases:
        assert s.support.tolist() == support_bruteforce(s.k, s.n, s.K, s.N), (s.K, s.N)


def test_support_is_built_on_first_use_once_and_read_only():
    """The bound never builds the k x n mask, which at 10^5 positions would dwarf its own work."""
    s = make_structure([[1], [1, 2]], blocks_for_sizes([60_000, 40_000]))
    assert dmax_witness(s).dmax == 40_000
    assert "support" not in vars(s)
    assert s.support is s.support and not s.support.flags.writeable
    with pytest.raises(ValueError):
        s.support[0, 0] = False


# ---------- dmax ----------


def test_dmax_reference_structures(unequal_r, equal_r):
    assert dmax(unequal_r[0]) == 4
    assert dmax(equal_r[0]) == 5


def test_dmax_single_group_is_singleton_bound():
    for n, k in [(5, 3), (7, 7), (12, 1)]:
        s = make_structure([list(range(1, k + 1))], [list(range(1, n + 1))])
        assert dmax(s) == n - k + 1


def assert_witness_consistent(s, w):
    sizes = [len(Ng) for Ng in s.N]
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
def structures(draw, max_k=14, max_m=12):
    """Valid structures with up to 12 groups and 0..3 spare positions per group.

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
    # 2^20 subsets on one-byte counters: a few bytes each, not an int64 or int32 copy of them
    tracemalloc.start()
    try:
        dmax_witness(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak


def test_dmax_witness_at_20_groups_against_data_subsets():
    """Each symbol in 4-6 of 20 groups, so most group sets hold no symbol whole and take the empty-I_T value;
    the lowest-T tie rule still holds, against a minimization over the 2^k data subsets."""
    rng = random.Random(2520)
    for _ in range(20):
        k = rng.randint(10, 14)
        K = [()]
        while not all(K):
            K = [set() for _ in range(20)]
            for i in range(1, k + 1):
                for g in rng.sample(range(20), rng.randint(4, 6)):
                    K[g].add(i)
        s = make_structure(K, blocks_for_sizes([len(Kg) + rng.randint(0, 2) for Kg in K]))
        w = dmax_witness(s)
        assert (w.dmax, w.blocks, w.data) == dmax_witness_by_data(s.K, s.N), (s.K, s.N)


def edge_structure(rng, k=None, n=None, m=None):
    """Up to 6 groups, or m, with no spare positions, so tied subsets are common; a given n pads one group up to it.

    Either k, the data count, or n, the position count, is fixed at the edge of an unsigned type.
    """
    k = k or rng.randint(2, 12)
    m = m or rng.randint(1, 6)
    while True:
        K = [sorted(rng.sample(range(1, k + 1), rng.randint(1, k))) for _ in range(m)]
        if set().union(*K) == set(range(1, k + 1)):
            break
    sizes = [len(Kg) for Kg in K]
    if n is not None:
        sizes[rng.randrange(m)] += n - sum(sizes)
    return make_structure(K, blocks_for_sizes(sizes))


def test_dmax_witness_at_counter_type_edges():
    """k and n at 255/256 and past 65,535, where a counter one type too narrow would wrap, up to 12 groups."""
    rng = random.Random(2560)
    cases = [
        make_structure([range(1, 257)], [range(1, 258)]),  # one group: |I_T| = 256 at its only subset
        make_structure([range(1, 257)] * 2, blocks_for_sizes([256, 256])),
        make_structure([[1, 2], [2, 3]], blocks_for_sizes([2, 65_534])),  # n = 65,536 = n(T) of the full T
    ]
    for k in (255, 256):
        cases += [edge_structure(rng, k=k) for _ in range(6)]
    for n in (255, 256, 65_535, 65_536, 65_537):
        cases += [edge_structure(rng, n=n) for _ in range(6)]
    # past 8 groups the high group bits take rows of their own, each with the counts of the low parts in use
    for m in range(9, 13):
        cases += [edge_structure(rng, k=k, m=m) for k in (255, 256)]
        cases += [edge_structure(rng, n=n, m=m) for n in (255, 256)]
    for s in cases:
        w = dmax_witness(s)
        assert (w.dmax, w.blocks, w.data) == dmax_witness_scan(s.K, s.N), (s.k, s.n, s.K, [len(Ng) for Ng in s.N])


def position_cap_structure(m):
    """m groups and MAX_POSITIONS positions: the low min(m, 8) groups hold one-group symbols, group g (from 0)
    with 8 - g spare positions; past 8 groups, one symbol per subset S of the high groups, the empty one in group 0.

    A one-group symbol adds nothing to n(T) - |I_T|, and S adds |S & T| - [S <= T], which some S makes positive
    for every T meeting the high groups. So the least value, 1, is at group 8 alone: the bound is 2.
    """
    low, high = min(m, 8), m - min(m, 8)
    K = [[] for _ in range(m)]
    for S in range(1 << high):
        for g in [low + b for b in range(high) if S >> b & 1] or [0]:
            K[g].append(S + 1)
    spare = [8 - g for g in range(low)] + [0] * high
    first = (1 << high) + 1
    for i in range(first, first + MAX_POSITIONS - sum(map(len, K)) - sum(spare)):
        K[i % low].append(i)
    return make_structure(K, blocks_for_sizes([len(Kg) + r for Kg, r in zip(K, spare)]))


@pytest.mark.parametrize("m", [8, 16, 20])
def test_dmax_witness_cost_is_linear_in_k_and_2_to_the_m(m):
    """Up to 100,000 data symbols at the CLI's position cap: time and memory grow with k plus 2^m, not k 2^low."""
    s = position_cap_structure(m)
    assert s.n == MAX_POSITIONS and s.k > 75_000
    start = time.perf_counter()
    w = dmax_witness(s)
    assert time.perf_counter() - start < 0.5
    assert (w.dmax, w.blocks, w.data) == (2, (8,), tuple(s.K[7]))
    tracemalloc.start()
    try:
        dmax_witness(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * s.k + (32 << m), peak


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
