import numpy as np
import pytest

from ledc.errors import NotPrime
from ledc.field import PrimeField, find_primitive, is_primitive, make_field

F7 = make_field(7)
F13 = make_field(13)


def test_make_field_accepts_primes():
    assert make_field(13).q == 13
    assert make_field(7).q == 7
    assert make_field(2).q == 2


@pytest.mark.parametrize("q", [0, 1, 4, 10, 100, 2**31])
def test_make_field_rejects_non_primes(q):
    with pytest.raises(NotPrime):
        make_field(q)


@pytest.mark.parametrize("q, kind", [(13.5, "float"), (13.0, "float"), ("13", "str"), (True, "bool"), (None, "NoneType")])
def test_make_field_rejects_a_q_that_is_not_an_integer(q, kind):
    """The integer rule of symbols and indices: nothing is rounded or parsed, and the type is named."""
    for build in (make_field, PrimeField):
        with pytest.raises(NotPrime, match=rf"^field order must be an integer, got {kind}$"):
            build(q)


def test_make_field_reads_a_numpy_integer_as_an_int():
    """A numpy q is kept as the int it holds, so pow and products on it cannot wrap or refuse a numpy scalar."""
    for q in (np.int64(13), np.uint8(251), np.int32(2**31 - 1)):
        f = make_field(q)
        assert type(f.q) is int and f == make_field(int(q))
    with pytest.raises(NotPrime):
        make_field(np.int64(15))


def test_find_primitive_golden_values():
    assert find_primitive(F13) == 2
    assert find_primitive(F7) == 3
    assert find_primitive(make_field(3)) == 2
    assert find_primitive(make_field(2)) == 1


def test_is_primitive_classifies_f13():
    # order-12 elements of GF(13)
    assert {w for w in range(13) if is_primitive(F13, w)} == {2, 6, 7, 11}


def test_primitive_generates_whole_group_small_primes():
    q = 2
    while q <= 10**4:
        q += 1
        while not all(q % d for d in range(2, int(q**0.5) + 1)):
            q += 1
        if q > 10**4:
            break
        f = make_field(q)
        w = find_primitive(f)
        # multiplicative order must be exactly q - 1
        x, order = w, 1
        while x != 1:
            x = x * w % q
            order += 1
        assert order == q - 1, f"q={q}: {w} has order {order}"


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_is_primitive_matches_the_multiplicative_order(q):
    """w is primitive exactly when its powers w, w^2, .. first reach 1 at w^(q-1); 0 never does."""
    f = make_field(q)
    for w in range(q):
        powers = [pow(w, e, q) for e in range(1, q)]
        assert is_primitive(f, w) == (w != 0 and powers.index(1) == q - 2), (q, w)


def prime_by_trial_division(n):
    """n >= 2 has no divisor d with 2 <= d <= sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


# Every Carmichael number below 10^6, and 25,326,001, the least strong pseudoprime to the bases 2, 3 and 5 at once.
PSEUDOPRIMES = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657, 52633, 62745, 63973, 75361, 101101,
    115921, 126217, 162401, 172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065,
    488881, 512461, 530881, 552721, 656601, 658801, 670033, 748657, 825265, 838201, 852841, 997633, 25326001,
)


def test_make_field_decides_primality_as_trial_division():
    """Miller-Rabin to the bases 2, 3, 5 and 7 agrees with trial division at every q <= 10^5, at the Carmichael
    numbers below 10^6 and a strong pseudoprime to the bases 2, 3 and 5, and at the last 300 integers below 2^31;
    a composite q is refused with its own message."""
    primes = set()
    for q in [*range(2, 10**5 + 1), *PSEUDOPRIMES, *range(2**31 - 300, 2**31)]:
        try:
            make_field(q)
            primes.add(q)
        except NotPrime as exc:
            assert str(exc) == f"{q} is not prime"
    assert sorted(q for q in primes if q <= 10**5) == [q for q in range(10**5 + 1) if prime_by_trial_division(q)]
    assert not primes.intersection(PSEUDOPRIMES) and all(pow(2, q - 1, q) == 1 for q in PSEUDOPRIMES)
    top = [q for q in range(2**31 - 300, 2**31) if prime_by_trial_division(q)]
    assert sorted(q for q in primes if q > 10**6) == top and len(top) == 13 and top[-1] == 2**31 - 1
