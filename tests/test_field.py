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
