import pytest

from ledc.errors import NotPrime
from ledc.field import find_primitive, is_primitive, make_field

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
