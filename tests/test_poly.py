import random

import pytest

from ledc.errors import PreconditionViolated
from ledc.field import make_field
from ledc.poly import PolyGF, linear_factor_product, make_poly, poly_eval, poly_mul

F2 = make_field(2)
F7 = make_field(7)
F13 = make_field(13)


def random_poly(f, max_deg, rng, nonzero=False):
    while True:
        p = make_poly(f, [rng.randrange(f.q) for _ in range(rng.randint(0, max_deg + 1))])
        if not nonzero or not p.is_zero():
            return p


def test_make_poly_normalizes():
    p = make_poly(F7, [3, 0, 14, 0, 0])
    assert p.coeffs == (3,)
    assert make_poly(F7, [0, 0]).is_zero()
    assert make_poly(F7, []).coeffs == ()
    assert make_poly(F7, [5]).constant() == 5
    assert make_poly(F7, []).constant() == 0


def test_unnormalized_coefficients_rejected():
    with pytest.raises(PreconditionViolated):
        PolyGF(F7, (3, 0))


def test_mul_binary_square():
    one_plus_x = make_poly(F2, [1, 1])
    assert poly_mul(one_plus_x, one_plus_x).coeffs == (1, 0, 1)


def test_mul_degree_adds():
    rng = random.Random(3401)
    for _ in range(40):
        p = random_poly(F13, 5, rng, nonzero=True)
        r = random_poly(F13, 5, rng, nonzero=True)
        assert len(poly_mul(p, r).coeffs) == len(p.coeffs) + len(r.coeffs) - 1
    assert poly_mul(make_poly(F13, []), p).is_zero()


def test_eval_is_multiplicative():
    rng = random.Random(3402)
    for _ in range(40):
        p = random_poly(F13, 5, rng)
        r = random_poly(F13, 5, rng)
        z = rng.randrange(13)
        assert poly_eval(poly_mul(p, r), z) == poly_eval(p, z) * poly_eval(r, z) % 13


def test_u_vanishes_at_first_four_powers():
    u = linear_factor_product(F13, [pow(2, j, 13) for j in range(4)])
    for j in range(4):
        assert poly_eval(u, pow(2, j, 13)) == 0
    assert poly_eval(u, pow(2, 4, 13)) != 0


def test_linear_factor_product_golden():
    u = linear_factor_product(F13, [1, 2, 4, 8])
    assert u.coeffs == (12, 10, 5, 11, 1)


def test_linear_factor_product_empty_is_one():
    assert linear_factor_product(F7, []).coeffs == (1,)


def test_linear_factor_product_two_roots():
    p = linear_factor_product(F7, [1, 3])
    assert p.coeffs == (3, 3, 1)
    assert poly_eval(p, 1) == 0
    assert poly_eval(p, 3) == 0


def test_linear_factor_product_root_set_exact():
    rng = random.Random(3404)
    for q in (7, 13, 101):
        f = make_field(q)
        roots = set(rng.sample(range(q), rng.randint(1, min(6, q - 1))))
        p = linear_factor_product(f, sorted(roots))
        zero_set = {z for z in range(q) if poly_eval(p, z) == 0}
        assert zero_set == roots
