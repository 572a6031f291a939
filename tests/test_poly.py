import random

from ledc.field import MAX_Q, make_field
from ledc.poly import linear_factor_product, poly_eval, poly_mul

F2 = make_field(2)
F7 = make_field(7)
F13 = make_field(13)


def random_poly(f, max_deg, rng, nonzero_leading=False):
    """Random ascending coefficients, possibly none; with nonzero_leading, the last one is nonzero."""
    coeffs = [rng.randrange(f.q) for _ in range(rng.randint(0, max_deg + 1))]
    if nonzero_leading:
        coeffs[-1:] = [rng.randrange(1, f.q)]
    return tuple(coeffs)


def test_mul_binary_square():
    assert poly_mul(F2, (1, 1), (1, 1)) == (1, 0, 1)


def test_mul_degree_adds():
    rng = random.Random(3401)
    for _ in range(40):
        p = random_poly(F13, 5, rng, nonzero_leading=True)
        r = random_poly(F13, 5, rng, nonzero_leading=True)
        product = poly_mul(F13, p, r)
        assert len(product) == len(p) + len(r) - 1
        assert product[-1] != 0
    assert not any(poly_mul(F13, (), p))


def test_mul_exact_at_the_largest_field():
    """(-1 - x)^2 = 1 + 2x + x^2 with coefficients near 2^31: the products are exact ints."""
    f = make_field(MAX_Q)
    assert poly_mul(f, (MAX_Q - 1, MAX_Q - 1), (MAX_Q - 1, MAX_Q - 1)) == (1, 2, 1)


def test_eval_is_multiplicative():
    rng = random.Random(3402)
    for _ in range(40):
        p = random_poly(F13, 5, rng)
        r = random_poly(F13, 5, rng)
        z = rng.randrange(13)
        assert poly_eval(F13, poly_mul(F13, p, r), z) == poly_eval(F13, p, z) * poly_eval(F13, r, z) % 13


def test_u_vanishes_at_first_four_powers():
    u = linear_factor_product(F13, [pow(2, j, 13) for j in range(4)])
    for j in range(4):
        assert poly_eval(F13, u, pow(2, j, 13)) == 0
    assert poly_eval(F13, u, pow(2, 4, 13)) != 0


def test_linear_factor_product_golden():
    assert linear_factor_product(F13, [1, 2, 4, 8]) == (12, 10, 5, 11, 1)


def test_linear_factor_product_empty_is_one():
    assert linear_factor_product(F7, []) == (1,)


def test_linear_factor_product_two_roots():
    p = linear_factor_product(F7, [1, 3])
    assert p == (3, 3, 1)
    assert poly_eval(F7, p, 1) == 0
    assert poly_eval(F7, p, 3) == 0


def test_linear_factor_product_root_set_exact():
    rng = random.Random(3404)
    for q in (7, 13, 101):
        f = make_field(q)
        roots = set(rng.sample(range(q), rng.randint(1, min(6, q - 1))))
        p = linear_factor_product(f, sorted(roots))
        zero_set = {z for z in range(q) if poly_eval(f, p, z) == 0}
        assert zero_set == roots
