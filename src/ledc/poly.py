"""Polynomials over a prime field, as coefficient tuples.

A polynomial is a tuple of ints in ascending degree: p[i] is the
coefficient of x^i. Products are exact Python ints, reduced mod q once.
Over a field the product of polynomials with nonzero leading
coefficients keeps a nonzero leading coefficient, so nothing is trimmed.
The cyclic construction's rows have degree at most n-1 <= q-2, so plain
GF(q)[x] arithmetic suffices, with no quotient-ring reduction.
"""

from __future__ import annotations

from typing import Sequence

from .field import Felt, PrimeField


def poly_mul(f: PrimeField, p: Sequence[int], r: Sequence[int]) -> tuple[int, ...]:
    """Schoolbook convolution: len(p) + len(r) - 1 coefficients, reduced mod q."""
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(r):
            out[i + j] += a * b
    return tuple(c % f.q for c in out)


def poly_eval(f: PrimeField, p: Sequence[int], z: Felt) -> Felt:
    """Horner evaluation."""
    acc = 0
    for c in reversed(p):
        acc = (acc * z + c) % f.q
    return acc


def linear_factor_product(f: PrimeField, roots: Sequence[Felt]) -> tuple[int, ...]:
    """The monic polynomial prod (x - root) of degree len(roots)."""
    out: tuple[int, ...] = (1,)
    for root in roots:
        out = poly_mul(f, out, (-root % f.q, 1))
    return out
