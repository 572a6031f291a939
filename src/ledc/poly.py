"""Polynomials over a prime field.

Coefficients are stored in ascending degree order with no trailing
zeros; the zero polynomial is the empty tuple. Row polynomials of the
cyclic construction all have degree at most n-1 <= q-2, so plain
GF(q)[x] arithmetic suffices and no quotient-ring reduction is ever
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import PreconditionViolated
from .field import Felt, PrimeField


@dataclass(frozen=True)
class PolyGF:
    """Dense polynomial over GF(q); coeffs[i] is the coefficient of x^i."""

    field: PrimeField
    coeffs: tuple[Felt, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise PreconditionViolated("unnormalized coefficients: trailing zero")

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant(self) -> Felt:
        return self.coeffs[0] if self.coeffs else 0


def make_poly(f: PrimeField, coeffs: Sequence[int]) -> PolyGF:
    """Build a polynomial from ascending coefficients, trimming zeros."""
    reduced = [c % f.q for c in coeffs]
    while reduced and reduced[-1] == 0:
        reduced.pop()
    return PolyGF(f, tuple(reduced))


def poly_mul(p: PolyGF, r: PolyGF) -> PolyGF:
    """Schoolbook convolution."""
    f = p.field
    if p.is_zero() or r.is_zero():
        return PolyGF(f, ())
    out = [0] * (len(p.coeffs) + len(r.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(r.coeffs):
            out[i + j] += a * b
    return make_poly(f, out)


def poly_eval(p: PolyGF, z: Felt) -> Felt:
    """Horner evaluation."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * z + c) % p.field.q
    return acc


def linear_factor_product(f: PrimeField, roots: Sequence[Felt]) -> PolyGF:
    """The monic polynomial prod (x - root) of degree len(roots)."""
    out = make_poly(f, [1])
    for root in roots:
        out = poly_mul(out, make_poly(f, [-root, 1]))
    return out

