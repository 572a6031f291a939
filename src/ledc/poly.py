"""Polynomials over a prime field.

Coefficients are stored in ascending degree order with no trailing
zeros; the zero polynomial is the empty tuple and its degree is the
float -inf sentinel. Row polynomials of the cyclic construction all
have degree at most n-1 <= q-2, so plain GF(q)[x] arithmetic suffices
and no quotient-ring reduction is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import PreconditionViolated, ShiftOverflow
from .field import Felt, PrimeField

NEG_INF = float("-inf")


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

    def degree(self) -> Union[int, float]:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def constant(self) -> Felt:
        return self.coeffs[0] if self.coeffs else 0


def make_poly(f: PrimeField, coeffs: Sequence[int]) -> PolyGF:
    """Build a polynomial from ascending coefficients, trimming zeros."""
    reduced = [c % f.q for c in coeffs]
    while reduced and reduced[-1] == 0:
        reduced.pop()
    return PolyGF(f, tuple(reduced))


def poly_add(p: PolyGF, r: PolyGF) -> PolyGF:
    f = p.field
    n = max(len(p.coeffs), len(r.coeffs))
    out = [0] * n
    for i, c in enumerate(p.coeffs):
        out[i] = c
    for i, c in enumerate(r.coeffs):
        out[i] = (out[i] + c) % f.q
    return make_poly(f, out)


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


def poly_shift(p: PolyGF, shift: int) -> PolyGF:
    """Multiply by x^shift."""
    if p.is_zero():
        return p
    return PolyGF(p.field, (0,) * shift + p.coeffs)


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


def coeffs_to_row(p: PolyGF, shift: int, width: int) -> list[Felt]:
    """Embed x^shift * p as a length-`width` coefficient vector."""
    if shift < 0:
        raise ShiftOverflow(f"negative shift {shift}")
    if not p.is_zero() and shift + len(p.coeffs) > width:
        raise ShiftOverflow(
            f"degree {p.degree()} polynomial at shift {shift} "
            f"does not fit in width {width}"
        )
    row = [0] * width
    for d, c in enumerate(p.coeffs):
        row[shift + d] = c
    return row

