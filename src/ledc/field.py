"""Prime-field arithmetic.

Field elements are plain Python ints kept as canonical residues in
[0, q-1]; a PrimeField instance carries the modulus. Sums, products
and powers are plain int operations reduced mod q (powers by the
builtin three-argument pow), so equality of elements is plain integer
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotPrime

# An element of GF(q), always a canonical residue in [0, q-1].
Felt = int

MAX_Q = 2**31 - 1


def non_integers(values: Sequence) -> list:
    """The values, in order, that are neither ints nor numpy integers (nor bools); all ints cost one pass."""
    if set(map(type, values)) <= {int}:
        return []
    return [v for v in values if isinstance(v, bool) or not isinstance(v, (int, np.integer))]


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic context for GF(q); a composite or non-integer q raises NotPrime, a numpy integer q becomes an int."""

    q: int

    def __post_init__(self) -> None:
        if non_integers([self.q]):
            raise NotPrime(f"field order must be an integer, got {type(self.q).__name__}")
        object.__setattr__(self, "q", int(self.q))  # numpy scalar arithmetic would wrap
        if not (2 <= self.q <= MAX_Q):
            raise NotPrime(f"field order must be in [2, 2^31-1], got {self.q}")
        if not _is_prime(self.q):
            raise NotPrime(f"{self.q} is not prime")


make_field = PrimeField


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < 3,215,031,751 (past MAX_Q): the least strong pseudoprime to the
    bases 2, 3, 5 and 7 all at once is 3,215,031,751."""
    if n in (2, 3, 5, 7):
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> s, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_primitive(f: PrimeField, w: Felt) -> bool:
    """True iff w has multiplicative order exactly q - 1."""
    w %= f.q  # 0 is no unit; at q = 2 the group order 1 has no prime factor, so only 1 passes
    return w != 0 and all(pow(w, (f.q - 1) // p, f.q) != 1 for p in _prime_factors(f.q - 1))


def find_primitive(f: PrimeField) -> Felt:
    """Smallest generator of the multiplicative group of GF(q).

    The smallest candidate is chosen so that constructed matrices are
    reproducible across runs and implementations.
    """
    return next(g for g in range(1, f.q) if is_primitive(f, g))
