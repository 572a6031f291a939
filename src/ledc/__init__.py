"""Erasure codes with locally encodable and decodable groups.

Data symbols are split into overlapping groups, each group is encoded
on its own storage nodes by an MDS code, and the group codes are glued
so the global code reaches the best minimum distance the locality
structure allows. This package computes that bound, constructs
generator matrices meeting it, and verifies codes independently.

The package exports the entry points of the README; every other name
lives in its submodule (`ledc.field`, `ledc.linalg`, `ledc.poly`,
`ledc.locality`, `ledc.code`, `ledc.construct`, `ledc.errors`,
`ledc.cli`).
"""

from .code import encode, erasure_decode, verify_ledc
from .construct import construct_cyclic, construct_nested, construct_random
from .errors import LedcError
from .field import make_field
from .locality import dmax, dmax_witness, make_structure

__version__ = "0.1.0"

__all__ = [
    "make_field",
    "make_structure",
    "dmax",
    "dmax_witness",
    "construct_nested",
    "construct_cyclic",
    "construct_random",
    "verify_ledc",
    "encode",
    "erasure_decode",
    "LedcError",
    "__version__",
]
