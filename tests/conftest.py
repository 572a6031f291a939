import json
import random
from pathlib import Path

import pytest

from ledc.cli import code_from_dict, structure_from_dict
from ledc.linalg import MatrixGF
from ledc.locality import blocks_for_sizes, make_structure

FIXTURES = Path(__file__).parent / "fixtures"


def random_structure(rng, max_k=12, max_m=4, max_extra=3):
    """Random valid structure: every data index covered, n_i >= k_i."""
    k = rng.randint(1, max_k)
    m = rng.randint(1, max_m)
    while True:
        K = [sorted(rng.sample(range(1, k + 1), rng.randint(1, k))) for _ in range(m)]
        if set().union(*K) == set(range(1, k + 1)):
            break
    sizes = [len(Kg) + rng.randint(0, max_extra) for Kg in K]
    return make_structure(K, blocks_for_sizes(sizes))


def cap_structure():
    """Seeded structure at the group cap: 20 groups, k = 40, each symbol in two groups."""
    rng = random.Random(2049)
    while True:
        K = [set() for _ in range(20)]
        for i in range(1, 41):
            for g in rng.sample(range(20), 2):
                K[g].add(i)
        if all(K):
            break
    sizes = [len(Kg) + rng.randint(0, 2) for Kg in K]
    return make_structure(K, blocks_for_sizes(sizes))


def vandermonde(f, points, k):
    """The k x len(points) matrix over f with entry (i, j) = points[j]^i."""
    return MatrixGF(f, [[pow(p, i, f.q) for p in points] for i in range(k)])


class LoggedReads:
    """Stands for one of a decode plan's per-column tuples and logs each read as (name, column)."""

    def __init__(self, name, items, log):
        self.name, self.items, self.log = name, items, log

    def __getitem__(self, j):
        self.log.append((self.name, j))
        return self.items[j]


def log_plan_reads(m):
    """Build m's decode plan with its columns and supports logging each read into the list returned."""
    log = []
    at, columns, support, RT = m.decode_plan
    vars(m)["decode_plan"] = (at, LoggedReads("column", columns, log), LoggedReads("support", support, log), RT)
    return log


def load_json(name):
    with open(FIXTURES / name, encoding="utf-8") as fh:
        return json.load(fh)


def load_structure(name):
    return structure_from_dict(load_json(name))


def load_code(name):
    return code_from_dict(load_json(name))


@pytest.fixture(scope="session")
def unequal_r():
    return load_structure("unequal_r_structure.json")


@pytest.fixture(scope="session")
def equal_r():
    return load_structure("equal_r_structure.json")


@pytest.fixture(scope="session")
def suboptimal_codefile():
    return load_code("suboptimal_code.json")


@pytest.fixture(scope="session")
def cyclic_descending():
    return load_code("cyclic_code_descending.json")


@pytest.fixture(scope="session")
def cyclic_codefile():
    return load_code("cyclic_code.json")
