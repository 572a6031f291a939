"""The four ledc benchmark workloads.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned. Inputs are generated from the
seed during set-up and grouped into cycles; a cycle holds one operation
of every cost class the workload mixes, so a run that measures whole
cycles has the same mix whatever its length. A pool of cycles is built
once and reused in order.

A workload exposes `cycle(i)`, `execute(op)` (the timed call into ledc)
and `check(op, result)` (the correctness gate, untimed). `tail_pct` is the
percentile reported as tail latency, and `nominal_cycle_s` a cycle's
untraced time on a 2-core Intel Xeon, from which the traced run derives
its fixed cycle count, and `calibration_unit` the kind of work whose
speed the run samples to scale its times (see `run.Calibrator`). `execute` calls ledc through module attributes
such as `lib.code.encode`, never through references saved at set-up, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


class Workload:
    """Inputs grouped into a pool of cycles, reused in order."""

    cycles: list[list[Op]]
    calibration_unit = "python"

    def cycle(self, i: int) -> list[Op]:
        return self.cycles[i % len(self.cycles)]


class StepFailed(Exception):
    """A CLI step of the design pipeline exited non-zero."""


def _two_group_shapes(n: int, d: int, rmax: int, method: str) -> list[tuple[int, int, int, int, int]]:
    """(n1, k1, n2, k2, t) with n1 + n2 = n, 1 <= t < min(k1, k2), k >= 3,
    bound 1 + t + min(r1, r2) = d and max(r1, r2) = rmax (so k = n - d + 1
    - rmax), filtered by the method's preconditions."""
    out = []
    for n1 in range(1, n):
        n2 = n - n1
        for k1 in range(1, n1 + 1):
            for k2 in range(1, n2 + 1):
                r1, r2 = n1 - k1, n2 - k2
                for t in range(1, min(k1, k2)):
                    if k1 + k2 - t < 3 or 1 + t + min(r1, r2) != d or max(r1, r2) != rmax:
                        continue
                    if method == "nested" and t > max(r1, r2) + 1:
                        continue
                    if method == "cyclic" and r1 != r2:
                        continue
                    if method == "random" and min(r1, r2) < 1:
                        continue
                    out.append((n1, k1, n2, k2, t))
    return out


def _relabel(rng: random.Random, n1, k1, n2, k2, t):
    """K and N lists of a two-group shape under random data and position labels."""
    k, n = k1 + k2 - t, n1 + n2
    data = rng.sample(range(1, k + 1), k)
    pos = rng.sample(range(1, n + 1), n)
    K = [sorted(data[:k1]), sorted(data[k1 - t : k1 - t + k2])]
    N = [sorted(pos[:n1]), sorted(pos[n1:])]
    return K, N


# ---------- design: CLI bound -> construct -> verify ----------


class Design(Workload):
    """The CLI pipeline on seeded two-group structures.

    Every structure has bound d = 5 and larger redundancy 2, so k = n - 6;
    the seed picks the group split, the overlap and the labels. The cost
    is the rank certification in `verify` (q^k > 10^7, so verify takes the
    rank path) and, for `random`, the attempts of `construct`. Sizes keep
    every operation near 0.15 s: nested and cyclic at n = 13 over GF(257),
    random at n = 12 over GF(65537), on shapes where both groups have
    redundancy. Over GF(257) a random attempt fails often enough that the
    number of attempts, each failure adding a full rank distance check,
    would set a run's speed; over GF(65537) nearly every first attempt
    succeeds. One operation costs 2x per unit of n, so a wider ladder
    would leave the median of a run at the edge between two sizes.
    """

    name = "design"
    D = 5
    RMAX = 2
    SLOTS = ((13, "nested", 257), (13, "cyclic", 257), (12, "random", 65537))
    POOL = 64
    tail_pct = 90.0
    nominal_cycle_s = 0.5

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        rng = random.Random(f"design/{seed}")
        shapes = {(n, m): _two_group_shapes(n, self.D, self.RMAX, m) for n, m, _ in self.SLOTS}
        self.cycles = []
        for c in range(self.POOL):
            ops = []
            for n, method, q in self.SLOTS:
                shape = rng.choice(shapes[n, method])
                K, N = _relabel(rng, *shape)
                slot = f"c{c}_n{n}_{method}"
                path = workdir / f"{slot}.structure.json"
                groups = [{"K": Kg, "n": len(Ng), "N": Ng} for Kg, Ng in zip(K, N)]
                path.write_text(json.dumps({"q": q, "groups": groups}))
                extra = ["--seed", str(rng.randrange(1 << 31))] if method == "random" else []
                ops.append(Op(method, (str(path), str(workdir / f"{slot}.code.json"), extra)))
            self.cycles.append(ops)

    def _cli(self, argv: list[str]) -> dict[str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.lib.cli.run(argv)
        if status != 0:
            raise StepFailed(f"ledc {argv[0]} exited {status}: {err.getvalue().strip()}")
        return dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)

    def execute(self, op: Op) -> tuple[dict, dict, dict]:
        structure, code_path, extra = op.args
        bound = self._cli(["bound", structure])
        built = self._cli(["construct", structure, "--method", op.kind, "--out", code_path] + extra)
        verified = self._cli(["verify", code_path])
        return bound, built, verified

    def check(self, op: Op, result) -> bool:
        bound, built, verified = result
        d = int(bound["dmax"])
        return (
            d == self.D
            and int(built["claimed_distance"]) == d
            and int(verified["distance"]) == d
            and int(verified["claimed"]) == d
            and verified["optimal"] == "true"
        )


# ---------- sweep: construction + exhaustive distance ----------


class Sweep(Workload):
    """Constructions verified by exhaustive enumeration, q in 11..19.

    Shapes follow the admissible sets of acceptance criteria 5 (nested)
    and 6 (cyclic), widened to q in {11, 13, 17, 19}, with 10^6 <= q^k <=
    10^7 so enumeration dominates, and bound >= 2 (a distance-1 code stops
    the enumeration at its first message). Each method's shapes are split
    into five strata of predicted cost q^k * n; a cycle draws one shape
    per stratum and method.
    """

    name = "sweep"
    QS = (11, 13, 17, 19)
    STRATA = 5
    POOL = 40
    tail_pct = 90.0
    nominal_cycle_s = 1.0
    # numpy enumeration over tables of up to 14 MB follows the memory
    # system's speed, not the interpreter's.
    calibration_unit = "numpy"

    @classmethod
    def shapes(cls) -> dict[str, list[tuple[int, int, int, int, int, int]]]:
        nested, cyclic = [], []
        for q in cls.QS:
            for n1 in range(1, 12):
                for n2 in range(1, 13 - n1):
                    for k1 in range(1, n1 + 1):
                        for k2 in range(1, n2 + 1):
                            r1, r2 = n1 - k1, n2 - k2
                            for t in range(0, min(k1, k2)):
                                if t <= max(r1, r2) + 1 and q >= max(n1, n2):
                                    nested.append((q, n1, k1, n2, k2, t))
            for n1 in range(1, 14):
                for n2 in range(1, 15 - n1):
                    if n1 + n2 > q - 1:
                        continue
                    for k1 in range(1, n1 + 1):
                        k2 = n2 - (n1 - k1)
                        if 1 <= k2 <= n2:
                            for t in range(1, min(k1, k2) + 1):
                                if not t == k1 == k2:
                                    cyclic.append((q, n1, k1, n2, k2, t))

        def keep(shape):
            q, n1, k1, n2, k2, t = shape
            return 10**6 <= q ** (k1 + k2 - t) <= 10**7 and min(n1 - k1, n2 - k2) + t >= 1

        def cost(shape):
            q, n1, k1, n2, k2, t = shape
            return q ** (k1 + k2 - t) * (n1 + n2), shape

        return {
            "nested": sorted(filter(keep, nested), key=cost),
            "cyclic": sorted(filter(keep, cyclic), key=cost),
        }

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        rng = random.Random(f"sweep/{seed}")
        strata = {}
        for method, shapes in self.shapes().items():
            size = len(shapes) / self.STRATA
            strata[method] = [shapes[round(i * size) : round((i + 1) * size)] for i in range(self.STRATA)]
        self.cycles = []
        for _ in range(self.POOL):
            ops = []
            for level in range(self.STRATA):
                for method in ("nested", "cyclic"):
                    q, n1, k1, n2, k2, t = rng.choice(strata[method][level])
                    K, N = _relabel(rng, n1, k1, n2, k2, t)
                    s = lib.locality.make_structure(K, N)
                    d = min(n1 - k1, n2 - k2) + t + 1
                    ops.append(Op(method, (s, lib.field.make_field(q), d)))
            self.cycles.append(ops)

    def execute(self, op: Op):
        s, f, _ = op.args
        lib = self.lib
        if op.kind == "nested":
            code, conditions = lib.construct.construct_nested(s, f), None
        else:
            code, ingredients = lib.construct.construct_cyclic(s, f)
            conditions = lib.construct.verify_cyclic_conditions(ingredients, s, f)
        return lib.code.verify_ledc(code, "exhaustive"), conditions

    def check(self, op: Op, result) -> bool:
        report, conditions = result
        d = op.args[2]
        ok = report.all_ok and report.distance == report.dmax == d
        return ok and (op.kind == "nested" or conditions.all_ok)


# ---------- storage: encode, degraded read, local repair ----------


class Storage(Workload):
    """Writes, degraded reads and local repairs on three fixed codes.

    A cycle holds, for every code, 10 writes, 7 reads and 3 repairs
    (50% / 35% / 15%) in seeded order. A write encodes fresh data into a
    stripe; a read erases 1..d-1 random positions of a stored stripe and
    decodes; a repair decodes one group's data from k_i random survivors
    of its block. Reads and repairs are checked against the data last
    written to that stripe.
    """

    name = "storage"
    STRIPES = 16
    MIX = (("write", 10), ("read", 7), ("repair", 3))
    POOL = 128
    # p99.9 would keep 10 samples beyond it, but the host's hiccups land in
    # the top 0.1% of about 100,000 operations and move it by half from run to run.
    tail_pct = 99.0
    nominal_cycle_s = 0.017

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        rng = random.Random(f"storage/{seed}")
        f13, f257 = lib.field.make_field(13), lib.field.make_field(257)

        def two_group(n1, k1, n2, k2, t):
            K = [list(range(1, k1 + 1)), list(range(k1 - t + 1, k1 - t + k2 + 1))]
            return lib.locality.make_structure(K, lib.locality.blocks_for_sizes([n1, n2]))

        fixture, _ = lib.construct.construct_cyclic(two_group(5, 4, 7, 6, 3), f13)
        cyclic20, _ = lib.construct.construct_cyclic(two_group(10, 7, 10, 7, 3), f257)
        nested36 = lib.construct.construct_nested(two_group(18, 11, 18, 11, 2), f257)
        self.codes = (fixture, cyclic20, nested36)
        self.store = {}
        for ci, code in enumerate(self.codes):
            for stripe in range(self.STRIPES):
                x = [rng.randrange(code.field.q) for _ in range(code.structure.k)]
                self.store[ci, stripe] = (x, lib.code.encode(code, x))
        self.cycles = [self._make_cycle(rng) for _ in range(self.POOL)]

    def _make_cycle(self, rng: random.Random) -> list[Op]:
        ops = []
        for ci, code in enumerate(self.codes):
            s, q = code.structure, code.field.q
            d = code.meta["claimed_distance"]
            for kind, count in self.MIX:
                for _ in range(count):
                    stripe = rng.randrange(self.STRIPES)
                    if kind == "write":
                        payload = tuple(rng.randrange(q) for _ in range(s.k))
                    elif kind == "read":
                        payload = frozenset(rng.sample(range(s.n), rng.randint(1, d - 1)))
                    else:
                        g = rng.randint(1, s.m)
                        payload = (g, tuple(rng.sample(s.N[g - 1], len(s.K[g - 1]))))
                    ops.append(Op(kind, (ci, stripe, payload)))
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op):
        ci, stripe, payload = op.args
        code = self.codes[ci]
        if op.kind == "write":
            word = self.lib.code.encode(code, payload)
            self.store[ci, stripe] = (list(payload), word)
            return word
        word = self.store[ci, stripe][1]
        if op.kind == "read":
            received = [None if j in payload else v for j, v in enumerate(word)]
            return self.lib.code.erasure_decode(code, received)
        g, survivors = payload
        return self.lib.code.local_decode(code, g, [(p, word[p - 1]) for p in survivors])

    def check(self, op: Op, result) -> bool:
        ci, stripe, payload = op.args
        code = self.codes[ci]
        x = self.store[ci, stripe][0]
        if op.kind == "write":
            return len(result) == code.structure.n and all(0 <= v < code.field.q for v in result)
        if op.kind == "read":
            return result == x
        g = payload[0]
        return result == {i: x[i - 1] for i in code.structure.K[g - 1]}


# ---------- bound: dmax_witness over many groups ----------


class Bound(Workload):
    """`dmax_witness` on random overlapping structures with m = 12..16 groups.

    k = 2m data symbols; each group takes 2..5 of them (every symbol is
    covered) and owns |K_g| + 0..2 positions. The 2^m - 1 group subsets
    scanned set the cost, so each m is one cost class of a cycle.
    """

    name = "bound"
    MS = tuple(range(12, 17))
    POOL = 64
    tail_pct = 90.0
    nominal_cycle_s = 0.8

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        rng = random.Random(f"bound/{seed}")
        self.cycles = []
        for _ in range(self.POOL):
            ops = []
            for m in self.MS:
                k = 2 * m
                K = [set(rng.sample(range(1, k + 1), rng.randint(2, 5))) for _ in range(m)]
                for i in set(range(1, k + 1)).difference(*K):
                    K[rng.randrange(m)].add(i)
                sizes = [len(Kg) + rng.randint(0, 2) for Kg in K]
                N = lib.locality.blocks_for_sizes(sizes)
                ops.append(Op(f"m{m}", (lib.locality.make_structure(K, N),)))
            self.cycles.append(ops)

    def execute(self, op: Op):
        return self.lib.locality.dmax_witness(op.args[0])

    def check(self, op: Op, witness) -> bool:
        """The value recomputes from the witness, independently of ledc."""
        s = op.args[0]
        blocks = set(witness.blocks)
        data = {
            i
            for i in range(1, s.k + 1)
            if all(g + 1 in blocks for g, Kg in enumerate(s.K) if i in Kg)
        }
        value = 1 + sum(len(s.N[g - 1]) for g in blocks) - len(data)
        return bool(data) and set(witness.data) == data and witness.dmax == value


WORKLOADS = {w.name: w for w in (Design, Sweep, Storage, Bound)}
