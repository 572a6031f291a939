#!/usr/bin/env python3
"""Benchmark of the ledc package, driven from outside through its public API.

    python3 perfbench/run.py --workload design --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ledc is imported from `src/`.
Workloads: design, sweep, storage, bound (see perfbench/DESIGN.md).

With `--trace 0` the run measures whole cycles of operations for about
`--seconds` seconds and reports the end-to-end metrics. With `--trace 1`
it runs a fixed number of cycles (set by `--seconds`), each once without
and once with the span tracer, and reports the per-layer metrics. Every
operation is checked; any exception or wrong result counts as failed.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Spans
of a traced run are written to `.bench_out/trace-<workload>.npz`.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: one client, no helper threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
# The self times of a traced op's spans must sum to the op's traced wall
# time (its root span) to within this, which allows only float rounding,
# and no span may be left open.
ACCOUNTING_TOL_REL = 1e-6
ACCOUNTING_TOL_ABS = 1e-9

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "linalg.rank.calls": "count",
    "linalg.rank.self_s": "s",
    "linalg.rank.us_per_call": "us",
    "code.distance_rank.self_s": "s",
    "code.distance_rank.useful_ratio": "ratio",
    "code.local_mds.self_s": "s",
    "code.local_mds.minors": "count",
    "code.exhaustive.self_s": "s",
    "code.exhaustive.messages": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.submatrix.self_s": "s",
    "linalg.row_vec_mul.self_s": "s",
    "code.encode.self_s": "s",
    "code.decode.self_s": "s",
    "locality.dmax_witness.self_s": "s",
    "locality.subsets": "count",
    "construct.self_s": "s",
    "construct.calls": "count",
    "construct.random_accept_ratio": "ratio",
    "poly.self_s": "s",
    "poly.calls": "count",
    "field.inv.calls": "count",
    "field.self_s": "s",
    "cli.self_s": "s",
    "code.self_s": "s",
    "linalg.self_s": "s",
    "locality.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounting_err": "ratio",
    "write_p50_us": "us",
    "read_p50_us": "us",
    "repair_p50_us": "us",
}

STORAGE_KINDS = {"write": "write_p50_us", "read": "read_p50_us", "repair": "repair_p50_us"}


def load_ledc():
    """Import ledc afresh from the checkout; returns its layer modules."""
    for name in [m for m in sys.modules if m == "ledc" or m.startswith("ledc.")]:
        del sys.modules[name]
    package = importlib.import_module("ledc")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ledc imported from {package.__file__}, not from {SRC}")
    from tracer import LAYERS

    layers = {layer: importlib.import_module(f"ledc.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **layers)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "ledc").glob("*.py")):
        digest.update(path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def percentile(sorted_values: list, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class OpRunner:
    """Runs one operation and its check, recording any failure."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        # (root span duration, summed self times, spans left open) of the last traced op
        self.span = (0.0, 0.0, 0)

    def run(self, op, tracer=None, op_id: int = 0) -> float:
        """Execute and check `op`; returns the wall time of the execution."""
        self.attempted += 1
        ok = False
        t0 = perf_counter()
        if tracer is not None:
            tracer.begin_op(op_id)
        try:
            result = self.workload.execute(op)
        except Exception as exc:  # a failed operation is recorded, never raised
            result, error = None, exc
        else:
            error = None
        finally:
            if tracer is not None:
                self.span = tracer.end_op()
            t1 = perf_counter()
        if error is None:
            try:
                ok = bool(self.workload.check(op, result))
                if not ok:
                    error = "wrong result"
            except Exception as exc:
                error = exc
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.kind}: {error!r}")
        return t1 - t0


class Calibrator:
    """Samples the machine's speed with a fixed unit of work that never calls ledc.

    On a shared host the CPU speed drifts by tens of percent over seconds
    to minutes: the same `dmax_witness` call has taken 37 ms in one run
    and 51 ms in the next, with the calibration unit slowing alike. The
    unit is timed between operations at most every `INTERVAL_S`. A time
    measured at t is scaled by the unit's REF_S over the median unit time
    within `WINDOW_S` of t, so it reads as at the reference speed and drift
    common to both cancels; the median ignores a unit that was preempted.

    The unit follows the work it calibrates. "python" is pure-Python
    integer arithmetic, the work of set-up and of every workload but
    sweep. "numpy" compares a 3 MB int16 table with one of its rows and
    counts the matches per row, the kernel of `min_distance_exhaustive`;
    a table that fits in a core's cache does not slow as sweep's tables
    (up to 14 MB) do. REF_S is a unit's typical time on a 2-core Intel
    Xeon with Python 3.11.7 and numpy 2.4.6.
    """

    INTERVAL_S = 0.1
    WINDOW_S = 1.0
    REF_S = {"python": 0.7e-3, "numpy": 5.0e-3}

    def __init__(self, unit: str = "python"):
        self.ref_s = self.REF_S[unit]
        self._unit = getattr(self, f"_{unit}_unit")
        if unit == "numpy":
            import numpy

            cells = numpy.arange(12 << 17, dtype=numpy.int64) * 7919 % 13
            self._table = cells.astype(numpy.int16).reshape(-1, 12)
        self.at: list[float] = []
        self.samples: list[float] = []

    @staticmethod
    def _python_unit() -> None:
        acc = 0
        for r in range(100):
            for x in range(64):
                acc = (acc * 31 + x * r) % 1000003

    def _numpy_unit(self) -> None:
        import numpy

        numpy.count_nonzero(self._table == self._table[1], axis=1).max()

    def sample(self) -> float:
        """Time one unit; returns the seconds spent."""
        t0 = perf_counter()
        self._unit()
        t1 = perf_counter()
        self.at.append(t1)
        self.samples.append(t1 - t0)
        return t1 - t0

    def maybe_sample(self) -> float:
        if self.at and perf_counter() - self.at[-1] < self.INTERVAL_S:
            return 0.0
        return self.sample()

    def factor(self, t: Optional[float] = None) -> float:
        """Reference speed over the speed measured around t (default: whole run)."""
        if t is None:
            return self.ref_s / statistics.median(self.samples)
        lo = bisect.bisect_left(self.at, t - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, t + self.WINDOW_S)
        if lo == hi:
            hi = min(max(lo, 1), len(self.at))
            lo = hi - 1
        return self.ref_s / statistics.median(self.samples[lo:hi])


def measure(workload, seconds: float, calibrator: Calibrator) -> dict:
    """Whole cycles, untraced, until about `seconds` have passed.

    Returns the raw and the calibrated end-to-end timings and the run's
    bookkeeping.
    """
    import numpy as np

    runner = OpRunner(workload)
    # 17 bytes an operation in typed arrays (latency, end time, kind), so
    # the harness's own memory barely grows with the operations completed.
    latencies, ended, kinds = array("d"), array("d"), array("B")
    kind_ids: dict[str, int] = {}
    calibrating = 0.0
    start = perf_counter()
    i = 0
    while True:
        for op in workload.cycle(i):
            dt = runner.run(op)
            latencies.append(dt)
            ended.append(perf_counter())
            kinds.append(kind_ids.setdefault(op.kind, len(kind_ids)))
            calibrating += calibrator.maybe_sample()
        i += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / i >= seconds:
            break
    wall = perf_counter() - start - calibrating
    good = runner.attempted - runner.failed
    lat = np.frombuffer(latencies)
    kind_of = np.frombuffer(kinds, dtype=np.uint8)
    by_kind = {k: float(np.median(lat[kind_of == j])) for k, j in kind_ids.items()}
    raw = np.sort(lat)
    raw_p50, raw_tail = float(np.median(raw)), float(percentile(raw, workload.tail_pct)[0])
    del raw
    busy = float(lat.sum())
    for j, t in enumerate(ended):
        latencies[j] *= calibrator.factor(t)
    # Each operation at the speed around it; the time between operations
    # (checks, bookkeeping) at the run's median speed.
    scaled_wall = float(lat.sum()) + (wall - busy) * calibrator.factor()
    lat.sort()  # in place: the calibrated latencies, no longer in run order
    tail, beyond = percentile(lat, workload.tail_pct)
    return {
        "runner": runner,
        "wall": wall,
        "cycles": i,
        "raw": {
            "ops_per_s": good / wall,
            "latency_p50_ms": raw_p50 * 1e3,
            "latency_tail_ms": raw_tail * 1e3,
        },
        "calibrated": {
            "ops_per_s": good / scaled_wall,
            "latency_p50_ms": float(np.median(lat)) * 1e3,
            "latency_tail_ms": float(tail) * 1e3,
        },
        "tail_beyond": beyond,
        "samples": len(latencies),
        "by_kind": by_kind,
    }


def trace_run(workload, lib, seconds: float, tracer=None):
    """Each of a fixed number of cycles once untraced, then once traced."""
    if tracer is None:
        from tracer import Tracer

        tracer = Tracer(lib.package)
    runner = OpRunner(workload)
    cycles = max(1, int(seconds / (2.2 * workload.nominal_cycle_s)))
    untraced = traced = worst = 0.0
    by_kind: dict[str, list] = {}
    op_id = 0
    for c in range(cycles):
        ops = workload.cycle(c)
        for op in ops:
            dt = runner.run(op)
            untraced += dt
            by_kind.setdefault(op.kind, []).append(dt)
        with tracer:
            for op in ops:
                traced += runner.run(op, tracer, op_id)
                op_id += 1
                wall, summed, still_open = runner.span
                worst = max(worst, abs(summed - wall) / wall)
                if still_open or abs(summed - wall) > ACCOUNTING_TOL_REL * wall + ACCOUNTING_TOL_ABS:
                    runner.failed += 1
                    if len(runner.reasons) < 5:
                        runner.reasons.append(f"span self times {summed:.6f}s != op wall {wall:.6f}s"
                                              f" or {still_open} spans left open")
    return tracer, runner, {
        "untraced": untraced,
        "traced": traced,
        "accounting_err": worst,
        "by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
    }


def layer_metrics(tracer, info: dict) -> dict:
    t = tracer
    rank_calls = t.calls_of("linalg.rank")
    rank_self = t.self_of("linalg.rank")
    c = t.counters
    m = {
        "linalg.rank.calls": rank_calls,
        "linalg.rank.self_s": rank_self,
        "linalg.rank.us_per_call": rank_self / rank_calls * 1e6 if rank_calls else 0.0,
        "code.distance_rank.self_s": t.self_of("code.min_distance_rank") + t.self_of("code.distance_at_least"),
        "code.distance_rank.useful_ratio": (
            c["distance_rank.useful"] / c["distance_rank.rank_calls"] if c["distance_rank.rank_calls"] else 0.0
        ),
        "code.local_mds.self_s": t.self_of("code.verify_local_mds"),
        "code.local_mds.minors": c["local_mds.minors"],
        "code.exhaustive.self_s": t.self_of("code.min_distance_exhaustive"),
        "code.exhaustive.messages": c["exhaustive.messages"],
        "linalg.solve.calls": t.calls_of("linalg.solve"),
        "linalg.solve.self_s": t.self_of("linalg.solve"),
        "linalg.submatrix.self_s": t.self_of("linalg.submatrix"),
        "linalg.row_vec_mul.self_s": t.self_of("linalg.row_vec_mul"),
        "code.encode.self_s": t.self_of("code.encode"),
        "code.decode.self_s": t.self_of("code.erasure_decode") + t.self_of("code.local_decode"),
        "locality.dmax_witness.self_s": t.self_of("locality.dmax_witness"),
        "locality.subsets": c["locality.subsets"],
        "construct.self_s": t.layer_self("construct"),
        "construct.calls": t.layer_calls("construct"),
        "construct.random_accept_ratio": (
            c["random.accepted"] / c["random.attempts"] if c["random.attempts"] else 0.0
        ),
        "poly.self_s": t.layer_self("poly"),
        "poly.calls": t.layer_calls("poly"),
        "field.inv.calls": t.calls_of("field.inv"),
        "field.self_s": t.layer_self("field"),
        "cli.self_s": t.layer_self("cli"),
        "code.self_s": t.layer_self("code"),
        "linalg.self_s": t.layer_self("linalg"),
        "locality.self_s": t.layer_self("locality"),
        "bench.self_s": t.self_of("bench.op"),
        "trace.overhead_ratio": info["traced"] / info["untraced"],
        "trace.accounting_err": info["accounting_err"],
    }
    for kind, name in STORAGE_KINDS.items():
        m[name] = info["by_kind"][kind] * 1e6 if kind in info["by_kind"] else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ledc" / "__init__.py").is_file():
        print(f"error: no ledc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    import numpy  # noqa: F401  (a dependency of ledc, loaded before set-up is timed)

    env = environment()
    print("env " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        setup_calibrator = Calibrator()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            lib = load_ledc()
            workload = WORKLOADS[args.workload](lib, args.seed, Path(workdir))
            t1 = perf_counter()
            setup_times.append((t1 - t0, t1))
            setup_calibrator.sample()

        if args.trace:
            tracer, runner, info = trace_run(workload, lib, args.seconds)
            metrics = layer_metrics(tracer, info)
            units = PER_LAYER_UNITS
            print("top self time:")
            total = sum(tracer.self_s)
            busiest = sorted(zip(tracer.names, tracer.self_s), key=lambda p: -p[1])
            for name, s in [p for p in busiest if tracer.calls_of(p[0])][:8]:
                print(f"  {name:32s} {s:10.4f} s {s / total:7.1%}  {tracer.calls_of(name):9d} calls")
            meta = {"workload": args.workload, "seed": args.seed, **env}
            tracer.save(OUT / f"trace-{args.workload}.npz", meta)
            print(f"spans={tracer.spans} written to {OUT.name}/trace-{args.workload}.npz")
        else:
            calibrator = Calibrator(workload.calibration_unit)
            stats = measure(workload, args.seconds, calibrator)
            runner = stats["runner"]
            factor = calibrator.factor()
            raw = {**stats["raw"], "setup_s": statistics.median(t for t, _ in setup_times)}
            metrics = {
                **stats["calibrated"],
                "setup_s": statistics.median(t * setup_calibrator.factor(end) for t, end in setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            print(f"ops={stats['samples']} cycles={stats['cycles']} wall_s={stats['wall']:.3f}")
            print(f"speed_factor={factor:.4f} from {len(calibrator.samples)} calibration units;"
                  " uncalibrated: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
            print(f"latency_tail_ms is p{workload.tail_pct:g} with {stats['tail_beyond']} samples beyond"
                  f" it, of {stats['samples']}")
            for kind, median in sorted(stats["by_kind"].items()):
                print(f"p50 {kind} {median * 1e6:.1f} us")

    failed_ratio = runner.failed / runner.attempted
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_ratio {failed_ratio} ratio")
    for reason in runner.reasons:
        print(f"failure {reason}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
