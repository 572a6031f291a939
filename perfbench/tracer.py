"""Span tracing of ledc from outside the package.

`Tracer.install` replaces every public function of the traced modules by
a timing wrapper, at every module attribute that binds it (so both
`ledc.linalg.rank` and `ledc.code.rank` are wrapped), and `uninstall`
puts the originals back. Nothing under `src/ledc` is edited.

A span opens only where a call crosses a layer boundary: a call from a
function of one module into a function of the same module is folded
into the caller's span, so `linalg.rank` holds the elimination done by
`rref` under it. `ALWAYS_SPAN` names the few functions that open a span
even when called from their own module, because they are the algorithms
the per-layer metrics single out inside `code` and `locality`.

Each span has a name, start, end, parent span and op id. Self time (a
span's duration minus its children's) and call counts are accumulated
as spans close. Every raw span is kept in memory, in typed arrays of
about 42 bytes a span (a traced 25 s `design` run records about 800,000),
and written out by `save`.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from math import comb
from time import perf_counter

LAYERS = ("cli", "construct", "code", "locality", "linalg", "poly", "field")
ROOT = "bench.op"

ALWAYS_SPAN = frozenset(
    {
        "code.min_distance_rank",
        "code.distance_at_least",
        "code.min_distance_exhaustive",
        "code.verify_local_mds",
        "locality.dmax_witness",
    }
)


# Probes turn the arguments and result of one span into work counters.
# Each receives the rank-call count at span entry, so it can count the
# rank calls made beneath it.


def _probe_distance_rank(tr, args, kwargs, result, exc, rank_at_entry):
    tr.counters["distance_rank.rank_calls"] += tr.calls_of("linalg.rank") - rank_at_entry
    if exc is None and result >= 1:
        tr.counters["distance_rank.useful"] += comb(args[0].structure.n, result - 1)


def _probe_local_mds(tr, args, kwargs, result, exc, rank_at_entry):
    tr.counters["local_mds.minors"] += tr.calls_of("linalg.rank") - rank_at_entry


def _probe_exhaustive(tr, args, kwargs, result, exc, rank_at_entry):
    code = args[0]
    tr.counters["exhaustive.messages"] += code.field.q ** code.structure.k


def _probe_dmax_witness(tr, args, kwargs, result, exc, rank_at_entry):
    if exc is None:
        tr.counters["locality.subsets"] += (1 << len(args[0].K)) - 1


def _probe_random(tr, args, kwargs, result, exc, rank_at_entry):
    if exc is None:
        tr.counters["random.accepted"] += 1
        tr.counters["random.attempts"] += result.meta["attempt"] + 1
    elif type(exc).__name__ == "ExhaustedAttempts":
        max_attempts = kwargs["max_attempts"] if "max_attempts" in kwargs else args[3]
        tr.counters["random.attempts"] += max_attempts


PROBES = {
    "code.min_distance_rank": _probe_distance_rank,
    "code.verify_local_mds": _probe_local_mds,
    "code.min_distance_exhaustive": _probe_exhaustive,
    "locality.dmax_witness": _probe_dmax_witness,
    "construct.construct_random": _probe_random,
}


class Tracer:
    """Spans, self times, call counts and probe counters of traced ledc calls."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters = dict.fromkeys(
            ("distance_rank.rank_calls", "distance_rank.useful", "local_mds.minors",
             "exhaustive.messages", "locality.subsets", "random.accepted", "random.attempts"),
            0,
        )
        self.stack: list[list] = []
        self.next_span = 0
        self.op_self = 0.0
        self.op_id = -1
        self._span_id = array("q")
        self._span_name = array("H")
        self._span_parent = array("q")
        self._span_op = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self._plan: list[tuple[object, str, object, object]] = []
        self._name_id(ROOT)

    # ---------- bookkeeping ----------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_of(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def layer_self(self, layer: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s) if n.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n.split(".", 1)[0] == layer)

    def _close(self, nid: int, sid: int, parent: list, t0: float, t1: float, child_s: float) -> None:
        """Record a closed span and charge its duration to its parent frame."""
        dur = t1 - t0
        parent[0] += dur
        self.calls[nid] += 1
        self.self_s[nid] += dur - child_s
        self.op_self += dur - child_s
        self._span_id.append(sid)
        self._span_name.append(nid)
        self._span_parent.append(parent[2])
        self._span_op.append(self.op_id)
        self._span_start.append(t0)
        self._span_end.append(t1)

    # ---------- wrapping ----------

    def _wrap(self, fn, name: str):
        tracer = self
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        always = name in ALWAYS_SPAN
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack or (not always and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            sid = tracer.next_span
            tracer.next_span = sid + 1
            frame = [0.0, layer, sid]
            stack.append(frame)
            rank_at_entry = tracer.calls_of("linalg.rank") if probe else 0
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._close(nid, sid, stack[-1], t0, t1, frame[0])
                if probe:
                    probe(tracer, args, kwargs, result, exc, rank_at_entry)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every traced layer module."""
        if not self._plan:
            modules = [getattr(self.package, layer) for layer in LAYERS]
            wrappers = {}
            for layer, mod in zip(LAYERS, modules):
                for attr, obj in vars(mod).items():
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    if obj.__module__ == mod.__name__:
                        wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
            for mod in [self.package] + modules:
                for attr, obj in vars(mod).items():
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._plan.append((mod, attr, obj, hit[1]))
        for mod, attr, _, wrapper in self._plan:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._plan:
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ---------- operations ----------

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        self.op_self = 0.0
        sid = self.next_span
        self.next_span = sid + 1
        self.stack.append([0.0, "bench", sid])
        self._op_start = perf_counter()

    def end_op(self) -> tuple[float, float, int]:
        """Close the root span; returns its duration, the sum of the self times
        of every span of the operation (the root's included) and the number
        of spans still open above the root, which should be 0."""
        t1 = perf_counter()
        root, still_open = self.stack[0], len(self.stack) - 1
        self.stack.clear()
        self._close(self._ids[ROOT], root[2], [0.0, "", -1], self._op_start, t1, root[0])
        return t1 - self._op_start, self.op_self, still_open

    # ---------- output ----------

    @property
    def spans(self) -> int:
        """Number of spans recorded."""
        return len(self._span_id)

    def save(self, path, meta: dict) -> None:
        """Write the recorded spans as a compressed numpy archive."""
        import json

        import numpy as np

        np.savez_compressed(
            path,
            span=np.frombuffer(self._span_id, dtype=np.int64),
            name=np.frombuffer(self._span_name, dtype=np.uint16),
            parent=np.frombuffer(self._span_parent, dtype=np.int64),
            op=np.frombuffer(self._span_op, dtype=np.dtype("l")),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
            names=np.array(self.names),
            meta=np.array(json.dumps(meta)),
        )
