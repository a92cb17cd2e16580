"""Outside-in span tracing for the traced benchmark run.

The traced run wraps the public functions of each layer, from this file,
at the names their callers look up: a method on its class, or a
module-level function at every ``repro.*`` module that imported it (the
gua backend, for instance, reaches ``ask`` through
``repro.core.pipeline``'s own ``ask_theory`` binding).  No program module
is edited, and the program's own ``repro.obs`` tracer stays off.

Each wrapped call records one span ``[name, start, end, parent, op, count]``
in memory: *parent* is the index of the enclosing span (-1 for an
operation's root span), *op* the id of the façade call it belongs to, and
*count* an optional size read from the call (pairs grounded, clauses in a
new solver, rows found).  Spans are recorded only while the recorder is
active, which the benchmark limits to the timed phase.  A layer's self time
is its spans' duration minus the duration of their direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, OP, COUNT = range(6)

#: Per-layer metrics, in the order they are printed: (name, unit).
PER_LAYER = (
    ("ldml.parse.self_ms", "ms/op"),
    ("ldml.expand.self_ms", "ms/op"),
    ("ldml.expand.pairs", "count"),
    ("pipeline.submit.self_ms", "ms/op"),
    ("transaction.record.self_ms", "ms/op"),
    ("theory.size.calls", "1/op"),
    ("theory.size.self_ms", "ms/op"),
    ("gua.apply.self_ms", "ms/op"),
    ("gua.apply_simultaneous.self_ms", "ms/op"),
    ("gua.g", "count/update"),
    ("gua.renamed_occurrences", "count/update"),
    ("gua.nodes_added", "count/update"),
    ("gua.dependency_bindings_examined", "count/update"),
    ("theory.clauses.self_ms", "ms/op"),
    ("theory.is_consistent.calls", "1/op"),
    ("tseitin.hit_ratio", "ratio"),
    ("logic.solver_build.calls", "1/op"),
    ("logic.solver_build.self_ms", "ms/op"),
    ("logic.solver_build.clauses", "count"),
    ("logic.solve.self_ms", "ms/op"),
    ("sat.decisions", "1/solve"),
    ("sat.propagations", "1/solve"),
    ("sat.conflicts", "1/solve"),
    ("logic.tseitin.self_ms", "ms/op"),
    ("logic.enumerate.self_ms", "ms/op"),
    ("query.ask.self_ms", "ms/op"),
    ("query.solver_builds_per_ask", "1/ask"),
    ("query.find.bindings_per_row", "ratio"),
    ("arena.hit_rate", "ratio"),
    ("trace.overhead", "ratio"),
)

#: ``Database.metrics_snapshot()`` counters whose timed-phase deltas feed
#: the ratios above.
SNAPSHOT_COUNTERS = (
    "tseitin.cache_hits",
    "tseitin.cache_misses",
    "sat.decisions",
    "sat.propagations",
    "sat.conflicts",
    "sat.solve_calls",
    "arena.intern_hits",
    "arena.intern_misses",
)


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, kind: str):
        """The root span of one façade call."""
        if not self.active:
            yield
            return
        self._op += 1
        index = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None):
        """*fn* recording a span per call; *count(args, result)* fills the
        span's count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][COUNT] = count(args, result)
            return result

        return wrapper

    def wrap_generator(self, fn: Callable, name: str):
        """A generator function recording one span per resume, so no span is
        held open across a ``yield``."""

        def resumes(generator):
            while True:
                index = self._open(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            return resumes(generator) if self.active else generator

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][START] if self.spans else 0.0
        with path.open("w") as out:
            for name, start, end, parent, op, count in self.spans:
                record = {
                    "name": name,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "end_ms": round((end - origin) * 1e3, 4),
                    "parent": parent,
                    "op": op,
                }
                if count is not None:
                    record["count"] = count
                out.write(json.dumps(record) + "\n")


def _bindings(original: Callable) -> List[Tuple[object, str]]:
    """Every ``repro.*`` module-level name bound to *original*."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        found += [
            (module, attribute)
            for attribute, value in vars(module).items()
            if value is original
        ]
    return found


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions for the rest of the process."""
    from repro.core.gua import GuaExecutor
    from repro.core.pipeline import UpdatePipeline
    from repro.core.transaction import UpdateLog
    from repro.ldml.open_updates import OpenUpdate, parse_open_update
    from repro.ldml.parser import parse_update
    from repro.logic.allsat import iter_projected_models
    from repro.logic.cnf import tseitin
    from repro.logic.sat import Solver
    from repro.query.answers import ask
    from repro.query.open_queries import OpenQuery
    from repro.theory.index import WffStore
    from repro.theory.theory import ExtendedRelationalTheory

    methods = (
        (WffStore, "size", "theory.size", None),
        (UpdatePipeline, "submit", "pipeline.submit", None),
        (UpdateLog, "record", "transaction.record", None),
        (GuaExecutor, "apply", "gua.apply", None),
        (GuaExecutor, "apply_simultaneous", "gua.apply_simultaneous", None),
        (ExtendedRelationalTheory, "clauses", "theory.clauses", None),
        (ExtendedRelationalTheory, "is_consistent", "theory.is_consistent", None),
        (Solver, "__init__", "logic.solver_build", lambda a, r: a[0].num_clauses),
        (Solver, "solve", "logic.solve", None),
        (OpenUpdate, "expand", "ldml.expand", lambda a, r: len(r)),
        (OpenQuery, "answers", "query.find", lambda a, r: len(r)),
    )
    for owner, attribute, name, count in methods:
        setattr(owner, attribute, recorder.wrap(getattr(owner, attribute), name, count))

    functions = (
        (parse_update, recorder.wrap(parse_update, "ldml.parse")),
        (parse_open_update, recorder.wrap(parse_open_update, "ldml.parse")),
        (tseitin, recorder.wrap(tseitin, "logic.tseitin")),
        (ask, recorder.wrap(ask, "query.ask")),
        (
            iter_projected_models,
            recorder.wrap_generator(iter_projected_models, "logic.enumerate"),
        ),
    )
    for original, wrapper in functions:
        for module, attribute in _bindings(original):
            setattr(module, attribute, wrapper)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[list],
    ops: int,
    deltas: Dict[str, float],
    gua_totals: Dict[str, int],
    updates: int,
    overhead: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced timed phase of *ops* operations.

    Self times and call counts are per operation, GUA counters per update,
    SAT counters per solve; a ratio with nothing to count is 0.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    self_ms: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Dict[str, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        name = span[NAME]
        self_ms[name] += (span[END] - span[START] - child_time[index]) * 1e3
        calls[name] += 1
        if span[COUNT] is not None:
            counts[name].append(span[COUNT])

    def nearest(index: int, name: str) -> int:
        index = spans[index][PARENT]
        while index >= 0 and spans[index][NAME] != name:
            index = spans[index][PARENT]
        return index

    builds_in_asks = sum(
        1
        for index, span in enumerate(spans)
        if span[NAME] == "logic.solver_build" and nearest(index, "query.ask") >= 0
    )
    asks_in_finds = sum(
        1
        for index, span in enumerate(spans)
        if span[NAME] == "query.ask" and nearest(index, "query.find") >= 0
    )

    def mean(name: str) -> float:
        values = counts.get(name, [])
        return _ratio(sum(values), len(values))

    metrics: Dict[str, float] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_ms"):
            metrics[name] = _ratio(self_ms.get(name[: -len(".self_ms")], 0.0), ops)
        elif name.endswith(".calls"):
            metrics[name] = _ratio(calls[name[: -len(".calls")]], ops)
        elif name.startswith("gua."):
            metrics[name] = _ratio(gua_totals.get(name[4:], 0), updates)
        elif name.startswith("sat."):
            metrics[name] = _ratio(deltas[name], deltas["sat.solve_calls"])
    hits, misses = deltas["tseitin.cache_hits"], deltas["tseitin.cache_misses"]
    interned, fresh = deltas["arena.intern_hits"], deltas["arena.intern_misses"]
    metrics.update(
        {
            "ldml.expand.pairs": mean("ldml.expand"),
            "logic.solver_build.clauses": mean("logic.solver_build"),
            "tseitin.hit_ratio": _ratio(hits, hits + misses),
            "query.solver_builds_per_ask": _ratio(builds_in_asks, calls["query.ask"]),
            "query.find.bindings_per_row": _ratio(
                asks_in_finds, sum(counts.get("query.find", []))
            ),
            "arena.hit_rate": _ratio(interned, interned + fresh),
            "trace.overhead": overhead,
        }
    )
    return {name: metrics[name] for name, _ in PER_LAYER}
