#!/usr/bin/env python3
"""Façade benchmark of the repro GUA engine.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory):

* ``ingest`` — LDML updates from an empty database (write only);
* ``query``  — asks, finds and world counts on theories built in setup;
* ``mixed``  — churn updates beside asks on a smaller theory, with an open
  update every 25 cycles.

Each workload is a closed loop with one client, one process and no threads.
The program receives only LDML and query text, through the public
``Database`` API.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
wraps each layer's public functions (``tracer.py``), prints the per-layer
metrics and writes the spans to ``.perfbench/`` under the repository root.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
fails the run (``correct`` false, exit code 1); an operation that raises
``ReproError``, or a read-only one that runs past ``OP_TIMEOUT_S``, counts
in ``failed`` and is left out of the latency samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import workload as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP, LOOP, CHECK = "setup", "loop", "check"

#: Wall-clock limit of one read-only façade call.  World enumeration can
#: thrash: on about one generated theory in twenty, ``world_count(cap=16)``
#: does not finish in minutes.  Such a call is stopped here and counted as
#: failed, so the run still ends in time and reports it.  Updates are never
#: stopped, so a theory is never left half-updated.
OP_TIMEOUT_S = 8.0

#: Wall-clock limit of the untraced comparison run of ``--trace 1``.
UNTRACED_TIMEOUT_S = 120.0

#: Operation kinds that leave the database unchanged.
READ_ONLY = frozenset({"ask", "find", "worlds", "consistent"})


class OperationTimeout(Exception):
    """A façade call ran past ``OP_TIMEOUT_S``."""


def _expire(signum, frame):
    raise OperationTimeout(f"no result within {OP_TIMEOUT_S:g} s")

#: End-to-end metrics, in the order they are printed: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("update_ms.p50", "ms"),
    ("update_ms.p90", "ms"),
    ("open_update_ms.p50", "ms"),
    ("ask_ms.p50", "ms"),
    ("ask_ms.p90", "ms"),
    ("find_ms.p50", "ms"),
    ("worlds_ms.p50", "ms"),
    ("theory_nodes", "count"),
    ("peak_rss_mb", "MB"),
)

#: Latency metric -> (operation kind, percentile).
LATENCIES = {
    "update_ms.p50": ("update", 50),
    "update_ms.p90": ("update", 90),
    "open_update_ms.p50": ("open_update", 50),
    "ask_ms.p50": ("ask", 50),
    "ask_ms.p90": ("ask", 90),
    "find_ms.p50": ("find", 50),
    "worlds_ms.p50": ("worlds", 50),
}


@dataclass(frozen=True)
class ReadBack:
    """The untimed output check of one database: asks, finds, world counts
    and open updates, then consistency."""

    opens: int = 0
    asks: int = 0
    finds: int = 0
    worlds: int = 0


@dataclass(frozen=True)
class Scale:
    """Input sizes of one run.  Each workload has a fixed *pass* of rounds
    or operations; the timed phase runs whole passes until ``--seconds``
    have been timed, so two runs of one seed do the same work."""

    ingest_rounds: int  # ingest rounds per pass, each from an empty database
    ingest_statements: int  # ground statements per ingest round
    ingest_setups: int  # empty databases built per ingest round
    query_theories: int  # query theories, built in setup, asked in turn
    query_statements: int  # ground statements building one query theory
    query_ops: int  # query operations per pass
    mixed_rounds: int  # mixed rounds per pass, each on a new theory
    mixed_statements: int  # ground statements building a mixed theory
    mixed_cycles: int  # churn-update cycles per mixed round
    open_every: int  # ground statements per open update, building a theory
    mixed_open_every: int  # mixed cycles per open update
    ingest_check: ReadBack  # read-back of each ingest round's database
    query_check: ReadBack  # read-back of each query theory
    mixed_check: ReadBack  # read-back of each mixed round's database


SCALES = {
    "full": Scale(
        ingest_rounds=5, ingest_statements=250, ingest_setups=15,
        query_theories=4, query_statements=250, query_ops=72,
        mixed_rounds=4, mixed_statements=120, mixed_cycles=25,
        open_every=25, mixed_open_every=25,
        ingest_check=ReadBack(opens=12, asks=9, finds=3, worlds=1),
        query_check=ReadBack(opens=12, finds=2, worlds=1),
        mixed_check=ReadBack(opens=12, finds=4, worlds=1),
    ),
    "tiny": Scale(
        ingest_rounds=2, ingest_statements=30, ingest_setups=2,
        query_theories=2, query_statements=30, query_ops=12,
        mixed_rounds=2, mixed_statements=30, mixed_cycles=6,
        open_every=10, mixed_open_every=4,
        ingest_check=ReadBack(opens=2, asks=3, finds=2, worlds=1),
        query_check=ReadBack(opens=2, finds=1, worlds=1),
        mixed_check=ReadBack(opens=2, finds=2, worlds=1),
    ),
}


def _import_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro
    from repro.logic.terms import Predicate

    return repro, Predicate


class Session:
    """Latency samples, counts and the output check of one workload run."""

    def __init__(self, program, recorder=None, plant: bool = False):
        self.repro, self.predicate = program
        self.recorder = recorder
        self.plant = plant
        self.phase = SETUP
        self.samples: Dict[str, Dict[str, List[float]]] = {
            phase: defaultdict(list) for phase in (SETUP, LOOP, CHECK)
        }
        self.setup_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0  # timed-loop operations that returned
        self.timed_s = 0.0
        self._segment_start: Optional[float] = None
        self.mismatches: List[str] = []
        # Traced run only: snapshot-counter deltas and GuaResult.stats sums
        # over the timed phase.
        self.deltas: Counter = Counter()
        self.gua: Counter = Counter()
        self.updates = 0
        self.finds = 0  # finds made so far, for their 3:1 pattern
        self.theory_nodes: Optional[int] = None  # after the first timed segment

    # -- the program --------------------------------------------------------

    def database(self):
        schema = self.repro.schema_from_dict(wl.SCHEMA)
        fd = self.repro.FunctionalDependency(self.predicate("Orders", 3), [0], [1, 2])
        return self.repro.Database(schema=schema, dependencies=[fd], auto_tag=True)

    def call(self, kind: str, fn: Callable[[], object]):
        """One façade call: ``(True, result)``, or ``(False, None)`` when it
        raised ``ReproError`` or, read-only, ran past ``OP_TIMEOUT_S``."""
        self.attempted += 1
        op = self.recorder.op(kind) if self.recorder else nullcontext()
        time_box = kind in READ_ONLY
        with op:
            start = time.perf_counter()
            if time_box:
                signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                result = fn()
            except (self.repro.ReproError, OperationTimeout) as error:
                self.failed += 1
                print(f"perfbench: {kind} failed: {error!r}", file=sys.stderr)
                return False, None
            finally:
                if time_box:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed_ms = (time.perf_counter() - start) * 1e3
        self.samples[self.phase][kind].append(elapsed_ms)
        if self.phase == LOOP:
            self.completed += 1
        return True, result

    # -- phases ---------------------------------------------------------------

    def setup(self, build: Callable[[int], object], repeats: int) -> list:
        """The databases ``build(0)`` ... ``build(repeats - 1)``, each build
        timed as one set-up sample.

        Each database is frozen out of the garbage collector once built
        (``gc.freeze``) until the timed segment ends, so a full collection
        scans only what was made after it.  Otherwise collector pauses in a
        build or in the timed loop would grow with how many set-up
        databases the run holds (four on ``query``), not with the work
        being measured."""
        self.phase = SETUP
        gc.unfreeze()
        gc.collect()
        built = []
        for index in range(repeats):
            start = time.perf_counter()
            built.append(build(index))
            self.setup_s.append(time.perf_counter() - start)
            gc.collect()
            gc.freeze()
        return built

    def elapsed(self) -> float:
        if self._segment_start is None:
            return self.timed_s
        return self.timed_s + time.perf_counter() - self._segment_start

    @contextmanager
    def timed(self, *dbs):
        """A timed segment over *dbs*; the recorder is active only inside
        one.  ``theory_nodes`` is the first database's after the first."""
        before = self._counters(dbs)
        self.phase = LOOP
        if self.recorder:
            self.recorder.active = True
        self._segment_start = time.perf_counter()
        try:
            yield
        finally:
            self.timed_s = self.elapsed()
            self._segment_start = None
            self.phase = CHECK
            gc.unfreeze()
            if self.recorder:
                self.recorder.active = False
                after = self._counters(dbs)
                for name in after:
                    self.deltas[name] += after[name] - before[name]
            if self.theory_nodes is None:
                self.theory_nodes = dbs[0].metrics_snapshot()["theory.nodes"]

    def _counters(self, dbs) -> Counter:
        """Snapshot counters summed over *dbs*; the arena is process-wide,
        so its counters are read once."""
        counters: Counter = Counter()
        if not self.recorder:
            return counters
        from tracer import SNAPSHOT_COUNTERS

        for index, db in enumerate(dbs):
            snapshot = db.metrics_snapshot()
            for name in SNAPSHOT_COUNTERS:
                if index == 0 or not name.startswith("arena."):
                    counters[name] += snapshot[name]
        return counters

    # -- operations -----------------------------------------------------------

    def update(self, db, kind: str, text: str) -> None:
        ok, result = self.call(kind, lambda: db.update(text))
        if ok and self.recorder and self.phase == LOOP:
            self.updates += 1
            self.gua.update(vars(result.stats))

    def ingest(self, db, stream):
        for kind, text in stream:
            self.update(db, kind, text)
        return db

    def build(self, stream):
        """A database holding *stream*, checked consistent.  The check
        fills the per-wff Tseitin cache, so the timed loop starts warm."""
        db = self.ingest(self.database(), stream)
        self.consistent(db)
        return db

    def consistent(self, db) -> None:
        ok, consistent = self.call("consistent", db.is_consistent)
        if ok:
            self.expect("theory is consistent", consistent, True)

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.mismatches.append(f"{what}: got {got!r}, expected {want!r}")

    def ask(self, db, ask: wl.Ask) -> None:
        expected = ask.expected
        if self.plant:
            # Self-test hook: one wrong expectation must fail the run.
            expected = wl.CERTAIN if expected != wl.CERTAIN else wl.IMPOSSIBLE
            self.plant = False
        ok, answer = self.call("ask", lambda: db.ask(ask.text))
        if ok:
            self.expect(ask.text, answer.status, expected)

    def find(self, db, book: wl.OrderBook) -> None:
        """A find on a frozen order of *book*.  Three of every four target a
        disjunctive order, so the find median sits on the two-binding cost
        instead of flipping between the two."""
        find = book.find(disjunctive=self.finds % 4 != 1)
        self.finds += 1
        ok, rows = self.call("find", lambda: db.find(find.text))
        if ok:
            got = sorted((row.values(), row.status) for row in rows)
            self.expect(find.text, got, sorted(find.expected))

    def worlds(self, db) -> None:
        ok, count = self.call("worlds", lambda: db.world_count(cap=16))
        if ok:
            self.expect("world_count(cap=16)", count, 16)

    def read_back(self, db, book: wl.OrderBook, check: ReadBack) -> None:
        """The untimed output check of one database, with extra samples of
        the operations *check* names.  The open updates come last, so the
        reads see the theory the timed loop left."""
        self.phase = CHECK
        for ask in book.asks(check.asks):
            self.ask(db, ask)
        for _ in range(check.finds):
            self.find(db, book)
        for _ in range(check.worlds):
            self.worlds(db)
        for text in book.open_updates(check.opens):
            self.update(db, wl.OPEN_UPDATE, text)
        self.consistent(db)


# -- workloads -----------------------------------------------------------------


def _book(seed: int, index: int) -> wl.OrderBook:
    """The generator of a run's round or theory *index*: each writes
    different statements."""
    return wl.OrderBook(f"{seed}/{index}")


def _passes(session: Session, size: int, seconds: float):
    """Step numbers of the timed phase: whole passes of *size* steps, until
    *seconds* have been timed."""
    step = 0
    while step % size or session.elapsed() < seconds:
        yield step
        step += 1


def run_ingest(session: Session, seed: int, scale: Scale, seconds: float):
    """Rounds of ground statements, each from an empty database.  Each round's
    database is checked consistent; on the first pass it is also read
    back."""
    books = [_book(seed, index) for index in range(scale.ingest_rounds)]
    streams = [book.ingest_stream(scale.ingest_statements) for book in books]
    for round_ in _passes(session, len(streams), seconds):
        index = round_ % len(streams)
        db = session.setup(lambda _: session.database(), scale.ingest_setups)[-1]
        with session.timed(db):
            session.ingest(db, streams[index])
        if round_ < len(streams):
            session.read_back(db, books[index], scale.ingest_check)
        else:
            session.consistent(db)


def _query_pass(rng, size: int, theories: int):
    """One pass of *size* query operations as ``(theory, kind, status)``:
    2% world counts and 10% finds (at least one each), the rest asks split
    into thirds by status; shuffled, going to the theories in turn."""
    worlds = max(1, size // 50)
    finds = max(1, size // 10)
    asks = size - worlds - finds
    kinds = ["ask"] * asks + ["find"] * finds + ["worlds"] * worlds
    statuses = [wl.STATUSES[index % 3] for index in range(asks)]
    rng.shuffle(kinds)
    rng.shuffle(statuses)
    return [
        (index % theories, kind, statuses.pop() if kind == "ask" else None)
        for index, kind in enumerate(kinds)
    ]


def run_query(session: Session, seed: int, scale: Scale, seconds: float):
    """Asks, finds and world counts over several theories built in setup."""
    books = [_book(seed, index) for index in range(scale.query_theories)]
    streams = [
        book.ingest_stream(scale.query_statements, scale.open_every) for book in books
    ]
    dbs = session.setup(lambda index: session.build(streams[index]), len(books))
    rng = random.Random(f"{seed}/query")
    plan: list = []
    with session.timed(*dbs):
        for step in _passes(session, scale.query_ops, seconds):
            if step % scale.query_ops == 0:
                plan = _query_pass(rng, scale.query_ops, len(dbs))
            theory, kind, status = plan[step % scale.query_ops]
            db, book = dbs[theory], books[theory]
            if kind == "ask":
                session.ask(db, book.ask(status))
            elif kind == "find":
                session.find(db, book)
            else:
                session.worlds(db)
    for db, book in zip(dbs, books):
        session.read_back(db, book, scale.query_check)


def _mixed_cycles(book: wl.OrderBook, scale: Scale):
    churn = book.churn_updates(scale.mixed_cycles)
    asks = iter(book.asks(2 * scale.mixed_cycles))
    for index, text in enumerate(churn):
        yield wl.UPDATE, text
        yield "ask", next(asks)
        yield "ask", next(asks)
        if index % scale.mixed_open_every == scale.mixed_open_every // 2:
            yield wl.OPEN_UPDATE, book.open_update()


def run_mixed(session: Session, seed: int, scale: Scale, seconds: float):
    """Rounds of churn cycles (one update, two asks), each on a new theory
    built in setup.  Each round's database is checked consistent; on the
    first pass it is also read back."""
    books = [_book(seed, index) for index in range(scale.mixed_rounds)]
    bases = [
        book.ingest_stream(scale.mixed_statements, scale.open_every) for book in books
    ]
    cycles = [list(_mixed_cycles(book, scale)) for book in books]
    for round_ in _passes(session, len(books), seconds):
        index = round_ % len(books)
        db = session.setup(lambda _: session.build(bases[index]), 1)[0]
        with session.timed(db):
            for kind, payload in cycles[index]:
                if kind == "ask":
                    session.ask(db, payload)
                else:
                    session.update(db, kind, payload)
        if round_ < len(books):
            session.read_back(db, books[index], scale.mixed_check)
        else:
            session.consistent(db)


WORKLOADS = {"ingest": run_ingest, "query": run_query, "mixed": run_mixed}


# -- metrics -------------------------------------------------------------------


def _percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _pool(session: Session, kind: str) -> List[float]:
    """Latency samples of *kind* from the timed loop and the read-back, or
    from set-up when neither has any (updates on ``query``)."""
    samples = session.samples[LOOP][kind] + session.samples[CHECK][kind]
    samples = samples or session.samples[SETUP][kind]
    if not samples:
        raise SystemExit(f"perfbench: no {kind} operation completed")
    return samples


def end_to_end(session: Session):
    values = {
        "setup_s": statistics.median(session.setup_s),
        "ops_per_s": session.completed / session.timed_s,
        "theory_nodes": session.theory_nodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {}
    for name, (kind, q) in LATENCIES.items():
        samples = _pool(session, kind)
        values[name] = _percentile(samples, q)
        counts[name] = len(samples)
    return values, counts


def _untraced_run(args) -> dict:
    """The result of the same workload and seed, untraced, in a fresh
    process: the base of ``trace.overhead``.  A second run in this process
    would start with a warm formula arena and read faster."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale,
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=UNTRACED_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"perfbench: the untraced run printed no result: {done.stderr[-400:]}")
    return json.loads(lines[-1])


def _emit(result: dict, units: Dict[str, str], counts: Dict[str, int]) -> None:
    for name, entry in result["metrics"].items():
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:36} {entry['value']:>14.4f} {units[name]}{samples}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument(
        "--plant-wrong-answer",
        action="store_true",
        help="expect a wrong answer to the first ask (self-test)",
    )
    args = parser.parse_args(argv)
    program = _import_program()
    signal.signal(signal.SIGALRM, _expire)
    scale = SCALES[args.scale]
    run = WORKLOADS[args.workload]

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
    session = Session(program, recorder, plant=args.plant_wrong_answer)
    run(session, args.seed, scale, args.seconds)
    attempted, failed = session.attempted, session.failed
    mismatches = session.mismatches
    if args.trace:
        untraced = _untraced_run(args)
        attempted += untraced["attempted"]
        failed += untraced["failed"]
        if not untraced["correct"]:
            mismatches.append("the untraced comparison run gave a wrong answer")
        overhead = untraced["metrics"]["ops_per_s"]["value"] / (
            session.completed / session.timed_s
        )
        values = tracer.layer_metrics(
            recorder.spans, session.completed, session.deltas,
            session.gua, session.updates, overhead,
        )
        units, counts = dict(tracer.PER_LAYER), {}
        recorder.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values, counts = end_to_end(session)
        units = dict(END_TO_END)

    for mismatch in mismatches[:20]:
        print(f"perfbench: wrong answer: {mismatch}", file=sys.stderr)
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    _emit(result, units, counts)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
