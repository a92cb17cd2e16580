"""Regression: world enumeration on a generated query theory must not thrash.

``data/orderbook_8_3.json`` is a ``theory_to_dict`` document of a 1.56k-wff
theory: 250 ground statements of the ingest mix (with an open update every
25) applied to an Orders/InStock database with the FD ``Orders: OrderNo ->
PartNo, Quan`` and attribute tagging on.  A search without clause learning
backtracks chronologically through the same conflicts on it: the eleventh
solve of ``world_count(cap=16)`` ran past 100k conflicts with no result.
"""

import json
import signal
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.persist import theory_from_dict

DATA = Path(__file__).parent / "data" / "orderbook_8_3.json"
LIMIT_S = 2.0


@contextmanager
def time_box(seconds):
    """Interrupt the body after *seconds*, so a thrashing search fails the
    test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"no result in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_world_count_on_generated_theory_does_not_thrash():
    theory = theory_from_dict(json.loads(DATA.read_text()))
    start = time.perf_counter()
    with time_box(LIMIT_S):
        count = theory.world_count(cap=16)
    assert count == 16
    assert time.perf_counter() - start < LIMIT_S
    assert theory.sat_stats.conflicts < 1000
