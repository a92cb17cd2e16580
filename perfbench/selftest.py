#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Run from the repository root (about half a minute)::

    python3 perfbench/selftest.py

It checks that:

* every workload, untraced and traced, exits 0 and ends its output with the
  result object, whose metrics are exactly the ones ``BENCHMARK.json``
  names, each with its unit (end-to-end values above zero);
* a planted wrong expected answer makes every workload fail;
* in a directory holding only ``BENCHMARK.json`` and this directory, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    command = [
        sys.executable, str(cwd / HERE.name / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny", *extra,
    ]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else "", done.stderr


def _check_result(line: str, named, positive: bool) -> list:
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted={attempted!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(named):
        problems.append(f"metrics differ: {sorted(set(metrics) ^ set(named))}")
    for name, unit in named.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif positive and value <= 0:
            problems.append(f"{name}: value {value!r} is not above zero")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, line, stderr = _run(ROOT, workload, trace)
            problems = [f"exit code {code}: {stderr[-400:]}"] if code else []
            if line.startswith("{"):
                problems += _check_result(line, named[trace], positive=trace == 0)
            else:
                problems.append("no result line")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
        code, line, _ = _run(ROOT, workload, 0, "--plant-wrong-answer")
        planted_caught = code != 0 and line.startswith("{") and not json.loads(line)["correct"]
        if not planted_caught:
            failures.append(f"{workload}: planted wrong answer not detected")
        print(f"{workload} planted wrong answer: {'detected' if planted_caught else 'MISSED'}")

    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, line, _ = _run(bare, "ingest", 0)
    shutil.rmtree(bare)
    bare_ok = code != 0 and not line.startswith("{")
    if not bare_ok:
        failures.append(f"without the program: exit code {code}, last line {line!r}")
    print(f"without the program: {'refused' if bare_ok else 'FAIL'}")

    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
