"""Closed-loop load generator: one client, no threads, each scenario fed to
``tsvflab.cli.main`` in process after the previous one has finished."""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


@dataclass
class Outcome:
    case: object
    rc: int | None
    out: str
    err: str
    seconds: float
    failure: str | None = None


def scenario_file(scratch: Path) -> Path:
    """Where this process writes the scenario it is about to run."""
    return scratch / f"scenario-{os.getpid()}.scn"


def run_case(main, case, scratch: Path) -> Outcome:
    """Run one case; the clock covers the CLI call from scenario file to CSV text."""
    if case.text is None:
        argv = [case.command, "--preset", case.preset]
    else:
        path = scenario_file(scratch)
        path.write_text(case.text, encoding="utf-8")
        argv = [case.command, str(path)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # a traceback is a failed scenario, not a harness crash
        rc = None
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return Outcome(case, rc, out.getvalue(), err.getvalue(), seconds)


def load_reference(workload: str) -> dict[str, str]:
    path = REFERENCE_DIR / f"{workload}.json.gz"
    if not path.exists():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def run_for(main, rounds, seconds: float, scratch: Path, between=None):
    """Run whole rounds, so every run has the same mix of shapes, until the
    next round would end further past ``seconds`` than stopping now falls
    short of it, or until ``rounds`` runs out.  ``between(elapsed)`` runs
    before each round, off the clock.  Returns the outcomes, the time the
    rounds took and the number of rounds run."""
    outcomes: list[Outcome] = []
    elapsed = 0.0
    done = 0
    while not done or elapsed * (1 + 0.5 / done) <= seconds:
        cases = next(rounds, None)
        if cases is None:
            break
        if between is not None:
            between(elapsed)
        start = time.perf_counter()
        outcomes += [run_case(main, case, scratch) for case in cases]
        elapsed += time.perf_counter() - start
        done += 1
    return outcomes, elapsed, done


def judge(outcomes, reference: dict[str, str]) -> int:
    """Check every outcome against its oracles; returns the failure count."""
    failed = 0
    for o in outcomes:
        o.failure = oracles.check(o.case, o.rc, o.out, o.err, reference.get(o.case.key))
        failed += o.failure is not None
    return failed
