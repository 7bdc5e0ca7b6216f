"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (fixes the BLAS thread count before numpy loads)

sys.path.insert(0, str(run.SRC))
import harness  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402
import tsvflab.cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def work():
    run.WORK.mkdir(exist_ok=True)
    yield run.WORK
    harness.scenario_file(run.WORK).unlink(missing_ok=True)


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_one_round_passes_its_oracles(workload, work):
    cases = next(scenarios.run_rounds(workload, seed=7))
    outcomes = [harness.run_case(tsvflab.cli.main, case, work) for case in cases]
    failed = harness.judge(outcomes, harness.load_reference(workload))
    assert failed == 0, [(o.case.slot, o.failure) for o in outcomes if o.failure]


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_a_run_never_meets_a_scenario_twice(workload):
    rounds = list(scenarios.run_rounds(workload, seed=11))
    assert len(rounds) == scenarios.POOL_ROUNDS[workload]
    keys = [case.key for cases in rounds for case in cases if case.preset is None]
    assert len(keys) == len(set(keys))


def test_run_for_stops_when_the_rounds_run_out(work):
    cases = [scenarios.preset_case("spin-sz")]
    outcomes, _, done = harness.run_for(tsvflab.cli.main, iter([cases, cases]), 1e9, work)
    assert (len(outcomes), done) == (2, 2)


def test_tail_is_never_below_the_median():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_p50_averages_the_round_medians():
    assert run.p50([1.0, 2.0, 9.0, 3.0, 4.0, 5.0], 2) == 3.0
    with pytest.raises(ValueError):
        run.p50([1.0, 2.0, 3.0], 2)


def _first(workload, command, work):
    for case in next(scenarios.run_rounds(workload, seed=3)):
        if case.command == command and case.expect.get("exit", 0) == 0:
            return harness.run_case(tsvflab.cli.main, case, work)
    raise AssertionError(f"no {command} case in {workload}")


def _nudge(field: str) -> str:
    """The same non-negative number, changed in its seventh significant
    digit: far above roundoff, yet small enough to pass every physics oracle."""
    mantissa, exponent = field.split("e", 1)
    digits = list(mantissa)  # "d.dddddddddddd"
    digits[7] = "1" if digits[7] != "1" else "2"
    return "".join(digits) + "e" + exponent


@pytest.mark.parametrize("workload,command,column", [
    ("grid-sweeps", "sweep", 1),  # a metric value
    ("presence-chains", "trace", 2),  # a weak trace
])
def test_perturbed_output_is_counted_as_failed(workload, command, column, work):
    outcome = _first(workload, command, work)
    reference = harness.load_reference(workload)
    lines = outcome.out.splitlines()
    index = max(range(1, len(lines)), key=lambda i: float(lines[i].split(",")[column]))
    row = lines[index].split(",")
    row[column] = _nudge(row[column])
    lines[index] = ",".join(row)
    perturbed = replace(outcome, out="\n".join(lines) + "\n")
    wrong_exit = replace(outcome, rc=2)
    assert harness.judge([outcome], reference) == 0
    assert harness.judge([outcome, perturbed, wrong_exit], reference) == 2
    assert "reference" in perturbed.failure and "exit code" in wrong_exit.failure


def test_tracer_restores_the_program_and_accounts_self_time(work):
    originals = (tsvflab.cli.main, dict(tsvflab.cli._METRFN),
                 tsvflab.qcore.CouplingEvolution.__dict__["apply"])
    cases = next(scenarios.run_rounds("grid-sweeps", seed=1))[:3]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tsvflab.cli.main is not originals[0]
        outcomes = [harness.run_case(lambda argv: tsvflab.cli.main(argv), c, work) for c in cases]
    finally:
        tracer.uninstall()
    assert (tsvflab.cli.main, tsvflab.cli._METRFN,
            tsvflab.qcore.CouplingEvolution.__dict__["apply"]) == originals
    assert all(o.rc == 0 for o in outcomes)
    assert min(spans.self_times(tracer.spans)) >= 0
    roots = [s for s in tracer.spans if s[spans.PARENT] < 0]
    assert [s[spans.NAME] for s in roots] == ["cli.main"] * len(cases)
    metrics, per_layer = spans.layer_metrics(tracer.spans, len(cases))
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(metrics)
    assert sum(per_layer.values()) == pytest.approx(
        sum(s[spans.END] - s[spans.START] for s in roots) / 1e6 / len(cases))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_the_contract(trace, section):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-corpus", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for m in BENCHMARK[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
