"""The output-equivalence tool: records of every case, compared byte for byte."""

import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

import tsvflab.cli
from conftest import outdiff
from tsvflab.cli import main

tool = outdiff()


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Two records of the presets and pool round 0 of each workload, made
    with their scenario files in temporary directories of different roots."""
    cases = [*tool.preset_cases(),
             *(case for workload in tool.scenarios.WORKLOADS
               for case in tool.pool_cases(workload, 0))]
    paths = []
    for root in ("a", "bb/deeper"):
        scratch = tmp_path_factory.mktemp("outdiff") / root
        scratch.mkdir(parents=True)
        sink = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tempfile, "tempdir", str(scratch))
            assert tool.record(cases, sink) == 0
        paths.append(scratch.parent / f"{root.replace('/', '-')}.jsonl")
        paths[-1].write_text(sink.getvalue(), encoding="utf-8")
    return paths


def _lines(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _write(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _compare(capsys, a, b):
    code = tool.compare(str(a), str(b))
    return code, capsys.readouterr().out.splitlines()


def test_every_case_of_the_replaced_checks_is_named_once():
    names = [name for name, _, _ in tool.all_cases()]
    assert len(names) == len(set(names)) == 60 + 7290 + 910 + 270 + 6


def test_network_edits_reach_the_reader_and_the_network_objects():
    """Every edit changes its text; the blank and tab edits still run, and
    every other one is a file diagnostic at a line and column."""
    cases = list(tool.network_cases())
    assert len(cases) == 3 * 2 * len(tool.NETWORK_EDITS) == 270
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "case.scn"
        for name, argv, text in cases[: 2 * len(tool.NETWORK_EDITS)]:
            result = tool.run(main, argv, text, path)
            if name.split("/")[2] in ("bs-tabs", "bs-blanks"):
                assert result["rc"] == 0 and result["stdout"], name
            else:
                assert result["rc"] == 1 and result["raised"] is None, name
                assert re.match(rf"{re.escape(tool.MASK)}:\d+:\d+: error: ", result["stderr"]), name


def test_two_records_compare_equal(records, capsys):
    code, out = _compare(capsys, *records)
    assert code == 0
    assert out[-1].startswith("134 cases compared: 0 differ, 0 BLAS-dependent")


def test_mutation_diagnostics_name_no_path(records):
    for path in records:
        mutations = [line for line in _lines(path)[1:] if ":mutation:" in line["case"]]
        assert len(mutations) == 6
        for line in mutations:
            assert line["rc"] == 1 and line["raised"] is None
            assert line["stderr"].startswith(tool.MASK + ":")
            assert "outdiff" not in line["stderr"]


def test_one_flipped_stdout_byte_fails_that_case_alone(records, capsys, tmp_path):
    lines = _lines(records[1])
    [flipped] = [line for line in lines[1:] if line["case"] == "preset/presence/nested-mzi/csv"]
    flipped["stdout"] = flipped["stdout"].replace("secondary", "secondarz", 1)
    code, out = _compare(capsys, records[0], _write(tmp_path / "b.jsonl", lines))
    assert code == 1
    assert [line for line in out if line.startswith("differs: ")] == [
        "differs: preset/presence/nested-mzi/csv"
    ]
    assert "secondarz" in "\n".join(out)
    assert out[-1].startswith("134 cases compared: 1 differ, 0 BLAS-dependent")


def test_thread_counts_excuse_only_second_order_sweeps(records, capsys, tmp_path):
    a, b = _lines(records[0]), _lines(records[1])
    a[0]["OPENBLAS_NUM_THREADS"] = b[0]["OPENBLAS_NUM_THREADS"] = "1"
    second = "grid-sweeps/0/4:sweep-first_order_residual-128"
    [line] = [line for line in b if line.get("case") == second]
    line["stdout"] = line["stdout"].replace("e-", "e-1", 1)
    path_a = _write(tmp_path / "a.jsonl", a)
    code, out = _compare(capsys, path_a, _write(tmp_path / "b.jsonl", b))
    assert code == 1  # at one thread count, no case is excused
    assert [line for line in out if line.startswith("differs: ")] == [f"differs: {second}"]

    b[0]["OPENBLAS_NUM_THREADS"] = "2"
    code, out = _compare(capsys, path_a, _write(tmp_path / "b.jsonl", b))
    assert code == 0
    assert f"BLAS-dependent: {second}" in out
    assert out[-1] == "134 cases compared: 0 differ, 1 BLAS-dependent (OPENBLAS_NUM_THREADS 1 vs 2)"

    first = "grid-sweeps/0/0:sweep-continuity-128"
    [line] = [line for line in b if line.get("case") == first]
    line["stdout"] = line["stdout"].replace("e-", "e-1", 1)
    code, out = _compare(capsys, path_a, _write(tmp_path / "b.jsonl", b))
    assert code == 1
    assert [line for line in out if line.startswith("differs: ")] == [f"differs: {first}"]
    assert out[-1].startswith("134 cases compared: 1 differ, 1 BLAS-dependent")


def test_large_copies_exit_0_with_stdout_within_their_budget(monkeypatch, capsys):
    sink = io.StringIO()
    assert tool.record(tool.large_cases(), sink) == 0
    lines = [json.loads(line) for line in sink.getvalue().splitlines()[1:]]
    assert len(lines) == 6
    for line in lines:
        assert line["rc"] == 0 and line["stdout"] and line["raised"] is None, line["case"]
    monkeypatch.setattr(tool, "LARGE_BUDGET_S", 0.0)
    assert tool.record(tool.large_cases(), io.StringIO()) == 1
    assert capsys.readouterr().err.count("large copy failed: large/") == 6


def test_a_case_that_warns_fails_the_record(monkeypatch, capsys):
    def warns(argv):
        print("g,metric")
        if argv == ["sweep"]:  # the same line warns in two cases
            np.sin(np.inf)
        return 0

    monkeypatch.setattr(tsvflab.cli, "main", warns)
    cases = [("a", ["sweep"], None), ("b", ["trace"], None), ("c", ["sweep"], None)]
    sink = io.StringIO()
    assert tool.record(cases, sink) == 1
    assert capsys.readouterr().err == "Python warning in: a\nPython warning in: c\n"
    lines = [json.loads(line) for line in sink.getvalue().splitlines()[1:]]
    assert [line["rc"] for line in lines] == [0, 0, 0]
    for line in lines:
        warned = "RuntimeWarning: invalid value encountered in sin" in line["stderr"]
        assert warned == (line["case"] != "b") and line["stdout"] == "g,metric\n"
    assert tool.record(cases[1:2], io.StringIO()) == 0


def test_a_raising_case_is_recorded_as_its_failure(tmp_path):
    def raises(argv):
        raise RuntimeError(f"cannot read {argv[1]}")

    path = tmp_path / "case.scn"
    result = tool.run(raises, ["sweep"], "text", path)
    assert result == {"rc": None, "stdout": "", "stderr": "",
                      "raised": f"RuntimeError: cannot read {tool.MASK}"}
    assert tool.run(main, ["sweep"], "text", path)["rc"] == 1


@pytest.mark.parametrize("argv", [[], ["record", "--fast"], ["compare", "a"], ["diff", "a", "b"]])
def test_only_record_and_compare_are_accepted(argv, capsys):
    assert tool.main(argv) == 2
    assert capsys.readouterr().err.startswith("usage: ")
