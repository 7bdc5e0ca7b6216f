"""Command-line front end: deterministic CSV/JSON emission and exit codes."""

import json
import tracemalloc
from pathlib import Path

import pytest

from conftest import outdiff
from tsvflab import cli, limits, pointer
from tsvflab.cli import _format_table, main
from tsvflab.scenario import load_corpus_text


def sci12(x) -> str:
    return _format_table([[float(x)]])[0][0]


def fmt_complex(z) -> str:
    return _format_table([[complex(z)]])[0][0]


DARK_NETWORK_SCENARIO = """tsvf-scenario v1
[system]
dim = 2

[pointer]
kind = qubit

[network]
modes = 2
source = 0
seq = beam_splitter 0 1 0.5
seq = slice U:0 L:1
seq = beam_splitter 0 1 0.5
detectors = DARK:0, BRIGHT:1
postselect = DARK

[experiment]
plan = trace
arms = U, L
"""


class TestNumberFormatting:
    def test_sci12(self):
        assert sci12(1.0) == "1.000000000000e0"
        assert sci12(0.25) == "2.500000000000e-1"
        assert sci12(-1.5e-12) == "-1.500000000000e-12"
        assert sci12(0.0) == "0.000000000000e0"
        assert sci12(-0.0) == "0.000000000000e0"
        assert sci12(float("inf")) == "inf"
        assert sci12(123456.789) == "1.234567890000e5"

    def test_fmt_complex(self):
        assert fmt_complex(1.0) == "1.000000000000e0+0.000000000000e0i"
        assert fmt_complex(1 - 2j) == "1.000000000000e0-2.000000000000e0i"
        assert fmt_complex(complex(0.0, -0.0)) == (
            "0.000000000000e0+0.000000000000e0i"
        )


class TestWeakValueCommand:
    def test_spin_sz_preset(self, capsys):
        assert main(["weakvalue", "--preset", "spin-sz"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "observable,analytic,numeric,deviation,residual"
        fields = lines[1].split(",")
        assert fields[0] == "sz"
        assert fields[1] == "1.000000000000e0+0.000000000000e0i"

    def test_decomposition_preset_rows_sorted(self, capsys):
        assert main(["weakvalue", "--preset", "spin-splus-sminus"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["sminus", "splus", "sz"]
        splus = rows[1].split(",")
        analytic = splus[1]
        assert analytic.startswith("1.414213562373e0")
        assert float(splus[3]) <= 1e-3  # numeric deviation column

    def test_json_mirrors_csv(self, capsys):
        assert main(["weakvalue", "--preset", "spin-sz", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["observable"] == "sz"
        assert rows[0]["analytic"] == "1.000000000000e0+0.000000000000e0i"

    @pytest.mark.parametrize(
        "matrix,schedule,message",
        [
            # <out|S|in> = 1.4e308 over <out|in> = 0.71: printed inf and nan, exit 0
            ("1e308, 1e308; 1e308, 1e308", "", "weak value is not finite"),
            # a finite weak value of 1e308, coupled at g = 100: printed nan, exit 0
            ("1e308, 0; 0, -1e308", "g_schedule = 100, 50, 25, 12.5\n",
             "coupling phase must be finite"),
        ],
    )
    def test_overflowing_qubit_readout_is_an_error(
        self, tmp_path, capsys, matrix, schedule, message
    ):
        text = load_corpus_text("spin_sz").replace("expr = pauli_z", f"matrix = {matrix}")
        text = text.split("[pointer]")[0] + "[pointer]\nkind = qubit\n" + (
            "[selection]\npre = up_x\npost = up_z\n[experiment]\nplan = weakvalue\n"
            f"observables = sz\n{schedule}"
        )
        path = tmp_path / "overflow.scn"
        path.write_text(text)
        assert main(["weakvalue", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


#: the 12 qubit weak values of the benchmark's cold-corpus pool round 0
#: (perfbench/scenarios.py), that workload's median case, each with the
#: stdout of commit 2dd068e
PINNED = sorted((Path(__file__).parent / "data" / "cold_round0").glob("*.scn"))


@pytest.mark.parametrize("path", PINNED, ids=[path.stem for path in PINNED])
def test_pinned_qubit_weak_values_print_byte_for_byte(path, capsys):
    assert len(PINNED) == 12
    assert main(["weakvalue", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == path.with_suffix(".csv").read_text(encoding="utf-8")


class TestPresenceAndTrace:
    def test_presence_preset(self, capsys):
        assert main(["presence", "--preset", "nested-mzi"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        classifications = {arm: cls for arm, _, cls in rows}
        assert classifications == {
            "A": "primary", "B": "primary", "C": "primary",
            "D": "secondary", "E": "secondary", "X": "none",
        }
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        x_row = next(r for r in rows if r[0] == "X")
        assert x_row[1] == "inf"

    def test_trace_on_presence_scenario(self, capsys):
        assert main(
            ["trace", "--preset", "nested-mzi", "--g-max", "1e-2", "--g-min", "1e-3",
             "--points", "4"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "arm,g,trace"
        assert len(lines) == 1 + 6 * 4
        # arms alphabetical, g descending within each arm
        arms = [line.split(",")[0] for line in lines[1:]]
        assert arms == sorted(arms)
        gs = [float(line.split(",")[1]) for line in lines[1:5]]
        assert gs == sorted(gs, reverse=True)

    def test_small_g_presence_fits_second_order_traces(self, capsys):
        # D and E trace about 1e-16 ... 1e-14 here; they printed inf,none
        flags = ["--g-max", "1e-7", "--g-min", "1e-8"]
        assert main(["presence", "--preset", "nested-mzi", *flags]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(arm, cls) for arm, _, cls in rows] == [
            ("A", "primary"), ("B", "primary"), ("C", "primary"),
            ("D", "secondary"), ("E", "secondary"), ("X", "none"),
        ]
        assert [order for arm, order, _ in rows if arm in "DE"] == ["2.000000000000e0"] * 2

    @pytest.mark.parametrize(
        "command,schedule",
        [
            ("trace", ("1e-76", "1e-79", "1e-82", "1e-84")),
            ("presence", ("1e-200", "5e-201", "2e-201", "1e-201")),
            ("trace", ("1e-60", "1e-65", "1e-70", "1e-71")),
        ],
    )
    def test_trace_phase_below_the_bound_is_rejected(self, tmp_path, capsys, command, schedule):
        # a second-order trace weighs g^4: at g = 1e-80 D printed
        # 1.414555006232e-160 (1.414213562373e-160), below that 0.0, and at
        # 1e-201 every arm read "none", all with exit 0
        g_max, g_min = schedule[0], schedule[-1]
        message = (
            f"qubit pointer: smallest coupling phase {g_min} is below 1e-70: a second-order "
            "weak trace underflows\n"
        )
        flags = ["--g-max", g_max, "--g-min", g_min, "--points", "5"]
        assert main([command, "--preset", "nested-mzi", *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: " + message)
        # the same schedule in the file is a diagnostic at its value
        text = load_corpus_text("nested_mzi_presence") + f"g_schedule = {', '.join(schedule)}\n"
        path = tmp_path / "tiny.scn"
        path.write_text(text)
        assert main([command, str(path)]) == 1
        line = len(text.splitlines())
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{path}:{line}:14: error: {message}")

    def test_trace_at_the_phase_bound_is_accurate(self, capsys):
        flags = ["--g-max", "1e-60", "--g-min", "1e-70", "--points", "11"]
        assert main(["trace", "--preset", "nested-mzi", *flags]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert "D,1.000000000000e-70,1.414213562373e-140" in rows


class TestSweepAndLimits:
    @pytest.fixture
    def no_generator(self, monkeypatch):
        def refuse(model):
            raise AssertionError("a fixed-point sweep builds no pointer generator")

        for module in (pointer, limits, cli):
            monkeypatch.setattr(module, "translation_generator", refuse, raising=False)

    @staticmethod
    def _all_zero_rows(out: str) -> None:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 9
        for row in rows:  # an exact fixed point, with the all-floor sentinel order
            assert row[1:] == ["0.000000000000e0", "inf", "0.000000000000e0",
                               "0.000000000000e0"]

    def test_eigenvalue_zero_sweep_reports_all_floor(self, capsys, no_generator):
        assert main(["sweep", "--preset", "eigenvalue-zero"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "g,metric,fitted_order,fitted_coefficient,fit_residual"
        self._all_zero_rows(out)

    @pytest.mark.parametrize("spread,n_points", [("0.7", None), ("1.3", "128")])
    def test_kernel_overlap_deficit_is_exactly_zero(self, tmp_path, capsys, spread, n_points):
        # 1 - |<Psi0|Psi0>| rounded below zero on these pointers, and the
        # negative value failed the whole sweep with exit 2
        lines = []
        for line in load_corpus_text("eigenvalue_zero").splitlines():
            if line.startswith("half_width"):
                continue  # the default, 12 spreads
            line = {"metric = continuity": "metric = overlap_deficit",
                    "spread = 1.0": f"spread = {spread}"}.get(line, line)
            if n_points is not None and line.startswith("n_points"):
                line = f"n_points = {n_points}"
            lines.append(line)
        path = tmp_path / "kernel.scn"
        path.write_text("\n".join(lines) + "\n")
        assert main(["sweep", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        self._all_zero_rows(captured.out)

    def test_kernel_sweep_on_the_largest_grid(self, tmp_path, capsys, no_generator):
        # a dense generator of this grid alone would be 256 MiB
        text = load_corpus_text("eigenvalue_zero").replace("n_points = 256", "n_points = 4096")
        assert "n_points = 4096" in text
        path = tmp_path / "kernel4096.scn"
        path.write_text(text)
        tracemalloc.start()
        try:
            code = main(["sweep", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20
        captured = capsys.readouterr()
        assert captured.err == ""
        self._all_zero_rows(captured.out)

    def test_benchmark_kernel_sweeps_are_exact_zeros(self, tmp_path, capsys, no_generator):
        # every kernel sweep of the benchmark's grid-sweeps pool rounds 0-3
        kernel = [case for index in range(4)
                  for case in outdiff().scenarios.pool_round("grid-sweeps", index)
                  if case.command == "sweep" and case.expect["order"] == "none"]
        assert kernel
        path = tmp_path / "kernel.scn"
        for case in kernel:
            path.write_text(case.text, encoding="utf-8")
            assert main(["sweep", str(path)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            self._all_zero_rows(captured.out)

    def test_compare_limits_preset(self, capsys):
        assert main(["compare-limits", "--preset", "compare-limits"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "branch,parameter,estimate,deviation,analytic"
        branches = [line.split(",")[0] for line in lines[1:]]
        assert branches == ["g_to_zero"] * 5 + ["spread_to_infinity"] * 5
        finest_g = lines[5].split(",")
        assert float(finest_g[3]) <= 1e-3
        # spread rows are parameter-descending, so deviations grow downward
        spread_devs = [float(line.split(",")[3]) for line in lines[6:]]
        assert spread_devs == sorted(spread_devs)
        assert spread_devs[0] <= 1e-3

    def test_compare_limits_reads_the_pointer_grid(self, tmp_path, capsys):
        from tsvflab.limits import compare_limits
        from tsvflab.scenario import load_corpus
        from tsvflab.weakmeas import PrePostSelection

        text = load_corpus_text("compare_limits_demo").replace(
            "n_points = 256", "n_points = 512"
        ).replace("half_width = 24.0", "half_width = 48.0")
        path = tmp_path / "fine.scn"
        path.write_text(text)
        assert main(["compare-limits", str(path)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        doc = load_corpus("compare_limits_demo")
        plan = doc.experiment
        expected = compare_limits(
            PrePostSelection(doc.states["up_x"], doc.states["up_z"]),
            doc.operators["splus"],
            spread_schedule=plan.spread_schedule,
            g_schedule=plan.g_schedule,
            fixed_spread=plan.fixed_spread,
            fixed_coupling=plan.fixed_g,
            n_points=512,
        )
        points = list(expected.coupling_branch) + sorted(
            expected.spread_branch, key=lambda p: -p.parameter
        )
        assert [row[1:4] for row in rows] == [
            [sci12(p.parameter), fmt_complex(p.estimate), sci12(p.deviation)] for p in points
        ]


class TestDeterminismAndIO:
    def test_byte_identical_runs(self, capsys):
        main(["presence", "--preset", "nested-mzi"])
        first = capsys.readouterr().out
        main(["presence", "--preset", "nested-mzi"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "result.csv"
        assert main(["weakvalue", "--preset", "spin-sz", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("observable,")

    def test_scenario_file_runs(self, tmp_path, capsys):
        path = tmp_path / "spin.scn"
        path.write_text(load_corpus_text("spin_sz"))
        assert main(["weakvalue", str(path)]) == 0
        assert capsys.readouterr().out.startswith("observable,")


class TestFailureModes:
    def test_unparsable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.scn"
        path.write_text("tsvf-scenario v1\n[state v]\namps = 1, 0.5+\n")
        assert main(["weakvalue", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no partial CSV on stdout
        assert "malformed complex literal" in captured.err
        assert "3:11" in captured.err

    def test_missing_file(self, capsys):
        assert main(["weakvalue", "nosuch.scn"]) == 1
        assert capsys.readouterr().out == ""

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "x.scn"
        path.write_bytes(b"tsvf-scenario v1\n# caf\xe9\n")
        assert main(["weakvalue", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: 'utf-8' codec can't decode byte 0xe9 in position 22: "
            "invalid continuation byte\n"
        )

    def test_directory_as_file(self, tmp_path, capsys):
        # pathlib drops the trailing slash from the name in the message
        assert main(["weakvalue", f"{tmp_path}/"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"{tmp_path}/: [Errno 21] Is a directory: '{tmp_path}'\n"
        )

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_cr_line_ends_read_as_lf(self, tmp_path, capsys, newline):
        text = load_corpus_text("spin_sz")
        assert main(["weakvalue", "--preset", "spin-sz"]) == 0
        expected = capsys.readouterr()
        path = tmp_path / "crlf.scn"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        assert main(["weakvalue", str(path)]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, where):
        target = tmp_path / "absent" / "x.csv" if where == "missing-dir" else tmp_path
        assert main(["weakvalue", "--preset", "spin-sz", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
        assert captured.err == f"error: {target}: {reason}\n"

    def test_no_input(self, capsys):
        assert main(["weakvalue"]) == 1
        assert "preset" in capsys.readouterr().err

    def test_plan_mismatch(self, capsys):
        assert main(["sweep", "--preset", "spin-sz"]) == 1
        assert "does not fit" in capsys.readouterr().err

    def test_runtime_dark_detector_exit_2(self, tmp_path, capsys):
        path = tmp_path / "dark.scn"
        path.write_text(DARK_NETWORK_SCENARIO)
        assert main(["trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dark" in captured.err

    def test_validation_error_exit_1(self, tmp_path, capsys):
        text = load_corpus_text("spin_sz").replace(
            "g_schedule = 0.04, 0.02, 0.01, 0.005, 0.0025",
            "g_schedule = 0.01, 0.02",
        )
        path = tmp_path / "bad.scn"
        path.write_text(text)
        assert main(["weakvalue", str(path)]) == 1
        assert "schedule must decrease" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,name,key,value,needle",
        [
            ("sweep", "eigenvalue_zero", "g_schedule", "0.01, 0.008, 0.006, 0.004",
             "schedule must span at least one decade"),
            ("presence", "nested_mzi_presence", "g_schedule", "0.01, 0.008, 0.006, 0.004",
             "schedule must span at least one decade"),
            ("compare-limits", "compare_limits_demo", "spread_schedule", "4.0",
             "spread schedule needs at least 2 points"),
        ],
    )
    def test_schedule_rule_in_file_exit_1(
        self, tmp_path, capsys, command, name, key, value, needle
    ):
        lines = [
            line for line in load_corpus_text(name).splitlines()
            if not line.startswith(f"{key} =")
        ]
        path = tmp_path / "bad.scn"
        path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the diagnostic sits on the value of the last line
        position = f"{len(lines) + 1}:{len(key) + 4}"
        assert f"{path}:{position}: error: {needle}" in captured.err

    def test_file_validated_as_the_plan_the_subcommand_runs(self, tmp_path, capsys):
        text = load_corpus_text("nested_mzi_presence").replace(
            "plan = presence", "plan = trace"
        ) + "g_schedule = 0.01, 0.005\n"
        path = tmp_path / "short.scn"
        path.write_text(text)
        assert main(["trace", str(path)]) == 0  # a trace reads any schedule
        capsys.readouterr()
        assert main(["presence", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        position = f"{len(text.splitlines())}:{len('g_schedule = ') + 1}"
        assert f"{path}:{position}: error: schedule needs at least 4 points" in captured.err

    def test_sub_decade_flags_stay_runtime_errors(self, capsys):
        argv = ["sweep", "--preset", "eigenvalue-zero", "--g-max", "1e-2", "--g-min", "5e-3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: schedule must span at least one decade" in captured.err

    @pytest.mark.parametrize("command,code", [("trace", 0), ("presence", 2)])
    def test_flag_schedule_follows_the_plan_rules(self, capsys, command, code):
        # a trace reads any schedule; a presence fit needs 4 points
        argv = [command, "--preset", "nested-mzi", "--points", "2",
                "--g-max", "1e-2", "--g-min", "1e-3"]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 0:
            assert len(captured.out.splitlines()) == 1 + 6 * 2
        else:
            assert captured.out == ""
            assert "error: schedule needs at least 4 points" in captured.err

    def test_points_flag_bounded_before_the_schedule_is_built(self, capsys):
        import tracemalloc

        tracemalloc.start()
        try:
            code = main(["trace", "--preset", "nested-mzi", "--points", str(10**9)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 8 * 2**20
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: schedule allows at most 1024 points\n"

    @pytest.mark.parametrize("command", ["trace", "presence"])
    @pytest.mark.parametrize("flag", [["--g-max", "inf"], ["--g-min", "nan"]])
    def test_non_finite_flag_schedule_exit_2(self, capsys, command, flag):
        assert main([command, "--preset", "nested-mzi"] + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: schedule points must be finite\n"

    def test_calls_share_no_flags(self, tmp_path, capsys):
        # the parser is built once per process; each call parses afresh
        path = tmp_path / "own.scn"
        path.write_text(
            load_corpus_text("nested_mzi_presence").replace("plan = presence", "plan = trace")
            + "g_schedule = 0.01, 0.005\n"
        )
        argv = ["trace", str(path), "--g-max", "0.3", "--g-min", "0.03", "--points", "3"]
        assert main(argv) == 0
        flagged = capsys.readouterr().out.splitlines()[1:]
        assert {row.split(",")[1] for row in flagged} == {
            "3.000000000000e-1", "9.486832980505e-2", "3.000000000000e-2"
        }
        assert main(["trace", str(path)]) == 0
        plain = capsys.readouterr().out.splitlines()[1:]
        assert {row.split(",")[1] for row in plain} == {"1.000000000000e-2", "5.000000000000e-3"}
        with pytest.raises(SystemExit) as usage:
            main(["trace", str(path), "--points", "many"])
        assert usage.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err
        assert main(["trace", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["g"] == "1.000000000000e-2"

    def test_spread_out_of_range_exit_1(self, tmp_path, capsys):
        # the plan builds every pointer of the run, one per spread
        text = load_corpus_text("compare_limits_demo").replace(
            "spread_schedule = 1.0, 2.0, 4.0, 8.0, 16.0", "spread_schedule = 1.0, 1e200"
        )
        path = tmp_path / "wide.scn"
        path.write_text(text)
        assert main(["compare-limits", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line = text.splitlines().index("spread_schedule = 1.0, 1e200") + 1
        assert captured.err == (
            f"{path}:{line}:{len('spread_schedule = ') + 1}: error: compare_limits pointer "
            "at spread 1e+200: spread must lie in [1e-100, 1e100]\n"
        )

    def test_unresolved_limit_pointer_exit_1(self, tmp_path, capsys):
        # the file's own grid resolves its spread, but the pointers the run
        # builds span 12 spreads each side: 64 points cannot resolve them
        text = load_corpus_text("compare_limits_demo").replace(
            "n_points = 256", "n_points = 64"
        ).replace("half_width = 24.0", "half_width = 16.0")
        path = tmp_path / "coarse.scn"
        path.write_text(text)
        assert main(["compare-limits", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line = text.splitlines().index("n_points = 64") + 1
        assert captured.err == (
            f"{path}:{line}:{len('n_points = ') + 1}: error: compare_limits pointer at "
            "spread 2.0: grid spacing 0.75 does not resolve the wavepacket: "
            "need spacing <= spread / 4\n"
        )

    def test_non_finite_phase_exit_1(self, tmp_path, capsys):
        text = load_corpus_text("nested_mzi_presence").replace(
            "seq = slice SRC:0\n", "seq = slice SRC:0\nseq = phase_shift 0 inf\n"
        )
        path = tmp_path / "inf.scn"
        path.write_text(text)
        assert main(["trace", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line = text.splitlines().index("seq = phase_shift 0 inf") + 1
        column = len("seq = phase_shift 0 ") + 1
        assert f"{path}:{line}:{column}: error: malformed number 'inf'" in captured.err

    @staticmethod
    def _spin_sz(tmp_path, *edits) -> tuple:
        """A copy of spin_sz.scn with each (old, new) edit, and its path."""
        text = load_corpus_text("spin_sz")
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "spin.scn"
        path.write_text(text)
        return text, path

    def test_wrapping_shift_exit_1_at_the_schedule(self, tmp_path, capsys):
        # a shift of 30 carries the tails of a spread-2 pointer, 8 spreads
        # out, around a grid 24 wide; the run printed 1.358 for the weak value 1
        text, path = self._spin_sz(
            tmp_path,
            ("pre = up_x\npost = up_z", "pre = up_z\npost = up_x"),
            ("g_schedule = 0.04, 0.02, 0.01, 0.005, 0.0025", "g_schedule = 30, 20, 10, 1"),
        )
        assert main(["weakvalue", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line = text.splitlines().index("g_schedule = 30, 20, 10, 1") + 1
        assert captured.err == (
            f"{path}:{line}:{len('g_schedule = ') + 1}: error: pointer at spread 2.0: largest "
            "shift 30.0 (g_max max|lambda|) plus 8 spreads exceeds half_width 24.0: it wraps "
            "around the grid\n"
        )
        # the same schedule from the flags is an error of the flags
        argv = ["weakvalue", "--preset", "spin-sz", "--g-max", "30", "--g-min", "1"]
        assert main(argv + ["--points", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pointer at spread 2.0: largest shift 30.0")
        # a g_max next to the largest float overflowed inside the geometric
        # schedule, and numpy warned before this one line
        g_max = "1.7976931348622103e+308"
        assert main(["weakvalue", "--preset", "spin-sz", "--g-max", g_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: pointer at spread 2.0: largest shift {g_max} (g_max max|lambda|) plus 8 "
            "spreads exceeds half_width 24.0: it wraps around the grid\n"
        )

    @pytest.mark.parametrize("spread,code", [("1e8", 0), ("1e12", 1), ("1e14", 1)])
    def test_unresolved_shift_exit_1_at_the_schedule(self, tmp_path, capsys, spread, code):
        # on a grid 12 spreads wide, <Q>'s roundoff eps * half_width hides a
        # smallest shift of 0.0025; at 1e14 the run printed 0.504+0.700i for 1
        text, path = self._spin_sz(
            tmp_path, ("half_width = 24.0\n", ""), ("spread = 2.0", f"spread = {spread}")
        )
        assert main(["weakvalue", str(path)]) == code
        captured = capsys.readouterr()
        if code == 0:
            deviation = float(captured.out.splitlines()[1].split(",")[3])
            assert deviation < 1e-6
            return
        assert captured.out == ""
        line = text.splitlines().index("g_schedule = 0.04, 0.02, 0.01, 0.005, 0.0025") + 1
        assert captured.err.startswith(
            f"{path}:{line}:{len('g_schedule = ') + 1}: error: pointer at spread "
            f"{float(spread)!r}: readout roundoff "
        )
        assert captured.err.endswith(
            "(eps half_width) exceeds 0.01 of the smallest shift 0.0025 (g_min max|lambda|)\n"
        )

    @staticmethod
    def _qubit_sz(tmp_path, g_max: float) -> tuple:
        """spin_sz.scn read off a qubit pointer, on g_max 2**-i for i = 0..4."""
        schedule = ", ".join(repr(g_max / 2.0**i) for i in range(5))
        text = load_corpus_text("spin_sz")
        start, end = text.index("[pointer]"), text.index("[selection]")
        text = text[:start] + "[pointer]\nkind = qubit\n\n" + text[end:]
        line = "g_schedule = " + schedule
        text = text.replace("g_schedule = 0.04, 0.02, 0.01, 0.005, 0.0025", line)
        path = tmp_path / "qubit.scn"
        path.write_text(text)
        return text, path, line

    def test_resolved_qubit_readout_runs(self, tmp_path, capsys):
        # the smallest shift 6.25e-12 is 2.8e4 times eps: accepted
        _, path, _ = self._qubit_sz(tmp_path, 1e-10)
        assert main(["weakvalue", str(path)]) == 0
        deviation = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
        assert deviation < 1e-4

    @pytest.mark.parametrize(
        "g_max,least", [(1e-13, "6.25e-15"), (1e-15, "6.25e-17"), (1e-300, "6.25e-302")]
    )
    def test_unresolved_qubit_shift_exit_1_at_the_schedule(
        self, tmp_path, capsys, g_max, least
    ):
        # these printed deviations 2.1e-3 and 0.22 with exit 0, and at
        # 1e-300 a LAPACK message and "SVD did not converge" with exit 2
        text, path, line_text = self._qubit_sz(tmp_path, g_max)
        assert main(["weakvalue", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        line = text.splitlines().index(line_text) + 1
        assert captured.err == (
            f"{path}:{line}:{len('g_schedule = ') + 1}: error: qubit pointer: readout roundoff "
            f"2.22e-16 (eps) exceeds 0.0002 of the smallest shift {least} (g_min max|lambda|)\n"
        )
        # the same schedule from the flags is an error of the flags
        flags = ["--g-max", repr(g_max), "--g-min", least, "--points", "5"]
        assert main(["weakvalue", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: qubit pointer: readout roundoff 2.22e-16 (eps) exceeds 0.0002 of the "
            f"smallest shift {least} (g_min max|lambda|)\n"
        )
