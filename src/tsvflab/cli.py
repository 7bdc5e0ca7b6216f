"""Command-line front end: run scenario files or shipped presets.

Output is deterministic: fixed column orders, arms alphabetical, g
descending, and numbers rendered in fixed 12-digit scientific notation
(complex values as ``re+imi``).  Data goes to standard output (or
``--out``); diagnostics go to standard error.  Exit codes: 0 success,
1 diagnostics of the file, from parsing or planning the run, 2 errors
in the flags or at run time, such as a dark detector or an ``--out`` path
that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

from . import interferometer, limits, scenario, weakmeas
from .errors import DarkDetectorError, UnclassifiedOrderError

PRESETS = {
    "spin-sz": "spin_sz",
    "spin-splus-sminus": "spin_splus_sminus",
    "spin-flipped": "spin_flipped",
    "eigenvalue-zero": "eigenvalue_zero",
    "nested-mzi": "nested_mzi_presence",
    "compare-limits": "compare_limits_demo",
}


def _format_table(rows: list[list]) -> list[list[str]]:
    """The cells as text in one pass: a string as it is, a real in fixed
    12-digit scientific notation with a bare exponent (1.5e-3; -0.0 as 0),
    a complex value as ``re+imi``.  One %-format writes every cell and three
    replacements trim the exponents; string cells (names, classes) hold no
    '%', '+' or '-'."""
    if not rows:
        return []
    slots, numbers = [], []
    for row in rows:
        for cell in row:
            if isinstance(cell, str):
                slots.append(cell)
            elif isinstance(cell, complex):
                imag = cell.imag + 0.0
                slots.append("%.12e-%.12ei" if imag < 0 else "%.12e+%.12ei")
                numbers += (cell.real + 0.0, abs(imag))
            else:
                slots.append("%.12e")
                numbers.append(float(cell) + 0.0)
    text = "\0".join(slots) % tuple(numbers)
    cells = text.replace("e+0", "e").replace("e+", "e").replace("e-0", "e-").split("\0")
    width = len(rows[0])
    return [cells[start : start + width] for start in range(0, len(cells), width)]


def _emit_csv(header: list[str], rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _emit_json(header: list[str], rows: list[list[str]]) -> str:
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _run_weakvalue(plan):
    names, ops = zip(*plan.observables)
    analytic = [weakmeas.weak_value(plan.selection, op) for op in ops]
    estimates = weakmeas.estimate_weak_values(plan.selection, ops, plan.pointer, plan.g_schedule)
    rows = [
        [name, w, e.value, abs(e.value - w), e.extrapolation_residual]
        for name, w, e in zip(names, analytic, estimates)
    ]
    return ["observable", "analytic", "numeric", "deviation", "residual"], rows


#: the metric table, by the name the benchmark's tracer self-test reads
_METRFN = limits.METRICS


def _run_sweep(plan):
    [(_, op)] = plan.observables
    result = limits.sweep_coupling(
        plan.metric, plan.selection, op, plan.pointer, plan.g_schedule
    )
    fit = (result.fitted_order, result.fitted_coefficient, result.fit_residual)
    values = zip(result.g_values, result.metric_values)
    rows = [[g, v, *fit] for g, v in values]
    return ["g", "metric", "fitted_order", "fitted_coefficient", "fit_residual"], rows


def _run_trace(plan):
    gs = plan.g_schedule
    sweeps = interferometer.weak_trace_sweeps(plan.network, plan.arms, plan.pointer, gs)
    rows = [[arm, g, v] for arm, values in sweeps for g, v in zip(gs, values)]
    return ["arm", "g", "trace"], rows


def _run_presence(plan):
    report = interferometer.classify_presence(
        plan.network, plan.arms, plan.pointer, plan.g_schedule
    )
    rows = [[arm, p.leading_order, p.classification] for arm, p in report.entries]
    return ["arm", "leading_order", "classification"], rows


def _run_compare_limits(plan):
    [(_, op)] = plan.observables
    comparison = limits.compare_limits(
        plan.selection, op, g_schedule=plan.g_schedule, fixed_coupling=plan.fixed_g,
        pointers=(plan.pointer, *plan.spread_pointers),
    )
    analytic = complex(comparison.analytic)
    branches = (
        ("g_to_zero", comparison.coupling_branch),
        ("spread_to_infinity", sorted(comparison.spread_branch, key=lambda p: -p.parameter)),
    )
    rows = [
        [branch, p.parameter, complex(p.estimate), p.deviation, analytic]
        for branch, points in branches
        for p in points
    ]
    return ["branch", "parameter", "estimate", "deviation", "analytic"], rows


#: subcommand -> (help, the scenario plans it runs, runner); a file of any
#: of those plans runs as the first, the one the subcommand runs
_COMMANDS = {
    "weakvalue": ("analytic and numeric weak values", ("weakvalue",), _run_weakvalue),
    "sweep": ("metric vs g table with its fitted order", ("sweep",), _run_sweep),
    "trace": ("per-arm weak traces", ("trace", "presence"), _run_trace),
    "presence": (
        "primary/secondary presence classification", ("presence", "trace"), _run_presence
    ),
    "compare-limits": (
        "g -> 0 vs spread -> infinity trajectories", ("compare_limits",), _run_compare_limits
    ),
}


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of every ``main`` call and each subcommand's, built on the
    first call rather than at import; parsing leaves no state in them."""
    parser = argparse.ArgumentParser(
        prog="tsvflab",
        description="Weak-value laboratory: run scenario files or shipped presets.",
    )
    sub, commands = parser.add_subparsers(dest="command", required=True), {}
    for name, (help_text, _, _) in _COMMANDS.items():
        cmd = commands[name] = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", nargs="?", help="scenario (.scn) file")
        cmd.add_argument(
            "--preset", choices=sorted(PRESETS), help="run a shipped scenario instead"
        )
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--g-min", type=float, default=None)
        cmd.add_argument("--g-max", type=float, default=None)
        cmd.add_argument("--points", type=int, default=None)
        cmd.add_argument("--out", default=None, help="write output here instead of stdout")
    return parser, commands


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """``parse_args(argv)`` of the main parser, in one argparse pass instead
    of two for a call that the subcommand's parser accepts whole: the main
    parser would only hand all after the subcommand to that parser and add
    the command's name.  Any other call goes through the main parser."""
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _load_plan(args, plans: tuple[str, ...]) -> tuple:
    """(the run plan or None, the messages for standard error, the exit
    code when None); the document's plan must be one of ``plans`` and runs
    as the first of them."""
    if args.preset is not None:
        text = scenario.load_corpus_text(PRESETS[args.preset])
        source = args.preset
    elif args.file is not None:
        source = args.file
        try:  # bytes, as the scanner cuts \r\n and \r itself
            text = Path(args.file).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as err:
            return None, [f"{source}: {err}"], 1
    else:
        return None, ["provide a scenario file or --preset"], 1
    parsed = scenario.parse(text)
    messages = [f"{source}:{d}" for d in parsed.diagnostics]
    if not parsed.ok:
        return None, messages, 1
    kind = parsed.doc.experiment.kind
    if kind not in plans:
        mismatch = f"scenario plan {kind!r} does not fit subcommand {args.command!r}"
        return None, [*messages, mismatch], 1
    flags = {"g_max": args.g_max, "g_min": args.g_min, "points": args.points}
    planned = scenario.plan(parsed.doc, plans[0], flags)
    messages += [f"{source}:{d}" for d in planned.diagnostics]
    if planned.flag_error is not None:
        return None, messages + [f"error: {planned.flag_error}"], 2
    return planned.plan, messages, 1


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    _, plans, run = _COMMANDS[args.command]
    plan, messages, code = _load_plan(args, plans)
    for message in messages:
        print(message, file=sys.stderr)
    if plan is None:
        return code

    try:
        header, rows = run(plan)
    except (DarkDetectorError, UnclassifiedOrderError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    rows = _format_table(rows)
    text = _emit_csv(header, rows) if args.format == "csv" else _emit_json(header, rows)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as err:
        print(f"error: {args.out}: {err.strerror or err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
