"""Command-line front end: run scenario files or shipped presets.

Output is deterministic: fixed column orders, arms alphabetical, g
descending, and numbers rendered in fixed 12-digit scientific notation
(complex values as ``re+imi``).  Data goes to standard output (or
``--out``); diagnostics go to standard error.  Exit codes: 0 success,
1 parse/validation diagnostics, 2 runtime errors such as a dark detector
or an ``--out`` path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import interferometer, limits, scenario, weakmeas
from .errors import DarkDetectorError, UnclassifiedOrderError
from .pointer import initial_state, translation_generator
from .schedule import default_g_decade
from .weakmeas import PrePostSelection

PRESETS = {
    "spin-sz": "spin_sz",
    "spin-splus-sminus": "spin_splus_sminus",
    "spin-flipped": "spin_flipped",
    "eigenvalue-zero": "eigenvalue_zero",
    "nested-mzi": "nested_mzi_presence",
    "compare-limits": "compare_limits_demo",
}


def sci12(x: float) -> str:
    """Fixed 12-digit scientific notation with a bare exponent (1.5e-3 style)."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        x = 0.0  # normalize -0.0
    mantissa, _, exponent = f"{x:.12e}".partition("e")
    return f"{mantissa}e{int(exponent)}"


def fmt_complex(z: complex) -> str:
    z = complex(z)
    imag = z.imag + 0.0
    sign = "-" if imag < 0 else "+"
    return f"{sci12(z.real)}{sign}{sci12(abs(imag))}i"


def _emit_csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit_json(header: list[str], rows: list[list[str]]) -> str:
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def _g_schedule(args, doc):
    """The g-schedule by precedence: the --g-max/--g-min/--points flags (a
    geometric schedule, unset flags at ``default_g_decade``'s defaults,
    checked by the rules of the plan the subcommand runs), then the
    scenario's ``g_schedule``, else None for the library's own default."""
    flags = {"g_max": args.g_max, "g_min": args.g_min, "points": args.points}
    flags = {key: value for key, value in flags.items() if value is not None}
    if flags:
        return default_g_decade(**flags, **scenario.g_schedule_rules(doc.experiment.kind))
    return doc.experiment.g_schedule


def _selection(doc) -> PrePostSelection:
    pre, post = doc.selection
    return PrePostSelection(doc.states[pre], doc.states[post])


def _run_weakvalue(doc, args):
    sel = _selection(doc)
    schedule = _g_schedule(args, doc)
    header = ["observable", "analytic", "numeric", "deviation", "residual"]
    rows = []
    for name in sorted(doc.experiment.observables):
        op = doc.operators[name]
        analytic = weakmeas.weak_value(sel, op)
        estimate = weakmeas.estimate_weak_value(sel, op, doc.pointer, schedule)
        rows.append(
            [
                name,
                fmt_complex(analytic),
                fmt_complex(estimate.value),
                sci12(abs(estimate.value - analytic)),
                sci12(estimate.extrapolation_residual),
            ]
        )
    return header, rows


_METRFN = limits.METRICS


def _run_sweep(doc, args):
    sel = _selection(doc)
    op = doc.operators[doc.experiment.observables[0]]
    metric_fn = _METRFN[doc.experiment.metric]
    ready = initial_state(doc.pointer)
    generator = translation_generator(doc.pointer)
    schedule = _g_schedule(args, doc)
    result = limits.sweep_metric(
        lambda g: metric_fn(sel.pre, ready, op, generator, g), schedule
    )
    header = ["g", "metric", "fitted_order", "fitted_coefficient", "fit_residual"]
    order = sci12(result.fitted_order)
    rows = [
        [sci12(g), sci12(v), order, sci12(result.fitted_coefficient), sci12(result.fit_residual)]
        for g, v in zip(result.g_values, result.metric_values)
    ]
    return header, rows


def _network_arms(doc) -> list[str]:
    arms = doc.experiment.arms or doc.network.arm_labels
    return sorted(arms)


def _run_trace(doc, args):
    schedule = _g_schedule(args, doc) or default_g_decade()
    sweeps = interferometer.weak_trace_sweeps(
        doc.network, _network_arms(doc), doc.pointer, schedule
    )
    header = ["arm", "g", "trace"]
    rows = [
        [arm, sci12(g), sci12(v)] for arm, values in sweeps for g, v in zip(schedule, values)
    ]
    return header, rows


def _run_presence(doc, args):
    # perfbench's tracer counts the trace points from this argument
    schedule = _g_schedule(args, doc) or default_g_decade()
    report = interferometer.classify_presence(
        doc.network, _network_arms(doc), doc.pointer, schedule
    )
    header = ["arm", "leading_order", "classification"]
    rows = [[arm, sci12(p.leading_order), p.classification] for arm, p in report.entries]
    return header, rows


def _run_compare_limits(doc, args):
    sel = _selection(doc)
    op = doc.operators[doc.experiment.observables[0]]
    plan = doc.experiment
    kwargs = {"n_points": doc.pointer.n_points}
    if plan.spread_schedule is not None:
        kwargs["spread_schedule"] = plan.spread_schedule
    if plan.fixed_spread is not None:
        kwargs["fixed_spread"] = plan.fixed_spread
    if plan.fixed_g is not None:
        kwargs["fixed_coupling"] = plan.fixed_g
    g_schedule = _g_schedule(args, doc)
    comparison = limits.compare_limits(sel, op, g_schedule=g_schedule, **kwargs)
    header = ["branch", "parameter", "estimate", "deviation", "analytic"]
    analytic = fmt_complex(comparison.analytic)
    branches = (
        ("g_to_zero", comparison.coupling_branch),
        ("spread_to_infinity", sorted(comparison.spread_branch, key=lambda p: -p.parameter)),
    )
    rows = [
        [branch, sci12(p.parameter), fmt_complex(p.estimate), sci12(p.deviation), analytic]
        for branch, points in branches
        for p in points
    ]
    return header, rows


#: subcommand -> (help, the scenario plans it runs, runner); it validates a
#: file by the rules of its first plan, the one it runs
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
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in the process, built on the first
    rather than at import; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="tsvflab",
        description="Weak-value laboratory: run scenario files or shipped presets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", nargs="?", help="scenario (.scn) file")
        cmd.add_argument(
            "--preset", choices=sorted(PRESETS), help="run a shipped scenario instead"
        )
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        cmd.add_argument("--g-min", type=float, default=None)
        cmd.add_argument("--g-max", type=float, default=None)
        cmd.add_argument("--points", type=int, default=None)
        cmd.add_argument("--out", default=None, help="write output here instead of stdout")
    return parser


def _load_document(args, plans: tuple[str, ...]) -> tuple:
    """(the validated document or None, the messages for standard error);
    the document's plan must be one of ``plans`` and is validated as the
    first of them."""
    if args.preset is not None:
        text = scenario.load_corpus_text(PRESETS[args.preset])
        source = args.preset
    elif args.file is not None:
        source = args.file
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            return None, [f"{source}: {err}"]
    else:
        return None, ["provide a scenario file or --preset"]
    parsed = scenario.parse(text)
    messages = [f"{source}:{d}" for d in parsed.diagnostics]
    if not parsed.ok:
        return None, messages
    kind = parsed.doc.experiment.kind
    if kind not in plans:
        return None, messages + [
            f"scenario plan {kind!r} does not fit subcommand {args.command!r}"
        ]
    experiment = replace(parsed.doc.experiment, kind=plans[0])
    checked = scenario.validate_semantics(replace(parsed.doc, experiment=experiment))
    return checked.doc, messages + [f"{source}:{d}" for d in checked.diagnostics]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _, plans, run = _COMMANDS[args.command]
    doc, messages = _load_document(args, plans)
    for message in messages:
        print(message, file=sys.stderr)
    if doc is None:
        return 1

    try:
        header, rows = run(doc, args)
    except (DarkDetectorError, UnclassifiedOrderError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

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
