#!/usr/bin/env python3
"""Record the CLI's output on every preset and benchmark case, and on edits
of chain networks that pin the reader's diagnostics; compare two records.

    PYTHONPATH=src python scripts/outdiff.py record > a.jsonl
    python scripts/outdiff.py compare a.jsonl b.jsonl

``record`` runs each case through ``tsvflab.cli.main`` in one process. It
writes a header naming ``OPENBLAS_NUM_THREADS`` and the ``tsvflab`` imported,
then one JSON line per case: exit code, stdout, stderr with the scenario
path masked, and any exception raised.  The environment (``PYTHONPATH``,
``OPENBLAS_NUM_THREADS``) decides what a record describes, so the same two
commands compare a parent tree with a change, or two BLAS thread counts.
Each Python warning a case raises, such as a numpy overflow, is caught
and appended to its stderr as the interpreter prints it, however often its
line warned before and whatever warning filters are in force.  A case
whose stderr holds a warning (``WARNING``), or a large-grid copy that does
not exit 0 with some stdout within ``LARGE_BUDGET_S``, makes ``record``
name it and exit 1.  ``compare`` exits 0 only if every case matches byte
for byte; at two thread counts the second-order sweeps
(``SECOND_ORDER``), whose digits still depend on it, are counted and
listed instead.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import time
import warnings
from pathlib import Path

sys.dont_write_bytecode = True  # nothing is written under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import scenarios  # noqa: E402

COMMANDS = ("weakvalue", "sweep", "trace", "presence", "compare-limits")
OTHER_CHAIN_COMMAND = {"presence": "trace", "trace": "presence"}
#: the presence-chains pool slots whose texts the network edits change
NETWORK_SLOTS = ("presence-k1-qubit-probe", "presence-k2-qubit-probe", "presence-k1-256-probe")
_BS, _PS = r"^(seq = beam_splitter) (\S+) (\S+) (\S+)$", r"^(seq = phase_shift) (\S+) (\S+)$"
_SLICE, _DETECTORS = r"^(seq = slice) (\w+):(\d+) (\w+):(\d+)$", r"^(detectors = )(\w+):(\d+), (\w+):(\d+)"
#: [network] edits as (name, pattern, replacement): the pattern's first match
#: in a chain text is replaced, ``{modes}`` standing for the network's modes;
#: each edit breaks one rule of the reader or of the network objects, but
#: the blank and tab edits, which must still read
NETWORK_EDITS = (
    ("bs-drop-arg", _BS, r"\1 \2 \3"), ("bs-extra-arg", _BS, r"\1 \2 \3 \4 0.5"),
    ("bs-t-inf", _BS, r"\1 \2 \3 inf"), ("bs-t-nan", _BS, r"\1 \2 \3 nan"),
    ("bs-t-1e999", _BS, r"\1 \2 \3 1e999"), ("bs-t-0_0", _BS, r"\1 \2 \3 0_0"),
    ("bs-t-0.0", _BS, r"\1 \2 \3 0.0"), ("bs-t-1.5", _BS, r"\1 \2 \3 1.5"),
    ("bs-mode-0_0", _BS, r"\1 0_0 \3 \4"), ("bs-mode-1.5", _BS, r"\1 \2 1.5 \4"),
    ("bs-mode-modes", _BS, r"\1 \2 {modes} \4"), ("bs-mode-negative", _BS, r"\1 -1 \3 \4"),
    ("bs-same-modes", _BS, r"\1 \2 \2 \4"), ("bs-long-int", _BS, r"\1 \2 " + "7" * 5000 + r" \4"),
    ("bs-keyword-case", _BS, r"seq = Beam_splitter \2 \3 \4"),
    ("bs-tabs", _BS, "\\1\t\\2\t\\3\t\\4"), ("bs-blanks", _BS, r"\1   \2  \3    \4"),
    ("bs-missing-value", _BS, "seq ="),
    ("ps-drop-arg", _PS, r"\1 \2"), ("ps-extra-arg", _PS, r"\1 \2 \3 1"),
    ("ps-phase-inf", _PS, r"\1 \2 inf"), ("ps-phase-nan", _PS, r"\1 \2 nan"),
    ("ps-phase-1e999", _PS, r"\1 \2 1e999"), ("ps-phase-0_0", _PS, r"\1 \2 0_0"),
    ("ps-mode-modes", _PS, r"\1 {modes} \3"), ("ps-mode-0.0", _PS, r"\1 0.0 \3"),
    ("slice-empty", _SLICE, r"\1"), ("slice-duplicate-label", _SLICE, r"\1 \2:\3 \2:\5"),
    ("slice-duplicate-mode", _SLICE, r"\1 \2:\3 \4:\3"),
    ("slice-mode-modes", _SLICE, r"\1 \2:{modes} \4:\5"),
    ("slice-malformed-arm", _SLICE, r"\1 \2-\3 \4:\5"), ("slice-no-mode", _SLICE, r"\1 \2: \4:\5"),
    ("slice-mode-1.5", _SLICE, r"\1 \2:1.5 \4:\5"), ("slice-bad-label", _SLICE, r"\1 9\2:\3 \4:\5"),
    ("unknown-step", _SLICE, r"seq = teleport 0 1\n\g<0>"),
    ("detector-mode-modes", _DETECTORS, r"\1\2:\3, \4:{modes}"),
    ("detector-duplicate-label", _DETECTORS, r"\1\2:\3, \2:\5"),
    ("detector-duplicate-mode", _DETECTORS, r"\1\2:\3, \4:\3"),
    ("detector-malformed", _DETECTORS, r"\1\2:\3, \4-\5"),
    ("detector-empty-item", _DETECTORS, r"\1\2:\3, , \4:\5"),
    ("detector-mode-0_0", _DETECTORS, r"\1\2:\3, \4:0_0"),
    ("source-modes", r"^source = 0$", "source = {modes}"),
    ("postselect-undeclared", r"^postselect = D1$", "postselect = D9"),
    ("modes-mismatch", r"^modes = \d+$", "modes = 99"),
    ("unknown-key", r"^postselect = D1$", "postselect = D1\nwires = 3"),
)
SECOND_ORDER = ("first_order_residual", "overlap_deficit")
LARGE_BUDGET_S = 20.0
MASK = "<scenario>"
#: what a shown Python warning prints: "<file>:<line>: RuntimeWarning: ..."
WARNING = "Warning: "


def _edit(text: str, *pairs: tuple[str, str]) -> str:
    for old, new in pairs:
        if old not in text:
            raise ValueError(f"{old!r} is not in the scenario text")
        text = text.replace(old, new)
    return text


def pool_cases(workload: str, index: int):
    """(name, argv, scenario text or None) of one pool round; a chain case
    runs again under the other chain command."""
    for slot, case in enumerate(scenarios.pool_round(workload, index)):
        name = f"{workload}/{index}/{slot}:{case.slot}"
        preset = [] if case.preset is None else ["--preset", case.preset]
        yield name, [case.command, *preset], case.text
        if workload == "presence-chains":
            other = OTHER_CHAIN_COMMAND[case.command]
            yield f"{name}/as-{other}", [other], case.text


def network_cases():
    """Each of NETWORK_EDITS applied to the first text of each of
    NETWORK_SLOTS in pool round 0, run under both chain commands."""
    texts = {}
    for case in scenarios.pool_round("presence-chains", 0):
        texts.setdefault(case.slot, case.text)
    for slot in NETWORK_SLOTS:
        modes = re.search(r"^modes = (\d+)$", texts[slot], re.M)[1]
        for name, pattern, replacement in NETWORK_EDITS:
            text, count = re.subn(pattern, replacement.replace("{modes}", modes), texts[slot], 1, re.M)
            if count != 1:
                raise ValueError(f"edit {name} does not apply to {slot}")
            for command in ("presence", "trace"):
                yield f"network/{slot}/{name}/{command}", [command], text


def large_cases():
    """The large-grid copies, each named for the LARGE_BUDGET_S check."""
    from tsvflab.scenario import load_corpus_text

    n4096 = ("n_points = 256\n", "n_points = 4096\n")
    [dim16] = [case for case in scenarios.pool_round("grid-sweeps", 28)
               if case.slot == "weakvalue-3obs-128" and "dim = 16\n" in case.text]
    # 8 points give 3 x 8 (observable, g) rows of 16 x 4096 phase terms: two phase blocks
    yield ("large/grid28-dim16-4096-points8", ["weakvalue", "--points", "8"],
           _edit(dim16.text, ("n_points = 128\n", "n_points = 4096\n")))
    yield ("large/spin_splus_sminus-4096", ["weakvalue"],
           _edit(load_corpus_text("spin_splus_sminus"), n4096))
    yield ("large/compare_limits_demo-4096", ["compare-limits"],
           _edit(load_corpus_text("compare_limits_demo"), n4096))
    kernel = _edit(load_corpus_text("eigenvalue_zero"), n4096)
    yield "large/eigenvalue_zero-4096", ["sweep"], kernel
    for metric in ("continuity", "derail"):
        yield (f"large/eigenvalue_zero-up_x-{metric}-4096", ["sweep"],
               _edit(kernel, ("pre = up_z\n", "pre = up_x\n"),
                     ("metric = continuity\n", f"metric = {metric}\n")))


def preset_cases():
    for command in COMMANDS:
        for preset in scenarios.PRESETS:
            for fmt in ("csv", "json"):
                yield (f"preset/{command}/{preset}/{fmt}",
                       [command, "--preset", preset, "--format", fmt], None)


def all_cases():
    yield from preset_cases()
    for workload in scenarios.WORKLOADS:
        for index in range(scenarios.POOL_ROUNDS[workload]):
            yield from pool_cases(workload, index)
    yield from network_cases()
    yield from large_cases()


def run(main, argv: list[str], text: str | None, path: Path) -> dict:
    """One case through ``main``: rc, stdout, masked stderr with the
    warnings raised appended, any exception raised."""
    if text is not None:
        path.write_text(text, encoding="utf-8")
        argv = [argv[0], str(path), *argv[1:]]
    out, err, raised = io.StringIO(), io.StringIO(), None
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # the case's failure, not the tool's
            rc, raised = None, f"{type(exc).__name__}: {exc}".replace(str(path), MASK)
    for w in shown:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    stderr = err.getvalue().replace(str(path), MASK)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": stderr, "raised": raised}


def record(cases, sink) -> int:
    """Write the header and one line per case to ``sink``; 1 if a large
    copy did not exit 0 with some stdout within LARGE_BUDGET_S, or a case
    raised a Python warning, else 0; each such case is named on stderr."""
    import tsvflab
    from tsvflab.cli import main

    header = {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
              "tsvflab": str(Path(tsvflab.__file__).parent)}
    sink.write(json.dumps(header) + "\n")
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "case.scn"
        for name, argv, text in cases:
            start = time.perf_counter()
            result = run(main, argv, text, path)
            seconds = time.perf_counter() - start
            sink.write(json.dumps({"case": name, **result}) + "\n")
            ok = result["rc"] == 0 and result["stdout"] and seconds <= LARGE_BUDGET_S
            if name.startswith("large/") and not ok:
                print(f"large copy failed: {name}, rc {result['rc']}, {seconds:.1f} s",
                      file=sys.stderr)
                failed = 1
            if WARNING in result["stderr"]:
                print(f"Python warning in: {name}", file=sys.stderr)
                failed = 1
    return failed


def _load(path: str) -> tuple[dict, dict[str, dict]]:
    with open(path, encoding="utf-8") as fh:
        header, *lines = map(json.loads, fh)
    return header, {line.pop("case"): line for line in lines}


def _first_differences(a: dict, b: dict):
    for key in a:
        if a[key] != b[key]:
            lines_a, lines_b = (str(value).splitlines(True) + [""] for value in (a[key], b[key]))
            line = next(i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y)
            yield f"  {key} line {line + 1}: {lines_a[line]!r} -> {lines_b[line]!r}"


def compare(path_a: str, path_b: str) -> int:
    """Print each differing case and a summary line; 0 if none differs."""
    (header_a, a), (header_b, b) = _load(path_a), _load(path_b)
    threads = header_a["OPENBLAS_NUM_THREADS"], header_b["OPENBLAS_NUM_THREADS"]
    print(f"A: {header_a}\nB: {header_b}")
    names, differ, blas = sorted(a.keys() | b.keys()), 0, []
    for name in names:
        if name not in a or name not in b:
            print(f"only in {'A' if name in a else 'B'}: {name}")
        elif a[name] == b[name]:
            continue
        elif threads[0] != threads[1] and any(f"sweep-{m}-" in name for m in SECOND_ORDER):
            blas.append(name)
            continue
        else:
            print(f"differs: {name}", *_first_differences(a[name], b[name]), sep="\n")
        differ += 1
    for name in blas:
        print(f"BLAS-dependent: {name}")
    print(f"{len(names)} cases compared: {differ} differ, {len(blas)} BLAS-dependent "
          f"(OPENBLAS_NUM_THREADS {threads[0]} vs {threads[1]})")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if argv == ["record"]:
        return record(all_cases(), sys.stdout)
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print("usage: outdiff.py record | outdiff.py compare A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
