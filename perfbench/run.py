"""tsvflab benchmark: generated scenario workloads through the CLI, in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it measures the per-layer metrics with every layer's
public callables wrapped, then runs as many fresh rounds untraced to
report the tracing overhead.  Every output is checked (see oracles.py).
Human-readable lines come first; the last line of standard output is the
JSON result.
"""

import os

# Fix the BLAS thread count before numpy loads: with two threads the run
# to run spread of throughput doubled in probes on a two-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_SHOTS = 11
#: tail = the slowest sample that still has this many samples beyond it
TAIL_BEYOND = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_shot() -> float:
    """Wall time of a fresh interpreter importing the package and its CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tsvflab, tsvflab.cli"],
                   env=program_env(), cwd=ROOT, check=True)
    return time.perf_counter() - start


def tail(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:  # too short a run for that percentile: take the slowest
        rank = len(ordered) - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def p50(latencies, rounds: int) -> float:
    """The median latency of each round, averaged over the rounds.

    Every round holds the same shapes, so each round's median is a sample
    of the same quantity.  The host's speed switches between a fast and a
    slow state for seconds at a time; the median of all samples jumps
    between the two states' medians as their shares of a run cross one
    half, while this mean moves in proportion to the shares."""
    size = len(latencies) // rounds
    if size * rounds != len(latencies):
        raise ValueError(f"{len(latencies)} samples do not split into {rounds} equal rounds")
    return statistics.fmean(statistics.median(latencies[i:i + size])
                            for i in range(0, len(latencies), size))


def run_info(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a plain checkout: the source digest identifies it
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "tsvflab").rglob("*")):
        if path.suffix in (".py", ".scn"):
            digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


def report_pool(workload, used):
    size = scenarios.POOL_ROUNDS[workload]
    print(f"pool: {used} of {size} rounds used"
          + (" - all of it, so the run may have ended before --seconds" if used >= size else ""))


def report_failures(outcomes):
    for o in outcomes:
        if o.failure is not None:
            print(f"FAILED {o.case.slot} [{o.case.key}]: {o.failure}")


def end_to_end(args, main, rounds, reference):
    setup: list[float] = []

    def spread_setup_shots(elapsed):
        # Start-up time drifts with the host over seconds, so the shots are
        # spread over the whole run instead of taken in one burst.
        due = min(SETUP_SHOTS, 1 + int(SETUP_SHOTS * elapsed / args.seconds))
        while len(setup) < due:
            setup.append(setup_shot())

    harness.run_for(main, rounds, 0.0, WORK)  # one warm-up round, unchecked
    outcomes, wall, done = harness.run_for(main, rounds, args.seconds, WORK, spread_setup_shots)
    spread_setup_shots(args.seconds)
    failed = harness.judge(outcomes, reference)
    report_failures(outcomes)
    report_pool(args.workload, 1 + done)
    latencies = [1e3 * o.seconds for o in outcomes]
    percentile, tail_ms = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "scenario_ms_p50": (p50(latencies, done), "ms"),
        "scenario_ms_tail": (tail_ms, "ms"),
        "scenarios_per_s": (len(outcomes) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.4f} {unit}")
    print(f"{'failed_frac':24s} {failed / len(outcomes):14.4f} ({failed} of {len(outcomes)})")
    print(f"p50 is the mean of {done} round medians; the median of all samples is "
          f"{statistics.median(latencies):.4f} ms")
    print(f"tail is p{percentile:.2f} of {len(outcomes)} samples; setup shots "
          + " ".join(f"{s:.3f}" for s in setup) + " s")
    return outcomes, failed, metrics


def per_layer(args, cli, rounds, reference):
    harness.run_for(cli.main, rounds, 0.0, WORK)  # one warm-up round, unchecked
    tracer = spans.Tracer()

    def traced_main(argv):
        tracer.request += 1
        return cli.main(argv)  # the wrapped main while the tracer is installed

    tracer.install()
    try:
        traced, traced_wall, done = harness.run_for(traced_main, rounds, args.seconds / 2.0, WORK)
    finally:
        tracer.uninstall()
    # as many fresh rounds again, untraced, to measure what tracing costs;
    # every round has the same shapes, so the two rates compare
    plain, plain_wall, plain_done = harness.run_for(
        cli.main, itertools.islice(rounds, done), math.inf, WORK)
    failed = harness.judge(traced + plain, reference)
    report_failures(traced + plain)
    report_pool(args.workload, 1 + done + plain_done)
    traced_rate = len(traced) / traced_wall
    plain_rate = len(plain) / plain_wall if plain else math.nan
    tracer.flush(WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    layer_values, layer_self = spans.layer_metrics(tracer.spans, len(traced))
    print(f"{'layer':16s} {'self ms/scenario':>18s} {'share':>7s}")
    total = sum(layer_self.values()) or 1.0
    for layer, value in layer_self.items():
        print(f"{layer:16s} {value:18.4f} {100 * value / total:6.1f}%")
    for name, value in layer_values.items():
        print(f"{name:36s} {value:16.4f}")
    print(f"tracing overhead: {traced_rate:.3f} scenarios/s traced vs {plain_rate:.3f} untraced "
          f"({100 * (plain_rate / traced_rate - 1):+.1f}%); {len(tracer.spans)} spans")
    return traced + plain, failed, layer_values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tsvflab" / "cli.py").is_file():
        print(f"error: no tsvflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tsvflab.cli

    if not Path(tsvflab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported tsvflab from {tsvflab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    info = run_info(args)
    print("info " + json.dumps(info))
    rounds = scenarios.run_rounds(args.workload, args.seed)
    reference = harness.load_reference(args.workload)
    try:
        if args.trace:
            outcomes, failed, values = per_layer(args, tsvflab.cli, rounds, reference)
            declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in declared}
        else:
            outcomes, failed, values = end_to_end(args, tsvflab.cli.main, rounds, reference)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    finally:
        harness.scenario_file(WORK).unlink(missing_ok=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
