"""Record the reference outputs of every pool case at the current commit.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each case of each workload's pool through the CLI and keeps its
standard output as the reference, but only when the output passes the
physics oracles: a case that fails them gets no reference and so keeps
failing in every benchmark run.  Re-record only at a commit whose output
is trusted, and say so in the change that does it.
"""

import gzip
import json
import sys

import run  # fixes the BLAS thread count before numpy loads

sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
import oracles  # noqa: E402
import scenarios  # noqa: E402
import tsvflab.cli  # noqa: E402


def record(workload: str) -> int:
    run.WORK.mkdir(exist_ok=True)
    cases, rejected = {}, 0
    for index in range(scenarios.POOL_ROUNDS[workload]):
        for case in scenarios.pool_round(workload, index):
            outcome = harness.run_case(tsvflab.cli.main, case, run.WORK)
            failure = oracles.check(case, outcome.rc, outcome.out, outcome.err, None,
                                    use_reference=False)
            if failure is not None:
                rejected += 1
                print(f"{workload} round {index} {case.slot}: {failure}")
            elif case.expect.get("exit", 0) == 0:
                cases[case.key] = outcome.out
    harness.scenario_file(run.WORK).unlink(missing_ok=True)
    path = harness.REFERENCE_DIR / f"{workload}.json.gz"
    path.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps({"workload": workload, "cases": cases}, sort_keys=True).encode())
    print(f"{workload}: {len(cases)} references, {rejected} cases failed their oracles")
    return rejected


if __name__ == "__main__":
    names = sys.argv[1:] or scenarios.WORKLOADS
    sys.exit(1 if sum(record(name) for name in names) else 0)
