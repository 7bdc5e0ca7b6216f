"""Fresh-process wall time of the six shipped presets: a reference table,
not a gate.

    python3 perfbench/presets.py

Each row is the best of REPEAT runs of ``python -m tsvflab.cli <command>
--preset <name>`` in a new interpreter, so it includes interpreter start
and the numpy and tsvflab imports; the ``import only`` row is that fixed
part on its own.
"""

import subprocess
import sys
import time

import run  # fixes the BLAS thread count for the child processes too
from scenarios import PRESETS

REPEAT = 3


def best_of(argv) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=run.program_env(), cwd=run.ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    rows = [("import only", best_of(["-c", "import tsvflab, tsvflab.cli"]))]
    for name, (command, _) in PRESETS.items():
        argv = ["-m", "tsvflab.cli", command, "--preset", name]
        rows.append((f"{command} {name}", best_of(argv)))
    print(f"{f'preset (fresh process, best of {REPEAT})':44s} {'wall ms':>9s}")
    for label, seconds in rows:
        print(f"{label:44s} {1e3 * seconds:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
