"""Benchmark entry point: run one workload in a fresh worker process.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 10 --trace 0

The worker (``perfbench/worker.py``) imports the package from ``src/`` of
the checkout this file sits in. This launcher imports only the standard
library and stays small: a child's peak RSS starts from the RSS of the
process image that started it, so launching the worker from here keeps
``peak_mib`` the workload's own, whatever process runs the benchmark.
BLAS and OpenMP are pinned to one thread, since every workload runs with
``jobs=1``. The worker's output is passed through; its last line is the
JSON result. The exit code is the worker's, or 1 on a timeout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 175.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    try:
        worker = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the worker; drop its output.
        print(f"worker exceeded {TIMEOUT_S:.0f} s and was stopped", file=sys.stderr)
        return 1
    sys.stdout.write(worker.stdout)
    return worker.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
