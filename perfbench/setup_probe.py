"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

Set-up is importing ``faultlines`` and building a workload's inputs
(for ``mutants`` that includes generating the programs and searching
their failing inputs).  ``run.py`` starts this script a few times and
reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD MUTANT_SEED
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def timed_setup(workload: str, mutant_seed: int) -> tuple:
    """(seconds, cases) for importing faultlines and building the inputs."""
    start = time.perf_counter()
    import faultlines  # noqa: F401

    cases = workloads.build(workload, mutant_seed)
    return time.perf_counter() - start, cases


if __name__ == "__main__":
    seconds, _ = timed_setup(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds))
