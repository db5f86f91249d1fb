"""One set-up probe: a fresh interpreter imports the workload's modules,
runs and checks one warm-up operation, and exits.

    python3 sievebench/probe.py <count|cycles|wheel> <seed text>

``run.py`` times whole probe processes for ``setup_s``.  Exit code 1 means
the warm-up answer was wrong.
"""

import random
import sys

import workloads
from reference import CheckFailed


def main(name: str, seed: str) -> int:
    load = workloads.IN_PROCESS[name]
    try:
        for op in load.make(random.Random(seed), None):
            load.check(op, load.run(op, None), None)
    except CheckFailed as exc:
        print(f"probe {name}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
