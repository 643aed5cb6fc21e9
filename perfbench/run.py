#!/usr/bin/env python3
"""Build the end-to-end pipeline benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload crash-recovery --seed 1 --seconds 30 --trace 0

The arguments go to perfbench/main.exe unchanged (see perfbench/README.md).
The last line of standard output is the run's JSON result.  Build output
and diagnostics go to standard error.  A failed build exits non-zero and
prints no result.
"""

import subprocess
import sys

EXE = "./_build/default/perfbench/main.exe"
# The benchmark itself must finish within 180 s; leave it a margin.
RUN_TIMEOUT_S = 175


def main() -> int:
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
