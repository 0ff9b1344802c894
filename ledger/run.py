#!/usr/bin/env python3
"""Build the perf ledger and run one workload.

Usage, from the root of the repository:

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1

Builds ledger/ledger.exe from source with dune, in the release profile
and without dune's shared cache so that nothing is written outside the
checkout, then runs `ledger.exe run` with the same arguments. Build
output goes to standard error; the last line of standard output is the
run's JSON result. Exits non-zero, without a result, when the build or
the run fails. See ledger/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join("_build", "release"))


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./ledger/ledger.exe"],
            stdout=sys.stderr, env=env)
    except OSError as e:
        print("ledger: cannot run dune: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "ledger", "ledger.exe")
    return subprocess.run([exe, "run"] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
