#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe (and the libraries it links) with dune, then
runs it with the same arguments. The executable does the measuring and
prints the result as the last line of standard output. Exits non-zero
without a result when the checkout cannot build it.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write(f"perfbench: {needed} not found; run from the repository root\n")
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
