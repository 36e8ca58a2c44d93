#!/usr/bin/env python3
"""Build and run the two-clock service benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fanout --seed 11 --seconds 20 --trace 0

Builds perfbench/main.exe with dune (build output goes to standard error),
then runs it with the given arguments from the repository root and exits
with its status. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
