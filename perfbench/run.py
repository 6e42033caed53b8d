#!/usr/bin/env python3
"""Build and run the EnCore benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune inside the checkout (the shared dune
cache is disabled, so nothing is read or written outside it), then runs
it with the same arguments and exits with its status.  Build output goes
to stderr, so the last line of stdout stays the benchmark's result
object.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "./perfbench/main.exe"],
            cwd=root,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
