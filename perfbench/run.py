#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to ./_build with dune's
shared cache disabled, so nothing is written outside the working tree;
build output goes to stderr.  The benchmark binary then replaces this
process, and its last stdout line is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./perfbench/main.exe"
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", target],
            stdout=sys.stderr,
            env=env,
        )
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
