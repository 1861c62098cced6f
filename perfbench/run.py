#!/usr/bin/env python3
"""Build the service benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload dashboard --seed 42 --seconds 10 --trace 0

The arguments are passed to perfbench.exe unchanged (see README.md). The
build goes to _build/ inside the repository with the dune cache off, so
nothing is read from or written to a shared cache. The last line of
standard output is the JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root (no dune-project here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
               BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
