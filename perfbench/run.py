#!/usr/bin/env python3
"""Build the benchmark and the jumprepc CLI from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe      # print BENCHMARK.json

Build output goes to stderr; the benchmark's report goes to stdout and ends
with one JSON line.  The benchmark runs in its own process group, which is
killed if it outlives its time limit.
"""

import os
import signal
import subprocess
import sys

TIME_LIMIT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
JUMPREPC = os.path.join("_build", "default", "bin", "jumprepc.exe")


def main(argv):
    missing = [p for p in ("dune-project", "lib", "bin", "BENCH_baseline.json")
               if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the root of a jumprep checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    # No shared build cache: the build reads and writes only the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/main.exe", "./bin/jumprepc.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    proc = subprocess.Popen([EXE, "--jumprepc", JUMPREPC] + argv, start_new_session=True)
    try:
        return proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: no result within %d s" % TIME_LIMIT_S, file=sys.stderr)
        return 1
    finally:
        # The daemon and campaign workers share the benchmark's process
        # group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
