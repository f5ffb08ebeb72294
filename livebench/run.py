#!/usr/bin/env python3
"""Build and run the live benchmark from the root of a source checkout.

    python3 livebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds livebench/livebench.exe with dune into the directory named by
CARGO_TARGET_DIR (default .bench_build), then runs it with the same
arguments and passes its output through; its last line is the JSON
result. Exits non-zero without a result when the build fails, e.g. in a
directory that lacks the repository's libraries.
"""

import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    dune = shutil.which("dune")
    if dune is None:
        print("livebench: dune not found on PATH", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(root, "dune-project")):
        print("livebench: run from the root of a source checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "--cache", "disabled",
         "./livebench/livebench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("livebench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(build_dir, "default", "livebench", "livebench.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:])

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("livebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
