#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository: it builds
perfbench/bench.exe with dune (the first build compiles the libraries
and may take minutes), runs it, and passes its output through. The last
line of standard output is the JSON result. Exits non-zero, printing no
result, when the checkout has no sources to build or the build fails.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib")
    ):
        fail("no dune-project and lib/ next to perfbench/: nothing to build")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
