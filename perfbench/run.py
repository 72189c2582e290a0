#!/usr/bin/env python3
"""Builds and runs the SMiLer serving benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds the library and the benchmark (Release) under .bench_build/; later
calls only rebuild what changed. The benchmark itself runs in a hermetic
environment: SMILER_BACKEND=native, every other SMILER_* variable removed,
and TMPDIR pointing inside .bench_build/ so spill segments never leave the
checkout. Build output goes to stderr; stdout carries the benchmark's own
report, whose last line is the JSON result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TMP_DIR = os.path.join(BUILD_ROOT, "tmp")
# A run's own budget is 180 s; the benchmark is stopped well before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout):
    """Runs a build step with its output on stderr."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SMiLer sources next to perfbench/ (expected src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             BUILD_TIMEOUT_S)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    call(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench",
          "perfbench_test"], BUILD_TIMEOUT_S)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def hermetic_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMILER_")}
    env["SMILER_BACKEND"] = "native"
    env["TMPDIR"] = TMP_DIR
    return env


def run(cmd):
    os.makedirs(TMP_DIR, exist_ok=True)
    child = subprocess.Popen(cmd, cwd=ROOT, env=hermetic_env())
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        code = None
    # The benchmark removes its own scratch directory; this covers a run
    # that died before it could.
    shutil.rmtree(os.path.join(TMP_DIR, "perfbench-%d" % child.pid), ignore_errors=True)
    if code is None:
        fail("timed out: " + " ".join(cmd))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.selftest:
        sys.exit(run([os.path.join(BUILD_DIR, "perfbench_test")]))
    sys.exit(run([os.path.join(BUILD_DIR, "perfbench"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", str(args.trace),
                  "--scratch", TMP_DIR, "--revision", revision()]))


if __name__ == "__main__":
    main()
