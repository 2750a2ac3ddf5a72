#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nlp-stream --seed 1 --seconds 10 --trace 0

Workloads: nlp-stream, vision-stream, serve-mixed (see perfbench/README.md).

Every call configures and builds perfbench/ (which pulls in the library from
src/) as a Release build under .bench_build/perfbench; after the first call
this is incremental. Build output goes to stderr. The benchmark's stdout
is passed through unchanged; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the Chrome
trace of the run is written under .bench_build/perfbench-traces/.

Extra flags:
    --corrupt-expected   perturb one expected output; the run must fail
    --selftest           build and run the block-classifier self-test only

Exit status: 0 when the build succeeded and every request returned correct
outputs, non-zero otherwise.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def run_quiet(cmd, timeout):
    """Runs cmd; on failure echoes its output to stderr and exits 1."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: command failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build(target):
    run_quiet(["cmake", "-S", SOURCE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    run_quiet(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
               "--target", target], timeout=840)
    return os.path.join(BUILD, target)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def source_hash():
    """SHA-256 over the library and benchmark sources, so a checkout that is
    not a git repository is still identified."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([binary], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        ap.error("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-hash", source_hash()]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
