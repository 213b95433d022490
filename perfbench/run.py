#!/usr/bin/env python3
"""End-to-end benchmark of the G-CORE engine.

Run from the repository root:

    python3 perfbench/run.py --workload <tour|paper_snb|serve|coldstart> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the engine and the benchmark program from source (CMake, Release)
into $CARGO_TARGET_DIR or .bench_build, runs the harness self-tests, then
runs one measurement and passes its output through. The last line of
standard output is the result object (see BENCHMARK.json for the workloads
and metrics). Build output goes to standard error. Exits non-zero without a
result when the sources are missing, the build or self-tests fail, or the
run does not finish in time.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the child before exec: turns off address-space layout
    randomization for the measured process. With randomized layouts the
    same build's timings differ by up to 15% from run to run; fixed, by a
    few percent. Where the kernel refuses, the run proceeds randomized (the
    context line reports which)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def source_sha256(root):
    """Content hash of the engine sources (the checkout may not be a git
    repository, so the git SHA alone cannot identify the code)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tour", "paper_snb", "serve", "coldstart"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "engine", "engine.h")):
        print("perfbench: engine sources not found under " +
              os.path.join(root, "src"), file=sys.stderr)
        return 1
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60)
    if selftest.returncode != 0:
        print("perfbench: harness self-tests failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--git-sha", git_sha(root),
           "--source-sha", source_sha256(root)]
    proc = subprocess.Popen(cmd, cwd=root, preexec_fn=fixed_layout)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
