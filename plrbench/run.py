#!/usr/bin/env python3
"""Build and run the PLR repository benchmark.

    python3 plrbench/run.py --workload <kernel_bulk|serve_mixed|stream_sessions>
                            --seed <n> --seconds <s> --trace <0|1>
    python3 plrbench/run.py --self-test

Builds the PLR libraries and the plrbench binary from this checkout's
sources (an optimized CMake build under $CARGO_TARGET_DIR, default
.bench_build/), then runs one workload. Build output goes to stderr; the
binary's stdout is passed through, its last line being the JSON result.
--self-test builds and runs the benchmark's own unit tests instead.

Exit codes: the binary's own, 3 when the build fails, 4 on a timeout.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "plrbench")


def build(target, out_dir):
    """Configure once, then build @target; False when either step fails."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                shutil.rmtree(out_dir, ignore_errors=True)
                return False
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        cmd = ["cmake", "--build", out_dir, "--target", target, "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run(cmd):
    """Run @cmd to completion (killed on timeout); return its exit code."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("plrbench: run timed out", file=sys.stderr)
        return 4


def main(argv):
    out_dir = build_dir()
    if argv == ["--self-test"]:
        if not build("plrbench_test", out_dir):
            return 3
        return run([os.path.join(out_dir, "plrbench_test")])
    if not build("plrbench", out_dir):
        return 3
    work = os.path.join(out_dir, "work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    return run([os.path.join(out_dir, "plrbench")] + argv + ["--work-dir", work])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
