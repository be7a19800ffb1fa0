#!/usr/bin/env python3
"""End-to-end cluster benchmark for phodis.

Builds the benchmark binary from the checkout's sources (CMake, Release,
into the work directory) and runs one invocation of it:

    python3 clusterbench/run.py --workload fine_packet --seed 3 \\
        --seconds 10 --trace 0

Run from the root of a phodis checkout. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) named
in BENCHMARK.json. Build output goes to standard error. Extra flags:
--tiny (a few small tasks, for self-tests) and --corrupt (every run
plants one corrupted task result, so the output check must fail).

The work directory is $CARGO_TARGET_DIR when set, else .bench_build; it
holds the build, the Unix-domain sockets, and each run's records and
Chrome trace files (out/<workload>-<seed>[-trace]/).
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("bulk_scalar", "fine_packet", "grid_packet_mt")
# Hard cap for one invocation of the binary (the build is separate).
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def git_describe(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "not-a-git-checkout"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root,
            capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(bench_dir, build_dir):
    """Configure (once) and build the benchmark; False on failure."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        # FETCHCONTENT_FULLY_DISCONNECTED: the phodis project falls back to
        # downloading GoogleTest when it is not installed; never do that.
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    steps.append(["cmake", "--build", build_dir, "--target", "clusterbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed:", " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    work_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(work_dir):
        # Socket paths are short only when relative to the checkout.
        work_dir = os.path.relpath(work_dir, root)
    build_dir = os.path.join(work_dir, "clusterbench")
    os.makedirs(work_dir, exist_ok=True)

    started = time.monotonic()
    if not build(bench_dir, build_dir):
        return 1
    log("build ready in %.1f s" % (time.monotonic() - started))

    cmd = [os.path.join(build_dir, "clusterbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-describe", git_describe(root)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    # Own session, so a timeout can take down the server and workers too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
