#!/usr/bin/env python3
"""Repository benchmark: open-loop serving of drift scenarios.

    python3 perfbench/run.py --workload drift_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the server and load generator from
source into .bench_build/perfbench (CMake, Release), then runs one
measurement of one workload and forwards its output. The last stdout line is
the JSON result {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. Workloads, metric
definitions and the layer -> end-to-end expectations are in BENCHMARK.json
and perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench_out")
WORKLOADS = ("drift_mix", "tiny_ingest", "ha_quorum")
RUN_TIMEOUT_S = 160
PR_SET_CHILD_SUBREAPER = 36


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a full checkout of the "
             "repository")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def reap_group(pgid):
    """Kills whatever is left of the run's process group and reaps it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            pid, _ = os.waitpid(-1, 0)
        except ChildProcessError:
            return
        if pid == 0:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stall-at", type=float, default=0.0,
                        help="stall self-test: SIGSTOP the servers this many "
                             "seconds into the open-loop phase")
    parser.add_argument("--stall-seconds", type=float, default=0.0)
    args = parser.parse_args()

    build()
    # Servers orphaned by a crashed generator re-parent here, so they can
    # be reaped; each also dies with its generator (PR_SET_PDEATHSIG).
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                 0, 0, 0)
    except (OSError, AttributeError):
        pass
    command = [
        os.path.join(BUILD, "perfbench_loadgen"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--server=" + os.path.join(BUILD, "perfbench_server"),
        "--specs=" + os.path.join(HERE, "workloads"),
        "--out=" + OUT,
        "--commit=" + commit_id(),
        "--stall-at=%g" % args.stall_at,
        "--stall-seconds=%g" % args.stall_seconds,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, process_group=0)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    reap_group(proc.pid)
    lines = output.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    sys.stdout.write(output)
    sys.stdout.flush()
    if proc.returncode != 0 or result is None:
        print("perfbench: generator exited %d after %.1f s" %
              (proc.returncode, time.monotonic() - started), file=sys.stderr)
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
