#!/usr/bin/env python3
"""Builds and runs one trilist benchmark workload.

    python3 perfbench/run.py --workload dense_tlg --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The benchmark binary is built from
perfbench/CMakeLists.txt (which compiles ../src) into the directory named
by CARGO_TARGET_DIR, default .bench_build; every file a run writes stays
under that directory. The last line of standard output is the result
object; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dense_tlg", "sparse_auto", "paged_budget", "serve_churn")
# Time a run may take beyond --seconds (set-up, checks, clean-up).
RUN_SLACK_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no trilist sources (src/CMakeLists.txt) next to perfbench/")
        return None
    out = build_dir()
    for step in (["cmake", "-S", "perfbench", "-B", out],
                 ["cmake", "--build", out, "-j4", "--target",
                  "trilist_perfbench"]):
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as err:
            log(f"cannot run {step[0]}: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(out, "trilist_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--wrong-reference", action="store_true",
                        help="smoke test: corrupt the reference count")
    args = parser.parse_args()

    os.chdir(ROOT)
    binary = build()
    if binary is None:
        return 1

    # Relative paths keep the Unix socket path short.
    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir = os.path.join(build_dir(), "runs", tag)
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(workdir)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--scale", args.scale,
           "--trace-file",
           os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # A terminated run takes the benchmark binary down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    timeout = args.seconds + RUN_SLACK_S
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout} s")
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        log(f"trilist_perfbench exited with {proc.returncode}")
        return 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
