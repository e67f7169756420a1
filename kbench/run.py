#!/usr/bin/env python3
"""Build the kconv benchmark from source and run one workload.

    python3 kbench/run.py --workload conv-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The build goes to
$CARGO_TARGET_DIR/kbench (default .bench_build/kbench); plan stores and
telemetry go to a private directory under it that is removed afterwards.
The last line of standard output is the benchmark's JSON result. The exit
code is the benchmark's: 0 when every output was correct, 1 when any was
wrong, 2 when the build or set-up failed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("conv-sweep", "serve-warm", "serve-churn")


def run_timeout(seconds):
    """A last-resort limit on one run. The program ends its own measured
    loop within 3x --seconds and reports; set-up and the traced probes take
    well under a minute more."""
    return 4 * seconds + 120


def log(msg):
    print(f"kbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "kbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "kbench")


def source_commit(root):
    """The tree's git commit when it is a git checkout, else 'none'."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds within 1..600")

    root = os.getcwd()
    base = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "kbench")
    try:
        binary = build(os.path.join(base, "build"))
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    # Determinism records are kept per binary, so a rebuilt program starts
    # a fresh history instead of being compared with another program's.
    state = os.path.join(base, "records", file_digest(binary))
    scratch = os.path.join(base, f"scratch-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--state", state,
           "--commit", source_commit(root)]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, timeout=timeout)
        return proc.returncode if proc.returncode >= 0 else 2
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout} s")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
