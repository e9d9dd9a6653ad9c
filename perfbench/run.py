#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_open --seed 42 --seconds 15 --trace 0

Configures and builds perfbench/CMakeLists.txt (which compiles ../src) in
an optimized build under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs the program. Build output goes to
stderr; the last line of stdout is the JSON result. Traced runs write
their Chrome trace-event JSON to <build dir>/traces. Exits non-zero,
without a result line, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_open", "serve_train", "offline_forward")
RUN_TIMEOUT_S = 175


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (
        ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"],
    ):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(exist_ok=True)
    command = [
        str(build_dir / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-dir", str(trace_dir),
        "--commit", commit(root),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def commit(root):
    """The checkout's git commit, or "unknown" outside a git repository."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
