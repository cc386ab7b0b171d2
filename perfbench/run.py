#!/usr/bin/env python3
"""Builds and runs the perfbench binary from the root of a checkout.

    python3 perfbench/run.py --workload city|gateway|train|learn --seed N \\
        --seconds S --trace 0|1 [--short] [--inject-failure]

The first run configures and builds the library from src/ plus the
benchmark binary (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench-<hash of this checkout's path> (default
$CARGO_TARGET_DIR: .bench_build); later runs only check that the build is
current. Keying the build directory by the checkout keeps two checkouts
that share one target directory from building each other's sources.
Build output goes to standard error. The binary's standard output is passed
through, so its last line is the result object. Exits non-zero, printing no
result, when the build fails or the binary does not produce a result.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path, env: dict) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, env=env)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["city", "gateway", "train", "learn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--short", action="store_true",
                        help="one set-up and short checks (self-tests)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one deliberately failing operation")
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    checkout = hashlib.sha256(str(HERE).encode()).hexdigest()[:12]
    build_dir = (target / f"perfbench-{checkout}").resolve()
    # Compiler and program temporaries stay inside the checkout too.
    tmp_dir = build_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    try:
        binary = build(build_dir, env)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work_dir = build_dir / "work"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work_dir)]
    if args.short:
        cmd.append("--short")
    if args.inject_failure:
        cmd.append("--inject-failure")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark binary timed out", file=sys.stderr)
        return 1

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
            raise ValueError("result keys missing")
    except (IndexError, ValueError) as err:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: no result from the benchmark binary ({err})",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
