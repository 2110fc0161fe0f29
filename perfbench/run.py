#!/usr/bin/env python3
"""Build and run the Once4All campaign benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload piped|sharded \
        --seed N --seconds S --trace 0|1

Builds the `o4a-perfbench` package and the repository's `mock_solver`
binary (from `o4a-bench`; the `piped` workload talks to it) in release mode,
offline, into `$CARGO_TARGET_DIR`, or `.bench_build` when that is unset, then
runs the harness with the same arguments. The harness prints the result as the last
line of standard output; see `perfbench/README.md` for the workloads and
metrics. Exits non-zero, without a result, when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Beyond --seconds, a run sets up and checks for a few seconds; a run that
# overshoots by this much is hung.
SLACK_S = 140


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["piped", "sharded"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cargo + ["--manifest-path", os.path.join(ROOT, "crates", "bench", "Cargo.toml"),
                 "--bin", "mock_solver"],
    ]
    for build in builds:
        try:
            built = subprocess.run(build, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return built.returncode or 1

    harness = [
        os.path.join(target, "release", "o4a-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    timeout = args.seconds + SLACK_S
    try:
        return subprocess.run(harness, env=env, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {timeout:g} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
