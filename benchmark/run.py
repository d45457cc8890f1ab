#!/usr/bin/env python3
"""Builds the instrep binaries and the benchmark, then runs one measurement.

Run from the repository root:

    python3 benchmark/run.py --workload batch-spec8 --seed 1 --seconds 10 --trace 0

Workloads: batch-spec8, kernels-probed, serve-mixed, serve-connect.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
ones (and writes spans and the per-layer table under the target
directory). `--quick` runs at tiny scale with short budgets, for the
benchmark's own test. The last line of stdout is the JSON result.

Both builds go to $CARGO_TARGET_DIR (default: target/ at the root).
A build failure exits with status 1 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "instrep-repro", "-p", "instrep-serve"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        try:
            built = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0
        except OSError as e:
            print(f"run.py: {e}", file=sys.stderr)
            built = False
        if not built:
            print("run.py: build failed", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    # A relative scratch path keeps the daemon's socket path short.
    work = os.path.relpath(os.path.join(target, "perfbench-work"))
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--repro", os.path.join(release, "instrep-repro"),
        "--serve", os.path.join(release, "instrep-serve"),
        "--work", work,
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
