#!/usr/bin/env python3
"""Build the commit's `mbpta` binary and the benchmark harness from
source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. `--trace 0` runs the end-to-end harness
(`perfbench-e2e`); `--trace 1` runs the separate traced run
(`perfbench-trace`). Build output goes to `$CARGO_TARGET_DIR` (default
`target/`); working files go to `perfbench-work/` under it and are removed
when the run ends. The last line of stdout is the result object.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, target):
    # One target directory for both builds (the benchmark is a workspace
    # of its own and would otherwise build under perfbench/target).
    # Cargo reports on stderr; keep stdout for the result.
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit("perfbench: build failed: cargo build " + " ".join(args))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        sys.exit("perfbench: --seed must be non-negative")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", "target"))
    harness = "perfbench-trace" if args.trace else "perfbench-e2e"
    # Explicit manifests: cargo must not fall back to a Cargo.toml found
    # in some parent directory.
    build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "proxima", "--bin", "mbpta"], target)
    build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"), "--bin", harness], target)

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, harness),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--mbpta", os.path.join(release, "mbpta"),
        "--work", os.path.join(target, "perfbench-work"),
    ]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
