#!/usr/bin/env python3
"""Builds the EdgeBOL benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 benchmark/run.py --workload <steady_T800|cold_start|fleet_churn> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (benchmark/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root) and
run with every EDGEBOL_* variable removed from its environment, so no
knob changes what is measured. The last line of standard output is the
result as one JSON object. The exit code is the benchmark's: 0 when every
correctness check held, 1 when one failed, 2 on a bad command line. When
the build fails (for instance when the repository's crates are missing)
nothing is run, no result is printed and the exit code is non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("EDGEBOL_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "edgebol-benchmark")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
