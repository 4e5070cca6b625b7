#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper_grid|flood_1m|steady_load> \
        --seed <n> --seconds <s> --trace <0|1> [--scale <full|smoke>]

`--trace 0` runs the untraced `perfbench` binary (end-to-end metrics);
`--trace 1` runs `perfbench-traced` (per-layer metrics and the tracing
overhead). The last line of standard output is the result object. Build
output goes to standard error; the build directory is `$CARGO_TARGET_DIR`,
or `.bench_build` when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    # Cargo reads `.cargo/config.toml` (the `target-cpu=native` build) from
    # the working directory, so build and run from the repository root.
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 1
    traced = any(a == "--trace" and b == "1" for a, b in zip(argv, argv[1:]))
    binary = "perfbench-traced" if traced else "perfbench"
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", binary)
    return subprocess.run([exe] + argv, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
