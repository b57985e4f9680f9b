#!/usr/bin/env python3
"""Build and run the treegion end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval|serve_cold --seed N --seconds S --trace 0|1

Builds `tgc` (the repository's CLI) and the `perfbench` binary in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the binary.
Build output goes to stderr, so the last line of stdout is the binary's
JSON result. Scratch files and traces go under `.bench_work/`.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "treegion-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    bench = [
        os.path.join(target, "release", "perfbench"),
        "--tgc", os.path.join(target, "release", "tgc"),
        "--work-dir", os.path.join(root, ".bench_work"),
    ]
    sys.exit(subprocess.run(bench + sys.argv[1:], cwd=root).returncode)


if __name__ == "__main__":
    main()
