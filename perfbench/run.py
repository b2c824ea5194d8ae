#!/usr/bin/env python3
"""Build the perfbench command from source and run one benchmark workload.

Run from anywhere; the repository root is this file's parent directory:

    python3 perfbench/run.py --workload genome_sharded --seed 1 --seconds 30 --trace 0

Every argument is passed to the Go command (see main.go and README.md).
The build cache, temporary files and the binary stay under .bench_build
in the repository root, so a run reads and writes only inside the
checkout. Build output goes to standard error; standard output carries
only what the benchmark prints, its last line being the JSON result.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Replace this process, so the benchmark is the only process left
    # and its exit code is the run's.
    os.chdir(root)
    os.execve(binary, [binary, "--dir", os.path.join(build, "work")] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
