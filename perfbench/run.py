#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in a fresh process.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-tree-w1 --seed 1 --seconds 10 --trace 0

The Go program (this directory, its own module) is built into .bench_build/
at the repository root, with the Go build cache kept there too, so nothing
is written outside the checkout. All arguments pass through to the program,
whose last standard-output line is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomod"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def build():
    go = shutil.which("go")
    if go is None:
        sys.exit("perfbench: the go toolchain is not on PATH")
    os.makedirs(BUILD, exist_ok=True)
    # Building is incremental through the cache, so every run rebuilds and
    # a stale binary can never be measured.
    proc = subprocess.run(
        [go, "build", "-o", BINARY, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr, timeout=840,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {proc.returncode})")


def main():
    build()
    # A fresh process per run; its exit status is ours.
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=178)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
