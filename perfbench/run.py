#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

From the repository root:

    python3 perfbench/run.py --workload powerlaw-atomic --seed 42 --seconds 20 --trace 0

Every argument is passed to the benchmark command (perfbench/main.go);
the last line of standard output is the JSON result. The Go build cache,
temporary files and the built binary live under .bench_build/ in the
working directory, so a run reads and writes only inside the checkout.
"""

import os
import subprocess
import sys

# A run must end within 180 s once the benchmark is built.
RUN_TIMEOUT_S = 170


def go_env(build_dir):
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build_dir, "gocache"),
        GOMODCACHE=os.path.join(build_dir, "gomodcache"),
        GOPATH=os.path.join(build_dir, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build_dir, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        PPROF_TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    return env


def main():
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build")
    env = go_env(build_dir)
    binary = os.path.join(build_dir, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: the benchmark ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
