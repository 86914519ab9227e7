#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Cargo builds into $CARGO_TARGET_DIR (default: .bench_build at the
repository root); its output goes to stderr so the benchmark's last
stdout line stays the JSON result. A traced run writes its spans under
the build directory. Exits with the benchmark's own code, or 1 when the
build fails.

The single-threaded workloads run pinned to one CPU, so the scheduler
cannot move the simulation between cores (and their private caches)
mid-run; the serve workloads keep every CPU for their client and worker
threads.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# Workloads that run every simulation on the calling thread.
SINGLE_THREADED = {"sim-batch", "sim-observed"}


def flag(args, name):
    """The value following `name` in `args`, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(REPO, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, cwd=REPO,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if flag(args, "--trace") == "1" and flag(args, "--spans-out") is None:
        name = "%s-seed%s.jsonl" % (flag(args, "--workload"), flag(args, "--seed"))
        args += ["--spans-out", os.path.join(target, "perfbench-spans", name)]
    exe = os.path.join(target, "release", "diag-perfbench")
    if flag(args, "--workload") in SINGLE_THREADED and hasattr(os, "sched_setaffinity"):
        # The highest-numbered allowed CPU: CPU 0 usually takes more
        # interrupts. The benchmark inherits the mask.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    return subprocess.run([exe] + args, cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
