#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (a Cargo package of its own, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The last
line of standard output is the benchmark's JSON result. Exits non-zero
without printing a result when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"[run.py] build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"[run.py] build failed with code {done.returncode}", file=sys.stderr)
        return False
    return True


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    work_dir = os.path.join(target_dir, "perfbench_work", str(os.getpid()))
    cmd = [binary, *sys.argv[1:], "--work-dir", work_dir]
    try:
        # The child is waited for here, also when it times out: `run` kills
        # it and reaps it before raising.
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"[run.py] run failed: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"[run.py] benchmark exited with code {done.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
