#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from source with dune (in the repository's
own _build directory), runs one workload in a fresh process and prints
the process's report, whose last line is the JSON result. With --trace 0
the set-up time is the median over several fresh processes, each timed
from spawn to its first submit. Exits non-zero without a result when the
build fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
SETUP_PROCESSES = 7  # extra set-up-only processes per end-to-end run
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet",
           "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def spawn(args):
    """Run the executable; returns (exit code, stdout lines)."""
    cmd = [EXE] + args + ["--spawned-at", repr(time.time())]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROCESSES):
            code, out = spawn(args + ["--setup-only"])
            if code != 0 or not out:
                print("set-up probe failed", file=sys.stderr)
                return 1
            setups.append(float(out[-1]))
    code, out = spawn(args)
    if not out:
        print(f"perfbench.exe exited {code} without a report", file=sys.stderr)
        return 1
    try:
        result = json.loads(out[-1])
    except ValueError:
        print("\n".join(out), file=sys.stderr)
        return 1
    print("\n".join(out[:-1]))
    if a.trace == 0:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"  set-up over {len(setups)} processes: "
              + " ".join(f"{s:.5f}" for s in sorted(setups)) + " s")
    print(json.dumps(result))
    return 0 if code == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
