#!/usr/bin/env python3
"""Same-host A/B of the benchmark: a base revision against the working tree.

    python3 scripts/perf_ab.py BASE WORKLOAD PAIRS SEED [--seconds S] [--trace T]

Extracts BASE (any git revision) with `git archive` into a temporary
directory, which it removes on exit; nothing is added to the repository's
git metadata. Then runs
`perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace T`
PAIRS times on each side, alternating in ABBA order (base first in even
pairs, working tree first in odd ones) so that drift on the host falls on
both sides alike. Each run builds its own side with dune first. S defaults
to the benchmark's run length (`run_seconds` in BENCHMARK.json), T to 0.

Prints, for every metric of BENCHMARK.json that the pass reports (the
end-to-end ones with --trace 0, the per-layer ones with --trace 1), each
side's median and quartiles and the number of pairs the working tree won.
Exits 1 if a run is not correct, or if a deterministic metric differs
between any two runs: the simulation is deterministic per seed, so a
change that is meant to keep every simulated event must keep these
bit-identical. They are the simulated ones: commit_tps, commit_p50_ms,
commit_p99_ms and failed_ratio end to end; per layer, the event, datagram
and broadcast counts, the commit and abort ratios, the longest
commit-free stretch (repdb.unavail_ms), the critical-path shares, the
sampler means and the audit counts.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIMULATED = ["commit_tps", "commit_p50_ms", "commit_p99_ms", "failed_ratio"]
LAYER_SIMULATED = ["sim.events_per_txn", "net.datagrams_per_txn",
                   "net.broadcasts_per_txn", "repdb.commit_ratio",
                   "repdb.unavail_ms"]
LAYER_SIMULATED_PREFIXES = ("repdb.abort.", "crit.", "sampler.", "audit.")


def deterministic(name, trace):
    if trace == 0:
        return name in SIMULATED
    return name in LAYER_SIMULATED or name.startswith(LAYER_SIMULATED_PREFIXES)


def run_side(root, workload, seed, seconds, trace):
    """One perfbench run in checkout [root]; returns its JSON result."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = done.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout, file=sys.stderr)
        return {"correct": False, "metrics": {}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("workload")
    ap.add_argument("pairs", type=int)
    ap.add_argument("seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if a.seconds is None else a.seconds
    if a.pairs < 1 or a.seed < 0 or seconds < 1:
        ap.error("PAIRS and --seconds must be >= 1, SEED >= 0")
    base_root = tempfile.mkdtemp(prefix="perf_ab.")
    runs = {"base": [], "change": []}
    try:
        tar = subprocess.run(["git", "-C", ROOT, "archive", a.base],
                             stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_root], input=tar, check=True)
        for i in range(a.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                root = base_root if side == "base" else ROOT
                result = run_side(root, a.workload, a.seed, seconds, a.trace)
                runs[side].append(result)
                tps = result.get("metrics", {}).get("txn_per_wall_s")
                extra = f" txn_per_wall_s={tps['value']:.0f}" if tps else ""
                print(f"pair {i + 1} {side:6}: correct={result.get('correct')}"
                      + extra, file=sys.stderr)
    finally:
        shutil.rmtree(base_root, ignore_errors=True)

    ok = all(r.get("correct") is True for side in runs.values() for r in side)
    if not ok:
        print("a run was not correct")
    print(f"{a.workload} seed {a.seed}, {a.pairs} pairs of {seconds} s,"
          f" --trace {a.trace}, base {a.base} vs working tree")
    print(f"{'metric':26} {'base median [IQR]':>34} {'change median [IQR]':>34}"
          f" {'wins':>6}")
    for m in bench["end_to_end" if a.trace == 0 else "per_layer"]:
        name = m["name"]
        try:
            b = [r["metrics"][name]["value"] for r in runs["base"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
        except KeyError:
            print(f"{name:26} missing")
            ok = False
            continue
        higher = m["better"] == "higher"
        wins = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
        (bq1, bq3), (cq1, cq3) = quartiles(b), quartiles(c)
        side = lambda med, q1, q3: f"{med:.6g} [{q1:.6g}-{q3:.6g}]"
        print(f"{name:26} {side(statistics.median(b), bq1, bq3):>34}"
              f" {side(statistics.median(c), cq1, cq3):>34}"
              f" {wins:>3}/{a.pairs}")
        if deterministic(name, a.trace) and len(set(b + c)) > 1:
            print(f"  {name} differs between runs: base {b}, change {c}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
