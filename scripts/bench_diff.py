#!/usr/bin/env python3
"""Compare a fresh benchmark run against the committed baseline.

Usage:
    bench_diff.py --baseline bench/baseline.json --fresh BENCH_<date>.json

Both files are the JSON that `dune exec bench/main.exe` writes. Two metric
families are compared, with different strictness:

  Simulation metrics (STRICT — deterministic per seed, independent of the
  worker-pool size and of machine speed, so a change here is a behaviour
  change, not noise):
    - e15_batching rows, matched by (protocol, batch):
        tps may not drop more than TPS_DROP,
        p95_ms may not grow more than P95_GROW,
        contract_ok must stay true.
    - e16_saturation rows, matched by (protocol, batch):
        tps / p95_ms under the same thresholds.
    - e17_critpath rows, matched by (protocol, mode, batch), checked
      as absolute invariants on the fresh run (no baseline needed):
        max_residual_us must stay under 1 (the profiler attributed
        every microsecond of every commit latency), and on isolated
        rows the measured critical-path rounds must equal the closed
        form (analytic_rounds).
    - a baseline row with no matching fresh row is a failure (a sweep
      point silently vanished); fresh-only rows are informational.

  Micro-benchmark ns/op (WARN-ONLY — wall-clock on shared CI hardware is
  noisy, so regressions are reported but never fail the run):
    - flagged when fresh > baseline * MICRO_RATIO.

Exit status: 0 when every strict check passes, 1 otherwise. CI runs
this against bench/baseline.json on the quick suite; refresh the
baseline with scripts/refresh_baseline.sh when a change legitimately
moves the numbers.
"""

import argparse
import json
import sys

# Strict thresholds for deterministic simulation metrics.
TPS_DROP = 0.10  # fail if fresh tps < baseline tps * (1 - TPS_DROP)
P95_GROW = 0.25  # fail if fresh p95 > baseline p95 * (1 + P95_GROW)

# Loose, warn-only threshold for wall-clock micro-benchmarks.
MICRO_RATIO = 3.0


def load(path):
    with open(path) as f:
        return json.load(f)


def rows_by_key(doc, section):
    out = {}
    for row in doc.get(section) or []:
        out[(row["protocol"], row["batch"])] = row
    return out


def diff_sim_section(section, baseline, fresh, problems):
    base_rows = rows_by_key(baseline, section)
    fresh_rows = rows_by_key(fresh, section)
    for key, base in sorted(base_rows.items()):
        proto, batch = key
        label = f"{section} {proto}/batch={batch}"
        got = fresh_rows.get(key)
        if got is None:
            problems.append(f"{label}: row missing from fresh run")
            continue
        b_tps, f_tps = base.get("tps"), got.get("tps")
        if b_tps is not None and f_tps is not None and b_tps > 0:
            if f_tps < b_tps * (1.0 - TPS_DROP):
                problems.append(
                    f"{label}: tps {f_tps:.1f} dropped >"
                    f"{TPS_DROP:.0%} from {b_tps:.1f}"
                )
            else:
                print(f"ok    {label}: tps {b_tps:.1f} -> {f_tps:.1f}")
        b_p95, f_p95 = base.get("p95_ms"), got.get("p95_ms")
        if b_p95 is not None and f_p95 is not None and b_p95 > 0:
            if f_p95 > b_p95 * (1.0 + P95_GROW):
                problems.append(
                    f"{label}: p95 {f_p95:.3f}ms grew >"
                    f"{P95_GROW:.0%} from {b_p95:.3f}ms"
                )
        if base.get("contract_ok") is True and got.get("contract_ok") is False:
            problems.append(f"{label}: broadcast contract newly VIOLATED")
    for key in sorted(set(fresh_rows) - set(base_rows)):
        print(f"note  {section} {key[0]}/batch={key[1]}: new row (no baseline)")


def e17_rows_by_key(doc):
    return {
        (r["protocol"], r.get("mode", "load"), r["batch"]): r
        for r in doc.get("e17_critpath") or []
    }


def diff_e17(baseline, fresh, problems):
    fresh_rows = e17_rows_by_key(fresh)
    # Absolute invariants: every fresh row must hold them, with or
    # without a baseline counterpart.
    for key, row in sorted(fresh_rows.items()):
        proto, mode, batch = key
        label = f"e17_critpath {proto}/{mode}/batch={batch}"
        resid = row.get("max_residual_us")
        if not isinstance(resid, int) or resid >= 1:
            problems.append(
                f"{label}: max residual {resid!r}us >= 1us "
                "(unattributed critical-path time)"
            )
        analytic = row.get("analytic_rounds", -1)
        if isinstance(analytic, int) and analytic >= 0:
            if row.get("rounds") != analytic:
                problems.append(
                    f"{label}: critical-path rounds {row.get('rounds')!r} "
                    f"!= closed form {analytic}"
                )
            else:
                print(f"ok    {label}: rounds {analytic} match closed form")
    base_rows = e17_rows_by_key(baseline)
    for key in sorted(set(base_rows) - set(fresh_rows)):
        problems.append(
            f"e17_critpath {key[0]}/{key[1]}/batch={key[2]}: "
            "row missing from fresh run"
        )
    for key in sorted(set(fresh_rows) - set(base_rows)):
        print(
            f"note  e17_critpath {key[0]}/{key[1]}/batch={key[2]}: "
            "new row (no baseline)"
        )


def diff_micro(baseline, fresh, warnings):
    base = {m["name"]: m.get("ns_per_op") for m in baseline.get("micro") or []}
    for m in fresh.get("micro") or []:
        name, ns = m["name"], m.get("ns_per_op")
        base_ns = base.get(name)
        if ns is None or base_ns is None or base_ns <= 0:
            continue
        if ns > base_ns * MICRO_RATIO:
            warnings.append(
                f"micro {name}: {ns:.1f} ns/op vs baseline {base_ns:.1f} "
                f"(>{MICRO_RATIO:.0f}x — wall-clock, warn only)"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    args = ap.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    problems, warnings = [], []
    diff_sim_section("e15_batching", baseline, fresh, problems)
    diff_sim_section("e16_saturation", baseline, fresh, problems)
    diff_e17(baseline, fresh, problems)
    diff_micro(baseline, fresh, warnings)

    for w in warnings:
        print(f"WARN  {w}")
    for p in problems:
        print(f"FAIL  {p}")
    if problems:
        print(f"{len(problems)} regression(s) vs {args.baseline} (failing)")
        return 1
    print(f"no regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
