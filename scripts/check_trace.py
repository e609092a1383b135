#!/usr/bin/env python3
"""Structural validation of exported transaction-lifecycle traces.

Accepts both formats `repdb_sim --trace` writes:

  *.jsonl     JSON Lines: one object per line, span lines carry
              {"stream":"span","ts_us":...,"site":...,"txn":...,
               "phase":...,"kind":"B"|"E"|"i"}; lines with
              "stream":"audit" are the message-lineage audit stream
              (`run --audit`), merged in by timestamp and led by a
              schema header carrying its version and site count.
              Lines with "stream":"series" are the sampled telemetry
              time series (`run --series`): one header naming every
              probe, then one row of values per sampling tick.
  * (else)    Chrome trace-event JSON: {"traceEvents":[...]} with
              ph B/E/i/M (plus s/t/f flow chains, as written by
              `explain --flow`), pid = site, ts in microseconds — or
              an audit report ({"stream":"audit-report"}, the output
              of `run --audit-report` / `audit --json`) — or a
              critical-path blame document ({"stream":"critpath"},
              the output of `explain --json`) — or a metrics document
              ({"stream":"metrics"}, the output of `run --metrics`).

Checks, per file:
  - parses at all, and contains at least one event;
  - timestamps are non-decreasing in emission order (metadata events
    excluded — Chrome 'M' events carry no ts; flow s/t/f events are
    appended after the span events and checked per chain instead);
  - begin/end pairs balance per (pid, tid) lane, ends match an open
    begin, and nothing is left open at the end;
  - flow chains, when present: each id runs s -> t* -> f with
    non-decreasing timestamps;
  - audit lines, when present: exactly one schema header of a known
    version, every event of a known type with its required fields,
    site/origin indices within the header's site count, and each
    deliver's datagram timing (when carried) monotone:
    t_sent <= t_depart <= t_arrive <= ts_us;
  - audit reports: known schema version, counters present, every
    violation carrying a monitor name and a non-empty causal slice;
  - series lines, when present: exactly one header (known schema
    version, positive integer interval, well-formed probe list)
    preceding every row, integer non-decreasing row timestamps, and
    every row carrying exactly one numeric value per probe;
  - critpath documents: known schema, a blame row per segment kind,
    and every transaction row telescoping — contiguous segments
    summing exactly to decide minus submit, residual under 1us;
  - metrics documents: known schema, and every series carrying a
    string name, a labels object with string values, a kind of
    counter or gauge and a numeric value (or "+inf"/"-inf"/"nan");
    counter values are non-negative integers, and no (name, labels)
    pair appears twice.

Exit status: 0 if every file passes, 1 otherwise. Used by CI on the
traces produced for each protocol and for the audited chaos replays.
"""

import json
import sys

AUDIT_SCHEMA_VERSION = 3

# Required extra fields per audit event type ("msg" expands to the
# origin/cls/seq triple every message-carrying event embeds inline).
# v2: "send" and "order" events may additionally carry an optional
# integer "frame" — the wire frame a batched broadcast was coalesced
# into / the sequencer sweep a batched assignment travelled in.
# v3: "deliver" events may additionally carry the datagram's wire
# timing (t_sent/t_depart/t_arrive) for critical-path attribution.
AUDIT_EVENT_FIELDS = {
    "send": ["msg", "vc"],
    "deliver": ["msg", "site", "vc", "flush"],
    "pass": ["msg", "site", "vc", "flush"],
    "order": ["msg", "by", "gseq"],
    "reset": ["site", "cut", "r_next", "next_total"],
    "advance": ["site", "origin", "r_upto", "c_upto"],
    "crash": ["site"],
    "recover": ["site"],
    "partition": ["group"],
    "heal": [],
}


def check_audit_lines(path, lines):
    """lines: (line_no, parsed object) for every "stream":"audit" line."""
    headers = [(n, o) for n, o in lines if o.get("type") == "schema"]
    if len(headers) != 1:
        return fail(path, f"expected exactly 1 audit schema header, got {len(headers)}")
    n_line, header = headers[0]
    if header.get("version") != AUDIT_SCHEMA_VERSION:
        return fail(
            path,
            f"line {n_line}: audit schema version {header.get('version')!r}, "
            f"expected {AUDIT_SCHEMA_VERSION}",
        )
    n_sites = header.get("n_sites")
    if not isinstance(n_sites, int) or n_sites < 1:
        return fail(path, f"line {n_line}: bad n_sites {n_sites!r}")
    events = 0
    send_frames = {}  # (origin, frame) -> [(line_no, seq), ...]
    order_frames = {}  # (by, frame) -> [(line_no, gseq), ...]
    for n, obj in lines:
        ty = obj.get("type")
        if ty == "schema":
            continue
        if ty not in AUDIT_EVENT_FIELDS:
            return fail(path, f"line {n}: unknown audit event type {ty!r}")
        if not isinstance(obj.get("ts_us"), int):
            return fail(path, f"line {n}: audit event without integer ts_us")
        for field in AUDIT_EVENT_FIELDS[ty]:
            if field == "msg":
                if not (
                    isinstance(obj.get("origin"), int)
                    and obj.get("cls") in ("R", "C", "T")
                    and isinstance(obj.get("seq"), int)
                ):
                    return fail(path, f"line {n}: {ty} without a valid message id")
            elif field not in obj:
                return fail(path, f"line {n}: {ty} missing {field!r}")
        for site_field in ("site", "origin", "by"):
            v = obj.get(site_field)
            if isinstance(v, int) and not 0 <= v < n_sites:
                return fail(
                    path, f"line {n}: {site_field}={v} outside 0..{n_sites - 1}"
                )
        timing = [f for f in ("t_sent", "t_depart", "t_arrive") if f in obj]
        if timing:
            if ty != "deliver":
                return fail(path, f"line {n}: {ty} must not carry wire timing")
            if len(timing) != 3:
                return fail(
                    path, f"line {n}: partial wire timing (only {timing})"
                )
            ts, td, ta = obj["t_sent"], obj["t_depart"], obj["t_arrive"]
            for f, v in (("t_sent", ts), ("t_depart", td), ("t_arrive", ta)):
                if not isinstance(v, int):
                    return fail(path, f"line {n}: {f}={v!r} is not an integer")
            if not ts <= td <= ta <= obj["ts_us"]:
                return fail(
                    path,
                    f"line {n}: wire timing not monotone: "
                    f"sent={ts} depart={td} arrive={ta} deliver={obj['ts_us']}",
                )
        if "frame" in obj:
            frame = obj["frame"]
            if ty not in ("send", "order"):
                return fail(path, f"line {n}: {ty} must not carry a frame tag")
            if not isinstance(frame, int) or frame < 0:
                return fail(path, f"line {n}: bad frame id {frame!r}")
            if ty == "send":
                send_frames.setdefault((obj["origin"], frame), []).append(
                    (n, obj["seq"])
                )
            else:
                order_frames.setdefault((obj["by"], frame), []).append(
                    (n, obj["gseq"])
                )
        events += 1
    # Batched-frame lineage: messages coalesced into one wire frame are
    # stamped back-to-back by their sender, so per (origin, frame) the
    # seqs form one contiguous run with no duplicates (the seq counter
    # is per origin, shared across classes). Likewise a sequencer sweep
    # assigns one contiguous global_seq run per frame.
    for label, groups in (("send", send_frames), ("order", order_frames)):
        for key, members in groups.items():
            seqs = [s for _, s in members]
            lo, hi = min(seqs), max(seqs)
            if len(set(seqs)) != len(seqs) or hi - lo + 1 != len(seqs):
                return fail(
                    path,
                    f"line {members[0][0]}: {label} frame {key} is not one "
                    f"contiguous run: {sorted(seqs)}",
                )
    batched = sum(len(m) for m in send_frames.values())
    print(
        f"{path}: audit OK ({events} events, {n_sites} sites, "
        f"{len(send_frames)} send frame(s) / {batched} batched send(s))"
    )
    return True


def check_audit_report(path, doc):
    if doc.get("schema") != AUDIT_SCHEMA_VERSION:
        return fail(
            path,
            f"audit report schema {doc.get('schema')!r}, "
            f"expected {AUDIT_SCHEMA_VERSION}",
        )
    for field in ("n_sites", "events", "sends", "delivers", "violations_total"):
        if not isinstance(doc.get(field), int):
            return fail(path, f"audit report missing integer {field!r}")
    violations = doc.get("violations")
    if not isinstance(violations, list):
        return fail(path, "audit report missing violations list")
    for i, v in enumerate(violations):
        if not v.get("monitor"):
            return fail(path, f"violation {i}: no monitor name")
        if not v.get("slice"):
            return fail(path, f"violation {i}: empty causal slice")
    print(f"{path}: audit report OK ({doc['violations_total']} violation(s))")
    return True


SERIES_SCHEMA_VERSION = 1
SERIES_PROBE_KINDS = ("gauge", "delta")
SERIES_NONFINITE = ("+inf", "-inf", "nan")


def check_series_lines(path, lines):
    """lines: (line_no, parsed object) for every "stream":"series" line."""
    headers = [(n, o) for n, o in lines if "probes" in o]
    if len(headers) != 1:
        return fail(
            path, f"expected exactly 1 series schema header, got {len(headers)}"
        )
    h_line, header = headers[0]
    if header.get("schema") != SERIES_SCHEMA_VERSION:
        return fail(
            path,
            f"line {h_line}: series schema {header.get('schema')!r}, "
            f"expected {SERIES_SCHEMA_VERSION}",
        )
    interval = header.get("interval_us")
    if not isinstance(interval, int) or interval < 1:
        return fail(path, f"line {h_line}: bad interval_us {interval!r}")
    probes = header.get("probes")
    if not isinstance(probes, list) or not probes:
        return fail(path, f"line {h_line}: empty or missing probes list")
    for i, p in enumerate(probes):
        if not (isinstance(p, dict) and isinstance(p.get("name"), str) and p["name"]):
            return fail(path, f"line {h_line}: probe {i} without a name")
        if not isinstance(p.get("labels"), dict):
            return fail(path, f"line {h_line}: probe {i} without a labels object")
        if p.get("kind") not in SERIES_PROBE_KINDS:
            return fail(
                path, f"line {h_line}: probe {i} kind {p.get('kind')!r} unknown"
            )
    rows = 0
    last_ts = None
    for n, obj in lines:
        if "probes" in obj:
            continue
        if n < h_line:
            return fail(path, f"line {n}: series row precedes the schema header")
        ts = obj.get("ts_us")
        if not isinstance(ts, int):
            return fail(path, f"line {n}: series row without integer ts_us")
        if last_ts is not None and ts < last_ts:
            return fail(path, f"line {n}: ts_us {ts} < previous {last_ts}")
        last_ts = ts
        values = obj.get("values")
        if not isinstance(values, list) or len(values) != len(probes):
            got = len(values) if isinstance(values, list) else "none"
            return fail(
                path, f"line {n}: {got} values for {len(probes)} probes"
            )
        for i, v in enumerate(values):
            numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not numeric and v not in SERIES_NONFINITE:
                return fail(path, f"line {n}: value {i} is {v!r}, not a number")
        rows += 1
    print(f"{path}: series OK ({len(probes)} probes, {rows} rows)")
    return True


METRICS_SCHEMA_VERSION = 1


def check_metrics(path, doc):
    if doc.get("schema") != METRICS_SCHEMA_VERSION:
        return fail(
            path,
            f"metrics schema {doc.get('schema')!r}, "
            f"expected {METRICS_SCHEMA_VERSION}",
        )
    series = doc.get("series")
    if not isinstance(series, list):
        return fail(path, "metrics document missing series list")
    seen = set()
    for i, s in enumerate(series):
        if not isinstance(s, dict):
            return fail(path, f"series {i} is not an object")
        name, labels = s.get("name"), s.get("labels")
        if not (isinstance(name, str) and name):
            return fail(path, f"series {i} without a name")
        if not (
            isinstance(labels, dict)
            and all(isinstance(v, str) for v in labels.values())
        ):
            return fail(path, f"series {i} ({name}): labels must map to strings")
        kind, value = s.get("kind"), s.get("value")
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind == "counter":
            if not (isinstance(value, int) and not isinstance(value, bool)
                    and value >= 0):
                return fail(
                    path,
                    f"series {i} ({name}): counter value {value!r} is not "
                    "a non-negative integer",
                )
        elif kind == "gauge":
            if not numeric and value not in SERIES_NONFINITE:
                return fail(
                    path, f"series {i} ({name}): value {value!r} is not a number"
                )
        else:
            return fail(path, f"series {i} ({name}): kind {kind!r} unknown")
        key = (name, tuple(sorted(labels.items())))
        if key in seen:
            return fail(path, f"series {i}: duplicate series {name} {labels}")
        seen.add(key)
    print(f"{path}: metrics OK ({len(series)} series)")
    return True


def fail(path, msg):
    print(f"{path}: FAIL: {msg}")
    return False


def check_events(path, events):
    """events: list of (ts, lane, ph) with ts=None for unstamped events."""
    if not events:
        return fail(path, "no events")
    last_ts = None
    open_spans = {}  # lane -> depth
    for i, (ts, lane, ph) in enumerate(events):
        if ts is not None:
            if last_ts is not None and ts < last_ts:
                return fail(
                    path, f"event {i}: timestamp {ts} < previous {last_ts}"
                )
            last_ts = ts
        if ph == "B":
            open_spans[lane] = open_spans.get(lane, 0) + 1
        elif ph == "E":
            if open_spans.get(lane, 0) == 0:
                return fail(path, f"event {i}: end without open begin on {lane}")
            open_spans[lane] -= 1
    dangling = {k: v for k, v in open_spans.items() if v > 0}
    if dangling:
        return fail(path, f"{len(dangling)} lane(s) left open: {dangling}")
    print(f"{path}: OK ({len(events)} events)")
    return True


SEGMENT_KINDS = (
    "local", "lock-wait", "batch-wait", "nic-serialize", "link-latency",
    "ordering-wait", "timer-wait", "delivery", "unattributed",
)


def check_critpath(path, doc):
    if doc.get("schema") != 1:
        return fail(path, f"critpath schema {doc.get('schema')!r}, expected 1")
    n_txns = doc.get("n_txns")
    if not isinstance(n_txns, int) or n_txns < 0:
        return fail(path, f"bad n_txns {n_txns!r}")
    blame = doc.get("blame")
    if not isinstance(blame, list):
        return fail(path, "missing blame list")
    segs = [b.get("seg") for b in blame]
    if n_txns > 0 and segs != list(SEGMENT_KINDS):
        return fail(path, f"blame rows {segs} != the segment taxonomy")
    txns = doc.get("txns")
    if not isinstance(txns, list):
        return fail(path, "missing txns list")
    if len(txns) > n_txns:
        return fail(path, f"{len(txns)} txn rows for n_txns={n_txns}")
    for i, t in enumerate(txns):
        label = f"txn row {i} ({t.get('txn')!r})"
        for field in ("submit_us", "decide_us", "latency_us", "residual_us"):
            if not isinstance(t.get(field), int):
                return fail(path, f"{label}: missing integer {field!r}")
        if t["latency_us"] != t["decide_us"] - t["submit_us"]:
            return fail(path, f"{label}: latency_us != decide_us - submit_us")
        if t["residual_us"] >= 1:
            return fail(
                path, f"{label}: residual {t['residual_us']}us >= 1us"
            )
        at = t["submit_us"]
        total = 0
        for j, s in enumerate(t.get("segments") or []):
            if s.get("seg") not in SEGMENT_KINDS:
                return fail(path, f"{label}: segment {j} kind {s.get('seg')!r}")
            if s.get("from_us") != at:
                return fail(
                    path,
                    f"{label}: segment {j} starts at {s.get('from_us')}, "
                    f"expected {at} (chain must be contiguous)",
                )
            if s.get("us") != s.get("to_us") - s.get("from_us"):
                return fail(path, f"{label}: segment {j} us != to - from")
            at = s["to_us"]
            total += s["us"]
        if at != t["decide_us"] or total != t["latency_us"]:
            return fail(
                path,
                f"{label}: segments sum to {total}us / end at {at}, "
                f"latency {t['latency_us']}us decide {t['decide_us']}",
            )
    print(f"{path}: critpath OK ({n_txns} txns, {len(txns)} rows checked)")
    return True


def check_flows(path, flows):
    """flows: (ts, id, ph) for every s/t/f event, in emission order."""
    chains = {}
    for ts, fid, ph in flows:
        chains.setdefault(fid, []).append((ts, ph))
    for fid, chain in chains.items():
        phs = "".join(ph for _, ph in chain)
        if not (phs.startswith("s") and phs.endswith("f") and
                set(phs[1:-1]) <= {"t"}):
            return fail(path, f"flow {fid}: phase chain {phs!r}, not s t* f")
        tss = [ts for ts, _ in chain]
        if tss != sorted(tss):
            return fail(path, f"flow {fid}: timestamps not non-decreasing")
    if chains:
        print(f"{path}: flows OK ({len(chains)} chain(s))")
    return True


def check_chrome(path):
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict) and doc.get("stream") == "audit-report":
        return check_audit_report(path, doc)
    if isinstance(doc, dict) and doc.get("stream") == "critpath":
        return check_critpath(path, doc)
    if isinstance(doc, dict) and doc.get("stream") == "metrics":
        return check_metrics(path, doc)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(
            "not a traceEvents object, audit report, critpath or metrics"
        )
    events = []
    flows = []
    for e in doc["traceEvents"]:
        ph = e.get("ph", "")
        if ph == "M":  # metadata (process/thread names): no timestamp
            continue
        if ph in ("s", "t", "f"):
            # flow chains are appended after the span events, so they are
            # ordered per chain, not globally
            flows.append((e["ts"], e.get("id"), ph))
            continue
        events.append((e["ts"], (e.get("pid"), e.get("tid")), ph))
    return check_events(path, events) and check_flows(path, flows)


def check_jsonl(path):
    events = []
    audit_lines = []
    series_lines = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            stream = obj.get("stream")
            if stream == "audit":
                audit_lines.append((n, obj))
            elif stream == "series":
                series_lines.append((n, obj))
            elif stream == "span":
                events.append(
                    (obj["ts_us"], (obj.get("site"), obj.get("txn")), obj["kind"])
                )
    if series_lines and not events and not audit_lines:
        # a standalone series export (run --series FILE.jsonl)
        return check_series_lines(path, series_lines)
    ok = check_events(path, events)
    if audit_lines:
        ok = check_audit_lines(path, audit_lines) and ok
    if series_lines:
        ok = check_series_lines(path, series_lines) and ok
    return ok


def main(paths):
    if not paths:
        print("usage: check_trace.py TRACE...", file=sys.stderr)
        return 2
    ok = True
    for path in paths:
        try:
            ok = (
                check_jsonl(path) if path.endswith(".jsonl") else check_chrome(path)
            ) and ok
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
            ok = fail(path, str(e))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
