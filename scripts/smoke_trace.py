#!/usr/bin/env python3
"""Smoke-test serve_sim's observability surface.

Runs serve_sim with --trace / --metrics / --metrics-csv, then checks
that the artifacts actually round-trip:

  1. the Chrome trace file parses as JSON, has the Trace Event envelope
     (displayTimeUnit + traceEvents), and contains complete ("X") spans
     with non-negative durations covering the engine phases and the
     model phases of decode steps and prompt chunks;
  2. the metrics CSV carries the shared percentile-column schema
     ({series}_p50_ms/_p95_ms/_p99_ms for ttft/itl/queue_wait/step) and
     one data row of finite numbers;
  3. the --metrics stdout report prints the latency-percentile table;
  4. the Prometheus text exposition has well-formed # TYPE lines,
     counter/histogram families with cumulative le= buckets, +Inf,
     _sum and _count, and the engine's decoded-token, prefilled-token,
     preemption and copy-on-write counters;
  5. the monitor time-series JSON parses, reports polls > 0, and every
     series carries [t, value] sample pairs with monotone timestamps.

Usage: smoke_trace.py /path/to/serve_sim
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

# Engine phases, then the model phases of decode steps and prompt chunks.
REQUIRED_SPANS = {
    "engine.run", "prefill", "step_batch", "sample", "retire",
    "attn.project", "attn.attend", "policy.observe", "mlp", "lm_head",
    "prefill_chunk", "prompt.project", "prompt.attend", "prompt.observe",
    "prompt.mlp", "prompt.lm_head",
}
# Engine counts every run must export (EngineStats reads them back).
REQUIRED_COUNTERS = (
    "kf_serve_decoded_tokens_total", "kf_serve_prefilled_tokens_total",
    "kf_sched_preempted_total", "kf_pool_cow_copies_total",
)
SERIES = ("ttft", "itl", "queue_wait", "step")
SUFFIXES = ("_p50_ms", "_p95_ms", "_p99_ms")


def fail(msg: str) -> None:
    print(f"smoke_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: Path) -> None:
    with path.open() as f:
        doc = json.load(f)
    if doc.get("displayTimeUnit") != "ms":
        fail(f"displayTimeUnit missing/unexpected: {doc.get('displayTimeUnit')!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")
    names = set()
    for ev in events:
        for key in ("name", "cat", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"event missing {key!r}: {ev}")
        if ev["ph"] == "X":
            if ev.get("dur", -1) < 0:
                fail(f"complete span with negative/missing dur: {ev}")
            names.add(ev["name"])
        if ev["ts"] < 0:
            fail(f"negative timestamp: {ev}")
    missing = REQUIRED_SPANS - names
    if missing:
        fail(f"trace lacks expected spans: {sorted(missing)}")
    print(f"smoke_trace: trace OK ({len(events)} events, "
          f"{len(names)} distinct span names)")


def check_csv(path: Path) -> None:
    lines = path.read_text().splitlines()
    if len(lines) < 2:
        fail(f"metrics CSV has {len(lines)} line(s); want header + row")
    header = lines[0].split(",")
    expected = [s + suf for s in SERIES for suf in SUFFIXES]
    for col in expected:
        if col not in header:
            fail(f"metrics CSV missing column {col!r} (header: {header})")
    row = lines[1].split(",")
    if len(row) != len(header):
        fail(f"metrics CSV row width {len(row)} != header width {len(header)}")
    for col, cell in zip(header, row):
        try:
            value = float(cell)
        except ValueError:
            fail(f"metrics CSV cell {col}={cell!r} is not numeric")
        if not (value >= 0.0):
            fail(f"metrics CSV cell {col}={cell!r} is negative/NaN")
    print(f"smoke_trace: metrics CSV OK ({len(header)} columns)")


def check_prometheus(path: Path) -> None:
    lines = path.read_text().splitlines()
    if not lines:
        fail("prometheus exposition is empty")
    types = {}     # metric family -> declared type
    histograms = {}  # family -> {"buckets": [(le, count)], "sum": ..., "count": ...}
    samples = 0
    for line in lines:
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        samples += 1
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if not name.startswith("kf_"):
            fail(f"sample without kf_ prefix: {line!r}")
        try:
            value = float(line.rsplit(" ", 1)[1])
        except ValueError:
            fail(f"non-numeric sample value: {line!r}")
        if name.endswith("_bucket"):
            family = name[: -len("_bucket")]
            le = line.split('le="', 1)[1].split('"', 1)[0]
            bound = float("inf") if le == "+Inf" else float(le)
            histograms.setdefault(family, {"buckets": []})["buckets"].append(
                (bound, value))
        elif name.endswith("_sum"):
            histograms.setdefault(name[:-4], {"buckets": []})["sum"] = value
        elif name.endswith("_count"):
            histograms.setdefault(name[:-6], {"buckets": []})["count"] = value
    if samples == 0:
        fail("prometheus exposition has no samples")
    counters = [m for m, t in types.items() if t == "counter"]
    if not counters:
        fail("prometheus exposition declares no counters")
    for name in counters:
        if not name.endswith("_total"):
            fail(f"counter family {name!r} lacks the _total suffix")
    missing = [name for name in REQUIRED_COUNTERS if name not in counters]
    if missing:
        fail(f"prometheus exposition lacks engine counters: {missing}")
    hist_families = [m for m, t in types.items() if t == "histogram"]
    if not hist_families:
        fail("prometheus exposition declares no histograms")
    for family in hist_families:
        h = histograms.get(family)
        if h is None or not h["buckets"]:
            fail(f"histogram {family!r} has no _bucket samples")
        if "sum" not in h or "count" not in h:
            fail(f"histogram {family!r} missing _sum/_count")
        bounds = [b for b, _ in h["buckets"]]
        counts = [c for _, c in h["buckets"]]
        if bounds != sorted(bounds) or bounds[-1] != float("inf"):
            fail(f"histogram {family!r} buckets not sorted / missing +Inf")
        if counts != sorted(counts):
            fail(f"histogram {family!r} bucket counts not cumulative")
        if counts[-1] != h["count"]:
            fail(f"histogram {family!r}: +Inf bucket {counts[-1]} != "
                 f"_count {h['count']}")
    print(f"smoke_trace: prometheus OK ({samples} samples, "
          f"{len(counters)} counters, {len(hist_families)} histograms)")


def check_timeseries(path: Path) -> None:
    with path.open() as f:
        doc = json.load(f)
    for key in ("period_ms", "polls", "series"):
        if key not in doc:
            fail(f"timeseries JSON missing {key!r}")
    if doc["polls"] <= 0:
        fail(f"timeseries JSON reports polls={doc['polls']}; monitor never ran")
    series = doc["series"]
    if not isinstance(series, list) or not series:
        fail("timeseries JSON has no series")
    for s in series:
        for key in ("name", "dropped", "samples"):
            if key not in s:
                fail(f"series entry missing {key!r}: {s}")
        last_t = float("-inf")
        for sample in s["samples"]:
            if (not isinstance(sample, list) or len(sample) != 2
                    or not all(isinstance(v, (int, float)) for v in sample)):
                fail(f"series {s['name']!r} has malformed sample {sample!r}")
            if sample[0] < last_t:
                fail(f"series {s['name']!r} timestamps not monotone")
            last_t = sample[0]
    names = {s["name"] for s in series}
    for required in ("engine.steps", "pool.used_blocks"):
        if required not in names:
            fail(f"timeseries JSON lacks the {required!r} probe")
    print(f"smoke_trace: timeseries OK ({len(series)} series, "
          f"{doc['polls']} polls)")


def main() -> None:
    if len(sys.argv) != 2:
        fail("usage: smoke_trace.py /path/to/serve_sim")
    serve_sim = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        csv_path = Path(tmp) / "metrics.csv"
        prom_path = Path(tmp) / "metrics.prom"
        ts_path = Path(tmp) / "timeseries.json"
        cmd = [
            serve_sim, "--paged", "--block-tokens", "16",
            "--kv-budget", "1200", "--metrics",
            "--trace", str(trace_path), "--metrics-csv", str(csv_path),
            "--monitor-period-ms", "5", "--prom-out", str(prom_path),
            "--timeseries-out", str(ts_path),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail(f"serve_sim exited {proc.returncode}")
        if "latency percentiles" not in proc.stdout:
            fail("--metrics report missing the latency-percentiles table")
        if "metrics registry" not in proc.stdout:
            fail("--metrics report missing the registry dump")
        check_trace(trace_path)
        check_csv(csv_path)
        check_prometheus(prom_path)
        check_timeseries(ts_path)
    print("smoke_trace: PASS")


if __name__ == "__main__":
    main()
