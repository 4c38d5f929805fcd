"""Per-span-name aggregation of a Chrome trace-event file.

For every complete ("ph": "X") span the aggregation reports count, total
time, self time and the nearest-rank median duration. Self time is a
span's duration minus the part of its interval that its children on the
same thread cover; children never cross threads.

The parent of a span is the shortest longer span on the same thread whose
interval contains the child's start, allowing the child to start up to
TOLERANCE_US before it. The tolerance covers spans laid out from a
timestamp taken just before their parent opened, such as the engine's
synthetic attn.project / attn.attend / policy.observe spans, which start
at the tick read immediately before the step_batch scope.
"""

import json
import math

TOLERANCE_US = 1.0


def nearest_rank(values, q):
    """Nearest-rank percentile (q in (0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _covered(parent, children):
    """Length of the union of the children's intervals clipped to parent."""
    start, end = parent["ts"], parent["ts"] + parent["dur"]
    pieces = sorted(
        (max(start, c["ts"]), min(end, c["ts"] + c["dur"])) for c in children)
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in pieces:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def span_self_times(events):
    """Returns [(event, self_us)] for every complete span in `events`."""
    by_tid = {}
    for ev in events:
        if ev.get("ph") == "X":
            by_tid.setdefault(ev.get("tid"), []).append(ev)
    out = []
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        children = [[] for _ in spans]
        open_idx = []  # spans whose interval may still contain later starts
        ahead = 0  # spans[:ahead] have been added to open_idx
        for i, ev in enumerate(spans):
            while ahead < len(spans) and spans[ahead]["ts"] <= ev["ts"] + TOLERANCE_US:
                open_idx.append(ahead)
                ahead += 1
            open_idx = [j for j in open_idx
                        if spans[j]["ts"] + spans[j]["dur"] > ev["ts"]]
            parent = None
            for j in open_idx:
                cand = spans[j]
                if j == i or (cand["dur"], -j) <= (ev["dur"], -i):
                    continue
                if parent is None or cand["dur"] < spans[parent]["dur"]:
                    parent = j
            if parent is not None:
                children[parent].append(ev)
        for ev, kids in zip(spans, children):
            out.append((ev, ev["dur"] - _covered(ev, kids)))
    return out


def aggregate(events):
    """{name: {"count", "total_us", "self_us", "p50_us", "p90_us"}} over X
    spans."""
    durs = {}
    stats = {}
    for ev, self_us in span_self_times(events):
        s = stats.setdefault(ev["name"], {"count": 0, "total_us": 0.0,
                                          "self_us": 0.0})
        s["count"] += 1
        s["total_us"] += ev["dur"]
        s["self_us"] += self_us
        durs.setdefault(ev["name"], []).append(ev["dur"])
    for name, s in stats.items():
        s["p50_us"] = nearest_rank(durs[name], 50)
        s["p90_us"] = nearest_rank(durs[name], 90)
    return stats


def load_events(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["traceEvents"]
