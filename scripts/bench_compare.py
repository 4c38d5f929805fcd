#!/usr/bin/env python3
"""Compare two servebench ledger entries against BENCHMARK.json's bounds,
or check one ledger's claimed gain against the pair rule.

    python3 scripts/bench_compare.py A.json B.json
    python3 scripts/bench_compare.py LEDGER.json:parent LEDGER.json:change
    python3 scripts/bench_compare.py LEDGER.json --claim METRIC WORKLOAD
    python3 scripts/bench_compare.py LEDGER.json --claim

A ledger file (BENCH_<n>.json at the repository root) records one change's
servebench result: alternating parent/change runs per workload, each run's
end-to-end metrics and host-noise line, and per side the median and
quartiles of every metric. Each argument names a file and, after a colon,
the side to read ("parent" or "change"; "change" when omitted), so two
ledger files compare one change's result with the next, and one file's two
sides give that change's own deltas.

For every workload in both and every end-to-end metric BENCHMARK.json
declares, the script prints A's and B's medians, the relative change (a
positive sign means better, whichever direction the metric improves in),
each side's spread (interquartile range over the median) and a verdict:

  worse       B is worse than A by more than the metric's bound
  unresolved  within the bound, but a side's spread exceeds the bound, and
              not every run of B is better than every run of A
  ok          otherwise

A workload whose runs were not all correct, or whose failed share of
requests rose from A to B, is flagged too. The exit status is 1 when any
metric is "worse" or any such flag is raised, 2 on a usage error, else 0.

With --claim, the script checks that the change improves METRIC on
WORKLOAD by the pair rule, reading the ledger's alternating `pairs`: at
least 10 pairs; the change better than its parent in at least 9 of every
10 pairs (a tie counts for neither side); and the change's median better
than the parent's by more than the parent's interquartile range, the
quartiles interpolated linearly between the sorted runs, as the ledgers
record them. It prints the workload's held-out pair when the ledger has
one. Without METRIC and WORKLOAD it checks the ledger's own claim, the
object {"metric": ..., "workload": ...} under its "claim" key; a ledger
without one is a usage error. The exit status is 0 when the rule holds, 1
when it does not, 2 on a usage error.

The script reads the files named and BENCHMARK.json; it runs nothing.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_side(arg):
    """(label, {workload: side record}) for a FILE[:SIDE] argument."""
    path, _, side = arg.partition(":")
    side = side or "change"
    with open(path) as f:
        ledger = json.load(f)
    out = {}
    for name, wl in ledger["workloads"].items():
        if side not in wl:
            raise KeyError(f"{path}: workload {name} has no '{side}' side")
        out[name] = wl[side]
    return f"{os.path.basename(path)}:{side}", out


def spread(stats):
    """Interquartile range over the median."""
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] \
        else 0.0


def compare(metric, a, b):
    """(relative gain of B over A, verdict) for one metric's two sides."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    ma, mb = a["median"], b["median"]
    gain = sign * (mb - ma) / ma if ma else 0.0
    if gain < -metric["bound"]:
        return gain, "worse"
    wide = max(spread(a), spread(b)) > metric["bound"]
    if wide:
        better = (min(b["runs"]) > max(a["runs"]) if sign > 0
                  else max(b["runs"]) < min(a["runs"]))
        if not better:
            return gain, "unresolved"
    return gain, "ok"


def failed_share(side):
    return side["failed"] / side["attempted"] if side["attempted"] else 0.0


def claim(bench, path, metric_name, workload):
    """Exit status of the pair-rule check for one claimed metric."""
    metric = next((m for m in bench["end_to_end"]
                   if m["name"] == metric_name), None)
    if metric is None:
        print(f"error: BENCHMARK.json declares no metric {metric_name}",
              file=sys.stderr)
        return 2
    with open(path) as f:
        ledger = json.load(f)
    wl = ledger["workloads"].get(workload)
    if wl is None or "pairs" not in wl:
        print(f"error: {path}: no pairs for workload {workload}",
              file=sys.stderr)
        return 2
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = [(p["parent"]["metrics"][metric_name],
              p["change"]["metrics"][metric_name]) for p in wl["pairs"]]
    n = len(pairs)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
    ok = True
    print(f"{os.path.basename(path)}: claim {metric_name} on {workload} "
          f"({metric['better']} is better)")
    if n < 10:
        ok = False
        print(f"  pairs: {n} < 10")
    print(f"  change better in {wins} of {n} pairs ({losses} worse, "
          f"{n - wins - losses} tied)")
    if 10 * wins < 9 * n:
        ok = False
        print("  fewer than 9 wins in 10")
    if n >= 2:
        # Quartiles interpolated linearly between the sorted runs.
        pq1, pmed, pq3 = statistics.quantiles([a for a, _ in pairs], n=4,
                                              method="inclusive")
        cmed = statistics.median([b for _, b in pairs])
        gap = sign * (cmed - pmed)
        iqr = pq3 - pq1
        print(f"  median {pmed:.4g} -> {cmed:.4g}: gap {gap:+.4g} against "
              f"the parent's IQR {iqr:.4g}")
        if gap <= iqr:
            ok = False
            print("  the median gap does not exceed the parent's IQR")
    held = wl.get("held_out")
    if held is not None:
        a = held["parent"]["metrics"][metric_name]
        b = held["change"]["metrics"][metric_name]
        print(f"  held-out seed {held['seed']}: {a:.4g} -> {b:.4g} "
              f"({100 * sign * (b - a) / a:+.1f}%)")
    print("  claim holds" if ok else "  claim FAILS")
    return 0 if ok else 1


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if len(argv) in (3, 5) and argv[2] == "--claim":
        try:
            if len(argv) == 5:
                return claim(bench, argv[1], argv[3], argv[4])
            with open(argv[1]) as f:
                own = json.load(f).get("claim")
            if own is None:
                print(f"error: {argv[1]} carries no claim", file=sys.stderr)
                return 2
            return claim(bench, argv[1], own["metric"], own["workload"])
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if len(argv) != 3:
        print("usage: bench_compare.py A.json[:SIDE] B.json[:SIDE]\n"
              "       bench_compare.py LEDGER.json --claim [METRIC WORKLOAD]",
              file=sys.stderr)
        return 2
    try:
        label_a, side_a = load_side(argv[1])
        label_b, side_b = load_side(argv[2])
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    bad = False
    print(f"A = {label_a}, B = {label_b}; gain > 0 means B is better")
    for name in [w["name"] for w in bench["workloads"]]:
        if name not in side_a or name not in side_b:
            continue
        a, b = side_a[name], side_b[name]
        print(f"\n{name}")
        print(f"  {'metric':<14} {'A':>10} {'B':>10} {'gain':>8} "
              f"{'IQR A':>7} {'IQR B':>7} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            if key not in a["metrics"] or key not in b["metrics"]:
                continue
            ma, mb = a["metrics"][key], b["metrics"][key]
            gain, verdict = compare(metric, ma, mb)
            bad |= verdict == "worse"
            print(f"  {key:<14} {ma['median']:>10.4g} {mb['median']:>10.4g} "
                  f"{100 * gain:>+7.1f}% {100 * spread(ma):>6.1f}% "
                  f"{100 * spread(mb):>6.1f}% {100 * metric['bound']:>5.0f}%"
                  f"  {verdict}")
        for label, side in (("A", a), ("B", b)):
            if not side["correct"]:
                bad = True
                print(f"  {label}: not every run was correct")
        if failed_share(b) > failed_share(a):
            bad = True
            print(f"  failed share rose: {failed_share(a):.4f} -> "
                  f"{failed_share(b):.4f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
