#!/usr/bin/env python3
"""Serving benchmark: builds serve_bench from the repo sources, runs one
workload in its own process, and prints the benchmark's metrics.

    python3 servebench/run.py --workload offline_decode --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/servebench.
--trace 0 prints the end-to-end metrics of untraced passes (each the median
over passes, set-up time the median of repeated set-ups); --trace 1 runs a
separate process whose passes alternate untraced and traced, and prints the
per-layer metrics derived from the Chrome traces, the engine's public
counters and the layer micro-probes. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Lines
before it give every metric by name with its unit, the request counts and
the host-noise record of the run (steal time and other processes' CPU time
from /proc/stat, host name, CPU dispatch, pool size, seed, host speed).

Times are host-speed-normalised serving-thread seconds. serve_bench reads
every latency on the serving thread's CPU clock, which excludes time the
hypervisor stole, and brackets each pass and set-up with a fixed probe
loop of its own. On a shared VM the vCPU runs up to 1.7x slower while
another tenant loads the same physical core; the probe slows with it, so
each time is scaled by PROBE_REFERENCE_S over the pass's probe time: the
time the work takes when the probe takes PROBE_REFERENCE_S.
"""

import argparse
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import trace_agg  # noqa: E402

WORKLOADS = ("offline_decode", "online_mixed", "shared_prefix")
# The probe's time at full speed on the host the benchmark was tuned on (a
# 2.1 GHz Xeon VM; about 510 us there, up to 1.6x that when the core is
# shared), so figures read as seconds at that host's full speed.
PROBE_REFERENCE_S = 510e-6
BUILD_DIR = os.path.join(".bench_build", "servebench")
SOURCE_DIR = os.path.dirname(os.path.abspath(__file__))
# Pinned pool size, never the hardware_concurrency default. One thread: on
# a shared 4-vCPU VM a second busy pool thread drew hypervisor steal that
# made identical passes differ by up to 2x, while single-thread passes
# stayed within about 10% of each other.
THREADS = 1
TIME_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds serve_bench; returns its path."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "serve_bench", "-j",
           str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise RuntimeError("build failed")
    return os.path.join(BUILD_DIR, "serve_bench")


def proc_stat():
    """(busy_s, steal_s) summed over all CPUs since boot."""
    with open("/proc/stat", encoding="ascii") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    hz = os.sysconf("SC_CLK_TCK")
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return (user + nice + system + irq + softirq) / hz, steal / hz


def own_cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_binary(binary, args, deadline):
    env = dict(os.environ, KF_NUM_THREADS=str(THREADS))
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise RuntimeError("no time left to run the workload")
    proc = subprocess.run([binary] + args, env=env, capture_output=True,
                          text=True, timeout=budget)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"serve_bench exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values, q):
    return trace_agg.nearest_rank(values, q) if values else 0.0


def speed_factor(probe_s):
    """Scales a time measured while the probe took probe_s to full speed."""
    return PROBE_REFERENCE_S / probe_s


def pass_metrics(p, block_bytes):
    """End-to-end metrics of one pass, from its raw per-request values."""
    ms = 1e3 * speed_factor(p["probe_s"])
    return {
        "output_tok_s":
            p["ok_tokens"] / (p["cpu_s"] * speed_factor(p["probe_s"])),
        "ttft_p50_ms": ms * nearest_rank(p["ttft_s"], 50),
        "ttft_p90_ms": ms * nearest_rank(p["ttft_s"], 90),
        "tpot_p50_ms": ms * nearest_rank(p["tpot_s"], 50),
        "tpot_p90_ms": ms * nearest_rank(p["tpot_s"], 90),
        "stall_p90_ms": ms * nearest_rank(p["stall_s"], 90),
        "kv_peak_mib": p["pool_peak_used_blocks"] * block_bytes / 2**20,
    }


E2E_UNITS = {
    "output_tok_s": "tok/s", "ttft_p50_ms": "ms", "ttft_p90_ms": "ms",
    "tpot_p50_ms": "ms", "tpot_p90_ms": "ms", "stall_p90_ms": "ms",
    "kv_peak_mib": "MiB", "rss_peak_mib": "MiB", "setup_s": "s",
}


def end_to_end(rec):
    passes = [p for p in rec["passes"] if not p["traced"]]
    per_pass = [pass_metrics(p, rec["block_bytes"]) for p in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["rss_peak_mib"] = rec["rss_peak_kib"] / 1024.0
    metrics["setup_s"] = statistics.median(
        t * speed_factor(probe)
        for t, probe in zip(rec["setup_s"], rec["setup_probe_s"]))
    for name, value in metrics.items():
        if name.startswith(("ttft", "stall", "tpot")):
            key = "ttft_s" if name.startswith("ttft") else "tpot_s"
            basis = (f" (median of {len(passes)} passes; nearest rank over "
                     f"{len(passes[0][key])} requests per pass)")
        elif name == "setup_s":
            basis = f" (median of {len(rec['setup_s'])} set-ups)"
        elif name == "rss_peak_mib":
            basis = ""
        else:
            basis = f" (median of {len(passes)} passes)"
        print(f"{name}: {value:.6g} {E2E_UNITS[name]}{basis}")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


def span(agg, name, field="total_us"):
    return agg.get(name, {}).get(field, 0.0)


def traced_pass_metrics(p):
    """Per-layer metrics of one traced pass, from its Chrome trace."""
    agg = trace_agg.aggregate(trace_agg.load_events(p["trace_file"]))
    steps = max(p["steps"], 1)
    f = speed_factor(p["probe_s"])
    step_total = span(agg, "step_batch") or 1.0
    prefill_us = (span(agg, "prefill") + span(agg, "resume_prefill") -
                  span(agg, "resume_replay"))

    def mean_call_us(name):
        n = span(agg, name, "count")
        return span(agg, name) / n if n else 0.0

    return {
        "serve.admit_self_ms": f * span(agg, "admit", "self_us") / 1e3,
        "serve.run_self_us_per_step":
            f * span(agg, "engine.run", "self_us") / steps,
        "serve.sample_us_per_step": f * span(agg, "sample") / steps,
        "model.prefill_us_per_token":
            f * prefill_us / max(p["prefilled_tokens"], 1),
        "model.step_ms_p50": f * span(agg, "step_batch", "p50_us") / 1e3,
        "model.step_ms_p90": f * span(agg, "step_batch", "p90_us") / 1e3,
        "model.project_share": span(agg, "attn.project") / step_total,
        "model.attend_share": span(agg, "attn.attend") / step_total,
        "model.step_other_share":
            span(agg, "step_batch", "self_us") / step_total,
        "kvcache.observe_share": span(agg, "policy.observe") / step_total,
        "mem.prefix_insert_us": f * mean_call_us("prefix.insert"),
        "mem.prefix_adopt_us": f * mean_call_us("prefix.adopt"),
    }


PER_LAYER_UNITS = {
    "serve.steps": "count", "serve.batch_mean": "seq",
    "serve.preemptions": "count", "serve.useful_token_share": "ratio",
    "serve.queue_wait_p50_ms": "ms", "serve.admit_self_ms": "ms",
    "serve.run_self_us_per_step": "us", "serve.sample_us_per_step": "us",
    "model.prefill_us_per_token": "us", "model.step_ms_p50": "ms",
    "model.step_ms_p90": "ms", "model.project_share": "ratio",
    "model.attend_share": "ratio", "model.step_other_share": "ratio",
    "kvcache.observe_share": "ratio", "kvcache.decisions": "count",
    "kvcache.evicted_tokens": "count", "mem.pool_peak_used_blocks": "count",
    "mem.pool_peak_reserved_blocks": "count", "mem.frag_max": "ratio",
    "mem.pool_allocs": "count", "mem.prefix_hit_rate": "ratio",
    "mem.prefix_reused_share": "ratio", "mem.cow_copies": "count",
    "mem.prefix_insert_us": "us", "mem.prefix_adopt_us": "us",
    "core.fork_join_us": "us", "cpu.matvec_ns": "ns", "cpu.matvec_bytes": "B",
    "cpu.softmax_ns": "ns", "cpu.softmax_bytes": "B",
    "cpu.fused_attend_ns": "ns", "cpu.fused_attend_bytes": "B",
    "obs.trace_overhead_pct": "%",
}


def per_layer(rec):
    untraced = [p for p in rec["passes"] if not p["traced"]]
    traced = [p for p in rec["passes"] if p["traced"]]
    # Counters repeat exactly from pass to pass (step-clock schedule).
    p = untraced[0]
    lookups = p["prefix_hits"] + p["prefix_misses"]
    metrics = {
        "serve.steps": p["steps"],
        "serve.batch_mean": p["decoded_tokens"] / max(p["steps"], 1),
        "serve.preemptions": p["preemptions"],
        # Rows the requests needed (each prompt and decoded token once) over
        # rows the engine prefilled, adopted from the prefix cache, decoded
        # or replayed after a preemption.
        "serve.useful_token_share":
            (p["prompt_tokens"] + p["decoded_tokens"]) /
            (p["prefilled_tokens"] + p["prefix_reused_tokens"] +
             p["decoded_tokens"] + p["replayed_tokens"]),
        "serve.queue_wait_p50_ms": 1e3 * statistics.median(
            speed_factor(q["probe_s"]) * nearest_rank(q["queue_wait_s"], 50)
            for q in untraced),
        "kvcache.decisions": p["evict_decisions"],
        "kvcache.evicted_tokens": p["evicted_tokens"],
        "mem.pool_peak_used_blocks": p["pool_peak_used_blocks"],
        "mem.pool_peak_reserved_blocks": p["pool_peak_reserved_blocks"],
        "mem.frag_max": p["frag_max"],
        "mem.pool_allocs": p["pool_allocs"],
        "mem.prefix_hit_rate": p["prefix_hits"] / lookups if lookups else 0.0,
        # Prompt rows adopted from the prefix cache over all prompt rows
        # admissions covered (first admissions and resumes alike).
        "mem.prefix_reused_share": p["prefix_reused_tokens"] / max(
            p["prefilled_tokens"] + p["prefix_reused_tokens"], 1),
        "mem.cow_copies": p["cow_copies"],
    }
    per_pass = [traced_pass_metrics(q) for q in traced]
    for name in per_pass[0]:
        metrics[name] = statistics.median(m[name] for m in per_pass)
    probes = rec["probes"]
    f = speed_factor(probes["probe_s"])
    # Fork-join cost is thread wake-up latency, not compute: left unscaled.
    metrics["core.fork_join_us"] = probes["fork_join_us"]
    for name in ("matvec_ns", "softmax_ns", "fused_attend_ns"):
        metrics["cpu." + name] = f * probes[name]
    for name in ("matvec_bytes", "softmax_bytes", "fused_attend_bytes"):
        metrics["cpu." + name] = probes[name]

    def pass_s(q):
        return q["cpu_s"] * speed_factor(q["probe_s"])

    metrics["obs.trace_overhead_pct"] = 100.0 * (
        statistics.median(pass_s(q) for q in traced) /
        statistics.median(pass_s(q) for q in untraced) - 1.0)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {PER_LAYER_UNITS[name]}")
    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, "
          f"probe cache length k: {probes['cache_len_k']:.0f}, fork-join "
          f"pool: {probes['fork_join_threads']:.0f} threads "
          "(bytes per call are computed from operand sizes)")
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
            for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        binary = build()
    except (OSError, RuntimeError) as exc:
        log(f"error: {exc}")
        return 1

    bin_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds)]
    trace_dir = os.path.join(BUILD_DIR, "traces")
    if args.trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        bin_args += ["--trace-dir", trace_dir]

    busy0, steal0 = proc_stat()
    cpu0 = own_cpu_s()
    t0 = time.monotonic()
    try:
        rec = run_binary(binary, bin_args, deadline)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as exc:
        log(f"error: {exc}")
        return 1
    interval = time.monotonic() - t0
    busy1, steal1 = proc_stat()
    host = {
        "host": socket.gethostname(), "cpu": rec["cpu"],
        "pool_threads": rec["threads"], "seed": args.seed,
        "workload": args.workload, "interval_s": round(interval, 3),
        "steal_s": round(steal1 - steal0, 3),
        "other_cpu_s": round((busy1 - busy0) - (own_cpu_s() - cpu0), 3),
        # Median host speed over the passes: 1.0 is full speed, about 0.6 a
        # physical core shared with a neighbour.
        "host_speed": round(statistics.median(
            speed_factor(p["probe_s"]) for p in rec["passes"]), 3),
    }
    print("host-noise: " + json.dumps(host))

    passes = rec["passes"]
    sent, failed = int(rec["attempted"]), int(rec["failed"])
    print(f"requests: sent {sent} ({len(passes)} passes of "
          f"{int(passes[0]['requests'])} + {int(rec['oracle_checked'])} solo "
          f"re-runs), succeeded {sent - failed}, failed {failed}")
    dropped = sum(p["trace_dropped"] for p in passes)
    metrics = per_layer(rec) if args.trace else end_to_end(rec)
    correct = (rec["failed"] == 0 and rec["oracle_checked"] >= 4 and
               dropped == 0)
    print(json.dumps({"correct": correct, "attempted": sent, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
