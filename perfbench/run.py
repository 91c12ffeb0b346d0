"""Traffic benchmark for the DPDPU reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload dds-mixed --seed 1 \
        --seconds 20 --trace 0

One process runs one workload.  It repeats *rounds* (set up, run the
measured phase, check every output) until ``--seconds`` of host time
have passed, at least twice, and checks that every round produced the
same simulated results.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics.  The last line of standard output is one JSON
object; the line before it holds the details (provenance, tail
percentiles, sample counts, latency limits, the reference loop).
The exit code is 1 when any output or determinism check fails.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, Spans, host_seconds_by_layer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dds-mixed", "scan-mix", "sproc-compress")
#: rounds per untraced run, at the least: two rounds with one seed are
#: the same-seed determinism check
MIN_ROUNDS = 2
#: the latency tail is the value with exactly this many samples beyond
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- provenance and host reference --------------------------------------------


def _git(*args):
    result = subprocess.run(["git", "-C", str(ROOT), *args],
                            capture_output=True, text=True, timeout=30)
    return result.stdout.strip() if result.returncode == 0 else None


def provenance(seed: int) -> dict:
    """Which code and host produced this result."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if (path.is_file() and "__pycache__" not in path.parts
                and path.suffix != ".pyc"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {"git_sha": sha, "git_dirty": dirty,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed}


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop (host speed drift)."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


# -- one round ----------------------------------------------------------------


def one_round(workload_cls, seed: int, spans, profiler=None) -> dict:
    """Set up, run and verify one round; host timings plus results."""
    if profiler is not None:
        profiler.enable()
    began = time.perf_counter()
    workload = workload_cls(seed, spans)
    set_up = time.perf_counter()
    workload.run()
    ran = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    with spans.span("verify"):
        checks = workload.verify()
    result = workload.result(checks)
    round_ = {"setup_s": set_up - began, "run_s": ran - set_up,
              "result": result,
              "plan_host_s": getattr(workload, "plan_host_s", [])}
    del workload
    gc.collect()
    return round_


def fingerprint(result) -> str:
    """Digest of everything simulated in a round."""
    document = json.dumps(result.__dict__, sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


def tail(samples):
    """(value, percentile, samples) of the highest percentile with at
    least ``TAIL_BEYOND`` samples beyond it; the maximum when there
    are too few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * index / (n - 1), n


# -- metrics ------------------------------------------------------------------


def end_to_end(rounds, workload_cls) -> tuple:
    result = rounds[0]["result"]
    latency_tail = tail(result.latencies)
    write_tail = tail(result.write_latencies)
    window = result.window_s
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024.0, "MB"),
        "latency_p50_us": (statistics.median(result.latencies) * 1e6,
                           "us"),
        "latency_tail_us": (latency_tail[0] * 1e6, "us"),
        "write_tail_us": (write_tail[0] * 1e6, "us"),
        "goodput_kops": (result.on_time / result.span_s / 1e3,
                         "kops/s"),
        "host_cores": (result.host_busy_s / window, "cores"),
        "dpu_cores": (result.dpu_busy_s / window, "cores"),
        "ok_frac": (result.correct / result.attempted, "fraction"),
    }
    details = {
        "latency_limit_us": workload_cls.latency_limit_s * 1e6,
        "latency_tail": {"percentile": latency_tail[1],
                         "samples": latency_tail[2],
                         "beyond": min(TAIL_BEYOND, latency_tail[2])},
        "write_tail": {"percentile": write_tail[1],
                       "samples": write_tail[2],
                       "beyond": min(TAIL_BEYOND, write_tail[2])},
        "error_frac": 1.0 - result.correct / result.attempted,
        "window_sim_s": window,
        "generator_late_max_us":
            result.counters.get("generator_late_max_s", 0.0) * 1e6,
        "setup_s_rounds": [r["setup_s"] for r in rounds],
        "run_s_rounds": [r["run_s"] for r in rounds],
    }
    return metrics, details


def per_layer(plain, traced, host_seconds, ref_loop_s) -> dict:
    result = plain["result"]
    c = result.counters
    ops = result.attempted
    total = sum(host_seconds.values())
    share = {owner: seconds / total
             for owner, seconds in host_seconds.items()}

    def host_share(owner):
        return (share.get(owner, 0.0), "fraction")

    local = c.get("cluster.shard_local", 0.0)
    handled = local + c["core.dds_offloaded"] + c["core.dds_forwarded"]
    events = c["sim.events"]
    pooled = c["sim.pool_hits"] + c["sim.pool_misses"]
    algos_host_s = plain["run_s"] * share.get("algos", 0.0)
    metrics = {
        "sim.events": (events, "count"),
        "sim.events_per_host_s": (events / plain["run_s"], "1/s"),
        "sim.pool_hit_ratio": (c["sim.pool_hits"] / pooled
                               if pooled else 0.0, "fraction"),
        "sim.calendar_promotions": (c["sim.calendar_promotions"],
                                    "count"),
        "sim.host_share": host_share("sim"),
        "netstack.segments_per_op": (c["netstack.segments"] / ops,
                                     "count/op"),
        "netstack.retransmits": (c["netstack.retransmits"], "count"),
        "netstack.host_share": host_share("netstack"),
        "hardware.host_cycles_per_op": (c["hardware.host_cycles"] / ops,
                                        "cycles/op"),
        "hardware.dpu_cycles_per_op": (c["hardware.dpu_cycles"] / ops,
                                       "cycles/op"),
        "hardware.pcie_bytes_per_op": (c["hardware.pcie_bytes"] / ops,
                                       "bytes/op"),
        "hardware.nic_bytes_per_op": (c["hardware.nic_bytes"] / ops,
                                      "bytes/op"),
        "hardware.ssd_ops_per_op": (c["hardware.ssd_ops"] / ops,
                                    "count/op"),
        "hardware.asic_jobs": (c["hardware.asic_jobs"], "count"),
        "hardware.host_share": host_share("hardware"),
        "core.offload_fraction": (1.0 - c["core.dds_forwarded"] / handled
                                  if handled else 0.0, "fraction"),
        "core.se_host_ops": (c["core.se_host_ops"], "count"),
        "core.kernel_executions": (c["core.kernel_executions"],
                                   "count"),
        "core.placement.dpu_asic": (c.get("core.placement.dpu_asic",
                                          0.0), "count"),
        "core.placement.dpu_cpu": (c.get("core.placement.dpu_cpu",
                                         0.0), "count"),
        "core.placement.host_cpu": (c.get("core.placement.host_cpu",
                                          0.0), "count"),
        "core.sched_wait_p50_us": (c.get("core.sched_wait_p50_s", 0.0)
                                   * 1e6, "us/sproc"),
        "core.host_share": host_share("core"),
        "fs.host_share": host_share("fs"),
        "cluster.routed_fraction": (c.get("cluster.shard_routed", 0.0)
                                    / local if local else 0.0,
                                    "fraction"),
        "cluster.forward_failures": (c.get("cluster.forward_failures",
                                           0.0), "count"),
        "cluster.shard_errors": (c.get("cluster.shard_errors", 0.0),
                                 "count"),
        "cluster.breaker_trips": (c.get("cluster.breaker_trips", 0.0),
                                  "count"),
        "cluster.host_share": host_share("cluster"),
        "query.pushdown_fraction": (c.get("query.pushdown_fraction",
                                          0.0), "fraction"),
        "query.coord_rx_bytes_per_query": (
            c.get("query.coord_rx_bytes", 0.0) / ops, "bytes/query"),
        "query.rows_out_per_row_scanned": (
            c.get("query.rows_out_per_row_scanned", 0.0), "fraction"),
        "query.plan_host_s": (statistics.median(plain["plan_host_s"])
                              if plain["plan_host_s"] else 0.0,
                              "s/query"),
        "query.host_share": host_share("query"),
        "algos.host_share": host_share("algos"),
        "algos.deflate_bytes_per_host_s": (
            c.get("algos.deflate_bytes", 0.0) / algos_host_s
            if algos_host_s else 0.0, "bytes/s"),
        "algos.compress_ratio": (c.get("algos.compress_ratio", 0.0),
                                 "ratio"),
        "workloads.host_share": host_share("workloads"),
        "bench.host_share": host_share("bench"),
        "other.host_share": (sum(
            value for owner, value in share.items()
            if owner not in LAYERS and owner != "bench"), "fraction"),
        "bench.tracing_overhead": (traced["run_s"] / plain["run_s"],
                                   "ratio"),
        "bench.ref_loop_s": (ref_loop_s, "s"),
    }
    return metrics


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from traffic import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    info = {"workload": args.workload,
            "provenance": provenance(args.seed)}
    refs = []
    if args.trace:
        plain = one_round(workload_cls, args.seed, Spans(False))
        refs.append(reference_loop())
        spans = Spans(True)
        profiler = cProfile.Profile()
        traced = one_round(workload_cls, args.seed, spans, profiler)
        refs.append(reference_loop())
        rounds = [plain, traced]
        host_seconds = host_seconds_by_layer(
            pstats.Stats(profiler).stats, str(SRC), str(BENCH_DIR))
        metrics = per_layer(plain, traced, host_seconds,
                            statistics.median(refs))
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"],
             "spans": spans.records}))
        info.update({"host_seconds_by_owner": host_seconds,
                     "spans": spans.summary(),
                     "spans_file": str(spans_path.relative_to(ROOT))})
    else:
        rounds = []
        started = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - started < args.seconds):
            rounds.append(one_round(workload_cls, args.seed,
                                    Spans(False)))
            refs.append(reference_loop())
        metrics, details = end_to_end(rounds, workload_cls)
        info.update(details)

    prints = [fingerprint(r["result"]) for r in rounds]
    deterministic = len(set(prints)) == 1
    attempted = sum(r["result"].attempted for r in rounds)
    failed = sum(r["result"].attempted - r["result"].correct
                 for r in rounds)
    correct = deterministic and failed == 0
    info.update({"rounds": len(rounds), "ref_loop_s": refs,
                 "sim_fingerprints": prints,
                 "deterministic": deterministic})
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6f} {unit}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
