"""Command-line experiment runner: ``python -m repro.bench``.

Regenerates the paper's figures (and the ablations) without pytest::

    python -m repro.bench              # everything
    python -m repro.bench fig1 fig2    # a subset
    python -m repro.bench --list       # available experiments

The benchmark observatory rides on the same runner:

* ``--json-out BENCH_<runid>.json`` serializes every selected
  experiment's structured result into a schema-versioned artifact
  with provenance (git sha, python version, per-experiment wall
  clock, hardware profiles, workload seed);
* ``--check ARTIFACT.json`` evaluates the declarative paper-claims
  registry (F1–F3, F6–F8, S9 — see ``repro.obs.claims``) against an
  artifact and exits nonzero on any FAIL;
* ``--compare BASELINE.json [CANDIDATE.json]`` judges every
  simulated value exactly and real time against budgets (see
  ``repro.obs.regress``); with one path the selected experiments run
  and only they are judged, with two every experiment of either is;
* ``--profile`` attributes *real* (not simulated) time per experiment
  via cProfile, prints a top-N hotspot table, and persists the rows
  into the ``--json-out`` artifact (``experiments.<key>.profile``) so
  nightly retains them;
* ``--trace-out PATH`` runs the traceable experiments (fig6, fig8,
  scale, avail, obs, attr) with sim-time tracing on and exports
  Chrome ``trace_event`` JSON openable in Perfetto
  (https://ui.perfetto.dev), plus a flame summary per experiment.
  Cluster experiments trace through a ClusterTelemetry plane, so the
  merged file renders one Chrome process per node;
* ``--attr-out PATH`` does the same tracing run but exports
  per-experiment latency *attribution* reports — each DDS request's
  end-to-end latency decomposed into a conserved per-resource ledger
  (see ``repro.obs.attr``) — plus a top-bottleneck summary; it
  fails on a conservation error above 1e-9 s or zero requests;
* ``--jobs N`` fans the selected experiments out over a process
  pool.  Experiments are independent simulations with fixed seeds,
  so every result equals a sequential run's — which is exactly what
* ``--identity A.json B.json`` checks: ``--compare`` without the
  real-time budgets, the CI gate for the parallel runner.

Exit codes: 0 success; 1 failed claim, regression, identity mismatch
or broken attribution conservation; 2 usage or artifact error; 3
``--trace-out``/``--attr-out`` with no traceable experiment selected.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import multiprocessing
import os
import pstats
import sys
import time

from . import (
    a1_parts,
    a2_parts,
    a3_parts,
    a4_parts,
    a5_parts,
    a6_parts,
    attr_parts,
    availability_parts,
    banner,
    fig1_parts,
    fig2_parts,
    fig3_parts,
    fig6_parts,
    fig7_parts,
    fig8_parts,
    format_sweep,
    format_table,
    obs_parts,
    perf_parts,
    query_parts,
    s9_parts,
    scale_parts,
    slo_parts,
)
from .harness import Sweep
from ..obs import ClusterTelemetry, Telemetry
from ..obs.artifact import (
    decode_part,
    encode_part,
    load_artifact,
    make_artifact,
    write_artifact,
)
from ..obs.attr import build_report
from ..obs.claims import FAIL, evaluate_all, render_claim_report
from ..obs.regress import (
    compare,
    render_attribution_shifts,
    render_comparison,
)

#: experiments whose runner accepts a Telemetry (for --trace-out)
TRACEABLE = ("fig6", "fig8", "scale", "avail", "obs", "attr")

#: the largest attribution conservation error (s) --attr-out accepts
CONSERVATION_BOUND_S = 1e-9

#: traceable experiments that run a Cluster and therefore take a
#: ClusterTelemetry plane (one Chrome process per node in the trace)
_CLUSTER_TRACED = ("scale", "obs", "attr")


def _make_telemetry(key: str):
    """The tracing bundle a traceable experiment's runner accepts."""
    if key in _CLUSTER_TRACED:
        return ClusterTelemetry(tracing=True, name=key)
    return Telemetry(tracing=True, name=key)

EXPERIMENTS = {
    "fig1": ("Figure 1: compression on different hardware",
             fig1_parts),
    "fig2": ("Figure 2: CPU consumption of storage access",
             fig2_parts),
    "fig3": ("Figure 3: CPU consumption of TCP", fig3_parts),
    "fig6": ("Figure 6: read-compress-send sproc", fig6_parts),
    "fig7": ("Figure 7: DPU-optimized RDMA", fig7_parts),
    "fig8": ("Figure 8: DDS remote-read latency", fig8_parts),
    "s9": ("Section 9: DDS cores saved", s9_parts),
    "a1": ("A1: sproc scheduling policies", a1_parts),
    "a2": ("A2: DPU portability", a2_parts),
    "a3": ("A3: cache placement", a3_parts),
    "a4": ("A4: fast persistence", a4_parts),
    "a5": ("A5: partial offloading", a5_parts),
    "a6": ("A6: kernel fusion on PCIe peers", a6_parts),
    "avail": ("Availability: goodput/p99 under faults, "
              "recovery on/off", availability_parts),
    "perf": ("Kernel microbenchmarks: event throughput, timeout "
             "churn, interrupt storms", perf_parts),
    "scale": ("SC: cluster goodput/host-cores/TCO vs node count, "
              "sharding, rebalance under DPU failure", scale_parts),
    "obs": ("OB: distributed tracing, telemetry plane, SLO flight "
            "recorder", obs_parts),
    "attr": ("AT: latency attribution, conservation invariant, "
             "offload advisor", attr_parts),
    "slo": ("SL: overload-safe self-healing — admission control, "
            "autoscale, hot-shard split vs the chaos matrix",
            slo_parts),
    "query": ("Q: distributed scans — pushdown vs pull, planner "
              "vs measured argmin, identity, stale routing",
              query_parts),
}


# -- parallel execution -----------------------------------------------------


def _run_job(key: str):
    """Run one experiment in a worker process.

    Returns everything the parent needs, in picklable form: the
    parts are pre-encoded to the JSON-safe artifact schema (a Sweep
    full of generator-bearing internals never crosses the process
    boundary) and the table text is rendered here so the parent only
    prints.  Each experiment builds its own Environment with its own
    fixed seeds, so process placement cannot perturb results — the
    byte-identity check (``--identity``) enforces exactly that.
    """
    title, fn = EXPERIMENTS[key]
    started = time.time()
    parts = fn()
    wall = time.time() - started
    rendered = _render_parts(parts)
    encoded = {name: encode_part(result)
               for name, result in parts.items()}
    return key, title, wall, rendered, encoded


def _run_parallel(selected, jobs: int) -> dict:
    """Fan experiments out over a process pool, stable order.

    ``imap`` preserves submission order, so output and artifact
    contents are ordered exactly like a sequential run regardless of
    which worker finishes first.
    """
    results = {}
    workers = min(jobs, len(selected))
    with multiprocessing.Pool(processes=workers) as pool:
        for key, title, wall, rendered, encoded in \
                pool.imap(_run_job, selected):
            print(banner(title))
            print(rendered)
            print(f"[{key} done in {wall:.1f}s]")
            results[key] = {
                "title": title,
                "wall_clock_s": wall,
                "parts": {name: decode_part(part)
                          for name, part in encoded.items()},
            }
    return results


# -- rendering --------------------------------------------------------------


def _dict_table(result: dict) -> str:
    if not result:
        return "(no results)"
    return format_table(["metric", "value"],
                        [[key, value] for key, value in result.items()])


def _nested_table(results: dict) -> str:
    """Config-per-row table over the union of metric keys.

    Handles an empty results dict and ragged configs (a metric some
    configs lack renders as NaN) instead of raising.
    """
    if not results:
        return "(no results)"
    keys: list = []
    for outcome in results.values():
        for key in outcome:
            if key not in keys:
                keys.append(key)
    rows = [[name] + [outcome.get(key, float("nan")) for key in keys]
            for name, outcome in results.items()]
    return format_table(["config"] + keys, rows)


def _render_parts(parts: dict) -> str:
    """Print-ready text for one experiment's structured result."""
    blocks = []
    for name, result in parts.items():
        if isinstance(result, Sweep):
            body = format_sweep(result)
        elif isinstance(result, dict) and result and \
                all(isinstance(value, dict)
                    for value in result.values()):
            body = _nested_table(result)
        else:
            body = _dict_table(result)
        blocks.append(f"{name}:\n{body}" if len(parts) > 1 else body)
    return "\n\n".join(blocks)


def _write_trace(path, traced):
    """Merge per-experiment traces into one Chrome trace JSON.

    Every telemetry bundle exports through the same protocol
    (``to_chrome_events``); a single-node experiment contributes one
    Chrome process, a cluster experiment one process per node (its
    ClusterTelemetry already merged the per-node tracers and resolved
    cross-node parent links).  Pids are offset per experiment and the
    ``process_name`` metadata is rewritten to
    ``<experiment>[/<node>]`` so Perfetto labels every track.
    """
    events = []
    pid_base = 0
    for key, telemetry in traced:
        width = 0
        for event in telemetry.to_chrome_events():
            event = dict(event)
            pid = event.get("pid", 1)
            width = max(width, pid)
            event["pid"] = pid_base + pid
            if event.get("ph") == "M" \
                    and event.get("name") == "process_name":
                sub = event.get("args", {}).get("name", "")
                label = key if sub in ("", key) else f"{key}/{sub}"
                event["args"] = {"name": label}
            events.append(event)
        pid_base += width
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {"clock": "simulated seconds",
                      "source": "python -m repro.bench"},
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, default=str)
    print(f"\n[trace: {len(events)} events -> {path}]")
    for key, telemetry in traced:
        print(f"\nflame summary ({key}):")
        print(telemetry.flame_summary())


def _hotspot_rows(profiler: cProfile.Profile,
                  top_n: int = 10) -> list:
    """Structured top-N real-time hotspots of one experiment.

    Plain JSON-able dicts, so the rows can ride into the run
    artifact (``results[key]["profile"]``) and survive into nightly
    uploads instead of evaporating on stdout.
    """
    stats = pstats.Stats(profiler)
    rows = []
    entries = sorted(stats.stats.items(),
                     key=lambda item: item[1][3], reverse=True)
    for (filename, lineno, funcname), \
            (ccalls, ncalls, tottime, cumtime, _callers) in entries:
        if filename.startswith("~"):
            where = funcname
        else:
            where = f"{os.path.basename(filename)}:{lineno}({funcname})"
        rows.append({"ncalls": ncalls, "tottime_s": round(tottime, 6),
                     "cumtime_s": round(cumtime, 6),
                     "function": where})
        if len(rows) >= top_n:
            break
    return rows


def _hotspot_table(rows: list) -> str:
    """The printed form of :func:`_hotspot_rows`."""
    if not rows:
        return "(no profile samples)"
    return format_table(
        ["ncalls", "tottime (s)", "cumtime (s)", "function"],
        [[row["ncalls"], f"{row['tottime_s']:.3f}",
          f"{row['cumtime_s']:.3f}", row["function"]]
         for row in rows])


def _tracer_pairs(key: str, telemetry):
    """(node, tracer) pairs from either telemetry flavor."""
    if hasattr(telemetry, "tracers"):     # ClusterTelemetry
        return telemetry.tracers()
    return [(key, telemetry.tracer)]


def _write_attr(path: str, traced) -> int:
    """Per-experiment attribution reports as one JSON document.

    Returns 1 when a report breaks conservation or the run attributed
    no request at all (fig6 and avail alone attribute none), else 0.
    """
    document = {
        "schema": "repro.obs/attr-report",
        "schema_version": 1,
        "experiments": {},
    }
    for key, telemetry in traced:
        report = build_report(_tracer_pairs(key, telemetry))
        document["experiments"][key] = report.to_dict()
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True,
                  default=str)
        handle.write("\n")
    print(f"\n[attribution: {len(document['experiments'])} "
          f"experiments -> {path}]")
    for key, entry in document["experiments"].items():
        top = entry["top_bottlenecks"][:3]
        ranked = ", ".join(
            f"{row['node']}/{row['category']}={row['seconds']:.3g}s"
            for row in top) or "none"
        print(f"  {key}: {entry['requests']} requests attributed, "
              f"top bottlenecks: {ranked}")
    reports = document["experiments"]
    failures = [f"{key}: attribution conservation broken (max error "
                f"{entry['max_conservation_error_s']} s)"
                for key, entry in reports.items()
                if not entry["max_conservation_error_s"]
                <= CONSERVATION_BOUND_S]
    if not sum(entry["requests"] for entry in reports.values()):
        failures.append("attribution report is empty")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


# -- observatory subcommands ------------------------------------------------


def _load_or_complain(path: str):
    try:
        return load_artifact(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot load artifact {path!r}: {exc}",
              file=sys.stderr)
        return None


def _run_check(path: str) -> int:
    """--check: every paper claim against one artifact."""
    artifact = _load_or_complain(path)
    if artifact is None:
        return 2
    results = evaluate_all(artifact)
    print(banner(f"paper claims vs {path}"))
    print(render_claim_report(results))
    return 1 if any(r.status == FAIL for r in results) else 0


def _run_compare(baseline_path: str, candidate, budgets: bool = True,
                 only=None) -> int:
    """--compare / --identity (``budgets=False``): baseline vs a
    candidate path or this run's document, the baseline limited to
    the experiments in ``only`` when given."""
    baseline = _load_or_complain(baseline_path)
    if baseline is None:
        return 2
    if only is not None:
        baseline["experiments"] = {
            key: entry for key, entry in baseline["experiments"].items()
            if key in only}
    if isinstance(candidate, str):
        candidate_doc = _load_or_complain(candidate)
        if candidate_doc is None:
            return 2
        candidate_name = candidate
    else:
        candidate_doc = candidate
        candidate_name = "this run"
    report = compare(baseline, candidate_doc, budgets=budgets)
    print(banner(f"{'regression' if budgets else 'identity'} check: "
                 f"{baseline_path} vs {candidate_name}"))
    print(render_comparison(report))
    attributed = render_attribution_shifts(report, baseline,
                                           candidate_doc)
    if attributed:
        print()
        print(attributed)
    return 0 if report.ok else 1


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the DPDPU paper's figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="trace the traceable experiments "
                             f"({', '.join(TRACEABLE)}) and write "
                             "Chrome trace JSON to PATH")
    parser.add_argument("--attr-out", metavar="PATH", default=None,
                        help="trace the traceable experiments and "
                             "write per-experiment latency "
                             "attribution reports (JSON) to PATH")
    parser.add_argument("--json-out", metavar="PATH", default=None,
                        help="serialize the run into a "
                             "schema-versioned artifact at PATH")
    parser.add_argument("--check", metavar="ARTIFACT", default=None,
                        help="evaluate the paper-claims registry "
                             "against ARTIFACT and exit (no "
                             "experiments run)")
    parser.add_argument("--compare", metavar="ARTIFACT", default=None,
                        nargs="+",
                        help="judge results exactly against a "
                             "baseline, with wall-clock budgets: with "
                             "two paths compare them directly; with "
                             "one path run the selected experiments "
                             "and compare the fresh results against "
                             "it")
    parser.add_argument("--profile", action="store_true",
                        help="attribute real (wall-clock) time per "
                             "experiment via cProfile and print the "
                             "top hotspots")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        metavar="N",
                        help="run experiments over a pool of N "
                             "worker processes; 0 autodetects the "
                             "machine's CPU count (results are "
                             "byte-identical to --jobs 1; see "
                             "--identity)")
    parser.add_argument("--identity", metavar="ARTIFACT", default=None,
                        nargs=2,
                        help="compare two artifacts' results "
                             "exactly, without wall-clock budgets, and "
                             "exit (no experiments run)")
    args = parser.parse_args(argv)

    if args.list:
        for key, (title, _fn) in EXPERIMENTS.items():
            traced = " [traceable]" if key in TRACEABLE else ""
            print(f"{key:6s} {title}{traced}")
        return 0

    if args.check:
        return _run_check(args.check)

    if args.identity:
        return _run_compare(args.identity[0], args.identity[1],
                            budgets=False)

    if args.jobs == 0:
        # Autodetect: one worker per CPU.  Identity is guaranteed
        # regardless of N, so the only cost of over-provisioning is
        # idle workers on a short experiment list.
        args.jobs = os.cpu_count() or 1
    if args.jobs < 1:
        print(f"--jobs must be >= 1 (or 0 to autodetect), "
              f"got {args.jobs}", file=sys.stderr)
        return 2
    if args.jobs > 1 and (args.trace_out or args.attr_out
                          or args.profile):
        # Tracers and profilers live in the experiment's process;
        # their results cannot cross the pool boundary.
        print("--jobs > 1 is incompatible with "
              "--trace-out/--attr-out/--profile "
              "(run those sequentially)", file=sys.stderr)
        return 2

    if args.compare and len(args.compare) > 2:
        print("--compare takes one or two artifact paths",
              file=sys.stderr)
        return 2
    if args.compare and len(args.compare) == 2:
        return _run_compare(args.compare[0], args.compare[1])

    # Fail fast on unwritable output paths instead of crashing after
    # the (possibly long) benchmark run.  Append mode keeps any
    # existing file intact; a file we created gets cleaned up if no
    # output ends up written.
    probes = {}
    for path in (args.trace_out, args.attr_out):
        if not path:
            continue
        try:
            probes[path] = not os.path.exists(path)
            with open(path, "a"):
                pass
        except OSError as exc:
            print(f"cannot write to {path!r}: {exc}",
                  file=sys.stderr)
            return 2

    tracing_wanted = bool(args.trace_out or args.attr_out)
    if tracing_wanted and not args.experiments:
        selected = list(TRACEABLE)
    else:
        selected = args.experiments or list(EXPERIMENTS)
    unknown = [key for key in selected if key not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    traced = []
    suite_started = time.time()
    if args.jobs > 1:
        results = _run_parallel(selected, args.jobs)
    else:
        results = {}
        for key in selected:
            title, fn = EXPERIMENTS[key]
            print(banner(title))
            kwargs = {}
            telemetry = None
            if tracing_wanted and key in TRACEABLE:
                telemetry = _make_telemetry(key)
                kwargs["telemetry"] = telemetry
            profiler = cProfile.Profile() if args.profile else None
            started = time.time()
            if profiler:
                profiler.enable()
            parts = fn(**kwargs)
            if profiler:
                profiler.disable()
            wall = time.time() - started
            print(_render_parts(parts))
            if telemetry is not None:
                traced.append((key, telemetry))
            results[key] = {"title": title, "wall_clock_s": wall,
                            "parts": parts}
            print(f"[{key} done in {wall:.1f}s]")
            if profiler:
                hotspots = _hotspot_rows(profiler)
                results[key]["profile"] = hotspots
                print(f"\nhotspots ({key}, real time):")
                print(_hotspot_table(hotspots))
    suite_wall = time.time() - suite_started

    exit_code = 0
    if tracing_wanted:
        if not traced:
            print("no traceable experiment selected "
                  f"(traceable: {', '.join(TRACEABLE)}); "
                  "no trace or attribution written", file=sys.stderr)
            for path, created in probes.items():
                if created:
                    os.remove(path)
            # Distinct exit code so CI catches a misconfigured
            # invocation instead of silently shipping no output.
            return 3
        if args.trace_out:
            _write_trace(args.trace_out, traced)
        if args.attr_out:
            exit_code = _write_attr(args.attr_out, traced)

    if args.json_out or args.compare:
        document = make_artifact(results, argv=argv,
                                 total_wall_clock_s=suite_wall)
        if args.json_out:
            write_artifact(args.json_out, document)
            metric_count = sum(len(entry["parts"])
                               for entry in document["experiments"]
                               .values())
            print(f"\n[artifact: {len(results)} experiments, "
                  f"{metric_count} parts in {suite_wall:.1f}s "
                  f"(jobs={args.jobs}) -> {args.json_out}]")
        if args.compare:
            # A one-path run judges only the experiments it ran.
            exit_code = max(exit_code, _run_compare(
                args.compare[0], document, only=selected))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
