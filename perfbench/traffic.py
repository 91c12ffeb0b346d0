"""The benchmark's three workloads, driven through public APIs only.

Each workload class does one *round*: its constructor is the set-up
(build the system, connect, load data, generate the seeded inputs),
:meth:`run` is the measured phase, :meth:`verify` checks every output,
and :meth:`result` returns the simulated outcome as a
:class:`RoundResult`.  Everything simulated is a pure function of the
seed, so two rounds with one seed must produce identical results;
``run.py`` checks that.

See ``README.md`` next to this file for why each workload exists.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Dict, List

from repro.algos import inflate
from repro.buffers import Buffer, RealBuffer
from repro.cluster import (Cluster, ClusterClient, encode_shard_read,
                           encode_shard_write, response_ok)
from repro.core import DpdpuRuntime, encode_log_replay
from repro.hardware import BLUEFIELD2, make_server
from repro.query import (DistributedScanDeployment, ScanQuery,
                         run_distributed_scan)
from repro.query import distributed as query_distributed
from repro.sim import Environment, EventPopulation
from repro.units import Gbps, PAGE_SIZE
from repro.workloads.corpus import make_text

__all__ = ["RoundResult", "WORKLOADS"]


@dataclass
class RoundResult:
    """The simulated outcome of one round (deterministic per seed)."""

    #: sim latency of every attempted operation, in seconds
    latencies: List[float]
    #: sim latency of every write the workload measures
    write_latencies: List[float]
    attempted: int
    #: operations that passed every output check
    correct: int
    #: correct operations that also met the latency limit
    on_time: int
    #: sim seconds over which busy cores are measured (open loop: the
    #: arrival window; closed loop: first issue to last completion)
    window_s: float
    #: sim seconds from the first issue to the last completion
    span_s: float
    host_busy_s: float
    dpu_busy_s: float
    #: deterministic per-layer counters, deltas over the measured phase
    counters: Dict[str, float]


def poisson_times(rng: random.Random, start: float, count: int,
                  duration_s: float) -> List[float]:
    """``count`` Poisson arrivals in ``[start, start + duration_s)``.

    A Poisson process conditioned on its count places arrivals as the
    order statistics of uniform draws.  Fixing the count keeps the
    offered load, and with it the busy-core and goodput figures, from
    varying with the seed by the count's own sqrt(n) noise.
    """
    return sorted(start + rng.random() * duration_s
                  for _ in range(count))


# -- counters read from public snapshots --------------------------------------


def _stack_retransmits(stack) -> float:
    # The stack keeps no aggregate retransmit counter; every
    # connection it opened or accepted carries its own.
    return sum(connection.retransmits.value
               for connection in stack._connections.values())


#: per-node counters of ``Cluster.metrics_snapshot()`` the benchmark sums
CLUSTER_COUNTERS = ("shard_local", "shard_routed", "shard_errors",
                    "forward_failures", "breaker_trips")


def snapshot(env, servers, stacks, runtimes,
             cluster=None) -> Dict[str, float]:
    """Cumulative counters of the simulated system, right now."""
    counters = {
        # The kernel exposes no public event count; ``_eid`` is the
        # id of the last entry it scheduled, so it counts every event.
        "sim.events": float(env._eid),
        "sim.pool_hits": float(env.pool_hits),
        "sim.pool_misses": float(env.pool_misses),
        "sim.calendar_promotions": float(env.calendar_promotions),
        "netstack.segments": sum((s.segments_tx.value for s in stacks),
                                 0.0),
        "netstack.retransmits": sum((_stack_retransmits(s)
                                     for s in stacks), 0.0),
        "hardware.host_cycles": 0.0, "hardware.dpu_cycles": 0.0,
        "hardware.pcie_bytes": 0.0, "hardware.nic_bytes": 0.0,
        "hardware.ssd_ops": 0.0, "hardware.asic_jobs": 0.0,
        "core.se_host_ops": 0.0, "core.kernel_executions": 0.0,
        "core.dds_offloaded": 0.0, "core.dds_forwarded": 0.0,
    }
    for server in servers:
        counters["hardware.host_cycles"] += \
            server.host_cpu.cycles_charged.value
        counters["hardware.nic_bytes"] += (server.nic.tx_bytes.value
                                           + server.nic.rx_bytes.value)
        counters["hardware.ssd_ops"] += sum(
            ssd.reads.value + ssd.writes.value for ssd in server.ssds)
        if server.dpu is not None:
            counters["hardware.dpu_cycles"] += \
                server.dpu.cpu.cycles_charged.value
            counters["hardware.pcie_bytes"] += \
                server.dpu.pcie.bytes_moved.value
            counters["hardware.asic_jobs"] += sum(
                asic.jobs.value
                for asic in server.dpu.accelerators.values())
    for runtime in runtimes:
        counters["core.se_host_ops"] += runtime.storage.host_ops.value
        counters["core.kernel_executions"] += \
            runtime.compute.kernel_executions.value
    if cluster is not None:
        for node in cluster.nodes:
            counters["core.dds_offloaded"] += node.dds.offloaded.value
            counters["core.dds_forwarded"] += node.dds.forwarded.value
        nodes = cluster.metrics_snapshot().values()
        for key in CLUSTER_COUNTERS:
            counters[f"cluster.{key}"] = sum(node[key] for node in nodes)
    return counters


def delta(after: Dict[str, float],
          before: Dict[str, float]) -> Dict[str, float]:
    """``after - before`` for every counter."""
    return {key: after[key] - before[key] for key in after}


def sched_wait_p50(runtimes) -> float:
    """Median sproc scheduler wait, sim seconds.

    Weighted by dispatch count across runtimes when there are several
    (the scheduler keeps one tally per runtime).
    """
    weighted = total = 0.0
    for runtime in runtimes:
        tally = runtime.compute.scheduler.wait_time
        weighted += tally.p50 * tally.count
        total += tally.count
    return weighted / total if total else 0.0


def last_completion(requests) -> float:
    """Sim time the last finished request completed."""
    return max((request.completed_at for request in requests
                if request.completed_at is not None), default=0.0)


def busy(cpus) -> float:
    """Busy core-seconds summed over ``cpus``."""
    return sum(cpu.busy_seconds() for cpu in cpus)


# -- dds-mixed ----------------------------------------------------------------


class DdsMixed:
    """Open-loop shard reads, writes and host-forwarded log replays."""

    name = "dds-mixed"
    latency_limit_s = 250e-6
    NODES = 4
    RATE_PER_NODE = 150_000.0
    DURATION_S = 8e-3
    DRAIN_S = 3e-3
    STALE_FRACTION = 0.15
    READ_SHARE, WRITE_SHARE = 0.70, 0.20      # the rest: log replay

    def __init__(self, seed: int, spans):
        self.spans = spans
        with spans.span("construct"):
            self.env = env = Environment()
            self.cluster = cluster = Cluster(env, self.NODES)
            self.clients = [
                ClusterClient(cluster, f"client{i}", home=f"node{i}",
                              stale_fraction=self.STALE_FRACTION)
                for i in range(self.NODES)]

        def connect():
            for client in self.clients:
                yield from client.connect_all()

        with spans.span("connect"):
            env.run(until=env.process(connect()))
        # Shard files are created in one order on every node, so a
        # shard's file id is the same cluster-wide.
        file_ids = cluster.nodes[0].shard_files
        shard_pages = cluster.shard_bytes // PAGE_SIZE
        count = int(self.RATE_PER_NODE * self.DURATION_S)
        self.streams = []
        with spans.span("generate"):
            for index in range(self.NODES):
                rng = random.Random(f"dds-mixed:{seed}:{index}")
                times = poisson_times(rng, env.now, count,
                                      self.DURATION_S)
                # Exact shares, shuffled: the mix itself does not vary
                # with the seed, only which request comes when.
                reads = round(count * self.READ_SHARE)
                writes = round(count * self.WRITE_SHARE)
                kinds = (["read"] * reads + ["write"] * writes
                         + ["replay"] * (count - reads - writes))
                rng.shuffle(kinds)
                stream = []
                for due, kind in zip(times, kinds):
                    shard = rng.randrange(cluster.shardmap.n_shards)
                    offset = rng.randrange(shard_pages) * PAGE_SIZE
                    if kind == "read":
                        message = encode_shard_read(shard, offset)
                    elif kind == "write":
                        message = encode_shard_write(shard, offset)
                    else:
                        message = encode_log_replay(file_ids[shard],
                                                    offset)
                    stream.append((due, kind, shard, message))
                self.streams.append(stream)
        self.issued = []          # (kind, due, request)
        self.servers = [node.server for node in cluster.nodes]
        self.runtimes = [node.runtime for node in cluster.nodes]
        self.stacks = ([node.runtime.network.tcp
                        for node in cluster.nodes]
                       + [service.stack for service
                          in cluster.migration_services.values()]
                       + [client.stack for client in self.clients])

    def _handler(self, client, stream):
        spans, issued = self.spans, self.issued

        def handler(k):
            due, kind, shard, message = stream[k]
            with spans.span("submit"):
                request = client.submit(message, shard, tag=k)
            issued.append((kind, due, request))

        return handler

    def run(self) -> None:
        env, spans = self.env, self.spans
        self.before = snapshot(env, self.servers, self.stacks,
                               self.runtimes, self.cluster)
        host_cpus = [s.host_cpu for s in self.servers]
        dpu_cpus = [s.dpu.cpu for s in self.servers]
        host0, dpu0 = busy(host_cpus), busy(dpu_cpus)
        self.start = start = env.now
        for client, stream in zip(self.clients, self.streams):
            EventPopulation(env, [item[0] for item in stream],
                            self._handler(client, stream),
                            name=f"load-{client.name}")
        with spans.span("env.run"):
            env.run(until=start + self.DURATION_S)
        # Cores are measured over the arrival window only; the drain
        # lets in-flight requests land.
        self.host_busy = busy(host_cpus) - host0
        self.dpu_busy = busy(dpu_cpus) - dpu0
        with spans.span("env.run"):
            env.run(until=start + self.DURATION_S + self.DRAIN_S)
        self.after = snapshot(env, self.servers, self.stacks,
                              self.runtimes, self.cluster)

    def verify(self) -> List[bool]:
        """Per operation: answered, ``response_ok``, reads hold a page."""
        checks = []
        for kind, _due, request in self.issued:
            ok = (request.completed and not request.failed
                  and response_ok(request.data))
            if ok and kind == "read":
                ok = (isinstance(request.data, Buffer)
                      and request.data.size == PAGE_SIZE)
            checks.append(ok)
        return checks

    def result(self, checks: List[bool]) -> RoundResult:
        limit = self.latency_limit_s
        latencies = [request.latency for _k, _d, request in self.issued]
        counters = delta(self.after, self.before)
        counters["generator_late_max_s"] = max(
            (request.issued_at - due for _k, due, request in self.issued),
            default=0.0)
        return RoundResult(
            latencies=latencies,
            write_latencies=[request.latency
                             for kind, _d, request in self.issued
                             if kind == "write"],
            attempted=len(self.issued),
            correct=sum(checks),
            on_time=sum(1 for ok, lat in zip(checks, latencies)
                        if ok and lat <= limit),
            window_s=self.DURATION_S,
            span_s=last_completion(request for _k, _d, request
                                   in self.issued) - self.start,
            host_busy_s=self.host_busy,
            dpu_busy_s=self.dpu_busy,
            counters=counters,
        )


# -- scan-mix -----------------------------------------------------------------


def scan_queries(seed: int, count: int) -> List[ScanQuery]:
    """A seeded stream cycling aggregate, narrow and wide scans."""
    rng = random.Random(f"scan-mix:{seed}:queries")
    queries = []
    for index in range(count):
        shape = index % 3
        if shape == 0:
            limit = rng.randint(5, 20)
            queries.append(ScanQuery(
                "quantity", lambda v, t=limit: int(v) <= t,
                aggregate_column="extendedprice",
                estimated_selectivity=limit / 50))
        elif shape == 1:
            limit = rng.randint(40, 48)
            queries.append(ScanQuery(
                "quantity", lambda v, t=limit: int(v) >= t,
                projection=["orderkey", "extendedprice"],
                estimated_selectivity=(51 - limit) / 50))
        else:
            limit = rng.randint(1, 5)
            queries.append(ScanQuery(
                "quantity", lambda v, t=limit: int(v) >= t,
                estimated_selectivity=(51 - limit) / 50))
    return queries


class ScanMix:
    """Closed-loop scatter-gather scans on a slow (2 Gbps) fabric."""

    name = "scan-mix"
    latency_limit_s = 10e-3
    NODES = 4
    SHARDS = 32
    ROWS = 48_000
    SCANS = 45
    NETWORK_BPS = 2 * Gbps
    STALE_FRACTION = 0.15

    def __init__(self, seed: int, spans):
        self.spans = spans
        # ``register_scan_sprocs`` names sprocs from a module-level
        # counter, and the name's length is on the wire.  Restart it so
        # every round in this process sends the bytes a fresh process
        # would, and rounds stay comparable.
        query_distributed._query_ids = itertools.count(1)
        with spans.span("construct"):
            self.deployment = DistributedScanDeployment(
                n_nodes=self.NODES, n_rows=self.ROWS,
                n_shards=self.SHARDS, seed=seed,
                stale_fraction=self.STALE_FRACTION,
                network_bps=self.NETWORK_BPS)
        deployment = self.deployment
        self.env = deployment.env
        loaded_from = self.env.now
        with spans.span("load"):
            deployment.load()
        self.load_s = self.env.now - loaded_from
        with spans.span("generate"):
            self.queries = scan_queries(seed, self.SCANS)
        cluster = deployment.cluster
        coordinator = deployment.coordinator
        self.servers = ([node.server for node in cluster.nodes]
                        + [coordinator.server])
        self.runtimes = [node.runtime for node in cluster.nodes]
        self.stacks = ([node.runtime.network.tcp
                        for node in cluster.nodes]
                       + [service.stack for service
                          in cluster.migration_services.values()]
                       + [coordinator.stack])
        self.outcomes = []
        self.plan_host_s = []

    def run(self) -> None:
        deployment, spans, env = self.deployment, self.spans, self.env
        self.before = snapshot(env, self.servers, self.stacks,
                               self.runtimes, deployment.cluster)
        host_cpus = [s.host_cpu for s in self.servers]
        dpu_cpus = [s.dpu.cpu for s in self.servers if s.dpu]
        host0, dpu0 = busy(host_cpus), busy(dpu_cpus)
        start = env.now
        for query in self.queries:
            began = time.perf_counter()
            with spans.span("plan"):
                plan = deployment.plan(query)
            self.plan_host_s.append(time.perf_counter() - began)
            with spans.span("run_distributed_scan"):
                outcome = run_distributed_scan(deployment, query)
            self.outcomes.append((plan["choices"], outcome))
        self.window = env.now - start
        self.host_busy = busy(host_cpus) - host0
        self.dpu_busy = busy(dpu_cpus) - dpu0
        self.after = snapshot(env, self.servers, self.stacks,
                              self.runtimes, deployment.cluster)

    def verify(self) -> List[bool]:
        """Per scan: equals ``ScanQuery.evaluate`` over the whole table,
        and ran the plan the planner chose."""
        deployment = self.deployment
        checks = []
        for query, (choices, outcome) in zip(self.queries,
                                             self.outcomes):
            truth = query.evaluate(deployment.table_bytes,
                                   deployment.schema)
            checks.append(outcome["result"].matches(truth)
                          and outcome["choices"] == choices)
        return checks

    def result(self, checks: List[bool]) -> RoundResult:
        limit = self.latency_limit_s
        latencies = [outcome["elapsed_s"]
                     for _c, outcome in self.outcomes]
        counters = delta(self.after, self.before)
        sub_queries = sum(len(choices) for choices, _o in self.outcomes)
        pushed = sum(1 for choices, _o in self.outcomes
                     for choice in choices.values()
                     if choice == "pushdown")
        scanned = self.deployment.n_rows * len(self.outcomes)
        counters.update({
            "core.sched_wait_p50_s": sched_wait_p50(self.runtimes),
            # Scan sprocs pin every kernel onto the owner's Arm cores.
            "core.placement.dpu_cpu": counters["core.kernel_executions"],
            "query.pushdown_fraction": (pushed / sub_queries
                                        if sub_queries else 0.0),
            "query.coord_rx_bytes": sum(outcome["bytes_received"]
                                        for _c, outcome
                                        in self.outcomes),
            "query.rows_out_per_row_scanned": (
                sum(outcome["result"].count
                    for _c, outcome in self.outcomes) / scanned),
        })
        return RoundResult(
            latencies=latencies,
            # No writes in the measured phase: the SE writes that load
            # the table are the ones measured (all issued at once, so
            # the load's sim time is the slowest write's latency).
            write_latencies=[self.load_s],
            attempted=len(self.outcomes),
            correct=sum(checks),
            on_time=sum(1 for ok, lat in zip(checks, latencies)
                        if ok and lat <= limit),
            window_s=self.window,
            span_s=self.window,
            host_busy_s=self.host_busy,
            dpu_busy_s=self.dpu_busy,
            counters=counters,
        )


# -- sproc-compress -----------------------------------------------------------


class SprocCompress:
    """Open-loop read -> compress -> write sprocs on one runtime."""

    name = "sproc-compress"
    latency_limit_s = 1e-3
    PAGES = 30
    CALLS = 150
    RATE = 14_000.0
    DURATION_S = CALLS / RATE
    DRAIN_S = 5e-3

    def __init__(self, seed: int, spans):
        self.spans = spans
        with spans.span("construct"):
            self.env = env = Environment()
            self.server = make_server(env, name="dpu",
                                      dpu_profile=BLUEFIELD2)
            self.runtime = runtime = DpdpuRuntime(self.server)
        storage = runtime.storage
        with spans.span("generate"):
            # ``make_text(n)`` returns n - 1 bytes when its word stream
            # ends exactly at n (seed 5 here), which would leave the last
            # page short; ask for one byte more so every page is full.
            size = self.PAGES * PAGE_SIZE
            text = make_text(size + 1, seed=seed)[:size]
            self.pages = [text[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]
                          for i in range(self.PAGES)]
        pages_file = storage.create("pages", size=size)
        out_file = storage.create("compressed", size=size)
        with spans.span("load"):
            writes = [storage.write(pages_file, i * PAGE_SIZE,
                                    RealBuffer(page))
                      for i, page in enumerate(self.pages)]
            env.run(until=env.all_of([w.done for w in writes]))

        def compress_page(ctx, page):
            data = yield from ctx.wait(
                ctx.se.read(pages_file, page * PAGE_SIZE, PAGE_SIZE))
            request = ctx.dpk("compress")(data)     # scheduled
            compressed = yield from ctx.wait(request)
            started = ctx.env.now
            written = yield from ctx.wait(
                ctx.se.write(out_file, page * PAGE_SIZE, compressed))
            return {"output": compressed, "device": request.device,
                    "written": written,
                    "write_s": ctx.env.now - started}

        runtime.compute.register_sproc("compress_page", compress_page)
        rng = random.Random(f"sproc-compress:{seed}")
        with spans.span("generate"):
            self.arrivals = [
                (due, rng.randrange(self.PAGES))
                for due in poisson_times(rng, env.now, self.CALLS,
                                         self.DURATION_S)]
        self.calls = []       # (page, due, invocation)

    def run(self) -> None:
        env, spans, runtime = self.env, self.spans, self.runtime
        self.before = snapshot(env, [self.server], (), [runtime])
        cpus = (self.server.host_cpu, self.server.dpu.cpu)
        host0, dpu0 = cpus[0].busy_seconds(), cpus[1].busy_seconds()
        arrivals, calls = self.arrivals, self.calls

        def handler(k):
            due, page = arrivals[k]
            with spans.span("invoke"):
                invocation = runtime.compute.invoke("compress_page",
                                                    page)
            calls.append((page, due, invocation))

        self.start = start = env.now
        EventPopulation(env, [due for due, _p in arrivals], handler,
                        name="load")
        with spans.span("env.run"):
            env.run(until=start + self.DURATION_S)
        self.host_busy = cpus[0].busy_seconds() - host0
        self.dpu_busy = cpus[1].busy_seconds() - dpu0
        with spans.span("env.run"):
            env.run(until=start + self.DURATION_S + self.DRAIN_S)
        self.after = snapshot(env, [self.server], (), [runtime])

    def verify(self) -> List[bool]:
        """Per call: ``inflate(output)`` is the source page, and the
        whole compressed page was written back."""
        checks = []
        inflated = {}     # calls on one page return identical bytes
        for page, _due, call in self.calls:
            ok = call.completed and not call.failed
            if ok:
                outcome = call.data
                output = outcome["output"]
                ok = (isinstance(output, RealBuffer)
                      and outcome["written"] == output.size)
                if ok:
                    if output.data not in inflated:
                        inflated[output.data] = inflate(output.data)
                    ok = inflated[output.data] == self.pages[page]
            checks.append(ok)
        return checks

    def result(self, checks: List[bool]) -> RoundResult:
        limit = self.latency_limit_s
        latencies = [call.latency for _p, _d, call in self.calls]
        done = [call.data for _p, _d, call in self.calls
                if call.completed and not call.failed]
        counters = delta(self.after, self.before)
        placements = {"dpu_asic": 0, "dpu_cpu": 0, "host_cpu": 0}
        for outcome in done:
            placements[outcome["device"]] = \
                placements.get(outcome["device"], 0) + 1
        out_bytes = sum(outcome["output"].size for outcome in done)
        counters.update({
            "core.sched_wait_p50_s": sched_wait_p50([self.runtime]),
            "algos.deflate_bytes": float(PAGE_SIZE * len(done)),
            "algos.compress_ratio": (PAGE_SIZE * len(done) / out_bytes
                                     if out_bytes else 0.0),
            "generator_late_max_s": max(
                (call.issued_at - due for _p, due, call in self.calls),
                default=0.0),
        })
        for device, count in placements.items():
            counters[f"core.placement.{device}"] = float(count)
        return RoundResult(
            latencies=latencies,
            write_latencies=[outcome["write_s"] for outcome in done],
            attempted=len(self.calls),
            correct=sum(checks),
            on_time=sum(1 for ok, lat in zip(checks, latencies)
                        if ok and lat <= limit),
            window_s=self.DURATION_S,
            span_s=last_completion(call for _p, _d, call
                                   in self.calls) - self.start,
            host_busy_s=self.host_busy,
            dpu_busy_s=self.dpu_busy,
            counters=counters,
        )


WORKLOADS = {cls.name: cls for cls in (DdsMixed, ScanMix, SprocCompress)}
