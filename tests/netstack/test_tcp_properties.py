"""Property-based TCP tests: arbitrary message streams, lossy links."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers import RealBuffer
from repro.hardware import CpuCluster, Nic, Wire, default_cost_model
from repro.netstack import TcpStack
from repro.netstack.tcp import _MSS
from repro.obs import Tracer
from repro.sim import Environment
from repro.units import GHZ, Gbps


def _transfer(messages, loss_rate=0.0, loss_seed=0, tracer=None,
              gap_s=None):
    """Send ``messages`` (bytes) over a fresh TCP pair.

    Returns ``(received, arrivals)``: the received payloads and the
    simulated time each one was read.  ``tracer`` (bound here) traces
    both stacks.  With ``gap_s`` None the client queues each message
    with ``send_message``; otherwise it queues whatever fits at once
    with ``try_send_message`` (back-to-back messages share bursts)
    and sleeps ``gap_s`` between messages that had to wait.
    """
    env = Environment()
    if tracer is not None:
        tracer.bind(env)
    costs = default_cost_model().software
    nic_a = Nic(env, 100 * Gbps, name="a")
    nic_b = Nic(env, 100 * Gbps, name="b")
    Wire(env, nic_a, nic_b, loss_rate=loss_rate, loss_seed=loss_seed)
    cpu_a = CpuCluster(env, 8, 3 * GHZ, name="ca")
    cpu_b = CpuCluster(env, 8, 3 * GHZ, name="cb")
    stack_a = TcpStack(env, nic_a, nic_a.rx_host, cpu_a, costs, "a",
                       tracer=tracer)
    stack_b = TcpStack(env, nic_b, nic_b.rx_host, cpu_b, costs, "b",
                       tracer=tracer)
    listener = stack_b.listen(1234)
    received = []
    arrivals = []

    def client():
        connection = yield from stack_a.connect(1234)
        for message in messages:
            if gap_s is None:
                yield from connection.send_message(RealBuffer(message))
            elif not connection.try_send_message(RealBuffer(message)):
                yield env.timeout(gap_s)
                yield from connection.send_message(RealBuffer(message))

    def server():
        connection = yield listener.accept()
        for _ in range(len(messages)):
            buffer = yield connection.recv_message()
            received.append(buffer.data)
            arrivals.append(env.now)

    env.process(client())
    env.process(server())
    env.run(until=60.0 if loss_rate else 10.0)
    return received, arrivals


@settings(max_examples=20, deadline=None)
@given(messages=st.lists(st.binary(min_size=0, max_size=30_000),
                         min_size=1, max_size=10))
def test_property_lossless_stream_preserved(messages):
    """Any message sequence arrives complete, intact, and in order."""
    assert _transfer(messages)[0] == messages


@settings(max_examples=8, deadline=None)
@given(messages=st.lists(st.binary(min_size=1, max_size=40_000),
                         min_size=1, max_size=6),
       seed=st.integers(min_value=0, max_value=1000))
def test_property_lossy_stream_recovers(messages, seed):
    """Retransmission recovers any stream on a 2%-loss link."""
    assert _transfer(messages, loss_rate=0.02,
                     loss_seed=seed)[0] == messages


@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(
    st.integers(min_value=0, max_value=100_000),
    min_size=1, max_size=8,
))
def test_property_synthetic_sizes_preserved(sizes):
    """SynthBuffer messages keep exact sizes through segmentation."""
    from repro.buffers import SynthBuffer

    env = Environment()
    costs = default_cost_model().software
    nic_a = Nic(env, 100 * Gbps, name="a")
    nic_b = Nic(env, 100 * Gbps, name="b")
    Wire(env, nic_a, nic_b)
    cpu = CpuCluster(env, 8, 3 * GHZ)
    stack_a = TcpStack(env, nic_a, nic_a.rx_host, cpu, costs, "a")
    stack_b = TcpStack(env, nic_b, nic_b.rx_host, cpu, costs, "b")
    listener = stack_b.listen(99)
    received = []

    def client():
        connection = yield from stack_a.connect(99)
        for index, size in enumerate(sizes):
            yield from connection.send_message(
                SynthBuffer(size, label=f"m{index}")
            )

    def server():
        connection = yield listener.accept()
        for _ in sizes:
            buffer = yield connection.recv_message()
            received.append((buffer.size, buffer.label))

    env.process(client())
    env.process(server())
    env.run(until=10.0)
    assert received == [(size, f"m{index}")
                        for index, size in enumerate(sizes)]


@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(st.integers(min_value=0, max_value=3 * _MSS + 64),
                      min_size=1, max_size=8),
       gap_s=st.sampled_from([None, 0.0, 20e-6]))
def test_property_tracing_is_observe_only(sizes, gap_s):
    """Tracing changes neither bytes nor timing, and every message
    gets exactly one finished ``tcp.msg_tx`` span with its segment
    count — for multi-segment and back-to-back queued messages."""
    messages = [bytes([index % 256]) * size
                for index, size in enumerate(sizes)]
    tracer = Tracer()
    plain = _transfer(messages, gap_s=gap_s)
    traced = _transfer(messages, tracer=tracer, gap_s=gap_s)
    assert plain[0] == messages
    assert traced == plain
    spans = sorted((s for s in tracer.all_spans()
                    if s.name == "tcp.msg_tx"),
                   key=lambda s: s.span_id)
    assert all(span.finished for span in spans)
    assert [span.attrs["bytes"] for span in spans] == sizes
    assert [span.attrs["segments"] for span in spans] == \
        [max(1, math.ceil(size / _MSS)) for size in sizes]
