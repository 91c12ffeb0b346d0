"""Property-based tests of the simulation kernel's invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, Resource, Store
from repro.sim.core import NORMAL, URGENT


@settings(max_examples=60, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False),
                       min_size=1, max_size=40))
def test_property_events_fire_in_time_order(delays):
    """Completions observe non-decreasing simulated time."""
    env = Environment()
    observed = []

    def sleeper(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(sleeper(delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert env.now == max(delays)


#: one scheduled entry: (delay in quarter steps, priority, cancel?);
#: quarter steps are exact binary floats, so equal sums are exact ties
_entries = st.tuples(st.integers(min_value=0, max_value=8),
                     st.sampled_from([URGENT, NORMAL]), st.booleans())


@settings(max_examples=80, deadline=None)
@given(plan=st.lists(st.tuples(_entries, st.lists(_entries, max_size=3)),
                     min_size=1, max_size=40))
def test_property_fire_order_is_sorted_schedule(plan):
    """The queue fires entries in (time, priority, schedule index)
    order, skipping lazily cancelled ones.

    Each top-level entry's callback schedules its children, so entries
    also arrive mid-run.  A zero-delay child is kept NORMAL so every
    entry sorts after the one that scheduled it; the sorted schedule is
    then the exact reference for any correct priority queue.  Only
    NORMAL entries are timeouts, so only they can be cancelled.
    """
    env = Environment()
    scheduled = []
    live = []
    fired = []

    def arm(entry, children, from_callback):
        steps, priority, cancel = entry
        delay = steps * 0.25
        if from_callback and delay == 0.0:
            priority = NORMAL
        key = (env.now + delay, priority, len(scheduled))
        scheduled.append(key)
        if priority == URGENT:
            event = env.event()
            event._ok = True
            event._value = None
            env._enqueue(event, URGENT, delay)
        else:
            event = env.timeout(delay)

        def fire(_event):
            fired.append(key)
            for child in children:
                arm(child, (), True)

        event.callbacks.append(fire)
        if cancel and priority == NORMAL:
            event.cancel()
        else:
            live.append(key)

    for entry, children in plan:
        arm(entry, children, False)
    env.run()
    assert fired == sorted(live)
    # Cancelled entries never move the clock, even when they are last.
    assert env.now == (fired[-1][0] if fired else 0.0)


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.01, max_value=10.0,
                                 allow_nan=False),
                       min_size=1, max_size=20),
       capacity=st.integers(min_value=1, max_value=5))
def test_property_resource_conserves_work(delays, capacity):
    """Total busy time equals total service demand; makespan is
    bounded by the list-scheduling bounds."""
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def job(duration):
        with resource.request() as request:
            yield request
            yield env.timeout(duration)

    for delay in delays:
        env.process(job(delay))
    env.run()
    total = sum(delays)
    assert resource.busy_time() == pytest_approx(total)
    # Lower bound: perfect parallel speedup; upper: serial.
    assert env.now >= total / capacity - 1e-9
    assert env.now <= total + 1e-9
    assert resource.count == 0          # everything released


@settings(max_examples=40, deadline=None)
@given(items=st.lists(st.integers(), min_size=0, max_size=50),
       capacity=st.integers(min_value=1, max_value=8))
def test_property_store_is_fifo_lossless(items, capacity):
    """Everything put into a bounded store comes out once, in order."""
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items


@settings(max_examples=40, deadline=None)
@given(priorities=st.lists(st.integers(min_value=0, max_value=9),
                           min_size=2, max_size=30))
def test_property_priority_resource_orders_waiters(priorities):
    """Waiters are served in (priority, arrival) order."""
    from repro.sim import PriorityResource

    env = Environment()
    resource = PriorityResource(env, capacity=1)
    served = []

    def holder():
        with resource.request(priority=-1) as request:
            yield request
            yield env.timeout(10.0)     # everyone queues behind this

    def waiter(index, priority):
        with resource.request(priority=priority) as request:
            yield request
            served.append((priority, index))

    env.process(holder())

    def submit_all():
        yield env.timeout(1.0)
        for index, priority in enumerate(priorities):
            env.process(waiter(index, priority))

    env.process(submit_all())
    env.run()
    expected = sorted(
        [(priority, index)
         for index, priority in enumerate(priorities)]
    )
    assert served == expected


def pytest_approx(value, rel=1e-9):
    import pytest
    return pytest.approx(value, rel=rel, abs=1e-9)
