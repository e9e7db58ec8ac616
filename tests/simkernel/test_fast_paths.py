"""Event-free kernel fast paths: ``Store.put_nowait`` and
``Environment.call_later``.

Both must be indistinguishable from the evented form they replace for
everything a waiter can observe (which getter gets which item, and
when), while scheduling nothing nobody waits on.
"""

import pytest

from repro.simkernel import (
    DebugEnvironment,
    Environment,
    FilterStore,
    PriorityStore,
    Store,
)


def _handoff_trace(store_cls, use_nowait, items):
    """Three getters park, then one producer enqueues ``items``."""
    env = Environment()
    store = store_cls(env)
    trace = []

    def getter(name):
        while True:
            item = yield store.get()
            trace.append((env.now, name, item))
            yield env.timeout(0.25)

    def producer():
        yield env.timeout(1.0)
        for item in items:
            if use_nowait:
                store.put_nowait(item)
            else:
                yield store.put(item)

    for name in ("g0", "g1", "g2"):
        env.process(getter(name), name=name)
    env.process(producer(), name="producer")
    env.run(until=5.0)
    return trace


@pytest.mark.parametrize("store_cls", [Store, FilterStore, PriorityStore])
def test_put_nowait_hands_items_to_parked_getters_in_put_order(store_cls):
    items = [5, 3, 8, 1, 9, 2, 7]
    expected = _handoff_trace(store_cls, False, items)
    assert _handoff_trace(store_cls, True, items) == expected
    assert [item for _, _, item in expected][:3] == [5, 3, 8]


def test_put_nowait_without_a_parked_getter_schedules_nothing():
    env = Environment()
    store = Store(env)
    eid, queued = env._eid, len(env._queue)
    for item in range(10):
        store.put_nowait(item)
    assert (env._eid, len(env._queue)) == (eid, queued)
    assert store.items == list(range(10))
    assert store.drain_pending() == list(range(10))


def test_put_nowait_on_a_full_store_raises_and_keeps_the_store():
    env = Environment()
    store = Store(env, capacity=2)
    store.put_nowait("a")
    store.put_nowait("b")
    with pytest.raises(RuntimeError, match="full"):
        store.put_nowait("c")
    assert store.items == ["a", "b"]


def test_call_later_runs_the_function_at_its_deadline_in_creation_order():
    env = Environment()
    calls = []
    env.call_later(2.0, calls.append, "late")
    env.call_later(1.0, lambda *args: calls.append((env.now, args)), "x", 1)
    env.call_later(1.0, lambda: calls.append((env.now, "tie")))
    env.run()
    assert calls == [(1.0, ("x", 1)), (1.0, "tie"), "late"]
    assert env.now == 2.0


def test_call_later_orders_with_timeouts_by_creation():
    env = Environment()
    order = []
    timeout = env.timeout(1.0)
    timeout.callbacks.append(lambda _event: order.append("timeout"))
    env.call_later(1.0, order.append, "call_later")
    env.run()
    assert order == ["timeout", "call_later"]


def test_call_later_rejects_a_negative_delay_on_both_kernels():
    for env in (Environment(), DebugEnvironment()):
        env.run(until=1.0)
        eid = env._eid
        with pytest.raises(ValueError, match="negative delay"):
            env.call_later(-0.5, print)
        assert env._eid == eid  # nothing reached the heap


def test_call_later_timer_goes_through_the_debug_schedule_checks():
    env = DebugEnvironment()
    timer = env.call_later(0.5, lambda: None)
    assert id(timer) in env._pending  # scheduled via the checked schedule()
    env.run()
    assert env.hazards == [] and env.now == 0.5
