"""Unit tests of the discrete-event engine."""

import pytest

from repro.cluster.engine import (
    AllOf,
    AnyOf,
    Engine,
    Resource,
    SimulationError,
)


def test_timeout_advances_clock():
    eng = Engine()
    fired = []

    def proc(eng):
        yield eng.timeout(1.5)
        fired.append(eng.now)
        yield eng.timeout(0.5)
        fired.append(eng.now)

    eng.process(proc(eng))
    eng.run()
    assert fired == [1.5, 2.0]
    assert eng.now == 2.0


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_timeout_rejected(delay):
    eng = Engine()
    with pytest.raises(ValueError, match=f"non-finite timeout delay: {delay}"):
        eng.timeout(delay)
    assert eng.run() == 0.0


def test_run_until_caps_time():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(10.0)

    eng.process(proc(eng))
    assert eng.run(until=3.0) == 3.0
    assert eng.now == 3.0
    # Remaining events still execute on a later full run.
    eng.run()
    assert eng.now == 10.0


def test_run_until_before_now_rejected():
    eng = Engine()
    eng.timeout(6.0)
    assert eng.run() == 6.0
    with pytest.raises(ValueError, match=r"until=3\.0.*now=6\.0"):
        eng.run(until=3.0)
    assert eng.now == 6.0
    assert eng.run(until=6.0) == 6.0


@pytest.mark.parametrize("until", [float("nan"), float("inf")])
def test_run_until_non_finite_rejected(until):
    eng = Engine()
    eng.timeout(1.0)
    with pytest.raises(ValueError, match=f"until={until}"):
        eng.run(until=until)
    assert eng.now == 0.0
    assert eng.run() == 1.0


def test_event_fires_once():
    eng = Engine()
    ev = eng.event("x")
    ev.succeed(42)
    with pytest.raises(SimulationError):
        ev.succeed()


def test_waiting_on_fired_event_resumes_immediately():
    eng = Engine()
    ev = eng.event()
    ev.succeed("value")
    got = []

    def proc(eng, ev):
        value = yield ev
        got.append((eng.now, value))

    eng.process(proc(eng, ev))
    eng.run()
    assert got == [(0.0, "value")]


def test_resource_serializes_holders():
    eng = Engine()
    res = Resource(eng, name="r")
    finished = []

    def proc(eng, res, dt, tag):
        with (yield from res.acquire()):
            yield eng.timeout(dt)
        finished.append((tag, eng.now))

    eng.process(proc(eng, res, 2.0, "a"))
    eng.process(proc(eng, res, 3.0, "b"))
    eng.process(proc(eng, res, 1.0, "c"))
    eng.run()
    assert finished == [("a", 2.0), ("b", 5.0), ("c", 6.0)]


def test_resource_capacity_two_admits_pairs():
    eng = Engine()
    res = Resource(eng, name="r", capacity=2)
    finished = []

    def proc(eng, res, tag):
        with (yield from res.acquire()):
            yield eng.timeout(1.0)
        finished.append((tag, eng.now))

    for tag in "abcd":
        eng.process(proc(eng, res, tag))
    eng.run()
    assert [t for _, t in finished] == [1.0, 1.0, 2.0, 2.0]


def test_resource_release_of_idle_raises():
    eng = Engine()
    res = Resource(eng, name="r")
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


def test_all_of_waits_for_every_child():
    eng = Engine()
    times = []

    def waiter(eng, events):
        yield AllOf(eng, events)
        times.append(eng.now)

    t1, t2 = eng.timeout(1.0), eng.timeout(4.0)
    eng.process(waiter(eng, [t1, t2]))
    eng.run()
    assert times == [4.0]


def test_all_of_with_already_fired_children():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    combined = AllOf(eng, [ev])
    assert combined.fired
    assert combined.value == [1]


def test_any_of_fires_on_first_child():
    eng = Engine()
    times = []

    def waiter(eng, events):
        yield AnyOf(eng, events)
        times.append(eng.now)

    eng.process(waiter(eng, [eng.timeout(5.0), eng.timeout(2.0)]))
    eng.run()
    assert times == [2.0]


def test_process_return_value_propagates():
    eng = Engine()
    results = []

    def child(eng):
        yield eng.timeout(1.0)
        return "done"

    def parent(eng):
        value = yield eng.process(child(eng))
        results.append(value)

    eng.process(parent(eng))
    eng.run()
    assert results == ["done"]


def test_yielding_non_event_raises():
    eng = Engine()

    def bad(eng):
        yield 42

    eng.process(bad(eng))
    with pytest.raises(SimulationError):
        eng.run()


def test_deterministic_fifo_at_same_timestamp():
    """Events at the same time run in scheduling order, repeatably."""

    def run_once():
        eng = Engine()
        order = []

        def proc(eng, tag):
            yield eng.timeout(1.0)
            order.append(tag)

        for tag in range(10):
            eng.process(proc(eng, tag))
        eng.run()
        return order

    assert run_once() == run_once() == list(range(10))


def test_deadlock_raises_with_diagnostics():
    """A drained queue with blocked processes names the culprits."""
    eng = Engine()
    never = eng.event("never-fired")

    def blocked(eng):
        yield eng.timeout(1.0)
        yield never

    eng.process(blocked(eng), name="victim")
    with pytest.raises(SimulationError) as exc:
        eng.run()
    message = str(exc.value)
    assert "deadlock" in message
    assert "victim" in message
    assert "never-fired" in message
    assert "1 process(es)" in message


def test_deadlock_message_truncates_long_process_lists():
    eng = Engine()
    never = eng.event("never")

    def blocked(eng):
        yield never

    for i in range(12):
        eng.process(blocked(eng), name=f"p{i}")
    with pytest.raises(SimulationError) as exc:
        eng.run()
    message = str(exc.value)
    assert "12 process(es)" in message
    assert "... and 4 more" in message


def test_deadlock_message_lists_blocked_processes_in_start_order():
    eng = Engine()
    never = eng.event("never")

    def finishes(eng):
        yield eng.timeout(1.0)

    def blocked(eng):
        yield never

    for i in range(6):
        gen = finishes(eng) if i % 2 == 0 else blocked(eng)
        eng.process(gen, name=f"p{i}")
    with pytest.raises(SimulationError) as exc:
        eng.run()
    message = str(exc.value)
    assert "3 process(es)" in message
    assert message.index("'p1'") < message.index("'p3'") < message.index("'p5'")
    assert "'p0'" not in message


def test_run_until_suppresses_deadlock_check():
    """Stopping early legitimately strands in-flight processes."""
    eng = Engine()

    def waits(eng):
        yield eng.timeout(10.0)

    eng.process(waits(eng))
    assert eng.run(until=1.0) == 1.0  # no raise
    assert eng.run() == 10.0  # finishing cleanly later is fine


def test_deadlock_on_unreleased_resource():
    eng = Engine()
    res = Resource(eng, name="nic")

    def hog(eng, res):
        yield res.request()  # acquired, never released
        yield eng.timeout(1.0)

    def starved(eng, res):
        yield eng.timeout(0.5)
        with (yield from res.acquire()):
            yield eng.timeout(1.0)

    eng.process(hog(eng, res), name="hog")
    eng.process(starved(eng, res), name="starved")
    with pytest.raises(SimulationError) as exc:
        eng.run()
    assert "starved" in str(exc.value)
    assert "req:nic" in str(exc.value)
