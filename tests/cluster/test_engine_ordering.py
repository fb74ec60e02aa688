"""The two-lane engine resumes processes exactly as the single-heap loop.

Random process graphs run once on :class:`Engine` and once on the
test-only :class:`HeapEngine` oracle; the ``(now, process, step, value)``
resume logs and the outcome (final time or deadlock message) must be
identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.engine import Engine, Resource, SimulationError

from .heap_oracle import HeapEngine

N_SHARED = 3
N_PREFIRED = 2
#: Repeated zero delays make same-timestamp collisions common.
DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0])


def _refs(i):
    """An event a step of process ``i`` can wait on."""
    options = [
        DELAYS.map(lambda d: ("timeout", d)),
        st.integers(0, N_SHARED - 1).map(lambda k: ("shared", k)),
        st.integers(0, N_PREFIRED - 1).map(lambda k: ("prefired", k)),
        st.integers(0, 1).map(lambda k: ("join", k)),
    ]
    if i > 0:
        options.append(st.integers(0, i - 1).map(lambda j: ("proc", j)))
    return st.one_of(options)


def _step(i):
    return st.one_of(
        DELAYS.map(lambda d: ("sleep", d)),
        st.lists(_refs(i), max_size=4).map(lambda rs: ("all_of", tuple(rs))),
        st.lists(_refs(i), min_size=1, max_size=3).map(
            lambda rs: ("any_of", tuple(rs))
        ),
        st.tuples(st.just("hold"), st.integers(0, 1), DELAYS),
        st.integers(0, N_SHARED - 1).map(lambda k: ("fire", k)),
        _refs(i).map(lambda r: ("wait", r)),
    )


programs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[st.lists(_step(i), max_size=6) for i in range(n)])
)


def simulate(engine_cls, program, until, closer):
    """Run ``program`` on a fresh engine; returns (resume log, outcome)."""
    eng = engine_cls()
    log = []
    shared = [eng.event(f"s{k}") for k in range(N_SHARED)]
    prefired = [eng.event(f"p{k}").succeed(f"p{k}") for k in range(N_PREFIRED)]
    # Joins created up front share children with each other and with
    # the joins the processes build.
    joins = [
        eng.all_of([shared[0], shared[1]]),
        eng.all_of([shared[1], shared[2], prefired[0]]),
    ]
    resources = [Resource(eng, "r1", capacity=1), Resource(eng, "r2", capacity=2)]
    procs = []

    def fire(k):
        if not shared[k].fired:
            shared[k].succeed(f"s{k}")

    def event_of(ref):
        kind, arg = ref
        if kind == "timeout":
            return eng.timeout(arg)
        return {"shared": shared, "prefired": prefired, "join": joins,
                "proc": procs}[kind][arg]

    def body(i, steps):
        for n, step in enumerate(steps):
            kind = step[0]
            value = None
            if kind == "sleep":
                value = yield eng.timeout(step[1])
            elif kind == "all_of":
                value = yield eng.all_of([event_of(r) for r in step[1]])
            elif kind == "any_of":
                value = yield eng.any_of([event_of(r) for r in step[1]])
            elif kind == "wait":
                value = yield event_of(step[1])
            elif kind == "hold":
                with (yield from resources[step[1]].acquire()):
                    log.append((eng.now, i, n, "acquired"))
                    yield eng.timeout(step[2])
            else:
                fire(step[1])
            log.append((eng.now, i, n, value))
        return i

    def close():
        yield eng.timeout(3.0)
        for k in range(N_SHARED):
            fire(k)

    for i, steps in enumerate(program):
        procs.append(eng.process(body(i, steps), name=f"p{i}"))
    if closer:
        eng.process(close(), name="closer")
    try:
        if until is not None:
            eng.run(until=until)
            log.append(("paused", eng.now))
        outcome = eng.run()
    except SimulationError as exc:
        outcome = str(exc)
    return log, outcome


@settings(max_examples=300, deadline=None)
@given(
    program=programs,
    until=st.one_of(st.none(), DELAYS),
    closer=st.booleans(),
)
def test_two_lane_engine_matches_single_heap_oracle(program, until, closer):
    assert simulate(Engine, program, until, closer) == simulate(
        HeapEngine, program, until, closer
    )


def test_oracle_comparison_sees_same_time_interleaving():
    """A fixed graph mixing every feature resumes identically."""
    program = (
        [("sleep", 0.0), ("fire", 0), ("all_of", (("shared", 0), ("timeout", 0.0)))],
        [("all_of", (("proc", 0), ("join", 0), ("shared", 1))), ("hold", 0, 0.5)],
        [("fire", 1), ("hold", 0, 0.0), ("any_of", (("proc", 1), ("timeout", 1.0)))],
        [("wait", ("prefired", 0)), ("hold", 1, 0.5), ("fire", 2)],
    )
    log, outcome = simulate(Engine, program, None, closer=False)
    assert (log, outcome) == simulate(HeapEngine, program, None, closer=False)
    assert outcome == 1.0
    # The zero-delay steps really did share a timestamp.
    assert sum(1 for entry in log if entry[0] == 0.0) >= 5


def test_zero_delay_timeout_runs_after_earlier_same_time_callback():
    """A zero-delay timeout queued after a callback runs after it."""
    eng = Engine()
    order = []
    ev = eng.event("go")

    def waiter():
        yield ev
        order.append("callback")

    def firer():
        ev.succeed()  # queues the waiter's resume now
        yield eng.timeout(0.0)
        order.append("timeout")

    eng.process(waiter())
    eng.process(firer())
    eng.run()
    assert order == ["callback", "timeout"]


def test_zero_delay_timeout_fires_before_later_same_time_callback():
    """A zero-delay timeout queued before a callback fires before it."""
    eng = Engine()
    ev = eng.event("go")
    seen = []

    def firer():
        t = eng.timeout(0.0)
        ev.succeed()  # the waiter's resume is queued after the timeout
        seen.append(("firer", t))
        yield t

    def waiter():
        yield ev
        seen.append(("waiter", seen[0][1].fired))

    eng.process(waiter())
    eng.process(firer())
    eng.run()
    assert seen[1] == ("waiter", True)
