"""Discrete-event simulation engine.

A small, deterministic, generator-based event engine in the style of
SimPy, purpose-built for simulating GPU clusters: processes model CUDA
streams and collective algorithms, resources model exclusive hardware
(a compute engine, a link, a NIC).

The engine is deterministic: work scheduled for the same timestamp runs
in the order it was scheduled, so repeated runs of the same simulation
produce identical traces.  Two lanes hold that work: a FIFO deque of
callbacks due *now* and a heap of timeouts due later; the loop merges
them by sequence number (see :meth:`Engine.run`).

Example
-------
>>> eng = Engine()
>>> link = Resource(eng, name="nic")
>>> def sender(eng, link, results):
...     with (yield from link.acquire()):
...         yield eng.timeout(2.0)
...     results.append(eng.now)
>>> out = []
>>> eng.process(sender(eng, link, out))
<Process ...>
>>> eng.process(sender(eng, link, out))
<Process ...>
>>> eng.run()
>>> out
[2.0, 4.0]
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Union,
)


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an invalid state."""


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts pending; :meth:`succeed` fires it, after which all
    registered callbacks run at the current simulation time.  Waiting on
    an already-fired event resumes the waiter immediately (at the same
    timestamp, via the event queue, preserving determinism).
    """

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        #: Callbacks to queue on firing, and joins to count down.
        self._callbacks: List[Union[Callable[["Event"], None], "AllOf"]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, scheduling all callbacks at the current time.

        An :class:`AllOf` waiting on this event is counted down here
        without queueing anything; the child that completes the join
        queues :meth:`AllOf._complete` at its own position, so the join
        fires in the same order as a queued callback per child would.
        """
        if self.fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            schedule = self.engine._schedule_callback
            for cb in callbacks:
                if isinstance(cb, AllOf):
                    cb._pending -= 1
                    if cb._pending:
                        continue
                    cb = cb._complete
                schedule(cb, self)
            callbacks.clear()
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event fires (immediately if fired)."""
        if self.fired:
            self.engine._schedule_callback(cb, self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, engine: "Engine", delay: float, name: str = ""):
        if not 0.0 <= delay < math.inf:
            kind = "negative" if delay < 0 else "non-finite"
            raise ValueError(f"{kind} timeout delay: {delay}")
        super().__init__(engine, name or f"timeout({delay:g})")
        engine._schedule_at(engine.now + delay, self)


class AllOf(Event):
    """Fires once every child event has fired.

    The join registers itself (not a callback) with each unfired child;
    :meth:`Event.succeed` counts it down and queues :meth:`_complete`
    once the count reaches zero.
    """

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = ""):
        super().__init__(engine, name or "all_of")
        events = list(events)
        pending = 0
        for ev in events:
            if not ev.fired:
                pending += 1
                ev._callbacks.append(self)
        self._pending = pending
        if pending == 0:
            self.succeed([ev.value for ev in events])
        else:
            self._children = events

    def _complete(self, _ev: Event) -> None:
        if not self.fired:
            self.succeed([ev.value for ev in self._children])


class AnyOf(Event):
    """Fires as soon as any child event fires."""

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = ""):
        super().__init__(engine, name or "any_of")
        for ev in events:
            ev.add_callback(self._child_fired)

    def _child_fired(self, ev: Event) -> None:
        if not self.fired:
            self.succeed(ev.value)


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine driven by the engine.

    The wrapped generator yields :class:`Event` objects; the process is
    resumed with the event's value once the event fires.  The process
    itself is an event that fires (with the generator's return value)
    when the generator finishes, so processes can wait on each other.
    """

    def __init__(self, engine: "Engine", gen: ProcessGenerator, name: str = ""):
        super().__init__(engine, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        #: The event this process is currently blocked on (deadlock
        #: diagnostics); ``None`` while runnable or finished.
        self.waiting_on: Optional[Event] = None
        engine._live_processes[self] = None
        engine._schedule_callback(self._resume, _START)

    def _resume(self, ev: Event) -> None:
        self.waiting_on = None
        try:
            if ev is _START:
                target = self._gen.send(None)
            else:
                target = self._gen.send(ev.value)
        except StopIteration as stop:
            del self.engine._live_processes[self]
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        self.waiting_on = target
        target.add_callback(self._resume)


class _Sentinel(Event):
    def __init__(self):  # noqa: D401 - internal marker, no engine attached
        self.fired = True
        self.value = None


_START = _Sentinel()


class Engine:
    """The event loop over two lanes sharing one sequence counter.

    ``_now_lane`` is a FIFO deque of ``(seq, callback, event)`` entries
    due at the current time; ``_heap`` is a heap of ``(time, seq, timeout)``
    entries.  Every entry takes the next sequence number, so the merge
    in :meth:`run` reproduces a single queue ordered by (time, seq).
    """

    def __init__(self):
        self.now: float = 0.0
        self._now_lane: Deque[tuple] = deque()
        self._heap: list = []
        self._seq = itertools.count()
        #: Started, unfinished processes in start order (a dict for O(1)
        #: removal; the values are unused).
        self._live_processes: Dict["Process", None] = {}

    # -- scheduling ---------------------------------------------------
    def _schedule_at(self, when: float, event: Event) -> None:
        heapq.heappush(self._heap, (when, next(self._seq), event))

    def _schedule_callback(self, cb: Callable[[Event], None], ev: Event) -> None:
        self._now_lane.append((next(self._seq), cb, ev))

    # -- public api ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, name: str = "") -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, name)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Launch a generator as a simulated process."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue; returns the final simulation time.

        Same-timestamp work runs in scheduling order.  The next entry is
        the head of the now-lane unless the heap's head is due at the
        current time with a lower sequence number (a zero-delay timeout
        created before the callback was queued).  The now-lane empties
        before the clock advances to the heap's next time.

        ``until`` caps the simulated time; events past the cap stay
        queued and ``now`` is advanced to ``until``.  It must be finite
        and not earlier than ``now``.

        Raises :class:`SimulationError` when the queue drains while
        processes are still blocked on events nobody can fire anymore —
        a deadlock.  The message names the blocked processes and what
        each is waiting on (an ``until`` cap suppresses the check:
        stopping early legitimately strands in-flight processes).
        """
        if until is not None and not self.now <= until < math.inf:
            raise ValueError(
                f"run(until={until}) must be finite and not before now={self.now}"
            )
        now_lane = self._now_lane
        heap = self._heap
        while now_lane or heap:
            if now_lane and not (
                heap and heap[0][0] == self.now and heap[0][1] < now_lane[0][0]
            ):
                _seq, cb, ev = now_lane.popleft()
                cb(ev)
                continue
            when, _seq, event = heap[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(heap)
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
            if not event.fired:
                event.succeed()
        if until is None and self._live_processes:
            raise SimulationError(self._deadlock_message())
        return self.now

    def _deadlock_message(self, limit: int = 8) -> str:
        blocked = list(self._live_processes)
        lines = [
            f"deadlock at t={self.now:g}s: event queue drained with "
            f"{len(blocked)} process(es) still blocked on unfired events:"
        ]
        for proc in blocked[:limit]:
            waiting = proc.waiting_on
            what = (
                f"{type(waiting).__name__} {waiting.name!r}"
                if waiting is not None
                else "nothing (never started)"
            )
            lines.append(f"  - process {proc.name!r} waiting on {what}")
        if len(blocked) > limit:
            lines.append(f"  ... and {len(blocked) - limit} more")
        return "\n".join(lines)


class Resource:
    """An exclusive-use resource with a FIFO wait queue.

    Models hardware that serializes work: a GPU's compute engine, a
    PCIe fabric, a NIC.  ``capacity`` > 1 models resources that admit a
    fixed number of concurrent users.
    """

    def __init__(self, engine: Engine, name: str = "", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of current holders."""
        return self._in_use

    def request(self) -> Event:
        """An event firing when a slot is granted (caller must release)."""
        ev = self.engine.event(f"req:{self.name}")
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(self)
        else:
            self._in_use -= 1

    def acquire(self) -> ProcessGenerator:
        """``yield from``-able acquisition returning a context manager.

        Usage inside a process::

            with (yield from resource.acquire()):
                yield engine.timeout(dt)
        """
        yield self.request()
        return _Held(self)


class _Held:
    """Context manager releasing a resource slot on exit."""

    def __init__(self, resource: Resource):
        self._resource = resource

    def __enter__(self) -> Resource:
        return self._resource

    def __exit__(self, *exc: Any) -> None:
        self._resource.release()
