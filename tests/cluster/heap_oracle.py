"""Test-only oracle: the event engine's former single-heap loop.

Before the engine split its queue into a FIFO now-lane and a heap,
every same-time callback went through one heap as a
``(now, seq, "call", cb, ev)`` entry, and every ``AllOf`` queued a
countdown callback per unfired child.  :class:`HeapEngine` restores
exactly that loop on top of the shared event classes, so the ordering
tests can compare the two engines resume by resume.
"""

import heapq

from repro.cluster.engine import Engine, Event, SimulationError


class AllOf(Event):
    """The former join: one queued countdown callback per unfired child.

    Named like the engine's join so deadlock messages compare equal.
    """

    def __init__(self, engine, events, name=""):
        super().__init__(engine, name or "all_of")
        self._pending = 0
        events = list(events)
        for ev in events:
            if not ev.fired:
                self._pending += 1
                ev.add_callback(self._child_fired)
        if self._pending == 0:
            self.succeed([ev.value for ev in events])
        else:
            self._children = events

    def _child_fired(self, _ev):
        self._pending -= 1
        if self._pending == 0 and not self.fired:
            self.succeed([ev.value for ev in self._children])


class HeapEngine(Engine):
    """One priority queue of (time, seq, kind, target, arg) entries."""

    def __init__(self):
        super().__init__()
        self._queue = []

    def _schedule_at(self, when, event):
        heapq.heappush(self._queue, (when, next(self._seq), "fire", event, None))

    def _schedule_callback(self, cb, ev):
        heapq.heappush(self._queue, (self.now, next(self._seq), "call", cb, ev))

    def all_of(self, events):
        return AllOf(self, events)

    def run(self, until=None):
        while self._queue:
            when, _seq, kind, target, arg = self._queue[0]
            if until is not None and when > until:
                self.now = until
                return self.now
            heapq.heappop(self._queue)
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
            if kind == "fire":
                if not target.fired:
                    target.succeed()
            else:
                target(arg)
        if until is None and self._live_processes:
            raise SimulationError(self._deadlock_message())
        return self.now
