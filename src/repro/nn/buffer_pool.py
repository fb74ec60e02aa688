"""A reusable pool of numpy buffers for the pipelined dispatch path.

The chunked expert-parallel executor stages one flat ``(n, M)`` buffer
per (worker, chunk) in each all-to-all, every payload of that worker in
its own row slice — with ``r`` chunks over ``P`` workers that is up to
``2 r P`` short-lived arrays per forward pass.  Allocating them fresh
every chunk churns the allocator on exactly the path we are trying to
overlap; the real system (like any NCCL-based A2A) reuses pinned staging buffers
instead.  :class:`BufferPool` is that staging area: ``acquire`` hands
out a pooled array of the requested shape/dtype when one is free and
allocates otherwise, ``release`` returns it for reuse.

The pool pools by *size class*, not by exact shape.  Routed row
counts change with every batch, so exact ``(shape, dtype)`` keys
would add new free lists each step and never reuse them.  Instead an
element count is rounded up to a geometric class (:func:`size_class`:
four classes per octave, at most 25% padding), free lists hold flat
1-d backing arrays keyed by ``(class_elems, dtype)``, and ``acquire``
hands out ``backing[:n].reshape(shape)`` — a C-contiguous, writable
view.  ``release`` maps that view back to its backing through
``array.base`` and an outstanding-buffer table, so it takes back
exactly the arrays it handed out and refuses everything else.

The pool is thread-safe — any thread may acquire and release — and
does no zeroing: callers always overwrite the full buffer via
``np.copyto``-style writes before reading.

:class:`Arena` layers a *step-scoped* discipline on top: every buffer
it hands out stays checked out until :meth:`Arena.reset`, which
returns the whole working set to the pool in one shot.  That is the
allocation pattern of a forward-only inference step — all of one
step's intermediates are simultaneously "in flight" until the step's
output is produced, then the entire set can be recycled for the next
step (see ``repro.nn.tensor.inference_mode``).  Each class's free
list is thus bounded by one step's peak demand for that class.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Arena", "BufferPool", "size_class"]


def size_class(n: int) -> int:
    """The backing size, in elements, that serves a request for ``n``.

    Counts up to 8 are exact.  Above that, each octave
    ``(2^k, 2^(k+1)]`` is split into four equal steps of ``2^(k-2)``
    and ``n`` rounds up to the next step, so the padding is always
    under 25% of ``n`` and the class count grows only logarithmically
    in the largest request.
    """
    n = int(n)
    if n <= 8:
        return n
    step = 1 << ((n - 1).bit_length() - 3)
    return -(-n // step) * step


class BufferPool:
    """Thread-safe free lists of flat numpy buffers keyed by size class.

    A request for ``shape``/``dtype`` is served from the free list of
    ``(size_class(prod(shape)), dtype)``; a hit and a miss both hand
    out a fresh view of a backing array, never the backing itself, and
    the pool records that view as outstanding until it is released.

    The pool keeps running counters — ``hits`` / ``misses`` (acquires
    served from the free list vs. fresh allocations), ``bytes_held``
    (bytes sitting idle in the free lists right now) and
    ``bytes_allocated`` (total bytes the pool has ever allocated on
    misses), both counted at class size — exposed as a :meth:`stats`
    snapshot so benchmarks and tests can assert reuse instead of
    guessing at it: a steady-state inference loop should stop
    accumulating misses after its first step.
    """

    def __init__(self):
        self._free: Dict[Tuple[int, np.dtype], List[np.ndarray]] = {}
        # id(handed-out view) -> (weak ref to the view, its class key).
        # Weak, so a buffer dropped without release is simply freed;
        # the ref check makes a recycled id never match.
        self._out: Dict[int, Tuple[weakref.ref, Tuple[int, np.dtype]]] = {}
        self._lock = threading.Lock()
        #: Buffers served from the free list / fresh allocations.
        self.hits = 0
        self.misses = 0
        self._bytes_held = 0
        self._bytes_allocated = 0

    def acquire(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialized, writable, C-contiguous ``shape`` array."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        n = math.prod(shape)
        key = (size_class(n), dtype)
        with self._lock:
            free = self._free.get(key)
            if free:
                self.hits += 1
                backing = free.pop()
                self._bytes_held -= backing.nbytes
            else:
                self.misses += 1
                self._bytes_allocated += key[0] * dtype.itemsize
                backing = None
        if backing is None:
            backing = np.empty(key[0], dtype=dtype)
        view = backing[:n].reshape(shape)
        with self._lock:
            self._out[id(view)] = (weakref.ref(view), key)
        return view

    def release(self, array: np.ndarray) -> None:
        """Return a buffer that :meth:`acquire` handed out, for reuse.

        The pool takes back exactly the arrays it handed out, each
        once.  A view of a handed-out buffer, a foreign array, or one
        already released is refused: pooling it would let a later
        :meth:`acquire` hand out memory that aliases live caller data.
        So are read-only and non-C-contiguous arrays, which
        ``np.copyto``-style staging writes cannot fill.
        """
        if not isinstance(array, np.ndarray):
            raise TypeError(
                f"release() takes a numpy array, got {type(array).__name__}"
            )
        if not array.flags.writeable:
            raise ValueError("refusing to pool a read-only array")
        if not array.flags.c_contiguous:
            raise ValueError(
                "refusing to pool a non-C-contiguous array: staged "
                "copies assume the pool's own contiguous layout"
            )
        with self._lock:
            entry = self._out.get(id(array))
            if entry is None or entry[0]() is not array:
                raise ValueError(
                    "refusing to pool an array this pool did not hand "
                    "out (or already took back): a view or foreign "
                    "array would alias live data in a later acquire"
                )
            del self._out[id(array)]
            backing = array.base
            self._free.setdefault(entry[1], []).append(backing)
            self._bytes_held += backing.nbytes

    def idle_buffers(self) -> int:
        """Buffers currently sitting in the free lists (for tests)."""
        with self._lock:
            return sum(len(v) for v in self._free.values())

    @property
    def bytes_held(self) -> int:
        """Bytes sitting idle in the free lists right now."""
        with self._lock:
            return self._bytes_held

    @property
    def bytes_allocated(self) -> int:
        """Total bytes ever allocated by cache misses."""
        with self._lock:
            return self._bytes_allocated

    def stats(self) -> Dict[str, int]:
        """Consistent snapshot of the pool's counters.

        Keys: ``hits``, ``misses``, ``bytes_held``, ``bytes_allocated``,
        ``idle_buffers``, ``keys``.  Taken under the pool lock so the
        numbers are mutually consistent even while other threads
        acquire/release.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "bytes_held": self._bytes_held,
                "bytes_allocated": self._bytes_allocated,
                "idle_buffers": sum(len(v) for v in self._free.values()),
                "keys": len(self._free),
            }


class Arena:
    """Step-scoped scratch allocator over a :class:`BufferPool`.

    :meth:`empty` / :meth:`zeros` acquire from the pool and record the
    buffer as *live*; nothing is recycled until :meth:`reset` returns
    the whole working set at once.  Within one step every buffer is
    therefore exclusively owned by whoever asked for it — no aliasing
    analysis needed — while across steps the same size classes are
    served from the free list, so once every class has seen one step's
    peak demand a forward performs zero large allocations, even when
    its routed row counts change with every batch.

    The contract callers must respect: arrays handed out by an arena
    (including any tensor *outputs* built on them) are valid only
    until the next :meth:`reset`.  Copy anything that must outlive the
    step.  ``empty``/``zeros`` may be called from multiple threads (the
    overlap executor's two streams); ``reset`` must only run between
    steps, when no thread is allocating.
    """

    def __init__(self, pool: Optional[BufferPool] = None):
        self.pool = pool if pool is not None else BufferPool()
        self._live: List[np.ndarray] = []

    def empty(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialized pooled array, checked out until :meth:`reset`."""
        buf = self.pool.acquire(shape, dtype)
        self._live.append(buf)
        return buf

    def zeros(self, shape, dtype=np.float32) -> np.ndarray:
        """A zero-filled pooled array, checked out until :meth:`reset`."""
        buf = self.empty(shape, dtype)
        buf.fill(0)
        return buf

    @property
    def live_buffers(self) -> int:
        """Buffers handed out since the last :meth:`reset`."""
        return len(self._live)

    def reset(self) -> None:
        """Return every live buffer to the pool (start of a new step)."""
        live, self._live = self._live, []
        for buf in live:
            self.pool.release(buf)

    def stats(self) -> Dict[str, int]:
        """The pool's :meth:`BufferPool.stats` plus the live count."""
        snapshot = self.pool.stats()
        snapshot["live_buffers"] = len(self._live)
        return snapshot
