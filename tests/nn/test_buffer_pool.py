"""The staging-buffer pool used by the pipelined A2A path."""

import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Arena, BufferPool
from repro.nn.buffer_pool import size_class


def test_acquire_shape_and_reuse():
    pool = BufferPool()
    a = pool.acquire((4, 8))
    assert a.shape == (4, 8) and a.dtype == np.float32
    assert a.flags.c_contiguous and a.flags.writeable
    pool.release(a)
    b = pool.acquire((4, 8))
    assert b.ctypes.data == a.ctypes.data  # same backing memory came back
    assert pool.hits == 1 and pool.misses == 1


def test_acquire_reuses_a_class_across_shapes():
    """Requests that round to one size class share one free list."""
    pool = BufferPool()
    a = pool.acquire((9, 100))  # 900 elements -> class 1024
    pool.release(a)
    b = pool.acquire((40, 25))  # 1000 elements, same class
    assert b.shape == (40, 25)
    assert b.ctypes.data == a.ctypes.data
    assert pool.stats()["keys"] == 1
    assert pool.hits == 1 and pool.misses == 1


# -- size classes -------------------------------------------------------------


def test_size_class_small_counts_are_exact():
    assert [size_class(n) for n in range(9)] == list(range(9))


def test_size_class_rounding_is_monotone_and_bounded():
    prev = 0
    for n in range(1, 1 << 16):
        c = size_class(n)
        assert c >= n
        assert c >= prev  # monotone
        assert 4 * (c - n) < n or n <= 8  # under 25% padding
        prev = c
    # Four classes per octave: (2^k, 2^(k+1)] maps onto 1.25, 1.5,
    # 1.75 and 2 times 2^k.
    for k in range(3, 13):
        octave = range((1 << k) + 1, (1 << (k + 1)) + 1)
        assert {size_class(n) for n in octave} == {
            5 << (k - 2), 6 << (k - 2), 7 << (k - 2), 8 << (k - 2)
        }


def test_distinct_keys_do_not_mix():
    pool = BufferPool()
    pool.release(pool.acquire((2, 2), np.float32))
    got = pool.acquire((2, 2), np.float64)
    assert got.dtype == np.float64
    assert pool.idle_buffers() == 1  # the float32 one is still idle


def test_pool_keeps_every_release():
    """A class's free list holds one step's peak demand, uncapped."""
    pool = BufferPool()
    for b in [pool.acquire((3,)) for _ in range(40)]:
        pool.release(b)
    assert pool.idle_buffers() == 40
    again = [pool.acquire((3,)) for _ in range(40)]
    assert len(again) == pool.hits == pool.misses == 40


def test_thread_safety_under_contention():
    """Concurrent acquire/release never loses or duplicates buffers."""
    pool = BufferPool()
    errors = []

    def worker():
        try:
            for _ in range(200):
                buf = pool.acquire((8, 8))
                buf.fill(1.0)
                pool.release(buf)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert pool.idle_buffers() == pool.misses <= 4
    assert pool.hits + pool.misses == 4 * 200


def _assert_outstanding_invariants(held):
    """Exact shapes/dtypes, and no two outstanding buffers alias."""
    for i, (buf, shape, dtype) in enumerate(held):
        assert buf.shape == shape and buf.dtype == dtype
        assert buf.flags.c_contiguous and buf.flags.writeable
        for other, _, _ in held[i + 1 :]:
            assert not np.shares_memory(buf, other)


_SHAPES = [(5,), (3, 3), (2, 40), (41, 2), (7, 13), (128,), (100, 10)]
_DTYPES = [np.dtype(np.float32), np.dtype(np.float64), np.dtype(np.int64)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.sampled_from(_SHAPES),
            st.sampled_from(_DTYPES),
            st.integers(min_value=0, max_value=1 << 30),
        ),
        max_size=60,
    )
)
def test_random_acquire_release_never_aliases(ops):
    pool = BufferPool()
    held = []
    acquires = 0
    for is_acquire, shape, dtype, pick in ops:
        if is_acquire or not held:
            buf = pool.acquire(shape, dtype)
            buf.fill(acquires)  # scribble: a shared buffer would show
            held.append((buf, shape, dtype))
            acquires += 1
        else:
            buf, _, _ = held.pop(pick % len(held))
            pool.release(buf)
        _assert_outstanding_invariants(held)
    stats = pool.stats()
    assert stats["hits"] + stats["misses"] == acquires
    assert stats["idle_buffers"] == stats["misses"] - len(held)


def test_mixed_shapes_under_rapid_thread_switches():
    """Four threads, mixed shapes, a 1 us switch interval: no aliasing.

    Each thread keeps a few buffers outstanding, stamps them with its
    own id and checks the stamp survives until release — a buffer
    handed to two threads at once would be overwritten by the other.
    """
    pool = BufferPool()
    errors = []
    rounds = 150

    def worker(tid):
        rng = np.random.default_rng(tid)
        held = []
        try:
            for _ in range(rounds):
                shape = _SHAPES[rng.integers(len(_SHAPES))]
                buf = pool.acquire(shape)
                buf.fill(tid)
                held.append(buf)
                if len(held) > 3:
                    old = held.pop(int(rng.integers(len(held))))
                    assert (old == tid).all()
                    pool.release(old)
            for buf in held:
                assert (buf == tid).all()
                pool.release(buf)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    stats = pool.stats()
    assert stats["hits"] + stats["misses"] == 4 * rounds
    assert stats["idle_buffers"] == stats["misses"]  # all came back


# -- release() validation -----------------------------------------------------


def test_release_rejects_views():
    """Pooling a view would alias the base array into a later acquire."""
    pool = BufferPool()
    base = pool.acquire((4, 8))
    with pytest.raises(ValueError, match="view"):
        pool.release(base[:2])
    with pytest.raises(ValueError, match="view"):
        pool.release(base.reshape(8, 4))
    with pytest.raises(ValueError, match="view"):
        pool.release(base.base)  # the backing itself
    assert pool.idle_buffers() == 0
    pool.release(base)  # the handed-out buffer is still accepted
    assert pool.idle_buffers() == 1


def test_release_rejects_foreign_and_double_release():
    pool = BufferPool()
    with pytest.raises(ValueError, match="did not hand out"):
        pool.release(np.empty((4, 8), dtype=np.float32))
    buf = pool.acquire((4, 8))
    pool.release(buf)
    with pytest.raises(ValueError, match="did not hand out"):
        pool.release(buf)  # already taken back
    assert pool.idle_buffers() == 1


def test_dropped_buffer_is_freed_not_pooled():
    """A buffer never released is garbage, not a pool leak."""
    pool = BufferPool()
    backing = weakref.ref(pool.acquire((4, 8)).base)  # view dropped
    assert backing() is None  # the pool kept no reference to it
    assert pool.idle_buffers() == 0
    for _ in range(20):  # recycled ids never match the stale entry
        with pytest.raises(ValueError, match="did not hand out"):
            pool.release(np.empty((4, 8), dtype=np.float32)[:])


def test_release_rejects_read_only():
    pool = BufferPool()
    buf = pool.acquire((3, 3))
    buf.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        pool.release(buf)
    assert pool.idle_buffers() == 0


def test_release_rejects_non_contiguous():
    pool = BufferPool()
    fortran = np.asfortranarray(np.ones((4, 5), dtype=np.float32))
    with pytest.raises(ValueError, match="contiguous"):
        pool.release(fortran)
    assert pool.idle_buffers() == 0


def test_release_rejects_non_arrays():
    pool = BufferPool()
    with pytest.raises(TypeError, match="numpy array"):
        pool.release([1.0, 2.0])
    assert pool.idle_buffers() == 0


def test_release_accepts_owned_contiguous_arrays():
    """The arrays the pool itself hands out always pass validation."""
    pool = BufferPool()
    buf = pool.acquire((2, 6), np.float32)
    pool.release(buf)  # no raise
    assert pool.idle_buffers() == 1


# -- observability counters ---------------------------------------------------


def test_stats_tracks_bytes_and_counters():
    """Bytes are counted at class size, not at the requested size."""
    pool = BufferPool()
    a = pool.acquire((4, 9))  # 36 float32 -> class 40, 160 bytes
    class_bytes = size_class(36) * 4
    assert class_bytes == 160 and a.nbytes == 144
    assert pool.bytes_allocated == class_bytes
    assert pool.bytes_held == 0  # checked out, not idle
    pool.release(a)
    assert pool.bytes_held == class_bytes
    b = pool.acquire((4, 9))  # served from the free list
    assert b.ctypes.data == a.ctypes.data
    assert pool.bytes_held == 0
    assert pool.bytes_allocated == class_bytes  # no new allocation
    stats = pool.stats()
    assert stats == {
        "hits": 1,
        "misses": 1,
        "bytes_held": 0,
        "bytes_allocated": class_bytes,
        "idle_buffers": 0,
        "keys": 1,
    }


# -- the step-scoped arena ----------------------------------------------------


def test_arena_holds_buffers_until_reset():
    arena = Arena()
    a = arena.empty((8, 8))
    b = arena.zeros((8, 8))
    assert not b.any()
    assert arena.live_buffers == 2
    # Nothing is recycled while the step is in flight: a third request
    # for the same shape is a fresh allocation, never a or b.
    c = arena.empty((8, 8))
    addresses = {buf.ctypes.data for buf in (a, b, c)}
    assert len(addresses) == 3
    assert arena.pool.stats()["misses"] == 3
    arena.reset()
    assert arena.live_buffers == 0
    # After reset the whole working set is reusable.
    d = arena.empty((8, 8))
    assert d.ctypes.data in addresses
    assert arena.pool.stats()["hits"] == 1


def test_arena_stats_includes_live_count():
    arena = Arena()
    arena.empty((4,))
    stats = arena.stats()
    assert stats["live_buffers"] == 1
    assert stats["misses"] == 1
    arena.reset()
    assert arena.stats()["live_buffers"] == 0


def test_arena_shares_a_caller_pool():
    pool = BufferPool()
    arena = Arena(pool=pool)
    assert arena.pool is pool
    arena.empty((2, 2))
    assert pool.misses == 1
    arena.reset()
    assert pool.idle_buffers() == 1
