"""The staging-buffer pool used by the pipelined A2A path."""

import threading

import numpy as np
import pytest

from repro.nn import Arena, BufferPool


def test_acquire_shape_and_reuse():
    pool = BufferPool()
    a = pool.acquire((4, 8))
    assert a.shape == (4, 8) and a.dtype == np.float32
    pool.release(a)
    b = pool.acquire((4, 8))
    assert b is a  # same buffer came back
    assert pool.hits == 1 and pool.misses == 1


def test_take_copy_copies():
    pool = BufferPool()
    src = np.arange(12, dtype=np.float32).reshape(3, 4)
    buf = pool.take_copy(src)
    assert buf is not src
    np.testing.assert_array_equal(buf, src)
    src[:] = -1.0  # the staged copy is independent of the source
    np.testing.assert_array_equal(
        buf, np.arange(12, dtype=np.float32).reshape(3, 4)
    )


def test_distinct_keys_do_not_mix():
    pool = BufferPool()
    pool.release(pool.acquire((2, 2), np.float32))
    got = pool.acquire((2, 2), np.float64)
    assert got.dtype == np.float64
    assert pool.idle_buffers() == 1  # the float32 one is still idle


def test_max_per_key_bounds_retention():
    pool = BufferPool(max_per_key=2)
    bufs = [pool.acquire((3,)) for _ in range(5)]
    for b in bufs:
        pool.release(b)
    assert pool.idle_buffers() == 2
    # None keeps every release.
    unbounded = BufferPool(max_per_key=None)
    for b in [unbounded.acquire((3,)) for _ in range(40)]:
        unbounded.release(b)
    assert unbounded.idle_buffers() == 40


def test_max_per_key_validation():
    with pytest.raises(ValueError):
        BufferPool(max_per_key=0)


def test_thread_safety_under_contention():
    """Concurrent acquire/release never loses or duplicates buffers."""
    pool = BufferPool(max_per_key=64)
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
    assert pool.idle_buffers() <= 64
    assert pool.hits + pool.misses == 4 * 200


# -- release() validation -----------------------------------------------------


def test_release_rejects_views():
    """Pooling a view would alias the base array into a later acquire."""
    pool = BufferPool()
    base = pool.acquire((4, 8))
    with pytest.raises(ValueError, match="view"):
        pool.release(base[:2])
    with pytest.raises(ValueError, match="view"):
        pool.release(base.reshape(8, 4))
    assert pool.idle_buffers() == 0


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
    buf = pool.take_copy(np.ones((2, 6), dtype=np.float32))
    pool.release(buf)  # no raise
    assert pool.idle_buffers() == 1


# -- observability counters ---------------------------------------------------


def test_stats_tracks_bytes_and_counters():
    pool = BufferPool()
    a = pool.acquire((4, 8))  # 128 bytes of float32
    assert pool.bytes_allocated == a.nbytes
    assert pool.bytes_held == 0  # checked out, not idle
    pool.release(a)
    assert pool.bytes_held == a.nbytes
    b = pool.acquire((4, 8))  # served from the free list
    assert b is a
    assert pool.bytes_held == 0
    assert pool.bytes_allocated == a.nbytes  # no new allocation
    stats = pool.stats()
    assert stats == {
        "hits": 1,
        "misses": 1,
        "bytes_held": 0,
        "bytes_allocated": a.nbytes,
        "idle_buffers": 0,
        "keys": 1,
    }


def test_stats_excludes_dropped_overflow_buffers():
    """Releases beyond max_per_key go to the allocator, not bytes_held."""
    pool = BufferPool(max_per_key=1)
    bufs = [pool.acquire((16,)) for _ in range(3)]
    for b in bufs:
        pool.release(b)
    assert pool.idle_buffers() == 1
    assert pool.bytes_held == bufs[0].nbytes
    assert pool.bytes_allocated == 3 * bufs[0].nbytes


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
    assert c is not a and c is not b
    assert arena.pool.stats()["misses"] == 3
    arena.reset()
    assert arena.live_buffers == 0
    # After reset the whole working set is reusable.
    d = arena.empty((8, 8))
    assert any(d is buf for buf in (a, b, c))
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
