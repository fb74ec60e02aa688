"""The autograd-free inference fast path of the tensor substrate.

Two contracts under test.  First, ``inference_mode()`` semantics: no
tape is recorded anywhere inside the block, tensors born there refuse
``backward()`` with a clear error, and the mode nests and restores
like the other process-wide defaults.  Second, the arena plumbing:
``scratch_empty``/``scratch_zeros``/the ``out=`` targets draw from the
ambient :class:`~repro.nn.Arena` only for large shapes, the working
set recycles across steps (steady state stops accumulating pool
misses), and every inference op is bit-identical to its training
counterpart on finite inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Arena,
    Tensor,
    active_arena,
    functional as F,
    inference_mode,
    is_inference,
    scratch_empty,
    scratch_zeros,
    use_arena,
)
from repro.nn.tensor import (
    _ARENA_MIN_ELEMS,
    _arena_out,
    add_rows_at,
    concatenate,
    gather,
    scatter_add,
    segment_matmul,
)


# -- mode semantics ----------------------------------------------------------


def test_mode_is_scoped_and_reentrant():
    assert not is_inference()
    with inference_mode():
        assert is_inference()
        with inference_mode():  # re-entrant, like default_dispatch_mode
            assert is_inference()
        assert is_inference()
    assert not is_inference()


def test_mode_restored_on_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with inference_mode():
            raise RuntimeError("boom")
    assert not is_inference()


def test_no_tape_inside_inference_mode(rng):
    a = Tensor(rng.standard_normal((8, 8)).astype(np.float32),
               requires_grad=True)
    b = Tensor(rng.standard_normal((8, 8)).astype(np.float32),
               requires_grad=True)
    with inference_mode():
        out = F.relu(a @ b + a)
    assert out._parents == ()
    assert out._backward is None
    assert out._inference


def test_backward_raises_on_inference_tensor(rng):
    a = Tensor(rng.standard_normal((4,)).astype(np.float32),
               requires_grad=True)
    with inference_mode():
        y = (a * a).sum()
    with pytest.raises(RuntimeError, match="inference_mode"):
        y.backward()


def test_training_tape_works_again_after_the_block(rng):
    a = Tensor(rng.standard_normal((4,)).astype(np.float32),
               requires_grad=True)
    with inference_mode():
        (a * a).sum()
    loss = (a * a).sum()  # outside: tape is back
    loss.backward()
    np.testing.assert_allclose(a.grad, 2.0 * a.data, rtol=1e-6)


# -- arena plumbing ----------------------------------------------------------


def test_use_arena_nests_and_restores():
    outer, inner = Arena(), Arena()
    assert active_arena() is None
    with use_arena(outer):
        assert active_arena() is outer
        with use_arena(inner):
            assert active_arena() is inner
        assert active_arena() is outer
    assert active_arena() is None


def test_scratch_bypasses_arena_outside_inference():
    arena = Arena()
    with use_arena(arena):  # no inference_mode: plain allocator
        scratch_empty((256, 256))
    assert arena.live_buffers == 0


def test_scratch_small_shapes_bypass_the_arena():
    arena = Arena()
    small = (_ARENA_MIN_ELEMS - 1,)
    large = (_ARENA_MIN_ELEMS,)
    with inference_mode(), use_arena(arena):
        scratch_empty(small)
        assert arena.live_buffers == 0
        scratch_empty(large)
        assert arena.live_buffers == 1
        z = scratch_zeros(large)
        assert arena.live_buffers == 2
        assert not z.any()
        assert _arena_out(small) is None
        out = _arena_out(large)
        assert out is not None and out.shape == large
    arena.reset()


def test_arena_out_is_none_without_arena():
    with inference_mode():
        assert _arena_out((_ARENA_MIN_ELEMS,)) is None


def test_arena_steady_state_has_no_misses(rng):
    """Second step with the same shapes is served entirely from the pool."""
    arena = Arena()
    x = rng.standard_normal((64, 128)).astype(np.float32)
    w = rng.standard_normal((128, 128)).astype(np.float32)

    def step():
        with inference_mode(), use_arena(arena):
            return F.relu(Tensor(x) @ Tensor(w))

    arena.reset()
    step()
    warm = arena.stats()
    assert warm["misses"] > 0  # the warm-up actually allocated
    arena.reset()
    # Arena outputs are valid only until the next reset — copy first.
    first = step().data.copy()
    arena.reset()
    second = step()
    steady = arena.stats()
    assert steady["misses"] == warm["misses"]  # zero new allocations
    assert steady["hits"] > warm["hits"]
    # Same numbers, even though the buffers were recycled in between.
    np.testing.assert_array_equal(first, second.data)


# -- bit-identical functional parity -----------------------------------------


def _parity(fn, *arrays):
    """fn under training vs inference+arena: byte-for-byte equal."""
    train = fn(*[Tensor(a) for a in arrays]).data.copy()
    arena = Arena()
    with inference_mode(), use_arena(arena):
        infer = fn(*[Tensor(a) for a in arrays]).data.copy()
    arena.reset()
    np.testing.assert_array_equal(train, infer)


@pytest.mark.parametrize("shape", [(3, 5), (64, 128), (2, 7, 96)])
def test_elementwise_and_norm_parity(rng, shape):
    x = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal(shape[-1]).astype(np.float32)
    b = rng.standard_normal(shape[-1]).astype(np.float32)
    _parity(F.relu, x)
    _parity(F.gelu, x)
    _parity(F.softmax, x)
    _parity(F.log_softmax, x)
    _parity(lambda t: F.layer_norm(t, Tensor(w), Tensor(b)), x)


def test_matmul_gather_concat_parity(rng):
    a = rng.standard_normal((64, 96)).astype(np.float32)
    b = rng.standard_normal((96, 80)).astype(np.float32)
    idx = rng.integers(0, 64, size=200)
    _parity(lambda t, u: t @ u, a, b)
    _parity(lambda t: gather(t, idx), a)
    _parity(lambda t, u: concatenate([t, u], axis=1), a, a)


def test_segment_matmul_parity(rng):
    rows = rng.standard_normal((100, 32)).astype(np.float32)
    weights = rng.standard_normal((4, 32, 48)).astype(np.float32)
    counts = np.array([10, 0, 60, 30])
    _parity(
        lambda r, w: segment_matmul(r, w, counts),
        rows,
        weights,
    )


# -- the occurrence-round scatter vs np.add.at -------------------------------
#
# Compared as uint32 bit patterns: ``assert_array_equal`` treats -0.0
# and +0.0 as equal, so it cannot see a changed summation order that
# only flips the sign of a zero.


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _signed_zero_values(rng, shape):
    """Random float32 values with a sprinkling of +0.0 and -0.0."""
    values = rng.standard_normal(shape).astype(np.float32)
    flat = values.reshape(-1)
    flat[rng.random(flat.size) < 0.1] = 0.0
    flat[rng.random(flat.size) < 0.1] = -0.0
    return values


def _check_add_rows_at(idx, values, out):
    expected = out.copy()
    np.add.at(expected, idx, values)
    got = out.copy()
    add_rows_at(got, idx, values)
    np.testing.assert_array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize(
    "num_rows,depth",
    [(16, 1), (16, 2), (8, 4), (4, 8), (4, 9), (2, 13), (16, 250)],
)
def test_scatter_add_inference_matches_add_at(rng, num_rows, depth):
    """Every row receives exactly ``depth`` contributions, shuffled."""
    idx = rng.permutation(np.repeat(np.arange(num_rows), depth))
    values = _signed_zero_values(rng, (idx.size, 24))
    _check_add_rows_at(idx, values, np.zeros((num_rows, 24), np.float32))
    # Any starting ``out`` (including -0.0 rows), not only zeros.
    start = _signed_zero_values(rng, (num_rows, 24))
    start[0] = -0.0
    _check_add_rows_at(idx, values, start)


def test_add_rows_at_sorted_segments_and_single_row(rng):
    # The per-row bias gather's backward: few rows, sorted, deep.
    idx = np.sort(rng.integers(0, 16, size=4000))
    assert np.bincount(idx).max() >= 250
    values = _signed_zero_values(rng, (idx.size, 8))
    _check_add_rows_at(idx, values, np.zeros((16, 8), np.float32))
    # One destination for everything: one element per round.
    idx = np.full(300, 3)
    values = _signed_zero_values(rng, (300, 5))
    _check_add_rows_at(idx, values, np.zeros((7, 5), np.float32))
    # Negative indices address rows from the end, as in np.add.at.
    idx = rng.integers(-6, 6, size=50)
    values = _signed_zero_values(rng, (50, 3))
    _check_add_rows_at(idx, values, np.zeros((6, 3), np.float32))


def test_add_rows_at_1d_values(rng):
    idx = rng.integers(0, 10, size=200)
    values = _signed_zero_values(rng, (200,))
    _check_add_rows_at(idx, values, np.zeros(10, np.float32))


@settings(max_examples=60, deadline=None)
@given(
    num_rows=st.integers(1, 12),
    idx_list=st.lists(st.integers(0, 11), max_size=80),
    seed=st.integers(0, 2**16),
)
def test_add_rows_at_property(num_rows, idx_list, seed):
    rng = np.random.default_rng(seed)
    idx = np.asarray(idx_list, dtype=np.int64) % num_rows
    values = _signed_zero_values(rng, (idx.size, 3))
    _check_add_rows_at(idx, values, _signed_zero_values(rng, (num_rows, 3)))


def test_scatter_add_inference_empty_and_tensor_entry(rng):
    out = np.ones((3, 4), dtype=np.float32)
    add_rows_at(out, np.array([], dtype=np.int64),
                np.empty((0, 4), dtype=np.float32))
    np.testing.assert_array_equal(out, np.ones((3, 4), dtype=np.float32))
    # And through the public op, under the mode flag.
    idx = rng.integers(0, 6, size=40)
    vals = rng.standard_normal((40, 8)).astype(np.float32)
    _parity(lambda v: scatter_add(v, idx, 6), vals)


def test_row_scatter_ops_match_add_at_reference(rng):
    """gather / scatter_add / embedding against np.add.at, bit for bit."""
    x = _signed_zero_values(rng, (10, 6))
    idx = rng.integers(0, 10, size=90)
    g = _signed_zero_values(rng, (90, 6))

    t = Tensor(x, requires_grad=True)
    gather(t, idx).backward(g)
    expected = np.zeros_like(x)
    np.add.at(expected, idx, g)
    np.testing.assert_array_equal(_bits(t.grad), _bits(expected))

    # Non-leading axis: the index runs along columns.
    t = Tensor(x, requires_grad=True)
    cols = rng.integers(0, 6, size=20)
    g_cols = _signed_zero_values(rng, (10, 20))
    gather(t, cols, axis=1).backward(g_cols)
    expected = np.zeros_like(x)
    np.add.at(expected.T, cols, g_cols.T)
    np.testing.assert_array_equal(_bits(t.grad), _bits(expected))

    # scatter_add forward, training mode (the tape is recorded).
    v = Tensor(g, requires_grad=True)
    out = scatter_add(v, idx, 10)
    expected = np.zeros((10, 6), np.float32)
    np.add.at(expected, idx, g)
    np.testing.assert_array_equal(_bits(out.data), _bits(expected))

    # Embedding with 2-D (batch, time) indices.
    weight = Tensor(x, requires_grad=True)
    tokens = rng.integers(0, 10, size=(4, 15))
    g_emb = _signed_zero_values(rng, (4, 15, 6))
    F.embedding(weight, tokens).backward(g_emb)
    expected = np.zeros_like(x)
    np.add.at(expected, tokens, g_emb)
    np.testing.assert_array_equal(_bits(weight.grad), _bits(expected))


# -- Module.forward_inference -------------------------------------------------


def test_forward_inference_matches_eval_and_reuses_arena(rng):
    from repro.nn.modules import Linear, Module

    class Net(Module):
        def __init__(self):
            super().__init__()
            self.fc1 = Linear(128, 256, rng)
            self.fc2 = Linear(256, 128, rng)

        def forward(self, x):
            return self.fc2(F.relu(self.fc1(x)))

    net = Net()
    x = Tensor(rng.standard_normal((64, 128)).astype(np.float32))
    net.eval()
    ref = net(x).data.copy()

    net.train()
    y1 = net.forward_inference(x)
    np.testing.assert_array_equal(y1.data, ref)
    assert y1._inference and y1._parents == ()
    assert net.training  # training flag restored

    arena = net._inference_arena
    misses = arena.stats()["misses"]
    y2 = net.forward_inference(x)
    assert net._inference_arena is arena  # same arena, not a new one
    assert arena.stats()["misses"] == misses  # steady state: pure reuse
    np.testing.assert_array_equal(y2.data, ref)
