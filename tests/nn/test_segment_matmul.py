"""The segment-matmul primitive behind the capacity-free expert path.

``segment_matmul(x, w, counts)`` must be the exact per-segment
composition of plain 2-d matmuls — forward bit-identical to slicing,
backward the exact adjoint of each slice (per-segment input grads, and
per-segment weight grads accumulated into the stacked bank with empty
segments receiving exactly zero).  Its ``bias=`` epilogue must be bit for
bit the per-row ``gather`` + add composition it replaces, forward and
every gradient.
"""

import re

import numpy as np
import pytest

from repro.nn import Tensor, gather, segment_matmul


def reference(x, w, counts):
    parts, lo = [], 0
    for e, c in enumerate(counts):
        parts.append(x[lo : lo + c] @ w[e])
        lo += c
    return (
        np.concatenate(parts, axis=0)
        if parts
        else np.zeros((0, w.shape[2]), np.float32)
    )


@pytest.mark.parametrize(
    "counts",
    [[3, 2, 4], [0, 5, 0], [9, 0, 0], [0, 0, 0], [1, 1, 1]],
)
def test_forward_matches_sliced_matmuls(rng, counts):
    counts = np.asarray(counts)
    x = rng.standard_normal((int(counts.sum()), 6)).astype(np.float32)
    w = rng.standard_normal((3, 6, 5)).astype(np.float32)
    out = segment_matmul(Tensor(x), Tensor(w), counts)
    np.testing.assert_array_equal(out.data, reference(x, w, counts))


def test_backward_is_per_segment_adjoint(rng):
    counts = np.array([2, 0, 3, 1])
    x = Tensor(
        rng.standard_normal((6, 4)).astype(np.float32), requires_grad=True
    )
    w = Tensor(
        rng.standard_normal((4, 4, 3)).astype(np.float32), requires_grad=True
    )
    out = segment_matmul(x, w, counts)
    seed = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(seed)

    lo = 0
    expected_w = np.zeros(w.shape, np.float32)
    expected_x = np.zeros(x.shape, np.float32)
    for e, c in enumerate(counts):
        expected_x[lo : lo + c] = seed[lo : lo + c] @ w.data[e].T
        expected_w[e] = x.data[lo : lo + c].T @ seed[lo : lo + c]
        lo += c
    np.testing.assert_allclose(x.grad, expected_x, atol=1e-6)
    np.testing.assert_allclose(w.grad, expected_w, atol=1e-6)
    # Expert 1 saw no rows: its weight gradient is exactly zero.
    np.testing.assert_array_equal(w.grad[1], 0.0)


def test_gradcheck_against_bmm_equivalent(rng):
    """Uniform segments make segment_matmul a reshaped batched matmul."""
    E, C, K, J = 3, 4, 5, 2
    x = rng.standard_normal((E * C, K)).astype(np.float32)
    w = rng.standard_normal((E, K, J)).astype(np.float32)

    xs, ws = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    seg = segment_matmul(xs, ws, np.full(E, C))
    (seg**2).sum().backward()

    # The (E, C, K) @ (E, K, J) closed form and its adjoints.
    batched = np.matmul(x.reshape(E, C, K), w)
    g = 2.0 * batched
    grad_x = np.matmul(g, np.swapaxes(w, -1, -2)).reshape(E * C, K)
    grad_w = np.matmul(np.swapaxes(x.reshape(E, C, K), -1, -2), g)

    np.testing.assert_array_equal(seg.data, batched.reshape(E * C, J))
    np.testing.assert_allclose(xs.grad, grad_x, atol=1e-6)
    np.testing.assert_allclose(ws.grad, grad_w, atol=1e-6)


@pytest.mark.parametrize(
    "counts",
    [
        [3, 3, 3, 3],  # one 4-wide bucket
        [2, 5, 2, 5, 2],  # two buckets, interleaved members
        [4, 0, 4, 1, 0],  # zero segments and a singleton
        [7],  # single segment, no bucketing possible
    ],
)
def test_bucketed_matches_unbucketed(rng, counts):
    """Size-bucketed stacked GEMMs are bit-identical to the plain loop,
    forward and backward — same per-row 2-d products, just batched."""
    counts = np.asarray(counts)
    n, e = int(counts.sum()), len(counts)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    w = rng.standard_normal((e, 6, 5)).astype(np.float32)
    seed = rng.standard_normal((n, 5)).astype(np.float32)

    grads = {}
    for bucketed in (True, False):
        xs = Tensor(x.copy(), requires_grad=True)
        ws = Tensor(w.copy(), requires_grad=True)
        out = segment_matmul(xs, ws, counts, bucketed=bucketed)
        out.backward(seed.copy())
        grads[bucketed] = (np.array(out.data), xs.grad, ws.grad)

    for a, b in zip(grads[True], grads[False]):
        np.testing.assert_array_equal(a, b)


def test_bucket_threshold_default():
    from repro.nn.tensor import _BUCKET_ROW_ELEMS

    assert _BUCKET_ROW_ELEMS == 4096


def test_empty_input(rng):
    w = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
    out = segment_matmul(
        Tensor(np.zeros((0, 3), np.float32)), w, np.zeros(2, np.int64)
    )
    assert out.shape == (0, 4)


def test_no_grad_operands_skip_the_tape(rng):
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((1, 3, 3)).astype(np.float32))
    out = segment_matmul(x, w, np.array([2]))
    assert out._parents == () and out._backward is None


def test_validation_errors(rng):
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((2, 3, 5)).astype(np.float32))
    with pytest.raises(ValueError):
        segment_matmul(x, w, np.array([1, 2]))  # sum != rows
    with pytest.raises(ValueError):
        segment_matmul(x, w, np.array([4]))  # wrong number of segments
    with pytest.raises(ValueError):
        segment_matmul(x, w, np.array([5, -1]))  # negative count
    with pytest.raises(TypeError):
        segment_matmul(x, w, np.array([2.0, 2.0]))  # non-integer counts
    with pytest.raises(ValueError):
        segment_matmul(
            Tensor(np.zeros((4, 2), np.float32)), w, np.array([2, 2])
        )  # inner dim mismatch
    with pytest.raises(ValueError):
        segment_matmul(
            Tensor(np.zeros((2, 2, 3), np.float32)), w, np.array([1, 1])
        )  # x must be 2-d


def _gather_add(x, w, b, counts, bucketed):
    """The unfused composition: bias gathered per row, then added."""
    expert_of_row = np.repeat(np.arange(len(counts)), counts)
    return segment_matmul(x, w, counts, bucketed=bucketed) + gather(
        b, expert_of_row
    )


@pytest.mark.parametrize("bucketed", [True, False])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "counts, j, zero_column",
    [
        ([3, 3, 3, 3], 5, True),  # one 4-wide bucket
        ([2, 5, 2, 5, 2], 5, True),  # two buckets, interleaved members
        ([4, 0, 4, 1, 0], 5, True),  # empty segments and a singleton
        ([0, 0, 0], 5, True),  # no rows at all
        ([40, 0, 37], 5, True),  # long single segments
        ([7], 5, True),  # one segment, nothing to bucket
        ([6, 6, 300, 0], 1, False),  # one output column
        ([6, 6, 300, 0], 1, True),  # one output column, all -0.0
    ],
)
def test_bias_epilogue_matches_gather_add_bitwise(
    rng, counts, j, zero_column, order, bucketed
):
    """Forward and all three grads equal the gather + add composition as
    uint32 bit patterns — signed zeros included: the upstream gradient
    has scattered -0.0 entries (and, with ``zero_column``, an
    all--0.0 first column), and arrives row-major or column-major."""
    counts = np.asarray(counts)
    n, e = int(counts.sum()), len(counts)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    w = rng.standard_normal((e, 6, j)).astype(np.float32)
    b = rng.standard_normal((e, j)).astype(np.float32)
    seed = rng.standard_normal((n, j)).astype(np.float32)
    seed *= np.float32(10.0) ** rng.integers(-3, 4, size=j).astype(np.float32)
    seed[rng.random((n, j)) < 0.2] = -0.0
    if zero_column:
        seed[:, 0] = -0.0
    seed = np.asarray(seed, order=order)

    results = []
    for fused in (True, False):
        xs = Tensor(x.copy(), requires_grad=True)
        ws = Tensor(w.copy(), requires_grad=True)
        bs = Tensor(b.copy(), requires_grad=True)
        if fused:
            out = segment_matmul(xs, ws, counts, bucketed=bucketed, bias=bs)
        else:
            out = _gather_add(xs, ws, bs, counts, bucketed)
        out.backward(seed.copy(order=order))
        results.append((np.array(out.data), xs.grad, ws.grad, bs.grad))

    for got, want in zip(*results):
        assert got.shape == want.shape
        np.testing.assert_array_equal(
            got.view(np.uint32), want.view(np.uint32)
        )
    # Empty segments get exactly +0.0 bias gradient.
    assert not results[0][3][counts == 0].view(np.uint32).any()


def test_bias_only_operand_needs_grad(rng):
    """A bias that requires grad alone still records the tape node."""
    x = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
    w = Tensor(rng.standard_normal((2, 2, 4)).astype(np.float32))
    b = Tensor(np.zeros((2, 4), np.float32), requires_grad=True)
    segment_matmul(x, w, np.array([1, 2]), bias=b).sum().backward()
    np.testing.assert_array_equal(b.grad, [[1.0] * 4, [2.0] * 4])


@pytest.mark.parametrize("shape", [(2,), (5,), (1, 5), (2, 1, 5), (3, 5)])
def test_bias_shape_validation(rng, shape):
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((2, 3, 5)).astype(np.float32))
    bias = Tensor(np.zeros(shape, np.float32))
    with pytest.raises(ValueError, match=r"\(2, 5\).*got " + re.escape(str(shape))):
        segment_matmul(x, w, np.array([2, 2]), bias=bias)
