"""Gradient and semantics tests of nn.functional."""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F

from .step_oracle import where_relu
from .test_tensor import check_grads


@pytest.fixture
def x(rng):
    return rng.standard_normal((4, 6)).astype(np.float32)


def test_relu(x):
    check_grads(lambda t: F.relu(t), x + 0.01)  # avoid kink at 0


def test_training_relu_matches_where_oracle_bitwise(rng):
    """The training-mode ReLU equals the masked ``np.where`` form on
    every float32 class — NaN of both signs, signed zeros, infinities,
    subnormals — and on a random ~50% mask, forward and backward."""
    f32 = np.finfo(np.float32)
    special = np.array(
        [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -1.5,
         f32.smallest_subnormal, -f32.smallest_subnormal, f32.max, f32.min],
        dtype=np.float32,
    )
    block = rng.standard_normal((64, 64)).astype(np.float32)
    for data in (special, block):
        seed = rng.standard_normal(data.shape).astype(np.float32)
        results = []
        for relu in (F.relu, where_relu):
            t = Tensor(data.copy(), requires_grad=True)
            out = relu(t)
            out.backward(seed)
            results.append((out.data, t.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(
                got.view(np.uint32), want.view(np.uint32)
            )


def test_gelu(x):
    check_grads(lambda t: F.gelu(t), x)


def test_tanh_sigmoid_exp_log(x):
    check_grads(lambda t: F.tanh(t), x)
    check_grads(lambda t: F.sigmoid(t), x)
    check_grads(lambda t: F.exp(t * 0.3), x)
    check_grads(lambda t: F.log(t * t + 1.0), x)


def test_softmax_rows_sum_to_one(x):
    s = F.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, rtol=1e-5)


def test_softmax_gradient_matches_analytic(rng, x):
    w = rng.standard_normal(x.shape).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    (F.softmax(t) * Tensor(w)).sum().backward()
    s = np.exp(x - x.max(-1, keepdims=True))
    s /= s.sum(-1, keepdims=True)
    analytic = s * (w - (w * s).sum(-1, keepdims=True))
    np.testing.assert_allclose(t.grad, analytic, atol=1e-6)


def test_log_softmax_consistent_with_softmax(x):
    ls = F.log_softmax(Tensor(x)).data
    s = F.softmax(Tensor(x)).data
    np.testing.assert_allclose(np.exp(ls), s, rtol=1e-5)


def test_softmax_numerically_stable():
    big = Tensor(np.array([[1e4, 1e4 + 1.0]], dtype=np.float32))
    s = F.softmax(big)
    assert np.all(np.isfinite(s.data))


def test_dropout_train_and_eval(rng, x):
    t = Tensor(x)
    out_eval = F.dropout(t, 0.5, rng, training=False)
    assert out_eval is t
    out_train = F.dropout(Tensor(np.ones((100, 100))), 0.5, rng)
    kept = out_train.data != 0
    # Inverted dropout preserves expectation.
    assert 0.4 < kept.mean() < 0.6
    np.testing.assert_allclose(out_train.data[kept], 2.0)
    with pytest.raises(ValueError):
        F.dropout(t, 1.0, rng)


def test_layer_norm_statistics(x):
    w = Tensor(np.ones(x.shape[-1]), requires_grad=True)
    b = Tensor(np.zeros(x.shape[-1]), requires_grad=True)
    out = F.layer_norm(Tensor(x), w, b)
    np.testing.assert_allclose(out.data.mean(-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.data.std(-1), 1.0, atol=1e-2)


def test_layer_norm_gradients(rng):
    x = rng.standard_normal((3, 5)).astype(np.float32)
    w = rng.standard_normal(5).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    check_grads(
        lambda t, u, v: F.layer_norm(t, u, v) * Tensor(x + 2.0), x, w, b
    )


def test_embedding_lookup_and_grad(rng):
    weight = rng.standard_normal((10, 4)).astype(np.float32)
    idx = np.array([[1, 2], [2, 9]])
    w = Tensor(weight, requires_grad=True)
    F.embedding(w, idx).sum().backward()
    expected = np.zeros_like(weight)
    np.add.at(expected, idx, 1.0)
    np.testing.assert_allclose(w.grad, expected)
    with pytest.raises(TypeError):
        F.embedding(w, idx.astype(np.float32))


def test_cross_entropy_matches_manual(rng):
    logits = rng.standard_normal((5, 7)).astype(np.float32)
    targets = rng.integers(0, 7, 5)
    loss = F.cross_entropy(Tensor(logits), targets)
    shifted = logits - logits.max(-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
    manual = -logp[np.arange(5), targets].mean()
    assert float(loss.data) == pytest.approx(manual, rel=1e-5)


def test_cross_entropy_ignore_index(rng):
    logits = rng.standard_normal((4, 5)).astype(np.float32)
    targets = np.array([1, 0, 2, 0])
    masked = F.cross_entropy(Tensor(logits), targets, ignore_index=0)
    only = F.cross_entropy(
        Tensor(logits[[0, 2]]), targets[[0, 2]]
    )
    assert float(masked.data) == pytest.approx(float(only.data), rel=1e-5)


def test_cross_entropy_gradient(rng):
    logits = rng.standard_normal((5, 7)).astype(np.float32)
    targets = np.asarray(rng.integers(0, 7, 5))
    check_grads(lambda t: F.cross_entropy(t, targets), logits)


def test_cross_entropy_shape_mismatch(rng):
    with pytest.raises(ValueError):
        F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((3,), dtype=int))


def test_top_k_indices_correct(rng):
    scores = rng.standard_normal((6, 8))
    top = F.top_k_indices(scores, 3)
    for row, chosen in zip(scores, top):
        assert set(chosen) == set(np.argsort(-row)[:3])
        # Descending order of score.
        assert list(row[chosen]) == sorted(row[chosen], reverse=True)


def test_top_k_validation(rng):
    scores = rng.standard_normal((2, 4))
    with pytest.raises(ValueError):
        F.top_k_indices(scores, 0)
    with pytest.raises(ValueError):
        F.top_k_indices(scores, 5)


def test_one_hot():
    oh = F.one_hot(np.array([0, 2]), 3)
    np.testing.assert_array_equal(oh, [[1, 0, 0], [0, 0, 1]])
