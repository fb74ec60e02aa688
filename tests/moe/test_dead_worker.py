"""Graceful degradation: dead experts / dead workers / anomaly guard.

The reproduction's resilience claim mirrors its substitution claim:
the single-process :class:`MoELayer` with ``dead_experts`` set is
numerically identical to an :class:`ExpertParallelGroup` that lost the
workers hosting those experts — so convergence-under-failure results
measured single-process are exactly what the degraded multi-worker
system would produce.
"""

import math

import numpy as np
import pytest

from repro.data import LMConfig, SyntheticLM
from repro.models.gpt2_tiny import TransformerLM
from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor
from repro.nn.optim import Adam, clip_grad_norm
from repro.training import AnomalyGuard, TrainingDivergedError, train_lm


def make_layer(rng, num_experts=4, capacity_factor=4.0, **kwargs):
    return MoELayer(
        model_dim=16,
        hidden_dim=24,
        num_experts=num_experts,
        rng=rng,
        top_k=2,
        capacity_factor=capacity_factor,
        **kwargs,
    )


# -- GateOutput.with_experts_dropped ---------------------------------------
def test_dropped_experts_zeroed_and_renormalized(rng):
    layer = make_layer(rng).eval()
    tokens = rng.standard_normal((12, 16)).astype(np.float32)
    out = layer.gate(Tensor(tokens))
    degraded = out.with_experts_dropped({1})
    # No surviving assignment references expert 1.
    _, expert_ids, _, _ = degraded._kept_coords()
    assert 1 not in expert_ids
    assert degraded.expert_load[1] == 0
    assert degraded.dropped_tokens >= out.dropped_tokens
    # Token-major renorm: surviving weights of each token sum to ~1
    # (or 0 where every expert died).
    sums = degraded.gate_weights.data.sum(axis=-1)
    for s in sums:
        assert abs(s - 1.0) < 1e-5 or abs(s) < 1e-5


def test_with_no_dead_experts_is_identity(rng):
    layer = make_layer(rng).eval()
    out = layer.gate(Tensor(rng.standard_normal((8, 16)).astype(np.float32)))
    assert out.with_experts_dropped(()) is out


def test_with_experts_dropped_validates_range(rng):
    layer = make_layer(rng).eval()
    out = layer.gate(Tensor(rng.standard_normal((8, 16)).astype(np.float32)))
    with pytest.raises(ValueError):
        out.with_experts_dropped({4})


def test_expert_choice_drop_zeroes_without_renorm(rng):
    layer = make_layer(rng, gate_type="expert-choice").eval()
    tokens = rng.standard_normal((16, 16)).astype(np.float32)
    out = layer.gate(Tensor(tokens))
    degraded = out.with_experts_dropped({0})
    dead = out.expert_indices == 0
    # Dead entries zeroed; surviving entries carry their original raw
    # affinities untouched (EC does not renormalize per token).
    assert np.all(degraded.gate_weights.data[dead] == 0.0)
    np.testing.assert_array_equal(
        degraded.gate_weights.data[~dead], out.gate_weights.data[~dead]
    )


def test_renorm_carries_gradient(rng):
    """Degraded combine weights still backprop into the router."""
    layer = make_layer(rng).eval()
    tokens = rng.standard_normal((8, 16)).astype(np.float32)
    layer.set_dead_experts({2})
    out = layer(Tensor(tokens, requires_grad=True))
    out.sum().backward()
    assert layer.gate.wg.weight.grad is not None
    assert np.isfinite(layer.gate.wg.weight.grad).all()


# -- MoELayer.set_dead_experts ---------------------------------------------
def test_layer_zero_dead_is_bit_identical(rng):
    layer = make_layer(rng).eval()
    tokens = rng.standard_normal((12, 16)).astype(np.float32)
    before = layer(Tensor(tokens)).data.copy()
    layer.set_dead_experts({1})
    layer.set_dead_experts(())  # restored to health
    after = layer(Tensor(tokens)).data
    np.testing.assert_array_equal(before, after)


def test_layer_rejects_total_loss(rng):
    layer = make_layer(rng)
    with pytest.raises(ValueError, match="total loss"):
        layer.set_dead_experts({0, 1, 2, 3})
    with pytest.raises(ValueError):
        layer.set_dead_experts({7})


@pytest.mark.parametrize("expert_impl", ["loop", "grouped"])
def test_dead_expert_consistent_across_impls(rng, expert_impl):
    ref = make_layer(np.random.default_rng(5)).eval()
    alt = make_layer(np.random.default_rng(5), expert_impl=expert_impl).eval()
    tokens = np.random.default_rng(6).standard_normal((20, 16)).astype(
        np.float32
    )
    ref.set_dead_experts({3})
    alt.set_dead_experts({3})
    np.testing.assert_allclose(
        alt(Tensor(tokens)).data,
        ref(Tensor(tokens)).data,
        rtol=1e-5,
        atol=1e-6,
    )


# -- ExpertParallelGroup.dead_workers --------------------------------------
def test_group_validates_dead_workers(rng):
    layer = make_layer(rng)
    group = ExpertParallelGroup(layer, num_workers=4)
    with pytest.raises(ValueError):
        group.set_dead_workers({4})
    with pytest.raises(ValueError, match="total loss"):
        group.set_dead_workers({0, 1, 2, 3})
    group.set_dead_workers({2})
    assert group.dead_experts == {2}
    group.set_dead_workers(())
    assert group.dead_workers == frozenset()


@pytest.mark.parametrize("num_workers,dead", [(2, {0}), (4, {1}), (4, {0, 3})])
def test_dead_worker_matches_layer_with_dead_experts(rng, num_workers, dead):
    """The substitution claim under failure: group with dead workers ==
    single-process layer with those workers' experts dead."""
    layer = make_layer(rng).eval()
    group = ExpertParallelGroup(layer, num_workers=num_workers, dead_workers=dead)
    tokens = rng.standard_normal((24, 16)).astype(np.float32)
    shards = list(np.split(tokens, num_workers))

    layer.set_dead_experts(group.dead_experts)
    single = layer(Tensor(tokens)).data
    layer.set_dead_experts(())
    parallel = group.forward_concatenated(shards)
    np.testing.assert_allclose(parallel, single, rtol=1e-5, atol=1e-6)


def test_dead_worker_receives_and_sends_nothing(rng):
    layer = make_layer(rng).eval()
    group = ExpertParallelGroup(layer, num_workers=4, dead_workers={1})
    tokens = rng.standard_normal((32, 16)).astype(np.float32)
    group.forward(list(np.split(tokens, 4)))
    assert group.last_dispatch_traffic.matrix[:, 1].sum() == 0.0
    assert group.last_combine_traffic.matrix[1, :].sum() == 0.0


def test_group_zero_dead_is_bit_identical(rng):
    layer = make_layer(rng).eval()
    tokens = rng.standard_normal((24, 16)).astype(np.float32)
    shards = list(np.split(tokens, 4))
    healthy = ExpertParallelGroup(layer, num_workers=4)
    toggled = ExpertParallelGroup(layer, num_workers=4, dead_workers={2})
    toggled.set_dead_workers(())
    np.testing.assert_array_equal(
        toggled.forward_concatenated(shards),
        healthy.forward_concatenated(shards),
    )


# -- AnomalyGuard -----------------------------------------------------------
def test_guard_passes_healthy_steps():
    guard = AnomalyGuard(max_consecutive_skips=2)
    assert guard.step_is_safe(1.0, 0.5)
    assert guard.skipped_steps == 0


def test_guard_skips_then_recovers():
    guard = AnomalyGuard(max_consecutive_skips=2)
    assert not guard.step_is_safe(float("nan"), 1.0)
    assert not guard.step_is_safe(1.0, float("inf"))
    assert guard.consecutive_skips == 2
    assert guard.step_is_safe(1.0, 1.0)  # budget restored
    assert guard.consecutive_skips == 0
    assert guard.skipped_steps == 2
    assert "grad-norm" in guard.last_reason


def test_guard_raises_on_exhausted_budget():
    guard = AnomalyGuard(max_consecutive_skips=1)
    assert not guard.step_is_safe(float("nan"), 1.0)
    with pytest.raises(TrainingDivergedError):
        guard.step_is_safe(float("nan"), 1.0)


def test_guard_validates_budget():
    with pytest.raises(ValueError):
        AnomalyGuard(max_consecutive_skips=0)


def test_guarded_training_skips_poisoned_step():
    """A mid-run NaN parameter poisoning is absorbed: the guard skips
    the poisoned steps and the run finishes with finite weights."""
    corpus = SyntheticLM(
        LMConfig(num_words=12, num_topics=2, seq_len=16, branching=2)
    )
    model = TransformerLM(
        vocab_size=corpus.vocab_size,
        model_dim=16,
        hidden_dim=32,
        num_layers=1,
        num_heads=2,
        max_seq_len=16,
        moe=True,
        num_experts=4,
        seed=0,
    )
    guard = AnomalyGuard(max_consecutive_skips=5)
    # Poison one expert weight: the first steps produce non-finite
    # loss; the guard must keep the optimizer from stepping into it.
    moe = model.blocks[0].moe_layer
    poisoned = moe.experts.w1
    original = poisoned.data.copy()
    poisoned.data[0, 0, 0] = np.nan

    history_losses = []
    from repro.nn.optim import Adam as _Adam

    optimizer = _Adam(model.parameters(), lr=1e-3)
    model.train()
    for step, tokens in enumerate(corpus.batches(8, 4, seed=0)):
        optimizer.zero_grad()
        loss = model.loss(tokens)
        loss.backward()
        grad_norm = clip_grad_norm(model.parameters(), 1.0)
        if step == 1:
            poisoned.data[:] = original  # operator replaced the board
        if guard.step_is_safe(float(loss.data), grad_norm):
            optimizer.step()
        history_losses.append(float(loss.data))
    assert guard.skipped_steps >= 1
    for p in model.parameters():
        assert np.isfinite(p.data).all()


# -- mid-training dead worker ----------------------------------------------
def _train_with_failure(dead_experts, kill_at, steps=24):
    """Synthetic-LM training; ``dead_experts`` go down at ``kill_at``.

    Documented tolerance: losing 1 of 4 experts per layer mid-run must
    keep every loss finite and the smoothed final loss within 25 % of
    the clean run's (relative), the bound asserted below and quoted in
    docs/architecture.md.
    """
    corpus = SyntheticLM(
        LMConfig(num_words=16, num_topics=4, seq_len=16, branching=2, seed=1)
    )
    model = TransformerLM(
        vocab_size=corpus.vocab_size,
        model_dim=16,
        hidden_dim=32,
        num_layers=2,
        num_heads=2,
        max_seq_len=16,
        moe=True,
        num_experts=4,
        capacity_factor=2.0,
        seed=3,
    )
    moe_layers = [b.moe_layer for b in model.blocks if b.moe_layer is not None]
    assert moe_layers
    guard = AnomalyGuard()
    optimizer = Adam(model.parameters(), lr=3e-3)
    losses = []
    model.train()
    for step, tokens in enumerate(corpus.batches(8, steps, seed=2)):
        if step == kill_at and dead_experts:
            for moe in moe_layers:
                moe.set_dead_experts(dead_experts)
        optimizer.zero_grad()
        loss = model.loss(tokens)
        loss.backward()
        grad_norm = clip_grad_norm(model.parameters(), 1.0)
        if guard.step_is_safe(float(loss.data), grad_norm):
            optimizer.step()
        losses.append(float(loss.data))
    return losses


def test_dead_worker_mid_training_loss_stays_finite_and_bounded():
    clean = _train_with_failure(frozenset(), kill_at=0)
    degraded = _train_with_failure({1}, kill_at=8)
    assert all(math.isfinite(x) for x in degraded)
    clean_tail = float(np.mean(clean[-6:]))
    degraded_tail = float(np.mean(degraded[-6:]))
    # Documented tolerance (docs/architecture.md): <= 25% relative.
    assert degraded_tail <= clean_tail * 1.25
    # And the failure is actually visible before adaptation: the steps
    # right after the kill are no better than clean's.
    assert degraded[8] >= min(clean) * 0.9


def test_zero_faults_training_is_bit_identical():
    a = _train_with_failure(frozenset(), kill_at=0)
    b = _train_with_failure(frozenset(), kill_at=5)
    assert a == b


def test_train_lm_accepts_guard():
    corpus = SyntheticLM(
        LMConfig(num_words=12, num_topics=2, seq_len=12, branching=2)
    )
    model = TransformerLM(
        vocab_size=corpus.vocab_size, model_dim=16, hidden_dim=24,
        num_layers=1, num_heads=2, max_seq_len=12, seed=0,
    )
    history = train_lm(
        model, corpus, steps=3, batch_size=4, guard=AnomalyGuard()
    )
    assert len(history.losses) == 3
    assert all(math.isfinite(x) for x in history.losses)
