"""Bit-exact parity of the autograd-free MoE inference fast path.

``MoELayer.forward_inference`` must compute *byte-for-byte* the same
output as the training-tape ``forward`` on an ``eval()`` layer —
across both gate families, both expert implementations, sync and
overlapped chunked pipelines, dead-expert degradation and the T=0
edge — while recording no tape and drawing its large intermediates
from the layer's step-scoped arena (so steady state performs zero
large allocations).  Anything weaker than ``np.array_equal`` here
would hide a divergence between what we benchmark and what we train.
"""

import sys

import numpy as np
import pytest

from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor


def make_layer(
    seed=0,
    gate_type="topk",
    expert_impl=None,
    num_experts=8,
    capacity_factor=2.0,
):
    return MoELayer(
        model_dim=32,
        hidden_dim=48,
        num_experts=num_experts,
        rng=np.random.default_rng(seed),
        top_k=2,
        capacity_factor=capacity_factor,
        gate_type=gate_type,
        expert_impl=expert_impl,
    ).eval()


def tokens(rng, n=96, dim=32):
    return rng.standard_normal((n, dim)).astype(np.float32)


def assert_inference_matches(layer, x, rng_out=None):
    """forward_inference vs forward: bit-identical, tape-free."""
    ref = layer(Tensor(x)).data.copy()
    out = layer.forward_inference(Tensor(x))
    np.testing.assert_array_equal(out.data, ref)
    assert out._inference
    assert out._parents == () and out._backward is None
    return ref


@pytest.mark.parametrize("gate_type", ["topk", "expert-choice"])
@pytest.mark.parametrize("expert_impl", ["grouped", "loop"])
def test_parity_across_gates_and_expert_impls(rng, gate_type, expert_impl):
    layer = make_layer(gate_type=gate_type, expert_impl=expert_impl)
    assert_inference_matches(layer, tokens(rng))


@pytest.mark.parametrize("pipeline,num_chunks", [("sync", 3), ("overlap", 3)])
def test_parity_chunked_pipelines(rng, pipeline, num_chunks):
    """The chunked task graph, single-process: one-worker group."""
    layer = make_layer()
    group = ExpertParallelGroup(
        layer, num_workers=1, pipeline=pipeline, num_chunks=num_chunks
    )
    x = tokens(rng, n=120)
    ref = group.forward([x])[0].copy()
    got = group.forward_inference([x])[0]
    np.testing.assert_array_equal(got, ref)
    # Chunking is invisible: the unchunked layer computes the same bits.
    np.testing.assert_array_equal(got, layer(Tensor(x)).data)


def test_parity_with_dead_experts(rng):
    layer = make_layer()
    layer.set_dead_experts({1, 5})
    assert_inference_matches(layer, tokens(rng))


def test_parity_zero_tokens():
    layer = make_layer()
    x = np.zeros((0, 32), dtype=np.float32)
    out = layer.forward_inference(Tensor(x))
    assert out.shape == (0, 32)
    np.testing.assert_array_equal(out.data, layer(Tensor(x)).data)


def test_parity_under_capacity_pressure(rng):
    """Token drops (FCFS capacity overflow) resolve identically."""
    layer = make_layer(capacity_factor=0.5)
    assert_inference_matches(layer, tokens(rng, n=128))


def test_steady_state_reuses_the_arena(rng):
    layer = make_layer()
    x = Tensor(tokens(rng))
    layer.forward_inference(x)  # warm-up populates the pool
    stats = layer._inference_arena.stats()
    assert stats["misses"] > 0
    ref = layer.forward_inference(x).data.copy()
    steady = layer._inference_arena.stats()
    assert steady["misses"] == stats["misses"]  # zero new allocations
    assert steady["hits"] > stats["hits"]
    np.testing.assert_array_equal(ref, layer(x).data)


def test_training_flag_and_tape_restored_after_inference(rng):
    layer = make_layer().train()
    x = Tensor(tokens(rng), requires_grad=False)
    layer.forward_inference(x)
    assert layer.training
    # A training forward afterwards records a tape again.
    layer.eval()
    y = layer(x)
    assert y._backward is not None or y._parents


def test_forward_only_skips_gate_bookkeeping(rng):
    """No aux-loss graph and no densified masks on the fast path."""
    layer = make_layer()
    layer.forward_inference(Tensor(tokens(rng)))
    aux = layer.last_aux_loss
    assert aux is not None and aux._parents == ()
    assert float(aux.data) == 0.0
    gate_out = layer.last_gate_output
    assert gate_out._dispatch_mask is None
    with pytest.raises(RuntimeError, match="densify"):
        from repro.nn.tensor import inference_mode

        with inference_mode():
            gate_out.dispatch_mask
    # Outside inference mode densification is allowed again (training
    # introspection on a stale GateOutput still works).
    assert gate_out.dispatch_mask is not None


def test_last_dispatched_not_recorded_under_inference(rng):
    layer = make_layer()
    x = Tensor(tokens(rng))
    layer(x)
    assert layer.last_dispatched is not None
    layer.forward_inference(x)
    assert layer.last_dispatched is None


def test_forward_inference_rejects_dense_dispatch(rng):
    layer = MoELayer(
        model_dim=16,
        hidden_dim=24,
        num_experts=4,
        rng=np.random.default_rng(0),
        capacity_factor=2.0,
        dispatch_mode="dense",
    ).eval()
    with pytest.raises(RuntimeError, match="sparse"):
        layer.forward_inference(Tensor(tokens(rng, dim=16)))


# -- expert-parallel group ---------------------------------------------------


def group_parity(rng, **kwargs):
    layer = make_layer(capacity_factor=4.0)
    group = ExpertParallelGroup(layer, num_workers=4, **kwargs)
    shards = [tokens(rng, n=24) for _ in range(4)]
    ref = [y.copy() for y in group.forward(shards)]
    got = group.forward_inference(shards)
    for r, g in zip(ref, got):
        np.testing.assert_array_equal(r, g)
    return group, shards


def test_group_parity_sync_and_overlap(rng):
    group_parity(rng)
    group_parity(rng, pipeline="overlap", num_chunks=2)


def test_group_parity_with_dead_workers(rng):
    group_parity(rng, dead_workers={1})


def test_group_steady_state_reuses_staging_pool(rng):
    group, shards = group_parity(rng, pipeline="overlap", num_chunks=2)
    group.forward_inference(shards)  # second warm pass
    stats = group._pool.stats()
    misses = stats["misses"]
    got = [y.copy() for y in group.forward_inference(shards)]
    assert group._pool.stats()["misses"] == misses  # steady: pure reuse
    ref = group.forward(shards)
    for r, g in zip(ref, got):
        np.testing.assert_array_equal(r, g)


def test_group_steady_state_pool_is_interleaving_independent():
    """Stress the staging-pool steady state under rapid thread switches.

    A one-microsecond switch interval makes the overlap executor's two
    streams interleave differently on every run; the pool's miss count
    must not depend on that order.
    """
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            # The original check's inputs (the ``rng`` fixture's seed),
            # so only the thread interleaving varies between reruns.
            test_group_steady_state_reuses_staging_pool(
                np.random.default_rng(12345)
            )
    finally:
        sys.setswitchinterval(previous)
