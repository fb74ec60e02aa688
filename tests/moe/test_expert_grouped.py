"""Parity suite for the capacity-free grouped expert path.

Two-way matrix: ``grouped`` must be indistinguishable from the
per-expert ``loop`` reference (and, for top-k, both from the dense
einsum + loop oracle).  Both run on the same flat sorted rows
under sparse dispatch (:meth:`~repro.moe.experts.Experts.run_segments`),
so forwards are bit-exact for every gate; gradients agree to 1e-6
(``segment_matmul`` re-associates the stacked weight-grad reductions).

Covers the routing shapes that stress the segment form: zero routed
tokens, every token on one expert, capacity drops, duplicate tokens
under expert-choice, E=1, and the literal multi-worker
``ExpertParallelGroup`` execution (which runs its received blocks
through the same ``run_segments`` entry).
"""

import numpy as np
import pytest

from repro.moe import (
    EXPERT_IMPLS,
    Experts,
    MoELayer,
    combine,
    combine_grouped,
    default_expert_impl,
    dispatch,
    dispatch_grouped,
)
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor

IMPLS = ("loop", "grouped")


def run_layer(x0, impl, seed=3, **kwargs):
    """Build a seeded layer with ``impl`` and run one training step."""
    kwargs.setdefault("top_k", 2)
    kwargs.setdefault("capacity_factor", 1.25)
    bias_expert = kwargs.pop("bias_expert", None)
    layer = MoELayer(
        x0.shape[1], 16, kwargs.pop("num_experts", 4),
        np.random.default_rng(seed), expert_impl=impl, **kwargs,
    )
    if bias_expert is not None:
        layer.gate.wg.weight.data[:, bias_expert] += 10.0
    x = Tensor(x0.copy(), requires_grad=True)
    y = layer(x)
    ((y**2).mean() + 0.01 * layer.last_aux_loss).backward()
    return layer, x, y


def assert_two_way(x0, **kwargs):
    runs = {impl: run_layer(x0, impl, **kwargs) for impl in IMPLS}
    layer_ref, x_ref, y_ref = runs["loop"]
    layer, x, y = runs["grouped"]
    np.testing.assert_array_equal(y.data, y_ref.data)
    np.testing.assert_allclose(
        x.grad, x_ref.grad, atol=1e-6, err_msg="input grad"
    )
    for (name, p), (_, p_ref) in zip(
        layer.named_parameters(), layer_ref.named_parameters()
    ):
        np.testing.assert_allclose(p.grad, p_ref.grad, atol=1e-6, err_msg=name)
    return runs


def test_topk_three_way_parity(rng):
    """grouped == loop on flat rows, and both match the dense oracle."""
    x0 = rng.standard_normal((24, 8)).astype(np.float32)
    runs = assert_two_way(x0)
    layer_ref, x_ref, y_ref = run_layer(x0, "loop", dispatch_mode="dense")
    for impl, (layer, x, y) in runs.items():
        np.testing.assert_allclose(y.data, y_ref.data, atol=1e-6, err_msg=impl)
        np.testing.assert_allclose(x.grad, x_ref.grad, atol=1e-6, err_msg=impl)
        for (name, p), (_, p_ref) in zip(
            layer.named_parameters(), layer_ref.named_parameters()
        ):
            np.testing.assert_allclose(
                p.grad, p_ref.grad, atol=1e-6, err_msg=f"{impl} {name}"
            )


def test_zero_routed_tokens(rng):
    """T=0: empty segments everywhere, both gate families."""
    for gate_type in ("topk", "expert-choice"):
        layer = MoELayer(
            8, 16, 4, np.random.default_rng(3), top_k=2,
            gate_type=gate_type, expert_impl="grouped",
        )
        x = Tensor(np.zeros((0, 8), np.float32), requires_grad=True)
        y = layer(x)
        assert y.shape == (0, 8)
        ((y**2).sum() + 0.01 * layer.last_aux_loss).backward()
        assert x.grad is not None and x.grad.shape == (0, 8)


def test_all_tokens_to_one_expert(rng):
    """top_k=1 with a biased gate: one fat segment, three empty ones.

    Capacity clamps the fat expert, so this doubles as the drop case
    with maximally skewed segments.
    """
    x0 = rng.standard_normal((12, 8)).astype(np.float32)
    assert_two_way(x0, top_k=1, capacity_factor=1.0, bias_expert=2)
    # The gate really did concentrate: expert 2 fills to capacity.
    layer, _, _ = run_layer(x0, "grouped", top_k=1, capacity_factor=1.0,
                            bias_expert=2)
    out = layer.last_gate_output
    assert out.expert_load[2] == out.capacity
    assert out.dropped_tokens > 0


def test_dropped_tokens_under_capacity_pressure(rng):
    x0 = rng.standard_normal((32, 8)).astype(np.float32)
    assert_two_way(x0, capacity_factor=0.5)
    layer, _, _ = run_layer(x0, "grouped", capacity_factor=0.5)
    assert layer.last_gate_output.dropped_tokens > 0


def test_expert_choice_duplicates(rng):
    """EC routes one token to several experts (flat layout duplicates).

    Combined tokens can sum >2 contributions; both impls combine the
    same flat rows in the same order, so the forward is still bitwise.
    """
    x0 = rng.standard_normal((16, 8)).astype(np.float32)
    assert_two_way(x0, gate_type="expert-choice", capacity_factor=2.0)
    layer, _, _ = run_layer(x0, "grouped", gate_type="expert-choice",
                            capacity_factor=2.0)
    out = layer.last_gate_output
    tokens, counts = np.unique(out.token_indices, return_counts=True)
    assert counts.max() > 1  # a token really was chosen twice


def test_single_expert(rng):
    x0 = rng.standard_normal((10, 8)).astype(np.float32)
    assert_two_way(x0, num_experts=1, top_k=1)


def test_grouped_dispatch_combine_match_sparse(rng):
    """The sort-permutation form reproduces index-based capacity routing.

    The reference scatters each kept assignment into its
    ``expert * C + slot`` capacity row and gathers it back per
    assignment — the index form of GShard's einsums — in plain numpy.
    """
    from repro.moe import TopKGate

    gate = TopKGate(8, 4, np.random.default_rng(0), top_k=2,
                    capacity_factor=1.0)
    x = rng.standard_normal((20, 8)).astype(np.float32)
    out = gate(Tensor(x))

    rows, routing = dispatch_grouped(
        Tensor(x), out.expert_indices, out.slot_indices, out.num_experts,
        token_indices=out.token_indices,
    )
    assert int(routing.segment_counts.sum()) == rows.shape[0]
    np.testing.assert_array_equal(routing.segment_counts, out.expert_load)

    # Identity experts: combining the dispatched rows reproduces the
    # capacity-buffer round trip.
    merged_grouped = combine_grouped(
        rows, routing, out.gate_weights.detach(), out.num_tokens
    )
    tok, choice = np.nonzero(out.slot_indices >= 0)
    flat_slots = (
        out.expert_indices[tok, choice] * out.capacity
        + out.slot_indices[tok, choice]
    )
    buffer = np.zeros((out.num_experts * out.capacity, 8), np.float32)
    buffer[flat_slots] = x[tok]
    weights = out.gate_weights.data[tok, choice][:, None]
    merged_ref = np.zeros_like(x)
    np.add.at(merged_ref, tok, buffer[flat_slots] * weights)
    np.testing.assert_allclose(merged_grouped.data, merged_ref, atol=1e-6)

    # ... and the dense einsums over the same capacity buffer.
    dense = combine(
        dispatch(Tensor(x), out.dispatch_mask), out.combine_weights.detach()
    )
    np.testing.assert_allclose(merged_grouped.data, dense.data, atol=1e-6)


@pytest.mark.parametrize("gate_type", ["topk", "expert-choice"])
def test_expert_parallel_group_grouped(rng, gate_type):
    """The multi-worker execution runs blocks via run_segments.

    Must match both the single-process grouped layer and the loop-impl
    group (whose local compute is the one-expert-at-a-time reference).
    """
    def make(impl):
        return MoELayer(
            8, 16, 4, np.random.default_rng(5), top_k=2,
            capacity_factor=2.0, gate_type=gate_type, expert_impl=impl,
        ).eval()

    x = rng.standard_normal((16, 8)).astype(np.float32)
    grouped_layer = make("grouped")
    grouped_group = ExpertParallelGroup(grouped_layer, num_workers=4)
    loop_group = ExpertParallelGroup(make("loop"), num_workers=4)
    shards = list(np.split(x, 4))

    out_grouped = grouped_group.forward_concatenated(shards)
    out_loop = loop_group.forward_concatenated(shards)
    np.testing.assert_array_equal(out_grouped, out_loop)

    if gate_type == "topk":  # EC drop sets depend on sharding
        single = grouped_layer(Tensor(x)).data
        np.testing.assert_allclose(out_grouped, single, rtol=1e-5,
                                   atol=1e-6)


def test_parallel_group_with_empty_shard(rng):
    layer = MoELayer(
        8, 16, 4, np.random.default_rng(5), top_k=2, capacity_factor=4.0,
        expert_impl="grouped",
    ).eval()
    group = ExpertParallelGroup(layer, num_workers=2)
    x = rng.standard_normal((8, 8)).astype(np.float32)
    out = group.forward_concatenated([x, np.zeros((0, 8), np.float32)])
    single = layer(Tensor(x)).data
    np.testing.assert_allclose(out, single, rtol=1e-5, atol=1e-6)


def test_transport_codec_reaches_grouped_path(rng):
    """The A2A codec roundtrip applies to the flat rows (both hops)."""
    from repro.compression import get_compressor

    def make(compressor):
        return MoELayer(
            8, 16, 4, np.random.default_rng(5), top_k=2,
            capacity_factor=2.0, expert_impl="grouped",
            compressor=compressor,
        ).eval()

    x = rng.standard_normal((16, 8)).astype(np.float32)
    clean = make(None)(Tensor(x)).data
    lossy_layer = make(get_compressor("zfp"))
    lossy = lossy_layer(Tensor(x)).data
    assert not np.array_equal(lossy, clean)
    assert np.abs(lossy - clean).max() < 0.15 * np.abs(clean).max() + 1e-3
    # last_dispatched is the flat pre-compression payload (N, M).
    out = lossy_layer.last_gate_output
    kept = int((np.asarray(out.slot_indices) >= 0).sum())
    assert lossy_layer.last_dispatched.shape == (kept, 8)


# -- shared impl-name validation ---------------------------------------------


def _expected_error(impl):
    return f"unknown expert_impl {impl!r}; expected one of {EXPERT_IMPLS}"


def test_impl_validation_is_shared_across_entry_points():
    """Every entry point rejects a typo with the identical message."""
    from repro.models import make_ffn

    rng = np.random.default_rng(0)
    entry_points = [
        lambda: Experts(2, 8, 16, rng, expert_impl="groupd"),
        lambda: MoELayer(8, 16, 2, rng, expert_impl="groupd"),
        lambda: make_ffn(8, 16, rng, moe=True, num_experts=2,
                         expert_impl="groupd"),
        lambda: default_expert_impl("groupd").__enter__(),
    ]
    for build in entry_points:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == _expected_error("groupd")
    assert "grouped" in EXPERT_IMPLS  # the new impl is registered


def test_default_expert_impl_accepts_grouped():
    rng = np.random.default_rng(0)
    with default_expert_impl("grouped"):
        assert Experts(2, 8, 16, rng).expert_impl == "grouped"
        assert MoELayer(8, 16, 2, rng).experts.expert_impl == "grouped"
    assert Experts(2, 8, 16, rng).expert_impl == "grouped"
