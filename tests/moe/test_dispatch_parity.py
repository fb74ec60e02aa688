"""Sparse flat-row routing must match the dense einsum reference.

The sparse backend (``dispatch_mode="sparse"``: ``dispatch_grouped`` ->
experts -> ``combine_grouped``) is a pure reformulation of the GShard einsums — same outputs, same gradients —
so every case here checks both the forward values and the parameter /
input gradients against the dense path, including the edge cases the
index arithmetic could plausibly get wrong: dropped tokens (capacity
pressure) and experts that receive zero tokens.
"""

import numpy as np
import pytest

from repro.moe import (
    MoELayer,
    TopKGate,
    combine,
    combine_grouped,
    dispatch,
    dispatch_grouped,
)
from repro.nn import Tensor


def make_layers(rng_seed, top_k, capacity_factor, num_experts=4, dim=16):
    """Two MoELayers with identical parameters, one per dispatch mode."""
    layers = {}
    for mode in ("dense", "sparse"):
        rng = np.random.default_rng(rng_seed)
        layers[mode] = MoELayer(
            model_dim=dim,
            hidden_dim=2 * dim,
            num_experts=num_experts,
            rng=rng,
            top_k=top_k,
            capacity_factor=capacity_factor,
            dispatch_mode=mode,
        )
    for p_dense, p_sparse in zip(
        layers["dense"].parameters(), layers["sparse"].parameters()
    ):
        np.testing.assert_array_equal(p_dense.data, p_sparse.data)
    return layers


def run_step(layer, x_data):
    x = Tensor(x_data.copy(), requires_grad=True)
    y = layer(x)
    loss = (y**2).mean() + 0.01 * layer.last_aux_loss
    loss.backward()
    grads = [np.array(p.grad) for p in layer.parameters()]
    return np.array(y.data), np.array(x.grad), grads


@pytest.mark.parametrize("top_k", [1, 2])
@pytest.mark.parametrize("capacity_factor", [0.25, 1.0, 4.0])
def test_layer_outputs_and_grads_match(rng, top_k, capacity_factor):
    """Both backends agree at no-drop, heavy-drop and over-capacity."""
    layers = make_layers(3, top_k, capacity_factor)
    x_data = rng.standard_normal((24, 16)).astype(np.float32)

    y_d, xg_d, grads_d = run_step(layers["dense"], x_data)
    y_s, xg_s, grads_s = run_step(layers["sparse"], x_data)

    np.testing.assert_allclose(y_s, y_d, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(xg_s, xg_d, rtol=1e-5, atol=1e-6)
    for g_s, g_d in zip(grads_s, grads_d):
        np.testing.assert_allclose(g_s, g_d, rtol=1e-5, atol=1e-6)


def test_dropped_tokens_present(rng):
    """The heavy-drop case really drops tokens (the test bites)."""
    layers = make_layers(3, 2, 0.25)
    x = Tensor(rng.standard_normal((24, 16)).astype(np.float32))
    layers["sparse"](x)
    assert layers["sparse"].last_gate_output.dropped_tokens > 0


def test_zero_token_expert(rng):
    """An expert nobody picks yields zero rows, identically in both."""
    gate_rng = np.random.default_rng(0)
    gate = TopKGate(8, 4, gate_rng, top_k=1, capacity_factor=4.0)
    # Steer every token to expert 0 by rigging the gate projection.
    gate.wg.weight.data[:] = 0.0
    gate.wg.weight.data[:, 0] = 1.0
    x = Tensor(
        np.abs(rng.standard_normal((6, 8))).astype(np.float32),
        requires_grad=True,
    )
    out = gate(x.detach())
    assert np.all(out.expert_indices == 0)
    assert np.asarray(out.expert_load)[1:].sum() == 0

    routed_dense = dispatch(x, out.dispatch_mask)
    rows, routing = dispatch_grouped(
        x, out.expert_indices, out.slot_indices, 4
    )
    # Idle experts get empty segments; expert 0's segment holds the
    # same rows as its capacity slots.
    np.testing.assert_array_equal(routing.segment_counts, [6, 0, 0, 0])
    np.testing.assert_allclose(
        rows.data, routed_dense.data[0, :6], rtol=1e-6
    )

    # Run the "experts" as the identity on both sides.
    merged_dense = combine(routed_dense, out.combine_weights)
    merged_sparse = combine_grouped(rows, routing, out.gate_weights, 6)
    np.testing.assert_allclose(
        merged_sparse.data, merged_dense.data, rtol=1e-5, atol=1e-6
    )


def test_dense_mode_still_selectable(rng):
    layer = MoELayer(
        8, 16, 4, np.random.default_rng(1), dispatch_mode="dense"
    )
    assert layer.dispatch_mode == "dense"
    y = layer(Tensor(rng.standard_normal((10, 8)).astype(np.float32)))
    assert y.shape == (10, 8)


def test_default_dispatch_mode_context():
    from repro.moe import default_dispatch_mode

    rng = np.random.default_rng(1)
    assert MoELayer(8, 16, 4, rng).dispatch_mode == "sparse"
    with default_dispatch_mode("dense"):
        assert MoELayer(8, 16, 4, rng).dispatch_mode == "dense"
        # An explicit argument still wins over the ambient default.
        assert (
            MoELayer(8, 16, 4, rng, dispatch_mode="sparse").dispatch_mode
            == "sparse"
        )
    assert MoELayer(8, 16, 4, rng).dispatch_mode == "sparse"
    with pytest.raises(ValueError):
        with default_dispatch_mode("fast"):
            pass


def test_unknown_dispatch_mode_rejected():
    with pytest.raises(ValueError, match="dispatch_mode"):
        MoELayer(8, 16, 4, np.random.default_rng(1), dispatch_mode="fast")


def test_dispatch_sparse_rejects_shape_mismatch(rng):
    x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    expert_idx = np.zeros((4, 2), dtype=np.int64)
    slot_idx = np.zeros((4, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        dispatch_grouped(x, expert_idx, slot_idx, 4)


def test_flat_routing_requires_token_indices(rng):
    x = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    flat = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError, match="token_indices"):
        dispatch_grouped(x, flat, flat, 4)


def test_flat_form_matches_token_major_form(rng):
    """A (T, k) routing re-expressed flat routes identically."""
    gate = TopKGate(8, 4, np.random.default_rng(3), top_k=2)
    x = Tensor(
        rng.standard_normal((10, 8)).astype(np.float32), requires_grad=True
    )
    out = gate(x.detach())

    rows_tk, routing_tk = dispatch_grouped(
        x, out.expert_indices, out.slot_indices, 4
    )
    # Flatten (T, k) row-major: token t repeats k times.
    t_ids = np.repeat(np.arange(10), 2)
    e_flat = out.expert_indices.reshape(-1)
    s_flat = out.slot_indices.reshape(-1)
    w_flat = out.gate_weights.reshape(-1)
    rows_flat, routing_flat = dispatch_grouped(
        x, e_flat, s_flat, 4, token_indices=t_ids
    )
    np.testing.assert_array_equal(rows_flat.data, rows_tk.data)
    np.testing.assert_array_equal(
        routing_flat.segment_counts, routing_tk.segment_counts
    )

    merged_tk = combine_grouped(rows_tk, routing_tk, out.gate_weights, 10)
    merged_flat = combine_grouped(rows_flat, routing_flat, w_flat, 10)
    np.testing.assert_allclose(
        merged_flat.data, merged_tk.data, rtol=1e-6, atol=1e-7
    )
