"""Parity suite for the expert bank's capacity-form execution.

The grouped bank handed an (E, C, M) capacity buffer (dense dispatch,
fidelity studies) must be indistinguishable from the per-expert loop
reference *at every occupied slot*: bit-exact forward outputs and
gradients matching to 1e-6 (the segment GEMMs re-associate a few
reductions, so the last bits of parameter gradients may legitimately
differ).  Padding slots are zero-filled by the grouped path when the
gate's occupancy is known — the loop reference runs the FFN on the
zero rows and produces ``fc2(act(b1))`` there instead — but every
combine carries a zero weight at unoccupied slots, so parity is
asserted on the occupied prefix plus zero padding (and end-to-end
through the layer, where the impls agree everywhere).  Also covers the
per-expert <-> stacked checkpoint layout conversion.
"""

import numpy as np
import pytest

from repro.moe import Experts, MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import (
    Tensor,
    load_checkpoint,
    save_checkpoint,
    stack_expert_state,
    unstack_expert_state,
)


def make_pair(num_experts, model_dim, hidden_dim, seed=0):
    """The same seeded bank twice: loop reference and grouped."""
    loop = Experts(
        num_experts, model_dim, hidden_dim,
        np.random.default_rng(seed), expert_impl="loop",
    )
    grouped = Experts(
        num_experts, model_dim, hidden_dim,
        np.random.default_rng(seed), expert_impl="grouped",
    )
    return loop, grouped


def make_dispatched(rng, num_experts, capacity, model_dim, fill):
    """A capacity buffer with ``fill[e]`` occupied prefix slots."""
    x = np.zeros((num_experts, capacity, model_dim), dtype=np.float32)
    for e, f in enumerate(fill):
        x[e, :f] = rng.standard_normal((f, model_dim))
    return x, np.asarray(fill, dtype=np.int64)


CASES = [
    # (E, C, M, H, fill) — zero-occupancy experts, partial, full, E=1.
    (4, 6, 8, 16, [0, 3, 6, 1]),
    (4, 6, 8, 16, [0, 0, 0, 0]),
    (4, 6, 8, 16, [6, 6, 6, 6]),
    (1, 5, 8, 16, [2]),
]


def occupied_mask(E, C, fill):
    """(E, C) bool mask of the occupied slot prefix."""
    return np.arange(C)[None, :] < np.asarray(fill)[:, None]


@pytest.mark.parametrize("E,C,M,H,fill", CASES)
def test_forward_bitwise_parity(rng, E, C, M, H, fill):
    loop, grouped = make_pair(E, M, H)
    x, load = make_dispatched(rng, E, C, M, fill)
    ref = loop(Tensor(x))
    occ = occupied_mask(E, C, fill)
    # Occupancy-aware path: bitwise at occupied slots, zeros in the
    # padding (the loop runs the FFN on the zero rows instead; no
    # combine ever reads those slots).
    out = grouped(Tensor(x), expert_load=load).data
    np.testing.assert_array_equal(out[occ], ref.data[occ])
    np.testing.assert_array_equal(
        out[~occ], np.zeros_like(out[~occ])
    )
    # Without occupancy info every slot runs the GEMMs: bitwise
    # everywhere, padding included.
    np.testing.assert_array_equal(grouped(Tensor(x)).data, ref.data)


@pytest.mark.parametrize("E,C,M,H,fill", CASES)
def test_gradient_parity(rng, E, C, M, H, fill):
    loop, grouped = make_pair(E, M, H)
    x, load = make_dispatched(rng, E, C, M, fill)
    occupied = occupied_mask(E, C, fill)
    # Loss over the occupied slots only — what any combine reads.
    # (An unmasked loss would feed the loop's padding-slot responses
    # into its parameter gradients, a contribution no real consumer
    # ever creates and the zero-padded grouped path never computes.)
    mask = Tensor(occupied[:, :, None].astype(np.float32))

    x_loop = Tensor(x, requires_grad=True)
    ((loop(x_loop) * mask) ** 2).sum().backward()
    x_grp = Tensor(x.copy(), requires_grad=True)
    ((grouped(x_grp, expert_load=load) * mask) ** 2).sum().backward()

    # Input gradients at occupied slots (padding rows get zero
    # gradient under the masked loss in both impls).
    np.testing.assert_allclose(
        x_grp.grad[occupied], x_loop.grad[occupied], atol=1e-6
    )
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_allclose(
            getattr(grouped, name).grad,
            getattr(loop, name).grad,
            atol=1e-6,
            err_msg=name,
        )


def test_moe_layer_end_to_end_parity(rng):
    """Through gate + dispatch + combine, the impls agree everywhere."""
    kwargs = dict(top_k=2, capacity_factor=1.5)
    loop = MoELayer(8, 16, 4, np.random.default_rng(3),
                    expert_impl="loop", **kwargs)
    grouped = MoELayer(8, 16, 4, np.random.default_rng(3),
                       expert_impl="grouped", **kwargs)
    x = rng.standard_normal((12, 8)).astype(np.float32)

    x_loop = Tensor(x, requires_grad=True)
    out_loop = loop(x_loop)
    x_grp = Tensor(x.copy(), requires_grad=True)
    out_grp = grouped(x_grp)
    np.testing.assert_array_equal(out_grp.data, out_loop.data)

    ((out_loop ** 2).mean() + 0.01 * loop.last_aux_loss).backward()
    ((out_grp ** 2).mean() + 0.01 * grouped.last_aux_loss).backward()
    np.testing.assert_allclose(x_grp.grad, x_loop.grad, atol=1e-6)
    for (name, p_grp), (_, p_loop) in zip(
        grouped.named_parameters(), loop.named_parameters()
    ):
        np.testing.assert_allclose(
            p_grp.grad, p_loop.grad, atol=1e-6, err_msg=name
        )


def test_expert_parallel_group_parity(rng):
    """The multi-worker execution reproduces the single-process layer.

    capacity_factor >= E/k so no token is dropped (drop resolution is
    FCFS in token order, which depends on sharding).
    """
    layer = MoELayer(
        8, 16, 4, np.random.default_rng(5), top_k=2, capacity_factor=2.0
    ).eval()
    x = rng.standard_normal((16, 8)).astype(np.float32)
    single = layer(Tensor(x)).data
    group = ExpertParallelGroup(layer, num_workers=2)
    distributed = group.forward_concatenated([x[:8], x[8:]])
    np.testing.assert_allclose(distributed, single, rtol=1e-5, atol=1e-6)


def test_expert_load_validation(rng):
    _, grouped = make_pair(4, 8, 16)
    x, _ = make_dispatched(rng, 4, 6, 8, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        grouped(Tensor(x), expert_load=np.array([1, 2]))


def test_run_expert_bounds(rng):
    _, grouped = make_pair(2, 8, 16)
    with pytest.raises(IndexError):
        grouped.run_expert(2, Tensor(np.zeros((3, 8), np.float32)))


# -- checkpoint layout conversion -------------------------------------------


def test_stack_unstack_round_trip():
    from repro.models import TransformerLM

    model = TransformerLM(
        vocab_size=20, model_dim=16, hidden_dim=24, num_layers=2,
        num_heads=2, moe=True, num_experts=4, max_seq_len=16, seed=0,
    )
    state = model.state_dict()
    legacy = unstack_expert_state(state)
    assert "blocks.items.0.ffn.experts.experts.items.0.fc1.weight" in legacy
    assert not any(k.endswith(".w1") for k in legacy)
    back = stack_expert_state(legacy)
    assert set(back) == set(state)
    for key in state:
        np.testing.assert_array_equal(back[key], state[key])


def test_stack_is_noop_on_stacked_state():
    from repro.models import TransformerLM

    model = TransformerLM(
        vocab_size=10, model_dim=8, hidden_dim=8, num_layers=1,
        num_heads=2, moe=True, num_experts=2, max_seq_len=8, seed=0,
    )
    state = model.state_dict()
    again = stack_expert_state(state)
    assert set(again) == set(state)


def test_stack_rejects_index_gaps():
    legacy = {
        "experts.items.0.fc1.weight": np.zeros((4, 8), np.float32),
        "experts.items.2.fc1.weight": np.zeros((4, 8), np.float32),
    }
    with pytest.raises(KeyError):
        stack_expert_state(legacy)


def test_per_expert_checkpoint_loads_into_stacked_model(tmp_path):
    """Legacy-layout archives load transparently, and round-trip."""
    from repro.models import TransformerLM

    def make(seed):
        return TransformerLM(
            vocab_size=20, model_dim=16, hidden_dim=24, num_layers=1,
            num_heads=2, moe=True, num_experts=4, max_seq_len=16,
            seed=seed,
        )

    model = make(0)
    path = tmp_path / "legacy.npz"
    save_checkpoint(model, path, {"step": 9}, expert_layout="per-expert")
    # The archive really is in the legacy key schema.
    with np.load(path) as archive:
        names = set(archive.files)
    assert any(".experts.items.0.fc1.weight" in n for n in names)
    assert not any(n.endswith(".w1") for n in names)

    clone = make(7)
    assert load_checkpoint(clone, path) == {"step": 9}
    tokens = np.random.default_rng(0).integers(0, 20, (2, 8))
    np.testing.assert_array_equal(clone(tokens).data, model(tokens).data)

    with pytest.raises(ValueError):
        save_checkpoint(model, path, expert_layout="diagonal")


def test_default_expert_impl_context():
    from repro.moe import MoELayer, default_expert_impl

    rng = np.random.default_rng(1)
    assert Experts(2, 8, 16, rng).expert_impl == "grouped"
    with default_expert_impl("loop"):
        assert Experts(2, 8, 16, rng).expert_impl == "loop"
        assert MoELayer(8, 16, 4, rng).experts.expert_impl == "loop"
        # An explicit argument still wins over the ambient default.
        assert (
            Experts(2, 8, 16, rng, expert_impl="grouped").expert_impl
            == "grouped"
        )
    assert Experts(2, 8, 16, rng).expert_impl == "grouped"
    with pytest.raises(ValueError):
        with default_expert_impl("vectorized"):
            pass
