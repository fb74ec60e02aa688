"""End-to-end smokes across subsystems, one per hot path.

Each check drives a public entry point the way a user would and keeps
the assertions the CI workflow used to run inline: fault injection
through the event simulator and the expert-parallel group, the
expert-choice sparse path, grouped-vs-loop parity, the fused routing
kernel against the legacy four-pass chain, and overlap-vs-sync
pipeline parity.
"""

import numpy as np

from repro.cluster import paper_testbed
from repro.collectives import get_a2a
from repro.compression import get_compressor
from repro.core import EventExecutor, get_scheduler
from repro.faults import single_straggler
from repro.models import ct_moe
from repro.moe import MoELayer, route_fused
from repro.moe.gating import assign_capacity_slots
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor


def test_fault_injection_straggler_and_dead_worker():
    # A straggler plan through OptSche + pipe A2A must slow the pass
    # down, deterministically.
    def run(faults):
        return EventExecutor(
            paper_testbed(), get_a2a("pipe"), get_compressor("zfp"),
            get_scheduler("optsche"), partitions=2, faults=faults,
        ).run(ct_moe(12)).makespan

    healthy = run(None)
    hurt = run(single_straggler(rank=0, slowdown=2.0))
    assert hurt > healthy, (healthy, hurt)
    assert hurt == run(single_straggler(rank=0, slowdown=2.0))

    # A dead worker's step must stay finite (capacity-drop).
    rng = np.random.default_rng(0)
    layer = MoELayer(16, 32, 4, rng)
    group = ExpertParallelGroup(layer, num_workers=4, dead_workers={1})
    x = rng.standard_normal((32, 16)).astype(np.float32)
    y = group.forward_concatenated(list(np.split(x, 4)))
    assert np.isfinite(y).all()


def test_expert_choice_sparse_hot_path():
    rng = np.random.default_rng(0)
    layer = MoELayer(
        16, 32, 4, rng, gate_type="expert-choice", dispatch_mode="sparse",
    )
    x = Tensor(
        rng.standard_normal((64, 16)).astype(np.float32), requires_grad=True,
    )
    y = layer(x)
    ((y ** 2).mean() + 0.0 * layer.last_aux_loss).backward()
    out = layer.last_gate_output
    assert out.has_sparse, "EC gate must emit sparse routing"
    assert out.expert_indices.ndim == 1, "EC emits the flat form"
    assert x.grad is not None


def test_grouped_expert_parity():
    rng = np.random.default_rng(0)
    ref = MoELayer(16, 32, 4, np.random.default_rng(7), expert_impl="loop")
    grp = MoELayer(16, 32, 4, np.random.default_rng(7), expert_impl="grouped")
    x = rng.standard_normal((64, 16)).astype(np.float32)
    np.testing.assert_array_equal(grp(Tensor(x)).data, ref(Tensor(x)).data)


def test_fused_routing_parity():
    # The single-sort kernel is bit-identical to the legacy chain:
    # one-hot-cumsum slots, nonzero kept scan, stable argsort into
    # expert-major order, segment bincount.
    rng = np.random.default_rng(0)
    T, E, k, cap = 96, 8, 2, 16
    top_idx = np.argsort(rng.random((T, E)), axis=1)[:, :k]
    plan = route_fused(top_idx, E, cap)
    slots = assign_capacity_slots(top_idx, E, cap)
    np.testing.assert_array_equal(plan.slot_indices, slots)
    tok, choice = np.nonzero(slots >= 0)
    e_ids = top_idx[tok, choice]
    order = np.argsort(e_ids, kind="stable")
    np.testing.assert_array_equal(plan.kept_token_ids, tok)
    np.testing.assert_array_equal(plan.grouped_token_ids, tok[order])
    np.testing.assert_array_equal(
        plan.segment_counts, np.bincount(e_ids, minlength=E)
    )

    # The layer's gate caches the plan; consumers reuse it.
    layer = MoELayer(16, 32, 8, rng, top_k=2)
    layer(Tensor(rng.standard_normal((48, 16)).astype(np.float32)))
    assert layer.last_gate_output._plan is not None


def test_overlap_pipeline_parity():
    rng = np.random.default_rng(0)
    layer = MoELayer(
        16, 32, 8, rng, top_k=2, compressor=get_compressor("zfp"),
        expert_impl="grouped",
    ).eval()
    shards = list(
        np.split(rng.standard_normal((48, 16)).astype(np.float32), 4)
    )
    outs = {}
    for pipeline in ("sync", "overlap"):
        group = ExpertParallelGroup(
            layer, 4, pipeline=pipeline, num_chunks=3,
        )
        outs[pipeline] = group.forward_concatenated(shards)
        assert len(group.last_timeline) == 7 * 3
    np.testing.assert_array_equal(outs["overlap"], outs["sync"])
