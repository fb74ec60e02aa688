"""Inference memory stays bounded while routed row counts change.

Every streamed batch routes a different number of rows to each expert
(capacity drops differ batch to batch), so buffer shapes never repeat.
The pools key their free lists on size classes, so the working set is
bounded by one step's peak demand per class instead of growing with
every new shape.  The counts checked here are deterministic — pool
misses, free-list keys and idle bytes — never timings.  Batches are
all distinct and all the same size: repeating or shrinking them would
hide exactly the growth under test.
"""

import threading
from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.compression.zfp import Zfp16Compressor
from repro.models.gpt2_tiny import TransformerLM
from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn.buffer_pool import size_class

STEPS = 14


def routed_rows(moe_layers):
    return tuple(
        m.last_gate_output.plan.kept_token_ids.size for m in moe_layers
    )


def test_transformer_lm_inference_pool_is_flat_after_two_steps():
    model = TransformerLM(
        64,
        model_dim=32,
        hidden_dim=64,
        num_layers=2,
        num_heads=4,
        max_seq_len=64,
        moe=True,
        num_experts=8,
        top_k=2,
        capacity_factor=1.0,
        seed=0,
    )
    moe_layers = [m for m in model.modules() if isinstance(m, MoELayer)]
    assert len(moe_layers) == 2
    rng = np.random.default_rng(0)
    batches = [rng.integers(0, 64, size=(4, 64)) for _ in range(STEPS)]
    assert len({b.tobytes() for b in batches}) == STEPS  # never repeated
    history, routed = [], []
    for batch in batches:
        model.forward_inference(batch)
        routed.append(routed_rows(moe_layers))
        arena = model._inference_arena
        arena.reset()  # the step is over: its buffers go idle
        stats = arena.pool.stats()
        history.append((stats["misses"], stats["keys"], stats["bytes_held"]))
    # The routed row counts really do change from batch to batch.
    assert len(set(routed)) >= 4
    assert history[1][0] > 0
    assert all(h == history[1] for h in history[1:]), history


class _DemandProbe:
    """Tracks a pool's outstanding buffers per (size class, dtype).

    ``step_peak`` is the most buffers of one class checked out at the
    same time since the last :meth:`end_step`.
    """

    def __init__(self, pool):
        self.pool = pool
        self._lock = threading.Lock()
        self._outstanding = Counter()
        self._key_of = {}
        self.step_peak = Counter()
        acquire, release = pool.acquire, pool.release

        def tracked_acquire(shape, dtype=np.float32):
            buf = acquire(shape, dtype)
            key = (size_class(buf.size), buf.dtype)
            with self._lock:
                self._key_of[id(buf)] = key
                self._outstanding[key] += 1
                self.step_peak[key] = max(
                    self.step_peak[key], self._outstanding[key]
                )
            return buf

        def tracked_release(array):
            with self._lock:
                self._outstanding[self._key_of.pop(id(array))] -= 1
            release(array)

        pool.acquire, pool.release = tracked_acquire, tracked_release

    def end_step(self):
        peak, self.step_peak = self.step_peak, Counter()
        return peak


def _idle_per_class(pool):
    with pool._lock:
        return {
            key: len(free) for key, free in pool._free.items() if free
        }


def test_expert_parallel_inference_pools_hold_only_peak_demand():
    """Each class holds its largest single-step demand, nothing more.

    At ``capacity_factor=1.0`` drops vary from batch to batch, so even
    a source's whole staged chunk changes size, and the arena's
    per-destination blocks are a few dozen rows: counts straddle class
    boundaries and a class's peak demand can still set a new record
    late in the run.  What must hold from the first step on is that
    neither pool keeps more idle buffers of a class than the most that
    any one step checked out at once.
    """
    layer = MoELayer(
        model_dim=32,
        hidden_dim=48,
        num_experts=8,
        rng=np.random.default_rng(0),
        top_k=2,
        capacity_factor=1.0,
    ).eval()
    group = ExpertParallelGroup(layer, num_workers=4)
    rng = np.random.default_rng(1)
    shards = [
        rng.standard_normal((96, 32)).astype(np.float32) for _ in range(4)
    ]
    group.forward_inference(shards)  # creates the arena
    group._inference_arena.reset()
    probes = {
        "staging": _DemandProbe(group._pool),
        "arena": _DemandProbe(group._inference_arena.pool),
    }
    record = {name: defaultdict(int) for name in probes}
    for name, probe in probes.items():
        for key, n in _idle_per_class(probe.pool).items():
            record[name][key] = n
    routed = []
    for _ in range(STEPS):
        shards = [
            rng.standard_normal((96, 32)).astype(np.float32) for _ in range(4)
        ]
        group.forward_inference(shards)
        routed.append(group.last_dispatch_traffic.total_bytes)
        group._inference_arena.reset()
        for name, probe in probes.items():
            for key, n in probe.end_step().items():
                record[name][key] = max(record[name][key], n)
            held = _idle_per_class(probe.pool)
            assert held == {k: n for k, n in record[name].items() if n}, name
            stats = probe.pool.stats()
            assert stats["idle_buffers"] == stats["misses"]  # none leaked
    assert len(set(routed)) >= 4  # routed row counts change


@pytest.mark.parametrize("inference", [False, True])
def test_expert_parallel_staging_pool_is_flat_without_drops(inference):
    """Staging is one buffer per (source, chunk) and (receiver, chunk).

    Without capacity drops a source's kept rows per chunk are its
    chunk's tokens times k, whatever the routing, so the staging
    pool's buffer sizes repeat exactly: every miss happens in the
    first step, on distinct batches, overlapped or not.  (Per-(source,
    destination) payloads would still drift across size classes.)
    """
    layer = MoELayer(
        model_dim=32,
        hidden_dim=48,
        num_experts=8,
        rng=np.random.default_rng(0),
        top_k=2,
        capacity_factor=2.0,
        compressor=Zfp16Compressor(),
    )
    group = ExpertParallelGroup(
        layer, num_workers=4, pipeline="overlap", num_chunks=4,
        scheduler="optsche",
    )
    run = group.forward_inference if inference else group.forward
    rng = np.random.default_rng(1)
    history, payloads = [], set()
    for _ in range(STEPS):
        shards = [
            rng.standard_normal((96, 32)).astype(np.float32)
            for _ in range(4)
        ]
        run(shards)
        # No capacity drops: all 4 * 96 * k rows of 32 float32 moved.
        assert group.last_dispatch_traffic.total_bytes == 4 * 96 * 2 * 32 * 4
        payloads.add(group.last_dispatch_traffic.matrix.tobytes())
        stats = group._pool.stats()
        history.append((stats["misses"], stats["keys"]))
    # Per-(source, destination) traffic really does change.
    assert len(payloads) >= 4
    assert all(h == history[0] for h in history), history
