"""The fast training-step kernels change no bit of a real training run.

A small MoE ``TransformerLM`` trains for a few full steps (zero_grad,
loss, backward, clip, Adam) twice: on the production kernels, and with
the former ``np.add.at`` row scatter, whole-array ``Adam.step``,
unfused expert FFN (gathered per-row biases plus separate adds) and
``np.where`` ReLU patched back in from :mod:`.step_oracle`.  Every
parameter must come out byte-identical.
"""

import numpy as np

import repro.moe.parallel
import repro.nn.functional
import repro.nn.tensor
from repro.models import TransformerLM
from repro.moe.experts import Experts
from repro.nn import Adam, clip_grad_norm
from repro.nn.optim import _ADAM_BLOCK

from . import step_oracle

VOCAB = 97
STEPS = 3


def _train(tokens):
    model = TransformerLM(
        vocab_size=VOCAB, model_dim=64, hidden_dim=288, num_layers=2,
        num_heads=4, max_seq_len=32, moe=True, num_experts=4, top_k=2,
        capacity_factor=2.0, seed=3,
    )
    # The expert banks span more than one Adam block.
    assert max(p.data.size for p in model.parameters()) > _ADAM_BLOCK
    optimizer = Adam(model.parameters(), lr=3e-3, weight_decay=0.01)
    model.train()
    for batch in tokens:
        optimizer.zero_grad()
        loss = model.loss(batch)
        loss.backward()
        clip_grad_norm(model.parameters(), 0.5)
        optimizer.step()
    return [p.data.copy() for p in model.parameters()]


def test_train_steps_match_add_at_and_whole_array_adam(monkeypatch):
    rng = np.random.default_rng(7)
    tokens = [rng.integers(0, VOCAB, size=(4, 17)) for _ in range(STEPS)]
    fast = _train(tokens)

    calls = []

    def counted_add_at(out, idx, values):
        calls.append(idx.size)
        step_oracle.add_at_rows(out, idx, values)

    for module in (repro.nn.tensor, repro.nn.functional, repro.moe.parallel):
        monkeypatch.setattr(module, "add_rows_at", counted_add_at)
    monkeypatch.setattr(Adam, "step", step_oracle.whole_array_adam_step)
    unfused = []

    def counted_run_grouped(self, rows, segment_counts):
        unfused.append(rows.shape[0])
        return step_oracle.unfused_run_grouped(self, rows, segment_counts)

    monkeypatch.setattr(Experts, "run_grouped", counted_run_grouped)
    monkeypatch.setattr(repro.nn.functional, "relu", step_oracle.where_relu)
    reference = _train(tokens)

    assert calls, "the oracle scatter was never reached"
    assert unfused, "the unfused expert FFN was never reached"
    assert len(fast) == len(reference)
    for got, want in zip(fast, reference):
        assert got.tobytes() == want.tobytes()
