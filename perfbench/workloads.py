"""The benchmark's four workloads.

Each workload is a class built from the workload seed.  Building it
is the set-up (model, optimizer and corpus, or cluster and config);
:meth:`op` runs one operation of the closed loop; :meth:`checks`
verifies the outputs after the timed loop; :meth:`quality` gives the
workload's deterministic result figures (loss, planned step time).
The model under test is fixed (weights from :data:`MODEL_SEED`, the
corpus's default Markov chains); the workload seed draws the inputs
fed to it — token batches, Gaussian shards, planner probes — and the
program only ever sees those generated inputs.  Varying the weights
with the seed would change routing skew, and with it the amount of
expert work, from seed to seed.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.presets import paper_testbed
from repro.collectives import get_a2a
from repro.compression import get_compressor
from repro.core.model_executor import ModelExecutor
from repro.data.synthetic_lm import LMConfig, SyntheticLM
from repro.models.configs import bert_large_moe, ct_moe
from repro.models.gpt2_tiny import TransformerLM
from repro.moe import MoELayer, default_dispatch_mode, default_expert_impl
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import optim
from repro.systems import planner

#: Recorded ``sim_plan`` results per seed (see :class:`SimPlan`).
RECORDED_PLANS = Path(__file__).with_name("recorded_sim_plan.json")

#: Seed of the fixed weights of every model the workloads run.
MODEL_SEED = 0

#: The repository's parity tolerance for default path vs. oracle.
PARITY_RTOL, PARITY_ATOL = 1e-5, 1e-6

Check = Tuple[str, bool]


def _corpus() -> SyntheticLM:
    # 508 words + 4 topic tokens + 4 specials: vocab 516.
    return SyntheticLM(LMConfig(num_words=508, seq_len=128))


def _lm(vocab_size: int) -> TransformerLM:
    """The ROADMAP seed profile, on the default MoE path."""
    return TransformerLM(
        vocab_size,
        model_dim=256,
        hidden_dim=512,
        num_layers=4,
        num_heads=4,
        max_seq_len=128,
        moe=True,
        num_experts=16,
        top_k=2,
        capacity_factor=2.0,
        seed=MODEL_SEED,
    )


class LMTrain:
    """One ``train_lm`` step per operation on a streamed corpus batch."""

    batch = 8
    tokens_per_op = batch * 128
    #: The loss is the mean over these steps (warm-up step = 0), so it
    #: does not depend on how many steps fit in the run.
    loss_steps = slice(16, 24)
    min_ops = 24
    tail_pct = 65

    def __init__(self, seed: int):
        self.corpus = _corpus()
        self.model = _lm(self.corpus.vocab_size)
        self.optimizer = optim.Adam(self.model.parameters(), lr=3e-3)
        self.batches = self.corpus.batches(self.batch, 10**9, seed=seed)
        self.losses: List[float] = []
        self.first_batch = None

    def op(self) -> bool:
        tokens = next(self.batches)
        if self.first_batch is None:
            self.first_batch = tokens
        self.optimizer.zero_grad()
        loss = self.model.loss(tokens)
        loss.backward()
        optim.clip_grad_norm(self.model.parameters(), 1.0)
        self.optimizer.step()
        value = float(loss.data)
        self.losses.append(value)
        return math.isfinite(value)

    def checks(self) -> List[Check]:
        """First batch: default path == recorded step, ~= dense+loop oracle."""
        fresh = _lm(self.corpus.vocab_size)
        default = float(fresh.loss(self.first_batch).data)
        with default_dispatch_mode("dense"), default_expert_impl("loop"):
            oracle_model = _lm(self.corpus.vocab_size)
        oracle = float(oracle_model.loss(self.first_batch).data)
        return [
            ("first_step_loss_reproduces", default == self.losses[0]),
            (
                "default_path_matches_dense_loop_oracle",
                abs(default - oracle) <= PARITY_ATOL + PARITY_RTOL * abs(oracle),
            ),
        ]

    def quality(self) -> Dict[str, float]:
        window = self.losses[self.loss_steps]
        return {"loss": float(np.mean(window))}


class LMInfer:
    """``perplexity_loss_inference`` on one distinct corpus batch per op.

    Batches stream from the corpus and are never repeated or shrunk:
    the arena's pool grows per new shape, and that growth must stay
    visible in ``peak_rss_mb`` and ``tokens_per_s``.
    """

    batch = 16
    tokens_per_op = batch * 128
    nll_batches = slice(1, 17)
    min_ops = 16
    tail_pct = 83

    def __init__(self, seed: int):
        corpus = _corpus()
        self.model = _lm(corpus.vocab_size)
        self.model.eval()
        self.batches = corpus.batches(self.batch, 10**9, seed=seed)
        self.nlls: List[float] = []
        self.last = None

    def op(self) -> bool:
        self.last = next(self.batches)
        nll = self.model.perplexity_loss_inference(self.last)
        self.nlls.append(nll)
        return math.isfinite(nll)

    def checks(self) -> List[Check]:
        """forward_inference logits == the tape forward's, bit for bit."""
        inputs = self.last[:, :-1]
        fast = self.model.forward_inference(inputs).data.copy()
        tape = self.model.forward(inputs).data
        return [("inference_matches_tape_forward", np.array_equal(fast, tape))]

    def quality(self) -> Dict[str, float]:
        return {"loss": float(np.mean(self.nlls[self.nll_batches]))}


class EPOverlap:
    """One overlapped ``ExpertParallelGroup.forward`` per operation."""

    workers = 4
    tokens_per_worker = 1024
    tokens_per_op = workers * tokens_per_worker
    model_dim = 256
    min_ops = 10
    tail_pct = 89

    def __init__(self, seed: int):
        self.layer = MoELayer(
            self.model_dim,
            512,
            16,
            np.random.default_rng(MODEL_SEED),
            top_k=2,
            capacity_factor=2.0,
            compressor=get_compressor("zfp"),
        )
        self.group = self._group("overlap")
        self.inputs = np.random.default_rng(seed)
        self.last = None

    def _group(self, pipeline: str) -> ExpertParallelGroup:
        # link_bandwidth=None: no modelled wire sleeps, only real work.
        return ExpertParallelGroup(
            self.layer,
            self.workers,
            pipeline=pipeline,
            num_chunks=4,
            scheduler="optsche",
        )

    def op(self) -> bool:
        shards = [
            self.inputs.standard_normal(
                (self.tokens_per_worker, self.model_dim), dtype=np.float32
            )
            for _ in range(self.workers)
        ]
        self.last = (shards, self.group.forward(shards))
        return True

    def checks(self) -> List[Check]:
        """The overlap output == the same group's sync output, bit for bit."""
        shards, outputs = self.last
        reference = self._group("sync").forward(shards)
        return [
            (
                "overlap_matches_sync",
                all(np.array_equal(a, b) for a, b in zip(outputs, reference)),
            ),
            ("outputs_finite", all(np.isfinite(o).all() for o in outputs)),
        ]

    def quality(self) -> Dict[str, float]:
        return {}


class SimPlan:
    """One planner run plus one simulated execution of its choice.

    The planner searches CT-MoE-12 on the paper's testbed; its
    recommended scheduler, A2A, codec and partition degree then drive
    an event-level execution of a two-layer BERT-Large-MoE.
    """

    min_ops = 3
    #: Too few operations fit in a run for any percentile to have ten
    #: samples beyond it; the tail is the slowest operation.
    tail_pct = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = paper_testbed()
        self.plan_cfg = ct_moe(12)
        self.exec_cfg = bert_large_moe().with_layers(2)
        # Tokens of one global step of each model the job evaluates.
        self.tokens_per_op = (
            self.plan_cfg.tokens_per_gpu + self.exec_cfg.tokens_per_gpu
        ) * self.spec.world_size
        self.results: List[Tuple[str, float, float]] = []

    def op(self) -> bool:
        report = planner.plan(
            self.plan_cfg, self.spec, seed=self.seed, processes=1,
            cache_path=None,
        )
        chosen = report.recommended
        executor = ModelExecutor(
            self.spec,
            get_a2a(chosen.a2a),
            get_compressor(chosen.compressor),
            partitions=chosen.partitions,
        )
        makespan = executor.run(self.exec_cfg, mode="chunked").makespan
        self.results.append((chosen.label, report.measured_s, makespan))
        return math.isfinite(report.measured_s) and math.isfinite(makespan)

    def checks(self) -> List[Check]:
        """Every job agrees exactly, and with the recorded values."""
        first = self.results[0]
        checks = [("ops_agree_exactly", all(r == first for r in self.results))]
        with open(RECORDED_PLANS) as fh:
            entry = json.load(fh).get(str(self.seed))
        if entry is not None:
            recorded = (entry["label"], entry["plan_step_s"], entry["makespan_s"])
            checks.append(("matches_recorded_plan", first == recorded))
        return checks

    def quality(self) -> Dict[str, object]:
        label, plan_step_s, makespan = self.results[0]
        return {
            "plan_step_s": plan_step_s,
            "makespan_s": makespan,
            "recommended": label,
        }


WORKLOADS = {
    "lm_train": LMTrain,
    "lm_infer": LMInfer,
    "ep_overlap": EPOverlap,
    "sim_plan": SimPlan,
}
