"""Auto-tuning planner: profile -> fit cost models -> search the space.

The repo exposes many orthogonal knobs — scheduler policy, all-to-all
algorithm, compressor, partition degree ``r``, capacity factor — and a
cached sweep runner, but until now a human read sweep output to pick
the winning combination.  This module closes that loop the way
FSMoE-style systems do: run a *small seeded set of probe measurements*
through the existing :class:`~repro.core.profiler.Profiler` machinery,
fit alpha-beta link parameters and a GEMM roofline from them
(:func:`~repro.cluster.costmodel.fit_link_model` /
:func:`~repro.cluster.costmodel.fit_gemm_roofline`), then score the
*entire* joint configuration space against the fitted models — which
is pure arithmetic, no event-engine simulation — and validate only the
top-K analytic candidates with real :func:`~repro.systems.sweep.run_sweep`
simulations that land in the shared :class:`~repro.systems.sweep.SweepCache`.

Three stages, three artefacts:

1. **calibrate** — :class:`Calibration`: per-(a2a, codec) affine A2A
   models fitted in wire-byte space (plus the equivalent fitted
   :class:`~repro.cluster.costmodel.LinkModel` view), per-codec
   compress/decompress models, and a fitted GEMM roofline.  ``budget``
   caps the number of probe measurements.
2. **search** — every candidate of the :class:`PlanSpace` is priced by
   running the unchanged
   :func:`~repro.core.system.simulate_model_step` with a
   :class:`FittedProfiler` (predictions instead of measurements), so
   scheduling, memory accounting and OOM pruning stay bit-faithful to
   the real simulator's logic; only the task *durations* are modeled.
3. **report** — :class:`PlanReport`: the recommended
   :class:`~repro.core.system.SystemPolicy` + layer config with
   predicted-vs-measured step time for every validated candidate, and
   (optionally) the regret against the exhaustive sweep of the same
   grid.  ``PlanReport.to_json()`` is byte-deterministic for a given
   (workload, cluster, space, seed, budget, top_k).

Everything is deterministic: probe sizes come from a seeded generator,
fits are least squares, ranking breaks ties lexicographically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.costmodel import (
    GpuModel,
    LinkModel,
    ffn_forward_flops,
    fit_alpha_beta,
    fit_gemm_roofline,
    fit_link_model,
)
from ..cluster.topology import ClusterSpec
from ..collectives.base import get_a2a
from ..compression.base import get_compressor
from ..core.profiler import LinearPerfModel, Profiler
from ..core.scheduler import get_scheduler
from ..core.system import StepBreakdown, SystemPolicy, simulate_model_step
from ..models.configs import MoEModelConfig
from .sweep import SweepCache, SweepTask, run_sweep, task_key

__all__ = [
    "Calibration",
    "FittedProfiler",
    "PlanCandidate",
    "PlanReport",
    "PlanSpace",
    "calibrate",
    "plan",
]

#: Default probe points per (a2a, codec) pair / for the GEMM curve.
DEFAULT_A2A_PROBES = 5
DEFAULT_GEMM_PROBES = 5
#: A fit needs at least two points.
MIN_PROBES = 2


# -- the joint configuration space -------------------------------------------


@dataclass(frozen=True)
class PlanSpace:
    """The joint knob space the planner searches.

    Every entry must name a registered scheduler / A2A algorithm /
    compressor; the numerical-substrate knobs (``expert_impl``,
    ``dispatch_mode``, ``pipeline``) are not part of the analytic
    search — the hot-path benchmarks show one dominant choice
    (grouped + sparse, overlap iff r > 1), which the report derives
    from the winning partition degree (see :func:`layer_recommendation`).
    """

    schedulers: Tuple[str, ...] = ("sequential", "chunk-pipeline", "optsche")
    a2a_algorithms: Tuple[str, ...] = ("nccl", "pipe")
    compressors: Tuple[str, ...] = ("none", "zfp")
    partition_degrees: Tuple[int, ...] = (1, 2, 4, 8)
    capacity_factors: Tuple[float, ...] = (1.0, 1.2)

    def __post_init__(self) -> None:
        for name, values in (
            ("schedulers", self.schedulers),
            ("a2a_algorithms", self.a2a_algorithms),
            ("compressors", self.compressors),
            ("partition_degrees", self.partition_degrees),
            ("capacity_factors", self.capacity_factors),
        ):
            if not values:
                raise ValueError(f"PlanSpace.{name} must not be empty")
        if any(r < 1 for r in self.partition_degrees):
            raise ValueError("partition degrees must be >= 1")
        if any(f <= 0 for f in self.capacity_factors):
            raise ValueError("capacity factors must be positive")

    def validate_registries(self) -> None:
        """Resolve every name once, so typos fail before probing."""
        for name in self.schedulers:
            get_scheduler(name)
        for name in self.a2a_algorithms:
            get_a2a(name)
        for name in self.compressors:
            get_compressor(name)

    @property
    def size(self) -> int:
        return (
            len(self.schedulers)
            * len(self.a2a_algorithms)
            * len(self.compressors)
            * len(self.partition_degrees)
            * len(self.capacity_factors)
        )

    @property
    def pairs(self) -> List[Tuple[str, str]]:
        """All (a2a, codec) pairs needing a fitted communication model."""
        return [
            (a, c) for a in self.a2a_algorithms for c in self.compressors
        ]

    def candidates(self) -> List["PlanCandidate"]:
        """Every point of the joint space, in deterministic order."""
        return [
            PlanCandidate(s, a, c, r, f)
            for s in self.schedulers
            for a in self.a2a_algorithms
            for c in self.compressors
            for r in self.partition_degrees
            for f in self.capacity_factors
        ]

    def tasks(self, cfg: MoEModelConfig) -> List[SweepTask]:
        """The exhaustive sweep over this space (regret baseline)."""
        return [cand.task(cfg) for cand in self.candidates()]

    def to_dict(self) -> dict:
        return {
            "schedulers": list(self.schedulers),
            "a2a_algorithms": list(self.a2a_algorithms),
            "compressors": list(self.compressors),
            "partition_degrees": list(self.partition_degrees),
            "capacity_factors": list(self.capacity_factors),
        }


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the joint space: a policy plus a capacity factor."""

    scheduler: str
    a2a: str
    compressor: str
    partitions: int
    capacity_factor: float

    @property
    def label(self) -> str:
        return (
            f"{self.scheduler}+{self.a2a}+{self.compressor}"
            f"+r{self.partitions}+f{self.capacity_factor:g}"
        )

    def policy(self) -> SystemPolicy:
        """The candidate as an explicit-degree system policy."""
        return SystemPolicy(
            name=f"plan[{self.label}]",
            compressor=self.compressor,
            a2a=self.a2a,
            scheduler=self.scheduler,
            partitions=self.partitions,
        )

    def config(self, base: MoEModelConfig) -> MoEModelConfig:
        """``base`` at this candidate's capacity factor."""
        if base.capacity_factor == self.capacity_factor:
            return base
        return replace(base, capacity_factor=self.capacity_factor)

    def task(self, base: MoEModelConfig) -> SweepTask:
        return SweepTask(self.config(base), self.policy())

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "a2a": self.a2a,
            "compressor": self.compressor,
            "partitions": self.partitions,
            "capacity_factor": self.capacity_factor,
        }


def layer_recommendation(partitions: int) -> dict:
    """Numerical-substrate knobs implied by the winning degree.

    ``grouped`` + ``sparse`` is the layer's one production path (the
    ``MoELayer`` settings); ``pipeline`` and ``num_chunks`` are
    :class:`~repro.moe.parallel.ExpertParallelGroup` settings —
    pipelined overlap only exists for r > 1, and the chunk count
    mirrors the timing substrate's partition degree.
    """
    return {
        "expert_impl": "grouped",
        "dispatch_mode": "sparse",
        "pipeline": "overlap" if partitions > 1 else "sync",
        "num_chunks": partitions,
    }


# -- stage 1: calibration ----------------------------------------------------


@dataclass
class Calibration:
    """Fitted cost models recovered from the probe measurements."""

    #: (a2a, codec) -> affine seconds-vs-wire-bytes model.
    a2a_models: Dict[Tuple[str, str], LinearPerfModel]
    #: (a2a, codec) -> the same fit in LinkModel (alpha-beta) form.
    fitted_links: Dict[Tuple[str, str], LinkModel]
    #: (a2a, codec) -> smallest probed wire size that OOM'd (inf: none).
    a2a_oom_wire_bytes: Dict[Tuple[str, str], float]
    #: codec -> (compress, decompress) seconds-vs-raw-bytes models.
    codec_models: Dict[str, Tuple[LinearPerfModel, LinearPerfModel]]
    #: Fitted GEMM roofline (GpuModel form) and its affine view.
    gemm: GpuModel
    gemm_model: LinearPerfModel
    #: Probe schedule actually used.
    probe_raw_bytes: Tuple[float, ...]
    probe_tokens: Tuple[int, ...]
    #: Measurements charged against the budget (A2A runs + GEMM points).
    num_probes: int

    def to_dict(self) -> dict:
        """Deterministic JSON view (tuple keys become ``a2a+codec``)."""
        return {
            "a2a": {
                f"{a}+{c}": {
                    "alpha_s": m.alpha,
                    "beta_s_per_byte": m.beta,
                    "fitted_latency_s": self.fitted_links[(a, c)].latency_s,
                    "fitted_bandwidth_bps": self.fitted_links[
                        (a, c)
                    ].bandwidth_bps,
                    "oom_wire_bytes": self.a2a_oom_wire_bytes[(a, c)],
                }
                for (a, c), m in sorted(self.a2a_models.items())
            },
            "codecs": {
                name: {
                    "compress_alpha_s": comp.alpha,
                    "compress_beta_s_per_byte": comp.beta,
                    "decompress_alpha_s": dec.alpha,
                    "decompress_beta_s_per_byte": dec.beta,
                }
                for name, (comp, dec) in sorted(self.codec_models.items())
            },
            "gemm": {
                "alpha_s": self.gemm_model.alpha,
                "beta_s_per_flop": self.gemm_model.beta,
                "effective_flops": self.gemm.peak_flops,
                "launch_s": self.gemm.kernel_launch_s,
            },
            "probe_raw_bytes": list(self.probe_raw_bytes),
            "probe_tokens": list(self.probe_tokens),
            "num_probes": self.num_probes,
        }


def _probe_counts(
    space: PlanSpace, budget: Optional[int]
) -> Tuple[int, int]:
    """-> (probes per (a2a, codec) pair, GEMM probes) under ``budget``."""
    pairs = len(space.pairs)
    per_pair, gemm = DEFAULT_A2A_PROBES, DEFAULT_GEMM_PROBES
    if budget is None:
        return per_pair, gemm
    floor = pairs * MIN_PROBES + MIN_PROBES
    if budget < floor:
        raise ValueError(
            f"budget={budget} is too small: calibrating {pairs} "
            f"(a2a, codec) pairs plus the GEMM curve needs at least "
            f"{floor} probes"
        )
    while pairs * per_pair + gemm > budget:
        if per_pair > MIN_PROBES:
            per_pair -= 1
        else:
            gemm -= 1
    return per_pair, gemm


def _probe_raw_sizes(
    cfg: MoEModelConfig,
    space: PlanSpace,
    count: int,
    rng: np.random.Generator,
) -> List[float]:
    """Seeded raw-payload probe sizes spanning the search's chunk range."""
    payloads = [
        replace(cfg, capacity_factor=f).a2a_bytes
        for f in space.capacity_factors
    ]
    lo = max(1.0, min(payloads) / max(space.partition_degrees))
    hi = max(max(payloads), lo * 1.01)
    base = np.geomspace(lo, hi, count)
    jitter = rng.uniform(0.85, 1.15, size=count)
    return sorted(float(s) for s in base * jitter)


def _probe_token_counts(
    cfg: MoEModelConfig,
    space: PlanSpace,
    count: int,
    rng: np.random.Generator,
) -> List[int]:
    """Seeded expert-token probe counts spanning the per-chunk range."""
    totals = [
        replace(cfg, capacity_factor=f).capacity * cfg.num_experts
        for f in space.capacity_factors
    ]
    lo = max(1, min(totals) // max(space.partition_degrees))
    hi = max(max(totals), lo + 1)
    base = np.geomspace(lo, hi, count)
    jitter = rng.uniform(0.9, 1.1, size=count)
    tokens = sorted({max(1, int(round(t))) for t in base * jitter})
    # De-duplication may shrink tiny ranges below `count`; that is
    # fine — the fit needs two distinct points, which hi > lo ensures.
    return tokens


def calibrate(
    cfg: MoEModelConfig,
    spec: ClusterSpec,
    space: Optional[PlanSpace] = None,
    seed: int = 0,
    budget: Optional[int] = None,
) -> Calibration:
    """Stage 1: run the seeded probe set and fit every cost model.

    Probes run through the existing :class:`Profiler` machinery — real
    :func:`~repro.collectives.base.measure_a2a` event simulations for
    the A2A curve, the codec and GPU cost models for the rest — at
    sizes drawn deterministically from ``seed`` around the payload and
    token ranges the search will actually query.  ``budget`` caps the
    number of measurements (A2A probes across all pairs + GEMM
    probes); pairs whose probes OOM everywhere simply get no model and
    are pruned from the search.
    """
    space = space or PlanSpace()
    space.validate_registries()
    rng = np.random.default_rng(seed)
    per_pair, gemm_count = _probe_counts(space, budget)
    raw_sizes = _probe_raw_sizes(cfg, space, per_pair, rng)
    token_counts = _probe_token_counts(cfg, space, gemm_count, rng)

    a2a_models: Dict[Tuple[str, str], LinearPerfModel] = {}
    fitted_links: Dict[Tuple[str, str], LinkModel] = {}
    oom_wire: Dict[Tuple[str, str], float] = {}
    codec_models: Dict[str, Tuple[LinearPerfModel, LinearPerfModel]] = {}
    num_probes = 0

    for a2a_name, codec_name in space.pairs:
        profiler = Profiler(
            spec, a2a=get_a2a(a2a_name), compressor=get_compressor(codec_name)
        )
        codec = profiler.compressor
        wire_sizes = [codec.compressed_bytes(s) for s in raw_sizes]
        points = profiler.probe_a2a(wire_sizes)
        num_probes += profiler.a2a_measurements
        finite = [(s, t) for s, t in points if np.isfinite(t)]
        oom_sizes = [s for s, t in points if not np.isfinite(t)]
        oom_wire[(a2a_name, codec_name)] = (
            min(oom_sizes) if oom_sizes else float("inf")
        )
        if len(finite) >= MIN_PROBES:
            sizes = [s for s, _ in finite]
            times = [t for _, t in finite]
            try:
                link = fit_link_model(
                    sizes, times, name=f"fit[{a2a_name}+{codec_name}]"
                )
            except ValueError:
                continue  # degenerate fit: prune the pair
            alpha, beta = fit_alpha_beta(sizes, times)
            a2a_models[(a2a_name, codec_name)] = LinearPerfModel(
                alpha=alpha, beta=beta
            )
            fitted_links[(a2a_name, codec_name)] = link
        if codec_name not in codec_models:
            comp, dec = profiler.probe_codec(raw_sizes)
            codec_models[codec_name] = (
                LinearPerfModel(*fit_alpha_beta(*zip(*comp))),
                LinearPerfModel(*fit_alpha_beta(*zip(*dec))),
            )

    gemm_profiler = Profiler(
        spec,
        a2a=get_a2a(space.a2a_algorithms[0]),
        compressor=get_compressor("none"),
    )
    gemm_points = gemm_profiler.probe_expert(
        token_counts, cfg.model_dim, cfg.hidden_dim
    )
    num_probes += len(gemm_points)
    flops = [f for f, _ in gemm_points]
    times = [t for _, t in gemm_points]
    gemm = fit_gemm_roofline(flops, times, name=f"fit[{spec.gpu.name}]")
    gemm_model = LinearPerfModel(*fit_alpha_beta(flops, times))

    return Calibration(
        a2a_models=a2a_models,
        fitted_links=fitted_links,
        a2a_oom_wire_bytes=oom_wire,
        codec_models=codec_models,
        gemm=gemm,
        gemm_model=gemm_model,
        probe_raw_bytes=tuple(raw_sizes),
        probe_tokens=tuple(token_counts),
        num_probes=num_probes,
    )


# -- stage 2: analytic search ------------------------------------------------


class FittedProfiler(Profiler):
    """A :class:`Profiler` answering from fitted models, not the engine.

    Drop-in for :func:`simulate_model_step`: the schedule construction,
    memory accounting and OOM logic run unchanged; only the four task
    measurements are replaced by predictions, which turns one step
    simulation from an event-engine run into a handful of multiplies.
    A pair with no fitted model (all probes OOM'd) predicts ``inf``,
    as does any wire size at or beyond the pair's observed OOM
    boundary — the analytic estimate inherits the feasibility cliff.
    """

    def __init__(self, spec, a2a, compressor, calibration: Calibration):
        super().__init__(spec, a2a, compressor)
        self._calibration = calibration
        self._pair = (a2a.name, compressor.name)

    def measure_a2a_seconds(self, wire_bytes: float) -> float:
        calib = self._calibration
        model = calib.a2a_models.get(self._pair)
        if model is None:
            return float("inf")
        if wire_bytes >= calib.a2a_oom_wire_bytes.get(
            self._pair, float("inf")
        ):
            return float("inf")
        return model.predict(wire_bytes)

    def compress_seconds(self, raw_bytes: float) -> float:
        return self._calibration.codec_models[self.compressor.name][
            0
        ].predict(raw_bytes)

    def decompress_seconds(self, raw_bytes: float) -> float:
        return self._calibration.codec_models[self.compressor.name][
            1
        ].predict(raw_bytes)

    def expert_seconds(
        self, tokens: int, model_dim: int, hidden_dim: int
    ) -> float:
        flops = ffn_forward_flops(tokens, model_dim, hidden_dim)
        return self._calibration.gemm.gemm_time(flops)


def predict_step(
    cand: PlanCandidate,
    cfg: MoEModelConfig,
    spec: ClusterSpec,
    calibration: Calibration,
) -> StepBreakdown:
    """Analytic step-time estimate of one candidate (no event engine)."""
    policy = cand.policy()
    profiler = FittedProfiler(
        spec,
        a2a=get_a2a(policy.a2a),
        compressor=get_compressor(policy.compressor),
        calibration=calibration,
    )
    return simulate_model_step(
        cand.config(cfg), spec, policy, profiler=profiler
    )


# -- stage 3: validate + report ----------------------------------------------


@dataclass
class PlanReport:
    """The planner's full output; ``to_json()`` is byte-deterministic."""

    workload: str
    cluster: str
    seed: int
    budget: Optional[int]
    top_k: int
    space: PlanSpace
    calibration: Calibration
    #: All candidates with a finite analytic estimate, best first.
    scored: int
    #: Candidates validated with real simulations (== len(validated)).
    simulated: int
    recommended: PlanCandidate
    predicted_s: float
    measured_s: float
    validated: List[dict] = field(default_factory=list)
    #: Regret vs the exhaustive sweep (None unless requested).
    regret: Optional[dict] = None
    #: Validation simulations already present in the shared cache.
    #: Runtime-dependent, so it is *excluded* from the canonical JSON
    #: (the report must be byte-identical across reruns).
    cache_hits: int = 0

    @property
    def prediction_error_pct(self) -> float:
        """Signed analytic-vs-simulated error of the recommendation."""
        return (self.predicted_s - self.measured_s) / self.measured_s * 100.0

    def recommendation(self) -> dict:
        """The deployable config: policy knobs + layer knobs."""
        rec = self.recommended.to_dict()
        rec["layer"] = layer_recommendation(self.recommended.partitions)
        return rec

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "cluster": self.cluster,
            "seed": self.seed,
            "budget": self.budget,
            "top_k": self.top_k,
            "space": self.space.to_dict(),
            "space_size": self.space.size,
            "calibration": self.calibration.to_dict(),
            "scored": self.scored,
            "simulated": self.simulated,
            "recommendation": self.recommendation(),
            "predicted_s": self.predicted_s,
            "measured_s": self.measured_s,
            "prediction_error_pct": self.prediction_error_pct,
            "validated": self.validated,
            "regret": self.regret,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self) -> List[str]:
        """Human-readable digest (CLI + bench rendering)."""
        rec = self.recommended
        layer = layer_recommendation(rec.partitions)
        lines = [
            f"workload {self.workload} on {self.cluster}",
            f"probes: {self.calibration.num_probes}"
            + (f" (budget {self.budget})" if self.budget else ""),
            f"space: {self.space.size} configurations, "
            f"{self.scored} analytically feasible, "
            f"{self.simulated} simulated for validation",
            f"recommendation: scheduler={rec.scheduler} a2a={rec.a2a} "
            f"codec={rec.compressor} r={rec.partitions} "
            f"capacity_factor={rec.capacity_factor:g}",
            f"  layer: expert_impl={layer['expert_impl']} "
            f"dispatch_mode={layer['dispatch_mode']} "
            f"pipeline={layer['pipeline']} "
            f"num_chunks={layer['num_chunks']}",
            f"predicted {self.predicted_s * 1e3:.2f} ms, simulated "
            f"{self.measured_s * 1e3:.2f} ms "
            f"({self.prediction_error_pct:+.1f}% analytic error)",
        ]
        if self.regret is not None:
            lines.append(
                f"regret vs exhaustive sweep "
                f"({self.regret['exhaustive_simulated']} configs): "
                f"{self.regret['regret_pct']:+.2f}% "
                f"(optimum {self.regret['best_label']}, "
                f"{self.regret['best_s'] * 1e3:.2f} ms)"
            )
        return lines


def plan(
    cfg: MoEModelConfig,
    spec: ClusterSpec,
    space: Optional[PlanSpace] = None,
    seed: int = 0,
    budget: Optional[int] = None,
    top_k: int = 8,
    cache_path=None,
    processes: Optional[int] = None,
    regret: bool = False,
) -> PlanReport:
    """Run all three planner stages and return the report.

    ``cache_path`` names the shared sweep cache the validation (and
    the optional exhaustive regret sweep) lands in; ``top_k`` bounds
    how many candidates are simulated for real — strictly fewer than
    the exhaustive sweep whenever ``top_k < space.size``.  ``regret=True``
    additionally runs the exhaustive sweep over the same grid and
    reports the recommendation's regret against its optimum.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    space = space or PlanSpace()
    calibration = calibrate(cfg, spec, space, seed=seed, budget=budget)

    candidates = space.candidates()
    estimates = [
        (cand, predict_step(cand, cfg, spec, calibration))
        for cand in candidates
    ]
    feasible = [
        (cand, est)
        for cand, est in estimates
        if not est.oom and np.isfinite(est.total_s)
    ]
    if not feasible:
        raise RuntimeError(
            "planner found no feasible candidate: every configuration "
            "in the space OOMs under the fitted models"
        )
    feasible.sort(key=lambda pair: (pair[1].total_s, pair[0].label))
    top = feasible[: min(top_k, len(feasible))]

    tasks = [cand.task(cfg) for cand, _ in top]
    cache_hits = 0
    if cache_path is not None:
        cache = SweepCache(cache_path)
        cache_hits = sum(
            1 for t in tasks if cache.get(task_key(t, spec)) is not None
        )
    results = run_sweep(
        tasks, spec, cache_path=cache_path, processes=processes
    )

    validated = []
    best: Optional[Tuple[PlanCandidate, float, float]] = None
    for (cand, est), measured in zip(top, results):
        entry = {
            "candidate": cand.to_dict(),
            "label": cand.label,
            "predicted_s": est.total_s,
            "measured_s": measured.total_s,
            "oom": measured.oom,
        }
        validated.append(entry)
        if measured.oom or not np.isfinite(measured.total_s):
            continue
        if best is None or (measured.total_s, cand.label) < (
            best[2],
            best[0].label,
        ):
            best = (cand, est.total_s, measured.total_s)
    if best is None:
        raise RuntimeError(
            "planner validation failed: every top-K candidate OOM'd in "
            "the real simulator — the analytic estimate missed a "
            "feasibility cliff; widen top_k or the probe budget"
        )

    regret_info = None
    if regret:
        exhaustive = run_sweep(
            space.tasks(cfg), spec, cache_path=cache_path, processes=processes
        )
        finite = [
            (r.total_s, cand.label)
            for cand, r in zip(candidates, exhaustive)
            if not r.oom and np.isfinite(r.total_s)
        ]
        best_s, best_label = min(finite)
        regret_info = {
            "exhaustive_simulated": space.size,
            "best_s": best_s,
            "best_label": best_label,
            "regret_pct": (best[2] - best_s) / best_s * 100.0,
        }

    return PlanReport(
        workload=cfg.name,
        cluster=spec.name,
        seed=seed,
        budget=budget,
        top_k=top_k,
        space=space,
        calibration=calibration,
        scored=len(feasible),
        simulated=len(tasks),
        recommended=best[0],
        predicted_s=best[1],
        measured_s=best[2],
        validated=validated,
        regret=regret_info,
        cache_hits=cache_hits,
    )
