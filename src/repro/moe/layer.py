"""The MoE layer: gate -> dispatch -> (A2A) -> experts -> (A2A) -> combine.

This is the *numerical* MoE layer used by models and convergence
experiments.  Timing of its distributed execution lives in
:mod:`repro.core` / :mod:`repro.systems`; here the dispatch and
combine all-to-alls appear as their mathematical effect plus an
optional compressor roundtrip — the payload of each A2A is compressed
before transport and decompressed after, so a lossy codec corrupts
exactly the values it corrupts in the real system (paper Section 6.2).

The codec is applied to *both* directions, as in the real system: the
forward A2A ships compressed activations and the corresponding
backward A2A ships compressed gradients (the wire is the wire).  The
transformation itself is not differentiated — the error acts as noise
on values and on gradients, which is why coarse per-tensor INT8
measurably hurts convergence (gradients have wide dynamic range)
while block-scaled ZFP does not (paper Table 6 and the gradient
discussion in Section 7).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

from ..compression.base import Compressor
from ..nn.modules import Module
from ..nn.tensor import Tensor, is_inference
from .dispatch import (
    DISPATCH_MODES,
    combine,
    combine_grouped,
    dispatch,
    dispatch_grouped,
)
from .experts import Experts
from .gating import GateOutput, TopKGate

#: Backend used when ``MoELayer(dispatch_mode=None)`` — see
#: :func:`default_dispatch_mode`.
_default_dispatch_mode = "sparse"


@contextmanager
def default_dispatch_mode(mode: str):
    """Temporarily change the backend new ``MoELayer``s default to.

    Lets experiments that construct models deep inside a stack (e.g.
    the Table 6 convergence study, whose recorded trajectories were
    measured on the dense reference backend) pin a backend without
    threading ``dispatch_mode`` through every constructor.
    """
    global _default_dispatch_mode
    if mode not in DISPATCH_MODES:
        raise ValueError(
            f"unknown dispatch_mode {mode!r}; "
            f"expected one of {DISPATCH_MODES}"
        )
    previous = _default_dispatch_mode
    _default_dispatch_mode = mode
    try:
        yield
    finally:
        _default_dispatch_mode = previous


class MoELayer(Module):
    """Sparsely activated feed-forward layer (paper Fig. 1).

    Parameters mirror the paper's Table 2 notation: ``model_dim`` M,
    ``hidden_dim`` H, ``num_experts`` E, ``top_k`` k and
    ``capacity_factor`` f.

    ``dispatch_mode`` selects the routing backend (``None`` means the
    process default, normally sparse — see
    :func:`default_dispatch_mode`).  ``"sparse"`` is the production
    path and has no capacity dimension: the layer sorts the flat routed
    rows by expert (:func:`~repro.moe.dispatch.dispatch_grouped`), runs
    each expert's contiguous segment through
    :meth:`~repro.moe.experts.Experts.run_segments` and combines
    straight from the flat rows (:func:`~repro.moe.dispatch.
    combine_grouped`) — ``O(N * M)`` in the number of routed
    assignments, forward and backward, whatever the capacity factor.
    ``"dense"`` runs the GShard reference einsums over one-hot
    (T, E, C) masks into an (E, C, M) capacity buffer.  Both accept
    every gate type — top-k emits token-major ``(T, k)`` indices,
    expert-choice flat ``(N,)`` indices — so the dense path is a pure
    reference semantics, never a fallback.

    ``expert_impl`` selects the expert bank's execution strategy
    (:mod:`repro.moe.experts`): ``"grouped"`` (the process default)
    runs segment GEMMs, ``"loop"`` is the per-expert reference loop.
    Expert outputs agree bit-for-bit between the two; combined tokens
    with more than two contributions agree to float-addition
    reassociation (~1e-6) between the sparse and dense backends.
    ``None`` (the default) defers to the ambient process default,
    overridable with :func:`~repro.moe.experts.default_expert_impl`.

    Chunked and overlapped execution of the seven ScheMoE tasks (paper
    Section 4) is :class:`~repro.moe.parallel.ExpertParallelGroup`'s
    job; this layer runs the whole batch as one chunk.
    """

    def __init__(
        self,
        model_dim: int,
        hidden_dim: int,
        num_experts: int,
        rng: np.random.Generator,
        top_k: int = 2,
        capacity_factor: float = 1.0,
        compressor: Optional[Compressor] = None,
        activation: str = "relu",
        gate_noise_std: float = 0.0,
        gate_type: str = "topk",
        dispatch_mode: Optional[str] = None,
        expert_impl: Optional[str] = None,
    ):
        super().__init__()
        if dispatch_mode is None:
            dispatch_mode = _default_dispatch_mode
        if dispatch_mode not in DISPATCH_MODES:
            raise ValueError(
                f"unknown dispatch_mode {dispatch_mode!r}; "
                f"expected one of {DISPATCH_MODES}"
            )
        self.dispatch_mode = dispatch_mode
        self.model_dim = model_dim
        if gate_type == "topk":
            self.gate = TopKGate(
                model_dim,
                num_experts,
                rng,
                top_k=top_k,
                capacity_factor=capacity_factor,
                noise_std=gate_noise_std,
            )
        elif gate_type == "expert-choice":
            from .gating_ec import ExpertChoiceGate

            self.gate = ExpertChoiceGate(
                model_dim,
                num_experts,
                rng,
                capacity_factor=capacity_factor,
                top_k=top_k,
            )
        else:
            raise ValueError(
                f"unknown gate_type {gate_type!r}; "
                "expected 'topk' or 'expert-choice'"
            )
        self.experts = Experts(
            num_experts,
            model_dim,
            hidden_dim,
            rng,
            activation=activation,
            expert_impl=expert_impl,
        )
        self.compressor = compressor
        #: Experts currently considered lost (graceful degradation);
        #: see :meth:`set_dead_experts`.
        self._dead_experts: frozenset = frozenset()
        self._in_forward = False
        #: Auxiliary load-balancing loss of the most recent forward.
        self.last_aux_loss: Optional[Tensor] = None
        #: Gate statistics of the most recent forward.
        self.last_gate_output: Optional[GateOutput] = None
        #: Raw dispatched payload of the most recent forward — the
        #: *pre-compression* input handed to the first A2A's codec
        #: (for fidelity studies; with a lossy compressor the wire
        #: itself carries the codec's compressed encoding).  The flat
        #: (N, M) routed rows sorted by expert under sparse dispatch —
        #: that *is* its wire payload; the (E, C, M) capacity buffer
        #: under dense dispatch.
        self.last_dispatched: Optional[np.ndarray] = None

    @property
    def dead_experts(self) -> frozenset:
        """Experts currently treated as lost (empty when healthy)."""
        return self._dead_experts

    def set_dead_experts(self, dead_experts) -> None:
        """Declare experts lost (e.g. their host worker died mid-run).

        Tokens routed to a dead expert are handled by the layer's
        existing capacity-drop semantics — combined as zeros with the
        surviving experts' weights renormalized
        (:meth:`~repro.moe.gating.GateOutput.with_experts_dropped`) —
        so training continues with bounded loss impact instead of
        crashing.  Pass an empty collection to restore full health;
        with no dead experts the forward path is bit-identical to a
        layer that never heard of faults.  Rejected while a forward is
        in flight (the forward reads routing state without locks).

        Recovering the lost experts instead of degrading — adopting
        them on surviving workers and re-instantiating parameters — is
        :class:`repro.faults.recovery.RecoveryController`'s job.
        """
        if self._in_forward:
            raise RuntimeError(
                "the dead-expert set cannot change while a forward "
                "pass is in flight: the forward is reading it; "
                "mutate the layer only between forwards"
            )
        dead = frozenset(int(e) for e in dead_experts)
        num_experts = self.gate.num_experts
        for e in dead:
            if not 0 <= e < num_experts:
                raise ValueError(
                    f"dead expert {e} out of range [0, {num_experts})"
                )
        if len(dead) == num_experts:
            raise ValueError(
                "all experts declared dead; the layer cannot degrade "
                "around a total loss"
            )
        self._dead_experts = dead

    def _transport(self, x: Tensor) -> Tensor:
        """One A2A hop: codec roundtrip on values and on gradients."""
        if self.compressor is None or self.compressor.bits_per_value >= 32:
            return x
        codec = self.compressor
        corrupted = codec.roundtrip(x.data)

        def backward(g):
            return ((x, codec.roundtrip(g)),)

        if Tensor._needs_grad(x):
            return Tensor(corrupted, _parents=(x,), _backward=backward)
        return Tensor(corrupted)

    def forward(self, x: Tensor) -> Tensor:
        """(B, L, M) or (T, M) in; same shape out."""
        # Mirrors ExpertParallelGroup's in-flight guard: the forward
        # reads routing state, so set_dead_experts mid-forward is a race.
        self._in_forward = True
        try:
            return self._forward_impl(x)
        finally:
            self._in_forward = False

    def _forward_impl(self, x: Tensor) -> Tensor:
        original_shape = x.shape
        if x.ndim == 3:
            tokens = x.reshape(-1, self.model_dim)
        elif x.ndim == 2:
            tokens = x
        else:
            raise ValueError(f"expected 2D or 3D input, got shape {x.shape}")

        gate_out = self.gate(tokens)
        if self._dead_experts:
            gate_out = gate_out.with_experts_dropped(self._dead_experts)
        self.last_gate_output = gate_out
        self.last_aux_loss = gate_out.aux_loss

        if self.dispatch_mode == "sparse" and gate_out.has_sparse:
            # Capacity-free hot path: flat rows sorted by expert, no
            # (E, C, M) buffer on either side of the expert FFNs.
            rows, routing = dispatch_grouped(
                tokens,
                gate_out.expert_indices,
                gate_out.slot_indices,
                gate_out.num_experts,
                token_indices=gate_out.token_indices,
                plan=gate_out.plan,
            )
            # Forward-only steps don't keep the wire payload around for
            # fidelity studies — and must not pin an arena buffer past
            # the next reset.
            self.last_dispatched = None if is_inference() else rows.data
            rows = self._transport(rows)  # first A2A
            expert_rows = self.experts.run_segments(
                rows, routing.segment_counts
            )
            expert_rows = self._transport(expert_rows)  # second A2A
            merged = combine_grouped(
                expert_rows,
                routing,
                gate_out.gate_weights,
                gate_out.num_tokens,
            )
        else:
            dispatched = dispatch(tokens, gate_out.dispatch_mask)
            self.last_dispatched = (
                None if is_inference() else dispatched.data
            )
            dispatched = self._transport(dispatched)  # first A2A
            expert_out = self.experts(
                dispatched, expert_load=gate_out.expert_load
            )
            expert_out = self._transport(expert_out)  # second A2A
            merged = combine(expert_out, gate_out.combine_weights)

        if len(original_shape) == 3:
            return merged.reshape(original_shape)
        return merged

    def forward_inference(self, x: Tensor) -> Tensor:
        """Forward-only hot path (see :meth:`Module.forward_inference`).

        Runs the *same* :meth:`forward` code under ``inference_mode()``
        with the layer's arena installed, so outputs are bit-identical
        to an ``eval()`` training-tape forward while skipping tape
        construction, dense-mask densification, aux-loss bookkeeping
        and ``last_dispatched`` recording.  Requires the sparse
        dispatch backend: the dense reference path exists to check
        gradients and would densify (T, E, C) masks on a path that
        must never materialize them.
        """
        if self.dispatch_mode != "sparse":
            raise RuntimeError(
                "forward_inference requires dispatch_mode='sparse'; "
                f"this layer uses {self.dispatch_mode!r} (the dense "
                "einsum backend is a training-time reference path)"
            )
        return super().forward_inference(x)
