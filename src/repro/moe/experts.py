"""Expert bank: E independent feed-forward networks over stacked weights.

The paper's ``AbsExpert``: experts are ordinary fflayers (two GEMMs),
abstracted so the profiler can time them, the scheduler can split them
into sub-tasks — and so their execution strategy can be swapped.  This
module stores the whole bank as *stacked* parameters

* ``w1``: ``(E, M, H)``,  ``b1``: ``(E, 1, H)``
* ``w2``: ``(E, H, M)``,  ``b2``: ``(E, 1, M)``

Two execution strategies share the parameters:

* ``expert_impl="grouped"`` (the process default) — *capacity-free*,
  MegaBlocks-style: the flat routed rows, sorted by expert, flow
  through :func:`~repro.nn.tensor.segment_matmul` — each expert's
  contiguous row segment multiplies its stacked weight slice, occupied
  experts only, no capacity dimension anywhere (the grouped-GEMM move
  Megatron-Core and MegaBlocks make for the loop-of-small-GEMMs
  pathology).  :meth:`Experts.run_grouped` is the primitive.
* ``expert_impl="loop"`` — the reference: one expert at a time,
  Python-level, kept selectable for parity testing
  (`tests/moe/test_expert_bank.py` and
  `tests/moe/test_expert_grouped.py` assert bit-equal forwards and
  matching gradients).

Flat sorted rows — what sparse routing ships — go through
:meth:`Experts.run_segments`, the one place the two strategies fork.
A capacity-form ``(E, C, M)`` buffer — what dense routing ships —
goes through :meth:`Experts.forward`: the loop runs every slot of each
expert's slice, the grouped impl gathers the occupied prefix rows,
runs them grouped and scatters them back into a zero buffer — same
answers at every occupied slot, buffer only at the boundary.

Slot occupancy is a prefix by construction: every gate assigns
capacity slots FCFS from slot 0, so expert e's occupied slots are
exactly ``[0, fill_e)`` — ``GateOutput.expert_load`` is that fill.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional

import numpy as np

from ..nn import functional as F
from ..nn.init import xavier_uniform
from ..nn.modules import Module, Parameter
from ..nn.tensor import (
    Tensor,
    concatenate,
    gather,
    scatter_add,
    segment_matmul,
    stack,
)

#: Valid values of the ``expert_impl`` switch.
EXPERT_IMPLS = ("grouped", "loop")

# The process-wide default.  Grouped (capacity-free segment GEMMs)
# has been the hot path since the flat-row dispatch landed; loop
# remains selectable as the reference.  Override per-bank with
# ``expert_impl=`` or ambiently with :func:`default_expert_impl`.
_default_expert_impl = "grouped"


def validate_expert_impl(impl: str) -> str:
    """Check ``impl`` against :data:`EXPERT_IMPLS` and return it.

    The single validation point shared by every entry that accepts an
    ``expert_impl`` — :func:`default_expert_impl`, :class:`Experts`
    (and through it :class:`~repro.moe.layer.MoELayer` and the model
    constructors) — so a typo'd impl name fails with the same error
    everywhere.
    """
    if impl not in EXPERT_IMPLS:
        raise ValueError(
            f"unknown expert_impl {impl!r}; expected one of {EXPERT_IMPLS}"
        )
    return impl


@contextmanager
def default_expert_impl(impl: str):
    """Temporarily change the process-wide default ``expert_impl``.

    Mirrors :func:`~repro.moe.layer.default_dispatch_mode`: banks built
    with ``expert_impl=None`` inside the block pick up ``impl``; an
    explicit argument still wins.  The convergence study uses this to
    pin its chaotic trajectories to the loop reference numerics (the
    grouped backward reassociates reductions, so gradients
    match only to ~1e-6 — enough to shift a 600-step training run).
    """
    global _default_expert_impl
    validate_expert_impl(impl)
    previous = _default_expert_impl
    _default_expert_impl = impl
    try:
        yield
    finally:
        _default_expert_impl = previous


class Experts(Module):
    """A bank of E feed-forward experts over flat rows or (E, C, M) input."""

    def __init__(
        self,
        num_experts: int,
        model_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        activation: str = "relu",
        expert_impl: Optional[str] = None,
    ):
        super().__init__()
        if num_experts < 1:
            raise ValueError(f"num_experts must be >= 1, got {num_experts}")
        if activation not in ("relu", "gelu"):
            raise ValueError(f"unsupported activation {activation!r}")
        if expert_impl is None:
            expert_impl = _default_expert_impl
        validate_expert_impl(expert_impl)
        self.num_experts = num_experts
        self.model_dim = model_dim
        self.hidden_dim = hidden_dim
        self.activation = activation
        self.expert_impl = expert_impl
        # Draw per-expert weights in the exact rng order the historical
        # per-expert FeedForward construction used (fc1 then fc2, one
        # expert at a time), so seeded models are bit-identical to
        # those built before the stacked layout existed.
        w1 = np.empty((num_experts, model_dim, hidden_dim), dtype=np.float32)
        w2 = np.empty((num_experts, hidden_dim, model_dim), dtype=np.float32)
        for e in range(num_experts):
            w1[e] = xavier_uniform(rng, model_dim, hidden_dim)
            w2[e] = xavier_uniform(rng, hidden_dim, model_dim)
        self.w1 = Parameter(w1)
        self.b1 = Parameter(np.zeros((num_experts, 1, hidden_dim), np.float32))
        self.w2 = Parameter(w2)
        self.b2 = Parameter(np.zeros((num_experts, 1, model_dim), np.float32))

    def _act(self, x: Tensor) -> Tensor:
        return F.relu(x) if self.activation == "relu" else F.gelu(x)

    def reinit_expert(self, expert: int, rng: np.random.Generator) -> None:
        """Re-initialize one expert's parameters in place (recovery).

        Draws exactly what the constructor draws for one expert — fc1
        xavier, then fc2 xavier, biases zeroed — from ``rng``, so a
        recovery controller that seeds ``rng`` deterministically (see
        :class:`repro.faults.recovery.RecoveryController`) re-creates
        the same parameters on every replay.  Any optimizer moments
        attached to the bank's parameters are *not* touched: they are
        whole-bank arrays, and zeroing another expert's slice is the
        optimizer's caller's decision.
        """
        if not 0 <= expert < self.num_experts:
            raise IndexError(
                f"expert {expert} out of range [0, {self.num_experts})"
            )
        self.w1.data[expert] = xavier_uniform(
            rng, self.model_dim, self.hidden_dim
        )
        self.b1.data[expert] = 0.0
        self.w2.data[expert] = xavier_uniform(
            rng, self.hidden_dim, self.model_dim
        )
        self.b2.data[expert] = 0.0

    def load_expert_slice(
        self,
        expert: int,
        w1: np.ndarray,
        b1: np.ndarray,
        w2: np.ndarray,
        b2: np.ndarray,
    ) -> None:
        """Overwrite one expert's parameters with checkpointed values.

        The shapes must match the stacked layout exactly
        (``w1 (M, H)``, ``b1 (1, H)``, ``w2 (H, M)``, ``b2 (1, M)``) —
        the per-expert slices :func:`repro.nn.serialization.
        shard_expert_state` produces.
        """
        if not 0 <= expert < self.num_experts:
            raise IndexError(
                f"expert {expert} out of range [0, {self.num_experts})"
            )
        for name, value, param in (
            ("w1", w1, self.w1),
            ("b1", b1, self.b1),
            ("w2", w2, self.w2),
            ("b2", b2, self.b2),
        ):
            value = np.asarray(value, dtype=np.float32)
            expected = param.data.shape[1:]
            if value.shape != expected:
                raise ValueError(
                    f"expert {expert} {name}: expected shape "
                    f"{expected}, got {value.shape}"
                )
            param.data[expert] = value

    def run_expert(self, expert: int, x: Tensor) -> Tensor:
        """Apply one expert's FFN to a (rows, M) tensor.

        The loop reference's unit of work (:meth:`run_segments` and the
        capacity-form :meth:`forward`).  Gradients flow into the
        stacked parameters through the slice.
        """
        if not 0 <= expert < self.num_experts:
            raise IndexError(
                f"expert {expert} out of range [0, {self.num_experts})"
            )
        h = self._act(x @ self.w1[expert] + self.b1[expert])
        return h @ self.w2[expert] + self.b2[expert]

    def run_grouped(
        self, rows: Tensor, segment_counts: np.ndarray
    ) -> Tensor:
        """Apply the bank to flat rows sorted by expert, (N, M) -> (N, M).

        ``rows`` holds every routed token row, contiguous per expert
        (``segment_counts[e]`` rows for expert e, summing to N) — the
        sort-permutation form :func:`~repro.moe.dispatch.dispatch_grouped`
        produces.  Two :func:`~repro.nn.tensor.segment_matmul` calls
        run each occupied expert's segment through its FFN, each with
        its stacked bias as the GEMM's in-place epilogue (``bias=`` the
        ``(E, H)``/``(E, M)`` view of ``b1``/``b2``, whose gradient is
        one per-segment row fold).  No (E, C, M) buffer and no per-row
        bias tensor exist at any point, and an expert with an empty
        segment costs nothing.
        """
        counts = np.asarray(segment_counts)
        if rows.ndim != 2 or rows.shape[1] != self.model_dim:
            raise ValueError(
                f"expected (N, {self.model_dim}) rows, got {rows.shape}"
            )
        if counts.shape != (self.num_experts,):
            raise ValueError(
                f"segment_counts must be ({self.num_experts},), "
                f"got {counts.shape}"
            )
        b1 = self.b1.reshape(self.num_experts, self.hidden_dim)
        b2 = self.b2.reshape(self.num_experts, self.model_dim)
        h = self._act(segment_matmul(rows, self.w1, counts, bias=b1))
        return segment_matmul(h, self.w2, counts, bias=b2)

    def run_segments(
        self, rows: Tensor, segment_counts: np.ndarray
    ) -> Tensor:
        """Apply the bank to flat sorted rows with the configured impl.

        The single execution entry for sparse routing — the MoE
        layer's forward and :class:`~repro.moe.parallel.
        ExpertParallelGroup` both call it.  ``"grouped"`` is
        :meth:`run_grouped`; ``"loop"`` runs each occupied segment
        through :meth:`run_expert` and concatenates the results, a
        forward bit-identical to the grouped one (per-row GEMM results
        don't depend on how rows are batched).
        """
        if self.expert_impl == "grouped":
            return self.run_grouped(rows, segment_counts)
        counts = np.asarray(segment_counts, dtype=np.int64)
        if int(counts.sum()) != rows.shape[0]:
            raise ValueError(
                f"segment_counts sum {int(counts.sum())} != rows "
                f"{rows.shape[0]}"
            )
        offsets = np.concatenate([[0], np.cumsum(counts)])
        outputs = [
            self.run_expert(int(e), rows[offsets[e] : offsets[e + 1]])
            for e in np.nonzero(counts)[0]
        ]
        if not outputs:
            return Tensor(np.zeros((0, self.model_dim), dtype=np.float32))
        return concatenate(outputs, axis=0)

    def _validate(self, dispatched: Tensor) -> None:
        if (
            dispatched.ndim != 3
            or dispatched.shape[0] != self.num_experts
            or dispatched.shape[2] != self.model_dim
        ):
            raise ValueError(
                f"expected ({self.num_experts}, C, {self.model_dim}) "
                f"input, got {dispatched.shape}"
            )

    def forward(
        self,
        dispatched: Tensor,
        expert_load: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Apply expert e to slice (e, :, :); returns (E, C, M).

        ``expert_load`` (optional) is the gate's per-expert occupied
        slot count — ``GateOutput.expert_load``.  With it, the grouped
        path gathers exactly the occupied rows while the padding slots
        stay zero — unobservable downstream, since every combine
        carries a zero weight there; without it, every slot (zero rows
        included) goes through the GEMMs, which is also what the loop
        reference does.  Occupied-slot outputs are bit-identical
        either way.
        """
        self._validate(dispatched)
        fill = None
        if expert_load is not None:
            fill = np.asarray(expert_load)
            if fill.shape != (self.num_experts,):
                raise ValueError(
                    f"expert_load must be ({self.num_experts},), "
                    f"got {fill.shape}"
                )
        if self.expert_impl == "loop":
            outputs: List[Tensor] = []
            for e in range(self.num_experts):
                outputs.append(self.run_expert(e, dispatched[e]))
            return stack(outputs, axis=0)
        return self._grouped_capacity(dispatched, fill)

    def _grouped_capacity(
        self, dispatched: Tensor, fill: Optional[np.ndarray]
    ) -> Tensor:
        """Capacity-form adapter for the grouped impl: (E, C, M) both ways.

        Used when the grouped bank receives a capacity buffer anyway —
        dense dispatch mode, the parity suites, fidelity studies.  The
        occupied prefix rows (all ``E * C`` rows when ``fill`` is
        unknown) are gathered into the flat sorted-by-expert form,
        run through :meth:`run_grouped`, and scattered back to their
        unique ``expert * C + slot`` origins; padding slots stay zero.
        """
        num_experts, capacity, model_dim = dispatched.shape
        flat = dispatched.reshape(num_experts * capacity, model_dim)
        if fill is None or capacity == 0:
            counts = np.full(num_experts, capacity, dtype=np.int64)
            return self.run_grouped(flat, counts).reshape(dispatched.shape)
        counts = np.clip(fill, 0, capacity).astype(np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        total = int(offsets[-1])
        within = np.arange(total, dtype=np.int64) - np.repeat(
            offsets[:-1], counts
        )
        row_idx = (
            np.repeat(np.arange(num_experts, dtype=np.int64) * capacity, counts)
            + within
        )
        out_rows = self.run_grouped(gather(flat, row_idx), counts)
        return scatter_add(
            out_rows, row_idx, num_experts * capacity, unique_indices=True
        ).reshape(dispatched.shape)
