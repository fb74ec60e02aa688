"""Mixture-of-experts algorithms: gating, dispatch/combine, experts.

The numerical MoE layer (GShard semantics: top-k gate, expert
capacity per paper Eq. 1, token dropping, load-balancing loss) used by
the models and the Table 6 convergence experiments.  The distributed
*timing* of this layer is handled by :mod:`repro.core`.
"""

from .dispatch import (
    DISPATCH_MODES,
    GroupedRouting,
    combine,
    combine_grouped,
    dispatch,
    dispatch_grouped,
)
from .experts import (
    EXPERT_IMPLS,
    Experts,
    default_expert_impl,
    validate_expert_impl,
)
from .gating import (
    GateOutput,
    TopKGate,
    assign_capacity_slots,
    load_balancing_loss,
)
from .layer import MoELayer, default_dispatch_mode
from .parallel import A2ATraffic, ExpertParallelGroup
from .placement import (
    ExpertPlacement,
    expert_param_bytes,
    reshard_moves,
    reshard_traffic,
)
from .routing import (
    RoutingPlan,
    plan_for_expert_choice,
    plan_from_indices,
    route_fused,
)

__all__ = [
    "A2ATraffic",
    "DISPATCH_MODES",
    "EXPERT_IMPLS",
    "ExpertParallelGroup",
    "ExpertPlacement",
    "Experts",
    "default_expert_impl",
    "expert_param_bytes",
    "GateOutput",
    "GroupedRouting",
    "MoELayer",
    "RoutingPlan",
    "default_dispatch_mode",
    "TopKGate",
    "assign_capacity_slots",
    "combine",
    "combine_grouped",
    "dispatch",
    "dispatch_grouped",
    "load_balancing_loss",
    "plan_for_expert_choice",
    "plan_from_indices",
    "reshard_moves",
    "reshard_traffic",
    "route_fused",
    "validate_expert_impl",
]
