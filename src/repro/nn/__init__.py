"""Numpy autograd and neural-network substrate.

A from-scratch replacement for the PyTorch layer the paper builds on:
reverse-mode AD (:mod:`~repro.nn.tensor`), differentiable primitives
(:mod:`~repro.nn.functional`), modules (:mod:`~repro.nn.modules`) and
optimizers (:mod:`~repro.nn.optim`).  All convergence experiments run
on this substrate for real.
"""

from . import functional
from .buffer_pool import Arena, BufferPool
from .init import kaiming_normal, normal, xavier_uniform
from .modules import (
    Dropout,
    Embedding,
    FeedForward,
    Linear,
    LayerNorm,
    Module,
    ModuleList,
    MultiHeadAttention,
    Parameter,
    Sequential,
)
from .optim import SGD, Adam, Optimizer, WarmupInverseSqrt, clip_grad_norm
from .serialization import (
    checkpoint_placement,
    load_checkpoint,
    load_extra_arrays,
    merge_expert_shards,
    save_checkpoint,
    shard_expert_state,
    stack_expert_state,
    unstack_expert_state,
)
from .tensor import (
    Tensor,
    active_arena,
    concatenate,
    einsum,
    gather,
    inference_mode,
    is_inference,
    scatter_add,
    scratch_empty,
    scratch_zeros,
    segment_matmul,
    stack,
    use_arena,
    where,
)

__all__ = [
    "Adam",
    "Arena",
    "BufferPool",
    "Dropout",
    "Embedding",
    "FeedForward",
    "LayerNorm",
    "Linear",
    "Module",
    "ModuleList",
    "MultiHeadAttention",
    "Optimizer",
    "Parameter",
    "SGD",
    "Sequential",
    "Tensor",
    "active_arena",
    "WarmupInverseSqrt",
    "clip_grad_norm",
    "concatenate",
    "einsum",
    "functional",
    "gather",
    "inference_mode",
    "is_inference",
    "kaiming_normal",
    "checkpoint_placement",
    "load_checkpoint",
    "load_extra_arrays",
    "merge_expert_shards",
    "normal",
    "save_checkpoint",
    "shard_expert_state",
    "scatter_add",
    "scratch_empty",
    "scratch_zeros",
    "segment_matmul",
    "stack",
    "use_arena",
    "stack_expert_state",
    "unstack_expert_state",
    "where",
    "xavier_uniform",
]
