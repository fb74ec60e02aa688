"""Neural-network module system (PyTorch-style, numpy-backed).

:class:`Module` provides parameter discovery by attribute walking, a
``training`` flag propagated through the tree, and state-dict
round-tripping; the concrete layers cover everything the paper's
transformer MoE models are assembled from.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .buffer_pool import Arena
from .init import normal, xavier_uniform
from .tensor import Tensor, inference_mode, use_arena


class Module:
    """Base class with parameter discovery and train/eval modes."""

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward_inference(self, *args, **kwargs):
        """Run :meth:`forward` on the autograd-free fast path.

        Enters :func:`~repro.nn.tensor.inference_mode` (no backward
        closures, no ``_parents``) with a module-owned
        :class:`~repro.nn.buffer_pool.Arena` installed as the ambient
        scratch allocator, so large intermediates draw from a pooled
        free list instead of the heap.  The arena is reset at the
        *start* of each call: outputs of call N stay readable until
        call N+1 begins, after which their storage is recycled — copy
        anything that must live longer.

        The module is switched to ``eval()`` for the duration (and
        restored), so dropout is off; outputs are bit-identical to an
        ``eval()``-mode training-tape forward.
        """
        arena = getattr(self, "_inference_arena", None)
        if arena is None:
            arena = self._inference_arena = Arena()
        was_training = self.training
        if was_training:
            self.eval()
        arena.reset()
        try:
            with inference_mode(), use_arena(arena):
                return self.forward(*args, **kwargs)
        finally:
            if was_training:
                self.train()

    # -- tree walking -----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """(name, tensor) for every trainable parameter in the tree."""
        for key, value in vars(self).items():
            name = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{name}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{i}", item

    def parameters(self) -> List[Tensor]:
        """All trainable parameters."""
        return [p for _name, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """This module and all descendants."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # -- modes -------------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- state dict ----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load arrays saved by :meth:`state_dict` (strict)."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, array in state.items():
            if params[name].data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{params[name].data.shape} vs {array.shape}"
                )
            params[name].data = array.astype(np.float32).copy()


class Parameter(Tensor):
    """A tensor registered as trainable."""

    def __init__(self, data: np.ndarray):
        super().__init__(data, requires_grad=True)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token embedding table."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(normal(rng, (num_embeddings, dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(dim, dtype=np.float32))
        self.bias = Parameter(np.zeros(dim, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, self.eps)


class Dropout(Module):
    """Inverted dropout with its own seeded stream."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.rng, training=self.training)


class FeedForward(Module):
    """The transformer fflayer: Linear -> activation -> Linear.

    This is exactly the "expert" of the paper's MoE layer (Section
    2.1): an MoE layer replaces one FeedForward with E of them plus a
    gate.
    """

    def __init__(
        self,
        model_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        activation: str = "relu",
    ):
        super().__init__()
        self.fc1 = Linear(model_dim, hidden_dim, rng)
        self.fc2 = Linear(hidden_dim, model_dim, rng)
        if activation not in ("relu", "gelu"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        h = self.fc1(x)
        h = F.relu(h) if self.activation == "relu" else F.gelu(h)
        return self.fc2(h)


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product attention.

    Supports self-attention (``context=None``) with optional causal
    masking, and cross-attention for the encoder-decoder model.
    """

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        causal: bool = False,
    ):
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError(
                f"model_dim {model_dim} not divisible by heads {num_heads}"
            )
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.causal = causal
        self.q_proj = Linear(model_dim, model_dim, rng)
        self.k_proj = Linear(model_dim, model_dim, rng)
        self.v_proj = Linear(model_dim, model_dim, rng)
        self.out_proj = Linear(model_dim, model_dim, rng)

    def _split(self, x: Tensor) -> Tensor:
        b, t, _ = x.shape
        return x.reshape(b, t, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(
        self,
        x: Tensor,
        context: Optional[Tensor] = None,
        mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        source = context if context is not None else x
        q = self._split(self.q_proj(x))
        k = self._split(self.k_proj(source))
        v = self._split(self.v_proj(source))

        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        bias = np.zeros(scores.shape[-2:], dtype=np.float32)
        if self.causal and context is None:
            t_q, t_k = scores.shape[-2], scores.shape[-1]
            bias = np.where(
                np.tril(np.ones((t_q, t_k), dtype=bool)), 0.0, -1e9
            ).astype(np.float32)
        if mask is not None:
            # mask: (batch, t_k) boolean, True = attend.
            pad = np.where(mask[:, None, None, :], 0.0, -1e9).astype(np.float32)
            scores = scores + Tensor(pad)
        scores = scores + Tensor(bias)
        attn = F.softmax(scores, axis=-1)
        out = attn @ v
        b, h, t, d = out.shape
        out = out.transpose(0, 2, 1, 3).reshape(b, t, h * d)
        return self.out_proj(out)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """A bare container that registers its children."""

    def __init__(self, modules: Sequence[Module] = ()):
        super().__init__()
        self.items = list(modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]

    def append(self, module: Module) -> None:
        self.items.append(module)

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container, not callable")
