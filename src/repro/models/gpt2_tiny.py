"""Decoder-only language model (the paper's GPT2-Tiny / GPT2-Tiny-MoE).

"transformer_lm_gpt2_tiny" in fairseq is a GPT-2-shaped causal LM with
small dimensions; the MoE variant replaces every feed-forward layer
with an MoE layer.  Used for the perplexity column of paper Table 6.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..compression.base import Compressor
from ..nn import functional as F
from ..nn.modules import Embedding, LayerNorm, Linear, Module, ModuleList
from ..nn.tensor import Tensor
from .blocks import TransformerBlock, collect_aux_loss, make_ffn, sinusoidal_positions


class TransformerLM(Module):
    """Causal transformer LM, dense or MoE feed-forwards."""

    def __init__(
        self,
        vocab_size: int,
        model_dim: int = 64,
        hidden_dim: int = 128,
        num_layers: int = 2,
        num_heads: int = 4,
        max_seq_len: int = 256,
        moe: bool = False,
        num_experts: int = 8,
        top_k: int = 2,
        capacity_factor: float = 1.25,
        compressor: Optional[Compressor] = None,
        dropout: float = 0.0,
        seed: int = 0,
        expert_impl: Optional[str] = None,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.model_dim = model_dim
        self.max_seq_len = max_seq_len
        self.embed = Embedding(vocab_size, model_dim, rng)
        self._positions = sinusoidal_positions(max_seq_len, model_dim)
        self.blocks = ModuleList(
            [
                TransformerBlock(
                    model_dim,
                    num_heads,
                    make_ffn(
                        model_dim,
                        hidden_dim,
                        rng,
                        moe=moe,
                        num_experts=num_experts,
                        top_k=top_k,
                        capacity_factor=capacity_factor,
                        compressor=compressor,
                        expert_impl=expert_impl,
                    ),
                    rng,
                    causal=True,
                    dropout=dropout,
                )
                for _ in range(num_layers)
            ]
        )
        self.final_norm = LayerNorm(model_dim)
        self.head = Linear(model_dim, vocab_size, rng, bias=False)

    def forward(self, tokens: np.ndarray) -> Tensor:
        """(B, L) int tokens -> (B, L, vocab) logits."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"expected (B, L) tokens, got {tokens.shape}")
        seq_len = tokens.shape[1]
        if seq_len > self.max_seq_len:
            raise ValueError(
                f"sequence length {seq_len} exceeds max {self.max_seq_len}"
            )
        x = self.embed(tokens) + Tensor(self._positions[:seq_len])
        for block in self.blocks:
            x = block(x)
        return self.head(self.final_norm(x))

    def loss(self, tokens: np.ndarray, aux_weight: float = 0.01) -> Tensor:
        """Next-token cross entropy (+ MoE aux loss if applicable).

        Predicts tokens[:, 1:] from tokens[:, :-1].
        """
        logits = self.forward(tokens[:, :-1])
        nll = F.cross_entropy(logits, tokens[:, 1:])
        aux = collect_aux_loss(self)
        if aux is not None and aux_weight > 0:
            return nll + aux * aux_weight
        return nll

    def perplexity_loss(self, tokens: np.ndarray) -> float:
        """Pure next-token NLL (no aux), for evaluation."""
        logits = self.forward(tokens[:, :-1])
        return float(F.cross_entropy(logits, tokens[:, 1:]).data)

    def perplexity_loss_inference(self, tokens: np.ndarray) -> float:
        """:meth:`perplexity_loss` on the autograd-free fast path.

        Runs the whole model through
        :meth:`~repro.nn.modules.Module.forward_inference` — no
        backward closures, intermediates drawn from the model's arena
        — and is bit-identical to :meth:`perplexity_loss` on an
        ``eval()`` model.  This is the evaluation loop a serving or
        validation pass should use: same number, none of the
        training-tape memory.
        """
        logits = self.forward_inference(tokens[:, :-1])
        return float(F.cross_entropy(logits, tokens[:, 1:]).data)
