"""Optimizers and gradient utilities."""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from .tensor import Tensor

#: Elements per cache block of :meth:`Adam.step`: its whole update
#: sequence runs on one block of params, moments and gradient while
#: they are cache-resident, instead of a dozen full-size DRAM passes.
_ADAM_BLOCK = 1 << 16


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, parameters: Iterable[Tensor], lr: float):
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(
                f"learning rate must be positive and finite, got {lr}"
            )
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional momentum and decoupled weight decay."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias correction and decoupled weight decay (AdamW)."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if not eps >= 0:
            raise ValueError(f"eps must be >= 0, got {eps}")
        # Python floats keep every block op in float32 (numpy scalars
        # would promote the products to float64).
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch_t = np.empty(_ADAM_BLOCK, dtype=np.float32)
        self._scratch_u = np.empty(_ADAM_BLOCK, dtype=np.float32)

    def step(self) -> None:
        """One in-place update, walked in ``_ADAM_BLOCK``-element blocks.

        Each block runs the whole-array sequence ``m = b1*m + (1-b1)*g;
        v = b2*v + (1-b2)*g*g; u = (m/bc1) / (sqrt(v/bc2) + eps)
        [+ wd*p]; p -= lr*u`` op for op in float32, so every element
        gets exactly the rounding of the unblocked update.  ``_m``,
        ``_v`` and ``lr`` are read afresh each step (schedulers write
        ``lr``, checkpoint restores replace the moments).
        """
        self._step += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self._step
        bc2 = 1.0 - b2**self._step
        lr, eps, wd = float(self.lr), self.eps, self.weight_decay
        t = self._scratch_t
        u = self._scratch_u
        for i, (p, m, v) in enumerate(zip(self.parameters, self._m, self._v)):
            if p.grad is None:
                continue
            if not (
                p.data.flags.c_contiguous
                and m.flags.c_contiguous
                and v.flags.c_contiguous
            ):
                raise ValueError(
                    f"Adam updates in place and needs C-contiguous "
                    f"parameter data and moments; parameter {i} of shape "
                    f"{p.data.shape} is not"
                )
            p_flat = p.data.reshape(-1)
            m_flat, v_flat = m.reshape(-1), v.reshape(-1)
            g_flat = p.grad.reshape(-1)
            for lo in range(0, p_flat.size, _ADAM_BLOCK):
                hi = min(lo + _ADAM_BLOCK, p_flat.size)
                pb, mb, vb, gb = (
                    p_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi], g_flat[lo:hi]
                )
                tb, ub = t[: hi - lo], u[: hi - lo]
                mb *= b1
                np.multiply(gb, 1.0 - b1, out=tb)
                mb += tb
                vb *= b2
                np.multiply(gb, gb, out=tb)
                tb *= 1.0 - b2
                vb += tb
                np.divide(vb, bc2, out=tb)
                np.sqrt(tb, out=tb)
                tb += eps
                np.divide(mb, bc1, out=ub)
                ub /= tb
                if wd:
                    np.multiply(pb, wd, out=tb)
                    ub += tb
                ub *= lr
                pb -= ub


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class WarmupInverseSqrt:
    """Transformer LR schedule: linear warmup then inverse sqrt decay."""

    def __init__(self, optimizer: Optimizer, base_lr: float, warmup_steps: int):
        if warmup_steps < 1:
            raise ValueError(f"warmup_steps must be >= 1, got {warmup_steps}")
        self.optimizer = optimizer
        self.base_lr = base_lr
        self.warmup_steps = warmup_steps
        self._step = 0

    def step(self) -> float:
        """Advance one step; returns the LR now in effect."""
        self._step += 1
        if self._step <= self.warmup_steps:
            lr = self.base_lr * self._step / self.warmup_steps
        else:
            lr = self.base_lr * (self.warmup_steps / self._step) ** 0.5
        self.optimizer.lr = lr
        return lr
