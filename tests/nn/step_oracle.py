"""Test-only oracles: the training step's former whole-array kernels.

Before the row scatter and the optimizer were rewritten for speed,
every 1-d row scatter was a plain ``np.add.at`` and ``Adam.step`` ran
each update as whole-array numpy expressions.  Before the expert
biases moved into ``segment_matmul``'s epilogue, the grouped expert
FFN added per-row gathered biases as separate tape nodes, and ReLU
was a masked ``np.where``.  Every rewrite promises bit-identical
results; these copies of the old code are what the exactness tests
compare them against.
"""

import numpy as np

from repro.nn.tensor import gather, segment_matmul


def add_at_rows(out, idx, values):
    """The former row scatter: sequential ``np.add.at``."""
    np.add.at(out, idx, values)


def whole_array_adam_step(self):
    """The former ``Adam.step``: one full-size temporary per op."""
    self._step += 1
    bc1 = 1.0 - self.beta1**self._step
    bc2 = 1.0 - self.beta2**self._step
    for p, m, v in zip(self.parameters, self._m, self._v):
        if p.grad is None:
            continue
        g = p.grad
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * p.data
        p.data -= self.lr * update


def where_relu(x):
    """The former training-mode ReLU: a masked ``np.where`` select."""
    mask = x.data > 0

    def backward(g):
        return ((x, g * mask),)

    return x._make(np.where(mask, x.data, 0.0), (x,), backward)


def unfused_run_grouped(self, rows, segment_counts):
    """The former ``Experts.run_grouped``: bias-free segment GEMMs, each
    followed by a per-row ``gather`` of the stacked bias and an add."""
    counts = np.asarray(segment_counts)
    expert_of_row = np.repeat(
        np.arange(self.num_experts), counts.astype(np.int64)
    )
    b1 = self.b1.reshape(self.num_experts, self.hidden_dim)
    b2 = self.b2.reshape(self.num_experts, self.model_dim)
    h = self._act(
        segment_matmul(rows, self.w1, counts) + gather(b1, expert_of_row)
    )
    return segment_matmul(h, self.w2, counts) + gather(b2, expert_of_row)
