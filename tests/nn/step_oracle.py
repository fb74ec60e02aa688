"""Test-only oracles: the training step's former whole-array kernels.

Before the row scatter and the optimizer were rewritten for speed,
every 1-d row scatter was a plain ``np.add.at`` and ``Adam.step`` ran
each update as whole-array numpy expressions.  Both rewrites promise
bit-identical results; these copies of the old code are what the
exactness tests compare them against.
"""

import numpy as np


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
