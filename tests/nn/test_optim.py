"""Optimizer tests."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, Linear, Tensor, WarmupInverseSqrt, clip_grad_norm
from repro.nn.modules import Parameter
from repro.nn.optim import _ADAM_BLOCK

from .step_oracle import whole_array_adam_step


def quadratic_params(rng):
    return [Parameter(rng.standard_normal(4).astype(np.float32) * 3)]


def minimize(opt, params, steps=300):
    for _ in range(steps):
        opt.zero_grad()
        loss = (params[0] ** 2).sum()
        loss.backward()
        opt.step()
    return float((params[0] ** 2).sum().data)


def test_sgd_minimizes_quadratic(rng):
    params = quadratic_params(rng)
    final = minimize(SGD(params, lr=0.1), params)
    assert final < 1e-6


def test_sgd_momentum_minimizes(rng):
    params = quadratic_params(rng)
    final = minimize(SGD(params, lr=0.05, momentum=0.9), params)
    assert final < 1e-6


def test_adam_minimizes_quadratic(rng):
    params = quadratic_params(rng)
    final = minimize(Adam(params, lr=0.1), params)
    assert final < 1e-5


def test_weight_decay_shrinks_weights(rng):
    p = Parameter(np.ones(4, dtype=np.float32))
    opt = SGD([p], lr=0.1, weight_decay=0.5)
    p.grad = np.zeros(4, dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, 0.95 * np.ones(4))


def test_optimizer_skips_gradless_params(rng):
    p = Parameter(np.ones(2, dtype=np.float32))
    opt = Adam([p], lr=0.1)
    opt.step()  # no grad: no movement, no crash
    np.testing.assert_allclose(p.data, 1.0)


def test_optimizer_validation(rng):
    p = Parameter(np.ones(2, dtype=np.float32))
    with pytest.raises(ValueError):
        SGD([p], lr=0.0)
    with pytest.raises(ValueError):
        SGD([p], lr=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        Adam([p], lr=0.1, betas=(1.0, 0.9))
    with pytest.raises(ValueError):
        SGD([], lr=0.1)
    for bad_lr in (float("nan"), float("inf"), -float("inf")):
        for opt_cls in (SGD, Adam):
            with pytest.raises(ValueError, match=str(bad_lr)):
                opt_cls([p], lr=bad_lr)
    for bad_eps in (-1e-8, float("nan")):
        with pytest.raises(ValueError, match=str(bad_eps)):
            Adam([p], lr=0.1, eps=bad_eps)
    Adam([p], lr=0.1, eps=0.0)  # zero is allowed


def test_clip_grad_norm(rng):
    p = Parameter(np.zeros(4, dtype=np.float32))
    p.grad = np.full(4, 3.0, dtype=np.float32)  # norm 6
    pre = clip_grad_norm([p], max_norm=3.0)
    assert pre == pytest.approx(6.0)
    assert np.linalg.norm(p.grad) == pytest.approx(3.0)
    # Below the cap: untouched.
    p.grad = np.full(4, 0.1, dtype=np.float32)
    clip_grad_norm([p], max_norm=3.0)
    np.testing.assert_allclose(p.grad, 0.1)
    with pytest.raises(ValueError):
        clip_grad_norm([p], max_norm=0.0)
    with pytest.raises(ValueError, match="nan"):
        clip_grad_norm([p], max_norm=float("nan"))


def test_warmup_inverse_sqrt_schedule(rng):
    p = Parameter(np.ones(2, dtype=np.float32))
    opt = Adam([p], lr=1.0)
    sched = WarmupInverseSqrt(opt, base_lr=1.0, warmup_steps=10)
    lrs = [sched.step() for _ in range(30)]
    assert lrs[4] == pytest.approx(0.5)
    assert lrs[9] == pytest.approx(1.0)
    assert max(lrs) == pytest.approx(1.0)
    assert lrs[29] == pytest.approx((10 / 30) ** 0.5)
    with pytest.raises(ValueError):
        WarmupInverseSqrt(opt, base_lr=1.0, warmup_steps=0)


# -- blocked Adam vs the whole-array oracle -----------------------------------


class _OracleAdam(Adam):
    step = whole_array_adam_step


def _adam_pair(rng, sizes, **kwargs):
    """Twin optimizers over identical parameter copies."""
    base = [rng.standard_normal(n).astype(np.float32) for n in sizes]
    params = [[Parameter(b.copy()) for b in base] for _ in range(2)]
    return (
        (params[0], Adam(params[0], **kwargs)),
        (params[1], _OracleAdam(params[1], **kwargs)),
    )


def _bits(a):
    return a.view(np.uint32)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_blocked_adam_matches_whole_array_oracle(rng, weight_decay):
    sizes = [1, _ADAM_BLOCK - 1, _ADAM_BLOCK, _ADAM_BLOCK + 1,
             3 * _ADAM_BLOCK + 7]
    (params, opt), (ref_params, ref_opt) = _adam_pair(
        rng, sizes, lr=3e-3, weight_decay=weight_decay
    )
    schedules = [WarmupInverseSqrt(o, base_lr=3e-3, warmup_steps=2)
                 for o in (opt, ref_opt)]
    for step in range(5):
        grads = [rng.standard_normal(n).astype(np.float32) for n in sizes]
        if step % 2:
            grads[0][:] = -0.0
        for ps in (params, ref_params):
            for p, g in zip(ps, grads):
                p.grad = g.copy()
        if step >= 2:  # the schedule takes over partway through
            for sched in schedules:
                sched.step()
        opt.step()
        ref_opt.step()
        assert opt.lr == ref_opt.lr
        for i in range(len(sizes)):
            np.testing.assert_array_equal(
                _bits(params[i].data), _bits(ref_params[i].data)
            )
            np.testing.assert_array_equal(_bits(opt._m[i]), _bits(ref_opt._m[i]))
            np.testing.assert_array_equal(_bits(opt._v[i]), _bits(ref_opt._v[i]))


def test_blocked_adam_multidim_and_reassigned_moments(rng):
    """2-d parameters; moments replaced between steps (a restore)."""
    shapes = [(300, 257), (4, 5)]
    base = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    params = [Parameter(b.copy()) for b in base]
    ref_params = [Parameter(b.copy()) for b in base]
    opt, ref_opt = Adam(params, lr=1e-2), _OracleAdam(ref_params, lr=1e-2)
    for step in range(3):
        for p, q in zip(params, ref_params):
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
            q.grad = p.grad.copy()
        if step == 1:
            opt._m = [m.copy() for m in opt._m]
            opt._v = [v.copy() for v in opt._v]
        opt.step()
        ref_opt.step()
    for p, q in zip(params, ref_params):
        np.testing.assert_array_equal(_bits(p.data), _bits(q.data))


def test_adam_rejects_non_contiguous_parameter(rng):
    good = Parameter(np.ones(3, dtype=np.float32))
    bad = Parameter(np.ones((4, 6), dtype=np.float32))
    opt = Adam([good, bad], lr=0.1)
    bad.data = np.ones((4, 12), dtype=np.float32)[:, ::2]
    bad.grad = np.ones((4, 6), dtype=np.float32)
    with pytest.raises(ValueError, match=r"parameter 1 of shape \(4, 6\)"):
        opt.step()
    # Non-contiguous moments are refused the same way.
    bad.data = np.ones((4, 6), dtype=np.float32)
    opt._m[1] = np.zeros((6, 4), dtype=np.float32).T
    with pytest.raises(ValueError, match="parameter 1"):
        opt.step()
