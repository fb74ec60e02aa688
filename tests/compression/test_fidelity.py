"""Tests of codec fidelity measurement."""

import math

import numpy as np
import pytest

from repro.compression import (
    codec_snr_db,
    collect_a2a_tensors,
    get_compressor,
    measure_fidelity,
)
from repro.moe import MoELayer
from repro.nn import Tensor


def test_snr_infinite_for_lossless(rng):
    x = rng.standard_normal((32, 32)).astype(np.float32)
    assert codec_snr_db(get_compressor("none"), x) == float("inf")


def test_snr_infinite_for_zero_signal():
    zeros = np.zeros((8, 8), dtype=np.float32)
    assert codec_snr_db(get_compressor("int8"), zeros) == float("inf")


def test_snr_ordering_on_heavy_tailed_data(rng):
    """Heavy tails (gradient-like) expose per-tensor INT8."""
    x = rng.standard_normal((64, 64)).astype(np.float32)
    x[0, 0] = 500.0  # one outlier ruins the global scale
    snr_int8 = codec_snr_db(get_compressor("int8"), x)
    snr_zfp = codec_snr_db(get_compressor("zfp"), x)
    snr_fp16 = codec_snr_db(get_compressor("fp16"), x)
    assert snr_fp16 > snr_zfp > snr_int8
    assert snr_zfp - snr_int8 > 10.0  # decisive gap


def test_snr_higher_rate_higher_fidelity(rng):
    x = rng.standard_normal((256,)).astype(np.float32)
    assert codec_snr_db(get_compressor("zfp16"), x) > codec_snr_db(
        get_compressor("zfp"), x
    ) > codec_snr_db(get_compressor("zfp4"), x)


def test_measure_fidelity_aggregates(rng):
    tensors = [
        rng.standard_normal((16, 16)).astype(np.float32) for _ in range(3)
    ]
    report = measure_fidelity(tensors)
    assert set(report.snr_db) == {"fp16", "zfp", "int8"}
    assert all(math.isfinite(v) for v in report.snr_db.values())
    text = report.render()
    assert "SNR" in text
    with pytest.raises(ValueError):
        measure_fidelity([])


def test_collect_a2a_tensors_from_layer(rng):
    # Pinned to dense dispatch: its A2A payload is the capacity
    # buffer, so the activation snapshot leads with the expert dim.
    layer = MoELayer(16, 24, 4, rng, dispatch_mode="dense")
    x = Tensor(
        rng.standard_normal((12, 16)).astype(np.float32), requires_grad=True
    )
    out = layer(x)
    (out**2).mean().backward()

    class Holder(layer.__class__.__mro__[-2]):  # Module
        pass

    from repro.nn import Module

    class Wrapper(Module):
        def __init__(self, inner):
            super().__init__()
            self.inner = inner

    tensors = collect_a2a_tensors(Wrapper(layer))
    assert len(tensors["activations"]) == 1
    assert tensors["activations"][0].shape[0] == 4  # (E, C, M)
    assert len(tensors["gradients"]) == 8  # 4 experts x fc1, fc2


def test_collect_a2a_tensors_grouped_layer(rng):
    # The grouped (process-default) path ships the flat routed rows,
    # so the activation snapshot is (N, M) — N assignments, not E.
    from repro.nn import Module

    layer = MoELayer(16, 24, 4, rng, expert_impl="grouped")
    x = Tensor(
        rng.standard_normal((12, 16)).astype(np.float32), requires_grad=True
    )
    (layer(x) ** 2).mean().backward()

    class Wrapper(Module):
        def __init__(self, inner):
            super().__init__()
            self.inner = inner

    tensors = collect_a2a_tensors(Wrapper(layer))
    assert len(tensors["activations"]) == 1
    assert tensors["activations"][0].shape[1] == 16  # flat (N, M)
    assert len(tensors["gradients"]) == 8  # 4 experts x fc1, fc2


def test_collect_before_backward_has_no_gradients(rng):
    from repro.nn import Module

    layer = MoELayer(16, 24, 4, rng)
    layer(Tensor(np.random.default_rng(0).standard_normal((8, 16)).astype(np.float32)))

    class Wrapper(Module):
        def __init__(self, inner):
            super().__init__()
            self.inner = inner

    tensors = collect_a2a_tensors(Wrapper(layer))
    assert tensors["gradients"] == []
    assert len(tensors["activations"]) == 1
