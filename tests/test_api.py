"""The public API: ``uwofdm.__all__`` lists each name once, and every
listed name exists; reference forms that only the tests use live in
``tests/oracles.py``, not in the package."""

import inspect

import pytest

import uwofdm
from uwofdm import channel, cpref, fec, frame, harness, numerics, rxchain


def test_all_has_no_duplicates():
    assert len(uwofdm.__all__) == len(set(uwofdm.__all__))


def test_every_name_in_all_resolves():
    assert [name for name in uwofdm.__all__ if not hasattr(uwofdm, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from uwofdm import *", namespace)
    assert set(uwofdm.__all__) <= namespace.keys()


def test_all_size():
    assert len(uwofdm.__all__) <= 46


@pytest.mark.parametrize("module, name", [
    (fec, "SoftBits"), (numerics, "DftPlan"), (channel, "NoiseSpec"),
    (channel, "apply_channel_stream"), (channel, "stream_symbol_windows"),
    (frame, "time_symbol"), (harness, "qpsk_ber"),
    (harness, "analytic_cp_uncoded_ber"), (harness, "analytic_cp_required_ebn0_db"),
    (uwofdm, "SoftBits"), (uwofdm, "NoiseSpec"), (uwofdm, "apply_channel_stream"),
])
def test_test_only_forms_are_not_in_the_package(module, name):
    assert not hasattr(module, name)


@pytest.mark.parametrize("owner, name", [
    (harness, "default_workers"), (harness, "ENV_WORKERS"),
    (rxchain.WienerEqualizer, "data_noise_variances"),
    (frame.OfdmSystemConfig, "data_symbol_variance"),
    (cpref.CpConfig, "data_symbol_variance"),
    (channel, "convolve"), (cpref.CpConfig, "symbol_samples"),
])
def test_removed_knobs_are_gone(owner, name):
    """One receive call per modem (no second ZF-only variance), one
    worker-count setting, no data-variance key (every data symbol is
    unit-energy QPSK) and one channel model: both modems use the
    circulant product on 64-sample windows, with no linear convolution
    and no 80-sample cp symbol."""
    assert not hasattr(owner, name)


def test_one_placement_strategy_setting():
    """``optimize-placement --strategy`` is the only way to set it."""
    assert "placement_strategy" not in harness.KNOWN_KEYS


def test_build_equalizer_has_no_floor_knob():
    """One zero-forcing rule: no flag picks between floor and refusal."""
    assert "floor_response" not in inspect.signature(rxchain.build_equalizer).parameters
    assert not hasattr(rxchain, "zero_forcing_response")


def test_convolution_matrix_has_no_linear_mode():
    assert list(inspect.signature(channel.convolution_matrix).parameters) == ["taps", "size"]
