"""The public API: ``uwofdm.__all__`` lists each name once, and every
listed name exists; reference forms that only the tests use live in
``tests/oracles.py``, not in the package."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import numpy as np
import pytest

import uwofdm
from uwofdm import channel, cpref, fec, frame, harness, numerics, rxchain, txchain


def test_all_has_no_duplicates():
    assert len(uwofdm.__all__) == len(set(uwofdm.__all__))


def test_every_name_in_all_resolves():
    assert [name for name in uwofdm.__all__ if not hasattr(uwofdm, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from uwofdm import *", namespace)
    assert set(uwofdm.__all__) <= namespace.keys()


def test_all_size():
    assert len(uwofdm.__all__) <= 42


@pytest.mark.parametrize("module, name", [
    (fec, "SoftBits"), (numerics, "DftPlan"), (channel, "NoiseSpec"),
    (channel, "apply_channel_stream"), (channel, "stream_symbol_windows"),
    (frame, "time_symbol"), (harness, "qpsk_ber"),
    (harness, "analytic_cp_uncoded_ber"), (harness, "analytic_cp_required_ebn0_db"),
    (uwofdm, "SoftBits"), (uwofdm, "NoiseSpec"), (uwofdm, "apply_channel_stream"),
    (uwofdm, "apply_channel_cyclic"), (uwofdm, "zf_only_symbol"),
])
def test_test_only_forms_are_not_in_the_package(module, name):
    assert not hasattr(module, name)


@pytest.mark.parametrize("owner, name", [
    (harness, "default_workers"), (harness, "ENV_WORKERS"),
    (rxchain.WienerEqualizer, "data_noise_variances"),
    (frame.OfdmSystemConfig, "data_symbol_variance"),
    (cpref.CpConfig, "data_symbol_variance"),
    (channel, "convolve"), (cpref.CpConfig, "symbol_samples"),
    (harness, "_fixed_equalizer"), (rxchain.WienerEqualizer, "data_error_variances"),
    (rxchain.WienerEqualizer, "smoother"), (harness, "NOISE_VARIANCE_EPS"),
    (frame, "SubcarrierMap"), (frame, "build_subcarrier_map"),
    (uwofdm, "SubcarrierMap"), (uwofdm, "build_subcarrier_map"),
    (frame.RedundancyGenerator, "map"), (rxchain.WienerEqualizer, "map"),
    (harness, "mse_metadata"), (harness, "uw_modem"),
    (rxchain.WienerEqualizer, "formed"), (rxchain, "_form_estimator"),
    (frame.RedundancyGenerator, "modulator"), (frame.RedundancyGenerator, "parity_check"),
    (rxchain.WienerEqualizer, "error_covariance"),
    (numerics, "dft_columns"), (numerics, "_dft_matrix"),
    (cpref, "pilot_time_signal"), (cpref, "mean_symbol_energy"),
    (frame.RedundancyGenerator, "symbol_covariance"), (harness, "uw_interleaver"),
])
def test_removed_knobs_are_gone(owner, name):
    """One receive call per modem (no second ZF-only variance), one
    worker-count setting, no data-variance key (every data symbol is
    unit-energy QPSK), one channel model (both modems' receive model is
    the circulant product on 64-sample windows, with no linear
    convolution and no 80-sample cp symbol), one sweep cache (the context holds each
    point's fixed-channel equalizer) and one data estimator for every
    noise variance (no full smoother, no clamp to a noiseless point).
    The carrier layout is stored once, as the config's index sets and
    the generator's carrier and position arrays (no subcarrier map).
    The MSE probe reads the sweep's context, so no helper builds its
    header or its modem.  An equalizer forms E from its gain when E is
    read, so it stores no E, and the generator stores neither the
    time-domain modulator nor the parity check, which nothing at run time
    reads.  The MSE probe reads the smoother's error from E (W C_vv), so
    the equalizer has no C_ee.  cp's transform, pilot waveform and symbol
    energy are ``CpConfig`` constants, so no function rebuilds them and
    no DFT matrix is cached.  UW's symbol energy is ||G||_F^2 / N, so the
    generator forms no covariance, and both modems take their interleaver
    from one rule.  A dataclass field counts as an attribute."""
    fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) \
        else set()
    assert not hasattr(owner, name) and name not in fields


def test_context_is_the_one_cache():
    """The package's only ``functools`` caches are the sweep context and
    the once-per-process allocator guard; fixed arrays are module or class
    constants.  (``cached_property`` memoizes per instance and is no
    process-wide cache.)"""
    cached = []
    for path in sorted(pathlib.Path(uwofdm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", None)
                if name in ("cache", "lru_cache"):
                    cached.append(f"{path.stem}.{node.name}")
    assert cached == ["harness._keep_freed_memory", "harness._context"]


def test_shared_arrays_are_read_only():
    """Every ndarray bound at module or class level in any ``uwofdm``
    module is read-only, so no caller can change it for every later call
    in the process (cp's bins, the Viterbi tables, the puncturing pattern)."""
    writable, seen = [], 0
    for info in pkgutil.iter_modules(uwofdm.__path__):
        if info.name == "__main__":  # importing it runs the CLI; it binds no array
            continue
        module = importlib.import_module(f"uwofdm.{info.name}")
        owners = [(info.name, module)] + [
            (f"{info.name}.{name}", cls) for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__]
        for owner, namespace in owners:
            for name, value in vars(namespace).items():
                if isinstance(value, np.ndarray):
                    seen += 1
                    if value.flags.writeable:
                        writable.append(f"{owner}.{name}")
    assert writable == [] and seen >= 11


def test_counts_follow_from_the_index_sets():
    """``data_count`` and ``uw_length`` are read-only properties of the
    index sets: neither a config field nor a config key."""
    fields = {f.name for f in dataclasses.fields(frame.OfdmSystemConfig)}
    for name in ("data_count", "uw_length"):
        assert name not in fields and name not in harness.KNOWN_KEYS
        assert isinstance(getattr(frame.OfdmSystemConfig, name), property)


def test_build_unique_word_takes_the_generators_length():
    """Any other length would put the word off the generator's zero tail,
    and its energy share is the generator's config's ``uw_energy_ratio``."""
    assert list(inspect.signature(txchain.build_unique_word).parameters) == ["gen"]


def test_one_placement_strategy_setting():
    """The search picks exhaustive or descent from its size: no setting
    chooses it."""
    assert "placement_strategy" not in harness.KNOWN_KEYS
    assert list(inspect.signature(frame.optimize_placement).parameters) == ["config"]


def test_build_equalizer_has_no_floor_knob():
    """One zero-forcing rule: no flag picks between floor and refusal."""
    assert "floor_response" not in inspect.signature(rxchain.build_equalizer).parameters
    assert not hasattr(rxchain, "zero_forcing_response")


def test_convolution_matrix_has_no_linear_mode():
    assert list(inspect.signature(channel.convolution_matrix).parameters) == ["taps", "size"]


def test_encode_batch_takes_the_generators_map():
    """Any map but the generator's would give wrong symbols."""
    assert list(inspect.signature(txchain.encode_batch).parameters) == ["data", "gen", "uw"]


def test_notch_rule_has_no_threshold_knobs():
    """The pinned fixture's notch rule is ``NOTCH_DEPTH_DB`` and
    ``NOTCH_MIN_COUNT``; the search reads the carriers, guard, sample rate
    and DFT size from the config."""
    assert list(inspect.signature(channel.is_notched).parameters) == ["ch", "active_indices"]
    assert list(inspect.signature(channel.pinned_snapshot).parameters) == [
        "config", "seed", "tap_count", "rms_delay_spread_s", "max_draws"]


def test_mse_probe_reads_the_sweeps_context():
    """The probe takes the sweep's channel string and returns its CSV
    header, which ``write_mse_csv`` requires; the equalizer holds the
    generator and the noise variance the MSE measurement reads, and the
    measurement takes no channel, since it runs the sweep's link."""
    assert list(inspect.signature(harness.run_mse_probe).parameters) == [
        "config", "channel", "ebn0_db", "n_symbols", "seed"]
    metadata = inspect.signature(harness.write_mse_csv).parameters["metadata"]
    assert metadata.default is inspect.Parameter.empty
    assert list(inspect.signature(rxchain.measure_subcarrier_mse).parameters) == [
        "eq", "uw", "rng", "n_symbols"]


def test_receivers_take_words_and_noiseless_windows():
    """``equalize_batch`` takes zero-forced words, not time samples, so it
    needs no unique word; ``cp_apply_channel`` draws no noise, since the
    sweep adds it on the bins."""
    assert list(inspect.signature(rxchain.equalize_batch).parameters) == ["words", "eq"]
    assert list(inspect.signature(cpref.cp_apply_channel).parameters) == ["symbols", "ch"]
