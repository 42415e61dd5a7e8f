import dataclasses
import pathlib

import pytest

import uwofdm as uw

ROOT = pathlib.Path(__file__).resolve().parents[1]
NOTCH_FIXTURE = ROOT / "fixtures" / "notch_snapshot.txt"
REFERENCE_CFG_FILE = ROOT / "configs" / "reference.cfg"


@pytest.fixture(scope="session")
def ref_config():
    return uw.reference_config()


@pytest.fixture(scope="session")
def ref_gen(ref_config):
    return uw.derive_generator(ref_config)


def zero_word(config):
    """The all-zero unique word: the word of ``config`` with
    ``uw_energy_ratio = 0``."""
    return uw.build_unique_word(
        uw.derive_generator(dataclasses.replace(config, uw_energy_ratio=0.0)))


@pytest.fixture(scope="session")
def ref_uw(ref_gen):
    return uw.build_unique_word(ref_gen)


@pytest.fixture(scope="session")
def zero_uw(ref_config):
    return zero_word(ref_config)


@pytest.fixture(scope="session")
def notch_channel():
    return uw.load_snapshot(NOTCH_FIXTURE)


@pytest.fixture(scope="session")
def toy_config():
    # smallest system exercising every matrix: 4 data + 2 redundant
    # carriers inside an 8-point DFT with zeros at DC and mid-band
    return uw.OfdmSystemConfig(dft_size=8, zero_indices=(0, 4), redundant_indices=(2, 6))


@pytest.fixture(scope="session")
def toy_gen(toy_config):
    return uw.derive_generator(toy_config)
