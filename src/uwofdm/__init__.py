"""Unique-word OFDM baseband simulation toolkit.

Builds OFDM symbols whose time-domain tail is a fixed known word via
redundant subcarriers, runs the matching zero-forcing + LMMSE-smoothing
receiver, and benchmarks bit error rates against an 802.11a-style
cyclic-prefix baseline over multipath channels.
"""

# Set before the submodules import, since the sweep metadata records it.
__version__ = "0.1.0"

from .channel import (ChannelRealization, apply_channel_cyclic, load_snapshot,
                      notch_predicate, pinned_snapshot, sample_channel,
                      save_snapshot)
from .cpref import CpConfig, cp_decode_symbol, cp_encode_symbol
from .errors import (ConfigError, NearSingularChannelError,
                     NumericallySingularError, PlacementInfeasibleError)
from .fec import (InterleaverSpec, conv_encode, deinterleave, depuncture,
                  interleave, puncture, qpsk_map, qpsk_soft_demap, viterbi_decode)
from .frame import (OfdmSystemConfig, RedundancyGenerator, SubcarrierMap,
                    build_subcarrier_map, derive_generator, optimize_placement,
                    redundant_energy_metric, reference_config)
from .harness import (BerPoint, BerReport, SweepSpec, run_ber_sweep,
                      run_mse_probe, write_ber_csv, write_mse_csv)
from .numerics import forward_dft, inverse_dft
from .rxchain import (WienerEqualizer, build_equalizer, measure_subcarrier_mse,
                      zf_only_symbol)
from .txchain import UniqueWord, build_unique_word

__all__ = [
    "BerPoint", "BerReport", "ChannelRealization", "ConfigError", "CpConfig",
    "InterleaverSpec", "NearSingularChannelError", "NumericallySingularError",
    "OfdmSystemConfig", "PlacementInfeasibleError", "RedundancyGenerator",
    "SubcarrierMap", "SweepSpec", "UniqueWord", "WienerEqualizer",
    "apply_channel_cyclic", "build_equalizer", "build_subcarrier_map",
    "build_unique_word", "conv_encode", "cp_decode_symbol", "cp_encode_symbol",
    "deinterleave", "depuncture", "derive_generator", "forward_dft",
    "interleave", "inverse_dft", "load_snapshot", "measure_subcarrier_mse",
    "notch_predicate", "optimize_placement", "pinned_snapshot", "puncture",
    "qpsk_map", "qpsk_soft_demap", "redundant_energy_metric",
    "reference_config", "run_ber_sweep", "run_mse_probe", "sample_channel",
    "save_snapshot", "viterbi_decode", "write_ber_csv",
    "write_mse_csv", "zf_only_symbol",
]
