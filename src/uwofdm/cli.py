"""Command-line front end.

Subcommands: ``derive`` (generator diagnostics), ``optimize-placement``,
``ber-sweep``, ``mse-probe`` and ``snapshot``.  Exit codes: 0 success,
2 configuration/usage error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import channel as chan
from . import frame, harness
from .errors import ConfigError, NearSingularChannelError, NumericallySingularError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_flags(sub: argparse.ArgumentParser, writes: bool = False,
               channel: bool = False) -> None:
    """``--config`` for every subcommand; ``--seed`` and ``--out`` for
    those that write a file, ``--channel`` for those that read one."""
    sub.add_argument("--config", help="config file (flat key/value format)")
    if writes:
        sub.add_argument("--seed", type=int, default=1, help="master seed (u64)")
        sub.add_argument("--out", help="output path")
    if channel:
        sub.add_argument("--channel", default="ensemble",
                         help="'ensemble' or 'fixed:<fixture path>'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwofdm",
        description="Unique-word OFDM simulation toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("derive", help="derive the redundancy generator and "
                                       "print its diagnostics")
    _add_flags(p)

    p = subs.add_parser("optimize-placement",
                        help="search redundant-carrier placements")
    _add_flags(p)
    p.add_argument("--strategy", choices=("greedy", "exhaustive"), default="greedy",
                   help="search strategy (default: greedy)")

    p = subs.add_parser("ber-sweep", help="run a Monte-Carlo BER sweep")
    _add_flags(p, writes=True, channel=True)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes, at least 1 (default: 1)")

    p = subs.add_parser("mse-probe", help="per-carrier MSE probe on a fixed channel")
    _add_flags(p, writes=True, channel=True)

    p = subs.add_parser("snapshot", help="search and save a pinned channel snapshot")
    _add_flags(p, writes=True)

    return parser


def _load_values(args) -> dict:
    return harness.parse_config_file(args.config) if args.config else {}


def _require_out(args) -> str:
    """The ``--out`` path, refused before any work if it cannot be written."""
    if not args.out:
        raise ConfigError("--out is required for this subcommand")
    parent = os.path.dirname(os.path.abspath(args.out))
    if os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is a directory")
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {args.out}: directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ConfigError(f"--out {args.out}: directory {parent} is not writable")
    return args.out


def cmd_derive(args) -> int:
    values = _load_values(args)
    config = harness.system_config_from(values)
    gen = frame.derive_generator(frame.build_subcarrier_map(config))
    rows, cols = gen.redundancy.shape
    print(f"generator shape: {rows} x {cols}")
    print(f"redundant energy trace(T T^H): {frame.redundant_energy_metric(gen):.10g}")
    print(f"tail system condition number: {gen.tail_condition:.10g}")
    return EXIT_OK


def cmd_optimize_placement(args) -> int:
    config = harness.system_config_from(_load_values(args))
    indices, metric = frame.optimize_placement(config, args.strategy)
    reference = frame.derive_generator(frame.build_subcarrier_map(config))
    print(f"strategy: {args.strategy}")
    print(f"indices: {list(indices)}")
    print(f"metric trace(T T^H): {metric:.10g}")
    print(f"configured placement metric: "
          f"{frame.redundant_energy_metric(reference):.10g}")
    return EXIT_OK


def cmd_ber_sweep(args) -> int:
    out = _require_out(args)
    values = _load_values(args)
    spec = harness.sweep_spec_from(values, seed=args.seed, channel=args.channel)
    report = harness.run_ber_sweep(spec, workers=args.workers)
    harness.write_ber_csv(out, report)
    print(f"wrote {len(report.points)} points to {out}")
    return EXIT_OK


def cmd_mse_probe(args) -> int:
    out = _require_out(args)
    values = _load_values(args)
    config = harness.system_config_from(values)
    if not args.channel.startswith("fixed:"):
        raise ConfigError("mse-probe needs --channel fixed:<fixture path>")
    n_symbols = values.get("mse_symbols", harness.MSE_SYMBOLS)
    if n_symbols < 1:
        raise ConfigError(f"mse_symbols must be >= 1, got {n_symbols}")
    ebn0 = values.get("mse_ebn0_db", harness.MSE_EBN0_DB)
    harness.check_ebn0("mse_ebn0_db", ebn0)
    ch = harness.load_fixed_channel(args.channel[len("fixed:"):], config.dft_size,
                                    config.uw_length)
    rows = harness.run_mse_probe(config, ch, ebn0_db=ebn0,
                                 n_symbols=n_symbols, seed=args.seed)
    harness.write_mse_csv(out, rows, metadata=harness.mse_metadata(
        args.channel, config, ebn0, n_symbols, args.seed))
    print(f"wrote {len(rows)} carriers to {out}")
    return EXIT_OK


def cmd_snapshot(args) -> int:
    out = _require_out(args)
    values = _load_values(args)
    config = harness.system_config_from(values)
    predicate = chan.notch_predicate(config.active_indices)
    taps = values.get("channel_taps", chan.DEFAULT_TAP_COUNT)
    harness.check_tap_count("channel_taps", taps, config.uw_length)
    if taps < 2:
        raise ConfigError(f"channel_taps = {taps}: a channel of tap_count = 1 is flat and "
                          f"never satisfies {predicate.__doc__}; need channel_taps >= 2")
    tau = values.get("rms_delay_spread_s", chan.DEFAULT_RMS_DELAY_SPREAD_S)
    chan.check_delay_spread(tau, config.sample_rate_hz, taps)
    ch, draw = chan.pinned_snapshot(
        args.seed, predicate, rms_delay_spread_s=tau,
        sample_rate_hz=config.sample_rate_hz, tap_count=taps, dft_size=config.dft_size)
    chan.save_snapshot(out, ch, seed=args.seed, draw=draw)
    power = np.abs(ch.active_response(config.active_indices)) ** 2
    depth = 10 * np.log10(power / power.mean())
    print(f"wrote snapshot (seed={args.seed}, draw={draw}) to {out}")
    print(f"deepest carriers [dB rel mean]: {np.sort(depth)[:3].round(2).tolist()}")
    return EXIT_OK


_COMMANDS = {
    "derive": cmd_derive,
    "optimize-placement": cmd_optimize_placement,
    "ber-sweep": cmd_ber_sweep,
    "mse-probe": cmd_mse_probe,
    "snapshot": cmd_snapshot,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        code = exc.code if isinstance(exc.code, int) else EXIT_CONFIG
        return code
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericallySingularError, NearSingularChannelError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_entry() -> None:
    sys.exit(main())
