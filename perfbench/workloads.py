"""The benchmark's workloads: which BER sweeps each one runs, and why.

Every cell uses the reference system config and ``frame_symbols = 8``.
Stopping is pinned to a bit budget of one 256-frame batch per Eb/N0
point (``min_error_events`` is set above ``max_bits_per_point``), so
every seed runs the same number of batches and two seeds do identical
work.  A pass runs each cell once, or ``repeats`` times where a cell is
cheap, spread evenly over the pass (see ``schedule``).
"""

from __future__ import annotations

from dataclasses import dataclass

SYSTEMS = ("uw-lmmse", "uw-zf", "cp")
FIXTURE = "fixtures/notch_snapshot.txt"
FRAME_SYMBOLS = 8
RATE_VALUE = {"none": 1.0, "1/2": 0.5, "3/4": 0.75}


@dataclass(frozen=True)
class Workload:
    name: str
    channel: str          # "fixed" (pinned snapshot) or "ensemble"
    rates: tuple          # ((code_rate, (ebn0_db, ...)), ...)
    repeats: tuple        # runs per pass of each cell, per system in SYSTEMS order
    check_uw_beats_cp: bool
    why: str


@dataclass(frozen=True)
class Cell:
    system: str
    code_rate: str
    ebn0_db: tuple
    repeats: int


WORKLOADS = {w.name: w for w in (
    Workload(
        "fixed-uncoded", "fixed", (("none", (16.0, 20.0, 24.0, 28.0)),), (1, 1, 1), True,
        "pinned notch channel, uncoded: transmit, channel, receive and DFT do "
        "the work and FEC almost none"),
    Workload(
        "fixed-coded", "fixed", (("1/2", (6.0, 8.0)), ("3/4", (11.0, 13.0))), (1, 1, 1), False,
        "pinned notch channel, rates 1/2 and 3/4: one batched Viterbi call per "
        "batch dominates"),
    # One cp batch costs 1/3 to 1/30 of a uw batch here, and cp's time is
    # mostly per-frame Python, which reads noisily.  So each cp cell runs
    # four times per pass, once before each uw cell: cp's share then lasts
    # about as long as each uw system's and samples the whole pass.
    Workload(
        "ensemble", "ensemble", (("none", (10.0, 20.0)), ("1/2", (6.0, 10.0))), (1, 1, 4), False,
        "Rayleigh draw per frame: 256 channel draws, equalizer builds and "
        "single-frame Viterbi calls per batch"),
)}


def cells(workload: Workload) -> list:
    """The workload's distinct sweeps: each rate, then each system."""
    return [Cell(system, rate, ebn0, repeats)
            for rate, ebn0 in workload.rates
            for system, repeats in zip(SYSTEMS, workload.repeats)]


def schedule(workload: Workload) -> list:
    """One pass's run order, as indices into ``cells(workload)``.

    Cells run once keep their order.  A cell run ``R`` times has its
    k-th run placed at k/R of the pass, ahead of the single cells there,
    so its time is spread over the whole pass rather than one stretch.
    """
    all_cells = cells(workload)
    once = [i for i, c in enumerate(all_cells) if c.repeats == 1]
    keyed = [((j + 0.5) / len(once), i) for j, i in enumerate(once)]
    keyed += [(k / c.repeats, i) for i, c in enumerate(all_cells) if c.repeats > 1
              for k in range(c.repeats)]
    return [i for _, i in sorted(keyed)]


def info_bits_per_frame(system: str, code_rate: str, uw_data_count: int,
                        cp_data_count: int, tail_bits: int) -> int:
    """Information bits in one frame, derived independently of the harness
    so the per-point bit budget is checked against a second computation."""
    data_count = cp_data_count if system == "cp" else uw_data_count
    slots = FRAME_SYMBOLS * 2 * data_count
    if code_rate == "none":
        return slots
    return int(round(slots * RATE_VALUE[code_rate])) - tail_bits
