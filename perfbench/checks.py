"""Output checks for benchmark sweeps.

A sweep point is checked three ways:

1. ``bits`` equals the point's bit budget (stopping is pinned to it).
2. Its bit-error count agrees with the committed reference for the
   same point within an over-dispersed binomial tolerance:
   ``|e - e_ref| <= Z * sqrt(D * (e + e_ref + 1))``.  ``e + e_ref`` is
   the variance of the difference of two binomial counts with small
   BER; ``D`` (stored per workload in ``reference.json``) is measured
   over several seeds and covers errors arriving in bursts (Viterbi
   error events, deep-faded ensemble frames).  Another seed, or a change
   that only moves low-order bits, stays inside it.
3. On workloads that carry the paper's claim, uw-lmmse BER is below cp
   BER at every Eb/N0 where cp BER <= 1e-2.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
Z = 5.0
CLAIM_CP_BER = 1e-2


def point_key(system: str, code_rate: str, ebn0_db: float) -> str:
    return f"{system}|{code_rate}|{ebn0_db:g}"


def load_reference(path=REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def errors_agree(errors: int, ref_errors: int, dispersion: float) -> bool:
    return abs(errors - ref_errors) <= Z * math.sqrt(dispersion * (errors + ref_errors + 1))


def check_workload(workload, outcomes: list, budgets: dict, reference: dict) -> dict:
    """Check one pass over a workload.

    ``outcomes`` holds ``(cell, points)`` pairs, where ``points`` is a
    tuple of ``(ebn0_db, bits, bit_errors, frames, frame_errors)`` or
    None when the sweep raised.  ``budgets`` maps each cell's
    ``(system, code_rate)`` to its bit budget per point.  Returns a
    message for each failed point, keyed by ``point_key``.
    """
    ref = reference["workloads"][workload.name]
    ref_points = {point_key(p["system"], p["code_rate"], p["ebn0_db"]): p
                  for p in ref["points"]}
    failures = {}
    ber = {}
    for cell, points in outcomes:
        if points is None:
            for ebn0 in cell.ebn0_db:
                key = point_key(cell.system, cell.code_rate, ebn0)
                failures[key] = f"{key}: sweep raised"
            continue
        for ebn0, bits, errors, _, _ in points:
            key = point_key(cell.system, cell.code_rate, ebn0)
            budget = budgets[(cell.system, cell.code_rate)]
            expected = ref_points.get(key)
            if bits != budget:
                failures[key] = f"{key}: {bits} bits, budget {budget}"
            elif expected is None:
                failures[key] = f"{key}: no reference point"
            elif not errors_agree(errors, expected["bit_errors"], ref["dispersion"]):
                failures[key] = (f"{key}: {errors} bit errors, reference "
                                 f"{expected['bit_errors']} (dispersion {ref['dispersion']})")
            else:
                ber[(cell.system, cell.code_rate, ebn0)] = errors / bits
    if workload.check_uw_beats_cp:
        for (system, rate, ebn0), cp_ber in ber.items():
            if system != "cp" or cp_ber > CLAIM_CP_BER:
                continue
            uw_ber = ber.get(("uw-lmmse", rate, ebn0))
            if uw_ber is not None and not uw_ber < cp_ber:
                key = point_key("uw-lmmse", rate, ebn0)
                failures[key] = f"{key}: BER {uw_ber:.3g} not below cp BER {cp_ber:.3g}"
    return failures
