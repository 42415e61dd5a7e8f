#!/usr/bin/env python3
"""Compare two byte sets row by row under the byte-change rule.

    python scripts/byte_diff.py BASE NEW

BASE and NEW are directories of BER CSVs, as ``scripts/byte_set.py``
writes them.  For every row whose bytes differ, print the bit errors
and BER on both sides, whether the new BER lies inside the base row's
[ci_low, ci_high], and whether the base BER lies inside the new row's.
Header lines that differ, and files or rows on one side only, are
printed too.  The exit status is 0 when every differing row lies inside
both intervals and no file, row or header line differs, and 1 otherwise.
"""

import argparse
import csv
import pathlib
import sys


def read(path: pathlib.Path) -> tuple:
    """The ``#`` header lines, and the data rows keyed by Eb/N0 as
    (raw line, parsed row)."""
    lines = path.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = {row["ebn0_db"]: (line, row) for line, row in zip(body[1:], csv.DictReader(body))}
    return header, rows


def inside(ber: str, row: dict) -> bool:
    return float(row["ci_low"]) <= float(ber) <= float(row["ci_high"])


def compare(name: str, base: pathlib.Path, new: pathlib.Path) -> tuple:
    """Lines to print for one CSV, and whether it keeps the rule."""
    base_header, base_rows = read(base)
    new_header, new_rows = read(new)
    out, ok = [], True
    for line in sorted(set(base_header) ^ set(new_header)):
        out.append(f"{name}: header line {'only in base' if line in base_header else 'only in new'}: {line}")
        ok = False
    for ebn0 in sorted(set(base_rows) | set(new_rows), key=float):
        if ebn0 not in new_rows or ebn0 not in base_rows:
            out.append(f"{name}: Eb/N0 {ebn0} only in {'base' if ebn0 in base_rows else 'new'}")
            ok = False
            continue
        (base_line, b), (new_line, n) = base_rows[ebn0], new_rows[ebn0]
        if base_line == new_line:
            continue
        new_in_base, base_in_new = inside(n["ber"], b), inside(b["ber"], n)
        ok &= new_in_base and base_in_new
        out.append(
            f"{name}: Eb/N0 {ebn0}: errors {b['bit_errors']} -> {n['bit_errors']} "
            f"of {b['bits']} -> {n['bits']} bits, BER {b['ber']} -> {n['ber']}; "
            f"new BER in base [{b['ci_low']}, {b['ci_high']}]: {'yes' if new_in_base else 'NO'}; "
            f"base BER in new [{n['ci_low']}, {n['ci_high']}]: {'yes' if base_in_new else 'NO'}")
    return out, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    base_names = {p.name for p in args.base.glob("*.csv")}
    new_names = {p.name for p in args.new.glob("*.csv")}
    ok, moved = True, 0
    for name in sorted(base_names | new_names):
        if name not in base_names or name not in new_names:
            print(f"{name}: only in {'base' if name in base_names else 'new'}")
            ok = False
            continue
        lines, file_ok = compare(name, args.base / name, args.new / name)
        ok &= file_ok
        moved += bool(lines)
        for line in lines:
            print(line)
    print(f"{moved} of {len(base_names & new_names)} CSVs differ; "
          + ("every moved row lies inside both intervals." if ok
             else "some difference breaks the byte-change rule."))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
