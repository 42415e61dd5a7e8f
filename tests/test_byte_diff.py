"""``scripts/byte_diff.py``: the byte-change rule applied row by row."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "byte_diff.py"
spec = importlib.util.spec_from_file_location("byte_diff", SCRIPT)
byte_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(byte_diff)

HEADER = "# system = cp\n# seed = 3\nebn0_db,bits,bit_errors,ber,ci_low,ci_high,frames,frame_errors,converged\n"
ROW_4 = "4,1000,300,0.3,0.27,0.33,8,8,0\n"
ROW_8 = "8,1000,100,0.1,0.08,0.12,8,6,0\n"


def write(directory: pathlib.Path, text: str, name: str = "cp_34_fixed.csv") -> pathlib.Path:
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(text)
    return directory


def run(tmp_path, base_text, new_text, capsys) -> tuple:
    base = write(tmp_path / "base", base_text)
    new = write(tmp_path / "new", new_text)
    code = byte_diff.main([str(base), str(new)])
    return code, capsys.readouterr().out


def test_identical_sets(tmp_path, capsys):
    code, out = run(tmp_path, HEADER + ROW_4 + ROW_8, HEADER + ROW_4 + ROW_8, capsys)
    assert code == 0
    assert out.startswith("0 of 1 CSVs differ")


def test_row_inside_both_intervals(tmp_path, capsys):
    moved = "8,1000,105,0.105,0.086,0.124,8,6,0\n"
    code, out = run(tmp_path, HEADER + ROW_4 + ROW_8, HEADER + ROW_4 + moved, capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("cp_34_fixed.csv: Eb/N0 8: errors 100 -> 105")
    assert "new BER in base [0.08, 0.12]: yes" in lines[0]
    assert "base BER in new [0.086, 0.124]: yes" in lines[0]


@pytest.mark.parametrize("moved, verdicts", [
    ("8,1000,130,0.13,0.11,0.15,8,6,0\n", ("NO", "NO")),
    ("8,1000,121,0.121,0.099,0.143,8,6,0\n", ("NO", "yes")),
])
def test_row_outside_an_interval(tmp_path, capsys, moved, verdicts):
    code, out = run(tmp_path, HEADER + ROW_4 + ROW_8, HEADER + ROW_4 + moved, capsys)
    assert code == 1
    assert f"]: {verdicts[0]}; base BER in new" in out
    assert out.splitlines()[0].endswith(f"]: {verdicts[1]}")


def test_header_and_missing_row_and_file(tmp_path, capsys):
    base = write(tmp_path / "base", HEADER + ROW_4 + ROW_8)
    write(base, HEADER + ROW_4, "cp_12_fixed.csv")
    new = write(tmp_path / "new", HEADER.replace("seed = 3", "seed = 4") + ROW_4)
    assert byte_diff.main([str(base), str(new)]) == 1
    out = capsys.readouterr().out
    assert "cp_12_fixed.csv: only in base" in out
    assert "cp_34_fixed.csv: header line only in new: # seed = 4" in out
    assert "cp_34_fixed.csv: Eb/N0 8 only in base" in out
