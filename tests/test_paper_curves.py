"""``scripts/run_paper_curves.py``: one small pass through every CSV it writes."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_paper_curves.py"
spec = importlib.util.spec_from_file_location("run_paper_curves", SCRIPT)
run_paper_curves = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_paper_curves)


def test_every_csv_has_its_header(tmp_path, monkeypatch, capsys):
    """One 0 dB point per code rate stops after a batch; the probe runs
    200 symbols.  Each CSV opens with its ``# `` metadata."""
    monkeypatch.setattr(run_paper_curves, "OUT", tmp_path)
    monkeypatch.setattr(run_paper_curves, "GRIDS", {rate: (0.0,) for rate in
                                                    run_paper_curves.GRIDS})
    monkeypatch.setattr(run_paper_curves, "MSE_SYMBOLS", 200)
    assert run_paper_curves.main() == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 10
    for path in paths:
        assert path.read_text().startswith("# ")
    probe = (tmp_path / "mse_probe.csv").read_text().splitlines()
    assert "# symbols = 200" in probe
    assert len([l for l in probe if not l.startswith("#")]) == 1 + 52
