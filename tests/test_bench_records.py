"""``BENCH_*.json`` records and ``scripts/bench_pairs.py``, which writes
them: every committed record parses and carries, for each run, the
end-to-end metrics of ``BENCHMARK.json`` with their units and the run's
metadata."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
RUN_KEYS = {"side", "pair", "first", "seed", "seconds", "workload", "result", "meta"}
META_KEYS = {"python", "numpy", "blas", "thread_env_at_start", "thread_env_after_import", "nproc"}


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_carries_end_to_end_metrics(path):
    record = json.loads(path.read_text())
    assert record["runs"]
    for run in record["runs"]:
        assert RUN_KEYS <= run.keys()
        assert run["side"] in bench_pairs.SIDES
        assert META_KEYS <= run["meta"].keys()
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0
        for metric in END_TO_END:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)
    assert {row["metric"] for row in record["summary"]} == {m["name"] for m in END_TO_END}


def test_summary_counts_wins_by_direction():
    """Higher Mbit/s and lower seconds win; a tie counts for neither."""
    def run(side, pair, mbps, sweep):
        metrics = {"mbps_cp": {"value": mbps, "unit": "Mbit/s"},
                   "sweep_s": {"value": sweep, "unit": "s"}}
        return {"side": side, "pair": pair, "workload": "w", "seed": 1,
                "result": {"metrics": metrics}}

    runs = [run("parent", 0, 1.0, 5.0), run("change", 0, 2.0, 4.0),
            run("parent", 1, 1.0, 5.0), run("change", 1, 1.0, 6.0),
            run("parent", 2, 3.0, 5.0)]
    end_to_end = [{"name": "mbps_cp", "unit": "Mbit/s", "better": "higher"},
                  {"name": "sweep_s", "unit": "s", "better": "lower"}]
    mbps, sweep = bench_pairs.summarize(runs, end_to_end)
    assert (mbps["pairs"], mbps["change_wins"], sweep["change_wins"]) == (2, 1, 1)
    assert mbps["parent"]["median"] == 1.0 and mbps["change"]["median"] == 1.5
