"""The package runs on numpy alone: scipy is a benchmark-only dependency."""

import os
import pathlib
import subprocess
import sys

from conftest import NOTCH_FIXTURE

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.modules["scipy"] = None  # any "import scipy..." now raises ImportError
import uwofdm as uw
from uwofdm import harness
for system in harness.SYSTEMS:
    for channel in ("fixed:" + sys.argv[1], "ensemble"):
        spec = harness.SweepSpec(config=uw.reference_config(), system=system,
                                 ebn0_db=(8.0,), seed=1, code_rate="1/2",
                                 channel=channel, max_bits_per_point=1)
        assert harness.run_ber_sweep(spec).points[0].frames == harness.BATCH_FRAMES
print("ok")
"""


def test_sweep_runs_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(NOTCH_FIXTURE)],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
