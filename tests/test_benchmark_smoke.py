"""The benchmark under perfbench/ drives the package through its public
names (desk_protocol, ExperimentConfig, TrainConfig, `sas eval`) and patches
Dataset.indices_of; its smoke check fails when a refactor breaks any of them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
