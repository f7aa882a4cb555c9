"""Smoke test: every experiment script runs end to end and writes its outputs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

OUTPUTS = {
    "run_ablation_table.py": ["ablation.csv", "ablation.json"],
    "run_noise_robustness.py": ["noise_comparison.json"],
    "run_ratio_sweep.py": [
        "sweep.json", "sweep_orig_dev.csv", "sweep_gold_dev.csv", "sweep_gold_test.csv",
    ],
}


def test_every_script_is_covered():
    scripts = sorted(n for n in os.listdir(os.path.join(ROOT, "scripts")) if n.endswith(".py"))
    assert scripts == sorted(OUTPUTS)


@pytest.mark.parametrize("script", sorted(OUTPUTS))
def test_script_writes_outputs(script, tmp_path):
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script),
         "--epochs", "1", "--seeds", "0", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for name in OUTPUTS[script]:
        assert (out / name).stat().st_size > 0, name
