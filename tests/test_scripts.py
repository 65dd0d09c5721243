"""The experiment scripts run end to end on a small seed count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def script_process(name, *args, check=True):
    """Run a script in a fresh interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, check=check, capture_output=True, text=True, timeout=120,
    )


def run_script(name, tmp_path):
    out = tmp_path / "out.json"
    script_process(name, "--seeds", "2", "--json", str(out))
    return json.loads(out.read_text())


def test_ablation_script_writes_results(tmp_path):
    result = run_script("run_ablation.py", tmp_path)
    assert set(result) == {"seeds", "rank1", "mean_ap", "fused_vs_baseline_pvalue"}
    assert result["seeds"] == 2
    for key in ("rank1", "mean_ap"):
        assert set(result[key]) == {"baseline", "wf", "wpr", "wf+wpr"}
        assert all(len(values) == 2 for values in result[key].values())


def test_weight_sweep_script_writes_results(tmp_path):
    result = run_script("run_weight_sweep.py", tmp_path)
    assert set(result) == {"weights", "mean_rank1", "per_seed_rank1", "interior_max_seeds"}
    assert len(result["mean_rank1"]) == len(result["weights"])
    assert len(result["per_seed_rank1"]) == 2
    assert 0 <= result["interior_max_seeds"] <= 2


def test_ablation_script_rejects_a_non_finite_weight():
    result = script_process("run_ablation.py", "--weight", "nan", check=False)
    assert result.returncode == 2 and "--weight" in result.stderr, result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("name, args, option", [
    ("run_weight_sweep.py", ["--weights", "nan", "1", "2"], "--weights"),
    ("run_weight_sweep.py", ["--weights", "-1", "0", "1"], "--weights"),
    ("run_weight_sweep.py", ["--weights", "1", "2"], "--weights"),
    ("run_weight_sweep.py", ["--corruption", "-0.5"], "--corruption"),
    ("run_weight_sweep.py", ["--corruption", "nan"], "--corruption"),
    ("run_weight_sweep.py", ["--seeds", "0"], "--seeds"),
    ("run_ablation.py", ["--seeds", "0"], "--seeds"),
    ("run_ablation.py", ["--seeds", "1"], "--seeds"),
    ("run_ablation.py", ["--identities", "1"], "--identities"),
    ("run_ablation.py", ["--num-poses", "1"], "--num-poses"),
    ("run_ablation.py", ["--noise", "inf"], "--noise"),
    ("run_ablation.py", ["--dim", "x"], "--dim"),
    ("run_ablation.py", ["--dim", "0"], "--dim"),
    ("run_ablation.py", ["--distractors", "-1"], "--distractors"),
    ("run_weight_sweep.py", ["--json", "{tmp}/missing/out.json"], "--json"),
])
def test_scripts_refuse_a_bad_argument_before_generating(name, args, option, tmp_path):
    args = [arg.format(tmp=tmp_path) for arg in args]
    result = script_process(name, "--json", str(tmp_path / "out.json"), *args, check=False)
    assert result.returncode == 2, result.stderr
    assert f"argument {option}" in result.stderr or f"error: {option}:" in result.stderr, result.stderr
    assert "Traceback" not in result.stderr and result.stdout == ""
    assert not (tmp_path / "out.json").exists()
