"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload (those of BENCHMARK.json and the two extra ones) once
untraced and once traced for about a second each,
and checks the output contract: every metric named in BENCHMARK.json is
printed with its unit and sample count, every output check passes, and
fail_ratio is 0.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The two workloads run.py offers beyond BENCHMARK.json.
EXTRA = ["match-3cam", "sweep-small"]
# "  <name>  <value> <unit> (n=<count>)", as run.py prints each metric.
METRIC_LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)\s+\(n=(\d+)\)$")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_unit_and_no_failures(tmp_path, trace, section):
    out = tmp_path / "results.json"
    proc = run_bench(ROOT, "--workload", "all", "--size", "tiny", "--seed", "0",
                     "--seconds", "1", "--trace", trace, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}

    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(WORKLOADS + EXTRA)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stderr
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted

    printed: dict[str, str] = {}
    for line in proc.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            name, value, unit, _ = match.groups()
            printed[name] = unit
            if name == "fail_ratio":
                assert float(value) == 0
    assert printed.items() >= {**wanted, "fail_ratio": "ratio"}.items()

    runs = json.loads(out.read_text())["runs"]
    assert sorted(r["workload"] for r in runs) == sorted(WORKLOADS + EXTRA)
    assert all(r["fail_ratio"] == 0 and r["inputs"] for r in runs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
