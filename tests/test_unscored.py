"""The unscored protocol end to end: no probe has a positive in its cross-camera gallery."""

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_canon
from pdsr import (
    Dataset,
    EvalMode,
    FileBackedProvider,
    ProtocolConfig,
    Tracklet,
    evaluate,
)
from pdsr.cli import main
from pdsr.dataset_io import save_canon, save_dataset, write_feature_matrix, write_synth_index
from pdsr.evaluation import cmc_curve
from pdsr.model import DISTRACTOR, FrameRecord, PoseVector
from pdsr.seeding import rng_for

D, K, M = 6, 5, 3
# Each identity is filmed by one camera only, so every cross-camera gallery
# lacks a positive; the distractor only fills camera 1's gallery.
ROWS = [("a-0", "ida", 0), ("a-1", "ida", 0), ("b-0", "idb", 1), ("b-1", "idb", 1),
        ("x-0", DISTRACTOR, 1)]


@pytest.fixture(scope="module")
def one_camera_identities():
    """The dataset, its canon, and a synthetic index and matrix that serve every (tracklet, pose)."""
    rng = rng_for(0, "unscored")
    tracklets = tuple(
        Tracklet(tid, identity, camera, tuple(
            FrameRecord(i, rng.normal(size=D), PoseVector(rng.uniform(0, 1, (K, 2)), np.ones(K, bool)))
            for i in range(4)
        ))
        for tid, identity, camera in ROWS
    )
    dataset = Dataset("unscored", D, K, M, 2, tracklets)
    canon = make_canon(rng.uniform(0, 1, (M, K, 2)))
    index = {(tid, j): row for row, (tid, j) in enumerate(
        (tid, j) for tid, _, _ in ROWS for j in range(1, M + 1))}
    return dataset, canon, index, rng.normal(size=(len(index), D))


@pytest.mark.parametrize("mode", list(EvalMode))
def test_evaluate_scores_no_probe_without_a_cross_camera_positive(one_camera_identities, mode):
    dataset, canon, index, matrix = one_camera_identities
    report = evaluate(dataset, canon, FileBackedProvider(index, matrix), ProtocolConfig(), mode)
    assert report.num_probes == 2
    assert report.num_scored == 0
    assert report.mean_ap is None
    assert report.cmc == ()
    for r in report.probe_results:
        assert r.num_positives == 0
        assert r.ap is None and r.first_correct_rank is None
    # No probe has a positive in the other camera; each has one in its own.
    assert report.camera_pair_map[0][1] is None and report.camera_pair_map[1][0] is None
    assert report.camera_pair_map[0][0] is not None and report.camera_pair_map[1][1] is not None


@pytest.mark.parametrize("mode", [m.value for m in EvalMode])
def test_cli_eval_prints_no_map_and_writes_null(one_camera_identities, tmp_path, mode):
    dataset, canon, index, matrix = one_camera_identities
    save_dataset(dataset, tmp_path / "manifest.json", tmp_path / "features.bin")
    save_canon(canon, tmp_path / "canon.json")
    write_synth_index(index, tmp_path / "synth-index.tsv")
    write_feature_matrix(tmp_path / "synth-features.bin", matrix)
    report_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    result = CliRunner().invoke(main, [
        "--manifest", str(tmp_path / "manifest.json"),
        "--features", str(tmp_path / "features.bin"),
        "--canon", str(tmp_path / "canon.json"),
        "--synth-index", str(tmp_path / "synth-index.tsv"),
        "--synth-features", str(tmp_path / "synth-features.bin"),
        "eval", "--mode", mode, "--report", str(report_path), "--csv", str(csv_path),
    ])
    assert result.exit_code == 0, result.output
    assert result.output == f"mode {mode}: 0/2 probes scored\nreport -> {report_path}\n"

    report = json.loads(report_path.read_text())
    assert report["num_scored"] == 0
    assert report["mean_ap"] is None and report["cmc"] == []
    assert [r["ap"] for r in report["probe_results"]] == [None, None]
    assert [r["first_correct_rank"] for r in report["probe_results"]] == [None, None]

    rows = {(section, key): value for section, key, value in csv.reader(csv_path.read_text().splitlines())}
    assert rows["summary", "num_scored"] == "0"
    assert rows["summary", "mean_ap"] == "null"
    assert not any(section == "cmc" for section, _ in rows)
    for probe in (r["probe_id"] for r in report["probe_results"]):
        assert rows["probe", f"{probe}.ap"] == rows["probe", f"{probe}.first_correct_rank"] == "null"


def test_cmc_curve_refuses_no_ranks():
    with pytest.raises(ValueError, match="no ranks to accumulate"):
        cmc_curve([], 5)


@pytest.mark.parametrize("length", [0, -1])
def test_cmc_curve_refuses_a_length_below_one(length):
    with pytest.raises(ValueError, match="curve length must be positive"):
        cmc_curve([1, 2], length)
