"""End-to-end CLI behavior through click's test runner."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from naive_reference import naive_assign, naive_keypoint_distance
from test_acceptance import stressor_spec
import pdsr.cli
import pdsr.evaluation
from pdsr import (
    EvalMode,
    ProtocolConfig,
    evaluate,
    file_backed_provider,
    load_canon,
    load_dataset,
    report_to_dict,
    validate_dataset,
)
from pdsr.cli import main
from pdsr.dataset_io import (
    _HEADER,
    read_feature_matrix,
    read_synth_index,
    save_canon,
    save_dataset,
    save_report_csv,
    write_feature_matrix,
    write_json,
    write_synth_index,
)
from pdsr.generator import GenSpec, generate
from pdsr.model import DISTRACTOR, PoseVector


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset on disk plus the flag list pointing at it."""
    root = tmp_path_factory.mktemp("cli")
    spec = GenSpec(identities=4, cameras=2, frames_per_tracklet=(4, 6),
                   feature_dim=16, num_poses=3, pose_effect_scale=0.4,
                   noise_sigma=0.1, distractors=2, seed=17)
    write_json(root / "spec.json", asdict(spec))
    result = CliRunner().invoke(
        main, ["synthgen", "--spec", str(root / "spec.json"), "--out", str(root / "data")]
    )
    assert result.exit_code == 0, result.output
    data = root / "data"
    flags = [
        "--manifest", str(data / "manifest.json"),
        "--features", str(data / "features.bin"),
        "--canon", str(data / "canon.json"),
        "--synth-index", str(data / "synth-index.tsv"),
        "--synth-features", str(data / "synth-features.bin"),
    ]
    return root, flags


def run(args, **kwargs):
    result = CliRunner().invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.output
    return result


def test_synthgen_writes_all_artifacts(workspace):
    root, _ = workspace
    data = root / "data"
    for name in ("manifest.json", "features.bin", "canon.json",
                 "synth-features.bin", "synth-index.tsv"):
        assert (data / name).exists(), name
    index = read_synth_index(data / "synth-index.tsv")
    matrix = read_feature_matrix(data / "synth-features.bin")
    # one synthetic vector per (tracklet, canonical pose)
    manifest = json.loads((data / "manifest.json").read_text())
    assert len(index) == len(manifest["tracklets"]) * manifest["num_poses"]
    assert matrix.shape == (len(index), manifest["feature_dim"])


def test_synthgen_reruns_bit_identical(workspace, tmp_path):
    root, _ = workspace
    run(["synthgen", "--spec", str(root / "spec.json"), "--out", str(tmp_path / "again")])
    for name in ("manifest.json", "features.bin", "canon.json",
                 "synth-features.bin", "synth-index.tsv"):
        assert (tmp_path / "again" / name).read_bytes() == \
            (root / "data" / name).read_bytes(), name


# blake2s digests of synthgen's files on a small spec with distractors,
# noise, jitter and per-camera pose subsets, recorded while the generator
# still built a FrameRecord per frame.
SYNTHGEN_DIGESTS = {
    "manifest.json": "d8ca158e815ea70be8ac5eee71a2238f7289b8259d0c961c9455619828e01110",
    "features.bin": "6c6c7a06aaa48171ff75ffc167917e9fa41f61486698003efe6005c10263040a",
    "canon.json": "5e52886e7b26d30c337e78606ee7c2131b99234cb03802a231d6fd87013c82b1",
    "synth-features.bin": "54564ceb98925a62cbc87611614ab9fe90129cd71357353d940316b9184f131b",
    "synth-index.tsv": "18db47bbe236e3584ca8a59d0c02b109ad3d22d131f85f2e3d2ca4f3c99aecac",
}


def test_synthgen_files_are_byte_identical_to_recorded_digests(tmp_path):
    spec = GenSpec(identities=3, cameras=2, frames_per_tracklet=(2, 4), feature_dim=6,
                   joint_count=5, num_poses=3, pose_effect_scale=0.3, noise_sigma=0.1,
                   pose_jitter=0.02, pose_visibility=((1, 2), (2, 3)), distractors=2, seed=5)
    write_json(tmp_path / "spec.json", asdict(spec))
    run(["synthgen", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")])
    digests = {name: hashlib.blake2s((tmp_path / "o" / name).read_bytes()).hexdigest()
               for name in SYNTHGEN_DIGESTS}
    assert digests == SYNTHGEN_DIGESTS


def test_synthgen_seed_flag_overrides_spec(workspace, tmp_path):
    root, _ = workspace
    run(["--seed", "99", "synthgen", "--spec", str(root / "spec.json"),
         "--out", str(tmp_path / "o")])
    assert (tmp_path / "o" / "features.bin").read_bytes() != \
        (root / "data" / "features.bin").read_bytes()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["name"].endswith("-s99")


def test_quantize_reports_and_writes_assignments(workspace, tmp_path):
    root, flags = workspace
    out = tmp_path / "assign.tsv"
    result = run(flags + ["quantize", "--out", str(out)])
    assert "assigned" in result.output
    lines = out.read_text().splitlines()
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    total_frames = sum(len(t["frames"]) for t in manifest["tracklets"])
    assert len(lines) == total_frames
    for line in lines:
        tid, fid, pose, distance = line.split("\t")
        assert pose == "-" or 1 <= int(pose) <= 3
        float(distance)  # repr round-trips


def test_quantize_matches_oracle_with_unassignable_frames(workspace, tmp_path):
    root, _ = workspace
    data = root / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    for t in manifest["tracklets"]:
        for f in t["frames"][::2]:  # every other frame shows only 3 joints
            for joint in f["keypoints"][3:]:
                joint[2] = 0
    low = tmp_path / "low.json"
    low.write_text(json.dumps(manifest))
    out = tmp_path / "assign.tsv"
    run(["--manifest", str(low), "--features", str(data / "features.bin"),
         "--canon", str(data / "canon.json"), "quantize", "--out", str(out)])

    dataset = load_dataset(low, data / "features.bin")
    canon = load_canon(data / "canon.json")
    frames = {(t.tracklet_id, f.frame_id): f for t in dataset.tracklets for f in t.frames}
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert [(tid, int(fid)) for tid, fid, _, _ in rows] == sorted(frames)
    unassignable = 0
    for tid, fid, pose, distance in rows:
        frame = frames[(tid, int(fid))]
        expected = naive_assign(frame.pose, canon)
        if expected is None:
            unassignable += 1
            assert (pose, distance) == ("-", "inf")
            continue
        assert int(pose) == expected
        naive = naive_keypoint_distance(frame.pose.joints, frame.pose.visibility,
                                        canon.joints[expected - 1], canon.visibility[expected - 1])
        assert abs(float(distance) - naive) <= 1e-12
    assert unassignable >= len(dataset.tracklets)


def test_embed_wf_writes_matrix_and_ids(workspace, tmp_path):
    _, flags = workspace
    out, ids = tmp_path / "wf.bin", tmp_path / "ids.tsv"
    run(flags + ["embed", "--mode", "wf", "--out", str(out), "--ids", str(ids)])
    matrix = read_feature_matrix(out)
    id_rows = [line.split("\t") for line in ids.read_text().splitlines()]
    assert matrix.shape[0] == len(id_rows) == 10  # 4 ids x 2 cameras + 2 distractors
    assert [r[1] for r in id_rows] == sorted(r[1] for r in id_rows)


def test_embed_wpr_writes_keyed_index(workspace, tmp_path):
    _, flags = workspace
    out, index = tmp_path / "wpr.bin", tmp_path / "wpr.tsv"
    run(flags + ["embed", "--mode", "wpr", "--out", str(out), "--index", str(index)])
    rows = [line.split("\t") for line in index.read_text().splitlines()]
    matrix = read_feature_matrix(out)
    assert len(rows) == matrix.shape[0]
    assert all(r[2] == "real" for r in rows)  # export holds observed poses only


def test_embed_wpr_requires_index(workspace, tmp_path):
    _, flags = workspace
    result = CliRunner().invoke(
        main, flags + ["embed", "--mode", "wpr", "--out", str(tmp_path / "x.bin")]
    )
    assert result.exit_code != 0
    assert "--index" in result.output


@pytest.mark.parametrize("mode, stray, own", [("wpr", "--ids", "wf"), ("wf", "--index", "wpr")])
def test_embed_refuses_a_flag_of_the_other_mode(workspace, tmp_path, mode, stray, own):
    _, flags = workspace
    args = ["embed", "--mode", mode, "--out", str(tmp_path / "x.bin"), stray, str(tmp_path / "x.tsv")]
    if mode == "wpr":
        args += ["--index", str(tmp_path / "index.tsv")]
    result = CliRunner().invoke(main, flags + args)
    assert result.exit_code == 2, result.output
    assert f"{stray} is for --mode {own} only" in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_match_ranks_same_identity_first(workspace, tmp_path):
    _, flags = workspace
    out = tmp_path / "rank.tsv"
    result = run(flags + ["match", "--probe", "id0000-c0-0", "--out", str(out)])
    lines = out.read_text().splitlines()
    rank1 = lines[0].split("\t")
    assert rank1[0] == "1"
    assert rank1[3] == "id0000"
    assert "*" in result.output.splitlines()[1]  # hit marker on the top row


def test_match_unknown_probe_fails(workspace):
    _, flags = workspace
    result = CliRunner().invoke(main, flags + ["match", "--probe", "nope"])
    assert result.exit_code != 0
    assert "unknown tracklet" in result.output


def test_match_marks_no_hit_for_a_distractor_probe(workspace):
    # Distractors never count as positives, not even for one another.
    _, flags = workspace
    result = run(flags + ["match", "--probe", "dx0000-c0", "--top", "100"])
    rows = result.output.splitlines()[1:]
    assert any(row.endswith(DISTRACTOR) for row in rows)
    assert [row[5] for row in rows] == [" "] * len(rows)


def test_eval_writes_report_and_csv(workspace, tmp_path):
    """The written JSON and CSV are those of `evaluate` run in process on the same files."""
    root, flags = workspace
    report_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    result = run(flags + ["eval", "--mode", "wf+wpr",
                          "--report", str(report_path), "--csv", str(csv_path)])
    assert "mAP" in result.output
    report = _evaluated_in_process(root, EvalMode.FUSED)
    assert report.mode == "wf+wpr" and report.num_probes == 4
    assert json.loads(report_path.read_text(encoding="utf-8")) == report_to_dict(report)
    save_report_csv(report, tmp_path / "expected.csv")
    assert csv_path.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def _evaluated_in_process(root, mode):
    data = root / "data"
    return evaluate(load_dataset(data / "manifest.json", data / "features.bin"),
                    load_canon(data / "canon.json"),
                    file_backed_provider(data / "synth-index.tsv", data / "synth-features.bin"),
                    ProtocolConfig(), mode)


@pytest.mark.parametrize("mode", [EvalMode.BASELINE, EvalMode.WF, EvalMode.WPR], ids=lambda m: m.value)
def test_eval_report_in_each_other_mode_is_that_of_evaluate(workspace, tmp_path, mode):
    root, flags = workspace
    run(flags + ["eval", "--mode", mode.value, "--report", str(tmp_path / "r.json")])
    report = _evaluated_in_process(root, mode)
    assert report.mode == mode.value and report.num_probes == 4
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8")) == report_to_dict(report)


def test_eval_reruns_are_bit_identical(workspace, tmp_path):
    _, flags = workspace
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        run(flags + ["--seed", "3", "eval", "--report", str(p)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_eval_baseline_needs_no_synth_flags(workspace, tmp_path):
    root, _ = workspace
    data = root / "data"
    run([
        "--manifest", str(data / "manifest.json"),
        "--features", str(data / "features.bin"),
        "--canon", str(data / "canon.json"),
        "eval", "--mode", "baseline", "--report", str(tmp_path / "b.json"),
    ])


def test_missing_global_flag_is_usage_error(workspace, tmp_path):
    root, _ = workspace
    data = root / "data"
    result = CliRunner().invoke(main, [
        "--manifest", str(data / "manifest.json"),
        "--features", str(data / "features.bin"),
        "--canon", str(data / "canon.json"),
        "eval", "--report", str(tmp_path / "r.json"),  # wf+wpr needs synth flags
    ])
    assert result.exit_code != 0
    assert "--synth-index" in result.output


def test_env_config_supplies_defaults(workspace, tmp_path, monkeypatch):
    root, flags = workspace
    config = dict(zip([f.lstrip("-").replace("-", "_") for f in flags[::2]], flags[1::2]))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    monkeypatch.setenv("PDSR_CONFIG", str(config_path))
    result = CliRunner().invoke(main, ["eval", "--report", str(tmp_path / "r.json")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "r.json").exists()


def test_env_config_invalid_json_fails(tmp_path, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text("{nope")
    monkeypatch.setenv("PDSR_CONFIG", str(config_path))
    result = CliRunner().invoke(main, ["quantize"])
    assert result.exit_code != 0
    assert "invalid JSON" in result.output


def _invalid_manifest(workspace, tmp_path) -> list[str]:
    """The workspace's flags with a manifest holding an empty tracklet and a joint shifted out of the image."""
    root, flags = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    manifest["tracklets"][0]["frames"] = []
    manifest["tracklets"][2]["frames"][3]["keypoints"][0][0] += 2.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest))
    return ["--manifest", str(bad)] + flags[2:]


INVALID_STDERR = (
    b"invalid: empty_tracklet: tracklet 'dx0000-c0' has no frames\n"
    b"invalid: coordinate_out_of_range: tracklet 'id0000-c0-0' frame 3: "
    b"visible joint outside [0, 1] x [0, 1]\n"
    b"Error: dataset failed validation with 2 issue(s)\n"
)


@pytest.mark.parametrize("command", [
    ["quantize", "--out", "{tmp}/a.tsv"],
    ["embed", "--mode", "wf", "--out", "{tmp}/wf.bin", "--ids", "{tmp}/ids.tsv"],
    ["match", "--probe", "id0001-c0-0", "--out", "{tmp}/rank.tsv"],
    ["eval", "--report", "{tmp}/r.json"],
], ids=lambda command: command[0])
def test_validation_failure_lists_issues(workspace, tmp_path, command):
    args = [arg.format(tmp=tmp_path) for arg in command]
    result = CliRunner().invoke(main, _invalid_manifest(workspace, tmp_path) + args)
    assert result.exit_code == 1, result.output
    assert result.stderr_bytes == INVALID_STDERR
    assert result.stdout_bytes == b""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "bad.json.pdsr-cache"]


@pytest.mark.parametrize("command", [
    ["quantize"],
    ["embed", "--mode", "wf", "--out", "{tmp}/wf.bin"],
    ["embed", "--mode", "wpr", "--out", "{tmp}/wpr.bin", "--index", "{tmp}/wpr.tsv"],
    ["match", "--probe", "id0001-c0-0"],
    ["eval", "--report", "{tmp}/r.json"],
], ids=["quantize", "embed-wf", "embed-wpr", "match", "eval"])
def test_each_command_validates_once(workspace, tmp_path, monkeypatch, command):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate_dataset(*args, **kwargs)

    for module in (pdsr.cli, pdsr.evaluation):  # the two names it is called by
        monkeypatch.setattr(module, "validate_dataset", counted)
    _, flags = workspace
    run(flags + [arg.format(tmp=tmp_path) for arg in command])
    assert len(calls) == 1


CONSOLE_ENTRY = ["-c", "import sys; from pdsr.cli import main; sys.exit(main())"]


def run_process(args, entry=CONSOLE_ENTRY, **env_vars):
    """Run the CLI in a fresh interpreter, as a user would, with env_vars set.

    `entry` is how the interpreter starts it: by default as the `pdsr`
    console script calls `main`.
    """
    env = {**os.environ, **env_vars}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, *entry, *args], env=env, capture_output=True, text=True, timeout=120,
    )


def test_cli_runs_as_a_module():
    result = run_process(["--help"], entry=["-m", "pdsr.cli"])
    assert result.returncode == 0 and "Usage:" in result.stdout, result.stderr
    result = run_process(["eval"], entry=["-m", "pdsr.cli"])
    assert result.returncode != 0
    assert "Missing option '--report'" in result.stderr, result.stderr


#: Runs the CLI as the console script does, with the package named by the first argument made unimportable.
WITHOUT_PACKAGE = ["-c", "import sys; sys.modules[sys.argv.pop(1)] = None; "
                         "from pdsr.cli import main; sys.exit(main())"]


@pytest.mark.parametrize("package", ["pytest", "hypothesis", "scipy"])  # pyproject's [test] extras
def test_the_cli_runs_without_a_test_package(workspace, tmp_path, package):
    _, flags = workspace
    result = run_process([package, *flags, "eval", "--report", str(tmp_path / "r.json")], entry=WITHOUT_PACKAGE)
    assert result.returncode == 0 and "mAP" in result.stdout, result.stderr
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["mode"] == "wf+wpr"


GC_PROBE = """
import gc, sys
{before}
import pdsr, pdsr.cli
print(gc.get_freeze_count(), gc.isenabled())
pdsr.cli.main(sys.argv[1:], standalone_mode=False)
print(gc.get_freeze_count(), gc.isenabled())
"""


def test_importing_pdsr_freezes_nothing():
    result = run_process(["--help"], entry=["-c", GC_PROBE.format(before="")])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "0 True"


@pytest.mark.parametrize("before", ["", "gc.disable()"], ids=["enabled", "disabled"])
def test_a_command_freezes_the_start_up_heap_and_keeps_the_collector_setting(workspace, tmp_path,
                                                                             before):
    _, flags = workspace
    result = run_process(flags + ["quantize", "--out", str(tmp_path / "a.tsv")],
                         entry=["-c", GC_PROBE.format(before=before)])
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    enabled = str(not before)
    assert lines[0] == f"0 {enabled}"
    frozen, after = lines[-1].split()
    assert int(frozen) > 0 and after == enabled


MATCH_OUT = ["match", "--probe", "id0001-c1-0", "--mode", "baseline", "--out", "{out}"]


@pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "newline", "cr"])
@pytest.mark.parametrize("command, field", [
    (["quantize", "--out", "{out}"], "tracklet_id"),
    (["--lenient", "embed", "--mode", "wf", "--out", "{out}.bin", "--ids", "{out}"], "tracklet_id"),
    (MATCH_OUT, "tracklet_id"),
    (MATCH_OUT, "identity"),
], ids=["quantize", "embed-wf-ids", "match", "match-identity"])
def test_tsv_output_refuses_a_tracklet_id_it_cannot_write(workspace, tmp_path, command, field, char):
    root, flags = workspace
    data = root / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    victim = next(t for t in manifest["tracklets"] if t["tracklet_id"] == "id0000-c0-0")
    victim[field] = {"tracklet_id": f"id0000{char}c0-0", "identity": f"id{char}0000"}[field]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out.tsv"
    result = CliRunner().invoke(main, ["--manifest", str(tmp_path / "manifest.json"), *flags[2:],
                                       *(a.format(out=out) for a in command)])
    assert result.exit_code == 1, result.output
    assert result.output.count("Error:") == 1 and "cannot contain tab" in result.output
    assert not list(tmp_path.glob("out*"))


def test_text_outputs_are_utf8_under_an_ascii_locale(workspace, tmp_path):
    root, flags = workspace
    data = root / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    for t in manifest["tracklets"]:  # id0001-c1-0 -> ïd0001-c1-0; distractors keep theirs
        t["tracklet_id"] = t["tracklet_id"].replace("id", "\u00efd", 1)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    index = read_synth_index(data / "synth-index.tsv")
    write_synth_index({(tid.replace("id", "\u00efd", 1), pose): row
                       for (tid, pose), row in index.items()}, tmp_path / "i.tsv")
    flags = flags[:]
    flags[flags.index("--manifest") + 1] = str(tmp_path / "m.json")
    flags[flags.index("--synth-index") + 1] = str(tmp_path / "i.tsv")
    spec = json.loads((root / "spec.json").read_text())
    spec["name"] = "pl\u00e4nted"  # stored as UTF-8, not as a JSON escape
    (tmp_path / "spec.json").write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    out = {name: tmp_path / name for name in ("q.tsv", "ids.tsv", "m.tsv", "r.csv")}
    for command in (
        ["synthgen", "--spec", tmp_path / "spec.json", "--out", tmp_path / "gen"],
        ["quantize", "--out", out["q.tsv"]],
        ["embed", "--mode", "wf", "--out", tmp_path / "wf.bin", "--ids", out["ids.tsv"]],
        ["match", "--probe", "dx0001-c1", "--top", "0", "--out", out["m.tsv"]],
        ["eval", "--report", tmp_path / "r.json", "--csv", out["r.csv"]],
    ):
        result = run_process(flags + [str(arg) for arg in command],
                             LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        assert result.returncode == 0, result.stderr
    for path in out.values():
        assert "\u00efd0001-c" in path.read_text(encoding="utf-8"), path.name
    assert load_dataset(tmp_path / "gen" / "manifest.json",
                        tmp_path / "gen" / "features.bin").name.startswith("pl\u00e4nted")


def test_malformed_canon_is_an_error_not_a_traceback(workspace, tmp_path):
    root, _ = workspace
    data = root / "data"
    canon = tmp_path / "canon.json"
    canon.write_text(json.dumps({"joint_count": 18, "poses": []}))
    result = run_process(["--manifest", str(data / "manifest.json"),
                          "--features", str(data / "features.bin"),
                          "--canon", str(canon), "quantize"])
    assert result.returncode == 1
    assert "Error:" in result.stderr and str(canon) in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("field, value", [("identities", 2.5), ("feature_dim", 8.0)])
def test_gen_spec_of_wrong_type_is_an_error_not_a_traceback(tmp_path, field, value):
    write_json(tmp_path / "spec.json", asdict(GenSpec()))
    payload = json.loads((tmp_path / "spec.json").read_text())
    payload[field] = value
    (tmp_path / "spec.json").write_text(json.dumps(payload))
    result = run_process(["synthgen", "--spec", str(tmp_path / "spec.json"),
                          "--out", str(tmp_path / "out")])
    assert result.returncode == 1
    assert "Error:" in result.stderr and str(tmp_path / "spec.json") in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_input_file_is_an_error_not_a_traceback(tmp_path):
    missing = tmp_path / "missing.json"
    for args in (
        ["--manifest", str(missing), "--features", "x", "--canon", "y", "quantize"],
        ["synthgen", "--spec", str(missing), "--out", str(tmp_path / "out")],
    ):
        result = run_process(args)
        assert result.returncode == 1, result.stderr
        error = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
        assert len(error) == 1 and str(missing) in error[0], result.stderr
        assert "Traceback" not in result.stderr


def test_negative_weight_is_a_usage_error(workspace, tmp_path):
    """A negative, nan, inf or boolean weight, given as a flag or by PDSR_CONFIG, is a usage error."""
    _, flags = workspace
    commands = {
        "eval": ["eval", "--report", str(tmp_path / "r.json")],
        "match": ["match", "--probe", "id0001-c1-0"],
        "embed": ["embed", "--mode", "wf", "--out", str(tmp_path / "wf.bin")],
    }
    for weight in (-1.0, float("nan"), float("inf"), True):
        config = tmp_path / "config.json"  # NaN and Infinity are accepted JSON tokens
        config.write_text(json.dumps({name: {"weight": weight} for name in commands}))
        for name, command in commands.items():
            for result in (
                run_process(flags + command + ["--weight", str(weight)]),
                run_process(flags + command, PDSR_CONFIG=str(config)),
            ):
                assert result.returncode == 2, (name, weight, result.stderr)
                assert "--weight" in result.stderr, result.stderr
                assert "Traceback" not in result.stderr and "Warning" not in result.stderr


@pytest.mark.parametrize("config, expected", [
    ({"seed": True}, "--seed"),
    ({"seed": 1.9}, "--seed"),
    ({"seed": 3}, ProtocolConfig(seed=3)),
    ({"eval": {"weight": 2}}, ProtocolConfig(fusion_weight=2.0)),
    ({"strict": False}, ProtocolConfig(strict=False)),
], ids=["seed-true", "seed-float", "seed", "weight", "strict-false"])
def test_env_config_values_parse_as_their_flags_do(workspace, tmp_path, monkeypatch, config, expected):
    """A config value the flag would refuse is a usage error naming it; one it takes keeps its meaning."""
    _, flags = workspace
    (tmp_path / "config.json").write_text(json.dumps(config))
    seen = []
    monkeypatch.setattr(pdsr.cli, "evaluate", lambda *args: seen.append(args[3]) or pdsr.evaluation.evaluate(*args))
    result = CliRunner().invoke(main, flags + ["eval", "--report", str(tmp_path / "r.json")],
                                env={"PDSR_CONFIG": str(tmp_path / "config.json")})
    if isinstance(expected, str):
        assert result.exit_code == 2 and expected in result.output and not seen, result.output
    else:
        assert result.exit_code == 0 and seen == [expected], result.output


def _malformed_synth_features(source: Path, out: Path, case: str) -> None:
    if case == "dimension":  # 8 columns against the manifest's 16
        write_feature_matrix(out, read_feature_matrix(source)[:, :8])
    elif case == "rows":  # the index's last row is past the matrix
        write_feature_matrix(out, read_feature_matrix(source)[:-1])
    else:  # the writer refuses NaN, so patch row 0, column 0 of the stored bytes
        raw = bytearray(source.read_bytes())
        raw[_HEADER.size : _HEADER.size + 4] = struct.pack("<f", float("nan"))
        out.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "case, command",
    [
        ("dimension", ["eval", "--report", "{tmp}/r.json"]),
        ("rows", ["eval", "--report", "{tmp}/r.json"]),
        ("nan", ["eval", "--mode", "wf", "--report", "{tmp}/r.json"]),
        ("nan", ["embed", "--mode", "wf", "--out", "{tmp}/wf.bin"]),
        ("nan", ["match", "--probe", "id0001-c1-0", "--mode", "wf"]),
    ],
    ids=["dimension-eval", "rows-eval", "nan-eval", "nan-embed", "nan-match"],
)
def test_malformed_synthetic_matrix_is_an_error_not_a_traceback(workspace, tmp_path, case, command):
    root, flags = workspace
    synth = tmp_path / "synth-features.bin"
    _malformed_synth_features(root / "data" / "synth-features.bin", synth, case)
    flags = flags[:]
    flags[flags.index("--synth-features") + 1] = str(synth)
    result = run_process(flags + [arg.format(tmp=tmp_path) for arg in command])
    assert result.returncode == 1, result.stdout
    assert "Error:" in result.stderr and str(synth) in result.stderr, result.stderr
    assert "Traceback" not in result.stderr


def _with_manifest(workspace, path: Path, tracklets) -> list[str]:
    """The workspace flags, naming a copy of its manifest that holds `tracklets(old)`."""
    root, flags = workspace
    manifest = json.loads((root / "data" / "manifest.json").read_text())
    manifest["tracklets"] = tracklets(manifest["tracklets"])
    path.write_text(json.dumps(manifest))
    flags = flags[:]
    flags[flags.index("--manifest") + 1] = str(path)
    return flags


def _error_lines(result) -> list[str]:
    assert result.returncode == 1, result.stdout
    assert "Traceback" not in result.stderr, result.stderr
    return [line for line in result.stderr.splitlines() if line.startswith("Error:")]


@pytest.mark.parametrize("tracklets", [
    lambda old: [{**t, "identity": DISTRACTOR} for t in old],
    lambda old: [],
], ids=["all-distractors", "no-tracklets"])
def test_eval_with_nothing_to_probe_is_an_error_line(workspace, tmp_path, tracklets):
    flags = _with_manifest(workspace, tmp_path / "manifest.json", tracklets)
    result = run_process(flags + ["eval", "--report", str(tmp_path / "r.json")])
    assert _error_lines(result) == ["Error: dataset has no non-distractor identity to probe"]


@pytest.mark.parametrize("command, error, scale", [
    (["match", "--probe", "id0001-c1-0", "--weight", "1e308"], "tracklet 'dx0000-c0': its vector norm overflowed", 1),
    (["eval", "--mode", "wf", "--weight", "1e308", "--report", "{tmp}/r.json"],
     "tracklet 'dx0000-c0': its vector norm overflowed", 1),
    (["embed", "--mode", "wf", "--weight", "1e39", "--out", "{tmp}/wf.bin"],
     "feature matrix contains values that are not finite in float32", 1),
    # Features x10: w * mean itself overflows, before any norm is taken.
    (["match", "--probe", "id0001-c1-0", "--weight", "1e308"], "tracklet 'dx0000-c0': its vector norm overflowed", 10),
    (["eval", "--mode", "wf", "--weight", "1e308", "--report", "{tmp}/r.json"],
     "tracklet 'dx0000-c0': its vector norm overflowed", 10),
    (["embed", "--mode", "wf", "--weight", "1e308", "--out", "{tmp}/wf.bin"],
     "feature matrix contains values that are not finite in float32", 10),
], ids=["match", "eval", "embed", "match-x10", "eval-x10", "embed-x10"])
def test_a_weight_that_overflows_is_an_error_line(workspace, tmp_path, tmp_path_factory, command, error, scale):
    """A finite weight whose fused vectors overflow a norm, or float32, is refused before any output."""
    root, flags = workspace
    if scale != 1:
        scaled = tmp_path_factory.mktemp("scaled") / "features.bin"
        write_feature_matrix(scaled, read_feature_matrix(root / "data" / "features.bin") * scale)
        flags = flags[:]
        flags[flags.index("--features") + 1] = str(scaled)
    result = run_process(flags + [arg.format(tmp=tmp_path) for arg in command])
    assert _error_lines(result) == [f"Error: {error}"]
    assert "RuntimeWarning" not in result.stderr and result.stdout == "", result.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", list(EvalMode), ids=lambda m: m.value)
def test_eval_scores_and_reports_cameras_of_any_integer_size(workspace, tmp_path, mode):
    """Cameras -3 and 2**63 (beyond int64) rank as 0 and 1 do, and the reports keep both ids exactly."""
    root, _ = workspace
    relabel = {0: -3, 1: 2**63}
    flags = _with_manifest(workspace, tmp_path / "manifest.json",
                           lambda old: [{**t, "camera": relabel[t["camera"]]} for t in old])
    report_path, csv_path = tmp_path / "r.json", tmp_path / "r.csv"
    run(flags + ["eval", "--mode", mode.value, "--report", str(report_path), "--csv", str(csv_path)])
    data = root / "data"
    report = evaluate(load_dataset(tmp_path / "manifest.json", data / "features.bin"),
                      load_canon(data / "canon.json"),
                      file_backed_provider(data / "synth-index.tsv", data / "synth-features.bin"),
                      ProtocolConfig(), mode)
    original = _evaluated_in_process(root, mode)
    results = tuple(replace(r, camera=relabel[r.camera]) for r in original.probe_results)
    assert report == replace(original, camera_ids=(-3, 2**63), probe_results=results)
    written = json.loads(report_path.read_text(encoding="utf-8"))
    assert written == report_to_dict(report) and written["camera_ids"] == [-3, 2**63]
    assert "camera_pair_map,-3->9223372036854775808," in csv_path.read_text(encoding="utf-8")


def test_match_with_no_other_camera_is_an_error_line(workspace, tmp_path):
    flags = _with_manifest(workspace, tmp_path / "manifest.json", lambda old: [{**t, "camera": 0} for t in old])
    result = run_process(flags + ["match", "--probe", "id0000-c0-0"])
    assert _error_lines(result) == ["Error: no tracklet from another camera to rank"]


def test_embed_with_no_tracklets_is_an_error_line(workspace, tmp_path):
    flags = _with_manifest(workspace, tmp_path / "manifest.json", lambda old: [])
    for mode in (["--mode", "wf"], ["--mode", "wpr", "--index", str(tmp_path / "wpr.tsv")]):
        result = run_process(flags + ["embed", "--out", str(tmp_path / "out.bin")] + mode)
        assert _error_lines(result) == ["Error: no tracklets to pool"], mode
    quantized = run(flags + ["quantize"]).output.splitlines()
    assert quantized[0] == "0 frames: 0 assigned, 0 unassignable"


def test_tracklet_without_assignable_frame_fails_only_wpr(workspace, tmp_path):
    root, flags = workspace
    data = root / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    victim = manifest["tracklets"][0]
    for f in victim["frames"]:  # every frame shows only 3 joints
        for joint in f["keypoints"][3:]:
            joint[2] = 0
    blind = tmp_path / "blind.json"
    blind.write_text(json.dumps(manifest))
    flags = flags[:]
    flags[flags.index("--manifest") + 1] = str(blind)
    run(flags + ["embed", "--mode", "wf", "--out", str(tmp_path / "wf.bin")])
    for mode in ("baseline", "wf"):
        run(flags + ["match", "--probe", victim["tracklet_id"], "--mode", mode])
    result = CliRunner().invoke(
        main, flags + ["embed", "--mode", "wpr", "--out", str(tmp_path / "wpr.bin"),
                       "--index", str(tmp_path / "wpr.tsv")]
    )
    assert result.exit_code == 1
    assert victim["tracklet_id"] in result.output and "canonical pose" in result.output


def test_match_modes_all_run(workspace, tmp_path):
    _, flags = workspace
    for mode in ("baseline", "wf", "wpr", "wf+wpr"):
        result = run(flags + ["match", "--probe", "id0001-c1-0",
                              "--mode", mode, "--top", "3"])
        assert f"mode {mode}" in result.output


# blake2s digests of CLI outputs on the dataset `_digest_inputs` writes.
# They pin the exact bytes: a refactor of pooling, fusion or the synthetic
# fetch must leave every output file unchanged.
OUTPUT_DIGESTS = {
    "assign.tsv": "6cd87a81180ac4df5ee74c9194842ef84b50eefde135d6f7f3b324fb8a251ff5",
    "wf.bin": "763aadaef53ea1a67cc49e1a72d848e635aea905164cede897508c6321654a22",
    "wf-ids.tsv": "37e3c8df1afdd8fcb78367a94918349665eeb6544e2155bca89297ec4fd11b3b",
    "wpr.bin": "08d30cef6ab847c3dd8ee009a4f5ec4448912e65e7243a05ed7effa5f98aad92",
    "wpr.tsv": "b3ba4c7fdf069cf640c216445ff5dcaceec5ef67fba7a4f93c8e294b272698e8",
    "wf-lenient.bin": "5d4f34b0cd32c3e8641d916985dadd47586e9964ee8336e4c6492ca9832dc200",
}


def _digest_inputs(root: Path) -> list[str]:
    """Write a small planted dataset and return the global flags naming it.

    Cameras record different pose subsets, every third frame shows only 3
    joints (unassignable), and a second synthetic index lacks some keys.
    """
    gen = generate(GenSpec(identities=5, cameras=3, frames_per_tracklet=(3, 7),
                           feature_dim=12, num_poses=4, pose_effect_scale=0.4,
                           noise_sigma=0.1, pose_jitter=0.02,
                           pose_visibility=((1, 2), (2, 3, 4), (1, 4)),
                           distractors=2, seed=23))
    k = gen.dataset.joint_count
    three_joints = np.arange(k) < 3
    tracklets = [
        replace(t, frames=tuple(
            replace(f, pose=PoseVector(f.pose.joints, three_joints)) if f.frame_id % 3 == 1 else f
            for f in t.frames
        ))
        for t in gen.dataset.tracklets
    ]
    save_dataset(replace(gen.dataset, tracklets=tracklets),
                 root / "manifest.json", root / "features.bin")
    save_canon(gen.canon, root / "canon.json")
    index, rows = {}, []
    for t in tracklets:
        for j in gen.canon.indices:
            index[(t.tracklet_id, j)] = len(rows)
            rows.append(gen.provider.query(t.tracklet_id, -1, j))
    write_feature_matrix(root / "synth-features.bin", np.stack(rows))
    write_synth_index(index, root / "synth-index.tsv")
    partial = {key: row for key, row in index.items() if row % 5 != 2}
    write_synth_index(partial, root / "synth-partial.tsv")
    return ["--manifest", str(root / "manifest.json"), "--features", str(root / "features.bin"),
            "--canon", str(root / "canon.json"),
            "--synth-features", str(root / "synth-features.bin")]


def test_cli_outputs_are_byte_identical_to_recorded_digests(tmp_path):
    flags = _digest_inputs(tmp_path)
    full = flags + ["--synth-index", str(tmp_path / "synth-index.tsv")]
    out = {name: tmp_path / name for name in OUTPUT_DIGESTS}
    run(flags + ["quantize", "--out", str(out["assign.tsv"])])
    run(full + ["embed", "--mode", "wf", "--out", str(out["wf.bin"]),
                "--ids", str(out["wf-ids.tsv"])])
    run(full + ["embed", "--mode", "wpr", "--out", str(out["wpr.bin"]),
                "--index", str(out["wpr.tsv"])])
    run(flags + ["--synth-index", str(tmp_path / "synth-partial.tsv"), "--lenient",
                 "embed", "--mode", "wf", "--out", str(out["wf-lenient.bin"])])
    assert "\t-\tinf\n" in out["assign.tsv"].read_text()
    digests = {name: hashlib.blake2s(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert digests == OUTPUT_DIGESTS


# blake2s digests of the eval and match outputs on the same dataset,
# recorded before ranking moved to one sort per probe row.
EVAL_DIGESTS = {
    "report.json": "f4981f1acc451596b1cc0bb638cd5712b5df78c67a316c22245c5c18d24e8b17",
    "report.csv": "c7638fe6859315983b57b4c6feabaf7d9a8e6c569851e9c60b839e657c0b6022",
    "report-wpr.json": "6483834b9d362cdaa1c853d744da4bd829c089e1ae1f3e5f298fa922759bc768",
    "match.tsv": "0c113af60021bc6b951f36511e7b8f0c72daa7a1cb3442452af5a40f4874eea7",
}


def test_eval_and_match_outputs_are_byte_identical_to_recorded_digests(tmp_path):
    full = _digest_inputs(tmp_path) + ["--synth-index", str(tmp_path / "synth-index.tsv")]
    out = {name: tmp_path / name for name in EVAL_DIGESTS}
    run(full + ["eval", "--mode", "wf+wpr", "--report", str(out["report.json"]),
                "--csv", str(out["report.csv"])])
    run(full + ["eval", "--mode", "wpr", "--report", str(out["report-wpr.json"])])
    run(full + ["match", "--probe", "id0001-c1-0", "--out", str(out["match.tsv"])])
    digests = {name: hashlib.blake2s(path.read_bytes()).hexdigest() for name, path in out.items()}
    assert digests == EVAL_DIGESTS


# blake2s digests of the eval reports on the pose-disjoint stressor of criteria
# 5-6 at seed 0.  Adding its baseline APs with the builtin `sum` of Python 3.12
# and later (compensated summation) moves the mAP's last bit; these bytes hold
# on every Python.
STRESSOR_DIGESTS = {
    "baseline.json": "12411208d4c5e0a47b1dd499cac941e5a70785ba7d07f2d51ed7efedc3c83643",
    "baseline.csv": "46346969ffb4347380d7ebd10f5b14de57a8f3c690adf2ae85890108233dc496",
    "wf+wpr.json": "a7d4166365ef342fb5741ef7f6305f4327a2715a9efc04f43dc8eaa721884df5",
    "wf+wpr.csv": "33085658b655fbff9c27c8b9b5d7221a7b48cc7ef016ed2e7c4a636e84597268",
}


def test_stressor_reports_are_byte_identical_to_recorded_digests(tmp_path):
    write_json(tmp_path / "spec.json", asdict(stressor_spec(0)))
    run(["synthgen", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")])
    flags = [arg for name in ("manifest.json", "features.bin", "canon.json", "synth-index.tsv", "synth-features.bin")
             for arg in (f"--{name.split('.')[0]}", str(tmp_path / "data" / name))]
    for mode in ("baseline", "wf+wpr"):
        run(flags + ["eval", "--mode", mode, "--report", str(tmp_path / f"{mode}.json"),
                     "--csv", str(tmp_path / f"{mode}.csv")])
    digests = {name: hashlib.blake2s((tmp_path / name).read_bytes()).hexdigest()
               for name in ("baseline.json", "baseline.csv", "wf+wpr.json", "wf+wpr.csv")}
    assert digests == STRESSOR_DIGESTS


def test_eval_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    """The report JSON and CSV bytes of every mode are the same on one BLAS thread, two, or the default."""
    spec = GenSpec(identities=60, cameras=2, tracklets_per_identity_per_camera=2, frames_per_tracklet=(4, 8),
                   feature_dim=128, num_poses=4, pose_effect_scale=0.4, noise_sigma=0.2, distractors=8, seed=3)
    write_json(tmp_path / "spec.json", asdict(spec))
    run(["synthgen", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")])
    flags = [arg for name in ("manifest.json", "features.bin", "canon.json", "synth-index.tsv", "synth-features.bin")
             for arg in (f"--{name.split('.')[0]}", str(tmp_path / "data" / name))]
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    for mode in ("baseline", "wf", "wpr", "wf+wpr"):
        outputs = set()
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}):
            report, csv = tmp_path / "r.json", tmp_path / "r.csv"
            result = run_process(flags + ["eval", "--mode", mode, "--report", str(report), "--csv", str(csv)],
                                 **threads)
            assert result.returncode == 0, result.stderr
            outputs.add((report.read_bytes(), csv.read_bytes()))
        assert len(outputs) == 1, mode


DEEP_JSON = "[" * 100_000 + "]" * 100_000


#: Config file texts that stand for no file at that path, or a directory there.
MISSING, DIRECTORY = object(), object()
_KEYS = "canon, embed, eval, features, manifest, match, quantize, seed, strict, synth_features, synth_index, synthgen"


@pytest.mark.parametrize("text, problem", [
    (DEEP_JSON, "nested too deeply"),
    ('{"seed": 0, "seed": 5}', "'seed' appears twice"),
    (MISSING, "cannot read PDSR_CONFIG="),
    (DIRECTORY, "cannot read PDSR_CONFIG="),
    ("[1, 2]", "the top level is not an object"),
    ('"x"', "the top level is not an object"),
    ("3", "the top level is not an object"),
    ('{"eval": 5}', "key 'eval' is not an object"),
    ('{"seed": [1]}', "key 'seed' must hold one value, not [1]"),
    ('{"strict": [1]}', "key 'strict' must hold one value, not [1]"),
    ('{"eval": {"weight": [1]}}', "key 'eval.weight' must hold one value, not [1]"),
    ('{"match": {"top": {"n": 1}}}', "key 'match.top' must hold one value, not {'n': 1}"),
    ('{"manifest": 7}', "key 'manifest' names a path: a string or null, not 7"),
    ('{"eval": {"csv": "r.csv"}}', "key 'eval.csv' is not one of csv_path, mode, report_path, weight"),
    ('{"synth-index": "s.tsv"}', f"key 'synth-index' is not one of {_KEYS}"),
], ids=["too-deep", "repeated-key", "missing-file", "directory", "array", "string", "number",
        "section-not-object", "array-value", "array-flag", "array-in-section", "object-in-section",
        "number-path", "flag-spelling", "dashed-global"])
def test_env_config_too_deep_or_with_a_repeated_key_is_an_error_line(tmp_path, text, problem):
    config_path = tmp_path / "config.json"
    if text is DIRECTORY:
        config_path.mkdir()
    elif text is not MISSING:
        config_path.write_text(text)
    result = run_process(["--help"], PDSR_CONFIG=str(config_path))
    error = _error_lines(result)
    assert len(error) == 1 and str(config_path) in error[0], result.stderr
    assert problem in error[0], result.stderr

