"""Every function in src/pdsr is run by a command, a script or the library, or is allowlisted.

The commands, both experiment scripts (at `--seeds 2`) and one command
under a PDSR_CONFIG file run in process on a tiny generated dataset, with
`sys.setprofile` recording each code object called.  Hits map to the
definitions `ast` finds, keyed by file and first line (a decorated
function's first line is its first decorator's), since Python 3.10's code
objects carry no qualified name.  What no run reaches must be exactly
`UNREACHED`, each entry with its reason.
"""

import ast
import gc
import runpy
import sys
from dataclasses import asdict
from pathlib import Path

from click.testing import CliRunner

import pdsr
from pdsr.cli import main
from pdsr.dataset_io import write_json
from pdsr.generator import GenSpec

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(pdsr.__file__).resolve().parent

ERROR_PATH = "runs only on bad input, to refuse it"
HAND_BUILT = "the hand-built-Tracklet path (FrameRecords in and out), which bench/workloads.py uses"
UNREACHED = {
    "dataset_io._decode_manifest.<locals>.fail": ERROR_PATH,
    "dataset_io._decode_manifest.<locals>.tracklet_of": ERROR_PATH,
    "errors.InvalidDatasetError.__init__": ERROR_PATH,
    "model.ValidationIssue.__str__": ERROR_PATH,
    "model.validate_dataset.<locals>.add": ERROR_PATH,
    "model.PackedFrames.stack": HAND_BUILT,
    "model.PackedFrames.__getitem__": HAND_BUILT,
    "providers.SyntheticFeatureProvider.query": "abstract: each provider defines its own",
    "providers.FileBackedProvider.query": "runs only on a refusal its `fetch` hands to the base `fetch`",
}


def definitions():
    """(file, first line) -> `module.qualname` of every function in the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = name
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{path.stem}.")
    return found


def cli(*args, **env):
    result = CliRunner().invoke(main, list(map(str, args)), env=env)
    gc.unfreeze()  # what `main` froze
    assert result.exit_code == 0, result.output


def script(name, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, "--seeds", "2"])
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")


def survey(tmp_path, monkeypatch):
    spec = GenSpec(identities=3, cameras=2, frames_per_tracklet=(3, 5), feature_dim=8, joint_count=6,
                   num_poses=3, pose_effect_scale=0.4, noise_sigma=0.1, distractors=1, seed=2)
    write_json(tmp_path / "spec.json", asdict(spec))
    data = tmp_path / "data"
    cli("synthgen", "--spec", tmp_path / "spec.json", "--out", data)
    inputs = ["--manifest", data / "manifest.json", "--features", data / "features.bin",
              "--canon", data / "canon.json", "--synth-index", data / "synth-index.tsv",
              "--synth-features", data / "synth-features.bin"]
    out = tmp_path / "out"
    out.mkdir()
    cli(*inputs, "quantize", "--out", out / "assign.tsv")  # a cold load, which keeps the decode
    cli(*inputs, "embed", "--mode", "wf", "--out", out / "wf.bin", "--ids", out / "ids.tsv")
    cli(*inputs, "embed", "--mode", "wpr", "--out", out / "wpr.bin", "--index", out / "wpr.tsv")
    for mode in ("baseline", "wf", "wpr", "wf+wpr"):
        cli(*inputs, "eval", "--mode", mode, "--report", out / "r.json", "--csv", out / "r.csv")
        cli(*inputs, "--lenient", "match", "--probe", "id0001-c1-0", "--mode", mode,
            "--out", out / "match.tsv")
    write_json(tmp_path / "config.json", {"seed": 1, "eval": {"weight": 2}})
    cli(*inputs, "eval", "--report", out / "r.json", PDSR_CONFIG=str(tmp_path / "config.json"))
    for name in ("run_ablation.py", "run_weight_sweep.py"):
        script(name, monkeypatch)


def test_only_allowlisted_functions_go_unreached(tmp_path, monkeypatch, capsys):
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        survey(tmp_path, monkeypatch)
    finally:
        sys.setprofile(None)
        sys.modules.pop("stressor", None)  # the scripts' helper module
    capsys.readouterr()

    found = definitions()
    reached = {(Path(code.co_filename).resolve(), code.co_firstlineno) for code in codes}
    unreached = {name for key, name in found.items() if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], "unreached and not allowlisted"
    assert sorted(UNREACHED.keys() - unreached) == [], "allowlisted, yet reached"
