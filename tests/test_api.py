"""The supported top-level API, and every pdsr name the benchmark and scripts import or trace."""

import ast
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

import pdsr

ROOT = Path(__file__).resolve().parent.parent
# Code outside the package that imports it; its imports must keep resolving.
CALLERS = sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py"), ROOT / "tests/conftest.py"])

SUPPORTED = [
    "evaluate", "EvalMode", "ProtocolConfig", "EvalReport", "report_to_dict",
    "Dataset", "Tracklet", "CanonicalPoseSet",
    "load_dataset", "load_canon", "validate_dataset",
    "SyntheticFeatureProvider", "FileBackedProvider", "file_backed_provider",
    "PlantedProvider", "GenSpec", "generate",
    "PdsrError", "FileFormatError", "InvalidDatasetError", "MissingSyntheticError",
    "AllFramesUnassignableError", "EmptyUnionError", "ZeroVectorError",
]


def test_all_is_the_supported_api():
    assert len(pdsr.__all__) == len(set(pdsr.__all__)) == 24
    assert set(pdsr.__all__) == set(SUPPORTED)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from pdsr import *", namespace)
    assert set(SUPPORTED) <= set(namespace)


def test_protocol_config_has_three_settings():
    fields = [f.name for f in dataclasses.fields(pdsr.ProtocolConfig)]
    assert fields == ["seed", "fusion_weight", "strict"]


# What src/pdsr may import: the standard library and pyproject.toml's two dependencies.
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "click", "pdsr"}


def test_package_imports_only_the_standard_library_numpy_and_click():
    outside = []
    for path in sorted((ROOT / "src/pdsr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import is pdsr's own
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {m}" for m in modules
                        if m.split(".")[0] not in ALLOWED_IMPORTS]
    assert outside == []


def _pdsr_imports(path: Path):
    """(module, name) for every pdsr import in a file; name None for `import pdsr.x`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "pdsr":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "pdsr")


@pytest.mark.parametrize("path", CALLERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_pdsr_import_of_bench_and_scripts_resolves(path):
    for module, name in _pdsr_imports(path):
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or ImportError


# The names bench/tracer.py patches that resolve, as (module, attribute).  A
# rename or deletion of one of them leaves its per-layer metric reading 0
# without any error, so each must keep resolving.
TRACED = [
    ("pdsr.dataset_io", "load_dataset"),
    ("pdsr.dataset_io", "load_canon"),
    ("pdsr.dataset_io", "save_report_json"),
    ("pdsr.dataset_io", "save_report_csv"),
    ("pdsr.dataset_io", "write_feature_matrix"),
    ("pdsr.dataset_io", "write_pose_embeddings"),
    ("pdsr.cli", "file_backed_provider"),
    ("pdsr.cli", "validate_dataset"),
    ("pdsr.cli", "pose_normalize"),
    ("pdsr.cli", "score_matrix"),
    ("pdsr.cli", "rank_gallery"),
    ("pdsr.cli", "evaluate"),
    ("pdsr.evaluation", "evaluate"),
    ("pdsr.evaluation", "build_protocol"),
    ("pdsr.evaluation", "score_matrix"),
    ("pdsr.evaluation", "rank_gallery"),
    ("pdsr.evaluation", "camera_confusion"),
    ("pdsr.evaluation", "pose_normalize"),
    ("pdsr.evaluation", "wpr_score_matrix"),
    ("pdsr.evaluation", "cosine_matrix"),
    ("pdsr.evaluation", "rng_for"),
    ("pdsr.providers", "rng_for"),
    ("pdsr.generator", "rng_for"),
]


def _tracer_patches() -> set[tuple[str, str]]:
    """(module, attribute) of every PATCHES entry in bench/tracer.py, read without importing it."""
    tree = ast.parse((ROOT / "bench/tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracer.py has no PATCHES table")


def test_every_traced_name_still_resolves():
    assert len(TRACED) == len(set(TRACED)) == 23
    assert set(TRACED) <= _tracer_patches()
    for module, attr in TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
