"""The supported top-level API, and every pdsr import of the benchmark and scripts."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import pdsr

ROOT = Path(__file__).resolve().parent.parent
# Code outside the package that imports it; its imports must keep resolving.
CALLERS = sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py"), ROOT / "tests/conftest.py"])

SUPPORTED = [
    "evaluate", "EvalMode", "ProtocolConfig", "EvalReport", "report_to_dict",
    "Dataset", "Tracklet", "FrameRecord", "PoseVector", "CanonicalPoseSet",
    "load_dataset", "load_canon", "validate_dataset",
    "SyntheticFeatureProvider", "FileBackedProvider", "file_backed_provider",
    "PlantedProvider", "GenSpec", "generate",
    "PdsrError", "FileFormatError", "MissingSyntheticError",
    "AllFramesUnassignableError", "EmptyUnionError", "ZeroVectorError",
]


def test_all_is_the_supported_api():
    assert len(pdsr.__all__) == len(set(pdsr.__all__)) == 25
    assert set(pdsr.__all__) == set(SUPPORTED)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from pdsr import *", namespace)
    assert set(SUPPORTED) <= set(namespace)


def test_protocol_config_has_three_settings():
    fields = [f.name for f in dataclasses.fields(pdsr.ProtocolConfig)]
    assert fields == ["seed", "fusion_weight", "strict"]


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
