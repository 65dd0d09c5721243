"""Pose-regulated tracklet matching and retrieval evaluation at the feature level.

Tracklets are matched through two complementary scores: a weighted fusion
of real and synthetic per-pose features into one embedding, and a
pose-by-pose comparison of the two sequences aligned over the union of
their observed canonical poses.  Deep models never run in-process; synthetic
features arrive through the SyntheticFeatureProvider contract.

This namespace exports the supported API; everything else is imported
from its own module (e.g. `pdsr.dataset_io.save_dataset`).
"""

from .dataset_io import load_canon, load_dataset, report_to_dict
from .errors import (
    AllFramesUnassignableError,
    EmptyUnionError,
    FileFormatError,
    InvalidDatasetError,
    MissingSyntheticError,
    PdsrError,
    ZeroVectorError,
)
from .evaluation import EvalMode, EvalReport, ProtocolConfig, evaluate
from .generator import GenSpec, PlantedProvider, generate
from .model import CanonicalPoseSet, Dataset, Tracklet, validate_dataset
from .providers import FileBackedProvider, SyntheticFeatureProvider, file_backed_provider

__all__ = [
    "AllFramesUnassignableError",
    "CanonicalPoseSet",
    "Dataset",
    "EmptyUnionError",
    "EvalMode",
    "EvalReport",
    "FileBackedProvider",
    "FileFormatError",
    "GenSpec",
    "InvalidDatasetError",
    "MissingSyntheticError",
    "PdsrError",
    "PlantedProvider",
    "ProtocolConfig",
    "SyntheticFeatureProvider",
    "Tracklet",
    "ZeroVectorError",
    "evaluate",
    "file_backed_provider",
    "generate",
    "load_canon",
    "load_dataset",
    "report_to_dict",
    "validate_dataset",
]
