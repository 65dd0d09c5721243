"""Pose-regulated tracklet matching and retrieval evaluation at the feature level.

Tracklets are matched through two complementary scores: a weighted fusion
of real and synthetic per-pose features into one embedding, and a
pose-by-pose comparison of the two sequences aligned over the union of
their observed canonical poses.  Deep models never run in-process; synthetic
features arrive through the SyntheticFeatureProvider contract.
"""

from .dataset_io import (
    load_canon,
    load_dataset,
    read_feature_matrix,
    read_pose_embedding_index,
    read_synth_index,
    report_to_dict,
    save_canon,
    save_dataset,
    write_feature_matrix,
    write_pose_embeddings,
    write_synth_index,
)
from .errors import (
    AllFramesUnassignableError,
    EmptyUnionError,
    FileFormatError,
    MissingSyntheticError,
    PdsrError,
    ZeroVectorError,
)
from .evaluation import (
    EvalMode,
    EvalReport,
    ProbeCase,
    ProbeResult,
    ProtocolConfig,
    build_protocol,
    camera_confusion,
    cmc_curve,
    evaluate,
    fuse_scores,
    rank_gallery,
    score_matrix,
)
from .fusion import (
    DEFAULT_FUSION_WEIGHT,
    baseline_embedding,
    synthetic_mean,
    wf_embedding,
)
from .generator import (
    GeneratedData,
    GenSpec,
    PlantedProvider,
    PlantedTruth,
    generate,
    load_gen_spec,
    save_gen_spec,
)
from .model import (
    DISTRACTOR,
    CanonicalPoseSet,
    Dataset,
    FrameRecord,
    PoseNormalizedEmbedding,
    PoseVector,
    Tracklet,
    ValidationIssue,
    validate_dataset,
)
from .providers import (
    FileBackedProvider,
    RepresentativeChoice,
    Strategy,
    StubProvider,
    SyntheticFeatureProvider,
    choose_representative,
    file_backed_provider,
)
from .quantizer import (
    DEFAULT_MIN_COMMON_JOINTS,
    PoseGroups,
    assignment_distances,
    group_by_pose,
    nearest_poses,
)
from .regulation import (
    pose_normalize,
    wpr_score_matrix,
)
from .seeding import rng_for, stable_key
from .similarity import cosine_matrix, unit_rows

__all__ = [
    "AllFramesUnassignableError",
    "CanonicalPoseSet",
    "DEFAULT_FUSION_WEIGHT",
    "DEFAULT_MIN_COMMON_JOINTS",
    "DISTRACTOR",
    "Dataset",
    "EmptyUnionError",
    "EvalMode",
    "EvalReport",
    "FileBackedProvider",
    "FileFormatError",
    "FrameRecord",
    "GenSpec",
    "GeneratedData",
    "MissingSyntheticError",
    "PdsrError",
    "PlantedProvider",
    "PlantedTruth",
    "PoseGroups",
    "PoseNormalizedEmbedding",
    "PoseVector",
    "ProbeCase",
    "ProbeResult",
    "ProtocolConfig",
    "RepresentativeChoice",
    "Strategy",
    "StubProvider",
    "SyntheticFeatureProvider",
    "Tracklet",
    "ValidationIssue",
    "ZeroVectorError",
    "assignment_distances",
    "baseline_embedding",
    "build_protocol",
    "camera_confusion",
    "choose_representative",
    "cmc_curve",
    "cosine_matrix",
    "evaluate",
    "file_backed_provider",
    "fuse_scores",
    "generate",
    "group_by_pose",
    "load_canon",
    "load_dataset",
    "load_gen_spec",
    "nearest_poses",
    "pose_normalize",
    "rank_gallery",
    "read_feature_matrix",
    "read_pose_embedding_index",
    "read_synth_index",
    "report_to_dict",
    "rng_for",
    "save_canon",
    "save_dataset",
    "save_gen_spec",
    "score_matrix",
    "stable_key",
    "write_feature_matrix",
    "write_pose_embeddings",
    "write_synth_index",
    "synthetic_mean",
    "unit_rows",
    "validate_dataset",
    "wf_embedding",
    "wpr_score_matrix",
]
