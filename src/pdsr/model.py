"""Domain types: frames, tracklets, canonical poses, pooled pose records.

All types are immutable after construction and safe to share across
concurrent readers.  Construction fixes the one canonical order every
score and report uses: a Dataset holds its tracklets by ascending id and
a Tracklet its frames by ascending frame id (stable sorts, so duplicates
keep their storage order).  Otherwise construction is permissive (so that
arbitrary files can be represented in memory); `validate_dataset` reports
invariant violations instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Reserved identity label for tracklets that never count as positives.
DISTRACTOR = "DISTRACTOR"


@dataclass(frozen=True, eq=False)
class PoseVector:
    """2D body-joint coordinates in normalized image units, with visibility.

    `joints` has shape (k, 2); coordinates of visible joints are expected in
    [0, 1] x [0, 1].  Coordinates of invisible joints carry no meaning.
    """

    joints: np.ndarray
    visibility: np.ndarray

    def __post_init__(self) -> None:
        joints = np.asarray(self.joints, dtype=np.float64)
        vis = np.asarray(self.visibility, dtype=bool)
        if joints.ndim != 2 or joints.shape[1] != 2:
            raise ValueError(f"joints must have shape (k, 2), got {joints.shape}")
        if vis.shape != (joints.shape[0],):
            raise ValueError("visibility length must match joint count")
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "visibility", vis)

    @property
    def joint_count(self) -> int:
        return self.joints.shape[0]


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """One frame: its ordinal id, feature vector, and keypoint pose."""

    frame_id: int
    feature: np.ndarray
    pose: PoseVector

    def __post_init__(self) -> None:
        feature = np.asarray(self.feature, dtype=np.float64)
        if feature.ndim != 1:
            raise ValueError(f"feature must be a 1-D vector, got shape {feature.shape}")
        object.__setattr__(self, "feature", feature)


@dataclass(frozen=True, eq=False)
class Tracklet:
    """The frames of one observed person from one camera, by ascending frame id."""

    tracklet_id: str
    identity: str
    camera: int
    frames: tuple[FrameRecord, ...]
    probe: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(sorted(self.frames, key=lambda f: f.frame_id)))

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def is_distractor(self) -> bool:
        return self.identity == DISTRACTOR


@dataclass(frozen=True, eq=False)
class CanonicalPoseSet:
    """The M reference keypoint vectors quantizing the pose space.

    Pose indices are 1-based: index j refers to poses[j - 1].
    """

    poses: tuple[PoseVector, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "poses", tuple(self.poses))
        if not self.poses:
            raise ValueError("canonical pose set must contain at least one pose")

    def __len__(self) -> int:
        return len(self.poses)

    def pose(self, index: int) -> PoseVector:
        if not 1 <= index <= len(self.poses):
            raise IndexError(f"pose index {index} out of range 1..{len(self.poses)}")
        return self.poses[index - 1]

    @property
    def indices(self) -> range:
        return range(1, len(self.poses) + 1)


@dataclass(frozen=True, eq=False)
class TrackletMeans:
    """Real-frame means of T tracklets and the frames their synthetics condition on.

    Row t belongs to `tracklet_ids[t]`.  Each tracklet's representative
    frame is drawn once, here, so every synthetic query of a run
    conditions on the same frame.
    """

    tracklet_ids: tuple[str, ...]
    representative_frame_ids: tuple[int, ...]
    real_means: np.ndarray  # (T, d) mean feature of all frames


@dataclass(frozen=True, eq=False)
class PoseRecord(TrackletMeans):
    """TrackletMeans plus per-canonical-pose pooled features.

    Along the pose axis, column j - 1 belongs to canonical pose j.  A pose
    no frame of a tracklet maps to has a zero vector, frequency 0 and
    `observed` False.
    """

    vectors: np.ndarray  # (T, M, d) mean feature of the frames assigned to each pose
    frequencies: np.ndarray  # (T, M) fraction of assignable frames per pose
    observed: np.ndarray  # (T, M) bool


@dataclass(frozen=True, eq=False)
class Dataset:
    """A loaded or generated dataset: tracklets by ascending id, plus manifest metadata."""

    name: str
    feature_dim: int
    joint_count: int
    num_poses: int
    camera_count: int
    tracklets: tuple[Tracklet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "tracklets", tuple(sorted(self.tracklets, key=lambda t: t.tracklet_id))
        )

    def cameras(self) -> tuple[int, ...]:
        return tuple(sorted({t.camera for t in self.tracklets}))

    def by_id(self) -> dict[str, Tracklet]:
        return {t.tracklet_id: t for t in self.tracklets}


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation found by validate_dataset."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def validate_dataset(
    tracklets: Sequence[Tracklet],
    canon: CanonicalPoseSet,
    *,
    expected_dim: int | None = None,
    expected_joints: int | None = None,
) -> list[ValidationIssue]:
    """Check every dataset invariant; the dataset is accepted iff the report is empty.

    Reports (not raises) dimension mismatches, empty tracklets, non-finite or
    all-zero features, out-of-range visible coordinates, duplicate ids, and
    canonical-set defects.
    """
    issues: list[ValidationIssue] = []

    def add(code: str, message: str) -> None:
        issues.append(ValidationIssue(code, message))

    canon_k = canon.poses[0].joint_count
    for j, p in enumerate(canon.poses, start=1):
        if p.joint_count != canon_k:
            add("canon_joint_mismatch", f"canonical pose {j} has k={p.joint_count}, expected {canon_k}")
    for a in range(len(canon.poses)):
        for b in range(a + 1, len(canon.poses)):
            pa, pb = canon.poses[a], canon.poses[b]
            if pa.joint_count != pb.joint_count:
                continue
            common = pa.visibility & pb.visibility
            if common.any() and np.array_equal(pa.joints[common], pb.joints[common]):
                add("canon_duplicate", f"canonical poses {a + 1} and {b + 1} coincide on their common joints")

    if expected_joints is not None and canon_k != expected_joints:
        add("canon_joint_mismatch", f"canonical set has k={canon_k}, manifest says {expected_joints}")

    dims = [t.frames[0].feature.shape[0] for t in tracklets if t.frames]
    ref_dim = expected_dim if expected_dim is not None else (dims[0] if dims else None)
    ref_k = expected_joints if expected_joints is not None else canon_k

    seen_ids: set[str] = set()
    for t in tracklets:
        if t.tracklet_id in seen_ids:
            add("duplicate_tracklet_id", f"tracklet id {t.tracklet_id!r} appears more than once")
        seen_ids.add(t.tracklet_id)

        if not t.frames:
            add("empty_tracklet", f"tracklet {t.tracklet_id!r} has no frames")
            continue

        frame_ids = [f.frame_id for f in t.frames]
        if len(set(frame_ids)) != len(frame_ids):
            add("duplicate_frame_id", f"tracklet {t.tracklet_id!r} has duplicate frame ids")

        for f in t.frames:
            where = f"tracklet {t.tracklet_id!r} frame {f.frame_id}"
            if ref_dim is not None and f.feature.shape[0] != ref_dim:
                add("dimension_mismatch", f"{where}: feature dim {f.feature.shape[0]} != {ref_dim}")
            if not np.isfinite(f.feature).all():
                add("nonfinite_feature", f"{where}: feature contains NaN or Inf")
            elif not f.feature.any():
                add("zero_feature", f"{where}: all-zero feature vector")
            if f.pose.joint_count != ref_k:
                add("joint_count_mismatch", f"{where}: k={f.pose.joint_count} != {ref_k}")
            vis = f.pose.visibility
            if vis.any():
                coords = f.pose.joints[vis]
                if not np.isfinite(coords).all() or (coords < 0.0).any() or (coords > 1.0).any():
                    add("coordinate_out_of_range", f"{where}: visible joint outside [0, 1] x [0, 1]")

    return issues
