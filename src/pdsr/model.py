"""Domain types: frames, tracklets, canonical poses, pooled pose records.

All types are immutable after construction and safe to share across
concurrent readers.  Construction fixes the one canonical order every
score and report uses: a Dataset holds its tracklets by ascending id and
every Tracklet its frames by ascending frame id, however given (stable
sorts, so duplicates keep their storage order).  Otherwise construction
is permissive (so that arbitrary files can be represented in memory);
`validate_dataset` reports invariant violations instead of raising.

A Tracklet holds its frames packed (`PackedFrames`): frame ids (n,),
features (n, d), joints (n, k, 2) and visibility (n, k) in canonical order.
FrameRecords and PoseVectors are plain records: a Tracklet given them
stacks them once, and that step checks their shapes (one feature dimension
and one joint count for all).  A loaded or generated dataset's
tracklets are consecutive cuts of one block; `pack` reads them back as a
view of it, tracklet t on rows offsets[t]:offsets[t + 1].  The canon is
two arrays as well: joints (M, k, 2) and visibility (M, k).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

#: Reserved identity label for tracklets that never count as positives.
DISTRACTOR = "DISTRACTOR"
_BLOCK_FRAMES = 4096  # rows validate_dataset checks per array operation
_FIELDS = ("frame_ids", "features", "joints", "visibility")  # the arrays of PackedFrames
COUNTS = ("feature_dim", "joint_count", "num_poses", "camera_count")  # a Dataset's counts


def is_a(value: object, kind: type) -> bool:
    """Whether `value` is a `kind` (e.g. `Integral`, which NumPy's integers are) and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class PoseVector:
    """2D body-joint coordinates in normalized image units, with visibility.

    `joints` is (k, 2) and `visibility` (k,); coordinates of visible joints
    are expected in [0, 1] x [0, 1], those of invisible joints carry no
    meaning.  A plain record: a Tracklet checks the shapes as it stacks it.
    """

    joints: np.ndarray
    visibility: np.ndarray


@dataclass(frozen=True, eq=False)
class FrameRecord:
    """One frame: its ordinal id, (d,) feature vector, and keypoint pose; a plain record."""

    frame_id: int
    feature: np.ndarray
    pose: PoseVector


@dataclass(frozen=True, eq=False)
class PackedFrames:
    """Frames as arrays, one row each, read back as FrameRecord views.

    A cut (`rows`) remembers its `base` block and `start` row there.
    """

    frame_ids: np.ndarray  # (n,) int64
    features: np.ndarray  # (n, d)
    joints: np.ndarray  # (n, k, 2)
    visibility: np.ndarray  # (n, k) bool
    base: PackedFrames | None = field(default=None, repr=False)
    start: int = 0

    @classmethod
    def stack(cls, frames: Sequence[FrameRecord]) -> PackedFrames:
        """The records as one block; each holds a (d,) feature, (k, 2) joints and (k,) visibility.

        Records whose shapes differ from one another, or from those, are a ValueError.
        """
        if not frames:  # no frame to take a dimension or joint count from
            return cls(np.zeros(0, np.int64), np.zeros((0, 0)), np.zeros((0, 0, 2)), np.zeros((0, 0), bool))
        features = np.array([f.feature for f in frames], np.float64)
        joints = np.array([f.pose.joints for f in frames], np.float64)
        visibility = np.array([f.pose.visibility for f in frames], bool)
        if features.ndim != 2 or joints.ndim != 3 or joints.shape[2] != 2 or visibility.shape != joints.shape[:2]:
            raise ValueError(f"frames hold features {features.shape[1:]}, joints {joints.shape[1:]} and "
                             f"visibility {visibility.shape[1:]}, not (d,), (k, 2) and (k,)")
        return cls(np.array([f.frame_id for f in frames], np.int64), features, joints, visibility)

    def rows(self, start: int, stop: int) -> PackedFrames:
        cut, base = slice(start, stop), self if self.base is None else self.base
        return PackedFrames(*(getattr(self, f)[cut] for f in _FIELDS), base, self.start + start)

    def __len__(self) -> int:
        return self.frame_ids.shape[0]

    def __getitem__(self, i: int) -> FrameRecord:
        pose = PoseVector(self.joints[i], self.visibility[i])
        return FrameRecord(int(self.frame_ids[i]), self.features[i], pose)


@dataclass(frozen=True, eq=False)
class Tracklet:
    """The frames of one observed person from one camera, by ascending frame id.

    `frames` are PackedFrames or FrameRecords (stacked here).  Frames whose
    ids are not ascending are sorted by a stable argsort; ascending
    PackedFrames are kept as given, so a cut stays a view of its block.
    `tracklet_id` and `identity` are strs; `camera` (an integer) is held as
    an int and `probe` as a bool.  Other types are a TypeError.
    """

    tracklet_id: str
    identity: str
    camera: int
    frames: PackedFrames
    probe: bool = False

    def __post_init__(self) -> None:
        if not (isinstance(self.tracklet_id, str) and isinstance(self.identity, str)):
            name = "identity" if isinstance(self.tracklet_id, str) else "tracklet_id"
            raise TypeError(f"tracklet {self.tracklet_id!r}: {name} {getattr(self, name)!r} is not a string")
        if not is_a(self.camera, Integral):
            raise TypeError(f"tracklet {self.tracklet_id!r}: camera {self.camera!r} is not an integer")
        if not isinstance(self.probe, (bool, np.bool_)):
            raise TypeError(f"tracklet {self.tracklet_id!r}: probe {self.probe!r} is not a bool")
        object.__setattr__(self, "camera", int(self.camera))  # a NumPy integer as the int it holds
        object.__setattr__(self, "probe", bool(self.probe))
        frames = self.frames
        if not isinstance(frames, PackedFrames):
            try:
                frames = PackedFrames.stack(tuple(frames))
            except ValueError as exc:  # shapes that differ from frame to frame, or a wrong one
                raise ValueError(f"frames of tracklet {self.tracklet_id!r}: {exc}") from exc
        ids = frames.frame_ids
        if (ids[1:] < ids[:-1]).any():
            order = np.argsort(ids, kind="stable")
            frames = PackedFrames(*(getattr(frames, f)[order] for f in _FIELDS))
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def is_distractor(self) -> bool:
        return self.identity == DISTRACTOR


@dataclass(frozen=True, eq=False)
class CanonicalPoseSet:
    """The M reference keypoint vectors quantizing the pose space.

    `joints` is (M, k, 2) and `visibility` (M, k), with M >= 1.  Pose
    indices are 1-based: index j refers to row j - 1 of both.
    """

    joints: np.ndarray
    visibility: np.ndarray

    def __post_init__(self) -> None:
        joints = np.asarray(self.joints, dtype=np.float64)
        vis = np.asarray(self.visibility, dtype=bool)
        if joints.ndim != 3 or joints.shape[2] != 2 or vis.shape != joints.shape[:2]:
            raise ValueError(f"canon shapes {joints.shape} and {vis.shape} are not (M, k, 2) and (M, k)")
        if not len(joints):
            raise ValueError("canonical pose set must contain at least one pose")
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "visibility", vis)

    def __len__(self) -> int:
        return self.joints.shape[0]

    @property
    def indices(self) -> range:
        return range(1, len(self) + 1)


@dataclass(frozen=True, eq=False)
class TrackletMeans:
    """Real-frame means of T tracklets and the frames their synthetics condition on.

    Row t belongs to `tracklet_ids[t]`.  `representative_frame(t)` is its
    representative frame id; `providers.representative_frames` draws each
    at most once, on the first call, so every synthetic query of a run
    conditions on the same frame.  A record built by hand may pass a
    tuple's `__getitem__`.
    """

    tracklet_ids: tuple[str, ...]
    representative_frame: Callable[[int], int]
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
    """A loaded or generated dataset: tracklets by ascending id, plus manifest metadata.

    `name` is a str and each of `COUNTS` an integer >= 0, held as an int.
    """

    name: str
    feature_dim: int
    joint_count: int
    num_poses: int
    camera_count: int
    tracklets: tuple[Tracklet, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise TypeError(f"name {self.name!r} is not a string")
        for key in COUNTS:
            if not is_a(count := getattr(self, key), Integral):
                raise TypeError(f"{key} {count!r} is not an integer")
            if count < 0:
                raise ValueError(f"{key} {count!r} is negative")
            object.__setattr__(self, key, int(count))  # a NumPy integer as the int it holds
        object.__setattr__(self, "tracklets", tuple(sorted(self.tracklets, key=lambda t: t.tracklet_id)))

    def by_id(self) -> dict[str, Tracklet]:
        return {t.tracklet_id: t for t in self.tracklets}


def pack(tracklets: Sequence[Tracklet]) -> tuple[PackedFrames, np.ndarray]:
    """The tracklets' frames, one tracklet after another, and the (T+1,) offsets of their rows.

    Consecutive cuts of one block, as a loaded or generated dataset's
    tracklets are, pack into a view of it; anything else is concatenated.
    """
    parts = [t.frames for t in tracklets]
    offsets = np.cumsum([0] + [len(p) for p in parts])
    base = parts[0].base if parts else None
    if base is not None and all(
        p.base is base and p.start == parts[0].start + o for p, o in zip(parts, offsets.tolist())
    ):
        return base.rows(parts[0].start, parts[0].start + int(offsets[-1])), offsets
    parts = [p for p in parts if len(p)]  # an empty stack has no feature dimension or joint count
    if not parts:
        return PackedFrames.stack([]), offsets
    return PackedFrames(*(np.concatenate([getattr(p, f) for p in parts]) for f in _FIELDS)), offsets


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation found by validate_dataset."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


def _frame_defects(frames: PackedFrames) -> tuple[np.ndarray, list[int]]:
    """Per-row flags of a block, a bounded run of rows at a time, and the flagged rows.

    Flags: non-finite feature, all-zero feature, a visible joint outside
    [0, 1] x [0, 1], a frame id equal to the previous row's.
    """
    defects = np.empty((len(frames), 4), dtype=bool)
    defects[:, 3] = np.r_[False, frames.frame_ids[1:] == frames.frame_ids[:-1]]
    for start in range(0, len(frames), _BLOCK_FRAMES):
        rows = slice(start, start + _BLOCK_FRAMES)
        features, joints = frames.features[rows], frames.joints[rows]
        defects[rows, 0] = ~np.isfinite(features).all(axis=1)
        defects[rows, 1] = ~features.any(axis=1)
        ok = (joints >= 0.0) & (joints <= 1.0)  # False for NaN
        defects[rows, 2] = (frames.visibility[rows] & ~(ok[..., 0] & ok[..., 1])).any(axis=1)
    return defects, np.flatnonzero(defects.any(axis=1)).tolist()


def validate_dataset(
    tracklets: Sequence[Tracklet],
    canon: CanonicalPoseSet,
    *,
    expected_dim: int,
    expected_joints: int,
) -> list[ValidationIssue]:
    """Check every dataset invariant against the declared shape; accepted iff the report is empty.

    Reports (not raises) dimension mismatches, empty tracklets, non-finite or
    all-zero features, out-of-range visible coordinates, duplicate ids, and
    canonical-set defects.  The per-frame checks are array operations over
    each packed block; Python walks only the tracklets and flagged frames.
    """
    issues: list[ValidationIssue] = []

    def add(code: str, message: str) -> None:
        issues.append(ValidationIssue(code, message))

    common = canon.visibility[:, None] & canon.visibility[None]  # (M, M, k)
    same = (canon.joints[:, None] == canon.joints[None]).all(axis=3)
    coincide = common.any(axis=2) & (same | ~common).all(axis=2)
    for a, b in zip(*np.nonzero(np.triu(coincide, 1))):  # row-major: by a, then b
        add("canon_duplicate", f"canonical poses {a + 1} and {b + 1} coincide on their common joints")

    if canon.joints.shape[1] != expected_joints:
        add("canon_joint_mismatch", f"canonical set has k={canon.joints.shape[1]}, manifest says {expected_joints}")

    flagged: dict[PackedFrames, tuple[np.ndarray, list[int]]] = {}
    seen_ids: set[str] = set()
    for t in tracklets:
        if t.tracklet_id in seen_ids:
            add("duplicate_tracklet_id", f"tracklet id {t.tracklet_id!r} appears more than once")
        seen_ids.add(t.tracklet_id)

        if not len(t):
            add("empty_tracklet", f"tracklet {t.tracklet_id!r} has no frames")
            continue

        frames = t.frames
        block = frames if frames.base is None else frames.base
        if block not in flagged:
            flagged[block] = _frame_defects(block)
        defects, bad_rows = flagged[block]
        start, stop = frames.start, frames.start + len(t)
        rows = bad_rows[bisect_left(bad_rows, start) : bisect_left(bad_rows, stop)]
        if any(defects[r, 3] for r in rows if r > start):
            add("duplicate_frame_id", f"tracklet {t.tracklet_id!r} has duplicate frame ids")

        dim, k = frames.features.shape[1], frames.joints.shape[1]
        for r in range(start, stop) if dim != expected_dim or k != expected_joints else rows:
            where = f"tracklet {t.tracklet_id!r} frame {block.frame_ids[r]}"
            if dim != expected_dim:
                add("dimension_mismatch", f"{where}: feature dim {dim} != {expected_dim}")
            if defects[r, 0]:
                add("nonfinite_feature", f"{where}: feature contains NaN or Inf")
            elif defects[r, 1]:
                add("zero_feature", f"{where}: all-zero feature vector")
            if k != expected_joints:
                add("joint_count_mismatch", f"{where}: k={k} != {expected_joints}")
            if defects[r, 2]:
                add("coordinate_out_of_range", f"{where}: visible joint outside [0, 1] x [0, 1]")

    return issues
