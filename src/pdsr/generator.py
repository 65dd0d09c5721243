"""Planted-ground-truth dataset generator.

Every tracklet's frames are built as normalize(identity_latent +
pose_offset[planted pose] + gaussian noise), so the correct match, the
planted pose of every frame, and the ideal synthetic vector for any
(tracklet, pose) are all known by construction.  Per-camera pose
visibility restricts which poses a camera can record, planting the
cross-camera pose incompleteness the matcher is meant to repair.

All draws run through generators keyed by (seed, purpose, entity), so
output is a pure function of the spec and independent of generation order.
Features are quantized through float32 before use: what the in-memory
provider serves is bit-identical to what a feature file round-trip yields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path
from typing import Mapping

import numpy as np

from .dataset_io import read_json
from .errors import FileFormatError, MissingSyntheticError
from .model import DISTRACTOR, CanonicalPoseSet, Dataset, PackedFrames, Tracklet, is_a
from .providers import SyntheticFeatureProvider
from .seeding import rng_for


_COUNTS = ("identities", "cameras", "tracklets_per_identity_per_camera", "feature_dim",
           "joint_count", "num_poses", "distractors", "seed")
_SCALES = ("pose_effect_scale", "noise_sigma", "pose_jitter")
#: The keys a spec file must give; the others take `GenSpec`'s defaults.
_REQUIRED = ("identities", "cameras", "tracklets_per_identity_per_camera", "frames_per_tracklet",
             "feature_dim", "joint_count", "num_poses", "pose_effect_scale", "noise_sigma")


@dataclass(frozen=True)
class GenSpec:
    """Size and difficulty knobs of one planted dataset."""

    identities: int = 8
    cameras: int = 2
    tracklets_per_identity_per_camera: int = 1
    frames_per_tracklet: tuple[int, int] = (6, 10)
    feature_dim: int = 32
    joint_count: int = 18
    num_poses: int = 4
    pose_effect_scale: float = 0.25
    noise_sigma: float = 0.0
    pose_jitter: float = 0.0
    pose_visibility: tuple[tuple[int, ...], ...] | None = None
    distractors: int = 0
    seed: int = 0
    name: str = "planted"

    def __post_init__(self) -> None:
        lo, hi = self.frames_per_tracklet
        for name in _COUNTS:
            if not is_a(getattr(self, name), Integral):
                raise TypeError(f"{name} {getattr(self, name)!r} is not an integer")
        if not (is_a(lo, Integral) and is_a(hi, Integral)):
            raise TypeError(f"frames_per_tracklet {self.frames_per_tracklet!r} is not two integers")
        if not all(is_a(p, Integral) for subset in self.pose_visibility or () for p in subset):
            raise TypeError(f"pose_visibility {self.pose_visibility!r} has a non-integer pose")
        for name in _SCALES:
            if not is_a(getattr(self, name), Real):
                raise TypeError(f"{name} {getattr(self, name)!r} is not a number")
        if not isinstance(self.name, str):
            raise TypeError(f"name {self.name!r} is not a string")
        if self.identities < 2:
            raise ValueError("need at least 2 identities")
        if self.cameras < 2:
            raise ValueError("cross-camera protocols need at least 2 cameras")
        if self.tracklets_per_identity_per_camera < 1:
            raise ValueError("need at least 1 tracklet per identity per camera")
        if not 1 <= lo <= hi:
            raise ValueError(f"bad frames_per_tracklet range ({lo}, {hi})")
        if min(self.feature_dim, self.joint_count, self.num_poses) < 1:
            raise ValueError("feature_dim, joint_count and num_poses must be positive")
        if not all(0 <= getattr(self, name) < math.inf for name in _SCALES):
            raise ValueError("scales and sigmas must be finite and non-negative")
        if self.distractors < 0:
            raise ValueError("distractor count must be non-negative")
        if self.pose_visibility is not None:
            if len(self.pose_visibility) != self.cameras:
                raise ValueError("pose_visibility needs one pose subset per camera")
            cleaned = []
            for cam, subset in enumerate(self.pose_visibility):
                poses = sorted(set(subset))
                if not poses:
                    raise ValueError(f"camera {cam} has an empty pose subset")
                if poses[0] < 1 or poses[-1] > self.num_poses:
                    raise ValueError(
                        f"camera {cam} pose subset outside 1..{self.num_poses}"
                    )
                cleaned.append(tuple(poses))
            object.__setattr__(self, "pose_visibility", tuple(cleaned))
        object.__setattr__(self, "frames_per_tracklet", (lo, hi))

    def camera_poses(self, camera: int) -> tuple[int, ...]:
        """The canonical poses camera `camera` is able to record."""
        if self.pose_visibility is None:
            return tuple(range(1, self.num_poses + 1))
        return self.pose_visibility[camera]


@dataclass(frozen=True, eq=False)
class PlantedTruth:
    """What the generator planted, for oracles and the ideal provider.

    `latent_key` maps every tracklet to the key of the latent its frames
    were built from; real tracklets share their identity's latent while
    each distractor tracklet has a private one.
    """

    latents: Mapping[str, np.ndarray]
    latent_key: Mapping[str, str]
    pose_offsets: np.ndarray
    frame_poses: Mapping[tuple[str, int], int]


def _unit(vec: np.ndarray) -> np.ndarray:
    return vec / np.linalg.norm(vec)


def _quantize(vec: np.ndarray) -> np.ndarray:
    """Round through float32; matches what a feature-file round trip yields."""
    return vec.astype(np.float32).astype(np.float64)


class PlantedProvider(SyntheticFeatureProvider):
    """Serves normalize(latent + pose_offset[j]) for any tracklet and pose.

    With noise_sigma = 0 this is the ideal upper-bound provider; a positive
    sigma adds per-(tracklet, pose) gaussian noise before normalization,
    modeling a generator that degrades the representation.  Output ignores
    the representative frame, so it is invariant to frame edits.
    """

    def __init__(self, truth: PlantedTruth, noise_sigma: float = 0.0, seed: int = 0):
        if not 0 <= noise_sigma < math.inf:
            raise ValueError(f"noise_sigma {noise_sigma!r} is not a finite number >= 0")
        self._truth = truth
        self._sigma = float(noise_sigma)
        self._seed = seed

    def query(self, tracklet_id: str, representative_frame_id: int, pose: int) -> np.ndarray:
        truth = self._truth
        if tracklet_id not in truth.latent_key:
            raise MissingSyntheticError(f"unknown tracklet {tracklet_id!r}")
        if not 1 <= pose <= truth.pose_offsets.shape[0]:
            raise MissingSyntheticError(f"pose {pose} outside planted pose range")
        vec = truth.latents[truth.latent_key[tracklet_id]] + truth.pose_offsets[pose - 1]
        # Zero-sigma noise is +0.0 everywhere, so skip its Generator; adding
        # the +0.0 still turns a -0.0 into +0.0, as the draw would.
        noise = 0.0 if self._sigma == 0.0 else rng_for(
            self._seed, "provider-noise", tracklet_id, pose
        ).normal(0.0, self._sigma, vec.shape[0])
        return _quantize(_unit(vec + noise))


@dataclass(frozen=True, eq=False)
class GeneratedData:
    dataset: Dataset
    canon: CanonicalPoseSet
    provider: PlantedProvider
    truth: PlantedTruth


def _make_canon(spec: GenSpec) -> CanonicalPoseSet:
    k = spec.joint_count
    joints = [rng_for(spec.seed, "canon", j).uniform(0.0, 1.0, (k, 2)) for j in range(1, spec.num_poses + 1)]
    return CanonicalPoseSet(np.stack(joints), np.ones((spec.num_poses, k), dtype=bool))


def generate(spec: GenSpec) -> GeneratedData:
    """Build the dataset, canonical poses, ideal provider and ground truth.

    The tracklets are consecutive cuts of one block of frames, by ascending
    id, as `load_dataset` returns them.
    """
    canon = _make_canon(spec)
    offsets = np.zeros((spec.num_poses, spec.feature_dim))
    if spec.pose_effect_scale > 0:
        for j in range(1, spec.num_poses + 1):
            direction = _unit(rng_for(spec.seed, "pose-offset", j).normal(0.0, 1.0, spec.feature_dim))
            offsets[j - 1] = direction * spec.pose_effect_scale

    latents: dict[str, np.ndarray] = {}
    latent_key: dict[str, str] = {}
    owners: dict[str, tuple[str, int]] = {}  # tracklet id -> (identity, camera)

    for i in range(spec.identities):
        identity = f"id{i:04d}"
        latents[identity] = _unit(
            rng_for(spec.seed, "identity-latent", identity).normal(0.0, 1.0, spec.feature_dim)
        )
        for camera in range(spec.cameras):
            for t in range(spec.tracklets_per_identity_per_camera):
                tid = f"{identity}-c{camera}-{t}"
                latent_key[tid] = identity
                owners[tid] = (identity, camera)

    for i in range(spec.distractors):
        tid = f"dx{i:04d}-c{i % spec.cameras}"
        latents[tid] = _unit(
            rng_for(spec.seed, "identity-latent", tid).normal(0.0, 1.0, spec.feature_dim)
        )
        latent_key[tid] = tid
        owners[tid] = (DISTRACTOR, i % spec.cameras)

    # Each tracklet's generator draws its length, then its frames in order.
    tids = sorted(owners)
    rngs = [rng_for(spec.seed, "tracklet", tid) for tid in tids]
    lo, hi = spec.frames_per_tracklet
    lengths = [int(rng.integers(lo, hi + 1)) for rng in rngs]
    bounds = np.cumsum([0] + lengths).tolist()
    n, k = bounds[-1], spec.joint_count
    block = PackedFrames(
        np.arange(n, dtype=np.int64) - np.repeat(bounds[:-1], lengths), np.empty((n, spec.feature_dim)),
        np.empty((n, k, 2)), np.ones((n, k), dtype=bool),
    )
    frame_poses: dict[tuple[str, int], int] = {}
    tracklets = []
    for tid, rng, a, b in zip(tids, rngs, bounds, bounds[1:]):
        identity, camera = owners[tid]
        latent, allowed = latents[latent_key[tid]], spec.camera_poses(camera)
        for row in range(a, b):
            pose = allowed[int(rng.integers(len(allowed)))]
            jitter = rng.normal(0.0, spec.pose_jitter, (k, 2))
            np.clip(canon.joints[pose - 1] + jitter, 0.0, 1.0, out=block.joints[row])
            noise = rng.normal(0.0, spec.noise_sigma, spec.feature_dim)
            block.features[row] = _quantize(_unit(latent + offsets[pose - 1] + noise))
            frame_poses[(tid, row - a)] = pose
        tracklets.append(Tracklet(tid, identity, camera, block.rows(a, b)))

    truth = PlantedTruth(
        latents=latents,
        latent_key=latent_key,
        pose_offsets=offsets,
        frame_poses=frame_poses,
    )
    dataset = Dataset(
        name=f"{spec.name}-s{spec.seed}",
        feature_dim=spec.feature_dim,
        joint_count=spec.joint_count,
        num_poses=spec.num_poses,
        camera_count=spec.cameras,
        tracklets=tuple(tracklets),
    )
    return GeneratedData(
        dataset=dataset,
        canon=canon,
        provider=PlantedProvider(truth, noise_sigma=0.0, seed=spec.seed),
        truth=truth,
    )


def load_gen_spec(path: str | Path) -> GenSpec:
    """Read a spec file, a JSON object of `GenSpec` fields; an unknown or repeated key is an error."""
    payload = read_json(path, unique_keys=True)
    if not isinstance(payload, dict):  # a list's items would pass for keys
        raise FileFormatError(f"{path}: not a JSON object")
    try:
        unknown = sorted(set(payload) - {f.name for f in fields(GenSpec)})
        if unknown:
            raise FileFormatError(f"{path}: unknown field {unknown[0]!r}")
        missing = [key for key in _REQUIRED if key not in payload]
        if missing:
            raise KeyError(missing[0])
        payload["frames_per_tracklet"] = tuple(payload["frames_per_tracklet"])
        if payload.get("pose_visibility") is not None:
            payload["pose_visibility"] = tuple(map(tuple, payload["pose_visibility"]))
        return GenSpec(**payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: missing or malformed field: {exc}") from exc
