"""Synthetic feature providers: the stand-in for pose-conditioned generation.

A provider answers `query(tracklet_id, representative_frame_id, pose)` with
the feature vector of the would-be generated image of that tracklet's person
under the requested canonical pose.  Generation itself happens offline;
providers only serve vectors, deterministically, and must tolerate
concurrent read-only queries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import FileFormatError, MissingSyntheticError
from .model import Tracklet
from .seeding import rng_for


class SyntheticFeatureProvider(ABC):
    """Deterministic source of synthetic per-pose feature vectors."""

    @abstractmethod
    def query(self, tracklet_id: str, representative_frame_id: int, pose: int) -> np.ndarray:
        """Feature vector for (tracklet, pose); raises MissingSyntheticError if unserved."""


class Strategy(Enum):
    SEEDED_RANDOM = "seeded-random"
    MIDDLE_FRAME = "middle-frame"


@dataclass(frozen=True)
class RepresentativeChoice:
    """How the single conditioning frame of each tracklet is picked."""

    strategy: Strategy = Strategy.SEEDED_RANDOM
    seed: int = 0


def choose_representative(tracklet: Tracklet, choice: RepresentativeChoice) -> int:
    """Pick the representative frame id of a tracklet.

    Both strategies operate on the frame list sorted by frame id, so the
    choice is invariant to storage order.  SEEDED_RANDOM draws uniformly
    from a generator keyed by (seed, tracklet_id).
    """
    frames = tracklet.frames_by_id()
    if not frames:
        raise ValueError(f"tracklet {tracklet.tracklet_id!r} has no frames")
    if choice.strategy is Strategy.MIDDLE_FRAME:
        return frames[len(frames) // 2].frame_id
    rng = rng_for(choice.seed, "representative", tracklet.tracklet_id)
    return frames[int(rng.integers(len(frames)))].frame_id


class FileBackedProvider(SyntheticFeatureProvider):
    """Serves pre-computed synthetic features from an index + matrix file pair.

    The index is a text file of `tracklet_id <TAB> pose_index <TAB> row`
    lines; rows refer into a feature matrix file (see dataset_io).
    """

    def __init__(self, index: dict[tuple[str, int], int], matrix: np.ndarray):
        for (tid, pose), row in index.items():
            if not 0 <= row < matrix.shape[0]:
                raise FileFormatError(
                    f"synthetic index entry ({tid!r}, {pose}) points at row {row}, "
                    f"matrix has {matrix.shape[0]} rows"
                )
        self._index = dict(index)
        self._matrix = np.asarray(matrix, dtype=np.float64)

    def query(self, tracklet_id: str, representative_frame_id: int, pose: int) -> np.ndarray:
        row = self._index.get((tracklet_id, pose))
        if row is None:
            raise MissingSyntheticError(f"no synthetic feature for ({tracklet_id!r}, pose {pose})")
        return self._matrix[row].copy()

    def keys(self) -> set[tuple[str, int]]:
        return set(self._index)


def file_backed_provider(index_path: str | Path, features_path: str | Path) -> FileBackedProvider:
    """Build a FileBackedProvider from a synthetic index file and matrix file."""
    from .dataset_io import read_feature_matrix, read_synth_index

    index = read_synth_index(index_path)
    matrix = read_feature_matrix(features_path)
    return FileBackedProvider(index, matrix)


class StubProvider(SyntheticFeatureProvider):
    """Test double blending the representative frame with per-pose prototypes.

    query = alpha * feature(representative frame)
          + (1 - alpha) * prototype[pose]
          + gaussian noise (per-coordinate sigma, keyed by seed/tracklet/pose)
    """

    def __init__(
        self,
        tracklets: list[Tracklet] | tuple[Tracklet, ...],
        canon_prototypes: np.ndarray,
        alpha: float,
        noise_sigma: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if noise_sigma < 0.0:
            raise ValueError("noise_sigma must be non-negative")
        self._features = {
            (t.tracklet_id, f.frame_id): f.feature for t in tracklets for f in t.frames
        }
        self._prototypes = np.asarray(canon_prototypes, dtype=np.float64)
        self._alpha = float(alpha)
        self._sigma = float(noise_sigma)
        self._seed = seed

    def query(self, tracklet_id: str, representative_frame_id: int, pose: int) -> np.ndarray:
        rep = self._features.get((tracklet_id, representative_frame_id))
        if rep is None:
            raise MissingSyntheticError(
                f"unknown representative frame ({tracklet_id!r}, {representative_frame_id})"
            )
        if not 1 <= pose <= self._prototypes.shape[0]:
            raise MissingSyntheticError(f"pose {pose} outside prototype range")
        out = self._alpha * rep + (1.0 - self._alpha) * self._prototypes[pose - 1]
        if self._sigma > 0.0:
            rng = rng_for(self._seed, "stub-noise", tracklet_id, pose)
            out = out + rng.normal(0.0, self._sigma, out.shape[0])
        return out
