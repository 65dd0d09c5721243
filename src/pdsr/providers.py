"""Synthetic feature providers: the stand-in for pose-conditioned generation.

A provider answers `query(tracklet_id, representative_frame_id, pose)` with
the feature vector of the would-be generated image of that tracklet's person
under the requested canonical pose.  Generation itself happens offline;
providers only serve vectors, deterministically, and must tolerate
concurrent read-only queries.

A provider's `fetch` is the one place the package asks it for vectors: a
run asks for each (tracklet, pose) at most once, and weighted fusion and
pose-regulated matching both read the tensor it returns.  The base `fetch`
queries cell by cell; a provider that can serve a whole tensor at once
overrides it with the same result.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cache
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset_io import read_feature_matrix, read_synth_index
from .errors import FileFormatError, MissingSyntheticError
from .model import Tracklet, TrackletMeans
from .seeding import rng_for


class SyntheticFeatureProvider(ABC):
    """Deterministic source of synthetic per-pose feature vectors."""

    @abstractmethod
    def query(self, tracklet_id: str, representative_frame_id: int, pose: int) -> np.ndarray:
        """Feature vector for (tracklet, pose); raises MissingSyntheticError if unserved."""

    def fetch(
        self, record: TrackletMeans, wanted: np.ndarray, *, strict: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Synthetic (T, M, d) tensor and (T, M) served mask for the wanted (T, M) cells.

        Each wanted (tracklet, pose) cell is queried once, in row-major
        order, conditioned on the tracklet's representative frame.  In
        strict mode a miss propagates; in lenient mode it leaves the cell
        unserved.  Cells not served hold zeros.  A vector of the wrong
        length or with a NaN or Inf is a ValueError in either mode.
        """
        dim = record.real_means.shape[1]
        synthetic = np.zeros(wanted.shape + (dim,))
        served = np.zeros(wanted.shape, dtype=bool)
        for t, j in zip(*(axis.tolist() for axis in np.nonzero(wanted))):
            tid = record.tracklet_ids[t]
            try:
                vector = self.query(tid, record.representative_frame(t), j + 1)
            except MissingSyntheticError:
                if strict:
                    raise
                continue
            if vector.shape != (dim,):
                raise ValueError(f"synthetic dimension {vector.shape[0]} != real dimension {dim}")
            if not np.isfinite(vector).all():
                raise ValueError(f"synthetic feature for ({tid!r}, pose {j + 1}) is not finite")
            synthetic[t, j] = vector
            served[t, j] = True
        return synthetic, served


def representative_frames(tracklets: Sequence[Tracklet], seed: int) -> Callable[[int], int]:
    """Row t -> the representative frame id of `tracklets[t]`, drawn on the first call and kept.

    The draw is uniform over the frames in frame-id order, from a generator
    keyed by (seed, tracklet_id), so it is invariant to storage order.  A
    provider that never reads the frame costs no draw.
    """
    def draw(t: int) -> int:
        frame_ids = tracklets[t].frames.frame_ids
        if not len(frame_ids):
            raise ValueError(f"tracklet {tracklets[t].tracklet_id!r} has no frames")
        rng = rng_for(seed, "representative", tracklets[t].tracklet_id)
        return int(frame_ids[rng.integers(len(frame_ids))])
    return cache(draw)


class FileBackedProvider(SyntheticFeatureProvider):
    """Serves pre-computed synthetic features from an index + matrix file pair.

    The index is a text file of `tracklet_id <TAB> pose_index <TAB> row`
    lines; rows refer into a feature matrix file (see dataset_io) of
    `feature_dim` columns.  Every row must be finite.
    """

    def __init__(self, index: dict[tuple[str, int], int], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        rows = index.values()
        if rows and not 0 <= min(rows) <= max(rows) < matrix.shape[0]:
            (tid, pose), row = next(
                (key, row) for key, row in index.items() if not 0 <= row < matrix.shape[0]
            )
            raise FileFormatError(
                f"synthetic index entry ({tid!r}, {pose}) points at row {row}, "
                f"matrix has {matrix.shape[0]} rows"
            )
        finite = np.isfinite(matrix).all(axis=1)
        if not finite.all():
            raise FileFormatError(f"synthetic matrix row {int(np.argmin(finite))} is not finite")
        self._index = dict(index)
        self._matrix = matrix
        self.feature_dim = matrix.shape[1]

    def query(self, tracklet_id: str, representative_frame_id: int, pose: int) -> np.ndarray:
        row = self._index.get((tracklet_id, pose))
        if row is None:
            raise MissingSyntheticError(f"no synthetic feature for ({tracklet_id!r}, pose {pose})")
        return self._matrix[row].copy()

    def fetch(
        self, record: TrackletMeans, wanted: np.ndarray, *, strict: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """The base class's tensor and mask, from one index lookup over the wanted cells.

        The rows are gathered straight into the tensor, so no (cells, d)
        copy is made beside it.  A request the base class would refuse (a
        miss in strict mode, a served row of the wrong width) goes to it.
        """
        dim = record.real_means.shape[1]
        ts, js = np.nonzero(wanted)
        keys = zip(map(record.tracklet_ids.__getitem__, ts.tolist()), (js + 1).tolist())
        rows = np.fromiter(map(self._index.get, keys, repeat(-1)), dtype=np.int64, count=len(ts))
        hit = rows >= 0
        if (strict and not hit.all()) or (self.feature_dim != dim and hit.any()):
            return super().fetch(record, wanted, strict=strict)
        served = np.zeros(wanted.shape, dtype=bool)
        served[ts[hit], js[hit]] = True
        if not hit.any():
            return np.zeros(wanted.shape + (dim,)), served
        cell_rows = np.zeros(wanted.shape, dtype=np.int64)  # unserved: row 0, zeroed below
        cell_rows[ts[hit], js[hit]] = rows[hit]
        synthetic = self._matrix.take(cell_rows, axis=0)
        synthetic[~served] = 0.0
        return synthetic, served


def file_backed_provider(index_path: str | Path, features_path: str | Path) -> FileBackedProvider:
    """Build a FileBackedProvider from a synthetic index file and matrix file."""
    index = read_synth_index(index_path)
    matrix = read_feature_matrix(features_path)
    try:
        return FileBackedProvider(index, matrix)
    except FileFormatError as exc:
        raise FileFormatError(f"{features_path}: {exc}") from exc
