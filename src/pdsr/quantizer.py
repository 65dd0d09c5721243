"""Nearest-canonical-pose assignment of frames.

The distance between two keypoint vectors is the root of the mean squared
per-joint coordinate difference, taken over joints visible in *both* poses.
The mean (rather than a sum) keeps distances comparable across visibility
masks; a comparison needs at least `MIN_COMMON_JOINTS` shared joints.
"""

from __future__ import annotations

import numpy as np

from .model import CanonicalPoseSet

MIN_COMMON_JOINTS = 4
_BLOCK_FRAMES = 256


def assignment_distances(
    joints: np.ndarray,
    visibility: np.ndarray,
    canon: CanonicalPoseSet,
) -> np.ndarray:
    """Distance matrix (L, M) of L packed poses to the canon; inf where too few common joints.

    `joints` is (L, k, 2) and `visibility` (L, k).  Each row depends only
    on its own pose, so any batch gives a frame the same distances bit for
    bit.
    """
    if len(joints) and joints.shape[1] != canon.joints.shape[1]:
        raise ValueError(f"joint counts differ: {joints.shape[1]} vs {canon.joints.shape[1]}")

    dist = np.empty((len(joints), len(canon)))
    # Blocks bound the (block, M, k, 2) temporaries; a whole dataset at
    # once would hold several of them, each far larger than the result.
    for start in range(0, len(joints), _BLOCK_FRAMES):
        rows = slice(start, start + _BLOCK_FRAMES)
        common = visibility[rows, None, :] & canon.visibility[None, :, :]  # (B, M, k)
        dx = joints[rows, None, :, 0] - canon.joints[None, :, :, 0]  # (B, M, k)
        dy = joints[rows, None, :, 1] - canon.joints[None, :, :, 1]
        # dx*dx + dy*dy, in place: the two-term sum np.sum would make, without its reduction.
        dx *= dx
        dy *= dy
        dx += dy
        sq = np.where(common, dx, 0.0)  # (B, M, k)
        counts = np.count_nonzero(common, axis=-1)  # (B, M)
        with np.errstate(invalid="ignore", divide="ignore"):
            block = np.sqrt(sq.sum(axis=-1) / counts)
        block[counts < MIN_COMMON_JOINTS] = np.inf
        dist[rows] = block
    return dist


def nearest_poses(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest canonical pose (1-based, int) and its distance, per row of `dist`.

    Ties break toward the lowest canonical index.  A row without a finite
    distance is unassignable: pose 0, distance inf.
    """
    best = np.argmin(dist, axis=1)
    nearest = dist[np.arange(dist.shape[0]), best]
    return np.where(np.isinf(nearest), 0, best + 1), nearest
