"""Batched pooling of tracklets, and pose-regulated, frequency-weighted matching.

Every pooling here is one pass over a whole set of tracklets: segment sums
over rows in frame-id order give each tracklet's real mean
(`tracklet_means`), and `pose_normalize` adds one quantizer call that
assigns every frame its canonical pose and, per (tracklet, pose), the
pooled feature and the fraction of assignable frames.  Only WPR needs
poses, so only it pays for the quantizer.  To match two tracklets, both
sides are completed over the union of their observed poses (missing poses
filled from the synthetic tensor at frequency zero), and the pair score is
the per-pose cosine weighted by the averaged pose frequencies, normalized
to sum 1:

    score = sum_j nu_j * cosine(left_j, right_j),   sum_j nu_j = 1

Normalizing nu bounds the score in [-1, 1], making it commensurate with the
fused-embedding cosine for score-level combination; without it, pairs with
larger pose unions would be systematically advantaged.  Pose traversal is
always in increasing pose index, and pooling is in frame-id order, so scores
are reproducible and invariant to frame storage order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import AllFramesUnassignableError, EmptyUnionError, ZeroVectorError
from .model import CanonicalPoseSet, PoseRecord, Tracklet, TrackletMeans, pack
from .providers import representative_frames
from .quantizer import assignment_distances, nearest_poses


def _segment_means(
    rows: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys, lengths and row means of the runs of equal keys in sorted `keys`.

    `np.add.reduceat` sums each run in an order fixed by the run alone, so
    a tracklet pools to the same bits whether it is pooled alone or in any
    batch.  That order is NumPy's own: it is not `np.mean`'s, whose result
    can differ in the last bit.  Pooling no rows is an error.
    """
    if not len(keys):
        raise ValueError("no tracklets to pool")
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, len(keys)])
    sums = np.add.reduceat(rows, starts)
    sums /= sizes[:, None]
    return keys[starts], sizes, sums


def tracklet_means(tracklets: Sequence[Tracklet], seed: int) -> TrackletMeans:
    """Real means of the tracklets, pooled in one pass, and each one's representative frame, drawn when first read."""
    frames, offsets = pack(tracklets)
    sizes = np.diff(offsets)
    if not sizes.all():
        raise ValueError(f"tracklet {tracklets[int(np.argmin(sizes))].tracklet_id!r} has no frames")
    return TrackletMeans(
        tracklet_ids=tuple(t.tracklet_id for t in tracklets),
        representative_frame=representative_frames(tracklets, seed),
        real_means=_segment_means(frames.features, np.repeat(np.arange(len(sizes)), sizes))[2],
    )


def pose_normalize(tracklets: Sequence[Tracklet], canon: CanonicalPoseSet, seed: int) -> PoseRecord:
    """Pool every tracklet's frames, in one pass, into a record with one row each.

    A tracklet no frame of which maps to a canonical pose is an error.
    Missing poses are not filled here; which ones are needed depends on the
    matching partners, so backfill happens at scoring time.
    """
    ids = tuple(t.tracklet_id for t in tracklets)
    frames, offsets = pack(tracklets)
    row = np.repeat(np.arange(len(ids)), np.diff(offsets))
    pose, _ = nearest_poses(assignment_distances(frames.joints, frames.visibility, canon))
    assigned = np.flatnonzero(pose)
    assignable = np.bincount(row[assigned], minlength=len(ids))
    if not assignable.all():
        tid = ids[int(np.argmin(assignable))]
        raise AllFramesUnassignableError(f"no frame of tracklet {tid!r} maps to any canonical pose")
    real = _segment_means(frames.features, row)[2]
    m = len(canon)
    cell = row * m + pose - 1
    # A stable sort keeps frame-id order inside each (tracklet, pose) run.
    # The gathered rows are the pass's only (N, d) temporary: a loaded
    # dataset's features are views of the matrix that was read.
    order = assigned[np.argsort(cell[assigned], kind="stable")]
    cells, sizes, means = _segment_means(frames.features[order], cell[order])

    vectors = np.zeros((len(ids), m, means.shape[1]))
    vectors.reshape(-1, means.shape[1])[cells] = means
    members = np.zeros(len(ids) * m, dtype=np.int64)
    members[cells] = sizes
    members = members.reshape(len(ids), m)
    return PoseRecord(
        tracklet_ids=ids,
        representative_frame=representative_frames(tracklets, seed),
        real_means=real,
        vectors=vectors,
        frequencies=members / assignable[:, None],
        observed=members > 0,
    )


def backfill_poses(record: PoseRecord, probe_rows: Sequence[int]) -> np.ndarray:
    """(T, M) cells to fill from the synthetic tensor to score the probe rows against all rows.

    A tracklet only ever meets the poses its partners observe: a probe row
    every pose observed anywhere, any other row the poses the probes
    observe.  Querying beyond that would surface provider gaps no pair
    union contains.
    """
    observed = record.observed
    needed = np.broadcast_to(observed[list(probe_rows)].any(axis=0), observed.shape).copy()
    needed[list(probe_rows)] = observed.any(axis=0)
    return needed & ~observed


def unit_rows(vectors: np.ndarray, tracklet_ids: Sequence[str], zero_message: str, needed=True) -> np.ndarray:
    """Rows over their norms, zero rows not `needed` kept; a needed zero or an inf/NaN norm names its tracklet."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(vectors, axis=1)
    # A non-zero row whose squares all underflow has its norm re-taken over it scaled by its peak.
    if (zero := norms == 0.0).any() and (tiny := np.flatnonzero(zero)[vectors[zero].any(axis=1)]).size:
        peak = np.abs(vectors[tiny]).max(axis=1)
        norms[tiny] = np.linalg.norm(vectors[tiny] / peak[:, None], axis=1) * peak
    if (zero := needed & (norms == 0.0)).any():
        raise ZeroVectorError(f"tracklet {tracklet_ids[int(np.argmax(zero))]!r} {zero_message}")
    if (bad := ~np.isfinite(norms)).any():
        raise ValueError(f"tracklet {tracklet_ids[int(np.argmax(bad))]!r}: its vector norm overflowed")
    return vectors / np.where(norms == 0.0, 1.0, norms)[:, None]


def wpr_score_matrix(
    record: PoseRecord,
    probe_rows: Sequence[int],
    synthetic: np.ndarray,
    backfilled: np.ndarray,
) -> np.ndarray:
    """Score the probe rows of a record against all of its rows.

    `synthetic` is the tensor `provider.fetch` returns and `backfilled`
    the (T, M) cells of it that take part: those `backfill_poses` asks for
    that the provider served.  A cell asked for but not served (lenient
    mode) is dropped from every pair union it is in (nu renormalized over
    what remains).  The per-pose accumulation runs in increasing pose index, so
    repeated evaluations are bitwise reproducible.
    """
    p = list(probe_rows)
    observed = record.observed
    avail = observed | backfilled
    numer = np.zeros((len(p), len(record.tracklet_ids)))
    denom = np.zeros_like(numer)
    for m in np.flatnonzero(observed.any(axis=0)).tolist():
        unit = np.where(observed[:, m, None], record.vectors[:, m], synthetic[:, m])
        unit[~avail[:, m]] = 0.0
        unit = unit_rows(unit, record.tracklet_ids, "has an all-zero per-pose vector", avail[:, m])
        freq = record.frequencies[:, m]
        weight = (freq[p][:, None] + freq[None, :]) / 2.0
        weight *= avail[p, m][:, None] & avail[:, m][None, :]
        numer += weight * (unit[p] @ unit.T)
        denom += weight
    if (denom == 0.0).any():
        i, k = np.argwhere(denom == 0.0)[0].tolist()  # the first pair in row-major order
        ids = record.tracklet_ids
        raise EmptyUnionError(f"probe {ids[p[i]]!r} and gallery {ids[k]!r} share no fillable pose")
    return numer / denom
