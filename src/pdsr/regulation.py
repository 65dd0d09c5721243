"""Batched pooling of tracklets, and pose-regulated, frequency-weighted matching.

Every pooling here is one pass over a whole set of tracklets: segment sums
over rows in frame-id order give each tracklet's real mean
(`tracklet_means`).  Each sum is the first row plus the pairwise sum of the
rest (in order below 8 rows, 8 strided accumulators to 128, halves above),
written out in `_pairwise_sum` so that a NumPy upgrade cannot move a pooled
bit.  `pose_normalize` returns `tracklet_means`' record plus the per-pose
cells: one quantizer call assigns every frame its canonical pose, and each
(tracklet, pose) gets its pooled feature and fraction of assignable frames.
Only WPR needs poses, so only it pays for the quantizer.  To match two
tracklets, both sides are completed over the union of their observed poses
(missing poses filled from the synthetic tensor at frequency zero), and the
pair score is the per-pose cosine weighted by the averaged pose
frequencies, normalized to sum 1:

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


def _pairwise_sum(rows: np.ndarray, at: np.ndarray, n: int) -> np.ndarray:
    """Per entry of `at`, the sum of rows[at + i] over 0 <= i < n, in a fixed pairwise order.

    In order below 8 terms (from -0.0, an identity, so from the first term); to 128, in 8
    accumulators that step by 8 and add as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    leftovers in order; above, as two parts split at n//2 rounded down to a multiple of 8.
    """
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(rows, at, half) + _pairwise_sum(rows, at + half, n - half)
    if n < 8:
        total, done = rows[at], 1
    else:
        acc = [rows[at + j] for j in range(8)]
        for i in range(8, n - n % 8):
            acc[i % 8] += rows[at + i]
        total, done = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])), n - n % 8
    for i in range(done, n):
        total += rows[at + i]
    return total


def _segment_means(rows: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys, lengths and row means of the runs of equal keys in sorted `keys`.

    A run sums as its first row plus `_pairwise_sum` of the rest: an order
    fixed by the run alone, so a tracklet pools to the same bits alone or in
    any batch.  It is `np.add.reduceat`'s order in NumPy 2.4, written out so
    that no NumPy upgrade can move a pooled bit; it is not `np.mean`'s.
    Runs of one length sum together, one (runs, d) gather per row position.
    Pooling no rows is an error.
    """
    if not len(keys):
        raise ValueError("no tracklets to pool")
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, len(keys)])
    sums = np.empty((len(starts), rows.shape[1]), rows.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name where the rows are used
        for n in np.unique(sizes).tolist():
            which = np.flatnonzero(sizes == n)
            at = starts[which]
            sums[which] = rows[at] if n == 1 else rows[at] + _pairwise_sum(rows, at + 1, n - 1)
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
    """`tracklet_means`' record of the tracklets plus, per (tracklet, pose), the pooled feature and frequency.

    A tracklet no frame of which maps to a canonical pose is an error.
    Missing poses are not filled here; which ones are needed depends on the
    matching partners, so backfill happens at scoring time.
    """
    frames, offsets = pack(tracklets)
    t, m = len(tracklets), len(canon)
    pose, _ = nearest_poses(assignment_distances(frames.joints, frames.visibility, canon))
    assigned = np.flatnonzero(pose)
    cell = np.repeat(np.arange(t), np.diff(offsets)) * m + pose - 1
    members = np.bincount(cell[assigned], minlength=t * m).reshape(t, m)
    assignable = members.sum(axis=1)
    if not assignable.all():
        tid = tracklets[int(np.argmin(assignable))].tracklet_id
        raise AllFramesUnassignableError(f"no frame of tracklet {tid!r} maps to any canonical pose")
    means = tracklet_means(tracklets, seed)
    # A stable sort keeps frame-id order inside each (tracklet, pose) run.  The gathered rows are the
    # pass's only (N, d) temporary: a loaded dataset's features are views of the matrix that was read.
    order = assigned[np.argsort(cell[assigned], kind="stable")]
    cells, _, pooled = _segment_means(frames.features[order], cell[order])
    vectors = np.zeros((t * m, pooled.shape[1]))
    vectors[cells] = pooled
    return PoseRecord(means.tracklet_ids, means.representative_frame, means.real_means,
                      vectors.reshape(t, m, pooled.shape[1]), members / assignable[:, None], members > 0)


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
