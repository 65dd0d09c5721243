"""Pose-regulated, frequency-weighted pose-wise matching.

A tracklet is first reduced to per-canonical-pose pooled vectors with their
frame fractions.  To match two tracklets, both sides are completed over the
union of their observed poses (missing poses filled from the synthetic
provider at frequency zero), and the pair score is the per-pose cosine
weighted by the averaged pose frequencies, normalized to sum 1:

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

from .errors import EmptyUnionError, MissingSyntheticError, ZeroVectorError
from .model import CanonicalPoseSet, PoseNormalizedEmbedding, Tracklet
from .providers import RepresentativeChoice, SyntheticFeatureProvider, choose_representative
from .quantizer import DEFAULT_MIN_COMMON_JOINTS, group_by_pose
from .similarity import unit_rows


def pose_normalize(
    tracklet: Tracklet,
    canon: CanonicalPoseSet,
    rep: RepresentativeChoice,
    *,
    min_common_joints: int = DEFAULT_MIN_COMMON_JOINTS,
) -> PoseNormalizedEmbedding:
    """Pool a tracklet's frames per observed canonical pose.

    Missing poses are not filled here; which ones are needed depends on the
    matching partner, so backfill happens at scoring time.  The
    representative frame id is fixed now so later provider queries are
    consistent across pairs.
    """
    groups = group_by_pose(tracklet, canon, min_common_joints=min_common_joints)
    vectors = np.zeros((len(canon), tracklet.frames[0].feature.shape[0]))
    frequencies = np.zeros(len(canon))
    for j, frames in groups.groups.items():
        vectors[j - 1] = np.mean(np.stack([f.feature for f in frames]), axis=0)
        frequencies[j - 1] = groups.frequencies[j]
    return PoseNormalizedEmbedding(
        tracklet_id=tracklet.tracklet_id,
        representative_frame_id=choose_representative(tracklet, rep),
        vectors=vectors,
        frequencies=frequencies,
        observed=frequencies > 0.0,
    )


def _dense_rep(
    emb: PoseNormalizedEmbedding,
    pose_axis: np.ndarray,
    needed: np.ndarray,
    provider: SyntheticFeatureProvider,
    strict: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit per-pose vectors, frequencies and availability on the shared pose axis.

    Only poses in `needed` (those that can appear in some pair union
    involving this tracklet) are backfilled, so a provider gap at a pose no
    pair uses fails nothing, even in strict mode.  Unavailable poses get
    zero vectors.
    """
    vectors = emb.vectors[pose_axis]
    avail = emb.observed[pose_axis]
    for row, j in enumerate(pose_axis.tolist()):
        if avail[row] or not needed[j]:
            continue
        try:
            vectors[row] = provider.query(emb.tracklet_id, emb.representative_frame_id, j + 1)
            avail[row] = True
        except MissingSyntheticError:
            if strict:
                raise
    if (np.linalg.norm(vectors[avail], axis=1) == 0.0).any():
        raise ZeroVectorError(
            f"tracklet {emb.tracklet_id!r} has an all-zero per-pose vector"
        )
    return unit_rows(vectors), emb.frequencies[pose_axis], avail


def wpr_score_matrix(
    probes: Sequence[PoseNormalizedEmbedding],
    gallery: Sequence[PoseNormalizedEmbedding],
    provider: SyntheticFeatureProvider,
    canon: CanonicalPoseSet,
    *,
    strict: bool = True,
) -> np.ndarray:
    """Score every probe against every gallery tracklet.

    One synthetic vector is generated (and reused) per (tracklet, pose);
    only poses observed somewhere in the batch ever need filling.  The
    per-pose accumulation runs in increasing pose index, so repeated
    evaluations are bitwise reproducible.  In lenient mode a pose that
    either side of a pair cannot fill is dropped from that pair's union
    (nu renormalized over what remains).
    """
    if not probes or not gallery:
        return np.zeros((len(probes), len(gallery)))
    if any(e.observed.shape != (len(canon),) for e in (*probes, *gallery)):
        raise ValueError("embedding pose axis does not match the canonical set")
    probe_union = np.logical_or.reduce([e.observed for e in probes])
    gallery_union = np.logical_or.reduce([e.observed for e in gallery])
    pose_axis = np.flatnonzero(probe_union | gallery_union)

    # A probe can only ever be asked for poses some gallery tracklet
    # observes, and vice versa; querying beyond that would surface provider
    # gaps no pair union contains.
    needed = {emb.tracklet_id: gallery_union for emb in probes}
    for emb in gallery:
        needed[emb.tracklet_id] = needed.get(emb.tracklet_id, False) | probe_union

    # One row per distinct tracklet, shared by the probe and gallery sides.
    distinct: dict[str, PoseNormalizedEmbedding] = {}
    for emb in (*probes, *gallery):
        distinct.setdefault(emb.tracklet_id, emb)
    shape = (len(distinct), len(pose_axis))
    unit = np.empty(shape + (probes[0].vectors.shape[1],))  # (T, M', d)
    freq = np.empty(shape)
    avail = np.empty(shape, dtype=bool)
    for i, emb in enumerate(distinct.values()):
        unit[i], freq[i], avail[i] = _dense_rep(
            emb, pose_axis, needed[emb.tracklet_id], provider, strict
        )
    row = {tid: i for i, tid in enumerate(distinct)}
    p = [row[e.tracklet_id] for e in probes]
    g = [row[e.tracklet_id] for e in gallery]

    numer = np.zeros((len(probes), len(gallery)))
    denom = np.zeros_like(numer)
    for m in range(len(pose_axis)):
        weight = (freq[p, m][:, None] + freq[g, m][None, :]) / 2.0
        weight = weight * (avail[p, m][:, None] & avail[g, m][None, :])
        cos = unit[p, m] @ unit[g, m].T
        numer += weight * cos
        denom += weight
    if (denom == 0.0).any():
        raise EmptyUnionError("a probe/gallery pair shares no fillable pose")
    return numer / denom
