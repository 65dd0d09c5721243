"""Weighted fusion of real-sequence and synthetic canonical-pose features.

The fused embedding of a tracklet is

    w * mean(real frame features)  +  mean(synthetic per-pose features)

with the synthetic mean taken over the canonical poses the provider can
serve.  No re-normalization happens after fusion: downstream cosine scoring
absorbs global scale, so `w` is the single knob balancing the two branches.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingSyntheticError
from .model import CanonicalPoseSet, Tracklet
from .providers import RepresentativeChoice, SyntheticFeatureProvider, choose_representative

#: Default fusion weight; the empirically best-performing setting.
DEFAULT_FUSION_WEIGHT = 4.0


def baseline_embedding(tracklet: Tracklet) -> np.ndarray:
    """Element-wise mean of all frame features (frame-id order for stability)."""
    frames = tracklet.frames_by_id()
    if not frames:
        raise ValueError(f"tracklet {tracklet.tracklet_id!r} has no frames")
    return np.mean(np.stack([f.feature for f in frames]), axis=0)


def synthetic_mean(
    tracklet: Tracklet,
    provider: SyntheticFeatureProvider,
    canon: CanonicalPoseSet,
    rep: RepresentativeChoice,
    *,
    strict: bool = True,
) -> tuple[np.ndarray, int]:
    """Mean of the provider's per-pose vectors over the served canonical poses.

    In strict mode a missing pose propagates; in lenient mode unserved poses
    are skipped.  All poses missing is an error in both modes.
    """
    rep_frame = choose_representative(tracklet, rep)
    vectors = []
    for j in canon.indices:
        try:
            vectors.append(provider.query(tracklet.tracklet_id, rep_frame, j))
        except MissingSyntheticError:
            if strict:
                raise
    if not vectors:
        raise MissingSyntheticError(
            f"provider served no canonical pose for tracklet {tracklet.tracklet_id!r}"
        )
    return np.mean(np.stack(vectors), axis=0), len(vectors)


def wf_embedding(
    tracklet: Tracklet,
    provider: SyntheticFeatureProvider,
    canon: CanonicalPoseSet,
    w: float,
    rep: RepresentativeChoice,
    *,
    strict: bool = True,
) -> np.ndarray:
    """Fuse the real-frame mean with the synthetic per-pose mean under weight w."""
    if w < 0.0:
        raise ValueError("fusion weight must be non-negative")
    real_mean = baseline_embedding(tracklet)
    synth, _ = synthetic_mean(tracklet, provider, canon, rep, strict=strict)
    if synth.shape != real_mean.shape:
        raise ValueError(
            f"synthetic dimension {synth.shape[0]} != real dimension {real_mean.shape[0]}"
        )
    return w * real_mean + synth
