"""Weighted fusion of real-sequence and synthetic canonical-pose features.

The fused embedding of a tracklet is

    w * mean(real frame features)  +  mean(synthetic per-pose features)

with the synthetic mean taken over the canonical poses the provider can
serve.  Both means come batched: the real means from a TrackletMeans
record (segment sums in frame-id order), the synthetic ones from the tensor
`provider.fetch` returns, summed over the pose axis in pose order and
divided by the number of served poses.  WF assigns no frame a pose, so a
tracklet whose frames all miss the quantizer still fuses.  No re-normalization happens after
fusion: downstream cosine scoring absorbs global scale, so `w` is the
single knob balancing the two branches.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingSyntheticError
from .model import TrackletMeans

#: Default fusion weight; the empirically best-performing setting.
DEFAULT_FUSION_WEIGHT = 4.0


def wf_embeddings(
    record: TrackletMeans, synthetic: np.ndarray, served: np.ndarray, w: float
) -> np.ndarray:
    """Fused (T, d) embeddings of a record under weight w.

    `synthetic` and `served` are the tensor and mask `provider.fetch`
    returns; a tracklet for which no canonical pose was served is an error.
    """
    if not 0.0 <= w < np.inf:
        raise ValueError("fusion weight must be finite and non-negative")
    count = served.sum(axis=1)
    if not count.all():
        raise MissingSyntheticError(
            f"provider served no canonical pose for tracklet "
            f"{record.tracklet_ids[int(np.argmin(count))]!r}"
        )
    real = record.real_means
    if w == 0.0:  # 0 * an overflowed real mean would be NaN, not the synthetic mean alone
        real = np.where(np.isfinite(real), real, 0.0)
    with np.errstate(over="ignore"):  # an overflow is refused by name where the rows are used
        return w * real + synthetic.sum(axis=1) / count[:, None]
