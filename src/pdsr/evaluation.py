"""Cross-camera retrieval protocol and ranking metrics.

One probe tracklet is drawn per non-distractor identity; its headline
gallery is every tracklet filmed by a different camera, distractors
included.  The probe itself is never in its own gallery.  Rankings sort by
descending score with ties broken by ascending tracklet id, so equal-score
galleries rank identically across runs and platforms.

Probes whose gallery contains no same-identity tracklet cannot be scored
and are excluded from mAP and CMC rather than counted as misses; the report
keeps them visible through `num_probes` vs `num_scored`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .errors import InvalidDatasetError
from .fusion import DEFAULT_FUSION_WEIGHT, wf_embeddings
from .model import CanonicalPoseSet, Dataset, Tracklet, is_a, validate_dataset
from .providers import SyntheticFeatureProvider
from .regulation import (
    backfill_poses,
    pose_normalize,
    tracklet_means,
    unit_rows,
    wpr_score_matrix,
)
from .seeding import rng_for

#: CMC entries reported, unless the widest scored gallery is smaller.
CMC_DEPTH = 50


class EvalMode(Enum):
    """Which score feeds the ranking."""

    BASELINE = "baseline"
    WF = "wf"
    WPR = "wpr"
    FUSED = "wf+wpr"


@dataclass(frozen=True)
class ProtocolConfig:
    """The seed keys both the probe draw and each tracklet's representative frame."""

    seed: int = 0
    fusion_weight: float = DEFAULT_FUSION_WEIGHT
    strict: bool = True

    def __post_init__(self) -> None:
        if not is_a(self.seed, Integral):
            raise TypeError(f"seed {self.seed!r} is not an integer")
        if not isinstance(self.strict, bool):
            raise TypeError(f"strict {self.strict!r} is not a bool")
        if not is_a(self.fusion_weight, Real):
            raise TypeError(f"fusion_weight {self.fusion_weight!r} is not a number")
        if not 0.0 <= self.fusion_weight < np.inf:
            raise ValueError(f"fusion_weight {self.fusion_weight!r} is not a finite number >= 0")


@dataclass(frozen=True)
class ProbeCase:
    """One query and its cross-camera gallery (tracklet ids, ascending)."""

    probe_id: str
    identity: str
    camera: int
    gallery_ids: tuple[str, ...]


@dataclass(frozen=True)
class ProbeResult:
    probe_id: str
    identity: str
    camera: int
    gallery_size: int
    num_positives: int
    first_correct_rank: int | None
    ap: float | None


@dataclass(frozen=True)
class EvalReport:
    mode: str
    num_probes: int
    num_scored: int
    mean_ap: float | None
    cmc: tuple[float, ...]
    camera_ids: tuple[int, ...]
    camera_pair_map: tuple[tuple[float | None, ...], ...]
    probe_results: tuple[ProbeResult, ...]


def build_protocol(dataset: Dataset, seed: int) -> tuple[ProbeCase, ...]:
    """Draw one probe per non-distractor identity.

    The draw is keyed by (seed, identity) over candidates sorted by
    tracklet id, so adding or reordering other identities never shifts a
    given identity's pick.  Tracklets flagged `probe=True` restrict the
    candidate pool for their identity.
    """
    by_identity: dict[str, list[Tracklet]] = {}
    for t in dataset.tracklets:
        if t.is_distractor:
            continue
        by_identity.setdefault(t.identity, []).append(t)

    galleries: dict[int, tuple[str, ...]] = {}  # one per probe camera
    cases = []
    for identity in sorted(by_identity):
        candidates = [t for t in by_identity[identity] if t.probe] or by_identity[identity]
        pick = candidates[
            int(rng_for(seed, "probe-draw", identity).integers(len(candidates)))
        ]
        if pick.camera not in galleries:
            galleries[pick.camera] = tuple(
                t.tracklet_id for t in dataset.tracklets if t.camera != pick.camera
            )
        cases.append(
            ProbeCase(
                probe_id=pick.tracklet_id,
                identity=identity,
                camera=pick.camera,
                gallery_ids=galleries[pick.camera],
            )
        )
    return tuple(cases)


def rank_gallery(scores: np.ndarray) -> np.ndarray:
    """Column order of each row of a (probes, tracklets) score matrix.

    Columns sort by descending score; equal scores keep column order, which
    on the ascending-id axis is ascending tracklet id.  This is the one tie
    rule: any gallery's ranking is this order with the other columns
    dropped.
    """
    negated = -np.asarray(scores, dtype=np.float64)
    # The default sort is faster, and a row without a tie (an equal pair, +-0.0, NaN) has one order.
    order = np.argsort(negated, axis=-1)
    ranked = np.take_along_axis(negated, order, axis=-1)
    tied = ~(ranked[..., 1:] > ranked[..., :-1]).all(axis=-1)
    order[tied] = np.argsort(negated[tied], axis=-1, kind="stable")
    return order


def cmc_curve(first_correct_ranks: Sequence[int] | np.ndarray, length: int) -> np.ndarray:
    """cmc[k] = fraction of probes whose first match appears by rank k+1.

    Example: ranks [1, 3] at length 3 give [0.5, 0.5, 1.0].
    """
    if not len(first_correct_ranks):
        raise ValueError("no ranks to accumulate")
    if length < 1:
        raise ValueError("curve length must be positive")
    ranks = np.asarray(first_correct_ranks)
    ks = np.arange(1, length + 1)
    return (ranks[None, :] <= ks[:, None]).mean(axis=1)


def _first_rank_and_ap(
    inside: np.ndarray, positive: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row: positives in the gallery, 1-based first-positive rank, AP, gallery size.

    Both masks are read along a row's `rank_gallery` order of all columns:
    `inside` marks the gallery and `positive` the probe's identity.  A
    column's rank is the number of gallery columns up to it.  AP is the
    mean of precision at each positive rank: positives at ranks 2 and 4 of
    5 give (1/2 + 2/4) / 2 = 0.5.  Precision accumulates with a cumulative
    sum in rank order, which adds the same terms in the same order as a
    sequential loop; columns outside the gallery add zeros.  Rows without a
    positive have rank 0 and AP NaN.
    """
    relevant = inside & positive
    hits = np.cumsum(relevant, axis=1)
    rank = np.cumsum(inside, axis=1)
    count = hits[:, -1]
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(relevant, hits / rank, 0.0)
        ap = np.cumsum(precision, axis=1)[:, -1] / count
    first = np.take_along_axis(rank, relevant.argmax(axis=1)[:, None], axis=1)[:, 0]
    return count, np.where(count > 0, first, 0), ap, rank[:, -1]


def _mean(values: np.ndarray) -> float | None:
    """The values summed in order, a left fold the same on every Python, over their count; None if empty."""
    return float(np.cumsum(values)[-1] / len(values)) if len(values) else None


def _columns(
    dataset: Dataset, cases: Sequence[ProbeCase], order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Per case: camera codes along its row of `order`, its own, positives and non-probe columns; then the cameras.

    Identities and cameras are compared as codes (camera c is the c-th camera, ascending), the probe by its row.
    """
    tracklets = dataset.tracklets
    row = {t.tracklet_id: i for i, t in enumerate(tracklets)}
    identity_code: dict[str, int] = {}
    identities = np.array(
        [identity_code.setdefault(t.identity, len(identity_code)) for t in tracklets]
    )
    camera_ids = tuple(sorted({t.camera for t in tracklets}))
    camera_code = {camera: c for c, camera in enumerate(camera_ids)}
    cameras = np.array([camera_code[t.camera] for t in tracklets])
    case_cameras = np.array([camera_code.get(c.camera, -1) for c in cases])
    case_identities = np.array([identity_code.get(c.identity, -1) for c in cases])
    probes = np.array([row[c.probe_id] for c in cases])
    positive = identities[order] == case_identities[:, None]
    return cameras[order], case_cameras, positive, order != probes[:, None], camera_ids


def camera_confusion(
    columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]],
) -> tuple[tuple[int, ...], tuple[tuple[float | None, ...], ...]]:
    """Mean AP per (probe camera, gallery camera) cell.

    Column galleries hold exactly one camera's tracklets; on the diagonal
    the probe itself is removed, measuring intra-camera retrieval.
    `columns` is what `_columns` reads along the cases' `rank_gallery`
    order.  A cell averages its probes' APs in probe order; cells where no
    probe has a positive are None.
    """
    col_cameras, case_cameras, positive, not_probe, cameras = columns
    cells = []  # by gallery camera, then probe camera
    for b in range(len(cameras)):
        count, _, ap, _ = _first_rank_and_ap(not_probe & (col_cameras == b), positive)
        cells.append([_mean(ap[(count > 0) & (case_cameras == a)]) for a in range(len(cameras))])
    return cameras, tuple(zip(*cells))


def cosine_matrix(
    vectors: np.ndarray, probe_rows: Sequence[int], tracklet_ids: Sequence[str]
) -> np.ndarray:
    """Probe rows' cosines to all rows; `unit_rows` refuses a zero or overflowed row by its tracklet."""
    unit = unit_rows(vectors, tracklet_ids, "pools to a zero-norm vector")
    return unit[probe_rows] @ unit.T


def score_matrix(
    dataset: Dataset,
    canon: CanonicalPoseSet,
    provider: SyntheticFeatureProvider | None,
    cases: Sequence[ProbeCase],
    config: ProtocolConfig,
    mode: EvalMode,
) -> np.ndarray:
    """Scores of every probe against every tracklet (ascending id axis).

    Each mode pools all tracklets in one pass: BASELINE and WF read real
    means only, WPR and fused a pose record.  WF and WPR read one synthetic
    fetch.  `provider` may be None in BASELINE mode, which uses no
    synthetics.  A dataset `validate_dataset` reports is an InvalidDatasetError, a probe
    that is not in it a ValueError; a `mode` or `config` of the wrong type is a TypeError before any work.
    """
    if not isinstance(mode, EvalMode):
        raise TypeError(f"mode {mode!r} is not an EvalMode")
    if not isinstance(config, ProtocolConfig):
        raise TypeError(f"config {config!r} is not a ProtocolConfig")
    if provider is None and mode is not EvalMode.BASELINE:
        raise ValueError(f"mode {mode.value!r} needs a synthetic feature provider")
    tracklets = dataset.tracklets
    if issues := validate_dataset(tracklets, canon, expected_dim=dataset.feature_dim,
                                  expected_joints=dataset.joint_count):
        raise InvalidDatasetError(issues)
    row = {t.tracklet_id: i for i, t in enumerate(tracklets)}
    if missing := [c.probe_id for c in cases if c.probe_id not in row]:
        raise ValueError(f"probe {missing[0]!r} is not a tracklet of the dataset")
    probe_rows = [row[c.probe_id] for c in cases]
    if mode is EvalMode.BASELINE:  # the representative frames are never drawn
        record = tracklet_means(tracklets, config.seed)
        return cosine_matrix(record.real_means, probe_rows, record.tracklet_ids)

    # WF averages every canonical pose; WPR backfills only what a pair can need.
    wanted = np.ones((len(tracklets), len(canon)), dtype=bool)
    if mode is EvalMode.WF:
        record = tracklet_means(tracklets, config.seed)
    else:
        record = pose_normalize(tracklets, canon, config.seed)
        backfill = backfill_poses(record, probe_rows)
        if mode is EvalMode.WPR:
            wanted = backfill
    synthetic, served = provider.fetch(record, wanted, strict=config.strict)
    if mode is not EvalMode.WPR:
        cos = cosine_matrix(wf_embeddings(record, synthetic, served, config.fusion_weight),
                            probe_rows, record.tracklet_ids)
        if mode is EvalMode.WF:
            return cos

    wpr = wpr_score_matrix(record, probe_rows, synthetic, backfill & served)
    if mode is EvalMode.WPR:
        return wpr
    return cos + wpr


def evaluate(
    dataset: Dataset,
    canon: CanonicalPoseSet,
    provider: SyntheticFeatureProvider | None,
    config: ProtocolConfig,
    mode: EvalMode = EvalMode.FUSED,
) -> EvalReport:
    """Run the full protocol: probe draw, ranking, mAP, CMC, camera confusion."""
    if not isinstance(config, ProtocolConfig):  # before the probe draw reads its seed
        raise TypeError(f"config {config!r} is not a ProtocolConfig")
    cases = build_protocol(dataset, config.seed)
    if not cases:
        raise ValueError("dataset has no non-distractor identity to probe")

    scores = score_matrix(dataset, canon, provider, cases, config, mode)
    columns = _columns(dataset, cases, rank_gallery(scores))
    col_cameras, case_cameras, positive, _, _ = columns
    count, first, ap, sizes = _first_rank_and_ap(col_cameras != case_cameras[:, None], positive)
    results = tuple(
        ProbeResult(
            probe_id=case.probe_id,
            identity=case.identity,
            camera=case.camera,
            gallery_size=int(sizes[i]),
            num_positives=int(count[i]),
            first_correct_rank=int(first[i]) if count[i] else None,
            ap=float(ap[i]) if count[i] else None,
        )
        for i, case in enumerate(cases)
    )
    scored = count > 0
    cmc = ()
    if scored.any():
        cmc = tuple(cmc_curve(first[scored], min(CMC_DEPTH, int(sizes[scored].max()))).tolist())
    camera_ids, confusion = camera_confusion(columns)
    return EvalReport(
        mode=mode.value,
        num_probes=len(cases),
        num_scored=int(scored.sum()),
        mean_ap=_mean(ap[scored]),
        cmc=cmc,
        camera_ids=camera_ids,
        camera_pair_map=confusion,
        probe_results=results,
    )
