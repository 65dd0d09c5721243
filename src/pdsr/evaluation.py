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
from numbers import Real
from typing import Sequence

import numpy as np

from .errors import InvalidDatasetError
from .fusion import DEFAULT_FUSION_WEIGHT, wf_embeddings
from .model import CanonicalPoseSet, Dataset, Tracklet, validate_dataset
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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise TypeError(f"seed {self.seed!r} is not an integer")
        if not isinstance(self.strict, bool):
            raise TypeError(f"strict {self.strict!r} is not a bool")
        if isinstance(self.fusion_weight, bool) or not isinstance(self.fusion_weight, Real):
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
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")


def cmc_curve(first_correct_ranks: Sequence[int], length: int) -> np.ndarray:
    """cmc[k] = fraction of probes whose first match appears by rank k+1.

    Example: ranks [1, 3] at length 3 give [0.5, 0.5, 1.0].
    """
    if not first_correct_ranks:
        raise ValueError("no ranks to accumulate")
    if length < 1:
        raise ValueError("curve length must be positive")
    ranks = np.asarray(first_correct_ranks)
    ks = np.arange(1, length + 1)
    return (ranks[None, :] <= ks[:, None]).mean(axis=1)


def _first_rank_and_ap(
    inside: np.ndarray, positive: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: positives in the gallery, 1-based first-positive rank, AP.

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
    return count, np.where(count > 0, first, 0), ap


def _columns(
    dataset: Dataset, cases: Sequence[ProbeCase], order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per case, read along its row of `order`: column cameras, positives and non-probe columns.

    Identities are compared as integer codes, the probe by its row.
    """
    tracklets = dataset.tracklets
    row = {t.tracklet_id: i for i, t in enumerate(tracklets)}
    identity_code: dict[str, int] = {}
    identities = np.array(
        [identity_code.setdefault(t.identity, len(identity_code)) for t in tracklets]
    )
    cameras = np.array([t.camera for t in tracklets], dtype=int)
    case_identities = np.array([identity_code.get(c.identity, -1) for c in cases])
    probes = np.array([row[c.probe_id] for c in cases])
    positive = identities[order] == case_identities[:, None]
    return cameras[order], positive, order != probes[:, None]


def camera_confusion(
    cases: Sequence[ProbeCase],
    dataset: Dataset,
    columns: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[tuple[int, ...], tuple[tuple[float | None, ...], ...]]:
    """Mean AP per (probe camera, gallery camera) cell.

    Column galleries hold exactly one camera's tracklets; on the diagonal
    the probe itself is removed, measuring intra-camera retrieval.
    `columns` is what `_columns` reads along the cases' `rank_gallery`
    order.  A cell averages its probes' APs in probe order; cells where no
    probe has a positive are None.
    """
    col_cameras, positive, not_probe = columns
    case_cameras = np.array([c.camera for c in cases])
    cameras = dataset.cameras()
    cells = []  # by gallery camera, then probe camera
    for cam_b in cameras:
        count, _, ap = _first_rank_and_ap(not_probe & (col_cameras == cam_b), positive)
        cells.append([ap[(count > 0) & (case_cameras == cam_a)].tolist() for cam_a in cameras])
    matrix = tuple(tuple(sum(aps) / len(aps) if aps else None for aps in row) for row in zip(*cells))
    return cameras, matrix


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
    synthetics.  A dataset `validate_dataset` reports is an InvalidDatasetError;
    a `mode` or `config` of the wrong type is a TypeError before any work.
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
    col_cameras, positive, _ = columns
    gallery = col_cameras != np.array([c.camera for c in cases])[:, None]
    count, first, ap = _first_rank_and_ap(gallery, positive)
    sizes = gallery.sum(axis=1)
    results = [
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
    ]

    scored = [r for r in results if r.ap is not None]
    if scored:
        mean_ap = sum(r.ap for r in scored) / len(scored)
        length = min(CMC_DEPTH, max(r.gallery_size for r in scored))
        cmc = tuple(
            float(v)
            for v in cmc_curve([r.first_correct_rank for r in scored], length)
        )
    else:
        mean_ap = None
        cmc = ()

    camera_ids, confusion = camera_confusion(cases, dataset, columns)
    return EvalReport(
        mode=mode.value,
        num_probes=len(cases),
        num_scored=len(scored),
        mean_ap=mean_ap,
        cmc=cmc,
        camera_ids=camera_ids,
        camera_pair_map=confusion,
        probe_results=tuple(results),
    )
