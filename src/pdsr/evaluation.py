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
from typing import Mapping, Sequence

import numpy as np

from .fusion import DEFAULT_FUSION_WEIGHT, baseline_embedding, wf_embedding
from .model import CanonicalPoseSet, Dataset, Tracklet
from .providers import RepresentativeChoice, SyntheticFeatureProvider
from .quantizer import DEFAULT_MIN_COMMON_JOINTS
from .regulation import pose_normalize, wpr_score_matrix
from .seeding import rng_for
from .similarity import cosine_matrix


class EvalMode(Enum):
    """Which score feeds the ranking."""

    BASELINE = "baseline"
    WF = "wf"
    WPR = "wpr"
    FUSED = "wf+wpr"


@dataclass(frozen=True)
class ProtocolConfig:
    seed: int = 0
    fusion_weight: float = DEFAULT_FUSION_WEIGHT
    representative: RepresentativeChoice = RepresentativeChoice()
    min_common_joints: int = DEFAULT_MIN_COMMON_JOINTS
    cmc_depth: int = 50
    strict: bool = True


@dataclass(frozen=True)
class ProbeCase:
    """One query and its cross-camera gallery (tracklet ids, ascending)."""

    probe_id: str
    identity: str
    camera: int
    gallery_ids: tuple[str, ...]


@dataclass(frozen=True)
class Ranking:
    """Gallery ids in rank order (best first) with their scores."""

    gallery_ids: tuple[str, ...]
    scores: tuple[float, ...]


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

    cases = []
    for identity in sorted(by_identity):
        candidates = sorted(by_identity[identity], key=lambda t: t.tracklet_id)
        flagged = [t for t in candidates if t.probe]
        if flagged:
            candidates = flagged
        pick = candidates[
            int(rng_for(seed, "probe-draw", identity).integers(len(candidates)))
        ]
        gallery = tuple(
            sorted(
                t.tracklet_id
                for t in dataset.tracklets
                if t.camera != pick.camera
            )
        )
        cases.append(
            ProbeCase(
                probe_id=pick.tracklet_id,
                identity=identity,
                camera=pick.camera,
                gallery_ids=gallery,
            )
        )
    return tuple(cases)


def fuse_scores(wf_scores: np.ndarray, wpr_scores: np.ndarray) -> np.ndarray:
    """Element-wise sum of the two score arrays."""
    a = np.asarray(wf_scores, dtype=np.float64)
    b = np.asarray(wpr_scores, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"score shapes differ: {a.shape} vs {b.shape}")
    return a + b


def rank_gallery(gallery_ids: Sequence[str], scores: Sequence[float]) -> Ranking:
    """Order by descending score; equal scores break by ascending id."""
    if len(gallery_ids) != len(scores):
        raise ValueError("one score per gallery id required")
    order = sorted(range(len(gallery_ids)), key=lambda i: (-scores[i], gallery_ids[i]))
    return Ranking(
        gallery_ids=tuple(gallery_ids[i] for i in order),
        scores=tuple(float(scores[i]) for i in order),
    )


def average_precision(relevant: Sequence[bool]) -> float:
    """Mean of precision at each relevant rank.

    Example: relevant items at ranks 2 and 4 of 5 give
    (1/2 + 2/4) / 2 = 0.5.
    """
    hits = 0
    total = 0.0
    for rank, rel in enumerate(relevant, start=1):
        if rel:
            hits += 1
            total += hits / rank
    if hits == 0:
        raise ValueError("ranking contains no relevant item")
    return total / hits


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


def _rank_and_ap(
    probe_identity: str,
    gallery_ids: Sequence[str],
    scores: Sequence[float],
    identities: Mapping[str, str],
) -> tuple[int | None, float | None]:
    """First-correct rank and AP for one ranking, or (None, None) if no positive."""
    ranking = rank_gallery(gallery_ids, scores)
    relevant = [identities[g] == probe_identity for g in ranking.gallery_ids]
    if not any(relevant):
        return None, None
    return relevant.index(True) + 1, average_precision(relevant)


def camera_confusion(
    cases: Sequence[ProbeCase],
    scores: np.ndarray,
    dataset: Dataset,
) -> tuple[tuple[int, ...], tuple[tuple[float | None, ...], ...]]:
    """Mean AP per (probe camera, gallery camera) cell.

    Column galleries hold exactly one camera's tracklets; on the diagonal
    the probe itself is removed, measuring intra-camera retrieval.  `scores`
    is cases x all-tracklets (ascending tracklet id).  Cells where no probe
    has a positive are None.
    """
    by_id = dataset.by_id()
    all_ids = sorted(by_id)
    col = {tid: i for i, tid in enumerate(all_ids)}
    identities = {tid: t.identity for tid, t in by_id.items()}
    cameras = dataset.cameras()
    per_camera_ids = {
        cam: [tid for tid in all_ids if by_id[tid].camera == cam] for cam in cameras
    }

    matrix: list[tuple[float | None, ...]] = []
    for cam_a in cameras:
        row: list[float | None] = []
        for cam_b in cameras:
            aps = []
            for i, case in enumerate(cases):
                if case.camera != cam_a:
                    continue
                gallery = [tid for tid in per_camera_ids[cam_b] if tid != case.probe_id]
                if not gallery:
                    continue
                _, ap = _rank_and_ap(
                    case.identity,
                    gallery,
                    [float(scores[i, col[g]]) for g in gallery],
                    identities,
                )
                if ap is not None:
                    aps.append(ap)
            row.append(sum(aps) / len(aps) if aps else None)
        matrix.append(tuple(row))
    return cameras, tuple(matrix)


def score_matrix(
    dataset: Dataset,
    canon: CanonicalPoseSet,
    provider: SyntheticFeatureProvider | None,
    cases: Sequence[ProbeCase],
    config: ProtocolConfig,
    mode: EvalMode,
) -> np.ndarray:
    """Scores of every probe against every tracklet (ascending id axis).

    `provider` may be None in BASELINE mode, which uses no synthetics.
    """
    if provider is None and mode is not EvalMode.BASELINE:
        raise ValueError(f"mode {mode.value!r} needs a synthetic feature provider")
    by_id = dataset.by_id()
    all_tracklets = [by_id[tid] for tid in sorted(by_id)]
    probe_tracklets = [by_id[c.probe_id] for c in cases]

    if mode in (EvalMode.BASELINE, EvalMode.WF, EvalMode.FUSED):
        if mode is EvalMode.BASELINE:
            vec = baseline_embedding
        else:
            def vec(t: Tracklet) -> np.ndarray:
                return wf_embedding(
                    t,
                    provider,
                    canon,
                    config.fusion_weight,
                    config.representative,
                    strict=config.strict,
                )
        cos = cosine_matrix(
            np.stack([vec(t) for t in probe_tracklets]),
            np.stack([vec(t) for t in all_tracklets]),
        )
        if mode is not EvalMode.FUSED:
            return cos

    if mode in (EvalMode.WPR, EvalMode.FUSED):
        embed = {
            t.tracklet_id: pose_normalize(
                t, canon, config.representative, min_common_joints=config.min_common_joints
            )
            for t in all_tracklets
        }
        wpr = wpr_score_matrix(
            [embed[c.probe_id] for c in cases],
            [embed[t.tracklet_id] for t in all_tracklets],
            provider,
            canon,
            strict=config.strict,
        )
        if mode is EvalMode.WPR:
            return wpr
    return fuse_scores(cos, wpr)


def evaluate(
    dataset: Dataset,
    canon: CanonicalPoseSet,
    provider: SyntheticFeatureProvider | None,
    config: ProtocolConfig,
    mode: EvalMode = EvalMode.FUSED,
) -> EvalReport:
    """Run the full protocol: probe draw, ranking, mAP, CMC, camera confusion."""
    cases = build_protocol(dataset, config.seed)
    if not cases:
        raise ValueError("dataset has no non-distractor identity to probe")
    all_ids = sorted(t.tracklet_id for t in dataset.tracklets)
    col = {tid: i for i, tid in enumerate(all_ids)}
    identities = {t.tracklet_id: t.identity for t in dataset.tracklets}

    scores = score_matrix(dataset, canon, provider, cases, config, mode)
    nonfinite = [c.probe_id for c, ok in zip(cases, np.isfinite(scores).all(axis=1)) if not ok]
    if nonfinite:
        raise ValueError(
            f"non-finite scores for probe(s) {', '.join(nonfinite)}; "
            "validate_dataset names the offending inputs"
        )

    results = []
    for i, case in enumerate(cases):
        rank, ap = _rank_and_ap(
            case.identity,
            case.gallery_ids,
            [float(scores[i, col[g]]) for g in case.gallery_ids],
            identities,
        )
        positives = sum(
            1 for g in case.gallery_ids if identities[g] == case.identity
        )
        results.append(
            ProbeResult(
                probe_id=case.probe_id,
                identity=case.identity,
                camera=case.camera,
                gallery_size=len(case.gallery_ids),
                num_positives=positives,
                first_correct_rank=rank,
                ap=ap,
            )
        )

    scored = [r for r in results if r.ap is not None]
    if scored:
        mean_ap = sum(r.ap for r in scored) / len(scored)
        length = min(config.cmc_depth, max(r.gallery_size for r in scored))
        cmc = tuple(
            float(v)
            for v in cmc_curve([r.first_correct_rank for r in scored], length)
        )
    else:
        mean_ap = None
        cmc = ()

    camera_ids, confusion = camera_confusion(cases, scores, dataset)
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
