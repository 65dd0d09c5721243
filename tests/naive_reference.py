"""Brute-force reference implementation for the oracle tests.

Everything is written as plain Python loops over lists of floats, sharing
no logic with the package's vectorized code paths.  Two contracts are
deliberately reimplemented from their documented definitions, because the
oracle must reproduce the same decisions, not just the same math:

  - the rng derivation rule (blake2s-hashed key parts feeding a numpy
    SeedSequence), used for the probe draw and representative choice;
  - the file formats are NOT touched here; oracles work on in-memory
    objects and call provider objects as opaque data sources.

In lenient mode a synthetic vector the provider does not serve leaves WF's
mean and WPR's pair union (nu renormalises over the poses that remain); in
strict mode the first miss, over the cells a run asks for in row-major
order, raises.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from pdsr.errors import EmptyUnionError, MissingSyntheticError

_MASK64 = (1 << 64) - 1


def naive_rng(seed: int, *parts: int | str) -> np.random.Generator:
    entropy = [seed & _MASK64]
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.blake2s(part.encode("utf-8"), digest_size=8).digest()
            entropy.append(int.from_bytes(digest, "big"))
        else:
            entropy.append(int(part) & _MASK64)
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ---------------------------------------------------------------- geometry


def naive_keypoint_distance(joints_a, vis_a, joints_b, vis_b, min_common_joints: int = 4) -> float | None:
    """Mean-RMS distance over mutually visible joints; None when too few."""
    total = 0.0
    count = 0
    for i in range(len(vis_a)):
        if vis_a[i] and vis_b[i]:
            dx = float(joints_a[i][0]) - float(joints_b[i][0])
            dy = float(joints_a[i][1]) - float(joints_b[i][1])
            total += dx * dx + dy * dy
            count += 1
    if count < min_common_joints:
        return None
    return math.sqrt(total / count)


def naive_assign(frame_pose, canon, min_common_joints: int = 4) -> int | None:
    """1-based index of the canon row nearest to a frame's pose; None when none is comparable."""
    best_index = None
    best = math.inf
    for j, (joints, vis) in enumerate(zip(canon.joints, canon.visibility), start=1):
        d = naive_keypoint_distance(frame_pose.joints, frame_pose.visibility, joints, vis, min_common_joints)
        if d is not None and d < best:
            best = d
            best_index = j
    return best_index


def naive_groups(tracklet, canon, min_common_joints: int = 4):
    """(pose -> list of features, pose -> frequency) over frame-id order."""
    frames = sorted(tracklet.frames, key=lambda f: f.frame_id)
    groups: dict[int, list] = {}
    for f in frames:
        j = naive_assign(f.pose, canon, min_common_joints)
        if j is not None:
            groups.setdefault(j, []).append([float(x) for x in f.feature])
    assignable = sum(len(g) for g in groups.values())
    freqs = {j: len(g) / assignable for j, g in groups.items()}
    return groups, freqs


# ------------------------------------------------------------------ algebra


def naive_mean(vectors: list[list[float]]) -> list[float]:
    dim = len(vectors[0])
    return [math.fsum(v[i] for v in vectors) / len(vectors) for i in range(dim)]


def naive_pairwise_sum(values: list[float]) -> float:
    """Sum in the pairwise order pooling uses: in order below 8 terms, 8 strided accumulators to 128, halves above."""
    n = len(values)
    if n < 8:
        total = -0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        acc = values[:8]
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for v in values[n - n % 8:]:
            total += v
        return total
    half = n // 2 - n // 2 % 8
    return naive_pairwise_sum(values[:half]) + naive_pairwise_sum(values[half:])


def naive_segment_mean(rows: list[list[float]]) -> list[float]:
    """Per column, the first value plus the pairwise sum of the rest, over the row count."""
    return [(col[0] + naive_pairwise_sum(list(col[1:]))) / len(col) for col in zip(*rows)]


def naive_cosine(u: list[float], v: list[float]) -> float:
    dot = math.fsum(a * b for a, b in zip(u, v))
    nu = math.sqrt(math.fsum(a * a for a in u))
    nv = math.sqrt(math.fsum(b * b for b in v))
    return dot / (nu * nv)


# ------------------------------------------------------------- embeddings


def naive_representative(tracklet, strategy: str, seed: int) -> int:
    frames = sorted(tracklet.frames, key=lambda f: f.frame_id)
    if strategy == "middle-frame":
        return frames[len(frames) // 2].frame_id
    rng = naive_rng(seed, "representative", tracklet.tracklet_id)
    return frames[int(rng.integers(len(frames)))].frame_id


def naive_baseline_vec(tracklet) -> list[float]:
    frames = sorted(tracklet.frames, key=lambda f: f.frame_id)
    return naive_mean([[float(x) for x in f.feature] for f in frames])


def naive_query(provider, tracklet, rep_frame: int, pose: int, strict: bool = True) -> list[float] | None:
    """The provider's vector for (tracklet, pose); None for a miss in lenient mode."""
    try:
        return [float(x) for x in provider.query(tracklet.tracklet_id, rep_frame, pose)]
    except MissingSyntheticError:
        if strict:
            raise
        return None


def naive_synth_mean(tracklet, provider, num_poses: int, rep_frame: int, strict: bool = True) -> list[float]:
    vectors = [naive_query(provider, tracklet, rep_frame, j, strict) for j in range(1, num_poses + 1)]
    served = [v for v in vectors if v is not None]
    if not served:
        raise MissingSyntheticError(
            f"provider served no canonical pose for tracklet {tracklet.tracklet_id!r}"
        )
    return naive_mean(served)


def naive_wf_vec(tracklet, provider, num_poses: int, w: float, rep_frame: int, strict: bool = True) -> list[float]:
    real = naive_baseline_vec(tracklet)
    synth = naive_synth_mean(tracklet, provider, num_poses, rep_frame, strict)
    return [w * r + s for r, s in zip(real, synth)]


def naive_wpr_score(
    tracklet_a,
    tracklet_b,
    provider,
    canon,
    rep_a: int,
    rep_b: int,
    min_common_joints: int = 4,
    strict: bool = True,
) -> float:
    groups_a, freq_a = naive_groups(tracklet_a, canon, min_common_joints)
    groups_b, freq_b = naive_groups(tracklet_b, canon, min_common_joints)
    union = sorted(set(groups_a) | set(groups_b))

    def side(groups, freqs, tracklet, rep):
        vectors = {}
        weights = {}
        for j in union:
            if j in groups:
                vectors[j] = naive_mean(groups[j])
                weights[j] = freqs[j]
            else:
                vectors[j] = naive_query(provider, tracklet, rep, j, strict)
                weights[j] = 0.0
        return vectors, weights

    vec_a, w_a = side(groups_a, freq_a, tracklet_a, rep_a)
    vec_b, w_b = side(groups_b, freq_b, tracklet_b, rep_b)
    union = [j for j in union if vec_a[j] is not None and vec_b[j] is not None]
    if not union:
        raise EmptyUnionError(f"{tracklet_a.tracklet_id!r} and {tracklet_b.tracklet_id!r} share no fillable pose")
    raw = {j: (w_a[j] + w_b[j]) / 2.0 for j in union}
    total = math.fsum(raw.values())
    score = 0.0
    for j in union:
        score += (raw[j] / total) * naive_cosine(vec_a[j], vec_b[j])
    return score


# --------------------------------------------------------------- protocol


def naive_probes(dataset, seed: int) -> list:
    """One tracklet per non-distractor identity, matching the documented draw."""
    by_identity: dict[str, list] = {}
    for t in dataset.tracklets:
        if t.identity == "DISTRACTOR":
            continue
        by_identity.setdefault(t.identity, []).append(t)
    picks = []
    for identity in sorted(by_identity):
        candidates = sorted(by_identity[identity], key=lambda t: t.tracklet_id)
        flagged = [t for t in candidates if t.probe]
        if flagged:
            candidates = flagged
        rng = naive_rng(seed, "probe-draw", identity)
        picks.append(candidates[int(rng.integers(len(candidates)))])
    return picks


def naive_rank(ids_scores: list[tuple[str, float]]) -> list[tuple[str, float]]:
    return sorted(ids_scores, key=lambda pair: (-pair[1], pair[0]))


def naive_ap(relevant_flags: list[bool]) -> float | None:
    hits = 0
    total = 0.0
    for rank, flag in enumerate(relevant_flags, start=1):
        if flag:
            hits += 1
            total += hits / rank
    if hits == 0:
        return None
    return total / hits


def naive_evaluate(
    dataset,
    canon,
    provider,
    mode: str,
    seed: int,
    w: float = 4.0,
    rep_strategy: str = "seeded-random",
    rep_seed: int | None = None,
    cmc_depth: int = 50,
    min_common_joints: int = 4,
    strict: bool = True,
) -> dict:
    """Full protocol by exhaustive per-pair scoring.

    Returns mean_ap, cmc, camera_ids, confusion and per-probe results in the
    same conventions as the package: probes without any positive are
    excluded from mean_ap and cmc, empty confusion cells are None, diagonal
    cells drop the probe.  WF fuses every tracklet before any pair is
    scored, so a tracklet with no served pose fails first, as in the package.
    """
    if rep_seed is None:
        rep_seed = seed
    num_poses = len(canon.joints)
    tracklets = sorted(dataset.tracklets, key=lambda t: t.tracklet_id)
    by_id = {t.tracklet_id: t for t in tracklets}
    reps = {t.tracklet_id: naive_representative(t, rep_strategy, rep_seed) for t in tracklets}
    probes = naive_probes(dataset, seed)
    if strict:
        for tid, j in naive_wanted_cells(tracklets, probes, canon, mode, min_common_joints):
            provider.query(tid, reps[tid], j)
    wf_vecs = {}
    if mode in ("wf", "wf+wpr"):
        wf_vecs = {t.tracklet_id: naive_wf_vec(t, provider, num_poses, w, reps[t.tracklet_id], strict)
                   for t in tracklets}

    def one_score(probe, other, which: str) -> float:
        if which == "baseline":
            return naive_cosine(naive_baseline_vec(probe), naive_baseline_vec(other))
        if which == "wf":
            return naive_cosine(wf_vecs[probe.tracklet_id], wf_vecs[other.tracklet_id])
        if which == "wpr":
            return naive_wpr_score(
                probe, other, provider, canon,
                reps[probe.tracklet_id], reps[other.tracklet_id], min_common_joints, strict,
            )
        if which == "wf+wpr":
            return one_score(probe, other, "wf") + one_score(probe, other, "wpr")
        raise ValueError(which)

    def ranked_ap(probe, gallery) -> tuple[int | None, float | None]:
        ranking = naive_rank([(g.tracklet_id, one_score(probe, g, mode)) for g in gallery])
        flags = [by_id[tid].identity == probe.identity for tid, _ in ranking]
        ap = naive_ap(flags)
        if ap is None:
            return None, None
        return flags.index(True) + 1, ap

    first_ranks = []
    aps = []
    gallery_sizes = []
    probe_results = []
    for probe in probes:
        gallery = [t for t in tracklets if t.camera != probe.camera]
        rank, ap = ranked_ap(probe, gallery)
        positives = sum(1 for t in gallery if t.identity == probe.identity)
        probe_results.append((probe.tracklet_id, len(gallery), positives, rank, ap))
        if ap is not None:
            first_ranks.append(rank)
            aps.append(ap)
            gallery_sizes.append(len(gallery))

    if aps:
        mean_ap = math.fsum(aps) / len(aps)
        length = min(cmc_depth, max(gallery_sizes))
        cmc = [
            sum(1 for r in first_ranks if r <= k) / len(first_ranks)
            for k in range(1, length + 1)
        ]
    else:
        mean_ap = None
        cmc = []

    camera_ids = sorted({t.camera for t in tracklets})
    confusion = []
    for cam_a in camera_ids:
        row = []
        for cam_b in camera_ids:
            cell_aps = []
            for probe in probes:
                if probe.camera != cam_a:
                    continue
                gallery = [
                    t for t in tracklets
                    if t.camera == cam_b and t.tracklet_id != probe.tracklet_id
                ]
                if not gallery:
                    continue
                _, ap = ranked_ap(probe, gallery)
                if ap is not None:
                    cell_aps.append(ap)
            row.append(math.fsum(cell_aps) / len(cell_aps) if cell_aps else None)
        confusion.append(row)

    return {
        "mean_ap": mean_ap,
        "cmc": cmc,
        "camera_ids": camera_ids,
        "confusion": confusion,
        "num_probes": len(probes),
        "num_scored": len(aps),
        "probe_results": probe_results,
    }


def naive_wanted_cells(tracklets, probes, canon, mode: str, min_common_joints: int = 4) -> list[tuple[str, int]]:
    """The (tracklet id, pose) cells a run asks the provider for, in row-major order.

    WF asks for every pose of every tracklet.  WPR asks, for each scored
    pair (a probe and any other tracklet), for the poses one side observes
    that the other does not.
    """
    poses = range(1, len(canon.joints) + 1)
    if mode in ("wf", "wf+wpr"):
        return [(t.tracklet_id, j) for t in tracklets for j in poses]
    if mode == "baseline":
        return []
    observed = {t.tracklet_id: set(naive_groups(t, canon, min_common_joints)[0]) for t in tracklets}
    wanted = set()
    for probe in probes:
        for other in tracklets:
            if other is not probe:
                for a, b in ((probe, other), (other, probe)):
                    wanted |= {(a.tracklet_id, j) for j in observed[b.tracklet_id] - observed[a.tracklet_id]}
    return sorted(wanted)
