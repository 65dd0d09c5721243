"""Weighted fusion of real and synthetic features, and its limit behavior."""

import numpy as np
import pytest

from conftest import make_canon
from naive_reference import naive_cosine, naive_rank, naive_synth_mean, naive_wf_vec
from pdsr import (
    Dataset,
    EvalMode,
    MissingSyntheticError,
    ProtocolConfig,
    SyntheticFeatureProvider,
    Tracklet,
    ZeroVectorError,
)
from pdsr.evaluation import ProbeCase, cosine_matrix, score_matrix
from pdsr.fusion import wf_embeddings
from pdsr.model import FrameRecord, PoseVector
from pdsr.providers import representative_frames
from pdsr.regulation import tracklet_means
from pdsr.seeding import rng_for

SEED = 0


def random_canon(rng, m=3, k=5):
    return make_canon(rng.uniform(0, 1, (m, k, 2)))


def make_tracklet(rng, tid="t0", n=5, d=6, k=5):
    frames = tuple(
        FrameRecord(i, rng.normal(size=d),
                    PoseVector(joints=rng.uniform(0, 1, (k, 2)),
                               visibility=np.ones(k, dtype=bool)))
        for i in range(n)
    )
    return Tracklet(tid, "x", 0, frames)


class PoseOnlyProvider(SyntheticFeatureProvider):
    """Serves a fixed vector per pose, ignoring the tracklet; optionally partial."""

    def __init__(self, vectors, missing=()):
        self._vectors = vectors
        self._missing = set(missing)

    def query(self, tracklet_id, representative_frame_id, pose):
        if pose in self._missing or not 1 <= pose <= len(self._vectors):
            raise MissingSyntheticError(f"pose {pose}")
        return np.array(self._vectors[pose - 1], dtype=np.float64)


def fetch_all(record, provider, canon, strict=True):
    """Synthetic tensor and served mask over every canonical pose, as WF asks."""
    wanted = np.ones((len(record.tracklet_ids), len(canon)), dtype=bool)
    return provider.fetch(record, wanted, strict=strict)


def wf_vectors(tracklets, provider, canon, w):
    """WF embeddings of the tracklets through the batched pass and one fetch."""
    record = tracklet_means(tracklets, SEED)
    return wf_embeddings(record, *fetch_all(record, provider, canon), w)


def test_baseline_is_frame_mean_and_order_invariant():
    rng = rng_for(0, "wf")
    t = make_tracklet(rng)
    expected = np.mean(np.stack([f.feature for f in t.frames]), axis=0)
    real = tracklet_means([t], SEED).real_means[0]
    assert np.allclose(real, expected, atol=1e-15)
    shuffled = Tracklet("t0", "x", 0, tuple(reversed(t.frames)))
    assert np.array_equal(real, tracklet_means([shuffled], SEED).real_means[0])
    with pytest.raises(ValueError):
        tracklet_means([Tracklet("t0", "x", 0, ())], SEED)


def test_synthetic_mean_over_all_canonical_poses():
    rng = rng_for(1, "wf")
    t = make_tracklet(rng)
    canon = random_canon(rng)
    vectors = rng.normal(size=(3, 6))
    record = tracklet_means([t], SEED)
    synthetic, served = fetch_all(record, PoseOnlyProvider(vectors), canon)
    assert served.sum() == 3
    mean = wf_embeddings(record, synthetic, served, 0.0)[0]
    assert np.allclose(mean, vectors.mean(axis=0), atol=1e-15)


def test_synthetic_mean_strict_vs_lenient():
    rng = rng_for(2, "wf")
    t = make_tracklet(rng)
    canon = random_canon(rng)
    vectors = rng.normal(size=(3, 6))
    record = tracklet_means([t], SEED)
    partial = PoseOnlyProvider(vectors, missing={2})
    with pytest.raises(MissingSyntheticError):
        fetch_all(record, partial, canon, strict=True)
    synthetic, served = fetch_all(record, partial, canon, strict=False)
    assert served.sum() == 2
    mean = wf_embeddings(record, synthetic, served, 0.0)[0]
    assert np.allclose(mean, vectors[[0, 2]].mean(axis=0), atol=1e-15)
    empty = PoseOnlyProvider(vectors, missing={1, 2, 3})
    with pytest.raises(MissingSyntheticError):
        wf_embeddings(record, *fetch_all(record, empty, canon, strict=False), 0.0)


def test_weight_zero_is_bitwise_synthetic_only():
    rng = rng_for(3, "wf")
    t = make_tracklet(rng)
    canon = random_canon(rng)
    provider = PoseOnlyProvider(rng.normal(size=(3, 6)))
    fused = wf_vectors([t], provider, canon, 0.0)[0]
    synth = np.mean(np.stack([provider.query("t0", 0, j) for j in canon.indices]), axis=0)
    assert np.array_equal(fused, synth)


def test_wf_formula_matches_naive():
    rng = rng_for(4, "wf")
    t = make_tracklet(rng)
    canon = random_canon(rng)
    provider = PoseOnlyProvider(rng.normal(size=(3, 6)))
    for w in (0.5, 1.0, 4.0):
        got = wf_vectors([t], provider, canon, w)[0]
        rep_frame = representative_frames([t], SEED)(0)
        expected = naive_wf_vec(t, provider, 3, w, rep_frame)
        assert np.allclose(got, expected, atol=1e-12)


def test_wf_rejects_negative_weight_and_dim_mismatch():
    rng = rng_for(5, "wf")
    t = make_tracklet(rng)
    canon = random_canon(rng)
    provider = PoseOnlyProvider(rng.normal(size=(3, 6)))
    for w in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            wf_vectors([t], provider, canon, w)
    bad = PoseOnlyProvider(rng.normal(size=(3, 9)))
    with pytest.raises(ValueError):
        wf_vectors([t], bad, canon, 1.0)


def test_wf_invariant_to_frame_storage_order():
    rng = rng_for(6, "wf")
    t = make_tracklet(rng)
    canon = random_canon(rng)
    provider = PoseOnlyProvider(rng.normal(size=(3, 6)))
    shuffled = Tracklet("t0", "x", 0, tuple(reversed(t.frames)))
    a = wf_vectors([t], provider, canon, 4.0)
    b = wf_vectors([shuffled], provider, canon, 4.0)
    assert np.array_equal(a, b)


def test_wf_score_is_per_gallery_cosine():
    # WF mode scores a probe against each tracklet by the cosine of their
    # fused vectors.
    canon, tracklets, provider = gallery_setup(7)
    dataset = Dataset("wf", 6, 5, 3, 1, tuple(tracklets))
    case = ProbeCase("g00", "x", 0, tuple(t.tracklet_id for t in tracklets[1:]))
    config = ProtocolConfig(seed=SEED)
    scores = score_matrix(dataset, canon, provider, [case], config, EvalMode.WF)
    vectors = wf_vectors(tracklets, provider, canon, 4.0)
    for score, vec in zip(scores[0], vectors):
        expected = naive_cosine(list(vectors[0]), list(vec))
        assert score == pytest.approx(expected, abs=1e-12)


def test_cosine_matches_naive_oracle():
    rng = rng_for(8, "cos")
    vectors = rng.normal(size=(20, 10))
    probe_rows, ids = [3, 0, 17, 3, 9], [f"t{k:02d}" for k in range(20)]
    matrix = cosine_matrix(vectors, probe_rows, ids)
    assert matrix.shape == (5, 20)
    for i, p in enumerate(probe_rows):
        for k, v in enumerate(vectors):
            assert matrix[i, k] == pytest.approx(naive_cosine(list(vectors[p]), list(v)), abs=1e-12)
    vectors[12] = 0.0
    with pytest.raises(ZeroVectorError, match="tracklet 't12' pools to a zero-norm vector"):
        cosine_matrix(vectors, probe_rows, ids)


def gallery_setup(seed, n=8):
    rng = rng_for(seed, "lim")
    canon = random_canon(rng)
    tracklets = [make_tracklet(rng, tid=f"g{i:02d}") for i in range(n)]
    provider = PoseOnlyProvider(rng.normal(size=(3, 6)))
    return canon, tracklets, provider


def ranking_ids(probe_vec, gallery_vecs, ids):
    scores = cosine_matrix(np.stack([probe_vec, *gallery_vecs]), [0], ["probe", *ids])[0, 1:]
    return [g for g, _ in naive_rank(list(zip(ids, scores.tolist())))]


def test_large_weight_ranking_equals_baseline_ranking():
    canon, tracklets, provider = gallery_setup(9)
    ids = [t.tracklet_id for t in tracklets[1:]]
    real = tracklet_means(tracklets, SEED).real_means
    for w in (1e6, 1e9):
        vectors = wf_vectors(tracklets, provider, canon, w)
        wf_rank = ranking_ids(vectors[0], list(vectors[1:]), ids)
        base_rank = ranking_ids(real[0], list(real[1:]), ids)
        assert wf_rank == base_rank


def test_zero_weight_ranking_equals_synthetic_only_ranking():
    canon, tracklets, provider = gallery_setup(10)
    ids = [t.tracklet_id for t in tracklets[1:]]
    vectors = wf_vectors(tracklets, provider, canon, 0.0)
    wf_rank = ranking_ids(vectors[0], list(vectors[1:]), ids)
    synth = [np.array(naive_synth_mean(t, provider, 3, 0)) for t in tracklets]
    synth_rank = ranking_ids(synth[0], synth[1:], ids)
    assert wf_rank == synth_rank


def test_global_scaling_leaves_ranking_identical():
    canon, tracklets, provider = gallery_setup(11)
    ids = [t.tracklet_id for t in tracklets[1:]]
    vecs = list(wf_vectors(tracklets, provider, canon, 4.0))
    plain = ranking_ids(vecs[0], vecs[1:], ids)
    scaled = ranking_ids(7.5 * vecs[0], [7.5 * v for v in vecs[1:]], ids)
    assert plain == scaled
