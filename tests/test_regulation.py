"""Pose-normalized embeddings and the pose-weighted score."""

import itertools

import numpy as np
import pytest

from naive_reference import naive_groups, naive_mean, naive_representative, naive_wpr_score
from pdsr import (
    CanonicalPoseSet,
    EmptyUnionError,
    MissingSyntheticError,
    PoseNormalizedEmbedding,
    PoseVector,
    RepresentativeChoice,
    SyntheticFeatureProvider,
    Tracklet,
    ZeroVectorError,
    pose_normalize,
    rng_for,
    wpr_score_matrix,
)
from pdsr.generator import GenSpec, generate
from pdsr.model import FrameRecord

REP = RepresentativeChoice()


class DictProvider(SyntheticFeatureProvider):
    """Synthetic vectors from an explicit (tracklet_id, pose) table."""

    def __init__(self, table):
        self._table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def query(self, tracklet_id, representative_frame_id, pose):
        try:
            return np.array(self._table[(tracklet_id, pose)])
        except KeyError:
            raise MissingSyntheticError(f"no vector for {(tracklet_id, pose)}") from None


def make_emb(tid, spec, rep=0, m=3, d=3):
    """spec: {pose: (vector, frequency)} of observed poses, on an m-pose axis."""
    vectors = np.zeros((m, d))
    frequencies = np.zeros(m)
    for j, (v, f) in spec.items():
        vectors[j - 1] = v
        frequencies[j - 1] = f
    return PoseNormalizedEmbedding(tid, rep, vectors, frequencies, frequencies > 0.0)


def wpr(a, b, provider, canon, **kwargs):
    """Score of one pair through the batched scorer."""
    return wpr_score_matrix([a], [b], provider, canon, **kwargs)[0, 0]


def make_canon(m=3, k=5, seed=0):
    rng = rng_for(seed, "reg-canon")
    return CanonicalPoseSet(
        poses=tuple(
            PoseVector(joints=rng.uniform(0, 1, (k, 2)), visibility=np.ones(k, dtype=bool))
            for _ in range(m)
        )
    )


def all_embeddings(gen):
    return [pose_normalize(t, gen.canon, REP) for t in gen.dataset.tracklets]


# ------------------------------------------------------- pose_normalize


def test_pose_normalize_matches_group_oracle(noisy_gen):
    for t in noisy_gen.dataset.tracklets:
        emb = pose_normalize(t, noisy_gen.canon, REP)
        groups, freqs = naive_groups(t, noisy_gen.canon)
        assert emb.representative_frame_id == naive_representative(t, "seeded-random", 0)
        for j in noisy_gen.canon.indices:
            assert emb.observed[j - 1] == (j in groups)
            if j in groups:
                assert emb.frequencies[j - 1] == freqs[j]
                assert np.allclose(emb.vectors[j - 1], naive_mean(groups[j]), atol=1e-15)
            else:
                assert emb.frequencies[j - 1] == 0.0
                assert not emb.vectors[j - 1].any()


def test_pose_normalize_orders_entries(noisy_gen):
    # Row j - 1 belongs to canonical pose j, so the rows run in pose order.
    m = len(noisy_gen.canon)
    for t in noisy_gen.dataset.tracklets:
        emb = pose_normalize(t, noisy_gen.canon, REP)
        assert emb.vectors.shape == (m, t.frames[0].feature.shape[0])
        assert emb.frequencies.shape == emb.observed.shape == (m,)
        assert abs(emb.frequencies.sum() - 1.0) <= 1e-12


# ------------------------------------------------ union completion


def test_align_pair_completes_union_and_weights():
    canon = make_canon()
    a = make_emb("a", {1: ([1.0, 0.0, 0.0], 0.6), 2: ([0.0, 1.0, 0.0], 0.4)})
    b = make_emb("b", {2: ([0.0, 1.0, 0.0], 1.0)})
    # pose 1 of b is backfilled at frequency 0; raw weights (0.6+0)/2 and
    # (0.4+1.0)/2 already sum to 1
    provider = DictProvider({("b", 1): [1.0, 1.0, 0.0]})
    expected = 0.3 * (1.0 / np.sqrt(2.0)) + 0.7 * 1.0
    assert wpr(a, b, provider, canon) == pytest.approx(expected, abs=1e-15)


def test_align_pair_strict_raises_lenient_drops():
    canon = make_canon()
    a = make_emb("a", {1: ([1.0, 0.0, 0.0], 1.0)})
    b = make_emb("b", {2: ([0.0, 1.0, 0.0], 1.0)})
    # (b, 1) can be filled, (a, 2) cannot
    provider = DictProvider({("b", 1): [1.0, 1.0, 0.0]})
    with pytest.raises(MissingSyntheticError):
        wpr(a, b, provider, canon, strict=True)
    # only pose 1 survives, at nu = 1
    assert wpr(a, b, provider, canon, strict=False) == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-15
    )


def test_align_pair_lenient_with_nothing_left_raises():
    # One pair of the batch keeps no pose; the whole batch fails even
    # though the other pair is scorable.
    canon = make_canon()
    a = make_emb("a", {1: ([1.0, 0.0, 0.0], 1.0)})
    a2 = make_emb("a2", {2: ([0.0, 0.0, 1.0], 1.0)})
    b = make_emb("b", {2: ([0.0, 1.0, 0.0], 1.0)})
    with pytest.raises(EmptyUnionError):
        wpr_score_matrix([a, a2], [b], DictProvider({}), canon, strict=False)


def test_align_pair_empty_union_raises():
    canon = make_canon()
    a = make_emb("a", {})
    b = make_emb("b", {})
    with pytest.raises(EmptyUnionError):
        wpr(a, b, DictProvider({}), canon)


# ---------------------------------------------------- pose-weighted score


@pytest.fixture(scope="module")
def eight_pose_gen():
    return generate(
        GenSpec(
            identities=3,
            cameras=2,
            num_poses=8,
            feature_dim=16,
            pose_effect_scale=0.4,
            noise_sigma=0.05,
            pose_jitter=0.02,
            pose_visibility=((1, 2, 3, 5), (2, 4, 6, 7, 8)),
            seed=21,
        )
    )


def test_wpr_score_matches_naive_oracle(eight_pose_gen):
    gen = eight_pose_gen
    embs = all_embeddings(gen)
    tracklets = gen.dataset.tracklets
    for (ea, ta), (eb, tb) in itertools.combinations(zip(embs, tracklets), 2):
        expected = naive_wpr_score(
            ta, tb, gen.provider, gen.canon,
            ea.representative_frame_id, eb.representative_frame_id,
        )
        assert wpr(ea, eb, gen.provider, gen.canon) == pytest.approx(expected, abs=1e-12)


def test_wpr_score_symmetry(noisy_gen):
    embs = all_embeddings(noisy_gen)
    for ea, eb in itertools.combinations(embs, 2):
        ab = wpr(ea, eb, noisy_gen.provider, noisy_gen.canon)
        ba = wpr(eb, ea, noisy_gen.provider, noisy_gen.canon)
        assert abs(ab - ba) <= 1e-12


def test_nu_sums_to_one(noisy_gen):
    # Every per-pose cosine of a tracklet with itself is 1, so its
    # self-score is sum(nu), which must be 1.
    for emb in all_embeddings(noisy_gen):
        assert abs(wpr(emb, emb, noisy_gen.provider, noisy_gen.canon) - 1.0) <= 1e-12


def permuted(tracklet, rng):
    order = rng.permutation(len(tracklet.frames))
    return Tracklet(
        tracklet.tracklet_id,
        tracklet.identity,
        tracklet.camera,
        tuple(tracklet.frames[i] for i in order),
        tracklet.probe,
    )


def duplicated(tracklet):
    n = len(tracklet.frames)
    dup = tuple(
        FrameRecord(f.frame_id + n, f.feature, f.pose) for f in tracklet.frames_by_id()
    )
    return Tracklet(
        tracklet.tracklet_id,
        tracklet.identity,
        tracklet.camera,
        tracklet.frames + dup,
        tracklet.probe,
    )


def test_frame_permutation_leaves_score_unchanged(noisy_gen):
    # The provider is keyed by (tracklet, pose) only, so the representative
    # draw cannot leak storage order into the score.
    gen = noisy_gen
    rng = rng_for(0, "perm")
    a, b = gen.dataset.tracklets[0], gen.dataset.tracklets[5]
    base = wpr(
        pose_normalize(a, gen.canon, REP), pose_normalize(b, gen.canon, REP),
        gen.provider, gen.canon,
    )
    for _ in range(5):
        score = wpr(
            pose_normalize(permuted(a, rng), gen.canon, REP),
            pose_normalize(permuted(b, rng), gen.canon, REP),
            gen.provider, gen.canon,
        )
        assert abs(score - base) <= 1e-12


def test_whole_tracklet_duplication_leaves_score_unchanged(noisy_gen):
    gen = noisy_gen
    for a, b in itertools.combinations(gen.dataset.tracklets[:5], 2):
        base = wpr(
            pose_normalize(a, gen.canon, REP), pose_normalize(b, gen.canon, REP),
            gen.provider, gen.canon,
        )
        doubled = wpr(
            pose_normalize(duplicated(a), gen.canon, REP),
            pose_normalize(duplicated(b), gen.canon, REP),
            gen.provider, gen.canon,
        )
        assert abs(doubled - base) <= 1e-12


# ----------------------------------------------------- wpr_score_matrix


def test_matrix_equals_per_pair_path(noisy_gen):
    gen = noisy_gen
    embs = all_embeddings(gen)
    tracklets = gen.dataset.tracklets
    probes, gallery = embs[:4], embs  # overlap on purpose
    matrix = wpr_score_matrix(probes, gallery, gen.provider, gen.canon)
    assert matrix.shape == (4, len(embs))
    for i, (ea, ta) in enumerate(zip(probes, tracklets)):
        for k, (eb, tb) in enumerate(zip(gallery, tracklets)):
            if ea.tracklet_id == eb.tracklet_id:
                assert abs(matrix[i, k] - 1.0) <= 1e-12
                continue
            expected = naive_wpr_score(
                ta, tb, gen.provider, gen.canon,
                ea.representative_frame_id, eb.representative_frame_id,
            )
            assert abs(matrix[i, k] - expected) <= 1e-12


def test_matrix_single_pair_equals_direct_score(eight_pose_gen):
    # A pair scores the same alone as inside a batch whose pose axis also
    # carries poses neither side of the pair observes.
    gen = eight_pose_gen
    embs = all_embeddings(gen)
    single = wpr_score_matrix(embs[:1], embs[1:2], gen.provider, gen.canon)
    batch = wpr_score_matrix(embs[:1], embs, gen.provider, gen.canon)
    assert single.shape == (1, 1)
    assert abs(single[0, 0] - batch[0, 1]) <= 1e-12


def test_matrix_empty_inputs_give_empty_scores():
    canon = make_canon()
    some = make_emb("a", {1: ([1.0, 0.0, 0.0], 1.0)})
    assert wpr_score_matrix([], [some], DictProvider({}), canon).shape == (0, 1)
    assert wpr_score_matrix([some], [], DictProvider({}), canon).shape == (1, 0)


def test_matrix_only_queries_poses_a_pair_can_need():
    # Probe "a" never meets pose 2 in any union it belongs to (the gallery
    # observes only pose 1), so a provider gap at ("a", 2) must not matter
    # even though pose 2 is on the batch axis via probe "b".
    canon = make_canon()
    a = make_emb("a", {1: ([1.0, 0.0, 0.0], 1.0)})
    b = make_emb("b", {2: ([0.0, 1.0, 0.0], 1.0)})
    g = make_emb("g", {1: ([1.0, 1.0, 0.0], 1.0)})
    provider = DictProvider({("b", 1): [0.5, 0.5, 0.0], ("g", 2): [0.0, 1.0, 1.0]})
    matrix = wpr_score_matrix([a, b], [g], provider, canon, strict=True)
    # (a, g) meet on pose 1 only; (b, g) weigh poses 1 and 2 by 1/2 each
    expected = (1.0 / np.sqrt(2.0), 0.5 * 1.0 + 0.5 / np.sqrt(2.0))
    for row in range(2):
        assert abs(matrix[row, 0] - expected[row]) <= 1e-12
    # ... but a gap at a pose some pair does need fails loudly in strict mode
    short = DictProvider({("b", 1): [0.5, 0.5, 0.0]})
    with pytest.raises(MissingSyntheticError):
        wpr_score_matrix([a, b], [g], short, canon, strict=True)


def test_matrix_lenient_pair_with_no_shared_pose_raises():
    canon = make_canon()
    a = make_emb("a", {1: ([1.0, 0.0, 0.0], 1.0)})
    g = make_emb("g", {2: ([0.0, 1.0, 0.0], 1.0)})
    with pytest.raises(EmptyUnionError):
        wpr_score_matrix([a], [g], DictProvider({}), canon, strict=False)


def test_matrix_rejects_pose_outside_canonical_set():
    canon = make_canon(m=3)
    a = make_emb("a", {7: ([1.0, 0.0, 0.0], 1.0)}, m=7)
    g = make_emb("g", {1: ([0.0, 1.0, 0.0], 1.0)})
    with pytest.raises(ValueError):
        wpr_score_matrix([a], [g], DictProvider({}), canon)


def test_matrix_rejects_zero_synthetic_vector():
    canon = make_canon()
    a = make_emb("a", {1: ([1.0, 0.0, 0.0], 1.0)})
    g = make_emb("g", {2: ([0.0, 1.0, 0.0], 1.0)})
    provider = DictProvider({("a", 2): [0.0, 0.0, 0.0], ("g", 1): [1.0, 1.0, 0.0]})
    with pytest.raises(ZeroVectorError):
        wpr_score_matrix([a], [g], provider, canon)
