"""The batched pose pass, the shared synthetic fetch, and the pose-weighted score."""

import itertools

import numpy as np
import pytest

from naive_reference import naive_groups, naive_mean, naive_representative, naive_wpr_score
from pdsr import (
    AllFramesUnassignableError,
    EmptyUnionError,
    MissingSyntheticError,
    SyntheticFeatureProvider,
    Tracklet,
    ZeroVectorError,
)
from pdsr.generator import GenSpec, generate
from pdsr.model import FrameRecord, PoseRecord, PoseVector
from pdsr.regulation import backfill_poses, pose_normalize, tracklet_means, unit_rows, wpr_score_matrix
from pdsr.seeding import rng_for

SEED = 0


class DictProvider(SyntheticFeatureProvider):
    """Synthetic vectors from an explicit (tracklet_id, pose) table."""

    def __init__(self, table):
        self._table = {k: np.asarray(v, dtype=np.float64) for k, v in table.items()}

    def query(self, tracklet_id, representative_frame_id, pose):
        try:
            return np.array(self._table[(tracklet_id, pose)])
        except KeyError:
            raise MissingSyntheticError(f"no vector for {(tracklet_id, pose)}") from None


def make_record(specs, m=3, d=3):
    """specs: {tid: {pose: (vector, frequency)}} of observed poses, on an m-pose axis."""
    vectors = np.zeros((len(specs), m, d))
    frequencies = np.zeros((len(specs), m))
    for t, spec in enumerate(specs.values()):
        for j, (v, f) in spec.items():
            vectors[t, j - 1] = v
            frequencies[t, j - 1] = f
    return PoseRecord(tuple(specs), ((0,) * len(specs)).__getitem__, np.zeros((len(specs), d)),
                      vectors, frequencies, frequencies > 0.0)


def scores(record, probe_rows, provider, strict=True):
    """WPR scores of the probe rows against all rows, backfilled by one fetch."""
    wanted = backfill_poses(record, probe_rows)
    synthetic, served = provider.fetch(record, wanted, strict=strict)
    return wpr_score_matrix(record, probe_rows, synthetic, served)


def wpr(a, b, gen):
    """Score of one tracklet pair through a two-row record."""
    return scores(pose_normalize([a, b], gen.canon, SEED), [0], gen.provider)[0, 1]


def all_pairs(gen):
    """The record of every tracklet and the all-against-all score matrix."""
    record = pose_normalize(gen.dataset.tracklets, gen.canon, SEED)
    return record, scores(record, range(len(record.tracklet_ids)), gen.provider)


def shuffled(tracklet, rng):
    order = rng.permutation(len(tracklet.frames))
    return Tracklet(
        tracklet.tracklet_id,
        tracklet.identity,
        tracklet.camera,
        tuple(tracklet.frames[i] for i in order),
        tracklet.probe,
    )


# ------------------------------------------------------- pose_normalize


def test_pose_normalize_matches_group_oracle(noisy_gen):
    record = pose_normalize(noisy_gen.dataset.tracklets, noisy_gen.canon, SEED)
    for row, t in enumerate(noisy_gen.dataset.tracklets):
        groups, freqs = naive_groups(t, noisy_gen.canon)
        assert record.tracklet_ids[row] == t.tracklet_id
        assert record.representative_frame(row) == naive_representative(t, "seeded-random", 0)
        for j in noisy_gen.canon.indices:
            assert record.observed[row, j - 1] == (j in groups)
            if j in groups:
                assert record.frequencies[row, j - 1] == freqs[j]
                assert np.allclose(record.vectors[row, j - 1], naive_mean(groups[j]), atol=1e-15)
            else:
                assert record.frequencies[row, j - 1] == 0.0
                assert not record.vectors[row, j - 1].any()


def test_pose_normalize_orders_entries(noisy_gen):
    # Column j - 1 of the pose axis belongs to canonical pose j, so each
    # row runs in pose order.
    tracklets = noisy_gen.dataset.tracklets
    record = pose_normalize(tracklets, noisy_gen.canon, SEED)
    t, m, d = len(tracklets), len(noisy_gen.canon), noisy_gen.dataset.feature_dim
    assert record.vectors.shape == (t, m, d)
    assert record.real_means.shape == (t, d)
    assert record.frequencies.shape == record.observed.shape == (t, m)
    assert (abs(record.frequencies.sum(axis=1) - 1.0) <= 1e-12).all()


def test_batched_pass_equals_single_tracklet_pass_and_oracle(noisy_gen):
    # Frames are stored shuffled; each row must come out as it does from a
    # one-tracklet call, and match the per-frame oracle.
    rng = rng_for(1, "batched-pass")
    tracklets = [shuffled(t, rng) for t in noisy_gen.dataset.tracklets]
    canon = noisy_gen.canon
    record = pose_normalize(tracklets, canon, SEED)
    for row, t in enumerate(tracklets):
        alone = pose_normalize([t], canon, SEED)
        assert alone.representative_frame(0) == record.representative_frame(row)
        for field in ("real_means", "vectors", "frequencies", "observed"):
            assert np.array_equal(getattr(alone, field)[0], getattr(record, field)[row]), field
        groups, freqs = naive_groups(t, canon)
        frames = [[float(x) for x in f.feature] for f in t.frames]
        assert np.abs(record.real_means[row] - naive_mean(frames)).max() <= 1e-12
        for j in canon.indices:
            assert record.observed[row, j - 1] == (j in groups)
            assert record.frequencies[row, j - 1] == freqs.get(j, 0.0)
            expected = naive_mean(groups[j]) if j in groups else [0.0] * len(frames[0])
            assert np.abs(record.vectors[row, j - 1] - expected).max() <= 1e-12


def test_tracklet_without_assignable_frame_is_named(noisy_gen):
    blind = PoseVector(joints=np.zeros((18, 2)), visibility=np.arange(18) < 3)
    victim = noisy_gen.dataset.tracklets[2]
    hidden = Tracklet(victim.tracklet_id, victim.identity, victim.camera,
                      tuple(FrameRecord(f.frame_id, f.feature, blind) for f in victim.frames))
    tracklets = list(noisy_gen.dataset.tracklets)
    tracklets[2] = hidden
    with pytest.raises(AllFramesUnassignableError, match=victim.tracklet_id):
        pose_normalize(tracklets, noisy_gen.canon, SEED)


# ------------------------------------------------ union completion


def test_align_pair_completes_union_and_weights():
    record = make_record({
        "a": {1: ([1.0, 0.0, 0.0], 0.6), 2: ([0.0, 1.0, 0.0], 0.4)},
        "b": {2: ([0.0, 1.0, 0.0], 1.0)},
    })
    # pose 1 of b is backfilled at frequency 0; raw weights (0.6+0)/2 and
    # (0.4+1.0)/2 already sum to 1
    provider = DictProvider({("b", 1): [1.0, 1.0, 0.0]})
    expected = 0.3 * (1.0 / np.sqrt(2.0)) + 0.7 * 1.0
    assert scores(record, [0], provider)[0, 1] == pytest.approx(expected, abs=1e-15)


def test_align_pair_strict_raises_lenient_drops():
    record = make_record({"a": {1: ([1.0, 0.0, 0.0], 1.0)}, "b": {2: ([0.0, 1.0, 0.0], 1.0)}})
    # (b, 1) can be filled, (a, 2) cannot
    provider = DictProvider({("b", 1): [1.0, 1.0, 0.0]})
    with pytest.raises(MissingSyntheticError):
        scores(record, [0], provider, strict=True)
    # only pose 1 survives, at nu = 1
    assert scores(record, [0], provider, strict=False)[0, 1] == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-15
    )


def test_align_pair_lenient_with_nothing_left_raises():
    # One pair of the batch keeps no pose; the whole batch fails even
    # though the other pairs are scorable.
    record = make_record({
        "a": {1: ([1.0, 0.0, 0.0], 1.0)},
        "a2": {2: ([0.0, 0.0, 1.0], 1.0)},
        "b": {2: ([0.0, 1.0, 0.0], 1.0)},
    })
    with pytest.raises(EmptyUnionError):
        scores(record, [0, 1], DictProvider({}), strict=False)


@pytest.mark.parametrize("probe_rows, pair", [([0, 1], ("a", "a2")), ([1, 0], ("a2", "a"))])
def test_empty_union_names_the_first_pair_in_row_major_order(probe_rows, pair):
    # (a, a2), (a, b), (a2, a) and (a2, c) share no pose; column-major
    # order would name (a2, a) first for probe rows [0, 1].
    record = make_record({
        "a": {1: ([1.0, 0.0, 0.0], 1.0)},
        "a2": {2: ([0.0, 0.0, 1.0], 1.0)},
        "b": {2: ([0.0, 1.0, 0.0], 1.0)},
        "c": {1: ([0.0, 1.0, 0.0], 1.0)},
    })
    with pytest.raises(EmptyUnionError, match=rf"^probe {pair[0]!r} and gallery {pair[1]!r} share"):
        scores(record, probe_rows, DictProvider({}), strict=False)


def test_align_pair_empty_union_raises():
    record = make_record({"a": {}, "b": {}})
    with pytest.raises(EmptyUnionError):
        scores(record, [0], DictProvider({}))


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
    record, matrix = all_pairs(gen)
    tracklets = gen.dataset.tracklets
    for a, b in itertools.combinations(range(len(tracklets)), 2):
        expected = naive_wpr_score(
            tracklets[a], tracklets[b], gen.provider, gen.canon,
            record.representative_frame(a), record.representative_frame(b),
        )
        assert matrix[a, b] == pytest.approx(expected, abs=1e-12)


def test_wpr_score_symmetry(noisy_gen):
    _, matrix = all_pairs(noisy_gen)
    for a, b in itertools.combinations(range(matrix.shape[0]), 2):
        assert abs(matrix[a, b] - matrix[b, a]) <= 1e-12


def test_nu_sums_to_one(noisy_gen):
    # Every per-pose cosine of a tracklet with itself is 1, so its
    # self-score is sum(nu), which must be 1.
    _, matrix = all_pairs(noisy_gen)
    assert (abs(np.diag(matrix) - 1.0) <= 1e-12).all()


def duplicated(tracklet):
    n = len(tracklet.frames)
    dup = tuple(
        FrameRecord(f.frame_id + n, f.feature, f.pose) for f in tracklet.frames
    )
    return Tracklet(
        tracklet.tracklet_id,
        tracklet.identity,
        tracklet.camera,
        (*tracklet.frames, *dup),
        tracklet.probe,
    )


def test_frame_permutation_leaves_score_unchanged(noisy_gen):
    # The provider is keyed by (tracklet, pose) only, so the representative
    # draw cannot leak storage order into the score.
    gen = noisy_gen
    rng = rng_for(0, "perm")
    a, b = gen.dataset.tracklets[0], gen.dataset.tracklets[5]
    base = wpr(a, b, gen)
    for _ in range(5):
        assert abs(wpr(shuffled(a, rng), shuffled(b, rng), gen) - base) <= 1e-12


def test_whole_tracklet_duplication_leaves_score_unchanged(noisy_gen):
    gen = noisy_gen
    for a, b in itertools.combinations(gen.dataset.tracklets[:5], 2):
        assert abs(wpr(duplicated(a), duplicated(b), gen) - wpr(a, b, gen)) <= 1e-12


# ----------------------------------------------------- wpr_score_matrix


def test_matrix_equals_per_pair_path(noisy_gen):
    gen = noisy_gen
    tracklets = gen.dataset.tracklets
    record = pose_normalize(tracklets, gen.canon, SEED)
    matrix = scores(record, [0, 1, 2, 3], gen.provider)  # probes are rows too
    assert matrix.shape == (4, len(tracklets))
    reps = record.representative_frame
    for i in range(4):
        for k in range(len(tracklets)):
            if i == k:
                assert abs(matrix[i, k] - 1.0) <= 1e-12
                continue
            expected = naive_wpr_score(
                tracklets[i], tracklets[k], gen.provider, gen.canon, reps(i), reps(k)
            )
            assert abs(matrix[i, k] - expected) <= 1e-12


def test_matrix_single_pair_equals_direct_score(eight_pose_gen):
    # A pair scores the same alone as inside a batch whose pose axis also
    # carries poses neither side of the pair observes.
    gen = eight_pose_gen
    a, b = gen.dataset.tracklets[:2]
    record = pose_normalize(gen.dataset.tracklets, gen.canon, SEED)
    batch = scores(record, [0], gen.provider)
    assert batch.shape == (1, len(gen.dataset.tracklets))
    assert abs(wpr(a, b, gen) - batch[0, 1]) <= 1e-12


def test_matrix_empty_inputs_give_empty_scores():
    record = make_record({"a": {1: ([1.0, 0.0, 0.0], 1.0)}})
    assert scores(record, [], DictProvider({})).shape == (0, 1)
    assert scores(make_record({}), [], DictProvider({})).shape == (0, 0)


def test_matrix_only_queries_poses_a_pair_can_need():
    # Probe "a" meets every pose some row observes, but "g" and "h" only
    # ever meet pose 1, the probe's; provider gaps at (g, 3) and (h, 2)
    # must not matter even in strict mode.
    record = make_record({
        "a": {1: ([1.0, 0.0, 0.0], 1.0)},
        "g": {2: ([0.0, 1.0, 0.0], 1.0)},
        "h": {3: ([0.0, 0.0, 1.0], 1.0)},
    })
    table = {("a", 2): [0.0, 1.0, 1.0], ("a", 3): [0.0, 0.0, 1.0],
             ("g", 1): [1.0, 1.0, 0.0], ("h", 1): [1.0, 0.0, 1.0]}
    assert backfill_poses(record, [0]).tolist() == [
        [False, True, True], [True, False, False], [True, False, False]
    ]
    matrix = scores(record, [0], DictProvider(table), strict=True)
    # (a, g) weigh poses 1 and 2 by 1/2 each, (a, h) poses 1 and 3
    expected = (1.0, 1.0 / np.sqrt(2.0), 0.5 / np.sqrt(2.0) + 0.5)
    for col in range(3):
        assert abs(matrix[0, col] - expected[col]) <= 1e-12
    # ... but a gap at a pose some pair does need fails loudly in strict mode
    del table[("g", 1)]
    with pytest.raises(MissingSyntheticError):
        scores(record, [0], DictProvider(table), strict=True)


def test_matrix_lenient_pair_with_no_shared_pose_raises():
    record = make_record({"a": {1: ([1.0, 0.0, 0.0], 1.0)}, "g": {2: ([0.0, 1.0, 0.0], 1.0)}})
    with pytest.raises(EmptyUnionError):
        scores(record, [0], DictProvider({}), strict=False)


def test_matrix_rejects_zero_synthetic_vector():
    record = make_record({"a": {1: ([1.0, 0.0, 0.0], 1.0)}, "g": {2: ([0.0, 1.0, 0.0], 1.0)}})
    provider = DictProvider({("a", 2): [0.0, 0.0, 0.0], ("g", 1): [1.0, 1.0, 0.0]})
    with pytest.raises(ZeroVectorError):
        scores(record, [0], provider)


def test_pooling_no_tracklets_is_an_error(small_gen):
    with pytest.raises(ValueError, match="no tracklets to pool"):
        tracklet_means([], SEED)
    with pytest.raises(ValueError, match="no tracklets to pool"):
        pose_normalize([], small_gen.canon, SEED)


def test_unit_rows_retakes_only_the_norms_that_underflow():
    vectors = rng_for(0, "unit-rows").normal(size=(4, 8))
    plain = unit_rows(vectors, "abcd", "is zero")
    vectors[1] *= 1e-200  # its squares all underflow to 0
    vectors[2] = 0.0
    got = unit_rows(vectors, "abcd", "is zero", needed=np.array([True, True, False, True]))
    assert got[[0, 3]].tobytes() == plain[[0, 3]].tobytes()
    assert np.allclose(got[1], plain[1], rtol=1e-15, atol=0.0)
    assert not got[2].any()
    with pytest.raises(ZeroVectorError, match="tracklet 'c' is zero"):
        unit_rows(vectors, "abcd", "is zero")
