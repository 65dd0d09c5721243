"""Retrieval protocol, ranking metrics, and the cross-camera report."""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_canon
from naive_reference import naive_ap, naive_baseline_vec, naive_cosine, naive_rank, naive_wf_vec
from test_acceptance import stressor_spec
import pdsr.evaluation
from pdsr import (
    AllFramesUnassignableError,
    CanonicalPoseSet,
    Dataset,
    EvalMode,
    InvalidDatasetError,
    MissingSyntheticError,
    ProtocolConfig,
    SyntheticFeatureProvider,
    Tracklet,
    ZeroVectorError,
    evaluate,
    validate_dataset,
)
from pdsr.evaluation import (
    CMC_DEPTH,
    ProbeCase,
    _columns,
    _first_rank_and_ap,
    build_protocol,
    camera_confusion,
    cmc_curve,
    rank_gallery,
    score_matrix,
)
from pdsr.generator import GenSpec, generate
from pdsr.model import DISTRACTOR, FrameRecord, PackedFrames, PoseVector
from pdsr.seeding import rng_for


def make_tracklet(rng, tid, identity, camera, probe=False, n=3, d=8, k=5):
    frames = tuple(
        FrameRecord(i, rng.normal(size=d),
                    PoseVector(joints=rng.uniform(0, 1, (k, 2)),
                               visibility=np.ones(k, dtype=bool)))
        for i in range(n)
    )
    return Tracklet(tid, identity, camera, frames, probe)


def make_dataset(rows, seed=0, d=8, k=5):
    """rows: (tid, identity, camera[, probe]) tuples."""
    rng = rng_for(seed, "eval-ds")
    tracklets = tuple(make_tracklet(rng, *row, d=d, k=k) for row in rows)
    cameras = {t.camera for t in tracklets}
    return Dataset("manual", d, k, 2, len(cameras), tracklets)


def random_canon(m=2, k=5, seed=1):
    return make_canon(rng_for(seed, "eval-canon").uniform(0, 1, (m, k, 2)))


# ------------------------------------------------------------- metrics


def gallery_order(order, gallery):
    """Each row of `order` with the columns outside its gallery dropped."""
    return [row[mask[row]] for row, mask in zip(order, gallery)]


def ranked_metrics(scores, gallery, positive):
    """(gallery orders, first-correct ranks, APs) of the one sort; None without a positive."""
    scores, gallery, positive = (np.atleast_2d(a) for a in (scores, gallery, positive))
    order = rank_gallery(scores)  # the one sort evaluate makes per probe row
    count, first, ap, _ = _first_rank_and_ap(
        np.take_along_axis(gallery, order, axis=1), np.take_along_axis(positive, order, axis=1)
    )
    firsts = [int(f) if n else None for n, f in zip(count, first)]
    aps = [float(a) if n else None for n, a in zip(count, ap)]
    return gallery_order(order, gallery), firsts, aps


def test_average_precision_spec_example():
    # positives at ranks 2 and 4 of 5: (1/2 + 2/4) / 2
    _, firsts, aps = ranked_metrics(
        [5.0, 4.0, 3.0, 2.0, 1.0], [True] * 5, [False, True, False, True, False]
    )
    assert firsts == [2] and aps == [0.5]


def test_average_precision_without_positives_is_none():
    _, firsts, aps = ranked_metrics([2.0, 1.0], [True, True], [False, False])
    assert firsts == [None] and aps == [None]


@given(st.lists(st.booleans(), min_size=1, max_size=30).filter(any))
def test_average_precision_stays_in_unit_interval(flags):
    n = len(flags)
    _, _, (ap,) = ranked_metrics(np.arange(n, 0, -1.0), [True] * n, flags)
    assert ap == naive_ap(flags)
    assert 0.0 <= ap <= 1.0
    if all(flags[: sum(flags)]):  # every positive ranked first
        assert ap == 1.0


# scores from a few values, -0.0 and 0.0 among them, so most rows hold ties
TIED_SCORES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0])


@st.composite
def score_problems(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=12))
    cell = lambda strategy: st.lists(  # noqa: E731
        st.lists(strategy, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    scores = np.array(draw(cell(TIED_SCORES)), dtype=np.float64)
    gallery = np.array(draw(cell(st.booleans())), dtype=bool)
    positive = np.array(draw(cell(st.booleans())), dtype=bool)
    # force an empty gallery and a positive-free row now and then
    if draw(st.booleans()):
        gallery[draw(st.integers(0, rows - 1))] = False
    if draw(st.booleans()):
        positive[draw(st.integers(0, rows - 1))] = False
    return scores, gallery, positive


@settings(max_examples=300)
@given(score_problems())
def test_batched_ranking_equals_oracle_exactly(problem):
    scores, gallery, positive = problem
    ids = [f"t{j:03d}" for j in range(scores.shape[1])]  # ascending id = column order
    order, firsts, aps = ranked_metrics(scores, gallery, positive)
    for i in range(scores.shape[0]):
        members = np.flatnonzero(gallery[i]).tolist()
        expected = naive_rank([(ids[j], float(scores[i, j])) for j in members])
        assert [ids[j] for j in order[i]] == [g for g, _ in expected]
        flags = [bool(positive[i, ids.index(g)]) for g, _ in expected]
        assert aps[i] == naive_ap(flags)
        assert firsts[i] == (flags.index(True) + 1 if any(flags) else None)


def test_cmc_spec_example():
    assert cmc_curve([1, 3], 3).tolist() == [0.5, 0.5, 1.0]


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=40),
)
def test_cmc_is_monotone_in_unit_interval(ranks, length):
    curve = cmc_curve(ranks, length)
    assert len(curve) == length
    assert (curve >= 0).all() and (curve <= 1).all()
    assert (np.diff(curve) >= 0).all()


def test_cmc_matches_first_hit_oracle_over_random_matrices():
    rng = rng_for(0, "cmc-oracle")
    for _ in range(100):
        n_probes = int(rng.integers(2, 6))
        n_gallery = int(rng.integers(n_probes, 9))
        ids = [f"g{i}" for i in range(n_gallery)]
        # each probe is guaranteed one positive at its own distinct slot
        identity = {g: f"p{rng.integers(n_probes)}" for g in ids}
        for p, slot in enumerate(rng.permutation(n_gallery)[:n_probes]):
            identity[ids[int(slot)]] = f"p{p}"
        scores = rng.normal(size=(n_probes, n_gallery))
        ranks = []
        for p in range(n_probes):
            ranked = naive_rank(list(zip(ids, scores[p])))
            ranks.append(
                next(i for i, (g, _) in enumerate(ranked, 1) if identity[g] == f"p{p}")
            )
        expected = [
            sum(1 for r in ranks if r <= k + 1) / n_probes for k in range(n_gallery)
        ]
        assert cmc_curve(ranks, n_gallery) == pytest.approx(expected, abs=1e-15)


def test_rank_gallery_breaks_ties_by_ascending_id():
    # columns are ids a, b, c, d; d is outside the gallery
    order = rank_gallery(np.array([[1.0, 2.0, 1.0, 5.0]]))
    (ranked,) = gallery_order(order, np.array([[True, True, True, False]]))
    assert ranked.tolist() == [1, 0, 2]


def test_rank_gallery_puts_non_gallery_after_minus_infinity():
    # column 1 outside the gallery outscores both -inf columns, yet the gallery's ranking omits it
    order = rank_gallery(np.array([[-np.inf, 0.0, -np.inf]]))
    (ranked,) = gallery_order(order, np.array([[True, False, True]]))
    assert ranked.tolist() == [0, 2]


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(0, 40)),
                  elements=st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan])
                  | st.integers(-3, 3).map(float) | st.floats(-1.0, 1.0)))
@example(np.zeros((3, 0)))
@example(np.zeros((0, 5)))
def test_rank_gallery_equals_one_stable_sort(scores):
    # Small integers tie often, and +-0.0 and NaN are ties too; only a tied row may need the stable sort.
    assert rank_gallery(scores).tolist() == np.argsort(-scores, axis=-1, kind="stable").tolist()


# ------------------------------------------------------------ protocol


def test_build_protocol_draws_one_probe_per_identity(small_gen):
    dataset = small_gen.dataset
    cases = build_protocol(dataset, seed=0)
    identities = {t.identity for t in dataset.tracklets if not t.is_distractor}
    assert [c.identity for c in cases] == sorted(identities)
    by_id = dataset.by_id()
    for case in cases:
        probe = by_id[case.probe_id]
        assert probe.identity == case.identity
        assert probe.camera == case.camera
        assert case.probe_id not in case.gallery_ids
        assert list(case.gallery_ids) == sorted(case.gallery_ids)
        for g in case.gallery_ids:
            assert by_id[g].camera != case.camera
        # distractors stay in the gallery pool
        assert any(by_id[g].is_distractor for g in case.gallery_ids)


def test_build_protocol_probe_flags_restrict_pool():
    rows = [
        ("a-0", "ida", 0), ("a-1", "ida", 1, True), ("a-2", "ida", 1),
        ("b-0", "idb", 0), ("b-1", "idb", 1),
    ]
    dataset = make_dataset(rows)
    for seed in range(5):
        cases = build_protocol(dataset, seed)
        assert next(c for c in cases if c.identity == "ida").probe_id == "a-1"


def test_build_protocol_ignores_insertion_order(small_gen):
    dataset = small_gen.dataset
    shuffled = Dataset(
        dataset.name, dataset.feature_dim, dataset.joint_count,
        dataset.num_poses, dataset.camera_count,
        tuple(reversed(dataset.tracklets)),
    )
    assert build_protocol(dataset, seed=3) == build_protocol(shuffled, seed=3)


def test_build_protocol_skips_distractors():
    rows = [("a-0", "ida", 0), ("a-1", "ida", 1), ("x-0", DISTRACTOR, 0)]
    cases = build_protocol(make_dataset(rows), seed=0)
    assert [c.identity for c in cases] == ["ida"]


# ------------------------------------------------------------ evaluate


def test_report_mean_ap_is_mean_of_scored_probes(small_gen):
    report = evaluate(
        small_gen.dataset, small_gen.canon, small_gen.provider,
        ProtocolConfig(seed=0), EvalMode.FUSED,
    )
    scored = [r.ap for r in report.probe_results if r.ap is not None]
    assert report.num_scored == len(scored)
    assert report.num_probes == len(report.probe_results)
    assert report.mean_ap == pytest.approx(sum(scored) / len(scored), abs=1e-12)


def test_report_cmc_length_tracks_depth_and_gallery(small_gen):
    args = (small_gen.dataset, small_gen.canon, small_gen.provider)
    narrow = evaluate(*args, ProtocolConfig(seed=0), EvalMode.WF)
    widest = max(r.gallery_size for r in narrow.probe_results if r.ap is not None)
    assert widest < CMC_DEPTH and len(narrow.cmc) == widest
    # Camera 0's probes see 30 same-identity and 25 distractor tracklets.
    rows = [(f"{i:02d}-{cam}", f"id{i:02d}", cam) for i in range(30) for cam in (0, 1)]
    rows += [(f"x-{i:02d}", DISTRACTOR, 1) for i in range(25)]
    wide = evaluate(make_dataset(rows), random_canon(), None, ProtocolConfig(), EvalMode.BASELINE)
    assert max(r.gallery_size for r in wide.probe_results if r.ap is not None) > CMC_DEPTH
    assert len(wide.cmc) == CMC_DEPTH == 50


def test_probes_without_positives_are_reported_not_scored():
    # idb exists only in camera 0, so its cross-camera gallery has no positive
    rows = [
        ("a-0", "ida", 0), ("a-1", "ida", 1),
        ("b-0", "idb", 0),
        ("x-0", DISTRACTOR, 1),
    ]
    dataset = make_dataset(rows)
    report = evaluate(dataset, random_canon(), None, ProtocolConfig(), EvalMode.BASELINE)
    assert report.num_probes == 2
    assert report.num_scored == 1
    orphan = next(r for r in report.probe_results if r.identity == "idb")
    assert orphan.num_positives == 0
    assert orphan.first_correct_rank is None and orphan.ap is None
    scored = next(r for r in report.probe_results if r.identity == "ida")
    assert scored.num_positives == 1


def test_evaluate_requires_a_probeable_identity():
    rows = [("x-0", DISTRACTOR, 0), ("x-1", DISTRACTOR, 1)]
    with pytest.raises(ValueError):
        evaluate(make_dataset(rows), random_canon(), None, ProtocolConfig(), EvalMode.BASELINE)


def test_baseline_mode_needs_no_provider(small_gen):
    report = evaluate(
        small_gen.dataset, small_gen.canon, None, ProtocolConfig(seed=0), EvalMode.BASELINE,
    )
    assert report.mode == "baseline"
    assert report.num_scored > 0


@pytest.mark.parametrize("mode", [EvalMode.WF, EvalMode.WPR, EvalMode.FUSED])
def test_synthetic_modes_without_provider_raise(small_gen, mode):
    config = ProtocolConfig(seed=0)
    cases = build_protocol(small_gen.dataset, config.seed)
    with pytest.raises(ValueError) as exc:
        score_matrix(small_gen.dataset, small_gen.canon, None, cases, config, mode)
    assert repr(mode.value) in str(exc.value)
    with pytest.raises(ValueError) as exc:
        evaluate(small_gen.dataset, small_gen.canon, None, config, mode)
    assert repr(mode.value) in str(exc.value)


class CountingProvider(SyntheticFeatureProvider):
    """Records every (tracklet, pose) asked of an inner provider; misses `missing`."""

    def __init__(self, inner, missing=()):
        self.inner = inner
        self.missing = set(missing)
        self.keys = []

    def query(self, tracklet_id, representative_frame_id, pose):
        self.keys.append((tracklet_id, pose))
        if (tracklet_id, pose) in self.missing:
            raise MissingSyntheticError(f"no vector for {(tracklet_id, pose)}")
        return self.inner.query(tracklet_id, representative_frame_id, pose)


@pytest.mark.parametrize("strict", [True, False])
def test_fused_evaluation_queries_each_key_at_most_once(noisy_gen, strict):
    # WF and WPR read one synthetic fetch, so no key is asked twice.
    missing = () if strict else {(t.tracklet_id, 4) for t in noisy_gen.dataset.tracklets[::3]}
    provider = CountingProvider(noisy_gen.provider, missing)
    config = ProtocolConfig(seed=0, strict=strict)
    evaluate(noisy_gen.dataset, noisy_gen.canon, provider, config, EvalMode.FUSED)
    assert len(provider.keys) == len(set(provider.keys))
    assert len(provider.keys) == len(noisy_gen.dataset.tracklets) * len(noisy_gen.canon)


@pytest.mark.parametrize("mode, has_provider",
                         [("wf", True), (None, True), ("baseline", False), ("bogus", True), (0, True)],
                         ids=["wf", "None", "baseline-without-provider", "bogus", "0"])
def test_a_mode_that_is_no_eval_mode_is_a_type_error_before_any_work(small_gen, mode, has_provider):
    provider = CountingProvider(small_gen.provider) if has_provider else None
    with pytest.raises(TypeError, match=f"^mode {re.escape(repr(mode))} is not an EvalMode$"):
        evaluate(small_gen.dataset, small_gen.canon, provider, ProtocolConfig(), mode)
    assert provider is None or provider.keys == []  # nothing was fetched


@pytest.mark.parametrize("config", [None, {"seed": 0}], ids=["None", "dict"])
@pytest.mark.parametrize("entry", ["evaluate", "score_matrix"])
def test_a_config_that_is_no_protocol_config_is_a_type_error_before_any_work(small_gen, entry, config):
    provider = CountingProvider(small_gen.provider)
    run = {
        "evaluate": lambda: evaluate(small_gen.dataset, small_gen.canon, provider, config, EvalMode.FUSED),
        "score_matrix": lambda: score_matrix(small_gen.dataset, small_gen.canon, provider,
                                             build_protocol(small_gen.dataset, 0), config, EvalMode.FUSED),
    }[entry]
    with pytest.raises(TypeError, match=f"^config {re.escape(repr(config))} is not a ProtocolConfig$"):
        run()
    assert provider.keys == []  # nothing was fetched


def occluded(tracklet):
    """The tracklet with every frame showing only 3 joints: no frame maps to a pose."""
    frames = tuple(
        FrameRecord(f.frame_id, f.feature,
                    PoseVector(f.pose.joints, np.arange(len(f.pose.joints)) < 3))
        for f in tracklet.frames
    )
    return Tracklet(tracklet.tracklet_id, tracklet.identity, tracklet.camera, frames, tracklet.probe)


def test_pose_free_modes_score_a_tracklet_without_assignable_frame(small_gen):
    # Baseline and WF read no pose; only WPR needs the frames to map to one.
    ds = small_gen.dataset
    victim = ds.tracklets[1]
    tracklets = tuple(occluded(t) if t is victim else t for t in ds.tracklets)
    dataset = Dataset(ds.name, ds.feature_dim, ds.joint_count, ds.num_poses,
                      ds.camera_count, tracklets)
    config = ProtocolConfig(seed=0)
    cases = build_protocol(dataset, config.seed)
    col = sorted(t.tracklet_id for t in tracklets).index(victim.tracklet_id)
    by_id = dataset.by_id()
    m = len(small_gen.canon)
    naive = {
        EvalMode.BASELINE: naive_baseline_vec,
        EvalMode.WF: lambda t: naive_wf_vec(t, small_gen.provider, m, 4.0, 0),
    }
    for mode, vec in naive.items():
        scores = score_matrix(dataset, small_gen.canon, small_gen.provider, cases, config, mode)
        for case, row in zip(cases, scores):
            expected = naive_cosine(vec(by_id[case.probe_id]), vec(by_id[victim.tracklet_id]))
            assert row[col] == pytest.approx(expected, abs=1e-12)
        assert evaluate(dataset, small_gen.canon, small_gen.provider, config, mode).num_scored
    for mode in (EvalMode.WPR, EvalMode.FUSED):
        with pytest.raises(AllFramesUnassignableError, match=victim.tracklet_id):
            evaluate(dataset, small_gen.canon, small_gen.provider, config, mode)


@pytest.fixture(scope="module")
def gate_gen():
    return generate(GenSpec(identities=6, cameras=2, feature_dim=16, num_poses=3, seed=4))


FRAME_ARRAYS = ("frame_ids", "features", "joints", "visibility")


def _refill(tracklet, **arrays):
    """The tracklet with some of its frames' arrays replaced."""
    packed = PackedFrames(*(arrays.get(f, getattr(tracklet.frames, f)) for f in FRAME_ARRAYS))
    return dataclasses.replace(tracklet, frames=packed)


def _one_tracklet(edit):
    """A defect in tracklet 3 of the dataset: edit(frames) gives its new arrays."""
    def defect(dataset, canon):
        tracklets = list(dataset.tracklets)
        tracklets[3] = _refill(tracklets[3], **edit(tracklets[3].frames))
        return dataclasses.replace(dataset, tracklets=tuple(tracklets)), canon
    return defect


def _repeated_id(dataset, canon):
    tracklets = list(dataset.tracklets)
    source = tracklets[0]
    target = next(t for t in tracklets if t.identity != source.identity)
    tracklets[tracklets.index(target)] = dataclasses.replace(target, tracklet_id=source.tracklet_id)
    return dataclasses.replace(dataset, tracklets=tuple(tracklets)), canon


def _duplicate_canon(dataset, canon):
    joints, visibility = canon.joints.copy(), canon.visibility.copy()
    joints[1], visibility[1] = joints[0], visibility[0]
    return dataset, CanonicalPoseSet(joints, visibility)


def _with(array, index, value):
    """A copy of the array with one entry set."""
    array = array.copy()
    array[index] = value
    return array


# One dataset per validation code, each holding that defect (and maybe others).
DEFECTS = {
    "canon_duplicate": _duplicate_canon,
    "canon_joint_mismatch": lambda d, c: (dataclasses.replace(d, joint_count=d.joint_count + 1), c),
    "duplicate_tracklet_id": _repeated_id,
    "empty_tracklet": _one_tracklet(lambda f: {a: getattr(f, a)[:0] for a in FRAME_ARRAYS}),
    "duplicate_frame_id": _one_tracklet(lambda f: {"frame_ids": _with(f.frame_ids, 1, f.frame_ids[0])}),
    "dimension_mismatch": lambda d, c: (dataclasses.replace(d, feature_dim=d.feature_dim + 1), c),
    "nonfinite_feature": _one_tracklet(lambda f: {"features": _with(f.features, (0, 0), np.nan)}),
    "zero_feature": _one_tracklet(lambda f: {"features": np.zeros_like(f.features)}),
    "joint_count_mismatch": _one_tracklet(lambda f: {
        "joints": np.concatenate([f.joints, f.joints[:, :1]], axis=1),
        "visibility": np.concatenate([f.visibility, f.visibility[:, :1]], axis=1),
    }),
    "coordinate_out_of_range": _one_tracklet(lambda f: {"joints": f.joints + 2.0}),
}


def test_every_validation_code_has_a_defect():
    source = inspect.getsource(validate_dataset)
    assert set(DEFECTS) == set(re.findall(r'add\("(\w+)"', source))


@pytest.mark.parametrize("mode", list(EvalMode))
@pytest.mark.parametrize("code", list(DEFECTS))
def test_evaluate_refuses_what_validate_dataset_reports(gate_gen, code, mode):
    dataset, canon = DEFECTS[code](gate_gen.dataset, gate_gen.canon)
    issues = validate_dataset(dataset.tracklets, canon, expected_dim=dataset.feature_dim,
                              expected_joints=dataset.joint_count)
    assert code in [issue.code for issue in issues]
    with pytest.raises(InvalidDatasetError) as exc:
        evaluate(dataset, canon, gate_gen.provider, ProtocolConfig(), mode)
    assert exc.value.issues == issues
    assert all(str(issue) in str(exc.value) for issue in issues)


@pytest.mark.parametrize("mode", list(EvalMode))
def test_evaluate_refuses_a_repeated_tracklet_id(gate_gen, mode):
    dataset, canon = _repeated_id(gate_gen.dataset, gate_gen.canon)
    repeated = dataset.tracklets[0].tracklet_id
    with pytest.raises(ValueError, match=f"tracklet id {repeated!r} appears more than once"):
        evaluate(dataset, canon, gate_gen.provider, ProtocolConfig(), mode)


# Valid features of one tracklet that overflow in scoring, by id suffix.
OVERFLOWS = {
    "": lambda f: np.full_like(f.features, 1e308),  # the sum overflows: the mean is inf
    "-norm": lambda f: f.features * 1e200,  # the mean is finite, its norm is not
}


@pytest.mark.parametrize("mode, overflow", [
    pytest.param(mode, suffix, id=f"{mode}{suffix}") for suffix in OVERFLOWS for mode in EvalMode
])
def test_evaluate_rejects_non_finite_scores(gate_gen, mode, overflow):
    dataset, canon = _one_tracklet(lambda f: {"features": OVERFLOWS[overflow](f)})(
        gate_gen.dataset, gate_gen.canon)
    assert validate_dataset(dataset.tracklets, canon, expected_dim=dataset.feature_dim,
                            expected_joints=dataset.joint_count) == []
    victim = dataset.tracklets[3].tracklet_id
    with pytest.raises(ValueError, match=f"tracklet {victim!r}: its vector norm overflowed"):
        evaluate(dataset, canon, gate_gen.provider, ProtocolConfig(), mode)


def test_wf_at_weight_zero_scores_a_tracklet_whose_real_mean_overflows(gate_gen):
    """At w = 0 the fused vector is the synthetic mean alone, so an infinite real mean changes no number."""
    dataset, canon = _one_tracklet(lambda f: {"features": OVERFLOWS[""](f)})(gate_gen.dataset, gate_gen.canon)
    config = ProtocolConfig(fusion_weight=0.0)
    report = evaluate(dataset, canon, gate_gen.provider, config, EvalMode.WF)
    assert report == evaluate(gate_gen.dataset, canon, gate_gen.provider, config, EvalMode.WF)


@pytest.mark.parametrize("mode", list(EvalMode))
def test_evaluate_scores_a_tracklet_whose_squares_underflow(gate_gen, mode):
    """Features x1e-200 square to 0 yet are no zero vector; cosines of the real rows do not see the scale."""
    dataset, canon = _one_tracklet(lambda f: {"features": f.features * 1e-200})(gate_gen.dataset, gate_gen.canon)
    assert validate_dataset(dataset.tracklets, canon, expected_dim=dataset.feature_dim,
                            expected_joints=dataset.joint_count) == []
    report = evaluate(dataset, canon, gate_gen.provider, ProtocolConfig(), mode)
    assert report.num_scored == report.num_probes > 0
    if mode in (EvalMode.BASELINE, EvalMode.WPR):
        unscaled = evaluate(gate_gen.dataset, canon, gate_gen.provider, ProtocolConfig(), mode)
        assert report.mean_ap == pytest.approx(unscaled.mean_ap) and report.cmc == pytest.approx(unscaled.cmc)


class CancellingProvider(SyntheticFeatureProvider):
    """An inner provider, except that `victim`'s three poses serve -e2, 0 and e2, which sum to zero."""

    def __init__(self, inner, victim):
        self.inner, self.victim = inner, victim

    def query(self, tracklet_id, representative_frame_id, pose):
        vector = self.inner.query(tracklet_id, representative_frame_id, pose)
        return np.eye(len(vector))[1] * (pose - 2) if tracklet_id == self.victim else vector


@pytest.mark.parametrize("mode", [EvalMode.BASELINE, EvalMode.WF, EvalMode.FUSED])
def test_score_matrix_names_a_tracklet_that_pools_to_a_zero_vector(gate_gen, mode):
    # Frames e1 and -e1 are each valid, but their mean is the zero vector;
    # with synthetics that cancel too, so is the fused one.
    def cancelling(f):
        features = np.zeros((2, f.features.shape[1]))
        features[:, 0] = (1.0, -1.0)
        return {**{a: getattr(f, a)[:2] for a in FRAME_ARRAYS}, "features": features}

    dataset, canon = _one_tracklet(cancelling)(gate_gen.dataset, gate_gen.canon)
    victim = dataset.tracklets[3].tracklet_id
    assert validate_dataset(dataset.tracklets, canon, expected_dim=dataset.feature_dim,
                            expected_joints=dataset.joint_count) == [] and len(canon) == 3
    provider = CancellingProvider(gate_gen.provider, victim)
    with pytest.raises(ZeroVectorError, match=f"tracklet {victim!r} pools to a zero-norm vector"):
        evaluate(dataset, canon, provider, ProtocolConfig(), mode)


@pytest.mark.parametrize("mode", list(EvalMode))
def test_score_matrix_names_a_probe_not_in_the_dataset(mode):
    gen = generate(GenSpec(identities=2, cameras=2, feature_dim=8, num_poses=2, seed=1))
    cases = [*build_protocol(gen.dataset, 0), ProbeCase("nope", "x", 0, ())]
    with pytest.raises(ValueError, match="probe 'nope' is not a tracklet of the dataset"):
        score_matrix(gen.dataset, gen.canon, gen.provider, cases, ProtocolConfig(), mode)


def test_camera_confusion_matches_restricted_gallery_oracle():
    gen = generate(
        GenSpec(
            identities=4, cameras=3, tracklets_per_identity_per_camera=2,
            feature_dim=16, num_poses=3, pose_effect_scale=0.4,
            noise_sigma=0.3, seed=11, distractors=3,
        )
    )
    config = ProtocolConfig(seed=2)
    cases = build_protocol(gen.dataset, config.seed)
    scores = score_matrix(gen.dataset, gen.canon, gen.provider, cases, config, EvalMode.WF)
    columns = _columns(gen.dataset, cases, rank_gallery(scores))
    cameras, matrix = camera_confusion(columns)
    assert cameras == tuple(sorted({t.camera for t in gen.dataset.tracklets}))

    by_id = gen.dataset.by_id()
    all_ids = sorted(by_id)
    col = {tid: i for i, tid in enumerate(all_ids)}
    for r, cam_a in enumerate(cameras):
        for c, cam_b in enumerate(cameras):
            aps = []
            for i, case in enumerate(cases):
                if case.camera != cam_a:
                    continue
                gallery = [
                    tid for tid in all_ids
                    if by_id[tid].camera == cam_b and tid != case.probe_id
                ]
                ranked = naive_rank([(g, float(scores[i, col[g]])) for g in gallery])
                ap = naive_ap([by_id[g].identity == case.identity for g, _ in ranked])
                if ap is not None:
                    aps.append(ap)
            expected = sum(aps) / len(aps) if aps else None
            if expected is None:
                assert matrix[r][c] is None
            else:
                assert matrix[r][c] == pytest.approx(expected, abs=1e-12)
    # two tracklets per identity per camera: whenever a camera contributes a
    # probe, its diagonal cell has a positive and is scored
    probed = {case.camera for case in cases}
    for r, cam in enumerate(cameras):
        assert (matrix[r][r] is not None) == (cam in probed)


def neumaier_sum(values, start=0):
    """The builtin `sum` of CPython 3.12 and later over floats: Neumaier compensated summation."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def in_order_mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else None


@pytest.mark.parametrize("mode", list(EvalMode))
def test_averages_are_in_order_sums_on_every_python(monkeypatch, mode):
    """mAP and each camera cell add their APs in probe order, whatever the builtin `sum` does with floats."""
    monkeypatch.setattr(pdsr.evaluation, "sum", neumaier_sum, raising=False)
    gen = generate(stressor_spec(0))
    config = ProtocolConfig(seed=0)
    report = evaluate(gen.dataset, gen.canon, gen.provider, config, mode)
    assert report.mean_ap == in_order_mean([r.ap for r in report.probe_results if r.ap is not None])

    cases = build_protocol(gen.dataset, config.seed)
    scores = score_matrix(gen.dataset, gen.canon, gen.provider, cases, config, mode)
    tracklets, by_id = gen.dataset.tracklets, gen.dataset.by_id()
    for r, cam_a in enumerate(report.camera_ids):
        for c, cam_b in enumerate(report.camera_ids):
            aps = []
            for case, row in zip(cases, scores):
                if case.camera != cam_a:
                    continue
                gallery = [(t.tracklet_id, float(score)) for t, score in zip(tracklets, row)
                           if t.camera == cam_b and t.tracklet_id != case.probe_id]
                ap = naive_ap([by_id[g].identity == case.identity for g, _ in naive_rank(gallery)])
                if ap is not None:
                    aps.append(ap)
            assert report.camera_pair_map[r][c] == in_order_mean(aps)


def test_confusion_cell_is_none_when_camera_has_no_positive():
    # camera 1 holds only a distractor, so every diagonal/column cell that
    # needs a positive there is None
    rows = [
        ("a-0", "ida", 0), ("a-1", "ida", 2),
        ("x-0", DISTRACTOR, 1),
    ]
    dataset = make_dataset(rows)
    config = ProtocolConfig(seed=0)
    cases = build_protocol(dataset, config.seed)
    scores = score_matrix(dataset, random_canon(), None, cases, config, EvalMode.BASELINE)
    columns = _columns(dataset, cases, rank_gallery(scores))
    cameras, matrix = camera_confusion(columns)
    assert cameras == (0, 1, 2)
    middle = cameras.index(1)
    for r in range(len(cameras)):
        assert matrix[r][middle] is None


def lexsort_metrics(scores, gallery, positive):
    """Order, positives, first ranks and APs as one two-key lexsort per gallery gave them."""
    order = np.lexsort((-scores, ~gallery), axis=-1)
    relevant = np.take_along_axis(positive & gallery, order, axis=1)
    hits = np.cumsum(relevant, axis=1)
    precision = np.where(relevant, hits / np.arange(1, relevant.shape[1] + 1), 0.0)
    count = hits[:, -1]
    with np.errstate(invalid="ignore"):
        ap = np.cumsum(precision, axis=1)[:, -1] / count
    return order, count, np.where(count > 0, relevant.argmax(axis=1) + 1, 0), ap


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 9)))
def test_one_sort_per_row_ranks_every_gallery_as_a_lexsort_per_gallery(data, shape):
    # Few distinct values, so ties, -0.0 against 0.0, -inf and NaN are common.
    value = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.nan])
    scores = np.array(data.draw(st.lists(value, min_size=shape[0] * shape[1],
                                         max_size=shape[0] * shape[1]))).reshape(shape)
    masks = st.lists(st.booleans(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    gallery = np.array(data.draw(masks)).reshape(shape)
    positive = np.array(data.draw(masks)).reshape(shape)

    order, count, first, ap = lexsort_metrics(scores, gallery, positive)
    shared = rank_gallery(scores)
    expected = [row[:n] for row, n in zip(order, gallery.sum(axis=1))]
    assert [r.tolist() for r in gallery_order(shared, gallery)] == [r.tolist() for r in expected]
    got = _first_rank_and_ap(np.take_along_axis(gallery, shared, axis=1),
                             np.take_along_axis(positive, shared, axis=1))
    assert got[0].tolist() == count.tolist() and got[1].tolist() == first.tolist()
    assert got[2].tobytes() == ap.tobytes()  # bit for bit, NaN where no positive
    assert got[3].tolist() == gallery.sum(axis=1).tolist()


@pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
def test_protocol_config_rejects_a_negative_or_non_finite_weight(weight):
    with pytest.raises(ValueError, match="fusion_weight"):
        ProtocolConfig(fusion_weight=weight)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", "3"), ("seed", None), ("seed", True), ("strict", "no"), ("strict", 1),
])
def test_protocol_config_rejects_a_seed_or_strict_flag_of_the_wrong_type(field, value):
    with pytest.raises(TypeError, match=f"^{field} {value!r} is not"):
        ProtocolConfig(**{field: value})


@pytest.mark.parametrize("weight", [True, "2", None])
def test_protocol_config_rejects_a_weight_that_is_not_a_number(weight):
    with pytest.raises(TypeError, match=f"^fusion_weight {weight!r} is not a number"):
        ProtocolConfig(fusion_weight=weight)


def test_protocol_config_accepts_numpy_integer_seeds():
    assert ProtocolConfig(seed=np.int64(3)).seed == 3
    assert ProtocolConfig(seed=np.uint8(2), strict=False).seed == 2
