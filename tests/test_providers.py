"""Synthetic feature providers, representative-frame choice and the single fetch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_reference import naive_representative
from pdsr import (
    EvalMode,
    FileBackedProvider,
    FileFormatError,
    GenSpec,
    MissingSyntheticError,
    ProtocolConfig,
    SyntheticFeatureProvider,
    Tracklet,
    evaluate,
    generate,
)
import pdsr.providers
from pdsr.model import FrameRecord, PoseRecord, PoseVector
from pdsr.providers import representative_frames
from pdsr.seeding import rng_for


def tracklet_with_ids(frame_ids, d=4, seed=0):
    rng = rng_for(seed, "prov-frames")
    frames = tuple(
        FrameRecord(
            frame_id=i,
            feature=rng.normal(size=d),
            pose=PoseVector(joints=rng.uniform(0, 1, (5, 2)),
                            visibility=np.ones(5, dtype=bool)),
        )
        for i in frame_ids
    )
    return Tracklet(tracklet_id="t0", identity="x", camera=0, frames=frames)


def test_seeded_random_matches_documented_contract():
    t = tracklet_with_ids(range(7))
    for seed in range(5):
        assert representative_frames([t], seed)(0) == naive_representative(t, "seeded-random", seed)


def test_representative_invariant_to_storage_order():
    t = tracklet_with_ids([3, 1, 0, 2])
    shuffled = Tracklet("t0", "x", 0, tuple(reversed(t.frames)))
    for seed in (0, 11):
        assert representative_frames([t], seed)(0) == representative_frames([shuffled], seed)(0)


def test_empty_tracklet_has_no_representative():
    t = Tracklet("t0", "x", 0, ())
    with pytest.raises(ValueError):
        representative_frames([t], 0)(0)


class RecordingProvider(SyntheticFeatureProvider):
    """Serves pose * ones(d), records every query, misses the listed keys."""

    def __init__(self, d, missing=()):
        self.d = d
        self.missing = set(missing)
        self.calls = []

    def query(self, tracklet_id, representative_frame_id, pose):
        self.calls.append((tracklet_id, representative_frame_id, pose))
        if (tracklet_id, pose) in self.missing:
            raise MissingSyntheticError(f"{tracklet_id} {pose}")
        return np.full(self.d, float(pose))


def test_fetch_queries_each_wanted_cell_once_with_its_representative():
    record = PoseRecord(("a", "b"), (7, 3).__getitem__, np.zeros((2, 2)), np.zeros((2, 3, 2)),
                        np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))
    wanted = np.array([[True, False, True], [False, True, False]])
    provider = RecordingProvider(2)
    synthetic, served = provider.fetch(record, wanted)
    assert provider.calls == [("a", 7, 1), ("a", 7, 3), ("b", 3, 2)]
    assert served.tolist() == wanted.tolist()
    assert synthetic[:, :, 0].tolist() == [[1.0, 0.0, 3.0], [0.0, 2.0, 0.0]]

    gappy = RecordingProvider(2, missing={("a", 3)})
    with pytest.raises(MissingSyntheticError):
        gappy.fetch(record, wanted, strict=True)
    synthetic, served = gappy.fetch(record, wanted, strict=False)
    assert served.tolist() == [[True, False, False], [False, True, False]]
    assert not synthetic[0, 2].any()
    with pytest.raises(ValueError):
        RecordingProvider(5).fetch(record, wanted)


class NanProvider(RecordingProvider):
    """RecordingProvider that serves NaN in place of the listed keys (all, if None)."""

    def __init__(self, d, poisoned=None):
        super().__init__(d)
        self.poisoned = poisoned

    def query(self, tracklet_id, representative_frame_id, pose):
        vector = super().query(tracklet_id, representative_frame_id, pose)
        if self.poisoned is None or (tracklet_id, pose) in self.poisoned:
            vector[-1] = np.nan
        return vector


@pytest.mark.parametrize("strict", [True, False])
def test_fetch_refuses_a_non_finite_vector_and_names_its_cell(strict):
    record = PoseRecord(("a", "b"), (7, 3).__getitem__, np.zeros((2, 2)), np.zeros((2, 3, 2)),
                        np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))
    wanted = np.ones((2, 3), dtype=bool)
    with pytest.raises(ValueError, match=r"synthetic feature for \('b', pose 2\) is not finite"):
        NanProvider(2, poisoned={("b", 2)}).fetch(record, wanted, strict=strict)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("mode", [EvalMode.WF, EvalMode.WPR])
def test_evaluate_blames_a_non_finite_synthetic_vector_on_the_provider(mode, strict):
    gen = generate(GenSpec(identities=4, cameras=2, num_poses=3, feature_dim=8,
                           pose_visibility=((1, 2), (2, 3)), seed=5))
    with pytest.raises(ValueError, match=r"synthetic feature for \('.+', pose \d\) is not finite"):
        evaluate(gen.dataset, gen.canon, NanProvider(gen.dataset.feature_dim),
                 ProtocolConfig(strict=strict), mode)


@pytest.mark.parametrize("mode", [EvalMode.WF, EvalMode.WPR])
def test_evaluate_conditions_queries_on_frames_drawn_with_the_protocol_seed(mode):
    # Cameras see different poses, so WPR backfills some cells too.
    gen = generate(GenSpec(identities=4, cameras=2, num_poses=3, feature_dim=8,
                           pose_visibility=((1, 2), (2, 3)), seed=5))
    tracklets = gen.dataset.tracklets
    assert any(representative_frames([t], 3)(0) != representative_frames([t], 0)(0) for t in tracklets)
    provider = RecordingProvider(gen.dataset.feature_dim)
    evaluate(gen.dataset, gen.canon, provider, ProtocolConfig(seed=3), mode)
    by_id = gen.dataset.by_id()
    assert provider.calls
    assert len(provider.calls) == len({(tid, pose) for tid, _, pose in provider.calls})
    for tid, frame_id, _ in provider.calls:
        assert frame_id == representative_frames([by_id[tid]], 3)(0)


def test_file_backed_provider_serves_rows_and_misses():
    matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
    provider = FileBackedProvider({("a", 1): 0, ("a", 2): 3}, matrix)
    assert np.array_equal(provider.query("a", 0, 2), [9.0, 10.0, 11.0])
    with pytest.raises(MissingSyntheticError):
        provider.query("a", 0, 3)


def test_file_backed_provider_returns_a_copy():
    matrix = np.ones((1, 3))
    provider = FileBackedProvider({("a", 1): 0}, matrix)
    out = provider.query("a", 0, 1)
    out[0] = 99.0
    assert np.array_equal(provider.query("a", 0, 1), [1.0, 1.0, 1.0])


def test_file_backed_provider_rejects_dangling_rows():
    with pytest.raises(FileFormatError):
        FileBackedProvider({("a", 1): 5}, np.ones((2, 3)))


def test_file_backed_provider_rejects_a_non_finite_row():
    with pytest.raises(FileFormatError, match="synthetic matrix row 1 is not finite"):
        FileBackedProvider({("a", 1): 0}, np.array([[1.0, 2.0], [np.inf, 0.0]]))


def record_draws(monkeypatch):
    """The keys of every Generator the providers module makes from now on."""
    drawn = []
    real_rng_for = pdsr.providers.rng_for
    monkeypatch.setattr(pdsr.providers, "rng_for", lambda *key: drawn.append(key) or real_rng_for(*key))
    return drawn


def test_representative_frames_draw_each_frame_once_on_first_read(monkeypatch):
    tracklets = generate(GenSpec(identities=3, cameras=2, seed=4)).dataset.tracklets
    expected = [representative_frames([t], 7)(0) for t in tracklets]
    drawn = record_draws(monkeypatch)
    frame = representative_frames(tracklets, 7)
    assert not drawn
    assert frame(2) == expected[2]
    assert frame(2) == expected[2]
    assert drawn == [(7, "representative", tracklets[2].tracklet_id)]
    assert [frame(t) for t in range(len(tracklets))] == expected
    assert [frame(t) for t in range(len(tracklets))] == expected
    assert sorted(drawn) == sorted((7, "representative", t.tracklet_id) for t in tracklets)


@pytest.mark.parametrize("mode", [EvalMode.WF, EvalMode.WPR, EvalMode.FUSED])
def test_evaluate_with_a_file_backed_provider_draws_no_representative_frame(monkeypatch, mode):
    gen = generate(GenSpec(identities=4, cameras=2, num_poses=3, feature_dim=8,
                           pose_visibility=((1, 2), (2, 3)), seed=5))
    tids = [t.tracklet_id for t in gen.dataset.tracklets]
    index = {(tid, j): t * 3 + j - 1 for t, tid in enumerate(tids) for j in gen.canon.indices}
    matrix = np.stack([gen.provider.query(tid, -1, j) for tid, j in index])
    drawn = record_draws(monkeypatch)
    provider = FileBackedProvider(index, matrix)
    report = evaluate(gen.dataset, gen.canon, provider, ProtocolConfig(), mode)
    assert report.num_scored and not drawn
    # The planted provider ignores the frame too: its report is the same.
    assert report == evaluate(gen.dataset, gen.canon, gen.provider, ProtocolConfig(), mode)


@pytest.mark.parametrize("mode", [EvalMode.WF, EvalMode.WPR, EvalMode.FUSED])
def test_evaluate_with_a_query_only_provider_draws_once_per_queried_tracklet(monkeypatch, mode):
    gen = generate(GenSpec(identities=4, cameras=2, num_poses=3, feature_dim=8,
                           pose_visibility=((1, 2), (2, 3)), seed=5))
    drawn = record_draws(monkeypatch)
    provider = RecordingProvider(gen.dataset.feature_dim)
    evaluate(gen.dataset, gen.canon, provider, ProtocolConfig(), mode)
    queried = {tid for tid, _, _ in provider.calls}
    assert sorted(drawn) == sorted((0, "representative", tid) for tid in queried)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(0, 4), st.integers(1, 4)),
       strict=st.booleans(), dim=st.sampled_from([3, 3, 3, 2]))
def test_file_backed_fetch_equals_the_per_query_loop_bitwise(data, shape, strict, dim):
    t, m = shape
    cells = st.lists(st.booleans(), min_size=t * m, max_size=t * m)
    wanted = np.array(data.draw(cells), dtype=bool).reshape(shape)
    stored = np.array(data.draw(cells), dtype=bool).reshape(shape)
    ids = tuple(f"t{i}" for i in range(t))
    keys = [(ids[i], j + 1) for i, j in zip(*np.nonzero(stored))]
    rows = data.draw(st.permutations(range(len(keys))))
    matrix = rng_for(3, "fetch").normal(size=(len(keys) + 1, dim))
    matrix[-1] = -0.0  # a row no key points at
    provider = FileBackedProvider(dict(zip(keys, rows)), matrix)
    record = PoseRecord(ids, ((0,) * t).__getitem__, np.zeros((t, 3)), np.zeros((t, m, 3)),
                        np.zeros((t, m)), np.zeros((t, m), dtype=bool))

    def outcome(fetch):
        try:
            synthetic, served = fetch(provider, record, wanted, strict=strict)
        except (MissingSyntheticError, ValueError) as exc:
            return type(exc), str(exc)
        return synthetic.tobytes(), synthetic.shape, served.tolist()

    assert outcome(FileBackedProvider.fetch) == outcome(SyntheticFeatureProvider.fetch)
