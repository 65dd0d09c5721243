"""Synthetic feature providers and representative-frame choice."""

import numpy as np
import pytest

from naive_reference import naive_cosine, naive_representative
from pdsr import (
    FileBackedProvider,
    FileFormatError,
    FrameRecord,
    MissingSyntheticError,
    PoseVector,
    RepresentativeChoice,
    Strategy,
    StubProvider,
    Tracklet,
    choose_representative,
    rng_for,
)


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


def test_middle_frame_uses_sorted_order():
    t = tracklet_with_ids([4, 0, 2, 8, 6])  # sorted: 0 2 4 6 8, middle index 2
    choice = RepresentativeChoice(strategy=Strategy.MIDDLE_FRAME)
    assert choose_representative(t, choice) == 4


def test_seeded_random_matches_documented_contract():
    t = tracklet_with_ids(range(7))
    for seed in range(5):
        choice = RepresentativeChoice(strategy=Strategy.SEEDED_RANDOM, seed=seed)
        assert choose_representative(t, choice) == naive_representative(t, "seeded-random", seed)


def test_representative_invariant_to_storage_order():
    t = tracklet_with_ids([3, 1, 0, 2])
    shuffled = Tracklet("t0", "x", 0, tuple(reversed(t.frames)))
    for strategy in Strategy:
        choice = RepresentativeChoice(strategy=strategy, seed=11)
        assert choose_representative(t, choice) == choose_representative(shuffled, choice)


def test_empty_tracklet_has_no_representative():
    t = Tracklet("t0", "x", 0, ())
    with pytest.raises(ValueError):
        choose_representative(t, RepresentativeChoice())


def prototypes(m=3, d=4, seed=1):
    return rng_for(seed, "prototypes").normal(size=(m, d))


def test_provider_determinism_over_repeated_queries():
    t = tracklet_with_ids(range(4))
    provider = StubProvider([t], prototypes(), alpha=0.5, noise_sigma=0.3, seed=5)
    first = provider.query("t0", 2, 1)
    for _ in range(999):
        assert np.array_equal(provider.query("t0", 2, 1), first)


def test_stub_parameter_validation():
    t = tracklet_with_ids(range(2))
    with pytest.raises(ValueError):
        StubProvider([t], prototypes(), alpha=1.5)
    with pytest.raises(ValueError):
        StubProvider([t], prototypes(), alpha=0.5, noise_sigma=-1.0)


def test_stub_unknown_keys_raise_missing():
    t = tracklet_with_ids(range(2))
    provider = StubProvider([t], prototypes(m=3), alpha=0.5)
    with pytest.raises(MissingSyntheticError):
        provider.query("t0", 77, 1)  # no such frame
    with pytest.raises(MissingSyntheticError):
        provider.query("nope", 0, 1)
    with pytest.raises(MissingSyntheticError):
        provider.query("t0", 0, 4)  # pose outside prototypes


def test_stub_blend_formula_at_zero_noise():
    t = tracklet_with_ids(range(3))
    proto = prototypes(m=2)
    provider = StubProvider([t], proto, alpha=0.25)
    rep = t.frames_by_id()[1]
    expected = 0.25 * rep.feature + 0.75 * proto[0]
    assert np.array_equal(provider.query("t0", rep.frame_id, 1), expected)


def test_stub_identity_preservation_on_planted_data(small_gen):
    # With alpha > 0 and zero noise the stub output stays strictly closer to
    # its own representative than to any other identity's. Prototypes are
    # unit-normalized so the shared pose term cannot drown the identity term.
    dataset, canon = small_gen.dataset, small_gen.canon
    proto = rng_for(0, "proto").normal(size=(len(canon.poses), dataset.feature_dim))
    proto /= np.linalg.norm(proto, axis=1, keepdims=True)
    provider = StubProvider(dataset.tracklets, proto, alpha=0.6, noise_sigma=0.0)
    for a in dataset.tracklets:
        rep_a = a.frames_by_id()[0]
        for b in dataset.tracklets:
            if b.identity == a.identity:
                continue
            rep_b = b.frames_by_id()[0]
            for pose in canon.indices:
                out = provider.query(a.tracklet_id, rep_a.frame_id, pose)
                assert naive_cosine(list(out), list(rep_a.feature)) > naive_cosine(
                    list(out), list(rep_b.feature)
                )


def test_file_backed_provider_serves_rows_and_misses():
    matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
    provider = FileBackedProvider({("a", 1): 0, ("a", 2): 3}, matrix)
    assert np.array_equal(provider.query("a", 0, 2), [9.0, 10.0, 11.0])
    with pytest.raises(MissingSyntheticError):
        provider.query("a", 0, 3)
    assert provider.keys() == {("a", 1), ("a", 2)}


def test_file_backed_provider_returns_a_copy():
    matrix = np.ones((1, 3))
    provider = FileBackedProvider({("a", 1): 0}, matrix)
    out = provider.query("a", 0, 1)
    out[0] = 99.0
    assert np.array_equal(provider.query("a", 0, 1), [1.0, 1.0, 1.0])


def test_file_backed_provider_rejects_dangling_rows():
    with pytest.raises(FileFormatError):
        FileBackedProvider({("a", 1): 5}, np.ones((2, 3)))
