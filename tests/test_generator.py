"""Planted-ground-truth generator: determinism, recoverability, difficulty knobs."""

import dataclasses
import json

import numpy as np
import pytest

from naive_reference import naive_cosine
from pdsr import FileFormatError, MissingSyntheticError, validate_dataset
from pdsr.dataset_io import write_json
from pdsr.fusion import wf_embeddings
from pdsr.generator import (
    GenSpec,
    PlantedProvider,
    _quantize,
    _unit,
    generate,
    load_gen_spec,
)
from pdsr.model import DISTRACTOR, pack
from pdsr.quantizer import assignment_distances, nearest_poses
from pdsr.regulation import tracklet_means
from pdsr.seeding import rng_for

SMALL = dict(identities=2, cameras=2, frames_per_tracklet=(4, 6), feature_dim=8, num_poses=4)


def recovery_rate(gen):
    frames, _ = pack(gen.dataset.tracklets)
    tids = [t.tracklet_id for t in gen.dataset.tracklets for _ in range(len(t))]
    poses, _ = nearest_poses(assignment_distances(frames.joints, frames.visibility, gen.canon))
    hits = [
        pose == gen.truth.frame_poses[(tid, frame_id)]
        for tid, frame_id, pose in zip(tids, frames.frame_ids.tolist(), poses)
    ]
    return sum(hits) / len(hits)


def test_same_spec_and_seed_is_bit_identical():
    spec = GenSpec(identities=3, cameras=2, feature_dim=16, num_poses=3,
                   noise_sigma=0.1, pose_jitter=0.05, distractors=2, seed=9)
    a, b = generate(spec), generate(spec)
    assert a.dataset.name == b.dataset.name
    assert len(a.dataset.tracklets) == len(b.dataset.tracklets)
    for ta, tb in zip(a.dataset.tracklets, b.dataset.tracklets):
        assert ta.tracklet_id == tb.tracklet_id
        for fa, fb in zip(ta.frames, tb.frames):
            assert np.array_equal(fa.feature, fb.feature)
            assert np.array_equal(fa.pose.joints, fb.pose.joints)
    assert np.array_equal(a.canon.joints, b.canon.joints)
    t0 = a.dataset.tracklets[0].tracklet_id
    assert np.array_equal(a.provider.query(t0, 0, 1), b.provider.query(t0, 0, 1))


def test_canon_row_j_minus_1_is_the_draw_of_pose_j():
    spec = GenSpec(**SMALL, joint_count=7, seed=21)
    canon = generate(spec).canon
    assert canon.joints.shape == (4, 7, 2) and canon.visibility.all()
    for j in canon.indices:
        assert np.array_equal(canon.joints[j - 1], rng_for(21, "canon", j).uniform(0.0, 1.0, (7, 2)))


def test_tracklets_are_consecutive_cuts_of_one_block():
    gen = generate(GenSpec(**SMALL, distractors=2))
    tracklets = gen.dataset.tracklets
    frames, offsets = pack(tracklets)
    assert all(np.shares_memory(frames.features, t.frames.features) for t in tracklets)
    assert np.shares_memory(frames.joints, tracklets[-1].frames.joints)
    assert offsets[-1] == len(frames) == sum(len(t) for t in tracklets)
    assert frames.frame_ids.tolist() == [i for t in tracklets for i in range(len(t))]


def test_different_seed_differs():
    a = generate(GenSpec(**SMALL, seed=0))
    b = generate(GenSpec(**SMALL, seed=1))
    assert not np.array_equal(a.dataset.tracklets[0].frames[0].feature,
                              b.dataset.tracklets[0].frames[0].feature)


def test_generated_dataset_validates_clean():
    gen = generate(GenSpec(**SMALL, noise_sigma=0.2, pose_jitter=0.1,
                           distractors=3, seed=4))
    issues = validate_dataset(
        gen.dataset.tracklets, gen.canon,
        expected_dim=8, expected_joints=gen.dataset.joint_count,
    )
    assert issues == []


def test_zero_noise_zero_jitter_recovers_every_planted_pose():
    for seed in range(5):
        gen = generate(GenSpec(**SMALL, noise_sigma=0.0, pose_jitter=0.0, seed=seed))
        assert recovery_rate(gen) == 1.0


def test_pose_recovery_degrades_monotonically_with_jitter():
    jitters = [0.0, 0.35, 0.5, 0.8, 2.0]
    means = []
    for jitter in jitters:
        rates = [
            recovery_rate(generate(GenSpec(**SMALL, pose_jitter=jitter, seed=seed)))
            for seed in range(30)
        ]
        means.append(sum(rates) / len(rates))
    assert means[0] == 1.0
    for lo, hi in zip(means[1:], means):
        assert lo <= hi
    assert means[-1] < 0.9  # the tail is genuine degradation, not flatness


def test_pose_visibility_restricts_planted_poses():
    visibility = ((1, 2), (3, 4))
    gen = generate(GenSpec(**SMALL, pose_visibility=visibility, seed=2))
    for t in gen.dataset.tracklets:
        allowed = set(visibility[t.camera])
        for f in t.frames:
            assert gen.truth.frame_poses[(t.tracklet_id, f.frame_id)] in allowed


def test_disjoint_visibility_hurts_baseline_more_than_wf():
    # Cameras observing disjoint pose subsets push same-identity means apart;
    # fusing in ideal synthetics restores most of the lost similarity.
    base_means, wf_means = [], []
    for seed in range(30):
        gen = generate(GenSpec(
            identities=6, cameras=2, num_poses=4, feature_dim=32,
            pose_effect_scale=1.0, noise_sigma=0.1,
            pose_visibility=((1, 2), (3, 4)), seed=seed,
        ))
        record = tracklet_means(gen.dataset.tracklets, 0)
        everything = np.ones((len(record.tracklet_ids), len(gen.canon)), dtype=bool)
        wf = wf_embeddings(record, *gen.provider.fetch(record, everything), 4.0)
        pairs = {}
        for row, t in enumerate(gen.dataset.tracklets):
            pairs.setdefault(t.identity, []).append(row)
        base, fused = [], []
        for a, b in pairs.values():
            base.append(naive_cosine(list(record.real_means[a]), list(record.real_means[b])))
            fused.append(naive_cosine(list(wf[a]), list(wf[b])))
        base_means.append(sum(base) / len(base))
        wf_means.append(sum(fused) / len(fused))
    assert sum(wf_means) / 30 > sum(base_means) / 30


def test_distractor_structure():
    gen = generate(GenSpec(**SMALL, distractors=5, seed=3))
    distractors = [t for t in gen.dataset.tracklets if t.is_distractor]
    assert len(distractors) == 5
    assert sorted(t.tracklet_id for t in distractors) == [
        f"dx{i:04d}-c{i % 2}" for i in range(5)
    ]
    for t in distractors:
        assert t.identity == DISTRACTOR
        assert gen.truth.latent_key[t.tracklet_id] == t.tracklet_id
    # distractors never enter the identity listing
    identities = {t.identity for t in gen.dataset.tracklets if not t.is_distractor}
    assert all(not i.startswith("dx") for i in identities)


def test_planted_provider_is_ideal_and_deterministic():
    gen = generate(GenSpec(**SMALL, seed=6))
    t = gen.dataset.tracklets[0]
    latent = gen.truth.latents[gen.truth.latent_key[t.tracklet_id]]
    for pose in range(1, 5):
        vec = gen.provider.query(t.tracklet_id, 0, pose)
        raw = latent + gen.truth.pose_offsets[pose - 1]
        expected = (raw / np.linalg.norm(raw)).astype(np.float32).astype(np.float64)
        assert np.array_equal(vec, expected)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-6  # unit up to f32 rounding
        # representative frame id is irrelevant by construction
        assert np.array_equal(vec, gen.provider.query(t.tracklet_id, 999, pose))


def test_zero_sigma_provider_draws_no_noise_and_keeps_every_byte(monkeypatch):
    gen = generate(GenSpec(**SMALL, distractors=2, seed=9))
    truth = gen.truth

    def drawn(tid, pose):  # the draw a zero sigma used to make
        vec = truth.latents[truth.latent_key[tid]] + truth.pose_offsets[pose - 1]
        noise = rng_for(9, "provider-noise", tid, pose).normal(
            0.0, 0.0, vec.shape[0]
        )
        return _quantize(_unit(vec + noise))

    keys = [(t.tracklet_id, j) for t in gen.dataset.tracklets for j in gen.canon.indices]
    expected = [drawn(tid, j).tobytes() for tid, j in keys]

    def no_generator(*args):
        raise AssertionError(f"rng_for{args} called at sigma 0")

    monkeypatch.setattr("pdsr.generator.rng_for", no_generator)
    assert [gen.provider.query(tid, 0, j).tobytes() for tid, j in keys] == expected


def test_planted_provider_rejects_unknown_keys():
    gen = generate(GenSpec(**SMALL, seed=6))
    with pytest.raises(MissingSyntheticError):
        gen.provider.query("nope", 0, 1)
    with pytest.raises(MissingSyntheticError):
        gen.provider.query(gen.dataset.tracklets[0].tracklet_id, 0, 99)
    with pytest.raises(ValueError):
        PlantedProvider(gen.truth, noise_sigma=-0.5)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_planted_provider_refuses_a_noise_sigma_that_is_not_finite(sigma):
    gen = generate(GenSpec(**SMALL, seed=6))
    with pytest.raises(ValueError, match=f"^noise_sigma {sigma!r} is not a finite number >= 0"):
        PlantedProvider(gen.truth, noise_sigma=sigma)


def test_corrupted_provider_adds_seeded_noise():
    gen = generate(GenSpec(**SMALL, seed=8))
    noisy = PlantedProvider(gen.truth, noise_sigma=0.5, seed=1)
    tid = gen.dataset.tracklets[0].tracklet_id
    clean = gen.provider.query(tid, 0, 1)
    a, b = noisy.query(tid, 0, 1), noisy.query(tid, 0, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, clean)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-6


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(identities=1),
        dict(cameras=1),
        dict(tracklets_per_identity_per_camera=0),
        dict(frames_per_tracklet=(0, 5)),
        dict(frames_per_tracklet=(6, 5)),
        dict(feature_dim=0),
        dict(num_poses=0),
        dict(pose_effect_scale=-0.1),
        dict(noise_sigma=-0.1),
        dict(pose_jitter=-0.1),
        dict(distractors=-1),
        dict(pose_visibility=((1, 2),)),
        dict(pose_visibility=((1, 2), ())),
        dict(pose_visibility=((1, 2), (3, 9))),
    ],
)
def test_gen_spec_rejects_bad_values(kwargs):
    base = dict(identities=2, cameras=2, num_poses=4)
    base.update(kwargs)
    with pytest.raises(ValueError):
        GenSpec(**base)


@pytest.mark.parametrize("field, value", [
    ("identities", 2.5),
    ("cameras", True),
    ("tracklets_per_identity_per_camera", "1"),
    ("frames_per_tracklet", [4.7, 6]),
    ("frames_per_tracklet", [4, 6.0]),
    ("feature_dim", 8.0),
    ("joint_count", None),
    ("num_poses", 4.0),
    ("pose_effect_scale", "0.25"),
    ("noise_sigma", True),
    ("pose_jitter", None),
    ("pose_visibility", [[1, 2.0], [2, 3]]),
    ("distractors", 1.5),
    ("seed", 5.0),
    ("name", 7),
    ("seeed", 5),
])
def test_gen_spec_field_of_wrong_type_or_name_is_rejected(tmp_path, field, value):
    with pytest.raises(TypeError):
        GenSpec(**{field: value})
    write_json(tmp_path / "spec.json", dataclasses.asdict(GenSpec()))
    payload = json.loads((tmp_path / "spec.json").read_text())
    payload[field] = value
    (tmp_path / "spec.json").write_text(json.dumps(payload))
    with pytest.raises(FileFormatError, match=field) as exc:
        load_gen_spec(tmp_path / "spec.json")
    assert str(tmp_path / "spec.json") in str(exc.value)


def test_gen_spec_json_round_trip(tmp_path):
    spec = GenSpec(identities=5, cameras=3, tracklets_per_identity_per_camera=2,
                   frames_per_tracklet=(3, 7), feature_dim=24, joint_count=12,
                   num_poses=6, pose_effect_scale=0.7, noise_sigma=0.2,
                   pose_jitter=0.05, pose_visibility=((1, 2), (3, 4), (5, 6)),
                   distractors=4, seed=42, name="trip")
    write_json(tmp_path / "spec.json", dataclasses.asdict(spec))
    assert load_gen_spec(tmp_path / "spec.json") == spec
    # generating from the reloaded spec is the same dataset
    a, b = generate(spec), generate(load_gen_spec(tmp_path / "spec.json"))
    assert a.dataset.name == b.dataset.name
    assert np.array_equal(a.dataset.tracklets[0].frames[0].feature,
                          b.dataset.tracklets[0].frames[0].feature)


def test_gen_spec_defaults_round_trip(tmp_path):
    spec = GenSpec()
    write_json(tmp_path / "spec.json", dataclasses.asdict(spec))
    assert load_gen_spec(tmp_path / "spec.json") == spec


REQUIRED_SPEC = {"identities": 3, "cameras": 3, "tracklets_per_identity_per_camera": 2,
                 "frames_per_tracklet": [2, 5], "feature_dim": 6, "joint_count": 5,
                 "num_poses": 2, "pose_effect_scale": 0.5, "noise_sigma": 0.1}


def test_gen_spec_with_only_the_required_keys_takes_the_other_defaults(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(REQUIRED_SPEC))
    spec = load_gen_spec(tmp_path / "spec.json")
    assert spec == GenSpec(**{**REQUIRED_SPEC, "frames_per_tracklet": (2, 5)})  # the rest default


@pytest.mark.parametrize("key", sorted(REQUIRED_SPEC))
def test_gen_spec_without_a_required_key_names_it_and_the_file(tmp_path, key):
    payload = {k: v for k, v in REQUIRED_SPEC.items() if k != key}
    (tmp_path / "spec.json").write_text(json.dumps(payload))
    with pytest.raises(FileFormatError, match=f"'{key}'") as exc:
        load_gen_spec(tmp_path / "spec.json")
    assert str(tmp_path / "spec.json") in str(exc.value)


@pytest.mark.parametrize("payload", [["identities"], [], "identities", 5, None])
def test_gen_spec_that_is_not_an_object_says_so(tmp_path, payload):
    (tmp_path / "spec.json").write_text(json.dumps(payload))
    with pytest.raises(FileFormatError, match="spec.json: not a JSON object"):
        load_gen_spec(tmp_path / "spec.json")


def test_provider_matches_frame_features_at_zero_noise():
    # with no feature noise a frame's feature IS the provider vector for its
    # planted pose, quantization included
    gen = generate(GenSpec(**SMALL, noise_sigma=0.0, seed=11))
    for t in gen.dataset.tracklets[:2]:
        for f in t.frames:
            pose = gen.truth.frame_poses[(t.tracklet_id, f.frame_id)]
            assert np.array_equal(f.feature, gen.provider.query(t.tracklet_id, 0, pose))
