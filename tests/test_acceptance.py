"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test carries the `criterion` marker; the terminal summary prints one
PASS/FAIL line per criterion at the end of the run.
"""

import itertools
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from naive_reference import naive_evaluate, naive_rank
from pdsr import EvalMode, ProtocolConfig, Tracklet, evaluate
from pdsr.cli import main
from pdsr.evaluation import build_protocol, cosine_matrix, score_matrix
from pdsr.generator import GenSpec, PlantedProvider, generate
from pdsr.model import FrameRecord
from pdsr.regulation import backfill_poses, pose_normalize, tracklet_means, wpr_score_matrix
from pdsr.seeding import rng_for

ALL_MODES = (EvalMode.BASELINE, EvalMode.WF, EvalMode.WPR, EvalMode.FUSED)


def small_random_spec(rng, max_tracklets=10):
    """A random planted spec within the oracle-equivalence size budget."""
    identities, cameras = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)][int(rng.integers(5))]
    budget = max_tracklets - identities * cameras
    return GenSpec(
        identities=identities,
        cameras=cameras,
        frames_per_tracklet=(2, 5),
        feature_dim=int(rng.integers(4, 12)),
        joint_count=int(rng.integers(5, 10)),
        num_poses=int(rng.integers(2, 5)),
        pose_effect_scale=float(rng.uniform(0.0, 1.0)),
        noise_sigma=float(rng.uniform(0.0, 0.6)),
        pose_jitter=float(rng.uniform(0.0, 0.1)),
        distractors=int(rng.integers(0, budget + 1)),
        seed=int(rng.integers(0, 2**31)),
    )


@pytest.mark.criterion(1, "oracle equivalence on 200 random small datasets (1e-9)")
def test_criterion_1_oracle_equivalence():
    started = time.perf_counter()
    for i in range(200):
        rng = rng_for(1000 + i, "criterion1")
        spec = small_random_spec(rng)
        protocol_seed = int(rng.integers(0, 100))
        gen = generate(spec)
        config = ProtocolConfig(seed=protocol_seed)
        for mode in ALL_MODES:
            got = evaluate(gen.dataset, gen.canon, gen.provider, config, mode)
            want = naive_evaluate(
                gen.dataset, gen.canon, gen.provider, mode.value,
                protocol_seed, rep_seed=protocol_seed,
            )
            assert got.num_probes == want["num_probes"]
            assert got.num_scored == want["num_scored"]
            if want["mean_ap"] is None:
                assert got.mean_ap is None
            else:
                assert abs(got.mean_ap - want["mean_ap"]) < 1e-9
            assert len(got.cmc) == len(want["cmc"])
            for a, b in zip(got.cmc, want["cmc"]):
                assert abs(a - b) < 1e-9
            assert got.camera_ids == tuple(want["camera_ids"])
            for row_got, row_want in zip(got.camera_pair_map, want["confusion"]):
                for a, b in zip(row_got, row_want):
                    if a is None or b is None:
                        assert a is None and b is None
                    else:
                        assert abs(a - b) < 1e-9
    assert time.perf_counter() - started < 60.0


@pytest.mark.criterion(2, "planted recovery: rank-1 = mAP = 1.0 at zero noise, all modes")
def test_criterion_2_planted_recovery():
    for seed in range(10):
        gen = generate(GenSpec(
            identities=6, cameras=2, feature_dim=16, num_poses=4,
            pose_effect_scale=0.25, noise_sigma=0.0, pose_jitter=0.0,
            distractors=2, seed=seed,
        ))
        for mode in ALL_MODES:
            report = evaluate(
                gen.dataset, gen.canon, gen.provider, ProtocolConfig(seed=seed), mode
            )
            assert report.mean_ap == 1.0, (seed, mode)
            assert report.cmc[0] == 1.0, (seed, mode)


@pytest.mark.criterion(3, "WF limit consistency: w=1e9 = baseline, w=0 = synthetic-only")
def test_criterion_3_wf_limit_consistency():
    for i in range(50):
        rng = rng_for(2000 + i, "criterion3")
        gen = generate(small_random_spec(rng, max_tracklets=9))
        config = ProtocolConfig(seed=int(rng.integers(0, 100)))
        cases = build_protocol(gen.dataset, config.seed)
        all_ids = sorted(t.tracklet_id for t in gen.dataset.tracklets)
        col = {tid: k for k, tid in enumerate(all_ids)}

        def rankings(scores):
            return [
                [g for g, _ in naive_rank([(g, float(scores[j, col[g]])) for g in c.gallery_ids])]
                for j, c in enumerate(cases)
            ]

        base = score_matrix(gen.dataset, gen.canon, None, cases, config, EvalMode.BASELINE)
        big = score_matrix(
            gen.dataset, gen.canon, gen.provider, cases,
            ProtocolConfig(seed=config.seed, fusion_weight=1e9), EvalMode.WF,
        )
        assert rankings(big) == rankings(base)

        zero = score_matrix(
            gen.dataset, gen.canon, gen.provider, cases,
            ProtocolConfig(seed=config.seed, fusion_weight=0.0), EvalMode.WF,
        )
        by_id = gen.dataset.by_id()
        record = tracklet_means([by_id[tid] for tid in all_ids], config.seed)
        synthetic, served = gen.provider.fetch(
            record, np.ones((len(all_ids), len(gen.canon)), dtype=bool)
        )
        synth = synthetic.sum(axis=1) / served.sum(axis=1)[:, None]
        synth_only = cosine_matrix(synth, [col[c.probe_id] for c in cases], all_ids)
        assert rankings(zero) == rankings(synth_only)


def _random_pair_pool(n_pairs):
    """Tracklet pairs (with their dataset context) from varied planted specs."""
    pool = []
    for i in itertools.count():
        rng = rng_for(3000 + i, "criterion4")
        m = int(rng.integers(2, 5))
        subsets = tuple(
            tuple(sorted(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                    replace=False) + 1))
            for _ in range(2)
        )
        gen = generate(GenSpec(
            identities=3, cameras=2, frames_per_tracklet=(2, 6),
            feature_dim=int(rng.integers(4, 12)), num_poses=m,
            pose_effect_scale=float(rng.uniform(0.2, 1.0)),
            noise_sigma=float(rng.uniform(0.0, 0.5)),
            pose_jitter=float(rng.uniform(0.0, 0.05)),
            pose_visibility=subsets,
            seed=int(rng.integers(0, 2**31)),
        ))
        tracklets = list(gen.dataset.tracklets)
        for a, b in itertools.combinations(tracklets, 2):
            pool.append((gen, a, b))
            if len(pool) == n_pairs:
                return pool


def _permuted(t, rng):
    order = rng.permutation(len(t.frames))
    return Tracklet(t.tracklet_id, t.identity, t.camera,
                    tuple(t.frames[i] for i in order), t.probe)


def _duplicated(t):
    n = len(t.frames)
    dup = tuple(FrameRecord(f.frame_id + n, f.feature, f.pose) for f in t.frames)
    return Tracklet(t.tracklet_id, t.identity, t.camera, (*t.frames, *dup), t.probe)


@pytest.mark.criterion(4, "WPR invariances: permutation/duplication/symmetry/sum(nu)")
def test_criterion_4_wpr_invariances():
    shuffle_rng = rng_for(0, "criterion4-shuffle")

    def score(gen, a, b):
        record = pose_normalize([a] if a is b else [a, b], gen.canon, 0)
        synthetic, served = gen.provider.fetch(record, backfill_poses(record, [0]))
        return wpr_score_matrix(record, [0], synthetic, served)[0, -1]

    for gen, a, b in _random_pair_pool(100):
        base = score(gen, a, b)
        assert abs(score(gen, _permuted(a, shuffle_rng), _permuted(b, shuffle_rng))
                   - base) < 1e-12
        assert abs(score(gen, _duplicated(a), _duplicated(b)) - base) < 1e-12
        assert abs(score(gen, b, a) - base) < 1e-12
        # every per-pose cosine of a tracklet with itself is 1, so its
        # self-score is sum(nu)
        assert abs(score(gen, a, a) - 1.0) <= 1e-12


def stressor_spec(seed):
    """Disjoint camera pose subsets + heavy frame noise, ideal provider."""
    return GenSpec(
        identities=12, cameras=2, num_poses=4, feature_dim=32,
        frames_per_tracklet=(5, 8), pose_effect_scale=1.0, noise_sigma=0.5,
        pose_visibility=((1, 2), (3, 4)), distractors=6, seed=seed,
    )


@pytest.mark.criterion(5, "ablation direction: WF+WPR >= WF >= baseline, 95% paired test")
def test_criterion_5_ablation_direction():
    config = ProtocolConfig(seed=0)
    rank1 = {mode: [] for mode in (EvalMode.BASELINE, EvalMode.WF, EvalMode.FUSED)}
    for seed in range(30):
        gen = generate(stressor_spec(seed))
        for mode in rank1:
            report = evaluate(gen.dataset, gen.canon, gen.provider, config, mode)
            rank1[mode].append(report.cmc[0])
    base = np.array(rank1[EvalMode.BASELINE])
    wf = np.array(rank1[EvalMode.WF])
    fused = np.array(rank1[EvalMode.FUSED])
    assert fused.mean() >= wf.mean() >= base.mean()
    # one-sided paired t-test on the per-seed improvement
    result = stats.ttest_rel(fused, base, alternative="greater")
    assert result.pvalue < 0.05


@pytest.mark.criterion(6, "weight curve: interior rank-1 maximum in >= 80% of seeds")
def test_criterion_6_weight_curve_shape():
    weights = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1e6)
    interior_max = 0
    seeds = 30
    for seed in range(seeds):
        gen = generate(stressor_spec(seed))
        provider = PlantedProvider(gen.truth, noise_sigma=0.5, seed=seed)
        curve = []
        for w in weights:
            report = evaluate(
                gen.dataset, gen.canon, provider,
                ProtocolConfig(seed=0, fusion_weight=w), EvalMode.WF,
            )
            curve.append(report.cmc[0])
        peak = max(curve[1:-1])
        interior_max += peak > curve[0] and peak > curve[-1]
    assert interior_max >= 0.8 * seeds


@pytest.mark.criterion(7, "CLI determinism: repeated invocations are bit-identical")
def test_criterion_7_cli_determinism(tmp_path):
    runner = CliRunner()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "identities": 4, "cameras": 2, "tracklets_per_identity_per_camera": 1,
        "frames_per_tracklet": [4, 6], "feature_dim": 16, "joint_count": 10,
        "num_poses": 3, "pose_effect_scale": 0.4, "noise_sigma": 0.1,
        "pose_jitter": 0.02, "pose_visibility": [[1, 2], [2, 3]],
        "distractors": 2, "seed": 5, "name": "det",
    }))

    outputs = {}
    for attempt in ("a", "b"):
        root = tmp_path / attempt
        data = root / "data"
        run = lambda args: runner.invoke(main, args)
        result = run(["synthgen", "--spec", str(spec_path), "--out", str(data)])
        assert result.exit_code == 0, result.output
        flags = [
            "--manifest", str(data / "manifest.json"),
            "--features", str(data / "features.bin"),
            "--canon", str(data / "canon.json"),
            "--synth-index", str(data / "synth-index.tsv"),
            "--synth-features", str(data / "synth-features.bin"),
            "--seed", "7",
        ]
        for args in (
            ["quantize", "--out", str(root / "assign.tsv")],
            ["embed", "--mode", "wf", "--out", str(root / "wf.bin"),
             "--ids", str(root / "ids.tsv")],
            ["embed", "--mode", "wpr", "--out", str(root / "wpr.bin"),
             "--index", str(root / "wpr.tsv")],
            ["match", "--probe", "id0000-c0-0", "--out", str(root / "rank.tsv")],
            ["eval", "--mode", "wf+wpr", "--report", str(root / "report.json"),
             "--csv", str(root / "report.csv")],
        ):
            result = run(flags + args)
            assert result.exit_code == 0, result.output
        outputs[attempt] = sorted(
            p.relative_to(root) for p in root.rglob("*") if p.is_file()
        )

    assert outputs["a"] == outputs["b"]
    for rel in outputs["a"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


@pytest.mark.criterion(8, "performance: 100x1000 fused evaluation in < 5 s")
def test_criterion_8_performance():
    gen = generate(GenSpec(
        identities=100, cameras=2, tracklets_per_identity_per_camera=1,
        frames_per_tracklet=(8, 8), feature_dim=128, num_poses=8,
        pose_effect_scale=0.5, noise_sigma=0.2, distractors=1800, seed=0,
    ))
    config = ProtocolConfig(seed=0)
    started = time.perf_counter()
    report = evaluate(gen.dataset, gen.canon, gen.provider, config, EvalMode.FUSED)
    elapsed = time.perf_counter() - started
    assert report.num_probes == 100
    assert all(r.gallery_size == 1000 for r in report.probe_results)
    assert elapsed < 5.0, f"evaluation took {elapsed:.2f}s"
