"""Oracle equivalence where criterion 1's planted datasets never go.

Small random datasets whose frames are sometimes too occluded to assign,
whose tracklets are sometimes flagged `probe`, scored through a seeded
gappy provider (in memory, or a file-backed one written with the package's
writers) in strict and lenient mode.  Every `ProbeResult`, mAP, CMC and the
camera map are compared with the brute-force reference.
"""

import dataclasses
import time

import numpy as np
import pytest

from naive_reference import naive_evaluate
from pdsr import EvalMode, ProtocolConfig, SyntheticFeatureProvider, evaluate, file_backed_provider
from pdsr.dataset_io import write_feature_matrix, write_synth_index
from pdsr.errors import EmptyUnionError, MissingSyntheticError
from pdsr.generator import generate
from pdsr.model import PackedFrames
from pdsr.quantizer import MIN_COMMON_JOINTS
from pdsr.seeding import rng_for
from test_acceptance import small_random_spec

DATASETS = 50
GAP_RATE = 0.15


class GappyProvider(SyntheticFeatureProvider):
    """An inner provider that does not serve the `missing` (tracklet, pose) cells."""

    def __init__(self, inner, missing):
        self.inner, self.missing = inner, missing

    def query(self, tracklet_id, representative_frame_id, pose):
        if (tracklet_id, pose) in self.missing:
            raise MissingSyntheticError(f"no synthetic feature for ({tracklet_id!r}, pose {pose})")
        return self.inner.query(tracklet_id, representative_frame_id, pose)


def occluded_and_flagged(dataset, rng):
    """Each frame but the first of a tracklet shows too few joints to assign with p = 0.3; some tracklets are probes."""
    few = np.arange(dataset.joint_count) < MIN_COMMON_JOINTS - 1
    tracklets = []
    for t in dataset.tracklets:
        visibility = t.frames.visibility.copy()
        hidden = rng.random(len(t)) < 0.3
        hidden[0] = False
        visibility[hidden] = few
        frames = PackedFrames(t.frames.frame_ids, t.frames.features, t.frames.joints, visibility)
        tracklets.append(dataclasses.replace(t, frames=frames, probe=bool(rng.random() < 0.3)))
    return dataclasses.replace(dataset, tracklets=tuple(tracklets))


def file_provider(gen, missing, root):
    """A file-backed provider of the planted vectors, the `missing` cells left out of its index."""
    index, rows = {}, []
    for t in gen.dataset.tracklets:
        for j in gen.canon.indices:
            if (t.tracklet_id, j) not in missing:
                index[(t.tracklet_id, j)] = len(rows)
                rows.append(gen.provider.query(t.tracklet_id, -1, j))
    write_feature_matrix(root / "synth.bin", np.stack(rows))
    write_synth_index(index, root / "synth.tsv")
    return file_backed_provider(root / "synth.tsv", root / "synth.bin")


def outcome(run):
    try:
        return run()
    except (MissingSyntheticError, EmptyUnionError) as exc:
        return exc


def assert_same(got, want):
    if isinstance(got, Exception) or isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        if isinstance(got, MissingSyntheticError):  # the same first missing cell, or tracklet
            assert str(got) == str(want)
        return
    assert (got.num_probes, got.num_scored) == (want["num_probes"], want["num_scored"])
    for r, (probe_id, gallery_size, positives, first, ap) in zip(got.probe_results, want["probe_results"],
                                                                strict=True):
        assert (r.probe_id, r.gallery_size, r.num_positives) == (probe_id, gallery_size, positives)
        assert r.first_correct_rank == first
        assert (r.ap is None) == (ap is None) and (ap is None or abs(r.ap - ap) < 1e-9)
    assert (got.mean_ap is None) == (want["mean_ap"] is None)
    assert got.mean_ap is None or abs(got.mean_ap - want["mean_ap"]) < 1e-9
    assert len(got.cmc) == len(want["cmc"]) and all(abs(a - b) < 1e-9 for a, b in zip(got.cmc, want["cmc"]))
    assert got.camera_ids == tuple(want["camera_ids"])
    for row_got, row_want in zip(got.camera_pair_map, want["confusion"], strict=True):
        for a, b in zip(row_got, row_want, strict=True):
            assert (a is None and b is None) or abs(a - b) < 1e-9


def test_fast_path_switches_match_the_oracle(tmp_path):
    started = time.perf_counter()
    seen = {"scored": 0, "scored-past-a-miss": 0, "missing": 0, "empty-union": 0}
    for i in range(DATASETS):
        rng = rng_for(3000 + i, "switches")
        gen = generate(small_random_spec(rng))
        dataset = occluded_and_flagged(gen.dataset, rng)
        missing = {(t.tracklet_id, j) for t in dataset.tracklets for j in gen.canon.indices
                   if rng.random() < GAP_RATE}
        provider = (file_provider(gen, missing, tmp_path) if i % 2
                    else GappyProvider(gen.provider, missing))
        seed = int(rng.integers(0, 100))
        for mode in EvalMode:
            strict_missed = False
            for strict in (True, False):
                config = ProtocolConfig(seed=seed, strict=strict)
                got = outcome(lambda: evaluate(dataset, gen.canon, provider, config, mode))
                want = outcome(lambda: naive_evaluate(dataset, gen.canon, provider, mode.value, seed,
                                                      strict=strict))
                assert_same(got, want)
                if isinstance(got, MissingSyntheticError):
                    seen["missing"] += 1
                    strict_missed |= strict
                elif isinstance(got, EmptyUnionError):
                    seen["empty-union"] += 1
                else:
                    seen["scored"] += 1
                    seen["scored-past-a-miss"] += strict_missed  # lenient mode dropped a wanted cell
    assert min(seen.values()) > 0, seen
    assert time.perf_counter() - started < 10.0
