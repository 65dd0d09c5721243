"""Workload specs and their seeded inputs.

Every workload is a function of (name, size, seed).  `make_inputs` writes
the files a CLI workload reads into a directory, with pdsr's own writers,
so the program under test only ever receives generated files.  The
library workload keeps its inputs in memory.

Sizes: `full` is the benchmark proper; `tiny` keeps each workload's shape
(cameras, pose sets, operation mix) at a size the smoke test can afford.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pdsr import dataset_io
from pdsr.generator import GeneratedData, GenSpec, PlantedProvider, generate
from pdsr.model import FrameRecord, PoseVector, Tracklet

#: The fusion weights of scripts/run_weight_sweep.py.
SWEEP_WEIGHTS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1e6)
SWEEP_CORRUPTION = 0.5
#: Stressor problems generated per workload seed; operations cycle over them.
SWEEP_PROBLEMS = 8
#: Share of ingest-long frames rewritten to show only this many joints,
#: below the quantizer's minimum of 4 common joints.
LOW_VIS_SHARE = 0.10
LOW_VIS_JOINTS = 3
#: Probes a match-3cam run cycles through, so that queries repeat.
MATCH_PROBES = 4

INPUT_FILES = ("manifest.json", "features.bin", "canon.json",
               "synth-index.tsv", "synth-features.bin")

_C8 = dict(feature_dim=128, joint_count=18, num_poses=8,
           pose_effect_scale=0.5, noise_sigma=0.2)


def _spec_full(name: str, seed: int) -> GenSpec:
    if name == "eval-c8":
        return GenSpec(identities=100, cameras=2, frames_per_tracklet=(8, 8),
                       distractors=1800, seed=seed, name=name, **_C8)
    if name == "match-3cam":
        return GenSpec(identities=300, cameras=3, frames_per_tracklet=(4, 12),
                       pose_visibility=((1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8)),
                       pose_jitter=0.01, distractors=1500, seed=seed, name=name, **_C8)
    if name == "ingest-long":
        return GenSpec(identities=100, cameras=2, frames_per_tracklet=(48, 64),
                       pose_jitter=0.02, distractors=50, seed=seed, name=name, **_C8)
    if name == "sweep-small":
        return GenSpec(identities=12, cameras=2, num_poses=4, feature_dim=32,
                       frames_per_tracklet=(5, 8), pose_effect_scale=1.0,
                       noise_sigma=0.5, pose_visibility=((1, 2), (3, 4)),
                       distractors=6, seed=seed, name=name)
    raise ValueError(f"unknown workload {name!r}")


def gen_spec(name: str, size: str, seed: int) -> GenSpec:
    """The generator spec of one workload at one size and seed."""
    spec = _spec_full(name, seed)
    if size == "full":
        return spec
    if size != "tiny":
        raise ValueError(f"unknown size {size!r}")
    lo, hi = spec.frames_per_tracklet
    return replace(
        spec,
        identities=min(spec.identities, 6),
        distractors=min(spec.distractors, 4),
        frames_per_tracklet=(min(lo, 6), min(hi, 8)),
        feature_dim=min(spec.feature_dim, 16),
    )


def digest_bytes(data: bytes) -> str:
    return hashlib.blake2s(data).hexdigest()


def digest_file(path: Path) -> str:
    h = hashlib.blake2s()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _hide_joints(gen: GeneratedData, seed: int) -> tuple[GeneratedData, int]:
    """Rewrite a seeded share of frames to show only LOW_VIS_JOINTS joints."""
    rng = np.random.default_rng([seed, 0x10F7])
    slots = [(ti, fi) for ti, t in enumerate(gen.dataset.tracklets)
             for fi in range(len(t.frames))]
    count = int(round(LOW_VIS_SHARE * len(slots)))
    picked = {slots[i] for i in rng.choice(len(slots), size=count, replace=False)}
    k = gen.dataset.joint_count
    tracklets = []
    for ti, t in enumerate(gen.dataset.tracklets):
        frames = []
        for fi, f in enumerate(t.frames):
            if (ti, fi) in picked:
                vis = np.zeros(k, dtype=bool)
                vis[rng.choice(k, size=LOW_VIS_JOINTS, replace=False)] = True
                f = FrameRecord(frame_id=f.frame_id, feature=f.feature,
                                pose=PoseVector(joints=f.pose.joints, visibility=vis))
            frames.append(f)
        tracklets.append(Tracklet(tracklet_id=t.tracklet_id, identity=t.identity,
                                  camera=t.camera, frames=tuple(frames), probe=t.probe))
    dataset = replace(gen.dataset, tracklets=tuple(tracklets))
    return replace(gen, dataset=dataset), count


@dataclass
class CliInputs:
    """Generated files of one CLI workload, plus what the checks need."""

    directory: Path
    gen: GeneratedData | None
    spec: GenSpec
    digests: dict[str, str]
    frames: int
    low_vis_frames: int

    def paths(self) -> list[str]:
        """Input paths, in the order of INPUT_FILES."""
        return [str(self.directory / n) for n in INPUT_FILES]

    def flags(self) -> list[str]:
        """The global CLI flags naming the inputs."""
        flags = ("--manifest", "--features", "--canon", "--synth-index", "--synth-features")
        return [x for pair in zip(flags, self.paths()) for x in pair]

    def input_mb(self) -> float:
        return sum((self.directory / n).stat().st_size for n in INPUT_FILES) / 1e6


def make_inputs(name: str, size: str, seed: int, directory: Path) -> CliInputs:
    """Generate and write one CLI workload's input files (as `pdsr synthgen` does)."""
    spec = gen_spec(name, size, seed)
    gen = generate(spec)
    low_vis = 0
    if name == "ingest-long":
        gen, low_vis = _hide_joints(gen, seed)
    directory.mkdir(parents=True, exist_ok=True)
    dataset_io.save_dataset(gen.dataset, directory / "manifest.json", directory / "features.bin")
    dataset_io.save_canon(gen.canon, directory / "canon.json")
    index: dict[tuple[str, int], int] = {}
    rows = []
    for t in gen.dataset.tracklets:
        for j in gen.canon.indices:
            index[(t.tracklet_id, j)] = len(rows)
            rows.append(gen.provider.query(t.tracklet_id, -1, j))
    dataset_io.write_feature_matrix(directory / "synth-features.bin", np.stack(rows))
    dataset_io.write_synth_index(index, directory / "synth-index.tsv")
    return CliInputs(
        directory=directory,
        gen=gen,
        spec=spec,
        digests={n: digest_file(directory / n) for n in INPUT_FILES},
        frames=sum(len(t.frames) for t in gen.dataset.tracklets),
        low_vis_frames=low_vis,
    )


def match_probes(gen: GeneratedData, seed: int) -> list[str]:
    """Probe ids for match-3cam, drawn by the seed from non-distractor tracklets."""
    ids = sorted(t.tracklet_id for t in gen.dataset.tracklets if not t.is_distractor)
    rng = np.random.default_rng([seed, 0x3CA3])
    return [ids[i] for i in rng.choice(len(ids), size=min(MATCH_PROBES, len(ids)), replace=False)]


@dataclass
class SweepProblem:
    seed: int
    gen: GeneratedData
    provider: PlantedProvider


def sweep_seeds(seed: int) -> list[int]:
    return [seed * SWEEP_PROBLEMS + i for i in range(SWEEP_PROBLEMS)]


def make_sweep_problem(size: str, seed: int) -> SweepProblem:
    """One weight-sweep stressor with its corrupted planted provider."""
    gen = generate(gen_spec("sweep-small", size, seed))
    return SweepProblem(seed=seed, gen=gen,
                        provider=PlantedProvider(gen.truth, noise_sigma=SWEEP_CORRUPTION, seed=seed))
