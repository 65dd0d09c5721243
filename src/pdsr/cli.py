"""Command-line entry point.

Global flags name the input files once; subcommands do one stage each:

    pdsr synthgen --spec spec.json --out data/
    pdsr --manifest m.json --features f.bin --canon c.json quantize --out a.tsv
    pdsr ... embed --mode wf --weight 4 --out wf.bin
    pdsr ... match --probe id0001-c0-0
    pdsr ... eval --mode wf+wpr --report report.json --csv report.csv

A JSON file named by the PDSR_CONFIG environment variable supplies
defaults: top-level keys for the global flags, nested objects per
subcommand (e.g. {"canon": "c.json", "eval": {"weight": 2.0}}).
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, replace
from pathlib import Path

import click
import numpy as np

from . import dataset_io
from .errors import FileFormatError, PdsrError
from .evaluation import (
    EvalMode,
    ProbeCase,
    ProtocolConfig,
    evaluate,
    rank_gallery,
    score_matrix,
)
from .fusion import DEFAULT_FUSION_WEIGHT, wf_embeddings
from .generator import generate, load_gen_spec
from .model import CanonicalPoseSet, Dataset, pack, validate_dataset
from .providers import file_backed_provider
from .quantizer import assignment_distances, nearest_poses
from .regulation import pose_normalize, tracklet_means

ENV_CONFIG = "PDSR_CONFIG"


@dataclass
class CliContext:
    manifest: Path | None
    features: Path | None
    canon: Path | None
    synth_index: Path | None
    synth_features: Path | None
    seed: int | None
    strict: bool


class _ConfigGroup(click.Group):
    """Loads default option values from the PDSR_CONFIG file, if set."""

    def make_context(self, info_name, args, parent=None, **extra):
        path = os.environ.get(ENV_CONFIG)
        if path and "default_map" not in extra:
            try:
                extra["default_map"] = dataset_io.read_json(path, unique_keys=True)
            except OSError as exc:
                raise click.ClickException(f"cannot read {ENV_CONFIG}={path}: {exc}")
            except FileFormatError as exc:  # names the file
                raise click.ClickException(f"{ENV_CONFIG}: {exc}")
        return super().make_context(info_name, args, parent, **extra)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (PdsrError, OSError, ValueError) as exc:  # an OSError's message names its path
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_ConfigGroup, context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--manifest", type=click.Path(path_type=Path), default=None, help="Dataset manifest JSON.")
@click.option("--features", type=click.Path(path_type=Path), default=None, help="Dataset feature matrix.")
@click.option("--canon", type=click.Path(path_type=Path), default=None, help="Canonical pose set JSON.")
@click.option("--synth-index", type=click.Path(path_type=Path), default=None, help="Synthetic feature index TSV.")
@click.option("--synth-features", type=click.Path(path_type=Path), default=None, help="Synthetic feature matrix.")
@click.option("--seed", type=int, default=None,
              help="Seed for the probe draw and the representative-frame draw, and synthgen's "
                   "spec seed [default: 0]. The file-backed synthetic features ignore the "
                   "representative frame.")
@click.option("--strict/--lenient", "strict", default=True, help="Fail on missing synthetic vectors vs skip them.")
@click.pass_context
def main(ctx, **options):
    """Pose-regulated tracklet matching and retrieval evaluation."""
    ctx.obj = CliContext(**options)
    # What is alive now (modules, numpy's and click's objects, the options)
    # lives until exit: frozen, neither the command's collections nor the
    # interpreter's at exit walk it again.  The collector keeps its setting.
    gc.freeze()


def _require(value: Path | None, flag: str) -> Path:
    if value is None:
        raise click.UsageError(f"this command needs the global {flag} option")
    return value


def _load_inputs(obj: CliContext) -> tuple[Dataset, CanonicalPoseSet]:
    dataset = dataset_io.load_dataset(
        _require(obj.manifest, "--manifest"), _require(obj.features, "--features")
    )
    canon = dataset_io.load_canon(_require(obj.canon, "--canon"))
    issues = validate_dataset(
        dataset.tracklets,
        canon,
        expected_dim=dataset.feature_dim,
        expected_joints=dataset.joint_count,
    )
    if issues:
        for issue in issues:
            click.echo(f"invalid: {issue.code}: {issue.message}", err=True)
        raise click.ClickException(f"dataset failed validation with {len(issues)} issue(s)")
    return dataset, canon


def _provider(obj: CliContext, dataset: Dataset):
    index_path = _require(obj.synth_index, "--synth-index")
    features_path = _require(obj.synth_features, "--synth-features")
    provider = file_backed_provider(index_path, features_path)
    if provider.feature_dim != dataset.feature_dim:
        raise FileFormatError(
            f"{features_path}: dimension {provider.feature_dim} does not match "
            f"manifest feature_dim {dataset.feature_dim}"
        )
    return provider


def _finite(ctx, param, value: float) -> float:
    if not np.isfinite(value):  # FloatRange lets nan and inf through
        raise click.BadParameter(f"{value} is not a finite number")
    return value


#: The options that several commands share, each declared once.
_mode_option = click.option("--mode", type=click.Choice([m.value for m in EvalMode]),
                            default=EvalMode.FUSED.value, show_default=True,
                            callback=lambda ctx, param, value: EvalMode(value))
_weight_option = click.option("--weight", type=click.FloatRange(min=0.0), default=DEFAULT_FUSION_WEIGHT,
                              callback=_finite, show_default=True, help="Real-branch weight w for WF.")


def _config(obj: CliContext, weight: float) -> ProtocolConfig:
    seed = obj.seed if obj.seed is not None else 0
    return ProtocolConfig(seed=seed, fusion_weight=weight, strict=obj.strict)


@main.command()
@click.option("--spec", "spec_path", required=True, type=click.Path(path_type=Path), help="GenSpec JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path), help="Output directory.")
@click.pass_obj
def synthgen(obj: CliContext, spec_path: Path, out_dir: Path):
    """Generate a planted dataset plus canon, synthetic features and index."""
    spec = load_gen_spec(spec_path)
    if obj.seed is not None:
        spec = replace(spec, seed=obj.seed)
    gen = generate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_io.save_dataset(gen.dataset, out_dir / "manifest.json", out_dir / "features.bin")
    dataset_io.save_canon(gen.canon, out_dir / "canon.json")

    # The planted provider ignores the representative frame, so any draw
    # writes the same vectors; rows run in (tracklet, pose) order.
    record = tracklet_means(gen.dataset.tracklets, 0)
    m = len(gen.canon)
    synthetic, _ = gen.provider.fetch(record, np.ones((len(record.tracklet_ids), m), dtype=bool))
    rows = synthetic.reshape(-1, synthetic.shape[2])
    index = {
        (tid, j): t * m + j - 1 for t, tid in enumerate(record.tracklet_ids) for j in gen.canon.indices
    }
    dataset_io.write_feature_matrix(out_dir / "synth-features.bin", rows)
    dataset_io.write_synth_index(index, out_dir / "synth-index.tsv")

    frames = sum(len(t) for t in gen.dataset.tracklets)
    click.echo(
        f"{gen.dataset.name}: {len(gen.dataset.tracklets)} tracklets, "
        f"{frames} frames, {len(rows)} synthetic vectors -> {out_dir}"
    )


@main.command()
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Write per-frame assignments TSV (tracklet, frame, pose, distance).")
@click.pass_obj
def quantize(obj: CliContext, out_path: Path | None):
    """Assign every frame to its nearest canonical pose."""
    dataset, canon = _load_inputs(obj)
    frames, _ = pack(dataset.tracklets)
    poses, distances = nearest_poses(assignment_distances(frames.joints, frames.visibility, canon))
    if out_path is not None:
        tids = [t.tracklet_id for t in dataset.tracklets for _ in range(len(t))]
        text = dataset_io.tsv_text(zip(
            tids, frames.frame_ids.tolist(), [j or "-" for j in poses.tolist()], distances.tolist()
        ))
        out_path.write_text(text, encoding="utf-8")
    counts = np.bincount(poses, minlength=len(canon) + 1).tolist()  # counts[0]: unassignable
    click.echo(
        f"{len(frames)} frames: {len(frames) - counts[0]} assigned, {counts[0]} unassignable"
    )
    for j in canon.indices:
        click.echo(f"pose {j}: {counts[j]}")


@main.command()
@click.option("--mode", type=click.Choice(["wf", "wpr"]), required=True)
@_weight_option
@click.option("--out", "out_path", required=True, type=click.Path(path_type=Path),
              help="Output feature matrix.")
@click.option("--index", "index_path", type=click.Path(path_type=Path), default=None,
              help="Keyed index TSV (required for --mode wpr).")
@click.option("--ids", "ids_path", type=click.Path(path_type=Path), default=None,
              help="Optional row -> tracklet id TSV (wf mode).")
@click.pass_obj
def embed(obj: CliContext, mode: str, weight: float, out_path: Path,
          index_path: Path | None, ids_path: Path | None):
    """Write fused (wf) or pose-normalized (wpr) embeddings."""
    if mode == "wpr" and index_path is None:
        raise click.UsageError("--mode wpr needs --index for the keyed output")
    dataset, canon = _load_inputs(obj)
    config = _config(obj, weight)
    tracklets = dataset.tracklets

    if mode == "wf":
        if ids_path is not None:  # refuses an id it cannot write before any work
            ids_text = dataset_io.tsv_text(enumerate(t.tracklet_id for t in tracklets))
        record = tracklet_means(tracklets, config.seed)
        synthetic, served = _provider(obj, dataset).fetch(
            record, np.ones((len(tracklets), len(canon)), dtype=bool), strict=config.strict
        )
        rows = wf_embeddings(record, synthetic, served, config.fusion_weight)
        dataset_io.write_feature_matrix(out_path, rows)
        if ids_path is not None:
            ids_path.write_text(ids_text, encoding="utf-8")
        click.echo(f"{rows.shape[0]} wf embeddings (w={weight}) -> {out_path}")
    else:
        record = pose_normalize(tracklets, canon, config.seed)
        dataset_io.write_pose_embeddings(record, index_path, out_path)
        click.echo(
            f"{int(record.observed.sum())} pose entries over "
            f"{len(tracklets)} tracklets -> {out_path}"
        )


@main.command()
@click.option("--probe", "probe_id", required=True, help="Tracklet id to query.")
@_mode_option
@_weight_option
@click.option("--top", type=int, default=10, show_default=True, help="Rows to print.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Write the full ranking as TSV.")
@click.pass_obj
def match(obj: CliContext, probe_id: str, mode: EvalMode, weight: float, top: int,
          out_path: Path | None):
    """Rank the cross-camera gallery for one probe tracklet."""
    dataset, canon = _load_inputs(obj)
    by_id = dataset.by_id()
    if probe_id not in by_id:
        raise click.ClickException(f"unknown tracklet {probe_id!r}")
    probe = by_id[probe_id]
    tracklets = dataset.tracklets
    gallery = np.array([t.camera != probe.camera for t in tracklets])
    if not gallery.any():
        raise click.ClickException("no tracklet from another camera to rank")

    provider = None if mode is EvalMode.BASELINE else _provider(obj, dataset)
    case = ProbeCase(
        probe_id=probe_id, identity=probe.identity, camera=probe.camera,
        gallery_ids=tuple(t.tracklet_id for t, g in zip(tracklets, gallery) if g),
    )
    scores = score_matrix(dataset, canon, provider, [case], _config(obj, weight), mode)
    order = rank_gallery(scores)[0]
    order = order[gallery[order]]
    ranked = [(tracklets[i], scores[0, i].item()) for i in order]

    if out_path is not None:
        text = dataset_io.tsv_text(
            (rank, t.tracklet_id, score, t.identity, t.camera)
            for rank, (t, score) in enumerate(ranked, start=1)
        )
        out_path.write_text(text, encoding="utf-8")
    click.echo(f"probe {probe_id} ({probe.identity}, camera {probe.camera}), mode {mode.value}:")
    for rank, (t, score) in enumerate(ranked[: max(top, 0)], start=1):
        hit = "*" if t.identity == probe.identity and not probe.is_distractor else " "
        click.echo(f"{rank:4d} {hit} {t.tracklet_id}  {score: .6f}  {t.identity}")


@main.command("eval")
@_mode_option
@_weight_option
@click.option("--report", "report_path", required=True, type=click.Path(path_type=Path),
              help="Report JSON output.")
@click.option("--csv", "csv_path", type=click.Path(path_type=Path), default=None,
              help="Optional flat CSV mirror of the report.")
@click.pass_obj
def eval_cmd(obj: CliContext, mode: EvalMode, weight: float, report_path: Path,
             csv_path: Path | None):
    """Run the cross-camera retrieval protocol and write the report."""
    dataset, canon = _load_inputs(obj)
    provider = None if mode is EvalMode.BASELINE else _provider(obj, dataset)
    report = evaluate(dataset, canon, provider, _config(obj, weight), mode)
    dataset_io.save_report_json(report, report_path)
    if csv_path is not None:
        dataset_io.save_report_csv(report, csv_path)

    click.echo(f"mode {report.mode}: {report.num_scored}/{report.num_probes} probes scored")
    if report.mean_ap is not None:
        click.echo(f"mAP    {report.mean_ap:.6f}")
        for r in (1, 5, 10, 20):
            if r <= len(report.cmc):
                click.echo(f"rank-{r:<2d} {report.cmc[r - 1]:.6f}")
    click.echo(f"report -> {report_path}")


if __name__ == "__main__":
    main()
