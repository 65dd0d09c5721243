"""The pose-disjoint stressor both experiment scripts draw: its options and its GenSpec.

Two cameras record disjoint halves of the canonical poses, and frames carry
feature noise.  `check_stressor_options` turns a value the generator would
refuse into a usage error (exit 2) that names the option, before anything
is generated.
"""

import argparse
import os

from pdsr.generator import GenSpec

#: Each stressor option and the GenSpec field it sets; GenSpec's own checks judge its value.
OPTION_FIELDS = {
    "--identities": "identities",
    "--num-poses": "num_poses",
    "--dim": "feature_dim",
    "--distractors": "distractors",
    "--noise": "noise_sigma",
    "--pose-effect": "pose_effect_scale",
}


def output_path(text: str) -> str:
    """An argparse type: a file path in a directory that exists, so results are not lost after a run."""
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise argparse.ArgumentTypeError(f"no directory to write {text} in")
    return text


def add_stressor_options(parser: argparse.ArgumentParser) -> None:
    """The seed count, the stressor's shape and the results path."""
    parser.add_argument("--seeds", type=int, default=30, help="number of planted datasets")
    parser.add_argument("--identities", type=int, default=12)
    parser.add_argument("--num-poses", type=int, default=4, help="split between the two cameras")
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--distractors", type=int, default=6)
    parser.add_argument("--noise", type=float, default=0.5, help="frame feature noise sigma")
    parser.add_argument("--pose-effect", type=float, default=1.0)
    parser.add_argument("--json", type=output_path, default=None, help="optional results JSON path")


def check_stressor_options(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse, naming the option, a seed count below 1, a pose count the split cannot halve, or a GenSpec error."""
    if args.seeds < 1:
        parser.error("--seeds: needs at least 1 seed")
    if args.num_poses < 2:
        parser.error("--num-poses: each of the two cameras needs at least 1 pose")
    for option, field in OPTION_FIELDS.items():
        try:
            GenSpec(**{field: getattr(args, option[2:].replace("-", "_"))})
        except ValueError as exc:
            parser.error(f"{option}: {exc}")


def stressor_spec(seed: int, args: argparse.Namespace) -> GenSpec:
    half = args.num_poses // 2
    return GenSpec(
        identities=args.identities,
        cameras=2,
        num_poses=args.num_poses,
        feature_dim=args.dim,
        frames_per_tracklet=(5, 8),
        pose_effect_scale=args.pose_effect,
        noise_sigma=args.noise,
        pose_visibility=(
            tuple(range(1, half + 1)),
            tuple(range(half + 1, args.num_poses + 1)),
        ),
        distractors=args.distractors,
        seed=seed,
    )
