#!/usr/bin/env python3
"""Rank-1 as a function of the WF fusion weight under a corrupted provider.

The real branch is degraded by pose-disjoint cameras and frame noise; the
synthetic branch is degraded by provider corruption.  Sweeping w between the
synthetic-only (w=0) and baseline (w->inf) limits exposes the interior
optimum that motivates weighted fusion.

    python3 scripts/run_weight_sweep.py --seeds 30 --corruption 0.5
"""

import argparse

import numpy as np

from pdsr import EvalMode, ProtocolConfig, evaluate
from pdsr.dataset_io import write_json
from pdsr.generator import GenSpec, PlantedProvider, generate

DEFAULT_WEIGHTS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1e6)


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=30)
    parser.add_argument("--identities", type=int, default=12)
    parser.add_argument("--num-poses", type=int, default=4)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--distractors", type=int, default=6)
    parser.add_argument("--noise", type=float, default=0.5, help="frame feature noise sigma")
    parser.add_argument("--pose-effect", type=float, default=1.0)
    parser.add_argument("--corruption", type=float, default=0.5,
                        help="synthetic provider noise sigma")
    parser.add_argument("--weights", type=float, nargs="+", default=list(DEFAULT_WEIGHTS))
    parser.add_argument("--json", type=str, default=None, help="optional results JSON path")
    args = parser.parse_args()

    curves = []
    interior_max = 0
    for seed in range(args.seeds):
        gen = generate(stressor_spec(seed, args))
        provider = PlantedProvider(gen.truth, noise_sigma=args.corruption, seed=seed)
        curve = []
        for w in args.weights:
            report = evaluate(
                gen.dataset, gen.canon, provider,
                ProtocolConfig(seed=0, fusion_weight=w), EvalMode.WF,
            )
            curve.append(report.cmc[0])
        curves.append(curve)
        peak = max(curve[1:-1])
        interior_max += peak > curve[0] and peak > curve[-1]

    mean_curve = np.mean(curves, axis=0)
    print(f"corrupted provider (sigma={args.corruption}), {args.seeds} seeds")
    print(f"{'w':>10s} {'rank-1':>8s}")
    for w, r in zip(args.weights, mean_curve):
        print(f"{w:10g} {r:8.4f}")
    best = int(np.argmax(mean_curve))
    print(f"\nbest mean rank-1 at w={args.weights[best]:g}; "
          f"interior maximum in {interior_max}/{args.seeds} seeds")

    if args.json:
        payload = {
            "weights": list(args.weights),
            "mean_rank1": [float(x) for x in mean_curve],
            "per_seed_rank1": curves,
            "interior_max_seeds": interior_max,
        }
        write_json(args.json, payload)
        print(f"results -> {args.json}")


if __name__ == "__main__":
    main()
