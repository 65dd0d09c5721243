#!/usr/bin/env python3
"""Rank-1 as a function of the WF fusion weight under a corrupted provider.

The real branch is degraded by pose-disjoint cameras and frame noise; the
synthetic branch is degraded by provider corruption.  Sweeping w between the
synthetic-only (w=0) and baseline (w->inf) limits exposes the interior
optimum that motivates weighted fusion.

    python3 scripts/run_weight_sweep.py --seeds 30 --corruption 0.5
"""

import argparse
import math

import numpy as np

from pdsr import EvalMode, ProtocolConfig, evaluate
from pdsr.dataset_io import write_json
from pdsr.generator import PlantedProvider, generate
from stressor import add_stressor_options, check_stressor_options, stressor_spec

DEFAULT_WEIGHTS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1e6)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_stressor_options(parser)
    parser.add_argument("--corruption", type=float, default=0.5, help="synthetic provider noise sigma")
    parser.add_argument("--weights", type=float, nargs="+", default=list(DEFAULT_WEIGHTS),
                        help="the synthetic-only limit, interior weights, then the baseline limit")
    args = parser.parse_args()
    check_stressor_options(parser, args)
    if not 0 <= args.corruption < math.inf:  # PlantedProvider refuses it too, but only after a dataset is generated
        parser.error(f"--corruption: {args.corruption} is not a finite number >= 0")
    if len(args.weights) < 3:
        parser.error("--weights: needs the two limits and at least one interior weight")
    try:
        configs = [ProtocolConfig(seed=0, fusion_weight=w) for w in args.weights]
    except ValueError as exc:  # a negative, nan or inf weight
        parser.error(f"--weights: {exc}")

    curves = []
    interior_max = 0
    for seed in range(args.seeds):
        gen = generate(stressor_spec(seed, args))
        provider = PlantedProvider(gen.truth, noise_sigma=args.corruption, seed=seed)
        curve = []
        for config in configs:
            report = evaluate(gen.dataset, gen.canon, provider, config, EvalMode.WF)
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
