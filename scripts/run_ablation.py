#!/usr/bin/env python3
"""Mode ablation on the pose-disjoint stressor.

Cameras record disjoint pose subsets, frames carry heavy feature noise, and
the synthetic provider is ideal.  For each seed the full cross-camera
protocol runs in every mode; the summary reports mean rank-1 / mAP per mode
and a one-sided paired t-test of the fused improvement over the baseline.

    python3 scripts/run_ablation.py --seeds 30 --noise 0.5
"""

import argparse

import numpy as np
from scipy import stats

from pdsr import EvalMode, ProtocolConfig, evaluate
from pdsr.dataset_io import write_json
from pdsr.generator import generate
from stressor import add_stressor_options, check_stressor_options, stressor_spec

MODES = (EvalMode.BASELINE, EvalMode.WF, EvalMode.WPR, EvalMode.FUSED)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_stressor_options(parser)
    parser.add_argument("--weight", type=float, default=4.0, help="WF fusion weight w")
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds: the paired t-test needs at least 2 seeds")
    check_stressor_options(parser, args)
    try:
        config = ProtocolConfig(seed=0, fusion_weight=args.weight)
    except ValueError as exc:  # a negative, nan or inf weight
        parser.error(f"--weight: {exc}")

    rank1 = {mode: [] for mode in MODES}
    mean_ap = {mode: [] for mode in MODES}
    for seed in range(args.seeds):
        gen = generate(stressor_spec(seed, args))
        for mode in MODES:
            report = evaluate(gen.dataset, gen.canon, gen.provider, config, mode)
            rank1[mode].append(report.cmc[0])
            mean_ap[mode].append(report.mean_ap)

    print(f"pose-disjoint stressor, {args.seeds} seeds, noise={args.noise}, w={args.weight}")
    print(f"{'mode':10s} {'rank-1':>8s} {'mAP':>8s}")
    for mode in MODES:
        print(f"{mode.value:10s} {np.mean(rank1[mode]):8.4f} {np.mean(mean_ap[mode]):8.4f}")

    fused = np.array(rank1[EvalMode.FUSED])
    base = np.array(rank1[EvalMode.BASELINE])
    test = stats.ttest_rel(fused, base, alternative="greater")
    print(f"\nfused - baseline rank-1: {np.mean(fused - base):+.4f} "
          f"(paired t one-sided p = {test.pvalue:.2e})")

    if args.json:
        payload = {
            "seeds": args.seeds,
            "rank1": {m.value: rank1[m] for m in MODES},
            "mean_ap": {m.value: mean_ap[m] for m in MODES},
            "fused_vs_baseline_pvalue": float(test.pvalue),
        }
        write_json(args.json, payload)
        print(f"results -> {args.json}")


if __name__ == "__main__":
    main()
