#!/usr/bin/env python3
"""Empirical-vs-first-order MSE gap as the sample size grows.

Fixed-coefficient estimators go through ``convergence_sweep`` directly; the
jointly optimized rows re-derive their optimal coefficients at each sample
size before simulating. First-order-adequate rows shrink roughly like 1/n;
the (1, 1) optimized power-exp row starts far off at small n, which is the
second-order effect documented in the README.
"""

import argparse
import sys

from dataclasses import replace

from meanerr.estimators import Estimator, ExpBracket, PowerExpBracket
from meanerr.ingest import DEFAULT_PRESET, preset, preset_names
from meanerr.moments import derive_moments
from meanerr.simulate import SimulationConfig, convergence_sweep
from meanerr.theory import optimal_weighted_power_exp


def parse_pair(raw: str) -> tuple[int, float]:
    alpha, beta = raw.split(",")
    return int(alpha), float(beta)


def print_points(label: str, points) -> None:
    print(f"\n{label}")
    print(f"  {'n':>6} {'empirical':>12} {'first-order':>12} {'gap':>9}")
    for point in points:
        print(f"  {point.n:>6} {point.empirical_mse:>12.6f} "
              f"{point.theory_mse:>12.6f} {point.relative_gap:>9.4%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default=DEFAULT_PRESET,
                        choices=preset_names())
    parser.add_argument("--pair", type=parse_pair, default=(1, 1.0),
                        metavar="ALPHA,BETA")
    parser.add_argument("--n-grid", default="10,50,200,1000",
                        help="comma-separated ascending sample sizes")
    parser.add_argument("--replicates", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    params = preset(args.preset)
    n_grid = [int(v) for v in args.n_grid.split(",")]
    alpha, beta = args.pair
    bracket = PowerExpBracket(float(alpha), beta)
    config = SimulationConfig(params=params, replicates=args.replicates,
                              seed=args.seed)

    for label, spec in (
        ("mean per unit", Estimator()),
        ("exp ratio", Estimator(bracket=ExpBracket())),
        (f"power exp ({alpha},{beta:g})", Estimator(bracket=bracket)),
    ):
        print_points(label, convergence_sweep(config, spec, n_grid))

    # the optimized row re-derives its weights at every n, so each point uses
    # a different spec and the sweep runs one sample size at a time
    points = []
    for n in n_grid:
        rescaled = replace(params, n=n)
        opt = optimal_weighted_power_exp(derive_moments(rescaled),
                                         rescaled.mu_y, bracket)
        spec = Estimator(opt.first, opt.second, bracket)
        points.extend(convergence_sweep(config, spec, [n]))
    print_points(f"optimized power exp ({alpha},{beta:g}), "
                 "weights re-derived per n", points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
