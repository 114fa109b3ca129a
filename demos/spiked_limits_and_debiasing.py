"""Spiked eigenvalues: detection thresholds, limits, bias correction.

For a white-noise bulk plus a few planted spikes, prints where each
estimator's detection threshold sits, the limiting value every spike is
pulled to, and then fits both estimators on simulated data to show the
raw overshoot and its correction back toward the population value.
"""
import argparse

import numpy as np

from spikedcov import estimators, make_spectrum, rmt
from spikedcov.numkernel import RngStream


def print_limits(c: float, spikes: tuple[float, ...]) -> None:
    bulk = make_spectrum(atoms=[(1.0, 1.0)])
    star = rmt.ppca_threshold(c, bulk)
    prime = rmt.pca_threshold(c, bulk)
    print(f"detection thresholds at c={c}: product {star.threshold:.4f}, "
          f"classical {prime.threshold:.4f}")
    print(f"{'spike':>8} {'product limit':>18} {'classical limit':>18}")
    for lam in spikes:
        ppca = rmt.ppca_limit(c, bulk, lam)
        pca = rmt.pca_limit(c, bulk, lam)
        def shown(limit):
            return f"{limit.value:.4f} ({limit.tag})"
        print(f"{lam:8.2f} {shown(ppca):>18} {shown(pca):>18}")
    print()


def fit_and_debias(c: float, spikes: tuple[float, ...], n: int, seed: int) -> None:
    p = int(round(c * n))
    scale = np.ones(p)
    scale[: len(spikes)] = np.sqrt(spikes)
    x = RngStream(seed, 0).generator().standard_normal((n, p)) * scale
    pfit = estimators.ppca_fit(x, RngStream(seed, 1))
    cfit = estimators.pca_fit(x)
    print(f"one sample at n={n}, p={p}, spikes {spikes}:")
    print(f"{'j':>3} {'spike':>7} {'product raw':>12} {'corrected':>10} "
          f"{'classical raw':>14} {'corrected':>10}")
    for j, lam in enumerate(spikes, start=1):
        print(
            f"{j:3d} {lam:7.2f} "
            f"{pfit.singular_values[j - 1]:12.4f} "
            f"{estimators.debias_ppca(pfit.singular_values, c, j):10.4f} "
            f"{cfit.eigenvalues[j - 1]:14.4f} "
            f"{estimators.debias_pca(cfit.eigenvalues, c, j):10.4f}"
        )
    consts = rmt.ssm_closed_forms(rmt.SsmParams(c=c, sigma2=1.0))
    r_ppca = estimators.estimate_rank(pfit.singular_values, consts.b)
    r_pca = estimators.estimate_rank(cfit.eigenvalues, consts.b_prime)
    print(f"eigenvalues above the bulk edge: product {r_ppca}, "
          f"classical {r_pca} (true rank {len(spikes)})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--c", type=float, default=0.4, help="aspect ratio p/n")
    parser.add_argument("--n", type=int, default=2000, help="sample size")
    parser.add_argument("--seed", type=int, default=11, help="master seed")
    args = parser.parse_args()

    spikes = (5.0, 3.0, 2.0)
    print("Both estimators inflate detectable spikes, classical PCA more so;")
    print("spikes below a threshold are pulled into the bulk and lost.")
    print()
    print_limits(args.c, spikes + (1.2,))
    fit_and_debias(args.c, spikes, args.n, args.seed)


if __name__ == "__main__":
    main()
