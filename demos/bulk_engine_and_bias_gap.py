"""The generic bulk engine on non-white noise, and the bias gap.

The closed forms cover white noise only; the fixed-point engine handles
any discrete population bulk.  This demo solves a two-atom bulk,
integrates its limiting densities, maps a spike through both estimators
and brackets the bias gap with the population mean, then prints the
worst-case edge-inflation curve showing classical PCA always spreads
the bulk at least as much as the product estimator.
"""
import argparse

import numpy as np

from spikedcov import rmt, spectra


def two_atom_walkthrough(c: float) -> None:
    bulk = spectra.make_spectrum(atoms=[(0.5, 0.4), (1.5, 0.6)])
    print(f"two-atom bulk (0.5 w.p. 0.4, 1.5 w.p. 0.6), c = {c}")
    lo, hi = rmt.ppca_support_edges(c, bulk)
    lo_p, hi_p = rmt.support_edges(c, bulk)
    print(f"  product law support  [{lo:.4f}, {hi:.4f}]")
    print(f"  classical law support [{lo_p:.4f}, {hi_p:.4f}]")
    # each CDF integrates its density over the support; just below the upper
    # edge it holds the zero mass plus the whole integral
    mass0 = rmt.ppca_mass_at_zero(c, bulk)
    mass = rmt.ppca_lsd_cdf(c, bulk, np.nextafter(hi, 0.0)) - mass0
    print(f"  product density integrates to {mass:.6f} "
          f"(expected {1.0 - mass0:.6f})")
    mass0 = rmt.mass_at_zero(c, bulk)
    mass = rmt.mp_cdf(c, bulk, np.nextafter(hi_p, 0.0)) - mass0
    print(f"  classical density integrates to {mass:.6f} "
          f"(expected {1.0 - mass0:.6f})")

    lam = 2.0 * rmt.ppca_threshold(c, bulk).threshold
    report = rmt.bias_report(c, bulk, lam)
    print(f"  spike {lam:.4f}: product limit {report.ppca:.4f}, "
          f"classical {report.pca:.4f}, gap {report.gap:.4f}")
    mean = bulk.bulk_mean
    print(f"  gap bracket from the bulk mean: "
          f"({0.5 * c * mean:.4f}, {c * mean:.4f})")
    print()


def edge_ratio_curve(c_max: float, step: float) -> None:
    grid = np.arange(0.0, c_max + 1e-12, step)
    values = np.array([rmt.rho(c) for c in grid])
    print("worst-case ratio of classical to product upper bulk edge")
    print(f"{'c':>6} {'ratio':>8}")
    for c in (0.0, 0.5, 1.0, 2.0, 4.0, c_max):
        print(f"{c:6.2f} {rmt.rho(c):8.5f}")
    print(f"minimum over [0, {c_max}]: {values.min():.12f} "
          "(never below 1: the product bulk is never wider)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--c", type=float, default=0.4, help="aspect ratio p/n")
    parser.add_argument("--c-max", type=float, default=10.0, help="curve endpoint")
    args = parser.parse_args()

    two_atom_walkthrough(args.c)
    edge_ratio_curve(args.c_max, 0.01)


if __name__ == "__main__":
    main()
