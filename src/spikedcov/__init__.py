"""High-dimensional spiked-covariance analysis: product PCA vs classical PCA.

Modules:

* ``spectra``: population spectra, empirical spectral distributions, KS
  distance, and the text format for spectrum files.
* ``numkernel``: reproducible RNG streams and the deterministic
  linear-algebra conventions (eigen order, SVD signs, PSD square roots).
* ``rmt``: the limiting-law engine: Stieltjes-transform solver, densities
  and CDFs, phase-transition thresholds, spiked-eigenvalue limits, closed
  forms for the flat-bulk model, bias reports, and the edge-ratio curve.
* ``estimators``: PCA and product-PCA fits, eigenvalue debiasing, rank
  estimation, and subspace similarity.
* ``robustness``: exact population algebra for outlier contamination.
* ``simlab``: deterministic Monte Carlo experiment runners.
* ``cli``: the ``spikedcov`` command-line entry point.
"""
from . import estimators, numkernel, rmt, robustness, simlab, spectra
from .estimators import (
    PCAFit,
    PPCAFit,
    debias_pca,
    debias_ppca,
    estimate_rank,
    fit_values,
    pca_fit,
    ppca_fit,
    sample_cov,
    similarity_xi,
)
from .numkernel import RngStream
from .rmt import (
    SpikedLimit,
    SsmConstants,
    SsmParams,
    StieltjesEval,
    Threshold,
    bias_report,
    mp_cdf,
    mp_density,
    pca_limit,
    pca_threshold,
    ppca_limit,
    ppca_lsd_cdf,
    ppca_lsd_pdf,
    ppca_threshold,
    psi,
    rho,
    ssm_closed_forms,
    stieltjes,
)
from .robustness import PerturbationScenario, PerturbedSpectrum
from .simlab import ExperimentConfig, ExperimentReport, gen_data, parse_config
from .spectra import PopulationSpectrum, esd_cdf, ks_distance, make_spectrum

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "spectra",
    "numkernel",
    "rmt",
    "estimators",
    "robustness",
    "simlab",
    "PopulationSpectrum",
    "make_spectrum",
    "esd_cdf",
    "ks_distance",
    "RngStream",
    "StieltjesEval",
    "SpikedLimit",
    "Threshold",
    "SsmParams",
    "SsmConstants",
    "stieltjes",
    "mp_density",
    "mp_cdf",
    "psi",
    "pca_threshold",
    "ppca_threshold",
    "pca_limit",
    "ppca_limit",
    "ppca_lsd_cdf",
    "ppca_lsd_pdf",
    "ssm_closed_forms",
    "bias_report",
    "rho",
    "PCAFit",
    "PPCAFit",
    "sample_cov",
    "pca_fit",
    "ppca_fit",
    "fit_values",
    "debias_pca",
    "debias_ppca",
    "estimate_rank",
    "similarity_xi",
    "PerturbationScenario",
    "PerturbedSpectrum",
    "ExperimentConfig",
    "ExperimentReport",
    "parse_config",
    "gen_data",
]
