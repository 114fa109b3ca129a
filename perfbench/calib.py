"""Reference probe: fixed work that shows how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by a fifth or more over minutes; every op of a run then
slows together.  ``probe()`` times a fixed mix of the three kinds of work
the library's ops do: a pure-Python loop, scipy ``quad`` of a Python
integrand with square-root edges (the closed-form CDFs), and a LAPACK SVD
and eigendecomposition on the BLAS threads (the fits).  It calls no
spikedcov code, so a change to the library cannot move it.  ``run.py``
probes before the first op and after every op, and scales each op's wall
time by ``REF_PROBE_S`` over the mean of the two probes around it.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy import integrate

# Seconds the probe takes at the reference speed: a rounded median of probes
# on the 2-core host the benchmark was defined on.  It only sets the scale
# of the reference seconds that the op metrics are given in.
REF_PROBE_S = 0.3

_MATRIX = np.random.default_rng(12345).standard_normal((500, 500))


def _python_loop() -> float:
    total = 0.0
    for i in range(1, 600000):
        total += math.sqrt(i) / (1.0 + i % 7)
    return total


def _quad() -> float:
    return sum(
        integrate.quad(lambda x, a=a: math.sqrt(max(0.0, (x - a) * (4.0 - x))) / x, a, 4.0)[0]
        for a in np.linspace(0.05, 0.95, 400)
    )


def _linalg() -> float:
    gram = _MATRIX @ _MATRIX.T
    return float(np.linalg.svd(gram)[1][0] + np.linalg.eigh(gram)[0][-1])


def probe() -> float:
    """Seconds the fixed reference work takes now."""
    t0 = time.perf_counter()
    _python_loop()
    _quad()
    _linalg()
    return time.perf_counter() - t0
