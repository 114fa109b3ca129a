"""Per-layer tracing for the benchmark: spans and counts at module boundaries.

Each traced function is replaced, for the duration of a traced phase, by a
wrapper installed on the module object where its caller looks it up (for
example ``simlab.ks_distance``, which ``run_spectrum_experiment`` reads as a
module global).  No library file changes.  While an op is open the wrapper
records a span (name, start, end, parent span, op id) and updates its
counters; outside an op (output checks, set-up) it passes straight through.

Spans are kept in memory and reduced once at the end: a layer's self time is
its span's duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np


def _nbytes(fit) -> int:
    """Bytes held by the arrays of a returned fit dataclass."""
    total = 0
    for value in vars(fit).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


def _points(t) -> int:
    return int(np.size(t))


# (module, attribute, layer name, counters).  The module is the one whose
# global the caller reads.  Counters are (suffix, per, fn(args, result)):
# "op" counters report their total per traced op, "call" counters their
# mean per call.  Every layer also reports self seconds per op as "<name>.s".
LAYERS = (
    ("cli", "main", "cli.main", ()),
    ("simlab", "parse_config", "simlab.parse_config", ()),
    # run_spectrum_experiment reaches the generator through gen_data and
    # run_robustness_experiment directly; both meet in _gen_data_full
    ("simlab", "_gen_data_full", "simlab.gen_data", ()),
    ("simlab", "run_spectrum_experiment", "simlab.run_spectrum_experiment", ()),
    ("simlab", "run_robustness_experiment", "simlab.run_robustness_experiment", ()),
    (
        "simlab",
        "write_csv",
        "simlab.write_csv",
        (
            ("calls", "op", lambda args, out: 1),
            ("bytes", "op", lambda args, out: os.path.getsize(out)),
        ),
    ),
    ("simlab", "ppca_fit", "estimators.ppca_fit", (("bytes_out", "call", lambda a, out: _nbytes(out)),)),
    ("simlab", "pca_fit", "estimators.pca_fit", (("bytes_out", "call", lambda a, out: _nbytes(out)),)),
    ("estimators", "sample_cov", "estimators.sample_cov", ()),
    ("simlab", "similarity_xi", "estimators.similarity_xi", ()),
    ("simlab", "estimate_rank", "estimators.estimate_rank", ()),
    ("estimators", "svd_full", "numkernel.svd_full", (("dim", "call", lambda a, out: np.shape(a[0])[0]),)),
    ("estimators", "sym_eig", "numkernel.sym_eig", (("dim", "call", lambda a, out: np.shape(a[0])[0]),)),
    ("simlab", "haar_orthogonal", "numkernel.haar_orthogonal", ()),
    ("simlab", "ks_distance", "spectra.ks_distance", (("points", "call", lambda a, out: _points(a[2])),)),
    ("spectra", "esd_cdf", "spectra.esd_cdf", ()),
    ("rmt", "ssm_g_cdf", "rmt.ssm_g_cdf", (("points", "call", lambda a, out: _points(a[1])),)),
    ("rmt", "ssm_f_cdf", "rmt.ssm_f_cdf", (("points", "call", lambda a, out: _points(a[1])),)),
    ("rmt", "ssm_g_pdf", "rmt.ssm_g_pdf", (("calls", "op", lambda a, out: 1),)),
    ("rmt", "ssm_f_pdf", "rmt.ssm_f_pdf", (("calls", "op", lambda a, out: 1),)),
    ("rmt", "ppca_lsd_cdf", "rmt.ppca_lsd_cdf", ()),
    ("rmt", "ppca_lsd_pdf", "rmt.ppca_lsd_pdf", ()),
    ("rmt", "mp_density", "rmt.mp_density", ()),
    ("rmt", "ppca_support_edges", "rmt.ppca_support_edges", ()),
    ("rmt", "ppca_threshold", "rmt.ppca_threshold", ()),
    ("rmt", "pca_threshold", "rmt.pca_threshold", ()),
    ("rmt", "ppca_limit", "rmt.ppca_limit", ()),
    ("rmt", "pca_limit", "rmt.pca_limit", ()),
)

# Closed-form densities called from inside a closed-form CDF are the
# integrand of adaptive quadrature: thousands of scalar calls per op.  They
# are counted but get no span, so tracing does not swamp the CDF's time.
_COUNT_ONLY_UNDER = ("rmt.ssm_g_cdf", "rmt.ssm_f_cdf")

ROOT = "op"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric this module reports, as (name, unit)."""
    out = []
    for _, _, name, counters in LAYERS:
        out.append((f"{name}.s", "s/op"))
        for suffix, per, _ in counters:
            kind = "B" if "bytes" in suffix else "count"
            out.append((f"{name}.{suffix}", f"{kind}/{per}"))
    return out


class Tracer:
    """Span and counter recorder for one traced phase."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules
        self._installed: list[tuple[object, str, object]] = []
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self._op = None
        self.calls: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        for module_name, attr, name, counters in LAYERS:
            owner = self._modules[module_name]
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, counters))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, counters):
        count_only = name in ("rmt.ssm_g_pdf", "rmt.ssm_f_pdf")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if count_only and self.spans[self._stack[-1]][0] in _COUNT_ONLY_UNDER:
                out = fn(*args, **kwargs)
            else:
                index = self._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._close(index)
            self.calls[name] += 1
            for suffix, _, measure in counters:
                self.totals[f"{name}.{suffix}"] += measure(args, out)
            return out

        return wrapper

    def run_op(self, op_id: int, fn):
        """Run fn() as one traced op under a root span."""
        self._op = op_id
        index = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(index)
            self._op = None

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name, over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def op_durations(self) -> list[float]:
        return [end - start for name, start, end, _, _ in self.spans if name == ROOT]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: self seconds and op counters per traced op,
        call counters per call (0 where the layer never ran)."""
        ops = max(1, len(self.op_durations()))
        selfs = self.self_times()
        out = {}
        for _, _, name, counters in LAYERS:
            out[f"{name}.s"] = selfs.get(name, 0.0) / ops
            for suffix, per, _ in counters:
                key = f"{name}.{suffix}"
                total = self.totals.get(key, 0.0)
                out[key] = total / ops if per == "op" else total / max(1, self.calls[name])
        return out

    def shares(self) -> dict[str, float]:
        """Self time of each module, and of the benchmark glue around the
        library calls, as a share of traced op time."""
        total = sum(self.op_durations()) or 1.0
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_times().items():
            key = "unattributed" if name == ROOT else name.split(".", 1)[0]
            out[key] += seconds / total
        return dict(sorted(out.items()))
