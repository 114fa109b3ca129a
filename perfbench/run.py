"""spikedcov benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload spectrum_tall --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the checkout.  BLAS threads are
fixed (default: the cores this process may use) before numpy is imported.

``--trace 0`` times ops back to back while one more op of the median
length so far still fits in ``--seconds``.  Before the first op and after
every op it runs a fixed reference probe (calib.py) that shows how fast the
shared machine runs at that moment.  It reports the end-to-end metrics:
``setup_s`` (wall time from the start of this script to the first op:
imports, config files, inputs), ``op_ref_s.p50`` (median op time in
reference seconds: each op's wall time scaled by REF_PROBE_S over the mean
of the probes on either side), ``ops_per_ref_s`` (checked ops per reference
second of op time), ``peak_rss_mb`` and ``ok_frac`` (ops that passed their
check over ops attempted).  The unscaled wall-time figures are in the info
line.

``--trace 1`` runs ops untraced for half of ``--seconds``, then installs the
per-layer wrappers (see tracing.py) and reruns the same op seeds for the
other half.  Every rerun must reproduce its untraced twin's output bytes.
It reports self seconds and counts per layer plus both op medians; their
difference is the tracing overhead.

Every op's output is checked (see workloads.py).  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it carries the machine block and diagnostics.  The process exits
nonzero without a result when the library source is missing.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# No op starts once the run would pass this wall time, so a run ends well
# within three minutes even if ops get much slower (each phase still runs
# at least one op).
WALL_LIMIT_S = 150.0


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--blas-threads",
        type=int,
        default=len(os.sched_getaffinity(0)),
        help="BLAS thread count (default: usable cores)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        parser.error("seed must be >= 0, seconds and blas threads positive")
    return args


ARGS = _parse_args()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(ARGS.blas_threads)

if not os.path.isfile(os.path.join(SRC, "spikedcov", "__init__.py")):
    print(f"spikedcov source not found under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, SRC)

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402
from spikedcov import cli, estimators, numkernel, rmt, simlab, spectra  # noqa: E402

import calib  # noqa: E402
import machine  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if ARGS.workload not in WORKLOADS:
    print(f"unknown workload {ARGS.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
    raise SystemExit(2)

LIB = types.SimpleNamespace(
    cli=cli, estimators=estimators, numkernel=numkernel, rmt=rmt, simlab=simlab, spectra=spectra
)


def _clear_caches() -> None:
    """Drop every memoized result in the library so a rerun is cold."""
    for module in vars(LIB).values():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _make_workload(workdir: str):
    os.makedirs(workdir)
    workload = WORKLOADS[ARGS.workload](LIB, workdir, ARGS.seed)
    workload.setup()
    return workload


class Phase:
    """Closed-loop ops, each between two reference probes, within a budget."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.probes: list[float] = []
        self.payloads: list[bytes | None] = []
        self.problems: list[tuple[int, str]] = []

    def run(self, workload, budget: float, call=None, twins=None) -> None:
        call = call or (lambda index, fn: fn())
        started = time.perf_counter()
        self.probes.append(calib.probe())
        index = 0
        # the next op starts only if an op of the median length so far still
        # ends within the budget, so a phase lasts about its budget, not more
        while not self.durations or (
            time.perf_counter() - started + statistics.median(self.durations) <= budget
            and time.perf_counter() - START + max(self.durations) < WALL_LIMIT_S
        ):
            if twins is not None:
                _clear_caches()
            t0 = time.perf_counter()
            try:
                outcome = call(index, lambda: workload.run(index))
            except Exception as exc:  # a failed op is counted, and the loop goes on
                outcome = None
                problems = [f"raised {type(exc).__name__}: {exc}"]
            self.durations.append(time.perf_counter() - t0)
            self.probes.append(calib.probe())
            if outcome is not None:
                try:
                    problems = workload.check(outcome)
                except Exception as exc:  # malformed output fails the op
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if twins is not None and index < len(twins) and twins[index] != outcome.payload:
                    problems.append("output bytes differ from the untraced run of this seed")
            self.payloads.append(outcome.payload if outcome is not None else None)
            self.problems += [(index, text) for text in problems]
            index += 1

    @property
    def ref_durations(self) -> list[float]:
        """Op times in reference seconds: scaled by the probes on either side."""
        return [
            d * calib.REF_PROBE_S / ((before + after) / 2.0)
            for d, before, after in zip(self.durations, self.probes, self.probes[1:])
        ]

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.problems})


def _latency(durations: list[float]) -> dict:
    """Median, the highest percentile with at least ten ops beyond it, count."""
    ordered = sorted(durations)
    n = len(ordered)
    out = {"ops": n, "p50_s": statistics.median(ordered)}
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = int(np.ceil(q / 100.0 * n))
        if n - rank >= 10:
            out[f"p{q:g}_s"] = ordered[rank - 1]
            break
    return out


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        workload = _make_workload(workdir)
        setup_s = time.perf_counter() - START
        phases = []
        tracer = None
        if ARGS.trace:
            untraced = Phase()
            untraced.run(workload, ARGS.seconds / 2.0)
            tracer = tracing.Tracer(vars(LIB))
            tracer.install()
            traced = Phase()
            traced.run(workload, ARGS.seconds / 2.0, tracer.run_op, untraced.payloads)
            tracer.uninstall()
            phases = [untraced, traced]
        else:
            timed = Phase()
            timed.run(workload, ARGS.seconds)
            phases = [timed]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(len(p.durations) for p in phases)
    failed = sum(p.failed for p in phases)
    info = {
        "workload": ARGS.workload,
        "seed": ARGS.seed,
        "seconds": ARGS.seconds,
        "trace": ARGS.trace,
        "machine": machine.describe(ARGS.blas_threads, ROOT),
        "latency": _latency(phases[0].durations),
        "op_durations_s": [round(d, 4) for d in phases[0].durations],
        "probes_s": [round(d, 4) for d in phases[0].probes],
        "failed_frac": failed / attempted,
        "problems": [f"op {i}: {text}" for p in phases for i, text in p.problems][:10],
    }
    if tracer is None:
        timed = phases[0]
        ok = len(timed.durations) - timed.failed
        info["ops_per_s"] = ok / sum(timed.durations)
        info["ref_latency"] = _latency(timed.ref_durations)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_ref_s": (ok / sum(timed.ref_durations), "1/s"),
            "op_ref_s.p50": (statistics.median(timed.ref_durations), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (ok / len(timed.durations), "frac"),
        }
    else:
        untraced, traced = phases
        p50_plain = statistics.median(untraced.durations)
        p50_traced = statistics.median(traced.durations)
        info["trace"] = {
            "overhead_s": p50_traced - p50_plain,
            "overhead_ref_s": statistics.median(traced.ref_durations)
            - statistics.median(untraced.ref_durations),
            "traced_latency": _latency(traced.durations),
            "identity_pairs": min(len(untraced.durations), len(traced.durations)),
            "shares": tracer.shares(),
        }
        units = dict(tracing.metric_names())
        metrics = {name: (value, units[name]) for name, value in tracer.metrics().items()}
        metrics["trace.op_s.p50"] = (p50_traced, "s")
        metrics["trace.untraced_op_s.p50"] = (p50_plain, "s")
    print(json.dumps({"info": info}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
