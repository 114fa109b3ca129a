"""Run every workload untraced, traced, and traced with one BLAS thread.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py --seconds 20 --seed 0 --out perfbench/baseline.json

Prints every end-to-end metric per workload, then every per-layer metric
with the module shares of traced op time, the tracing overhead, and the
single-thread self times of the estimators and numkernel layers.  Writes
all results, with each run's machine block, to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spectrum_tall", "spectrum_wide", "robustness_heavy", "law_generic")
# (label, extra run.py arguments)
MODES = (
    ("untraced", ["--trace", "0"]),
    ("traced", ["--trace", "1"]),
    ("traced_blas1", ["--trace", "1", "--blas-threads", "1"]),
)


def _run(workload: str, seed: int, seconds: float, extra: list[str]) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), *extra]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    info_line, result_line = done.stdout.strip().splitlines()[-2:]
    return {"info": json.loads(info_line)["info"], "result": json.loads(result_line)}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", help="JSON file for every result")
    args = parser.parse_args()

    runs = {w: {} for w in WORKLOADS}
    for workload in WORKLOADS:
        for label, extra in MODES:
            runs[workload][label] = _run(workload, args.seed, args.seconds, extra)
            result = runs[workload][label]["result"]
            print(
                f"# {workload} {label}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                file=sys.stderr,
            )

    print("== end to end (untraced)")
    for workload in WORKLOADS:
        run = runs[workload]["untraced"]
        print(f"{workload}: failed_frac={_fmt(run['info']['failed_frac'])} latency={run['info']['latency']}")
        for name, metric in run["result"]["metrics"].items():
            print(f"  {name} = {_fmt(metric['value'])} {metric['unit']}")

    print("== per layer (traced)")
    for workload in WORKLOADS:
        traced = runs[workload]["traced"]
        blas1 = runs[workload]["traced_blas1"]["result"]["metrics"]
        trace = traced["info"]["trace"]
        print(f"{workload}: tracing overhead {_fmt(trace['overhead_s'])} s/op")
        print("  shares of traced op time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in trace["shares"].items()
        ))
        for name, metric in traced["result"]["metrics"].items():
            line = f"  {name} = {_fmt(metric['value'])} {metric['unit']}"
            if name.startswith(("estimators.", "numkernel.")) and name.endswith(".s"):
                line += f"  (1 BLAS thread: {_fmt(blas1[name]['value'])})"
            print(line)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "runs": runs}, fh, indent=1)
            fh.write("\n")
    ok = all(r["result"]["correct"] for modes in runs.values() for r in modes.values())
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
