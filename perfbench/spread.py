"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --seconds 25 [--workload NAME ...]
                                [--traced] [--out perfbench/results/BENCH_x.json]

For every workload it runs ``run.py`` once per seed with tracing off and
reports, per end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  ``--traced`` adds
one traced run per workload (first seed) for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    seeds = seed_list(args.seeds)
    report = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in args.workload or list(workloads.WORKLOADS):
        runs = [run_once(name, s, args.seconds, 0) for s in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                metric: dict(
                    summarize([r["metrics"][metric]["value"] for r in runs]),
                    unit=runs[0]["metrics"][metric]["unit"],
                )
                for metric in runs[0]["metrics"]
            },
        }
        if args.traced:
            traced = run_once(name, seeds[0], args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            entry["per_layer_correct"] = traced["correct"]
        report["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            print(f"{name:13s} {metric:15s} median {s['median']:<12.6g} {s['unit']:6s}"
                  f" spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
