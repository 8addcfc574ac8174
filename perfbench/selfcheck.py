"""Self-check: selection rule, determinism of counters and digests.

Usage, from the repository root:

    python3 perfbench/selfcheck.py [--workload NAME ...]

1. The re-implemented criterion-5 selector picks the generator seeds that the
   acceptance suite's criterion-5 rule picks (listed below).
2. Per workload, two untraced runs and one traced run of one seed (a single
   pass each, two for the traced run) must all pass the gate and give every
   operation identical counters and lemma digests: timing must not change a
   single lemma byte.
Exits 1 on the first disagreement.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seeds criterion 5 selects on the seed code (tests/test_acceptance.py).
CRITERION_5_SEEDS = [2, 5, 6, 7, 8, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20, 21, 22, 24, 25, 26]
SEED = 4242


def report_of(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
        "--seconds", "0.001", "--trace", str(trace),
    ]
    subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True)
    path = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)

    picked = [s for s, _ in workloads.select_medium(20, **workloads.CRITERION_5)]
    if picked != CRITERION_5_SEEDS:
        print(f"criterion-5 selector drifted: {picked}")
        return 1
    print("criterion-5 selector: ok")
    for name in args.workload or list(workloads.WORKLOADS):
        runs = [report_of(name, 0), report_of(name, 0), report_of(name, 1)]
        counters = [{op: v["counters"] for op, v in r["ops"].items()} for r in runs]
        if not all(r["correct"] for r in runs):
            print(f"{name}: a run failed the gate")
            return 1
        if counters[0] != counters[1] or counters[0] != counters[2]:
            print(f"{name}: counters or digests differ between runs")
            return 1
        print(f"{name}: {len(counters[0])} operations, counters and digests repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
