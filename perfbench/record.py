"""Record the reference lemma digests that ``run.py`` gates every operation on.

Usage, from the repository root:

    python3 perfbench/record.py [--workload NAME ...]

Runs every operation of the named workloads (default: all) once, checks its
lemma set with the four assertions of ``verifier.check_lemma_set``, and
writes its digest, lemma count and literal count to ``reference.json``.  Any
operation that fails an assertion aborts the recording, so a digest is only
ever recorded for a lemma set that passed all four.  Takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
import workloads


def record(name: str) -> dict:
    _, workload = run.set_up(name)
    runner = run.Runner()
    ops = {}
    for op in workload.ops:
        r = runner.run(op, expected_digest=None)
        if r.error or r.truncated:
            raise SystemExit(f"{op.op_id}: {r.error or 'truncated'}")
        problem, lemmas = runner.kept[(op.op_id, r.counters["digest"])]
        start = time.perf_counter()
        if not run.check_lemmas(problem, lemmas):
            raise SystemExit(f"{op.op_id}: lemma set fails check_lemma_set")
        print(f"{op.op_id}: {r.counters['lemmas']} lemmas, verified in "
              f"{time.perf_counter() - start:.1f} s", flush=True)
        ops[op.op_id] = {k: r.counters[k] for k in ("digest", "lemmas", "literals")}
    return {"generator_seeds": workload.generator_seeds, "ops": ops}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    data = {"workloads": {}}
    if run.REFERENCE.exists():
        data = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for name in args.workload or sorted(workloads.WORKLOADS):
        data["workloads"][name] = record(name)
        run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
