"""Seeded closed-loop benchmark of tlemma, timed from outside the package.

Usage, from the repository root:

    python3 perfbench/run.py --workload engine-total --seed 1 --seconds 25 --trace 0

One client runs operations back to back; an operation is one (instance,
strategy) pair run the way ``tlemma enumerate -o`` runs it:
``Problem.from_text`` -> ``run_strategy`` (builtin oracle, 60 s budget) ->
``lemma_io.render_lemma_script``.  The loop runs whole passes over the
workload's corpus, each in an order drawn from ``--seed``, until another pass
would overrun ``--seconds``.  After the timed loop every operation's lemma
file is checked against the reference digests in ``reference.json``.

Operation times are scaled to a reference host speed, measured by the
calibration loop in ``calibrate.py`` that runs before every operation; the
raw wall-time figures go to the report next to the scaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
operation twice in a row, untraced and traced, and prints the per-layer
metrics of the traced runs plus the tracing overhead against the untraced.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
A full report (per-operation counters, digests, the tail percentile and its
sample count) goes to ``.perfbench_out/`` and, when tracing, the spans too.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import workloads
from calibrate import K_REF_S, loop_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

BUDGET_SECS = 60.0
SETUP_REPEATS = 7
# Percentile reported as op_s.tail: the highest of 50/75/90/95/99 that leaves
# at least ten operations above it in a run of 40 operations or more (three
# passes of 13 on a slow host is the least the seed code ran).
TAIL_PCT = 75.0
# Time the gate may spend running the four assertions on changed lemma files;
# a changed file left unchecked when it runs out counts as failed.
GATE_ALLOWANCE_S = 60.0

# Counters that must repeat exactly for every run of one operation.
COUNTERS = (
    "digest", "lemmas", "literals", "candidates", "theory_checks", "raw_checks",
    "blocking_clauses", "assignments", "partitions", "atoms", "clauses", "vars",
    "bytes",
)


def _tlemma_modules():
    return [m for m in sys.modules if m == "tlemma" or m.startswith("tlemma.")]


def set_up(name: str):
    """Import tlemma afresh and build the workload's corpus; (seconds, workload)."""
    start = time.perf_counter()
    for mod in _tlemma_modules():
        del sys.modules[mod]
    importlib.import_module("tlemma")
    importlib.import_module("tlemma.lemma_io")
    workload = workloads.WORKLOADS[name]()
    return time.perf_counter() - start, workload


@dataclass
class Record:
    op_id: str
    seconds: float
    counters: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    truncated: bool = False
    failed: bool = False
    index: int = 0  # position in the run; the op id of its spans
    traced: bool = False
    loop_s: float = 0.0  # calibration loop time just before the operation


class Runner:
    """Runs operations against the tlemma modules imported last."""

    def __init__(self, tracer=None):
        from tlemma.lemma_io import render_lemma_script
        from tlemma.oracle import OracleConfig, make_oracle
        from tlemma.problem import Problem
        from tlemma.strategies import StrategySpec, run_strategy

        self.Problem = Problem
        self.StrategySpec = StrategySpec
        self.run_strategy = run_strategy
        self.make_oracle = make_oracle
        self.OracleConfig = OracleConfig
        self.render = render_lemma_script
        self.tracer = tracer
        # Lemma sets kept for the gate, by (op id, digest).
        self.kept: Dict[tuple, tuple] = {}

    @contextmanager
    def span(self, name):
        tracer = self.tracer
        idx = tracer.open(name) if tracer is not None and tracer.active else None
        try:
            yield
        finally:
            if idx is not None:
                tracer.close(idx)

    def run(self, op, expected_digest: Optional[str]) -> Record:
        start = time.perf_counter()
        try:
            with self.span("op"):
                problem = self.Problem.from_text(op.text)
                spec = self.StrategySpec.from_name(
                    op.strategy, workers=op.workers, budget_secs=BUDGET_SECS
                )
                oracle = self.make_oracle(problem.table, self.OracleConfig())
                try:
                    with self.span("strategies.run"):
                        result = self.run_strategy(problem, spec, oracle=oracle)
                finally:
                    oracle.close()
                with self.span("lemma_io.render"):
                    text = self.render(result.lemma_set.lemmas, problem.table)
        except Exception as exc:  # a failed operation is data; the loop goes on
            seconds = time.perf_counter() - start
            return Record(op.op_id, seconds, error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != expected_digest and (op.op_id, digest) not in self.kept:
            self.kept[(op.op_id, digest)] = (problem, list(result.lemma_set.lemmas))
        c = result.counters
        counters = dict(
            digest=digest,
            lemmas=len(result.lemma_set),
            literals=sum(len(l) for l in result.lemma_set.lemmas),
            candidates=c.n_candidates,
            theory_checks=c.n_theory_checks,
            raw_checks=oracle.n_raw_checks,
            blocking_clauses=c.n_blocking_clauses,
            assignments=c.n_assignments,
            partitions=c.n_partitions,
            atoms=len(problem.table),
            clauses=len(problem.cnf.clauses),
            vars=problem.cnf.n_vars,
            bytes=len(text.encode("utf-8")),
        )
        return Record(op.op_id, seconds, counters, truncated=result.truncated)


def check_lemmas(problem, lemmas) -> bool:
    """The four assertions of ``verifier.check_lemma_set``."""
    from tlemma.oracle import OracleConfig, make_oracle
    from tlemma.verifier import CapExceeded, check_lemma_set

    oracle = make_oracle(problem.table, OracleConfig())
    try:
        return all(check_lemma_set(problem.term, problem.table, oracle, lemmas)[:4])
    except CapExceeded:
        return False
    finally:
        oracle.close()


def gate(records: List[Record], runner: Runner) -> dict:
    """Mark failed operations; returns what changed and why.

    An operation fails when it raised, was truncated, gave counters that
    differ between passes, or rendered a lemma file whose digest differs from
    the reference and fails (or was not reached by) the four assertions.
    """
    seen: Dict[str, set] = {}
    for r in records:
        if r.error is None:
            seen.setdefault(r.op_id, set()).add(tuple(r.counters[k] for k in COUNTERS))
    nondeterministic = sorted(op for op, values in seen.items() if len(values) > 1)
    verdicts: Dict[tuple, bool] = {}
    spent = 0.0
    for (op_id, digest), (problem, lemmas) in sorted(runner.kept.items()):
        if spent > GATE_ALLOWANCE_S:
            verdicts[(op_id, digest)] = False
            continue
        start = time.perf_counter()
        verdicts[(op_id, digest)] = check_lemmas(problem, lemmas)
        spent += time.perf_counter() - start
    failed = 0
    for r in records:
        bad = (
            r.error is not None
            or r.truncated
            or r.op_id in nondeterministic
            or not verdicts.get((r.op_id, r.counters["digest"]), True)
        )
        r.failed = bad
        failed += bad
    return {
        "failed": failed,
        "nondeterministic": nondeterministic,
        "changed": [
            {"op": op, "digest": d, "passes_assertions": ok}
            for (op, d), ok in sorted(verdicts.items())
        ],
        "gate_s": spent,
    }


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile, as numpy's default method."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(records: List[Record]) -> List[float]:
    """Wall times scaled to the reference host speed (see calibrate.py).

    The host speed at an operation is estimated from the median calibration
    loop time over it and its four nearest neighbours in run order.
    """
    loops = [r.loop_s for r in records]
    return [
        r.seconds * K_REF_S / statistics.median(loops[max(0, i - 2):i + 3])
        for i, r in enumerate(records)
    ]


def end_to_end(passes, times, setup_times, peak_mb) -> Dict[str, dict]:
    """The end-to-end metrics over ``times``, one per operation of ``passes``."""
    records = [r for p in passes for r in p]
    ok = sum(not r.failed for r in records)
    first = [r for r in passes[0] if r.error is None]
    return {
        "ops_per_s": metric(ok / sum(times), "1/s"),
        "op_s.p50": metric(statistics.median(times), "s"),
        "op_s.tail": metric(percentile(times, TAIL_PCT), "s"),
        "ok_ratio": metric(ok / len(records), "ratio"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "lemmas": metric(sum(r.counters["lemmas"] for r in first), "count"),
        "lemma_literals": metric(sum(r.counters["literals"] for r in first), "count"),
    }


def per_layer(tracer, passes) -> Dict[str, dict]:
    from tracing import layer_totals

    layers = [layer_totals(tracer.spans, {r.index for r in p if r.traced}) for p in passes]

    def med(key):
        return statistics.median(t[key] for t in layers)

    def share(key):
        return statistics.median(t[key] / t["op_s"] for t in layers)

    def ratio(num, den):
        return num / den if den else 0.0

    t0 = layers[0]
    recs = [r for r in passes[0] if r.traced and r.error is None]

    def total(counter):
        return sum(r.counters[counter] for r in recs)

    records = [r for p in passes for r in p]
    overhead = sum(r.seconds for r in records if r.traced) / sum(
        r.seconds for r in records if not r.traced
    )
    out = {
        "parser.parse_s": metric(med("parser.parse_s"), "s"),
        "parser.atoms": metric(total("atoms"), "count"),
        "cnf.encode_s": metric(med("cnf.encode_s"), "s"),
        "cnf.clauses": metric(total("clauses"), "count"),
        "cnf.vars": metric(total("vars"), "count"),
        "enumeration.self_s": metric(med("enumeration.self_s"), "s"),
        "enumeration.total_share": metric(share("enumeration.total_s"), "ratio"),
        "enumeration.partial_share": metric(share("enumeration.partial_s"), "ratio"),
        "enumeration.calls": metric(int(t0["enumeration.calls"]), "count"),
        "enumeration.candidates": metric(total("candidates"), "count"),
        "enumeration.blocking_clauses": metric(total("blocking_clauses"), "count"),
        "enumeration.lemma_yield": metric(ratio(total("lemmas"), total("candidates")), "ratio"),
        "oracle.check_s": metric(med("oracle.check_s"), "s"),
        "oracle.checks": metric(int(t0["oracle.checks"]), "count"),
        "oracle.minimize_core_s": metric(med("oracle.minimize_core_s"), "s"),
        "oracle.raw_checks": metric(total("raw_checks"), "count"),
        "oracle.raw_per_check": metric(ratio(total("raw_checks"), t0["oracle.checks"]), "ratio"),
        "oracle.unsat_ratio": metric(ratio(t0["oracle.unsat"], t0["oracle.checks"]), "ratio"),
        "oracle.timeouts": metric(int(t0["oracle.timeouts"]), "count"),
        "strategies.run_s": metric(med("strategies.run_s"), "s"),
        "strategies.dnc_phase1_share": metric(share("strategies.dnc_phase1_s"), "ratio"),
        "strategies.dnc_phase2_share": metric(share("strategies.dnc_phase2_s"), "ratio"),
        "strategies.cubes": metric(int(t0["strategies.cubes"]), "count"),
        "strategies.pool_busy_ratio": metric(
            statistics.median(
                ratio(t["strategies.pool_cpu_s"], t["strategies.pool_capacity_s"]) for t in layers
            ),
            "ratio",
        ),
        "strategies.components": metric(total("partitions"), "count"),
        "strategies.passes": metric(int(t0["strategies.passes"]), "count"),
        "strategies.dedup_s": metric(med("strategies.dedup_s"), "s"),
        "lemma_io.render_s": metric(med("lemma_io.render_s"), "s"),
        "lemma_io.bytes": metric(total("bytes"), "count"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    }
    # Absolute seconds of the layers that run on one workload only; zero
    # elsewhere, so they go to the report rather than the metric line.
    absolute = {
        key: med(key)
        for key in (
            "enumeration.total_s", "enumeration.partial_s",
            "strategies.dnc_phase1_s", "strategies.dnc_phase2_s", "op_s",
        )
    }
    return out, absolute


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "tlemma" / "__init__.py").is_file():
        print(f"error: tlemma sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args = parse_args(argv)

    setup_times, setup_loops = [], []
    for _ in range(SETUP_REPEATS):
        setup_loops.append(loop_seconds())
        seconds, workload = set_up(args.workload)
        setup_times.append(seconds)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(
        args.workload, {}
    )
    refs = reference.get("ops", {})

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(tracer)
    rng = random.Random(args.seed)
    ops = list(workload.ops)
    # With tracing, every operation runs twice in a row, untraced and traced,
    # the order alternating, so the overhead is measured on paired runs.
    modes = ((False, True), (True, False)) if args.trace else ((False,),)
    passes: List[List[Record]] = []
    records: List[Record] = []
    start = time.perf_counter()
    while True:
        done = len(records)
        for k, op in enumerate(rng.sample(ops, len(ops))):
            for traced in modes[k % len(modes)]:
                if tracer is not None:
                    tracer.enable(traced, len(records))
                loop_s = loop_seconds()
                record = runner.run(op, refs.get(op.op_id, {}).get("digest"))
                record.index, record.traced, record.loop_s = len(records), traced, loop_s
                records.append(record)
        passes.append(records[done:])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    if tracer is not None:
        tracer.enable(False, None)

    peak_mb = peak_rss_mb()  # before the gate, whose verifier can be large
    gate_report = gate(records, runner)
    seeds_ok = workload.generator_seeds == reference.get("generator_seeds")
    correct = gate_report["failed"] == 0 and seeds_ok
    untraced = [r for r in records if not r.traced]
    raw = {}
    if args.trace:
        metrics, absolute = per_layer(tracer, passes)
    else:
        setup_scale = K_REF_S / statistics.median(setup_loops)
        scaled_setup = [s * setup_scale for s in setup_times]
        metrics = end_to_end(passes, scaled(records), scaled_setup, peak_mb)
        raw = end_to_end(passes, [r.seconds for r in records], setup_times, peak_mb)
        absolute = {}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "generator_seeds": workload.generator_seeds,
        "generator_seeds_match_reference": seeds_ok,
        "passes": [
            {
                "ops": len(p),
                "op_s": sum(r.seconds for r in p if not r.traced),
                "traced_op_s": sum(r.seconds for r in p if r.traced),
            }
            for p in passes
        ],
        "tail": {
            "percentile": TAIL_PCT,
            "samples": len(untraced),
            "beyond": int(len(untraced) * (1 - TAIL_PCT / 100)),
        },
        "setup_s": setup_times,
        "setup_loop_s": setup_loops,
        "raw_metrics": raw,
        "gate": gate_report,
        "metrics": metrics,
        "layer_seconds": absolute,
        "ops": {
            r.op_id: {"counters": r.counters, "error": r.error, "truncated": r.truncated}
            for r in records
        },
        "op_seconds": [[r.op_id, r.traced, r.seconds, r.loop_s] for r in records],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}-spans.jsonl")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not seeds_ok:
        print("generator drift: selected seeds differ from reference.json", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": gate_report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
