"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The corpus sizes and
tolerances are fixed here; the random corpora are fully seeded so every run
sees the same instances.
"""

import os
import shlex
import sys
import time

import pytest

from helpers import L
from tlemma.atoms import Literal
from tlemma.generator import clausal_instance, product_instance, random_instance
from tlemma.lemma_io import render_lemma_script
from tlemma.oracle import BuiltinOracle, OracleConfig, make_oracle
from tlemma.problem import Problem
from tlemma.strategies import (
    RunCounters,
    StrategySpec,
    enumerate_baseline,
    run_strategy,
)
from tlemma.verifier import check_lemma_set, classify, rules_out, truth_table_bits

STRATEGIES = ("baseline", "dnc", "dnc-proj", "dnc-proj-part")
DEPTHS = (3, 4, 5)
PER_DEPTH = 100


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})", flush=True)


def corpus_texts():
    out = []
    for depth in DEPTHS:
        for k in range(PER_DEPTH):
            out.append(random_instance(depth, 5, 5, seed=depth * 1000 + k, max_atoms=12))
    return out


def run_all_strategies(text, workers=1):
    """One instance through all four strategies with a shared oracle."""
    problem = Problem.from_text(text)
    oracle = BuiltinOracle(problem.table)
    cls = classify(problem.term, problem.table, oracle)
    results = {}
    for name in STRATEGIES:
        spec = StrategySpec.from_name(name, workers=workers, budget_secs=120.0)
        results[name] = run_strategy(problem, spec, oracle=oracle)
    return problem, oracle, cls, results


@pytest.fixture(scope="module")
def completeness_runs():
    runs = []
    for text in corpus_texts():
        runs.append((text,) + run_all_strategies(text))
    return runs


def test_criterion_1_worked_example_exactness():
    p = Problem.from_text(
        "(set-logic QF_LRA)(declare-const x Real)(assert (or (= x 0) (= x 1)))"
    )
    start = time.monotonic()
    res = run_strategy(p, StrategySpec())
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert [l.literals for l in res.lemma_set.lemmas] == [(L(0, False), L(1, False))]

    phi1 = Problem.from_text("(declare-const x Real)(assert (or (<= x 0) (= x 1)))")
    cls1 = classify(phi1.term, phi1.table, BuiltinOracle(phi1.table))
    expected_ctta = {
        frozenset({L(0, True), L(1, False)}),
        frozenset({L(0, False), L(1, True)}),
    }
    assert {frozenset(a.literals) for a in cls1.ctta} == expected_ctta
    assert [frozenset(a.literals) for a in cls1.itta] == [
        frozenset({L(0, True), L(1, True)})
    ]

    phi2 = Problem.from_text(
        "(declare-const x Real)(assert (= (not (<= x 0)) (= x 1)))"
    )
    cls2 = classify(phi2.term, phi2.table, BuiltinOracle(phi2.table))
    assert {frozenset(a.literals) for a in cls2.ctta} == expected_ctta
    assert cls2.itta == []
    report("criterion-1", f"exact lemma and classification, {elapsed:.3f}s")


def test_criterion_2_completeness_suite(completeness_runs):
    checked = 0
    for text, problem, oracle, cls, results in completeness_runs:
        for name, res in results.items():
            if res.truncated:
                continue
            ok = check_lemma_set(
                problem.term, problem.table, oracle, res.lemma_set, classification=cls
            )
            assert all(ok[:4]), (text, name, ok[:4])
            checked += 1
    assert checked == len(DEPTHS) * PER_DEPTH * len(STRATEGIES)
    report("criterion-2", f"{checked} strategy runs, all four assertions hold")


def test_criterion_3_projection_evidence(completeness_runs):
    eligible = strict = 0
    for text, problem, oracle, cls, _ in completeness_runs:
        plain, proj = RunCounters(), RunCounters()
        ls_plain = enumerate_baseline(
            problem.abstract, problem.table, oracle, cnf=problem.cnf, counters=plain
        )
        ls_proj = enumerate_baseline(
            problem.abstract,
            problem.table,
            oracle,
            proj=problem.table.theory_indices(),
            cnf=problem.cnf,
            counters=proj,
        )
        assert rules_out(ls_proj, cls.itta), text
        if problem.table.boolean_indices():
            eligible += 1
            assert proj.n_candidates <= plain.n_candidates, text
            if proj.n_candidates < plain.n_candidates:
                strict += 1
    assert eligible > 0
    assert strict >= eligible / 2, (strict, eligible)
    report(
        "criterion-3",
        f"rules-out 100%; candidates never higher on {eligible} instances, "
        f"strictly lower on {strict} ({100 * strict // eligible}%)",
    )


def test_criterion_4_partitioning_evidence():
    strict = 0
    for seed in range(50):
        p = Problem.from_text(product_instance(seed))
        oracle = BuiltinOracle(p.table)
        cls = classify(p.term, p.table, oracle)
        proj_res = run_strategy(
            p, StrategySpec.from_name("baseline-proj"), oracle=oracle
        )
        part_res = run_strategy(
            p, StrategySpec.from_name("baseline-proj-part"), oracle=oracle
        )
        assert rules_out(part_res.lemma_set, cls.itta), seed
        assert (
            part_res.counters.n_theory_checks < proj_res.counters.n_theory_checks
        ), seed
        strict += 1
    assert strict == 50
    report("criterion-4", "rules-out 100%, strictly fewer theory checks on 50/50")


def _select_medium_instances(count=20):
    chosen = []
    seed = 0
    while len(chosen) < count and seed < 500:
        text = clausal_instance(seed, n_bool=12, n_real=3, n_theory=6, n_clauses=20)
        problem = Problem.from_text(text)
        n = len(problem.table)
        if 14 <= n <= 18:
            models = bin(truth_table_bits(problem.abstract, n)).count("1")
            if 8000 <= models <= 20000:
                chosen.append(problem)
        seed += 1
    return chosen


def _timed_dnc(problem, workers):
    best = None
    result = None
    for _ in range(2):  # best-of-two to absorb scheduler noise
        start = time.monotonic()
        res = run_strategy(problem, StrategySpec.from_name("dnc", workers=workers))
        elapsed = time.monotonic() - start
        if best is None or elapsed < best:
            best, result = elapsed, res
    return best, result


def test_criterion_5_parallel_sanity():
    instances = _select_medium_instances()
    assert len(instances) == 20
    within = 0
    ratios = []
    for problem in instances:
        w1, res1 = _timed_dnc(problem, 1)
        w4, res4 = _timed_dnc(problem, 4)
        oracle = BuiltinOracle(problem.table)
        cls = classify(problem.term, problem.table, oracle)
        assert rules_out(res1.lemma_set, cls.itta)
        assert rules_out(res4.lemma_set, cls.itta)
        ratio = w4 / w1
        ratios.append(round(ratio, 2))
        if ratio <= 1.10:
            within += 1
    assert within >= 16, (within, ratios)
    report(
        "criterion-5",
        f"4-worker wall within tolerance on {within}/20 (ratios {ratios})",
    )


def test_criterion_6_lemma_count_comparability(completeness_runs):
    comparable = 0
    violations = []
    for text, problem, oracle, cls, results in completeness_runs:
        counts = {name: len(res.lemma_set) for name, res in results.items()}
        values = sorted(counts.values())
        lo, hi = values[0], values[-1]
        if lo == hi == 0 or (lo > 0 and hi <= 3 * lo):
            comparable += 1
        else:
            violations.append((text, counts))
    total = len(completeness_runs)
    for text, counts in violations:
        print(f"\ncriterion-6 spread beyond 3x: {counts}\n  instance: {text!r}")
        _, _, _, _, results = next(
            r for r in completeness_runs if r[0] == text
        )
        for name, res in results.items():
            for lemma, prov in zip(res.lemma_set.lemmas, res.lemma_set.provenance):
                print(f"  [{name}] {lemma.literals} from {prov}")
    assert comparable >= 0.9 * total, (comparable, total)
    report(
        "criterion-6",
        f"{comparable}/{total} instances within 3x across strategies, "
        f"{len(violations)} reported",
    )


def test_criterion_7_oracle_cross_validation():
    command = os.environ.get("TLEMMA_ORACLE_CMD")
    if not command:
        command = f"{shlex.quote(sys.executable)} -m tlemma.ref_solver"
    p = Problem.from_text(
        "(declare-const x Real)(declare-const y Real)(declare-const z Real)"
        "(assert (or (<= (+ x y) 2) (< (- x z) 0) (= x 1) (<= y 0)"
        " (= (+ x (* 3 y)) 0) (< (+ y z) 4) (= z 2) (<= (- 0 z) 1)))"
    )
    builtin = BuiltinOracle(p.table, OracleConfig(minimize_cores=False))
    external = make_oracle(
        p.table,
        OracleConfig(
            backend="external",
            command=command,
            minimize_cores=False,
            timeout_secs=60,
        ),
    )
    import random

    rng = random.Random(2024)
    theory = p.table.theory_indices()
    disagreements = 0
    try:
        for _ in range(500):
            k = rng.randint(1, 6)
            idx = rng.sample(theory, k)
            lits = [Literal(i, rng.random() < 0.5) for i in idx]
            if builtin.check(lits).satisfiable != external.check(lits).satisfiable:
                disagreements += 1
    finally:
        external.close()
    assert disagreements == 0
    report("criterion-7", f"500 conjunctions, 0 disagreements via: {command}")


def test_criterion_8_determinism(completeness_runs):
    mismatches = []
    for text, problem, oracle, cls, results in completeness_runs:
        rerun_problem, _, _, rerun_results = run_all_strategies(text, workers=1)
        for name in STRATEGIES:
            first = render_lemma_script(
                results[name].lemma_set.lemmas, problem.table
            ).encode()
            second = render_lemma_script(
                rerun_results[name].lemma_set.lemmas, rerun_problem.table
            ).encode()
            if first != second:
                mismatches.append((text, name))
    assert not mismatches, mismatches[:5]
    report(
        "criterion-8",
        f"byte-identical lemma files across {len(completeness_runs)} instances x "
        f"{len(STRATEGIES)} strategies",
    )
