"""The lemma-enumeration strategies.

Two base strategies enumerate the lemmas over one projection set:

* baseline: one total enumeration; keep only the lemmas.
* divide & conquer: a partial enumeration decomposes the search space into
  cubes, then one total enumeration per cube (seeded with the already-known
  lemmas) runs on a pool of workers.

``run_strategy`` runs the base strategy once per pass, seeds each pass with
every lemma found so far and deduplicates once at the end.  There is one pass
over all atoms (plain), one over the theory atoms (projection), or one per
symbol-disjoint theory component (partitioning).

Phase-2 cubes are assigned to workers by static round-robin on the cube
ordinal, and results are merged in ordinal order, so provenance and output
are reproducible.  Workers are separate processes with their own oracle,
whose solve count is added to the caller's oracle; the clause set and atom
view they receive are immutable snapshots.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .atoms import AtomTable, Literal, TableView
from .cnf import CnfProblem
from .enumeration import EnumerationMode, EnumerationOutcome, projected_allsmt
from .oracle import OracleConfig, TLemma, make_oracle
from .partition import partition_atoms
from .problem import Problem

_BASES = ("baseline", "dnc")


@dataclass(frozen=True)
class StrategySpec:
    base: str = "baseline"
    projection: bool = False
    partitioning: bool = False
    workers: int = 1
    early_pruning: bool = False
    pruning_interval: int = 8
    budget_secs: Optional[float] = None
    subsume: bool = False

    def __post_init__(self):
        if self.base not in _BASES:
            raise ValueError(f"unknown base strategy '{self.base}'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.partitioning and not self.projection:
            # Partitioning enumerates per-component projections, which also
            # excludes the Boolean atoms; it subsumes plain projection.
            object.__setattr__(self, "projection", True)

    @property
    def name(self) -> str:
        out = self.base
        if self.projection:
            out += "-proj"
        if self.partitioning:
            out += "-part"
        return out

    @classmethod
    def from_name(cls, name: str, **kw) -> "StrategySpec":
        parts = name.split("-")
        base, mods = parts[0], parts[1:]
        if base not in _BASES or any(m not in ("proj", "part") for m in mods):
            raise ValueError(f"unknown strategy '{name}'")
        spec = cls(
            base=base,
            projection="proj" in mods or "part" in mods,
            partitioning="part" in mods,
            **kw,
        )
        if spec.name != name:
            raise ValueError(f"unknown strategy '{name}' (did you mean '{spec.name}'?)")
        return spec


STRATEGY_NAMES = (
    "baseline",
    "dnc",
    "baseline-proj",
    "dnc-proj",
    "baseline-proj-part",
    "dnc-proj-part",
)


@dataclass(frozen=True)
class LemmaProvenance:
    stage: str
    worker: int
    ordinal: int


@dataclass
class LemmaSet:
    """Deduplicated, canonically ordered lemmas with per-lemma provenance."""

    lemmas: List[TLemma]
    provenance: List[LemmaProvenance]

    def __len__(self) -> int:
        return len(self.lemmas)

    def __iter__(self):
        return iter(self.lemmas)

    def keys(self):
        return {l.key for l in self.lemmas}


def dedup_lemmas(
    raw: Sequence[TLemma],
    provenance: Optional[Sequence[LemmaProvenance]] = None,
    subsume: bool = False,
) -> LemmaSet:
    """Canonicalize: drop exact duplicates (first occurrence wins), sort;
    optionally drop lemmas whose literal set strictly contains another's."""
    if provenance is None:
        provenance = [LemmaProvenance("unknown", 0, i) for i in range(len(raw))]
    seen = {}
    for lemma, prov in zip(raw, provenance):
        seen.setdefault(lemma.key, (lemma, prov))
    entries = sorted(seen.values(), key=lambda e: e[0].literals)
    if subsume:
        keys = [e[0].key for e in entries]
        entries = [
            e
            for i, e in enumerate(entries)
            if not any(k < keys[i] for k in keys)
        ]
    return LemmaSet([e[0] for e in entries], [e[1] for e in entries])


@dataclass
class RunCounters:
    n_assignments: int = 0
    n_candidates: int = 0
    n_theory_checks: int = 0
    n_blocking_clauses: int = 0
    n_partitions: int = 1

    def absorb(self, outcome: EnumerationOutcome) -> None:
        self.absorb_stats(outcome.stats, len(outcome.assignments))

    def absorb_stats(self, s, n_assignments: int) -> None:
        self.n_assignments += n_assignments
        self.n_candidates += s.n_candidates
        self.n_theory_checks += s.n_theory_checks
        self.n_blocking_clauses += s.n_blocking_clauses


class BudgetExceeded(Exception):
    """Raised when a strategy run outlives its budget or its oracle fails.

    Carries the lemmas found so far; no completeness claim is attached to
    them.  ``oracle_error`` is the oracle failure's message, if one stopped
    the run.
    """

    def __init__(
        self, partial: LemmaSet, counters: RunCounters, oracle_error: Optional[str] = None
    ):
        super().__init__(oracle_error or "enumeration budget exceeded")
        self.partial = partial
        self.counters = counters
        self.oracle_error = oracle_error


def _provenance_for(outcome: EnumerationOutcome, stage: str, worker: int):
    return [LemmaProvenance(stage, worker, i) for i in range(len(outcome.lemmas))]


def enumerate_baseline(
    phi,
    table: AtomTable,
    oracle,
    proj: Optional[Sequence[int]] = None,
    seed_lemmas: Sequence[TLemma] = (),
    *,
    cnf: Optional[CnfProblem] = None,
    spec: Optional[StrategySpec] = None,
    deadline: Optional[float] = None,
    counters: Optional[RunCounters] = None,
    stage: str = "baseline",
) -> LemmaSet:
    """Total enumeration; keep only the lemmas (assignments are discarded)."""
    spec = spec or StrategySpec()
    counters = counters if counters is not None else RunCounters()
    cnf = cnf if cnf is not None else Problem.from_term(phi, table).cnf
    if proj is None:
        proj = list(cnf.alpha_indices)
    outcome = projected_allsmt(
        cnf,
        table,
        proj,
        EnumerationMode.TOTAL,
        oracle,
        seed_lemmas=seed_lemmas,
        deadline=deadline,
        early_pruning=spec.early_pruning,
        pruning_interval=spec.pruning_interval,
    )
    counters.absorb(outcome)
    lemma_set = dedup_lemmas(
        outcome.lemmas, _provenance_for(outcome, stage, 0), spec.subsume
    )
    if outcome.truncated:
        raise BudgetExceeded(lemma_set, counters, outcome.oracle_error)
    return lemma_set


def _run_cubes(cnf, table, oracle, seeds, cubes, proj, deadline, early, interval):
    """Run one seeded total enumeration per ``(ordinal, literals)`` cube.

    Returns lean per-cube records ``(ordinal, lemmas, stats, n_assignments,
    truncated, oracle_error)``: divide & conquer keeps only the lemmas, so
    the enumerated assignments are dropped here rather than being shipped
    back from a worker.
    """
    records = []
    for ordinal, cube in cubes:
        outcome = projected_allsmt(
            cnf,
            table,
            proj,
            EnumerationMode.TOTAL,
            oracle,
            seed_lemmas=seeds,
            assumptions=cube,
            deadline=deadline,
            early_pruning=early,
            pruning_interval=interval,
        )
        records.append(
            (
                ordinal,
                outcome.lemmas,
                outcome.stats,
                len(outcome.assignments),
                outcome.truncated,
                outcome.oracle_error,
            )
        )
    return records


def _phase2_worker(payload):
    """Run one worker's share of the cubes with its own oracle.

    Returns the cube records and the number of solves the worker's oracle
    made, which the caller adds to its own oracle's count.

    ``deadline`` is the parent's absolute ``time.monotonic()`` deadline: the
    processes of one host share that clock, so pool spawn and unpickling
    time count against the budget.
    """
    (cnf, view, config, seeds, cubes, proj, deadline, early, interval, memo) = payload
    oracle = make_oracle(view, config)
    oracle.import_memo(memo)
    try:
        records = _run_cubes(
            cnf, view, oracle, seeds, cubes, proj, deadline, early, interval
        )
        return records, oracle.n_raw_checks
    finally:
        oracle.close()


def enumerate_dnc(
    phi,
    table: AtomTable,
    oracle,
    proj: Optional[Sequence[int]] = None,
    seed_lemmas: Sequence[TLemma] = (),
    *,
    cnf: Optional[CnfProblem] = None,
    spec: Optional[StrategySpec] = None,
    deadline: Optional[float] = None,
    counters: Optional[RunCounters] = None,
    stage: str = "dnc",
) -> LemmaSet:
    """Divide & conquer: partial enumeration, then one seeded total
    enumeration per returned cube, on ``spec.workers`` parallel tasks.

    Phase 2 is complete because the phase-1 cubes cover every projected
    model; the engine's blocking clauses also make them pairwise disjoint,
    which the test suite checks rather than every run.
    """
    spec = spec or StrategySpec(base="dnc")
    counters = counters if counters is not None else RunCounters()
    cnf = cnf if cnf is not None else Problem.from_term(phi, table).cnf
    if proj is None:
        proj = list(cnf.alpha_indices)

    phase1 = projected_allsmt(
        cnf,
        table,
        proj,
        EnumerationMode.PARTIAL,
        oracle,
        seed_lemmas=seed_lemmas,
        deadline=deadline,
        early_pruning=spec.early_pruning,
        pruning_interval=spec.pruning_interval,
    )
    counters.absorb(phase1)
    collected: List[TLemma] = list(phase1.lemmas)
    provenance: List[LemmaProvenance] = _provenance_for(phase1, f"{stage}-phase1", 0)
    if phase1.truncated:
        raise BudgetExceeded(
            dedup_lemmas(collected, provenance, spec.subsume), counters, phase1.oracle_error
        )

    seeds = tuple(seed_lemmas) + tuple(phase1.lemmas)
    cubes: List[Tuple[int, List[Literal]]] = [
        (ordinal, cube.sorted_literals())
        for ordinal, cube in enumerate(phase1.assignments)
    ]
    if spec.workers == 1 or len(cubes) <= 1:
        records = _run_cubes(
            cnf,
            table,
            oracle,
            seeds,
            cubes,
            proj,
            deadline,
            spec.early_pruning,
            spec.pruning_interval,
        )
    else:
        view = TableView.from_table(table) if isinstance(table, AtomTable) else table
        shipped_cnf = cnf.without_source()
        # Warm each worker's verdict memo with what phase 1 already learned.
        memo = oracle.export_memo()
        payloads = [
            (
                shipped_cnf,
                view,
                oracle.config,
                seeds,
                cubes[w :: spec.workers],
                list(proj),
                deadline,
                spec.early_pruning,
                spec.pruning_interval,
                memo,
            )
            for w in range(min(spec.workers, len(cubes)))
        ]
        # One process per payload: a fork pool starts all of its workers up front.
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            futures = [pool.submit(_phase2_worker, p) for p in payloads]
            records = []
            for fut in futures:
                worker_records, n_raw_checks = fut.result()
                records.extend(worker_records)
                oracle.n_raw_checks += n_raw_checks
            records.sort(key=lambda record: record[0])

    truncated = False
    oracle_error = None
    for ordinal, lemmas, stats, n_assignments, cube_truncated, cube_error in records:
        counters.absorb_stats(stats, n_assignments)
        truncated = truncated or cube_truncated
        oracle_error = oracle_error or cube_error
        collected.extend(lemmas)
        provenance.extend(
            LemmaProvenance(f"{stage}-phase2:cube{ordinal}", ordinal % spec.workers, i)
            for i in range(len(lemmas))
        )

    lemma_set = dedup_lemmas(collected, provenance, spec.subsume)
    if truncated:
        raise BudgetExceeded(lemma_set, counters, oracle_error)
    return lemma_set


@dataclass
class StrategyResult:
    lemma_set: LemmaSet
    counters: RunCounters
    truncated: bool
    elapsed_ms: int
    oracle_error: Optional[str] = None


def run_strategy(
    problem: Problem,
    spec: StrategySpec,
    oracle=None,
    oracle_config: Optional[OracleConfig] = None,
) -> StrategyResult:
    """Execute the configured strategy on a parsed instance.

    The base strategy runs once per ``(projection set, stage)`` pass, seeded
    with every lemma the earlier passes found.
    """
    own_oracle = oracle is None
    if own_oracle:
        oracle = make_oracle(problem.table, oracle_config)
    counters = RunCounters()
    deadline = (
        time.monotonic() + spec.budget_secs if spec.budget_secs is not None else None
    )
    inner = enumerate_baseline if spec.base == "baseline" else enumerate_dnc
    kw = dict(cnf=problem.cnf, spec=spec, deadline=deadline, counters=counters)
    start = time.monotonic_ns()
    found: List[TLemma] = []
    provenance: List[LemmaProvenance] = []
    truncated = False
    oracle_error = None
    try:
        if spec.partitioning:
            # The Boolean component is never enumerated: its atoms cannot
            # take part in a theory conflict.
            components = partition_atoms(problem.table).theory_components()
            counters.n_partitions = len(components)
            passes = [
                (sorted(component), f"{spec.base}:component{ci}")
                for ci, component in enumerate(components)
            ]
        elif spec.projection:
            passes = [(problem.table.theory_indices(), spec.base)]
        else:
            passes = [(None, spec.base)]
        for proj, stage in passes:
            lemma_set = inner(
                problem.abstract,
                problem.table,
                oracle,
                proj,
                tuple(found),
                stage=stage,
                **kw,
            )
            found.extend(lemma_set.lemmas)
            provenance.extend(lemma_set.provenance)
    except BudgetExceeded as exc:
        # Keep what the earlier passes found, not just this pass's.
        found.extend(exc.partial.lemmas)
        provenance.extend(exc.partial.provenance)
        truncated = True
        oracle_error = exc.oracle_error
    finally:
        if own_oracle:
            oracle.close()
    lemma_set = dedup_lemmas(found, provenance, spec.subsume)
    elapsed_ms = (time.monotonic_ns() - start) // 1_000_000
    return StrategyResult(lemma_set, counters, truncated, elapsed_ms, oracle_error)
