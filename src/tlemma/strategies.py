"""The four lemma-enumeration strategies and their compositions.

* baseline: one total enumeration; keep only the lemmas.
* divide & conquer: a partial enumeration decomposes the search space into
  disjoint cubes, then one total enumeration per cube (seeded with the
  already-known lemmas) runs on a pool of workers.
* projection: run the inner strategy projected on the theory atoms only.
* partitioning: split the atoms into symbol-disjoint components and run the
  inner strategy once per component, seeding each pass with everything found
  so far.

Phase-2 cubes are assigned to workers by static round-robin on the cube
ordinal, and results are merged in ordinal order, so provenance and output
are reproducible.  Workers are separate processes with their own oracle; the
clause set and atom view they receive are immutable snapshots.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .atoms import AtomTable, Literal, TableView
from .cnf import CnfProblem
from .enumeration import (
    Assignment,
    EnumerationMode,
    EnumerationOutcome,
    projected_allsmt,
)
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
    seed: int = 0
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


def merge_lemma_sets(sets: Sequence[LemmaSet], subsume: bool = False) -> LemmaSet:
    lemmas: List[TLemma] = []
    prov: List[LemmaProvenance] = []
    for ls in sets:
        lemmas.extend(ls.lemmas)
        prov.extend(ls.provenance)
    return dedup_lemmas(lemmas, prov, subsume)


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
    """Raised when a strategy run outlives its budget.

    Carries the lemmas found so far; no completeness claim is attached to
    them.
    """

    def __init__(self, partial: LemmaSet, counters: RunCounters):
        super().__init__("enumeration budget exceeded")
        self.partial = partial
        self.counters = counters


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
        raise BudgetExceeded(lemma_set, counters)
    return lemma_set


def _phase2_worker(payload):
    """Run the total enumerations for one worker's share of the cubes.

    Returns lean per-cube records: the enumerated assignments are dropped
    here rather than being shipped back, since divide & conquer keeps only
    the lemmas.
    """
    (cnf, view, config, seeds, cubes, proj, remaining, early, interval, memo) = payload
    deadline = time.monotonic() + remaining if remaining is not None else None
    oracle = make_oracle(view, config)
    oracle.import_memo(memo)
    results = []
    try:
        for ordinal, cube in cubes:
            outcome = projected_allsmt(
                cnf,
                view,
                proj,
                EnumerationMode.TOTAL,
                oracle,
                seed_lemmas=seeds,
                assumptions=cube,
                deadline=deadline,
                early_pruning=early,
                pruning_interval=interval,
            )
            results.append(
                (
                    ordinal,
                    outcome.lemmas,
                    outcome.stats,
                    len(outcome.assignments),
                    outcome.truncated,
                )
            )
    finally:
        oracle.close()
    return results


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
    oracle_config: Optional[OracleConfig] = None,
) -> LemmaSet:
    """Divide & conquer: partial enumeration, then one seeded total
    enumeration per returned cube, on ``spec.workers`` parallel tasks."""
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
        raise BudgetExceeded(dedup_lemmas(collected, provenance, spec.subsume), counters)

    cubes = phase1.assignments
    # The engine's blocking clauses make the cubes pairwise incompatible; the
    # correctness argument below only needs coverage, so record which regime
    # we are in.
    for i, a in enumerate(cubes):
        for b in cubes[i + 1 :]:
            if not _incompatible(a, b):
                raise AssertionError("phase-1 cubes are not pairwise disjoint")

    seeds = tuple(seed_lemmas) + tuple(phase1.lemmas)
    per_cube: Dict[int, tuple] = {}
    truncated = False

    if spec.workers == 1 or len(cubes) <= 1:
        for ordinal, cube in enumerate(cubes):
            outcome = projected_allsmt(
                cnf,
                table,
                proj,
                EnumerationMode.TOTAL,
                oracle,
                seed_lemmas=seeds,
                assumptions=cube.sorted_literals(),
                deadline=deadline,
                early_pruning=spec.early_pruning,
                pruning_interval=spec.pruning_interval,
            )
            per_cube[ordinal] = (
                outcome.lemmas,
                outcome.stats,
                len(outcome.assignments),
                outcome.truncated,
            )
    else:
        config = oracle_config or getattr(oracle, "config", OracleConfig())
        view = TableView.from_table(table) if isinstance(table, AtomTable) else table
        shipped_cnf = cnf.without_source()
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        # Warm each worker's verdict memo with what phase 1 already learned.
        memo = oracle.export_memo()
        shares: List[List[Tuple[int, List[Literal]]]] = [
            [] for _ in range(spec.workers)
        ]
        for ordinal, cube in enumerate(cubes):
            shares[ordinal % spec.workers].append((ordinal, cube.sorted_literals()))
        payloads = [
            (
                shipped_cnf,
                view,
                config,
                seeds,
                share,
                list(proj),
                remaining,
                spec.early_pruning,
                spec.pruning_interval,
                memo,
            )
            for share in shares
            if share
        ]
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            futures = [pool.submit(_phase2_worker, p) for p in payloads]
            for fut in futures:
                for record in fut.result():
                    per_cube[record[0]] = record[1:]

    for ordinal in sorted(per_cube):
        lemmas, stats, n_assignments, cube_truncated = per_cube[ordinal]
        counters.absorb_stats(stats, n_assignments)
        truncated = truncated or cube_truncated
        worker = ordinal % spec.workers
        collected.extend(lemmas)
        provenance.extend(
            LemmaProvenance(f"{stage}-phase2:cube{ordinal}", worker, i)
            for i in range(len(lemmas))
        )

    lemma_set = dedup_lemmas(collected, provenance, spec.subsume)
    if truncated:
        raise BudgetExceeded(lemma_set, counters)
    return lemma_set


def _incompatible(a: Assignment, b: Assignment) -> bool:
    for lit in a.literals:
        if Literal(lit.atom_index, not lit.polarity) in b.literals:
            return True
    return False


def with_projection(phi, table: AtomTable, oracle, inner, **kw) -> LemmaSet:
    """Run the inner enumerator projected on the theory atoms only."""
    return inner(phi, table, oracle, proj=table.theory_indices(), **kw)


def with_partitioning(phi, table: AtomTable, oracle, inner, **kw) -> LemmaSet:
    """Per-component enumeration over the symbol-disjoint atom partition.

    Components run in ascending order of their smallest atom; each pass is
    seeded with every lemma accumulated so far.  The Boolean component is
    never enumerated: its atoms cannot take part in a theory conflict and
    are excluded from every projection set.
    """
    counters = kw.get("counters")
    spec = kw.get("spec") or StrategySpec()
    base_seeds = tuple(kw.pop("seed_lemmas", ()))
    stage = kw.pop("stage", "part")
    partition = partition_atoms(table)
    components = partition.theory_components()
    if counters is not None:
        counters.n_partitions = len(components)
    acc: List[TLemma] = []
    prov: List[LemmaProvenance] = []
    for ci, component in enumerate(components):
        try:
            ls = inner(
                phi,
                table,
                oracle,
                proj=sorted(component),
                seed_lemmas=base_seeds + tuple(acc),
                stage=f"{stage}:component{ci}",
                **kw,
            )
        except BudgetExceeded as exc:
            # Keep what the earlier components found, not just this pass's.
            acc.extend(exc.partial.lemmas)
            prov.extend(exc.partial.provenance)
            raise BudgetExceeded(
                dedup_lemmas(acc, prov, spec.subsume), exc.counters
            ) from exc
        acc.extend(ls.lemmas)
        prov.extend(ls.provenance)
    return dedup_lemmas(acc, prov, spec.subsume)


@dataclass
class StrategyResult:
    lemma_set: LemmaSet
    counters: RunCounters
    truncated: bool
    elapsed_ms: int


def run_strategy(
    problem: Problem,
    spec: StrategySpec,
    oracle=None,
    oracle_config: Optional[OracleConfig] = None,
) -> StrategyResult:
    """Execute the configured strategy composition on a parsed instance."""
    own_oracle = oracle is None
    if own_oracle:
        oracle = make_oracle(problem.table, oracle_config or OracleConfig())
    counters = RunCounters()
    deadline = (
        time.monotonic() + spec.budget_secs if spec.budget_secs is not None else None
    )
    inner = enumerate_baseline if spec.base == "baseline" else enumerate_dnc
    kw = dict(
        cnf=problem.cnf,
        spec=spec,
        deadline=deadline,
        counters=counters,
        stage=spec.base,
    )
    if spec.base == "dnc":
        kw["oracle_config"] = oracle_config
    start = time.monotonic_ns()
    truncated = False
    try:
        if spec.partitioning:
            lemma_set = with_partitioning(
                problem.abstract, problem.table, oracle, inner, **kw
            )
        elif spec.projection:
            lemma_set = with_projection(
                problem.abstract, problem.table, oracle, inner, **kw
            )
        else:
            lemma_set = inner(problem.abstract, problem.table, oracle, **kw)
    except BudgetExceeded as exc:
        lemma_set = exc.partial
        truncated = True
    finally:
        if own_oracle:
            oracle.close()
    elapsed_ms = (time.monotonic_ns() - start) // 1_000_000
    return StrategyResult(lemma_set, counters, truncated, elapsed_ms)
