"""The lemma-enumeration strategies.

Two base strategies enumerate the lemmas over one projection set:

* baseline: one total enumeration; keep only the lemmas.
* divide & conquer: a partial enumeration over a prefix of the projection
  decomposes the search space into cubes, then one total enumeration over
  the whole projection per cube (seeded with the already-known lemmas) runs
  on ``workers`` parallel workers.

``run_strategy`` runs the base strategy once per pass, seeds each pass with
every lemma found so far and deduplicates once at the end.  There is one pass
over all atoms (plain), one over the theory atoms (projection), or one per
symbol-disjoint theory component (partitioning).

Phase 1 of divide & conquer splits on the first ``d`` atoms of the sorted
projection, ``d = max(2, len(proj) - CUBE_FREE_ATOMS)``, so that a cube
leaves at most :data:`CUBE_FREE_ATOMS` projection atoms to phase 2 (cube and
conquer: Heule, Kullmann, Wieringa & Biere, HVC 2011).  This keeps phase 1,
which runs on one process, small next to phase 2: over the whole projection
it costs about as much as a baseline run.

* Coverage: phase 1 reaches every total assignment that satisfies the CNF
  and none of its lemmas and blocking clauses, as a candidate that either
  yields a lemma or is recorded as a cube it extends.  So a prefix
  assignment that extends no cube had all of its extensions refuted in
  phase 1, by the formula or by a lemma that phase 2 is seeded with.
* Disjointness: each cube is blocked by a clause over the prefix, and the
  next cube is minimized only as far as every such clause stays satisfied,
  so it clashes with every earlier cube on a prefix atom.
* ``d`` depends on the projection alone, never on the worker count, so the
  cubes, the seeds of phase 2 and the lemma files are the same for any
  number of workers.

Phase-2 cubes are split by static round-robin on the cube ordinal into at
most ``workers`` shares, and no more shares than the CPUs this process may
run on, so that no two CPU-bound processes share a CPU.  Results are merged
in ordinal order, and a lemma's provenance names its logical worker, the
ordinal modulo ``workers``, whichever process ran the cube: a cube's outcome
does not depend on the engine that runs it, so provenance and output are
reproducible for any worker and CPU count.  Each share runs on one engine,
installed once and re-run per cube.  The caller runs share 0 on its own
oracle; every other share runs in a child process forked for it, which
inherits the CNF, the atom table, the seeds, its cubes and the caller's
oracle memo, so nothing is unpickled on the way in.  A child builds its own
oracle, since an external solver session is never shared, and sends back
its cube records and solve count through a one-way pipe; the solve count
is added to the caller's oracle.  The caller joins every child before phase
2 returns.  A child that dies without sending truncates the run: the lemmas
of phase 1 and of every share that finished are kept.

A run with more than one worker therefore needs the ``fork`` start method
(POSIX).  Forking is safe here because tlemma starts no threads.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .atoms import AtomTable, Literal
from .cnf import CnfProblem
from .enumeration import EnumerationMode, EnumerationOutcome, enumerate_cubes, projected_allsmt
from .oracle import OracleConfig, TLemma, make_oracle
from .partition import partition_atoms
from .problem import Problem

_BASES = ("baseline", "dnc")

# The projection atoms a DnC phase-1 cube leaves free, at most.
CUBE_FREE_ATOMS = 11


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
    n_assignments: int = 0  # recorded cubes
    n_candidates: int = 0
    n_theory_checks: int = 0
    n_partitions: int = 1

    @property
    def n_blocking_clauses(self) -> int:
        """The engine counts one blocking clause per recorded cube."""
        return self.n_assignments

    def absorb(self, outcome: EnumerationOutcome) -> None:
        self.absorb_stats(outcome.stats, len(outcome.cubes))

    def absorb_stats(self, s, n_assignments: int) -> None:
        self.n_assignments += n_assignments
        self.n_candidates += s.n_candidates
        self.n_theory_checks += s.n_theory_checks


class BudgetExceeded(Exception):
    """Raised when a strategy run outlives its budget, its oracle fails or a
    phase-2 worker dies.

    Carries the lemmas found so far; no completeness claim is attached to
    them.  ``oracle_error`` is the oracle failure's message, and
    ``worker_error`` names the worker that died, if one stopped the run.
    """

    def __init__(
        self,
        partial: LemmaSet,
        counters: RunCounters,
        oracle_error: Optional[str] = None,
        worker_error: Optional[str] = None,
    ):
        super().__init__(oracle_error or worker_error or "enumeration budget exceeded")
        self.partial = partial
        self.counters = counters
        self.oracle_error = oracle_error
        self.worker_error = worker_error


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
    """Total enumeration; keep only the lemmas (the cubes are only counted)."""
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


def _share_records(cnf, table, oracle, seeds, share, proj, deadline, early, interval):
    """Run one seeded total enumeration per ``(ordinal, literals)`` cube of
    ``share``, on one engine.

    Returns lean per-cube records ``(ordinal, lemmas, stats, n_assignments,
    truncated, oracle_error)``: divide & conquer keeps only the lemmas, so
    the enumerated cubes are counted here rather than being sent back from a
    worker.
    """
    outcomes = enumerate_cubes(
        cnf,
        table,
        proj,
        oracle,
        seeds,
        [cube for _, cube in share],
        deadline=deadline,
        early_pruning=early,
        pruning_interval=interval,
    )
    return [
        (ordinal, o.lemmas, o.stats, len(o.cubes), o.truncated, o.oracle_error)
        for (ordinal, _), o in zip(share, outcomes)
    ]


def _phase2_worker(cnf, table, parent_oracle, seeds, share, proj, deadline, early, interval):
    """Run one share of the cubes on a new oracle warmed with
    ``parent_oracle``'s memo, the entry of a forked phase-2 child.

    The child builds its own oracle because an external solver session is
    never shared between processes.  Returns the cube records and the number
    of solves the new oracle made, which the caller adds to its own count.

    ``deadline`` is the caller's absolute ``time.monotonic()`` deadline: the
    processes of one host share that clock, so the fork counts against the
    budget.
    """
    oracle = make_oracle(table, parent_oracle.config)
    try:
        oracle.import_memo(parent_oracle.export_memo())
        records = _share_records(
            cnf, table, oracle, seeds, share, proj, deadline, early, interval
        )
        return records, oracle.n_raw_checks
    finally:
        oracle.close()


def _phase2_child(conn, *args) -> None:
    conn.send(_phase2_worker(*args))
    conn.close()


def _run_shares(cnf, table, oracle, seeds, shares, *args):
    """Run share 0 on ``oracle`` in this process and every other share in a
    forked child, which inherits its input rather than unpickling it.
    ``args`` are :func:`_share_records`' arguments after the share.

    Returns the records of every share that finished, in cube-ordinal
    order, and a message naming the first child that died without sending
    its records, or None.  Every child is joined before this returns.
    """
    fork = multiprocessing.get_context("fork") if len(shares) > 1 else None
    children = []
    try:
        for w, share in enumerate(shares[1:], 1):
            recv_end, send_end = fork.Pipe(duplex=False)
            child = fork.Process(
                target=_phase2_child,
                args=(send_end, cnf, table, oracle, seeds, share) + args,
            )
            child.start()
            # The child now holds the only write end, so its death reads as EOF.
            send_end.close()
            children.append((w, child, recv_end))
        records = _share_records(cnf, table, oracle, seeds, shares[0], *args) if shares else []
        worker_error = None
        for w, child, recv_end in children:
            try:
                share_records, n_raw_checks = recv_end.recv()
            except EOFError:
                child.join()
                worker_error = worker_error or (
                    f"phase-2 worker {w} exited with code {child.exitcode}"
                )
                continue
            records.extend(share_records)
            oracle.n_raw_checks += n_raw_checks
    finally:
        # A child whose read end is closed fails its send instead of
        # blocking this join.
        for _, child, recv_end in children:
            recv_end.close()
            child.join()
    records.sort(key=lambda record: record[0])
    return records, worker_error


def _usable_cpus() -> int:
    """The CPUs this process may run on, which caps the phase-2 processes."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def phase1_prefix(proj: Sequence[int]) -> List[int]:
    """The atoms divide & conquer splits on in phase 1: the first ones of
    the sorted projection ``proj``, all but the last :data:`CUBE_FREE_ATOMS`
    of them, and at least two, so that a short projection still splits."""
    proj = sorted(proj)
    return proj[: max(2, len(proj) - CUBE_FREE_ATOMS)]


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
    """Divide & conquer: a partial enumeration over the :func:`phase1_prefix`
    of ``proj``, then one seeded total enumeration over all of ``proj`` per
    returned cube, on up to ``spec.workers`` processes, capped at the usable
    CPUs.

    Phase 2 is complete because every model of the formula either extends a
    phase-1 cube or falsifies a seed or phase-1 lemma: a prefix assignment
    outside every cube had all of its extensions refuted in phase 1.  The
    cubes are pairwise disjoint through the blocking clauses over the
    prefix, which the test suite checks rather than every run.  The prefix
    ignores the worker count, so the output does too.
    """
    spec = spec or StrategySpec(base="dnc")
    counters = counters if counters is not None else RunCounters()
    cnf = cnf if cnf is not None else Problem.from_term(phi, table).cnf
    if proj is None:
        proj = list(cnf.alpha_indices)

    phase1 = projected_allsmt(
        cnf,
        table,
        phase1_prefix(proj),
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
    n_shares = min(spec.workers, _usable_cpus(), len(cubes))
    shares = [cubes[p::n_shares] for p in range(n_shares)]
    records, worker_error = _run_shares(
        cnf,
        table,
        oracle,
        seeds,
        shares,
        proj,
        deadline,
        spec.early_pruning,
        spec.pruning_interval,
    )

    truncated = worker_error is not None
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
        raise BudgetExceeded(lemma_set, counters, oracle_error, worker_error)
    return lemma_set


@dataclass
class StrategyResult:
    lemma_set: LemmaSet
    counters: RunCounters
    truncated: bool
    elapsed_ms: int
    oracle_error: Optional[str] = None
    worker_error: Optional[str] = None  # the phase-2 worker whose death truncated the run


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
    oracle_error = worker_error = None
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
        worker_error = exc.worker_error
    finally:
        if own_oracle:
            oracle.close()
    lemma_set = dedup_lemmas(found, provenance, spec.subsume)
    elapsed_ms = (time.monotonic_ns() - start) // 1_000_000
    return StrategyResult(
        lemma_set, counters, truncated, elapsed_ms, oracle_error, worker_error
    )
