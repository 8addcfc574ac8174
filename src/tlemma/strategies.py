"""The lemma-enumeration strategies.

Two base strategies enumerate the lemmas over one projection set:

* baseline: one enumeration; keep only the lemmas.
* divide & conquer: an enumeration over a prefix of the projection
  decomposes the search space into cubes, then one enumeration over the
  whole projection per cube (seeded with the already-known lemmas) runs on
  ``workers`` parallel workers.

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

* Coverage: phase 1 skips only the extensions of a recorded cube and the
  assignments that falsify the CNF or a seed or phase-1 lemma; it reaches
  every other total assignment as a candidate, which yields a lemma or is
  recorded as a cube.  So a prefix assignment with no cube had every
  extension that satisfies the CNF refuted by a lemma that phase 2 is
  seeded with.
* Disjointness: the cubes are distinct total assignments of the same prefix
  atoms, so any two of them clash on a prefix atom; no blocking clause is
  needed.
* ``d`` depends on the projection alone, never on the worker count, so the
  cubes, the seeds of phase 2 and the lemma files are the same for any
  number of workers.

Phase-2 cubes are split by static round-robin on the cube ordinal into at
most ``workers`` shares, and no more shares than the CPUs this process may
run on, so that no two CPU-bound processes share a CPU.  Capping the count
alone does not keep that: the kernel may start a forked child on its
parent's CPU and leave both there for a phase 2 of tens of milliseconds.
So share ``w`` runs pinned to the ``w``-th usable CPU.  The caller moves
each child there as soon as it is forked, and the child pins itself when it
starts, whichever comes first; the caller pins itself to the first CPU
while it runs share 0, then gets back the affinity it had before phase 2
returns or raises.  Pinning is best effort: where the OS cannot pin, or
refuses a CPU, the process runs unpinned.  Placement never changes which
cubes a share holds, so it never changes the output.  Pinning assumes
the usable CPUs are this run's alone: two runs at once with the same
affinity pin to the same lowest CPUs and share them, so give concurrent
runs disjoint affinities (``taskset -c``) or one worker each.

Results are merged in ordinal order, and a lemma's provenance names its
logical worker, the ordinal modulo ``workers``, whichever process ran the
cube: a cube's outcome does not depend on the engine that runs it, so
provenance and output are reproducible for any worker and CPU count.  Each
share runs on one engine, installed once and re-run per cube.  The caller
runs share 0 on its own oracle; every other share runs in a child process
forked for it with ``os.fork``, which inherits the CNF, the atom table, the
seeds, its cubes and the caller's oracle, so nothing is unpickled on the
way in.  The child queries ``oracle.for_forked_child()``: for the builtin
backend that is the inherited oracle itself, a private copy holding the
caller's whole memo; the external backend builds a new oracle warmed with
the memo, with a solver session of its own, since a session is never
shared.  The child sends back only its cube records and solve count,
pickled, through a one-way pipe; the solve count is added to the caller's
oracle.  A child always leaves through ``os._exit``, so it never returns
into the caller's code or runs its cleanup.  The caller reaps every child
before phase 2 returns or raises.  A child that exits without sending its
records truncates the run: the lemmas of phase 1 and of every share that
finished are kept.

A run with more than one worker therefore needs ``os.fork`` (POSIX).
Forking is safe here because tlemma starts no threads.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Sequence, Tuple

from .atoms import AtomTable, Literal
from .cnf import CnfProblem
from .enumeration import EnumerationOutcome, enumerate_cubes, projected_allsmt
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
        """The recorded cubes again, under the name the benchmark report
        reads; the engine adds no blocking clause."""
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
    """Run one seeded enumeration per ``(ordinal, literals)`` cube of
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
    """Run one share of the cubes on ``parent_oracle.for_forked_child()``,
    the entry of a forked phase-2 child.

    In a child that is the caller's builtin oracle itself, which the fork
    made a private copy, whole memo included; an external oracle gives a
    new one warmed with its memo, since a solver session is never shared
    between processes.  Returns the cube records and the number of solves
    made on the way, which the caller adds to its own count.

    ``deadline`` is the caller's absolute ``time.monotonic()`` deadline: the
    processes of one host share that clock, so the fork counts against the
    budget.
    """
    oracle = parent_oracle.for_forked_child()
    n_before = oracle.n_raw_checks
    try:
        records = _share_records(
            cnf, table, oracle, seeds, share, proj, deadline, early, interval
        )
        return records, oracle.n_raw_checks - n_before
    finally:
        if oracle is not parent_oracle:
            oracle.close()


def _pin(pid: int, cpus) -> None:
    """Run process ``pid``, 0 for this one, on ``cpus`` only, where the OS
    lets it; else leave it where it runs."""
    try:
        os.sched_setaffinity(pid, cpus)
    except (AttributeError, OSError):
        pass


def _fork_share(cpu: int, inherited_fds, *args) -> Tuple[int, BinaryIO]:
    """Fork a child that runs ``_phase2_worker(*args)`` pinned to ``cpu``
    and writes the pickled result to a pipe; returns the child's pid and
    the pipe's read end.

    The child closes ``inherited_fds``, the read ends of the children
    forked before it, so that the caller alone holds each read end and a
    child whose read end the caller closed fails its write rather than
    wait on a sibling.  It always leaves through ``os._exit``: with code 0
    once its result is written, with code 1 on any exception.  So it never
    returns into the caller's stack, runs none of its cleanup, and a
    failure reads as a non-zero exit code; its traceback goes to stderr.
    """
    read_fd, write_fd = os.pipe()
    # A child that flushes them must not write this process's pending
    # output again.
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            _pin(0, (cpu,))
            for fd in (read_fd, *inherited_fds):
                os.close(fd)
            with open(write_fd, "wb") as out:
                pickle.dump(_phase2_worker(*args), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
            raise
        finally:
            os._exit(code)
    os.close(write_fd)
    # The child pins itself too, since it may start its share before this
    # pin lands; this one saves it a wait on this CPU.
    _pin(pid, (cpu,))
    return pid, open(read_fd, "rb")


def _run_shares(cnf, table, oracle, seeds, shares, cpus, *args):
    """Run share 0 on ``oracle`` in this process and every other share in a
    child forked for it by :func:`_fork_share`.  The child inherits its
    input and the caller's oracle rather than unpickling them, and sends
    back only its records and solve count; it ends in ``os._exit`` and
    never returns here.
    ``cpus`` are the usable CPUs, at least one per share: share ``w`` runs
    pinned to ``cpus[w]``, so no two of these processes share a CPU, and
    this process gets back the affinity it had before this returns or
    raises.  Pinning is best effort and never changes the records.  A
    solver subprocess started during phase 2, by a child or by a session
    this process starts or restarts while it runs share 0, inherits the
    pin and keeps it.
    ``args`` are :func:`_share_records`' arguments after the share.

    Returns the records of every share that finished, in cube-ordinal
    order, and a message naming the first child that exited without
    sending its records, or None.  Every child is reaped before this
    returns or raises.
    """
    children = []
    own_cpus = None
    try:
        for w, share in enumerate(shares[1:], 1):
            inherited = [r.fileno() for _, _, r in children]
            pid, reader = _fork_share(cpus[w], inherited, cnf, table, oracle, seeds, share, *args)
            children.append((w, pid, reader))
        if children and hasattr(os, "sched_getaffinity"):
            own_cpus = os.sched_getaffinity(0)
            _pin(0, cpus[:1])
        records = _share_records(cnf, table, oracle, seeds, shares[0], *args) if shares else []
        payloads = [reader.read() for _, _, reader in children]
    finally:
        if own_cpus is not None:
            _pin(0, own_cpus)
        # A child whose read end is closed fails its write instead of
        # blocking this wait.
        exit_codes = []
        for _, pid, reader in children:
            reader.close()
            exit_codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    worker_error = None
    for (w, _, _), payload, code in zip(children, payloads, exit_codes):
        if code != 0:
            worker_error = worker_error or f"phase-2 worker {w} exited with code {code}"
            continue
        share_records, n_raw_checks = pickle.loads(payload)
        records.extend(share_records)
        oracle.n_raw_checks += n_raw_checks
    records.sort(key=lambda record: record[0])
    return records, worker_error


def _usable_cpus() -> List[int]:
    """The CPUs this process may run on, in ascending order: phase 2 runs
    at most one process on each."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


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
    """Divide & conquer: an enumeration over the :func:`phase1_prefix` of
    ``proj``, then one seeded enumeration over all of ``proj`` per returned
    cube, on up to ``spec.workers`` processes, capped at the usable CPUs.

    Phase 2 is complete because every model of the formula either extends a
    phase-1 cube or falsifies a seed or phase-1 lemma: a prefix assignment
    with no cube had all of its extensions refuted in phase 1.  The cubes
    are pairwise disjoint because each is a distinct total assignment of the
    prefix.  The prefix ignores the worker count, so the output does too.
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
    cpus = _usable_cpus()
    n_shares = min(spec.workers, len(cpus), len(cubes))
    shares = [cubes[p::n_shares] for p in range(n_shares)]
    records, worker_error = _run_shares(
        cnf,
        table,
        oracle,
        seeds,
        shares,
        cpus,
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
