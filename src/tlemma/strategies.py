"""The lemma-enumeration strategies.

Two base strategies enumerate the lemmas over one projection set:

* baseline: one enumeration; keep only the lemmas.
* divide & conquer: an enumeration over a prefix of the projection
  decomposes the search space into cubes, then one enumeration over the
  whole projection per cube (seeded with the already-known lemmas) runs on
  up to ``workers`` parallel workers, as many as the cubes pay for.

``run_strategy`` runs the base strategy once per pass, seeds each pass with
every lemma found so far and deduplicates once at the end.  There is one pass
over all atoms (plain), one over the theory atoms (projection), or one per
symbol-disjoint theory component (partitioning).

Every enumeration gives one record ``(ordinal, lemmas, n_candidates,
n_theory_checks, n_cubes, truncated, oracle_error)``: the one of baseline,
the DnC phase-1 one and each phase-2 cube's.  One fold, :func:`_fold`, turns
a pass's records into its :class:`PassResult`, adding their counts to the
run's :class:`RunCounters` and giving each lemma its provenance.  An early
stop (the budget, an oracle fault, a dead phase-2 worker) is data, not an
exception: the stopped enumeration returns what it found, marked truncated;
the fold marks the pass truncated; and ``run_strategy`` ends the run at the
first pass that stopped, keeping what it and every earlier pass found.

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

Phase 2 runs on ``min(workers, usable CPUs, cubes // SHARE_MIN_CUBES)``
shares, at least one, each taking the cubes of one residue of the cube
ordinal (static round-robin).  The caller runs the first share; each other
share runs in a process of its own, which has to pay for itself.  On a
2-vCPU host (Python 3.11) the fork, the child's start and the wait for its
teardown took 1.7-1.8 ms (median of an empty share's round trip), and the
copy-on-write faults that both processes take while the child lives, about
425 per run, slowed the caller's share by a further 1.5-1.7 ms; a cube took
0.36-0.40 ms (median over the benchmark's ``dnc-pool`` and the criterion-5
instances, on one process).  Splitting ``n`` cubes in two saves the work
of ``n / 2`` cubes for about 3.4 ms, so each share must hold at least
3.4 / 0.38, about :data:`SHARE_MIN_CUBES`, cubes.  A phase 2
with more than four cubes leaves exactly :data:`CUBE_FREE_ATOMS` atoms free
per cube, the width that cost was measured at, so the cube count alone sizes
it.  The rule reads counts, never a clock, so which process runs a cube,
and with it ``n_raw_checks``, is the same on every run.

No two phase-2 processes share a CPU: the kernel may start a forked child
on its parent's CPU and leave both there for a phase 2 of tens of
milliseconds, so share ``w`` runs pinned to the ``w``-th usable CPU.  The
caller moves each child there as soon as it is forked, and the child pins
itself when it starts, whichever comes first; the caller pins itself to the
first CPU while it runs share 0, then gets back the affinity it had before
phase 2 returns or raises.  Pinning is best effort: where the OS cannot
pin, or refuses a CPU, the process runs unpinned.  Placement never changes
which cubes a share holds, so it never changes the output.  Pinning assumes
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
shared.  The child sends back its cube records and its solve count, pickled,
through a one-way pipe, and the caller adds the solve count to its oracle.
The records unpickle ready to use, with nothing to rebuild: the engine
builds its lemmas from one object per literal, so pickle writes each
literal once.  A child always leaves through ``os._exit``, so it never returns
into the caller's code or runs its cleanup.  The caller reaps every child
before phase 2 returns or raises.  A child that exits without sending its
records truncates the run: the lemmas of phase 1 and of every share that
finished are kept.  A share that gets no process, because ``os.fork`` or
``os.pipe`` fails, runs in the caller after share 0, which gives the same
records.

A phase 2 on more than one share therefore needs ``os.fork`` (POSIX).
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

from .atoms import Literal
from .enumeration import EnumerationOutcome, enumerate_cubes, projected_allsmt
from .oracle import OracleConfig, TLemma, make_oracle
from .partition import partition_atoms
from .problem import Problem

_BASES = ("baseline", "dnc")

# The projection atoms a DnC phase-1 cube leaves free, at most.
CUBE_FREE_ATOMS = 11

# The phase-1 cubes each DnC phase-2 share holds, at least: the fixed cost of
# a process over the cost of a cube (3.4 ms / 0.38 ms, see above).
SHARE_MIN_CUBES = 9


@dataclass(frozen=True)
class StrategySpec:
    base: str = "baseline"
    projection: bool = False
    partitioning: bool = False
    workers: int = 1
    budget_secs: Optional[float] = None

    def __post_init__(self):
        if self.base not in _BASES:
            raise ValueError(f"unknown base strategy '{self.base}'")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.budget_secs is not None and not self.budget_secs >= 0:
            # NaN compares false with every deadline, so it would mean no budget.
            raise ValueError(f"budget must be >= 0 seconds, got {self.budget_secs}")
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
    raw: Sequence[TLemma], provenance: Sequence[LemmaProvenance]
) -> LemmaSet:
    """Canonicalize: drop exact duplicates (first occurrence wins), sort.

    DnC cubes rediscover the same lemma, but no lemma's literal set strictly
    contains another's: each lemma negates a core, and every core is
    irreducible (see ``OracleConfig``), so there is nothing to subsume."""
    seen = {}
    for lemma, prov in zip(raw, provenance):
        seen.setdefault(lemma.key, (lemma, prov))
    entries = sorted(seen.values(), key=lambda e: e[0].literals)
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


@dataclass
class PassResult:
    """One pass's lemmas, deduplicated, and how the pass ended.

    ``truncated`` marks a pass that an early stop cut short: the budget ran
    out, the oracle failed (``oracle_error`` is its message) or a phase-2
    worker died (``worker_error`` names it).  Its lemmas are then the ones
    found before the stop, with no completeness claim attached.
    """

    lemma_set: LemmaSet
    truncated: bool = False
    oracle_error: Optional[str] = None
    worker_error: Optional[str] = None


def _record(ordinal: int, outcome: EnumerationOutcome):
    """The record of one enumeration: ``(ordinal, lemmas, n_candidates,
    n_theory_checks, n_cubes, truncated, oracle_error)``.

    A pass keeps only the lemmas, so the enumerated cubes are counted here,
    and of the engine's statistics only the two counts the run adds up are
    kept: a phase-2 child sends back no more of a cube than this.
    """
    stats = outcome.stats
    return (ordinal, outcome.lemmas, stats.n_candidates, stats.n_theory_checks,
            len(outcome.cubes), outcome.truncated, outcome.oracle_error)


def _fold(counters: RunCounters, entries, worker_error: Optional[str] = None) -> PassResult:
    """Fold the records of one pass's enumerations into its result.

    ``entries`` are ``(record, stage, worker)`` triples in the order the
    enumerations ran.  Each record's counts go to ``counters`` and its
    lemmas get the provenance ``(stage, worker, index in the record)``.  The
    pass is truncated if a record is, or if a phase-2 worker died
    (``worker_error``); the first oracle fault is the pass's.
    """
    lemmas: List[TLemma] = []
    provenance: List[LemmaProvenance] = []
    truncated, oracle_error = worker_error is not None, None
    for (_, found, n_candidates, n_checks, n_cubes, cut, error), stage, worker in entries:
        counters.n_assignments += n_cubes
        counters.n_candidates += n_candidates
        counters.n_theory_checks += n_checks
        truncated = truncated or cut
        oracle_error = oracle_error or error
        lemmas.extend(found)
        provenance.extend(LemmaProvenance(stage, worker, i) for i in range(len(found)))
    return PassResult(dedup_lemmas(lemmas, provenance), truncated, oracle_error, worker_error)


def enumerate_baseline(
    problem: Problem,
    oracle,
    proj: Sequence[int],
    seed_lemmas: Sequence[TLemma],
    *,
    counters: RunCounters,
    deadline: Optional[float] = None,
    stage: str = "baseline",
) -> PassResult:
    """One enumeration over ``proj``; keep only the lemmas (the cubes are
    only counted)."""
    outcome = projected_allsmt(
        problem.cnf, problem.table, proj, oracle, seed_lemmas=seed_lemmas, deadline=deadline
    )
    return _fold(counters, [(_record(0, outcome), stage, 0)])


def _share_records(cnf, table, oracle, seeds, share, proj, deadline):
    """Run one seeded enumeration per ``(ordinal, literals)`` cube of
    ``share``, on one engine, and return the records (:func:`_record`)."""
    if not share:
        return []
    outcomes = enumerate_cubes(
        cnf, table, proj, oracle, seeds, [cube for _, cube in share], deadline=deadline
    )
    return [_record(ordinal, o) for (ordinal, _), o in zip(share, outcomes)]


def _phase2_worker(cnf, table, parent_oracle, seeds, share, proj, deadline):
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
        records = _share_records(cnf, table, oracle, seeds, share, proj, deadline)
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
    never returns here.  When a fork or its pipe fails, that share and
    every later one run here after share 0, on the same engine, which
    gives the same records; the children already forked run on.
    ``enumerate_dnc`` passes one share when phase 2 is too small to pay
    for a process, at most ``cubes // SHARE_MIN_CUBES`` (see the module
    docstring); this runs it here and forks nothing.
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
    own = list(shares[0])
    own_cpus = None
    try:
        for w, share in enumerate(shares[1:], 1):
            inherited = [r.fileno() for _, _, r in children]
            try:
                pid, reader = _fork_share(cpus[w], inherited, cnf, table, oracle, seeds, share, *args)
            except OSError:
                own.extend(cube for later in shares[w:] for cube in later)
                break
            children.append((w, pid, reader))
        if children and hasattr(os, "sched_getaffinity"):
            own_cpus = os.sched_getaffinity(0)
            _pin(0, cpus[:1])
        records = _share_records(cnf, table, oracle, seeds, own, *args)
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
    problem: Problem,
    oracle,
    proj: Sequence[int],
    seed_lemmas: Sequence[TLemma],
    *,
    spec: StrategySpec,
    counters: RunCounters,
    deadline: Optional[float] = None,
    stage: str = "dnc",
) -> PassResult:
    """Divide & conquer: an enumeration over the :func:`phase1_prefix` of
    ``proj``, then one seeded enumeration over all of ``proj`` per returned
    cube, on up to ``spec.workers`` processes, capped at the usable CPUs.

    Within those caps phase 2 runs on one share per :data:`SHARE_MIN_CUBES`
    cubes, at least one, each share on a process of its own.  A process
    beyond the caller costs about 3.4 ms (fork, child start, teardown wait
    and copy-on-write faults), the time of about nine cubes of 0.38 ms, so a
    smaller share would cost more than it saves; a phase 2 of fewer than
    ``2 * SHARE_MIN_CUBES`` cubes runs in the caller.  The rule counts cubes
    and reads no clock, so the output, the provenance and ``n_raw_checks``
    repeat on every run; only ``n_raw_checks`` depends on how many processes
    ran, since a child solves on a copy of the caller's memo.

    Phase 2 is complete because every model of the formula either extends a
    phase-1 cube or falsifies a seed or phase-1 lemma: a prefix assignment
    with no cube had all of its extensions refuted in phase 1.  The cubes
    are pairwise disjoint because each is a distinct total assignment of the
    prefix.  The prefix ignores the worker count, so the output does too.
    A phase 1 that stopped early runs no phase 2: its cubes need not cover
    the space.
    """
    cnf, table = problem.cnf, problem.table
    phase1 = projected_allsmt(
        cnf, table, phase1_prefix(proj), oracle, seed_lemmas=seed_lemmas, deadline=deadline
    )
    entries = [(_record(0, phase1), f"{stage}-phase1", 0)]
    if phase1.truncated:
        return _fold(counters, entries)

    seeds = tuple(seed_lemmas) + tuple(phase1.lemmas)
    cubes: List[Tuple[int, List[Literal]]] = [
        (ordinal, cube.sorted_literals())
        for ordinal, cube in enumerate(phase1.assignments)
    ]
    cpus = _usable_cpus()
    n_shares = max(1, min(spec.workers, len(cpus), len(cubes) // SHARE_MIN_CUBES))
    shares = [cubes[p::n_shares] for p in range(n_shares)]
    records, worker_error = _run_shares(cnf, table, oracle, seeds, shares, cpus, proj, deadline)
    entries += [
        (record, f"{stage}-phase2:cube{record[0]}", record[0] % spec.workers)
        for record in records
    ]
    return _fold(counters, entries, worker_error)


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
    with every lemma the earlier passes found.  A stop is data: each pass
    folds its enumerations' records into a :class:`PassResult`, and the
    first pass that stopped ends the run.  The run keeps the lemmas of that
    pass and of every earlier one, and reports that pass's truncation,
    oracle fault and dead worker.
    """
    own_oracle = oracle is None
    if own_oracle:
        oracle = make_oracle(problem.table, oracle_config)
    counters = RunCounters()
    deadline = (
        time.monotonic() + spec.budget_secs if spec.budget_secs is not None else None
    )
    inner = enumerate_baseline
    kw = dict(deadline=deadline, counters=counters)
    if spec.base == "dnc":
        inner, kw["spec"] = enumerate_dnc, spec  # by keyword, for wrappers to read
    start = time.monotonic_ns()
    found: List[TLemma] = []
    provenance: List[LemmaProvenance] = []
    result = PassResult(LemmaSet([], []))  # what a run of no pass reports
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
            passes = [(list(problem.cnf.alpha_indices), spec.base)]
        for proj, stage in passes:
            result = inner(problem, oracle, proj, tuple(found), stage=stage, **kw)
            found.extend(result.lemma_set.lemmas)
            provenance.extend(result.lemma_set.provenance)
            if result.truncated:
                break
    finally:
        if own_oracle:
            oracle.close()
    lemma_set = dedup_lemmas(found, provenance)
    elapsed_ms = (time.monotonic_ns() - start) // 1_000_000
    return StrategyResult(
        lemma_set, counters, result.truncated, elapsed_ms, result.oracle_error, result.worker_error
    )
