"""The benchmark's fixed corpora, built from tlemma's public generator.

Each workload is a list of operations.  An operation is one (instance,
strategy) pair; its id, ``<strategy>/<family>-s<generator seed>``, keys the
reference digests in ``reference.json``.  The corpora do not depend on the
benchmark seed, so exact counts (lemmas, candidates, ...) repeat on every
run; the benchmark seed only orders the operations within each pass.

Everything tlemma is imported inside the functions, so that set-up, which
re-imports the package, times the import too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

# The acceptance suite's criterion-5 rule: ``clausal_instance`` seeds from 0
# upwards whose atom count and propositional model count fall in a window.
CRITERION_5 = dict(
    params=dict(n_bool=12, n_real=3, n_theory=6, n_clauses=20),
    atoms=(14, 18),
    models=(8000, 20000),
)

# The same rule with three Boolean atoms fewer: both windows shift by three
# atoms, i.e. the model window shrinks 8x.  Criterion-5 instances take 2.5-17 s
# each under ``baseline`` on a 2-core box, too long for a pass to fit a run.
SMALL = dict(
    params=dict(n_bool=9, n_real=3, n_theory=6, n_clauses=20),
    atoms=(11, 15),
    models=(1000, 2500),
)

THEORY_HEAVY = dict(n_bool=2, n_real=4, n_theory=12, n_clauses=24)

# Instances per pass of the clausal workloads.  An odd count puts the median
# (and the 75th percentile) of a run's operation times inside one instance's
# cluster of repeats rather than in the gap between two instances.
CORPUS_SIZE = 13


@dataclass(frozen=True)
class Op:
    op_id: str
    text: str
    strategy: str
    workers: int = 1


@dataclass(frozen=True)
class Workload:
    ops: Tuple[Op, ...]
    generator_seeds: Dict[str, List[int]]


def select_medium(count: int, params: dict, atoms: Tuple[int, int],
                  models: Tuple[int, int]) -> List[Tuple[int, str]]:
    """``count`` clausal instances meeting the criterion-5 style windows.

    Scans generator seeds 0..499 and keeps an instance when its atom count
    lies in ``atoms`` and the number of total atom assignments satisfying its
    Boolean abstraction lies in ``models`` (both inclusive).
    """
    from tlemma.generator import clausal_instance
    from tlemma.problem import Problem
    from tlemma.verifier import truth_table_bits

    chosen: List[Tuple[int, str]] = []
    for seed in range(500):
        if len(chosen) == count:
            break
        text = clausal_instance(seed, **params)
        problem = Problem.from_text(text)
        n = len(problem.table)
        if atoms[0] <= n <= atoms[1]:
            m = bin(truth_table_bits(problem.abstract, n)).count("1")
            if models[0] <= m <= models[1]:
                chosen.append((seed, text))
    if len(chosen) < count:
        raise RuntimeError(f"only {len(chosen)} of {count} instances found")
    return chosen


def _small(strategy: str, workers: int) -> Tuple[Tuple[Op, ...], Dict[str, List[int]]]:
    chosen = select_medium(CORPUS_SIZE, **SMALL)
    ops = tuple(Op(f"{strategy}/small-s{s}", text, strategy, workers) for s, text in chosen)
    return ops, {"small": [s for s, _ in chosen]}


def engine_total() -> Workload:
    ops, seeds = _small("baseline", 1)
    return Workload(ops, seeds)


def dnc_pool() -> Workload:
    ops, seeds = _small("dnc", 2)
    return Workload(ops, seeds)


def theory_heavy() -> Workload:
    from tlemma.generator import clausal_instance

    seeds = list(range(CORPUS_SIZE))
    ops = tuple(
        Op(f"baseline-proj/theory-s{s}", clausal_instance(s, **THEORY_HEAVY), "baseline-proj")
        for s in seeds
    )
    return Workload(ops, {"theory": seeds})


def components() -> Workload:
    from tlemma.generator import product_instance

    seeds = list(range(6))
    ops: List[Op] = []
    # Six groups of three points (3^6 projected candidates) under both
    # strategies, and four groups of four (4^4) under baseline-proj, so that a
    # pass holds equally many cheap, middle and costly operations and the
    # median falls inside the middle group.  Six groups of four would be 4^6
    # candidates (5-7 s an operation) and 24 atoms, past the verifier's cap.
    for s in seeds:
        text = product_instance(s, n_groups=6, per_group=3)
        for strategy in ("baseline-proj", "baseline-proj-part"):
            ops.append(Op(f"{strategy}/product6x3-s{s}", text, strategy))
    for s in seeds:
        text = product_instance(s, n_groups=4, per_group=4)
        ops.append(Op(f"baseline-proj/product4x4-s{s}", text, "baseline-proj"))
    return Workload(tuple(ops), {"product6x3": seeds, "product4x4": seeds})


WORKLOADS = {
    "engine-total": engine_total,
    "theory-heavy": theory_heavy,
    "dnc-pool": dnc_pool,
    "components": components,
}
