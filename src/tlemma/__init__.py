"""Theory-lemma enumeration for quantifier-free SMT over linear rational
arithmetic: given a formula, produce a set of theory-valid clauses ruling out
every theory-inconsistent total truth assignment that propositionally
satisfies it."""

from .atoms import AtomKind, AtomTable, Literal, boolean_abstraction, eval3, refine
from .cnf import CnfProblem, to_cnf
from .enumeration import Assignment, EnumerationOutcome, projected_allsmt
from .oracle import (
    BuiltinOracle,
    OracleConfig,
    OracleError,
    OracleTimeoutError,
    TheoryVerdict,
    TLemma,
    lemma_from_core,
    make_oracle,
)
from .parser import ParseError, UnsupportedConstructError, parse_smtlib
from .partition import Partition, partition_atoms
from .problem import Problem
from .strategies import (
    LemmaProvenance,
    LemmaSet,
    PassResult,
    StrategyResult,
    StrategySpec,
    dedup_lemmas,
    enumerate_baseline,
    enumerate_dnc,
    run_strategy,
)
from .terms import LinearAtom, Relation, Term, TermBank, normalize_linear
from .verifier import (
    CapExceeded,
    Classification,
    classify,
    rules_out,
)

__version__ = "0.1.0"
