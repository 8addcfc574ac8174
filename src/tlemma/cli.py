"""Command-line surface: enumerate, verify, gen, bench.

Exit codes: 0 success, 1 usage/processing error, 2 truncation (budget,
oracle timeout or solver fault; the lemmas found so far are written),
3 verification cap exceeded, 4 incomplete lemma set, 5 invalid lemma.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .generator import random_instance
from .lemma_io import LemmaFormatError, read_lemma_file, write_lemma_file
from .oracle import OracleConfig, OracleError, make_oracle
from .parser import ParseError
from .problem import Problem
from .stats import RunStats, lower_median, write_csv, write_jsonl
from .strategies import STRATEGY_NAMES, StrategySpec, run_strategy
from .verifier import CapExceeded, check_lemma_set

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TRUNCATED = 2
EXIT_CAP = 3
EXIT_INCOMPLETE = 4
EXIT_INVALID_LEMMA = 5


def _positive_secs(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {text}")
    return value


def _add_oracle_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--oracle-cmd",
        default=None,
        help="external SMT-LIB2 solver command (TLEMMA_ORACLE_CMD overrides)",
    )
    p.add_argument("--oracle-timeout-secs", type=_positive_secs, default=10.0)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", default="baseline", help="one of: " + ", ".join(STRATEGY_NAMES))
    p.add_argument("--workers", type=int, default=min(os.cpu_count() or 1, 8))
    p.add_argument("--budget-secs", type=float, default=60.0)
    p.add_argument("--early-pruning", choices=("on", "off"), default="off")
    p.add_argument("--pruning-interval", type=int, default=8)
    p.add_argument("--subsume", action="store_true")


def _oracle_config(args) -> OracleConfig:
    cmd = os.environ.get("TLEMMA_ORACLE_CMD") or args.oracle_cmd
    if cmd:
        return OracleConfig(
            backend="external", command=cmd, timeout_secs=args.oracle_timeout_secs
        )
    return OracleConfig(timeout_secs=args.oracle_timeout_secs)


def _spec_from_args(args, name: str) -> StrategySpec:
    return StrategySpec.from_name(
        name,
        workers=args.workers,
        early_pruning=args.early_pruning == "on",
        pruning_interval=args.pruning_interval,
        budget_secs=args.budget_secs,
        subsume=args.subsume,
    )


def _run_stats(instance: str, spec: StrategySpec, result) -> RunStats:
    sizes = [len(l) for l in result.lemma_set.lemmas]
    return RunStats(
        instance=instance,
        strategy=spec.name,
        wall_time_ms=result.elapsed_ms,
        n_lemmas=len(result.lemma_set),
        median_lemma_size=lower_median(sizes),
        n_assignments=result.counters.n_assignments,
        n_theory_checks=result.counters.n_theory_checks,
        n_partitions=result.counters.n_partitions,
        workers=spec.workers,
        truncated=result.truncated,
    )


def cmd_enumerate(args) -> int:
    try:
        spec = _spec_from_args(args, args.strategy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        problem = Problem.from_file(args.input)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    config = _oracle_config(args)
    try:
        result = run_strategy(problem, spec, oracle_config=config)
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if result.oracle_error:
        print(f"oracle error: {result.oracle_error}", file=sys.stderr)
    if result.worker_error:
        print(f"worker failure: {result.worker_error}", file=sys.stderr)
    meta = {
        "instance": str(args.input),
        "strategy": spec.name,
        "workers": spec.workers,
        "truncated": result.truncated,
    }
    try:
        if args.output:
            write_lemma_file(args.output, result.lemma_set, problem.table, meta)
        if args.stats:
            stats = _run_stats(str(args.input), spec, result)
            Path(args.stats).write_text(
                json.dumps(stats.to_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_TRUNCATED if result.truncated else EXIT_OK


def cmd_verify(args) -> int:
    try:
        problem = Problem.from_file(args.input)
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        lemmas = read_lemma_file(args.lemmas, problem.table)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (LemmaFormatError, ParseError) as exc:
        print(f"invalid lemma file: {exc}", file=sys.stderr)
        return EXIT_INVALID_LEMMA
    oracle = make_oracle(problem.table, _oracle_config(args))
    try:
        ok_rules, ok_valid, ok_atoms, ok_equiv, cls = check_lemma_set(
            problem.term, problem.table, oracle, lemmas, cap=args.cap
        )
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OracleError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        oracle.close()
    print(f"lemmas: {len(lemmas)}")
    print(f"itta: {len(cls.itta)}  ctta: {len(cls.ctta)}")
    print(f"rules-out: {'ok' if ok_rules else 'FAIL'}")
    print(f"lemma-validity: {'ok' if ok_valid else 'FAIL'}")
    print(f"lemma-atoms-theory: {'ok' if ok_atoms else 'FAIL'}")
    print(f"abstraction-equivalence: {'ok' if ok_equiv else 'FAIL'}")
    if not ok_valid or not ok_atoms:
        return EXIT_INVALID_LEMMA
    if not ok_rules or not ok_equiv:
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_gen(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for k in range(args.count):
            seed = args.seed + k
            text = random_instance(
                args.depth, args.n_bool, args.n_real, seed, args.max_atoms
            )
            (out_dir / f"gen_d{args.depth}_s{seed}.smt2").write_text(
                text, encoding="utf-8"
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wrote {args.count} instances to {out_dir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    corpus = sorted(Path(args.corpus).glob("*.smt2"))
    if not corpus:
        print(f"error: no .smt2 files under {args.corpus}", file=sys.stderr)
        return EXIT_ERROR
    try:
        specs = [_spec_from_args(args, s.strip()) for s in args.strategies.split(",") if s.strip()]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    kept: List[RunStats] = []
    for path in corpus:
        for spec in specs:
            try:
                result = run_strategy(
                    Problem.from_file(path), spec, oracle_config=_oracle_config(args)
                )
                kept.append(_run_stats(str(path), spec, result))
            except (ParseError, OracleError, ValueError, OSError) as exc:
                print(f"skipping {path} [{spec.name}]: {exc}", file=sys.stderr)
    out_prefix = Path(args.out)
    write_csv(out_prefix.with_suffix(".csv"), kept)
    write_jsonl(out_prefix.with_suffix(".jsonl"), kept)
    print(f"wrote {len(kept)} rows to {out_prefix.with_suffix('.csv')} and .jsonl")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlemma",
        description="Enumerate theory lemmas that rule out every "
        "theory-inconsistent satisfying assignment of a QF_LRA formula.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate lemmas for an instance")
    p_enum.add_argument("-i", "--input", required=True)
    p_enum.add_argument("-o", "--output", default=None, help="lemma .smt2 output")
    p_enum.add_argument("--stats", default=None, help="stats .json output")
    _add_run_flags(p_enum)
    _add_oracle_flags(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="verify a lemma file against an instance")
    p_verify.add_argument("-i", "--input", required=True)
    p_verify.add_argument("-l", "--lemmas", required=True)
    p_verify.add_argument("--cap", type=int, default=20)
    _add_oracle_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random instance corpus")
    p_gen.add_argument("--depth", type=int, required=True)
    p_gen.add_argument("--n-bool", type=int, default=10)
    p_gen.add_argument("--n-real", type=int, default=10)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-atoms", type=int, default=None)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a strategy sweep over a corpus")
    p_bench.add_argument("--corpus", required=True)
    p_bench.add_argument(
        "--strategies", default="baseline,dnc,dnc-proj,dnc-proj-part"
    )
    p_bench.add_argument("--out", required=True, help="output prefix for .csv/.jsonl")
    _add_run_flags(p_bench)
    _add_oracle_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
