import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from helpers import REF_CMD
import tlemma.cli as cli
from tlemma.cli import EXIT_TRUNCATED, main
from tlemma.stats import RunStats, load_schema, lower_median

EXAMPLE = "(set-logic QF_LRA)\n(declare-const x Real)\n(assert (or (= x 0) (= x 1)))\n(check-sat)\n"


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "ex.smt2"
    path.write_text(EXAMPLE)
    return path


class TestEnumerate:
    def test_writes_lemmas_and_stats(self, tmp_path, instance):
        out = tmp_path / "ex.lemmas"
        stats = tmp_path / "ex.stats.json"
        rc = main(
            [
                "enumerate",
                "--strategy",
                "baseline",
                "-i",
                str(instance),
                "-o",
                str(out),
                "--stats",
                str(stats),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert text.count("(assert") == 1
        assert "(or (not (= x 0)) (not (= x 1)))" in text
        sidecar = json.loads(Path(str(out) + ".json").read_text())
        assert len(sidecar["lemmas"]) == 1
        row = json.loads(stats.read_text())
        assert row["n_lemmas"] == 1 and row["strategy"] == "baseline"

    def test_all_strategy_names_accepted(self, tmp_path, instance):
        for name in ("dnc", "dnc-proj", "dnc-proj-part", "baseline-proj"):
            rc = main(
                ["enumerate", "--strategy", name, "-i", str(instance), "--workers", "1"]
            )
            assert rc == 0

    def test_unknown_strategy_is_usage_error(self, instance):
        assert main(["enumerate", "--strategy", "mystery", "-i", str(instance)]) == 1

    def test_missing_input_file(self, tmp_path):
        assert main(["enumerate", "-i", str(tmp_path / "nope.smt2")]) == 1

    def test_undecodable_input_is_an_error(self, tmp_path, capsys):
        binary = tmp_path / "binary.smt2"
        binary.write_bytes(b"\xff\xfe")
        assert main(["enumerate", "-i", str(binary)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_budget_truncation_exit_code(self, tmp_path):
        from tlemma.generator import clausal_instance

        big = tmp_path / "big.smt2"
        big.write_text(clausal_instance(0))
        rc = main(
            ["enumerate", "-i", str(big), "--budget-secs", "0", "--workers", "1"]
        )
        assert rc == 2

    def test_oracle_timeout_exit_code_writes_lemmas(self, tmp_path, instance):
        out = tmp_path / "ex.lemmas"
        rc = main(
            ["enumerate", "-i", str(instance), "-o", str(out),
             "--oracle-timeout-secs", "1e-9", "--workers", "1"]
        )
        assert rc == EXIT_TRUNCATED
        assert out.is_file()

    def test_dead_worker_exit_code_writes_lemmas(self, tmp_path, monkeypatch, capsys):
        import tlemma.strategies as strategies
        from tlemma.generator import clausal_instance

        monkeypatch.delenv("TLEMMA_ORACLE_CMD", raising=False)
        monkeypatch.setattr(strategies, "_phase2_worker", lambda *args: os._exit(3))
        instance = tmp_path / "c6.smt2"
        instance.write_text(
            clausal_instance(6, n_bool=2, n_real=3, n_theory=8, n_clauses=16)
        )
        out = tmp_path / "c6.lemmas"
        rc = main(
            ["enumerate", "--strategy", "dnc", "-i", str(instance), "-o", str(out),
             "--workers", "2"]
        )
        assert rc == EXIT_TRUNCATED
        assert "(assert" in out.read_text()
        err = capsys.readouterr().err
        assert "worker failure: phase-2 worker 1 exited with code 3" in err

    @pytest.mark.parametrize("backend", [[], ["--oracle-cmd", REF_CMD]], ids=["builtin", "external"])
    @pytest.mark.parametrize("secs", ["0", "-1", "nan"])
    def test_nonpositive_oracle_timeout_is_usage_error(
        self, tmp_path, instance, backend, secs, monkeypatch, capsys
    ):
        monkeypatch.delenv("TLEMMA_ORACLE_CMD", raising=False)
        out = tmp_path / "ex.lemmas"
        rc = main(
            ["enumerate", "-i", str(instance), "-o", str(out),
             "--oracle-timeout-secs", secs, *backend]
        )
        assert rc == 1
        assert "--oracle-timeout-secs: must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["-o", "--stats"])
    def test_unwritable_output_is_an_error(self, tmp_path, instance, flag, capsys):
        target = tmp_path / "missing" / "out"
        assert main(["enumerate", "-i", str(instance), flag, str(target)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not target.exists()

    def test_deterministic_output_bytes(self, tmp_path, instance):
        outs = []
        for k in (0, 1):
            out = tmp_path / f"run{k}.lemmas"
            rc = main(
                [
                    "enumerate",
                    "--strategy",
                    "dnc-proj-part",
                    "--workers",
                    "1",
                    "-i",
                    str(instance),
                    "-o",
                    str(out),
                ]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestVerify:
    def test_good_lemma_file(self, tmp_path, instance):
        out = tmp_path / "ex.lemmas"
        main(["enumerate", "-i", str(instance), "-o", str(out)])
        assert main(["verify", "-i", str(instance), "-l", str(out)]) == 0

    def test_empty_lemma_file_incomplete(self, tmp_path, instance):
        empty = tmp_path / "empty.lemmas"
        empty.write_text("(set-logic QF_LRA)\n(declare-const x Real)\n")
        assert main(["verify", "-i", str(instance), "-l", str(empty)]) == 4

    def test_invalid_lemma_detected(self, tmp_path, instance):
        bad = tmp_path / "bad.lemmas"
        bad.write_text(
            "(set-logic QF_LRA)\n(declare-const x Real)\n"
            "(assert (or (= x 0) (= x 1)))\n"  # not theory-valid
        )
        assert main(["verify", "-i", str(instance), "-l", str(bad)]) == 5

    def test_unknown_atom_in_lemma(self, tmp_path, instance):
        alien = tmp_path / "alien.lemmas"
        alien.write_text(
            "(set-logic QF_LRA)\n(declare-const x Real)\n"
            "(assert (not (<= x 99)))\n"
        )
        assert main(["verify", "-i", str(instance), "-l", str(alien)]) == 5

    def test_non_clause_assert_rejected(self, tmp_path, instance):
        weird = tmp_path / "weird.lemmas"
        weird.write_text(
            "(set-logic QF_LRA)\n(declare-const x Real)\n"
            "(assert (= (not (= x 0)) (= x 1)))\n"
        )
        assert main(["verify", "-i", str(instance), "-l", str(weird)]) == 5

    def test_cap_exceeded(self, tmp_path, instance):
        out = tmp_path / "ex.lemmas"
        main(["enumerate", "-i", str(instance), "-o", str(out)])
        assert main(["verify", "-i", str(instance), "-l", str(out), "--cap", "1"]) == 3

    def test_unreadable_lemma_file(self, tmp_path, instance, capsys):
        binary = tmp_path / "binary.lemmas"
        binary.write_bytes(b"\xff\xfe")
        for lemmas in (tmp_path / "missing.smt2", binary):
            assert main(["verify", "-i", str(instance), "-l", str(lemmas)]) == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_solver_fault_is_an_error(self, tmp_path, instance, monkeypatch, capsys):
        monkeypatch.delenv("TLEMMA_ORACLE_CMD", raising=False)
        out = tmp_path / "ex.lemmas"
        main(["enumerate", "-i", str(instance), "-o", str(out)])
        dead = f"{shlex.quote(sys.executable)} -c pass"  # exits without a reply
        rc = main(["verify", "-i", str(instance), "-l", str(out), "--oracle-cmd", dead])
        assert rc == 1
        assert capsys.readouterr().err.startswith("oracle error: ")

    def test_oracle_closed_on_every_exit(self, tmp_path, instance, monkeypatch):
        open_oracles = []
        make_oracle = cli.make_oracle

        def tracked(table, config):
            oracle = make_oracle(table, config)
            close = oracle.close
            open_oracles.append(oracle)

            def close_and_untrack():
                open_oracles.remove(oracle)
                close()

            oracle.close = close_and_untrack
            return oracle

        monkeypatch.setattr(cli, "make_oracle", tracked)
        good = tmp_path / "ex.lemmas"
        main(["enumerate", "-i", str(instance), "-o", str(good)])
        invalid = tmp_path / "invalid.lemmas"
        invalid.write_text("(set-logic QF_LRA)\n(declare-const x Real)\n(assert (not (<= x 99)))\n")
        cases = [
            (good, [], 0),
            (good, ["--cap", "1"], 3),
            (invalid, [], 5),
            (tmp_path / "missing.smt2", [], 1),
        ]
        for lemmas, extra, want in cases:
            assert main(["verify", "-i", str(instance), "-l", str(lemmas), *extra]) == want
            assert open_oracles == [], lemmas


class TestGen:
    def test_generates_parseable_corpus(self, tmp_path):
        out_dir = tmp_path / "corpus"
        rc = main(
            [
                "gen",
                "--depth",
                "4",
                "--n-bool",
                "4",
                "--n-real",
                "4",
                "--count",
                "3",
                "--seed",
                "5",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        files = sorted(out_dir.glob("*.smt2"))
        assert len(files) == 3
        from tlemma.problem import Problem

        for f in files:
            Problem.from_file(f)

    def test_regeneration_identical(self, tmp_path):
        args = [
            "gen", "--depth", "3", "--count", "2", "--seed", "1",
            "--out-dir", str(tmp_path / "c"),
        ]
        main(args)
        first = {f.name: f.read_bytes() for f in (tmp_path / "c").glob("*.smt2")}
        main(args)
        second = {f.name: f.read_bytes() for f in (tmp_path / "c").glob("*.smt2")}
        assert first == second


class TestBench:
    def test_sweep_produces_rows(self, tmp_path):
        corpus = tmp_path / "corpus"
        main(
            [
                "gen", "--depth", "3", "--n-bool", "3", "--n-real", "3",
                "--count", "2", "--seed", "3", "--max-atoms", "8",
                "--out-dir", str(corpus),
            ]
        )
        out = tmp_path / "sweep"
        rc = main(
            [
                "bench",
                "--corpus",
                str(corpus),
                "--strategies",
                "baseline,dnc",
                "--workers",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.with_suffix(".jsonl").read_text().splitlines()
        assert len(lines) == 4  # 2 instances x 2 strategies
        schema = load_schema()
        jsonschema = pytest.importorskip("jsonschema")
        for line in lines:
            jsonschema.validate(json.loads(line), schema)
        csv_text = out.with_suffix(".csv").read_text().splitlines()
        assert len(csv_text) == 5  # header + 4 rows
        assert csv_text[0].split(",") == list(RunStats.FIELDS)

    def test_unknown_strategy_fails_before_the_sweep(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "ex.smt2").write_text(EXAMPLE)
        out = tmp_path / "sweep"
        rc = main(
            ["bench", "--corpus", str(corpus), "--strategies", "baseline,dcn",
             "--workers", "1", "--out", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown strategy 'dcn'" in err and "skipping" not in err
        assert not out.with_suffix(".csv").exists()

    def test_empty_corpus_fails(self, tmp_path):
        assert main(["bench", "--corpus", str(tmp_path), "--out", str(tmp_path / "x")]) == 1


class TestStats:
    def test_lower_median(self):
        assert lower_median([]) == 0
        assert lower_median([3]) == 3
        assert lower_median([1, 2]) == 1
        assert lower_median([1, 2, 4]) == 2
        assert lower_median([1, 2, 4, 9]) == 2

    def test_schema_accepts_round_trip(self):
        jsonschema = pytest.importorskip("jsonschema")
        row = RunStats(
            instance="a.smt2",
            strategy="baseline",
            wall_time_ms=1,
            n_lemmas=0,
            median_lemma_size=0,
            n_assignments=0,
            n_theory_checks=0,
            n_partitions=1,
            workers=1,
            truncated=False,
        )
        jsonschema.validate(json.loads(row.to_json()), load_schema())
