import json
from pathlib import Path

import jsonschema
import pytest

from cogames.cli import main

GAMES = Path(__file__).resolve().parent.parent / "games"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "cogames" / "schemas" / "report-v1.json")
    .read_text())


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, "--json", *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["exit_code"] == code
    return code, report


class TestDemo:
    def test_dollar_matches_the_expected_pattern(self, capsys):
        code, report = run_json(capsys, "demo", "dollar")
        assert code == 0
        verdicts = {c["name"]: c["certificate"]["outcome"] for c in report["checks"]}
        assert verdicts == {
            "agu.ltl": "holds", "agu.altl": "holds", "agu.nash": "holds", "agu.sgpe": "holds",
            "ngu.ltl": "fails", "ngu.altl": "fails", "ngu.nash": "holds", "ngu.sgpe": "fails",
        }

    def test_human_table(self, capsys):
        code, out = run(capsys, "demo", "centipede")
        assert code == 0
        assert "all verdicts match the expected pattern" in out
        assert "vacuous" in out


class TestCheck:
    def test_ltl_failure_exit_code_and_witness(self, capsys):
        code, report = run_json(capsys, "check", str(GAMES / "dollar_auction_ngu.cog"), "--ltl")
        assert code == 1
        cert = report["checks"][0]["certificate"]
        assert cert["cycle"] == [0, 1]
        assert cert["owners"] == ["Alice", "Bob"]

    def test_multiple_checks(self, capsys):
        code, report = run_json(capsys, "check", str(GAMES / "dollar_auction_agu.cog"),
                                "--ltl", "--altl", "--nash", "--sgpe")
        assert code == 0
        assert [c["outcome"] for c in report["checks"]] == ["holds"] * 4

    def test_no_flags_is_a_usage_error(self, capsys):
        assert main(["check", str(GAMES / "dollar_auction_agu.cog")]) == 2


class TestEval:
    def test_worked_example_value(self, capsys):
        code, report = run_json(capsys, "eval", str(GAMES / "paper_s0.cog"), "--agent", "Alice")
        assert code == 0
        assert report["checks"][0]["value"] == 2

    def test_index_flag(self, capsys):
        code, report = run_json(capsys, "eval", str(GAMES / "dollar_auction_agu.cog"),
                                "--agent", "Alice", "--n", "3")
        assert code == 0
        assert report["checks"][0]["value"] == -7  # -(2*3+1)

    def test_no_utility_exits_one(self, capsys):
        code, report = run_json(capsys, "eval", str(GAMES / "dollar_auction_ngu.cog"),
                                "--agent", "Alice")
        assert code == 1


class TestBisim:
    def test_exact_on_nonparametric(self, capsys):
        code, report = run_json(capsys, "bisim", str(GAMES / "paper_s0.cog"),
                                str(GAMES / "paper_s0.cog"))
        assert code == 0
        assert report["checks"][0]["name"] == "bisimilar"

    def test_parametric_falls_back_to_bounded(self, capsys):
        code, report = run_json(capsys, "bisim", str(GAMES / "dollar_auction.cog"),
                                str(GAMES / "centipede.cog"))
        assert report["checks"][0]["name"].startswith("bisimilar_bounded")
        assert code == 1  # payoffs differ

    def test_depth_flag(self, capsys):
        code, _ = run_json(capsys, "bisim", str(GAMES / "dollar_auction_agu.cog"),
                           str(GAMES / "dollar_auction_ngu.cog"), "--depth", "5")
        assert code == 1


    def test_negative_depth_is_a_usage_error(self, capsys):
        assert main(["bisim", str(GAMES / "dollar_auction.cog"), str(GAMES / "dollar_auction.cog"),
                     "--depth", "-1"]) == 2
        assert "usage:" in capsys.readouterr().err


class TestConvert:
    def test_reflexive_inductive(self, capsys):
        code, report = run_json(capsys, "convert", str(GAMES / "dollar_auction_agu.cog"),
                                str(GAMES / "dollar_auction_agu.cog"), "--agent", "Alice")
        assert code == 0
        assert report["checks"][0]["certificate"]["class"] == "inductive"

    def test_not_convertible_exits_one(self, capsys):
        code, report = run_json(capsys, "convert", str(GAMES / "dollar_auction_agu.cog"),
                                str(GAMES / "dollar_auction_ngu.cog"), "--agent", "Alice")
        assert code == 1
        assert report["checks"][0]["certificate"]["class"] == "not_convertible"


class TestHistory:
    def test_strategy_history_text(self, capsys):
        code, report = run_json(capsys, "history", str(GAMES / "dollar_auction_ngu.cog"))
        assert code == 0
        assert report["checks"][0]["value"] == "(l)^w"

    def test_membership_check(self, capsys):
        code, _ = run_json(capsys, "history", str(GAMES / "dollar_auction.cog"),
                           "--check", "l(ll)^w")
        assert code == 0
        code, _ = run_json(capsys, "history", str(GAMES / "dollar_auction.cog"),
                           "--check", "rr")
        assert code == 1

    def test_bad_lasso_text_is_a_usage_error(self, capsys):
        assert main(["history", str(GAMES / "dollar_auction.cog"), "--check", "xyz"]) == 2


class TestTruncate:
    def test_emits_parseable_source(self, capsys):
        from cogames import dsl, validate

        code, report = run_json(capsys, "truncate", str(GAMES / "dollar_auction.cog"),
                                "--depth", "3")
        assert code == 0
        emitted = report["checks"][0]["value"]
        assert validate(dsl.parse(emitted)).holds

    def test_solve_reports_give_up_outcome(self, capsys):
        code, report = run_json(capsys, "truncate", str(GAMES / "dollar_auction.cog"),
                                "--depth", "4", "--solve")
        assert code == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["backward_induction"]["value"]["root_choice"] == "r"
        assert by_name["backward_induction"]["value"]["utilities"] == {"Alice": -1, "Bob": 0}
        assert by_name["exhaustive_nash"]["outcome"] == "holds"


    def test_negative_depth_is_a_usage_error(self, capsys):
        assert main(["truncate", str(GAMES / "dollar_auction.cog"), "--depth", "-1"]) == 2
        assert "usage:" in capsys.readouterr().err


def chain_source(length: int, flip: int | None = None) -> str:
    """One agent walks a chain of ``length`` nodes: continuing pays n+1 at
    the end, stopping at node i pays n.  Every node continues, except
    ``flip``, which stops."""
    lines = ["strategy agents A"]
    for i in range(length):
        nxt = f"c{i + 1}(n+1)" if i + 1 < length else "end(n+1)"
        lines.append(f"c{i}(n) = <A, {'r' if i == flip else 'l'}, {nxt}, stop{i}(n)>")
        lines.append(f"stop{i}(n) = leaf[A: n]")
    lines += ["end(n) = leaf[A: n+1]", "root c0"]
    return "\n".join(lines) + "\n"


def dollar_unrolling_source(periods: int, choice: str) -> str:
    """The dollar auction unrolled into a ring of ``periods`` Alice/Bob
    periods, each entering the next at n+1; every node plays ``choice``."""
    lines = ["strategy agents Alice Bob"]
    for k in range(periods):
        lines.append(f"a{k}(n) = <Alice, {choice}, b{k}(n), alice_quits(n)>")
        lines.append(f"b{k}(n) = <Bob, {choice}, a{(k + 1) % periods}(n+1), bob_quits(n)>")
    lines += ["alice_quits(n) = leaf[Alice: -2*n-1, Bob: -2*n]",
              "bob_quits(n) = leaf[Alice: -2*n-1, Bob: -2*n-2]", "root a0"]
    return "\n".join(lines) + "\n"


class TestLargeInputs:
    @pytest.mark.parametrize("source, verdicts, history", [
        (chain_source(5000), ["holds"] * 4, "l" * 5000),
        (chain_source(5000, flip=4000), ["holds", "holds", "fails", "fails"], "l" * 4000 + "r"),
        (dollar_unrolling_source(1500, "r"), ["holds"] * 4, "r"),
        (dollar_unrolling_source(1500, "l"), ["fails", "fails", "holds", "fails"], "(l)^w"),
    ], ids=["chain", "chain-flipped", "dollar-agu", "dollar-ngu"])
    def test_deep_systems_run_without_recursion(self, capsys, tmp_path, source, verdicts, history):
        path = tmp_path / "big.cog"
        path.write_text(source)
        code, report = run_json(capsys, "check", str(path), "--ltl", "--altl", "--nash", "--sgpe")
        assert [c["outcome"] for c in report["checks"]] == verdicts
        assert code == (0 if verdicts == ["holds"] * 4 else 1)
        code, report = run_json(capsys, "history", str(path))
        assert code == 0 and report["checks"][0]["value"] == history


class TestErrorsAndStability:
    def test_missing_file(self, capsys):
        assert main(["check", "no_such_file.cog", "--ltl"]) == 2

    def test_parse_error_is_positioned(self, capsys, tmp_path):
        bad = tmp_path / "bad.cog"
        bad.write_text("strategy agents A\nx(n) = <A l x(n), x(n)>\nroot x\n")
        assert main(["check", str(bad), "--ltl"]) == 2
        err = capsys.readouterr().err
        assert "2:" in err  # line number of the offending token

    def test_invalid_system_rejected(self, capsys, tmp_path):
        # parseable but not validating: leaf misses an agent
        bad = tmp_path / "partial.cog"
        bad.write_text("game agents A B\ng(n) = leaf[A: 0]\nroot g\n")
        assert main(["check", str(bad), "--ltl"]) == 2

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_reports_identical_modulo_timing(self, capsys):
        def snap():
            code, report = run_json(capsys, "demo", "dollar")
            del report["timing_ms"]
            return report

        assert snap() == snap()
