"""The CLI's answers on the shipped games, run as ``python -m cogames``.
The exit codes of ``check`` with every flag and of ``history --check``
are pinned in ``test_cli``'s ``SHIPPED_RUNS`` and
``test_membership_on_the_shipped_games``."""

from __future__ import annotations

import json
import re
import subprocess
from pathlib import Path

import pytest

import helpers
from cogames import bisimilar, dsl

GAMES = Path(__file__).resolve().parent.parent / "games"


def game(stem: str) -> str:
    return str(GAMES / f"{stem}.cog")


def cogames(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m cogames *argv``."""
    with helpers.cli_process(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) as proc:
        out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def checks(*argv: str, code: int = 0) -> list[dict]:
    got, out, _ = cogames("--json", *argv)
    assert got == code
    return json.loads(out)["checks"]


@pytest.mark.parametrize("family", ["dollar", "centipede"])
def test_demo_matches_the_expected_pattern(family):
    assert cogames("demo", family)[0] == 0


# the history of each shipped strategy's committed choices: ngu escalates
@pytest.mark.parametrize("stem, history", [
    ("dollar_auction_agu", "r"), ("centipede_agu", "r"), ("dollar_auction_ngu", "(l)^w"),
    ("centipede_ngu", "(l)^w"), ("paper_s0", "rl")])
def test_history_of_the_shipped_strategies(stem, history):
    assert checks("history", game(stem))[0]["value"] == history


# a cycle names no owner, and a walk that ends lists its classes and their
# shifts, the leaf included, so each has one entry more than its choices
def test_walk_certificates_carry_only_what_a_replay_needs():
    cert = checks("check", "--ltl", game("dollar_auction_ngu"), code=1)[0]["certificate"]
    assert set(cert) == {"cycle", "entered_after", "choices"}
    cert = checks("check", "--ltl", game("dollar_auction_agu"))[0]["certificate"]
    assert len(cert["class"]) == len(cert["shift"]) == len(cert["choices"]) + 1


def test_bisim_takes_both_paths_and_the_bounded_one():
    # exact, and the report is the text json.dumps writes for it
    code, out, _ = cogames("--json", "bisim", game("paper_s0"), game("paper_s0"))
    report = json.loads(out)
    s0 = dsl.parse((GAMES / "paper_s0.cog").read_text())
    rows = [list(row) for row in bisimilar(s0, s0).certificate["relation"]]
    assert code == 0 and report["checks"][0]["certificate"] == {"relation": rows}
    assert out == json.dumps(report) + "\n"
    # parametric inputs, compared to depth 24: payoffs differ, and the
    # breadth-first witness is the one-step path r
    check, = checks("bisim", game("dollar_auction"), game("centipede"), code=1)
    assert check["certificate"]["path"] == ["r"]
    check, = checks("bisim", game("dollar_auction"), game("dollar_auction"))
    assert (check["name"], check["outcome"]) == ("bisimilar_bounded[24]", "holds")


def test_truncation_is_solved_into_holding_equilibria():
    outcomes = {c["name"]: c["outcome"] for c in
                checks("truncate", game("dollar_auction_agu"), "--depth", "4", "--solve")}
    assert outcomes["nash"] == outcomes["sgpe"] == "holds"


# Alice's utility at n = 0; ngu never reaches a leaf, so it has none
@pytest.mark.parametrize("stem, code, value", [
    ("dollar_auction_agu", 0, -1), ("centipede_agu", 0, 0), ("paper_s0", 0, 2),
    ("dollar_auction_ngu", 1, None)])
def test_utility_of_the_shipped_strategies(stem, code, value):
    check, = checks("eval", game(stem), "--agent", "Alice", code=code)
    assert check.get("value") == value


# the dollar auction against itself, against a copy in which Alice never
# gives up, and against the centipede
@pytest.mark.parametrize("b, agent, code, kind", [
    ("dollar_auction_agu", "Alice", 0, "inductive"), ("alice_l", "Alice", 0, "coinductive_only"),
    ("alice_l", "Bob", 1, "not_convertible"), ("centipede_agu", "Alice", 1, "not_convertible")])
def test_convertibility_classes(tmp_path, b, agent, code, kind):
    alice_l = tmp_path / "alice_l.cog"
    alice_l.write_text((GAMES / "dollar_auction_agu.cog").read_text()
                       .replace("<Alice, r,", "<Alice, l,"))
    b = str(alice_l) if b == "alice_l" else game(b)
    check, = checks("convert", game("dollar_auction_agu"), b, "--agent", agent, code=code)
    assert check["certificate"]["class"] == kind


def test_a_leaf_without_every_payoff_is_a_positioned_parse_error(tmp_path):
    path = tmp_path / "incomplete.cog"
    path.write_text(helpers.INCOMPLETE_LEAF)
    code, _, err = cogames("check", "--ltl", str(path))
    assert code == 2 and re.search(r": [0-9]+:[0-9]+: ", err)


# the margin of every reachable node class, chosen minus other, is constant
# in n: 1 on the centipede and 0 on the dollar auction
@pytest.mark.parametrize("stem, margin", [("centipede_agu", 1), ("dollar_auction_agu", 0)])
def test_sgpe_margins_of_the_always_give_up_strategies(stem, margin):
    altl, sgpe = checks("check", "--altl", "--sgpe", game(stem))
    assert altl["outcome"] == sgpe["outcome"] == "holds"
    assert len({len(altl["certificate"][k]) for k in ("class", "leaf", "steps")}) == 1
    cert = sgpe["certificate"]
    assert len(cert["class"]) > 0 and cert["chosen_slope"] == cert["other_slope"]
    assert all(c - o == margin for c, o in zip(cert["chosen_intercept"], cert["other_intercept"]))
