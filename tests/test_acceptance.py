"""Acceptance suite: one test per criterion, exact verdicts, no tolerances.

Each test prints a ``[criterion N] PASS`` line on success (visible with
``pytest -s`` or in the captured output); any assertion failure marks the
criterion red.
"""

import json
from pathlib import Path

from cogames import (
    LassoHistory,
    Choice,
    bisimilar_bounded,
    canonicalize,
    h_bisimilar,
    in_h1,
    in_h2,
    is_history_of,
    nash_eq,
    s2u,
    sgpe,
    strategy_history,
    strategy_to_game,
)
from cogames import dsl, families, oracle
from cogames.cli import main
from cogames.system import Convertibility, convertible
import random

import helpers

GAMES = Path(__file__).resolve().parent.parent / "games"
L, R = Choice.L, Choice.R


def run_demo(capsys, family: str) -> dict:
    code = main(["--json", "demo", family])
    report = json.loads(capsys.readouterr().out)
    return {"code": code, "by_name": {c["name"]: c for c in report["checks"]}}


def test_c01_dollar_auction_verdicts(capsys):
    demo = run_demo(capsys, "dollar")
    assert demo["code"] == 0
    got = {name: c["certificate"]["outcome"] for name, c in demo["by_name"].items()}
    assert got["agu.sgpe"] == "holds"
    assert got["agu.nash"] == "holds"
    assert got["agu.altl"] == "holds"
    assert got["ngu.nash"] == "holds"
    assert "vacuous" in demo["by_name"]["ngu.nash"]["certificate"]["note"]
    ltl = demo["by_name"]["ngu.ltl"]["certificate"]
    assert ltl["outcome"] == "fails"
    assert ltl["certificate"]["cycle"] == [0, 1]
    print("\n[criterion 1] PASS - dollar auction: SGPE(agu), NE(agu), NE(ngu) vacuous, "
          "LtL(ngu) fails with cycle witness, ALtL(agu)")


def test_c02_centipede_verdicts_and_margins(capsys):
    demo = run_demo(capsys, "centipede")
    assert demo["code"] == 0
    got = {name: c["certificate"]["outcome"] for name, c in demo["by_name"].items()}
    assert got["agu.sgpe"] == "holds" and got["agu.nash"] == "holds"
    assert got["ngu.nash"] == "holds" and got["ngu.ltl"] == "fails"
    assert "vacuous" in demo["by_name"]["ngu.nash"]["certificate"]["note"]
    cert = demo["by_name"]["agu.sgpe"]["certificate"]["certificate"]
    # the margin is chosen minus other, per reachable node class
    margins = {c: (cs - os_, ci - oi) for c, cs, ci, os_, oi in zip(
        cert["class"], cert["chosen_slope"], cert["chosen_intercept"],
        cert["other_slope"], cert["other_intercept"])}
    assert margins[0] == (0, 1)  # Alice class: 2n - (2n-1)
    assert margins[1] == (0, 1)  # Bob class: (2n+3) - (2n+2)
    print("\n[criterion 2] PASS - centipede: same verdict pattern, per-class margins d(n)=1")


def test_c03_worked_example_utility(capsys):
    code = main(["--json", "eval", str(GAMES / "paper_s0.cog"), "--agent", "Alice"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checks"][0]["value"] == 2
    print("\n[criterion 3] PASS - eval paper_s0.cog --agent Alice = 2, exact")


def test_c04_existence_uniqueness_on_500_systems():
    trees = helpers.finite_corpus(500, helpers.random_strategy, max_size=12)
    assert len(trees) == 500
    for tree in trees:
        emb = oracle.embed(tree)
        for agent in emb.roster:
            value = s2u(emb, agent)
            assert value is not None  # existence under leads-to-leaf
            assert value.at(0) == oracle.finite_utility(tree, agent)  # uniqueness
    print("\n[criterion 4] PASS - s2u exists and matches the recursive oracle "
          "on 500 seeded systems, every agent")


def test_c05_preservation_on_200_inductive_pairs():
    pairs = []
    pairs.append((families.dollar_auction_strategy("agu"), "Alice", 0))
    pairs.append((families.dollar_auction_strategy("agu"), "Bob", 1))
    pairs.append((families.centipede_strategy("agu"), "Alice", 2))
    pairs.append((families.centipede_strategy("agu"), "Bob", 3))
    seed = 4
    while len(pairs) < 200:
        s = helpers.random_terminating_strategy(seed)
        pairs.append((s, s.roster[seed % len(s.roster)], seed))
        seed += 1
    checked = 0
    for s, agent, seed in pairs:
        t, _ = helpers.prefix_perturbation(s, agent, seed=seed * 31 + 1)
        assert convertible(s, t, agent).value is Convertibility.INDUCTIVE
        verdict = helpers.check_altl_preservation(s, t, agent)
        assert verdict.holds and "vacuous" not in verdict.note
        checked += 1
    assert checked == 200
    print("\n[criterion 5] PASS - ALtL preserved on 200 inductively convertible pairs, "
          "zero counterexamples")


def test_c06_backward_induction_profiles_are_nash():
    games = helpers.finite_corpus(500, helpers.random_game, max_size=12)
    assert len(games) == 500
    for g in games:
        for tiebreak in (oracle.PREFER_LEFT, oracle.PREFER_RIGHT):
            assert oracle.exhaustive_nash(oracle.backward_induction(g, tiebreak)).holds
    print("\n[criterion 6] PASS - exhaustive_nash(backward_induction(g)) on 500 games "
          "x both tiebreaks, zero counterexamples")


def test_c07_engine_oracle_equivalence():
    strategies = helpers.finite_corpus(500, helpers.random_strategy, max_size=12)
    assert len(strategies) == 500
    for tree in strategies:
        emb = oracle.embed(tree)
        assert nash_eq(emb).holds == oracle.exhaustive_nash(tree).holds
        assert sgpe(emb).holds == oracle.finite_sgpe(tree)
    print("\n[criterion 7] PASS - nash_eq/sgpe match exhaustive_nash/finite-SGPE "
          "on the 500-system corpus")


def test_c08_finiteness_threshold():
    game = families.dollar_auction_game()
    ngu = families.dollar_auction_strategy("ngu")
    for depth in range(2, 13):
        # at an odd depth the horizon node is Bob's, and both its children are
        # his give-up leaf: prefer_left continues there, which leaves Alice
        # tied at the root, so only prefer_right gives up at once
        for tiebreak in (families.PREFER_LEFT, families.PREFER_RIGHT)[depth % 2:]:
            solved = families.backward_induction(families.truncate(game, depth), tiebreak)
            assert solved.choice[0] is R  # give up at the root
            assert s2u(solved, "Alice").at(0) == -1
            assert s2u(solved, "Bob").at(0) == 0
            assert nash_eq(solved).holds and sgpe(solved).holds
        all_continue = families.truncate(ngu, depth)
        assert not nash_eq(all_continue).holds
        if depth <= 10:
            # the oracle's enumeration agrees, on the same tree
            assert not oracle.exhaustive_nash(helpers.finite_tree(all_continue)).holds
    infinite_verdict = nash_eq(ngu)
    assert infinite_verdict.holds and "vacuous" in infinite_verdict.note
    print("\n[criterion 8] PASS - every finite truncation rejects escalation, the "
          "infinite game licenses it (verdict flip at the threshold)")


def test_c09_histories():
    alpha0 = LassoHistory((), (L, R))
    beta0 = canonicalize(LassoHistory((L, R), (L, R)))
    assert h_bisimilar(alpha0, beta0)
    rng = random.Random(2024)
    for _ in range(1000):
        h = helpers.random_lasso(rng)
        if in_h1(h):
            assert in_h2(h)
    ngu = families.dollar_auction_strategy("ngu")
    history = strategy_history(ngu)
    assert h_bisimilar(history, LassoHistory((), (L, L)))
    assert is_history_of(strategy_to_game(ngu), history)
    assert is_history_of(families.dollar_auction_game(), history)
    print("\n[criterion 9] PASS - alternating histories bisimilar, H1 => H2 on 1000 "
          "lassos, escalation history is (ll)^w and a history of the game")


def test_c10_dsl_round_trip_and_shipped_files():
    for seed in range(500):
        sys_ = helpers.random_system(seed)
        assert dsl.parse(dsl.render(sys_)) == sys_
    shipped = {
        "dollar_auction.cog": families.dollar_auction_game(),
        "dollar_auction_agu.cog": families.dollar_auction_strategy("agu"),
        "dollar_auction_ngu.cog": families.dollar_auction_strategy("ngu"),
        "centipede.cog": families.centipede_game(),
        "centipede_agu.cog": families.centipede_strategy("agu"),
        "centipede_ngu.cog": families.centipede_strategy("ngu"),
        "paper_s0.cog": families.finite_example_strategy(),
    }
    for name, expected in shipped.items():
        assert dsl.parse((GAMES / name).read_text()) == expected, name
    print("\n[criterion 10] PASS - parse/render identity on 500 seeded systems; shipped "
          "files equal the constructors' systems")
