import pytest

from cogames import Choice, GAME, STRATEGY, nash_eq, oracle, s2u, validate
from cogames.oracle import (
    GameNode,
    Leaf,
    StrategyNode,
    TooLargeError,
    backward_induction,
    embed,
    erase_choices,
    exhaustive_nash,
    finite_sgpe,
    finite_utility,
    owners,
    size,
    PREFER_LEFT,
    PREFER_RIGHT,
)

import helpers
from helpers import random_game, random_strategy


def worked_example() -> GameNode:
    return GameNode("Alice",
                    Leaf({"Alice": 1, "Bob": 2}),
                    GameNode("Bob",
                             Leaf({"Alice": 2, "Bob": 2}),
                             Leaf({"Alice": 3, "Bob": 2})))


class TestBackwardInduction:
    def test_worked_example_prefer_left(self):
        solved = backward_induction(worked_example(), PREFER_LEFT)
        # Bob is indifferent (2 vs 2) and keeps the left leaf; Alice then
        # prefers the Bob branch over her own leaf 1
        bob = solved.right
        assert bob.choice is Choice.L
        assert solved.choice is Choice.R
        assert finite_utility(solved, "Alice") == 2
        assert finite_utility(solved, "Bob") == 2

    def test_worked_example_prefer_right(self):
        solved = backward_induction(worked_example(), PREFER_RIGHT)
        assert solved.right.choice is Choice.R
        assert finite_utility(solved, "Alice") == 3

    def test_single_leaf(self):
        leaf = Leaf({"A": 5})
        assert backward_induction(leaf) == leaf

    def test_output_is_a_strategy_on_the_input(self):
        for seed in range(120):
            g = random_game(seed)
            for tiebreak in (PREFER_LEFT, PREFER_RIGHT):
                assert erase_choices(backward_induction(g, tiebreak)) == g

    def test_every_subtree_is_optimal(self):
        for seed in range(80):
            solved = backward_induction(random_game(seed), PREFER_LEFT)
            assert finite_sgpe(solved)

    def test_unknown_tiebreak_rejected(self):
        with pytest.raises(ValueError):
            backward_induction(worked_example(), "coin_flip")


class TestExhaustiveNash:
    def test_root_owner_choosing_the_worse_leaf(self):
        s = StrategyNode("A", Choice.L, Leaf({"A": 0}), Leaf({"A": 1}))
        v = exhaustive_nash(s)
        assert not v.holds
        assert v.certificate["deviation_value"] == 1

    def test_backward_induction_profiles_are_nash(self):
        for seed in range(150):
            g = random_game(seed)
            for tiebreak in (PREFER_LEFT, PREFER_RIGHT):
                assert exhaustive_nash(backward_induction(g, tiebreak)).holds

    def test_profile_bound(self, monkeypatch):
        s = Leaf({"A": 0})
        for _ in range(15):
            s = StrategyNode("A", Choice.L, s, Leaf({"A": 0}))
        with pytest.raises(TooLargeError, match="2\\^15 profiles exceed the bound of 16384"):
            exhaustive_nash(s)
        monkeypatch.setattr(oracle, "MAX_PROFILES", 1 << 15)
        assert exhaustive_nash(s).holds


class TestFiniteUtility:
    def test_worked_example_strategy(self):
        s = StrategyNode("Alice", Choice.R,
                         Leaf({"Alice": 1, "Bob": 2}),
                         StrategyNode("Bob", Choice.L,
                                      Leaf({"Alice": 2, "Bob": 2}),
                                      Leaf({"Alice": 3, "Bob": 2})))
        assert finite_utility(s, "Alice") == 2
        assert finite_sgpe(s)

    def test_embed_matches_engine_utilities(self):
        for tree in helpers.finite_corpus(120, random_strategy, max_size=12):
            emb = embed(tree)
            assert validate(emb).holds
            for agent in emb.roster:
                assert s2u(emb, agent).at(0) == finite_utility(tree, agent)


class TestEmbed:
    def test_kind_inference(self):
        assert embed(worked_example()).kind == GAME
        assert embed(StrategyNode("A", Choice.L, Leaf({"A": 0}), Leaf({"A": 1}))).kind == STRATEGY
        assert embed(Leaf({"A": 0})).kind == STRATEGY

    def test_embedding_is_acyclic_nonparametric_and_valid(self):
        from cogames import is_parametric
        from cogames.histories import is_finite

        for seed in range(60):
            emb = embed(random_game(seed))
            assert validate(emb).holds
            assert not is_parametric(emb)
            assert is_finite(emb)


class TestGenerators:
    def test_deterministic_in_the_seed(self):
        assert random_game(1, max_depth=3) == random_game(1, max_depth=3)
        assert random_strategy(9) == random_strategy(9)
        assert random_game(1) != random_game(2)

    def test_respects_max_depth(self):
        def depth(t):
            if isinstance(t, Leaf):
                return 0
            return 1 + max(depth(t.left), depth(t.right))

        for seed in range(40):
            assert depth(random_game(seed, max_depth=3)) <= 3

    def test_owners_and_sizes(self):
        g = random_game(4, roster=("P", "Q", "R"))
        assert owners(g) <= {"P", "Q", "R"}
        assert size(g) >= 1
