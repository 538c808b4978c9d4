import pytest

from cogames import (
    Affine,
    Choice,
    CoSystem,
    GAME,
    LassoHistory,
    Leaf,
    Node,
    Ref,
    STRATEGY,
    alw_leads_to_leaf,
    bisimilar_bounded,
    h_bisimilar,
    is_finite,
    is_parametric,
    leads_to_leaf,
    nash_eq,
    s2u,
    sgpe,
    strategy_history,
    strategy_to_game,
    unfold,
    validate,
)
from cogames import families, oracle
from cogames.dsl import parse, render
from cogames.families import (
    PREFER_LEFT,
    PREFER_RIGHT,
    NoLeafAtHorizonError,
    TreeTooLargeError,
    backward_induction,
    centipede_game,
    centipede_strategy,
    dollar_auction_game,
    dollar_auction_strategy,
    finite_example_game,
    truncate,
)

import helpers


class TestConstructors:
    def test_all_validate_and_are_parametric(self):
        for sys_ in (dollar_auction_game(), centipede_game(),
                     dollar_auction_strategy("agu"), dollar_auction_strategy("ngu"),
                     centipede_strategy("agu"), centipede_strategy("ngu")):
            assert validate(sys_).holds
            assert is_parametric(sys_)

    def test_unknown_strategy_kind_rejected(self):
        with pytest.raises(ValueError):
            dollar_auction_strategy("sometimes")

    def test_dollar_auction_root_leaf_payoffs(self):
        head = unfold(dollar_auction_game())
        leaf = unfold(dollar_auction_game(), head.right)
        assert leaf.payoffs["Alice"].at(0) == -1
        assert leaf.payoffs["Bob"].at(0) == 0

    def test_dollar_auction_bob_leaf_payoffs(self):
        game = dollar_auction_game()
        bob = unfold(game, unfold(game).left)
        leaf = unfold(game, bob.right)
        assert leaf.payoffs["Alice"].at(0) == -1
        assert leaf.payoffs["Bob"].at(0) == -2

    def test_centipede_stop_leaf_at_next_round(self):
        # Alice's stop leaf one round in pays (2, 2)
        leaf = unfold(centipede_game(), Ref(3, 1))
        assert leaf.payoffs["Alice"].at(0) == 2
        assert leaf.payoffs["Bob"].at(0) == 2

    def test_centipede_utilities_increase(self):
        leaf = centipede_game().classes[3]
        values = [leaf.payoffs["Alice"].at(n) for n in range(5)]
        assert values == sorted(values) and values[0] < values[-1]

    def test_terminating_and_escalating_strategies(self):
        for build in (dollar_auction_strategy, centipede_strategy):
            assert alw_leads_to_leaf(build("agu")).holds
            assert not leads_to_leaf(build("ngu")).holds

    def test_histories(self):
        assert strategy_history(dollar_auction_strategy("agu")) == LassoHistory((Choice.R,))
        assert h_bisimilar(strategy_history(dollar_auction_strategy("ngu")),
                           LassoHistory((), (Choice.L, Choice.L)))

    def test_erased_strategies_are_the_game(self):
        for game, build in ((dollar_auction_game(), dollar_auction_strategy),
                            (centipede_game(), centipede_strategy)):
            for kind in ("agu", "ngu"):
                erased = strategy_to_game(build(kind))
                assert erased == game  # same classes, stronger than bisimilarity
                for depth in (0, 8, 20):
                    assert bisimilar_bounded(erased, game, depth).holds


class TestTruncate:
    def test_depth_zero_degenerate_horizon(self):
        t = truncate(dollar_auction_game(), 0)
        give_up = Leaf({"Alice": Affine.const(-1), "Bob": Affine.const(0)})
        assert t == CoSystem(GAME, ("Alice", "Bob"),
                             (Node("Alice", None, Ref(1), Ref(2)), give_up, give_up))

    def test_depth_six_backward_induction_gives_up_at_once(self):
        t = truncate(dollar_auction_game(), 6)
        for tiebreak in (PREFER_LEFT, PREFER_RIGHT):
            solved = backward_induction(t, tiebreak)
            assert solved.kind == STRATEGY and solved.choice[0] is Choice.R
            assert s2u(solved, "Alice").at(0) == -1
            assert s2u(solved, "Bob").at(0) == 0
            # the oracle's tree, solved by the oracle
            reference = oracle.backward_induction(helpers.finite_tree(t), tiebreak)
            assert helpers.finite_tree(solved) == reference

    def test_centipede_all_continue_is_not_nash(self):
        t = truncate(centipede_strategy("ngu"), 10)
        v = nash_eq(t)
        assert not v.holds
        # the profitable stop is the last mover's, as the oracle finds by enumeration
        exhaustive = oracle.exhaustive_nash(helpers.finite_tree(t))
        assert not exhaustive.holds
        for key in ("agent", "on_path_value", "deviation_value"):
            assert v.certificate[key] == exhaustive.certificate[key]
        assert v.certificate["deviation_value"] > v.certificate["on_path_value"]

    def test_strategy_truncation_preserves_choices(self):
        t = truncate(dollar_auction_strategy("agu"), 3)
        assert t.kind == STRATEGY
        assert all(c is Choice.R for c, o in zip(t.choice, t.owner) if o is not None)

    def test_kind_and_roster_follow_the_input(self):
        root_leaf = CoSystem(GAME, ("B", "A"), (Leaf({"A": Affine(1, 2), "B": Affine(0, 3)}),))
        for sys_ in (root_leaf, dollar_auction_game(), centipede_strategy("ngu")):
            for d in (0, 3):
                t = truncate(sys_, d)
                assert (t.kind, t.roster, t.root) == (sys_.kind, sys_.roster, Ref(0))
        assert render(truncate(root_leaf, 0)) == "game agents A B\nc0(n) = leaf[A: 2, B: 3]\nroot c0\n"

    def test_payoffs_are_constants_and_refs_unshifted(self):
        t = truncate(centipede_game(), 4)
        for entry in t.payoff:
            if entry is not None:
                assert all(isinstance(v, int) for v in entry) and not any(entry[::2])
        assert not any(t.left_shift) and not any(t.right_shift)

    def test_classes_are_numbered_as_the_oracle_embeds_the_tree(self):
        for sys_ in (dollar_auction_game(), centipede_game(), centipede_strategy("agu"),
                     finite_example_game()):
            for d in range(0, 7):
                t = truncate(sys_, d)
                assert oracle.embed(helpers.finite_tree(t)) == t

    def test_adjacent_depths_agree_on_the_shared_prefix(self):
        def prune(node, levels):
            if levels == 0:
                return "..."
            if isinstance(node, oracle.Leaf):
                return node
            return (node.owner, getattr(node, "choice", None),
                    prune(node.left, levels - 1), prune(node.right, levels - 1))

        for sys_ in (dollar_auction_game(), centipede_game(), centipede_strategy("agu")):
            for d in range(0, 6):
                shallow, deep = (helpers.finite_tree(truncate(sys_, k)) for k in (d, d + 1))
                assert prune(shallow, d) == prune(deep, d)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            truncate(dollar_auction_game(), -1)

    def test_no_leaf_at_horizon(self):
        both_nodes = CoSystem(GAME, ("A",), (
            Node("A", None, Ref(0), Ref(0)),
        ))
        with pytest.raises(NoLeafAtHorizonError):
            truncate(both_nodes, 0)

    def test_node_bound_counts_every_node(self, monkeypatch):
        for sys_ in (dollar_auction_game(), centipede_strategy("ngu"), finite_example_game()):
            for d in (0, 1, 7):
                nodes = len(truncate(sys_, d).owner)
                assert nodes == oracle.size(helpers.finite_tree(truncate(sys_, d)))
                monkeypatch.setattr(families, "MAX_TREE_NODES", nodes)
                assert len(truncate(sys_, d).owner) == nodes
                monkeypatch.setattr(families, "MAX_TREE_NODES", nodes - 1)
                with pytest.raises(TreeTooLargeError, match=f"more than {nodes - 1} nodes"):
                    truncate(sys_, d)
                monkeypatch.undo()

    def test_doubling_tree_stops_at_the_default_bound(self):
        # x -> y, y on both sides; y -> x and a leaf: twice the nodes every two levels
        doubling = CoSystem(GAME, ("A",), (
            Node("A", None, Ref(1), Ref(1)),
            Node("A", None, Ref(0), Ref(2)),
            Leaf({"A": Affine.const(0)}),
        ))
        with pytest.raises(TreeTooLargeError, match=f"more than {families.MAX_TREE_NODES} nodes"):
            truncate(doubling, 61)


class TestBackwardInduction:
    def test_matches_the_oracle_on_random_trees(self):
        # both tiebreaks; a strategy's own choices are ignored
        games = [helpers.random_game(seed, max_depth=4, payoff_range=(-2, 2)) for seed in range(150)]
        strategies = [helpers.random_strategy(seed, max_depth=4, payoff_range=(-2, 2),
                                              roster=helpers.AGENTS) for seed in range(150)]
        for tree in games + strategies:
            game = oracle.erase_choices(tree)
            for tiebreak in (PREFER_LEFT, PREFER_RIGHT):
                solved = backward_induction(oracle.embed(tree), tiebreak)
                reference = oracle.backward_induction(game, tiebreak)
                assert helpers.finite_tree(solved) == reference
                for agent in oracle.owners(game) | set(solved.roster):
                    assert s2u(solved, agent).at(0) == oracle.finite_utility(reference, agent)

    def test_solution_is_subgame_perfect(self):
        for seed in range(100):
            tree = oracle.embed(helpers.random_game(seed, max_depth=5, payoff_range=(-2, 2)))
            for tiebreak in (PREFER_LEFT, PREFER_RIGHT):
                solved = backward_induction(tree, tiebreak)
                assert nash_eq(solved).holds and sgpe(solved).holds

    @pytest.mark.parametrize("tree", [
        dollar_auction_game(),
        # acyclic, but the left leaf pays A the index: 3 at the root's left child
        parse("game agents A\nc0(n) = <A, c1(n+3), c2(n)>\nc1(n) = leaf[A: n]\n"
              "c2(n) = leaf[A: 1]\nroot c0\n"),
    ])
    def test_refuses_a_tree_that_is_not_finite(self, tree):
        with pytest.raises(ValueError, match="needs a finite tree with constant payoffs"):
            backward_induction(tree)

    def test_solves_children_before_parents_whatever_their_ids(self):
        # class 0 hangs below class 1, and the root does not reach class 4
        tree = parse("game agents A\nc0(n) = <A, c2(n), c3(n)>\nc1(n) = <A, c0(n), c2(n)>\n"
                     "c2(n) = leaf[A: 1]\nc3(n) = leaf[A: 5]\nc4(n) = <A, c4(n), c4(n)>\n"
                     "root c1\n")
        solved = backward_induction(tree, PREFER_RIGHT)
        assert solved.choice == (Choice.R, Choice.L, None, None, Choice.L)
        assert sgpe(solved).holds

    def test_refuses_exactly_the_random_systems_that_are_not_finite(self):
        solved = 0
        for seed in range(3000):
            sys_ = helpers.random_system(seed)
            if not is_finite(sys_):
                with pytest.raises(ValueError, match="needs a finite tree"):
                    backward_induction(sys_)
                continue
            for tiebreak in (PREFER_LEFT, PREFER_RIGHT):
                assert sgpe(backward_induction(sys_, tiebreak)).holds, (seed, tiebreak)
            solved += 1
        assert solved == 62

    def test_unknown_tiebreak_rejected(self):
        with pytest.raises(ValueError, match="unknown tiebreak"):
            backward_induction(truncate(dollar_auction_game(), 1), "prefer_middle")

    def test_nash_eq_agrees_with_exhaustive_nash_on_random_truncations(self):
        decided = 0
        for seed in range(120):
            sys_ = helpers.random_system(seed, STRATEGY)
            for depth in (0, 2, 4):
                try:
                    t = truncate(sys_, depth)
                except NoLeafAtHorizonError:
                    continue
                tree = helpers.finite_tree(t)
                try:
                    exhaustive = oracle.exhaustive_nash(tree)
                except oracle.TooLargeError:
                    continue
                assert nash_eq(t).holds == exhaustive.holds, (seed, depth)
                assert sgpe(t).holds == oracle.finite_sgpe(tree), (seed, depth)
                decided += 1
        assert decided > 200
