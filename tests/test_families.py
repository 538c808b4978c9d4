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
    alw_leads_to_leaf,
    bisimilar_bounded,
    h_bisimilar,
    is_parametric,
    leads_to_leaf,
    strategy_history,
    strategy_to_game,
    unfold,
    validate,
)
from cogames import families, oracle
from cogames.families import (
    NoLeafAtHorizonError,
    TreeTooLargeError,
    centipede_game,
    centipede_strategy,
    dollar_auction_game,
    dollar_auction_strategy,
    finite_example_game,
    truncate,
)


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
        assert isinstance(t, oracle.GameNode) and t.owner == "Alice"
        assert t.left == oracle.Leaf({"Alice": -1, "Bob": 0})
        assert t.right == oracle.Leaf({"Alice": -1, "Bob": 0})

    def test_depth_six_backward_induction_gives_up_at_once(self):
        t = truncate(dollar_auction_game(), 6)
        for tiebreak in (oracle.PREFER_LEFT, oracle.PREFER_RIGHT):
            solved = oracle.backward_induction(t, tiebreak)
            assert solved.choice is Choice.R
            assert oracle.finite_utility(solved, "Alice") == -1
            assert oracle.finite_utility(solved, "Bob") == 0

    def test_centipede_all_continue_is_not_nash(self):
        t = truncate(centipede_strategy("ngu"), 10)
        v = oracle.exhaustive_nash(t)
        assert not v.holds
        # the profitable stop is the last mover's
        assert v.certificate["deviation_value"] > v.certificate["on_path_value"]

    def test_strategy_truncation_preserves_choices(self):
        t = truncate(dollar_auction_strategy("agu"), 3)
        assert isinstance(t, oracle.StrategyNode) and t.choice is Choice.R

    def test_payoffs_are_plain_integers(self):
        t = truncate(centipede_game(), 4)

        def leaves(node):
            if isinstance(node, oracle.Leaf):
                yield node
            else:
                yield from leaves(node.left)
                yield from leaves(node.right)

        for leaf in leaves(t):
            assert all(isinstance(v, int) for v in leaf.payoffs.values())

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
                assert prune(truncate(sys_, d), d) == prune(truncate(sys_, d + 1), d)

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
                nodes = oracle.size(truncate(sys_, d))
                monkeypatch.setattr(families, "MAX_TREE_NODES", nodes)
                assert oracle.size(truncate(sys_, d)) == nodes
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
