import random

import pytest

from cogames import (
    Affine,
    Choice,
    CoSystem,
    GAME,
    KindMismatchError,
    Leaf,
    Node,
    ParametricUnsupportedError,
    Ref,
    STRATEGY,
    annotate,
    bisimilar,
    bisimilar_bounded,
    is_parametric,
    strategy_to_game,
    unfold,
    validate,
    with_root,
)
from cogames.system import sccs
from cogames.families import (
    dollar_auction_game,
    dollar_auction_strategy,
    finite_example_game,
)

import helpers


def leaf_system(value=1, slope=0, kind=STRATEGY):
    return CoSystem(kind, ("A",), (Leaf({"A": Affine(slope, value)}),))


class TestValidate:
    def test_smallest_wellformed_system(self):
        assert validate(leaf_system()).holds

    def test_dollar_auction_systems_accept(self):
        assert validate(dollar_auction_strategy("agu")).holds
        assert validate(dollar_auction_strategy("ngu")).holds
        assert validate(dollar_auction_game()).holds

    def test_game_node_with_choice_rejected(self):
        bad = CoSystem(GAME, ("A",), (
            Node("A", Choice.L, Ref(1), Ref(1)),
            Leaf({"A": Affine.const(0)}),
        ))
        v = validate(bad)
        assert not v.holds and v.certificate["error"] == "ExtraChoice"
        assert v.certificate["class"] == 0

    def test_strategy_node_without_choice_rejected(self):
        bad = CoSystem(STRATEGY, ("A",), (
            Node("A", None, Ref(1), Ref(1)),
            Leaf({"A": Affine.const(0)}),
        ))
        assert validate(bad).certificate["error"] == "MissingChoice"

    def test_dangling_reference_rejected(self):
        bad = CoSystem(GAME, ("A",), (Node("A", None, Ref(5), Ref(0)),))
        assert validate(bad).certificate["error"] == "InvalidRef"

    def test_empty_roster_rejected(self):
        bad = CoSystem(GAME, (), (Leaf({}),))
        assert validate(bad).certificate["error"] == "EmptyRoster"

    def test_payoff_domain_must_match_roster(self):
        bad = CoSystem(GAME, ("A", "B"), (Leaf({"A": Affine.const(0)}),))
        assert validate(bad).certificate["error"] == "PayoffDomain"

    def test_random_generated_systems_validate(self):
        for seed in range(100):
            assert validate(helpers.random_system(seed)).holds


class TestUnfold:
    def test_leaf_offset_folding(self):
        sys_ = leaf_system(value=1, slope=2)
        head = unfold(sys_, Ref(0, 3))
        assert head.payoffs["A"] == Affine(2, 7)  # 2*3 + 1

    def test_dollar_auction_root_head(self):
        agu = dollar_auction_strategy("agu")
        head = unfold(agu)
        assert isinstance(head, Node)
        assert head.owner == "Alice" and head.choice is Choice.R
        assert head.left == Ref(1, 0)      # Bob's class, same index
        assert isinstance(agu.classes[head.right.cls], Leaf)

    def test_backbone_recurrence(self):
        agu = dollar_auction_strategy("agu")
        first = unfold(agu)
        second = unfold(agu, first.left)
        assert second.owner == "Bob"
        third = unfold(agu, second.left)
        assert third.owner == "Alice" and third.left.shift == 1

    def test_folding_exactness_sampled(self):
        for seed in range(40):
            sys_ = helpers.random_system(seed)
            for cls_id, cls in enumerate(sys_.classes):
                if not isinstance(cls, Leaf):
                    continue
                for k in (0, 1, 5):
                    head = unfold(sys_, Ref(cls_id, k))
                    for agent, f in cls.payoffs.items():
                        for m in range(-3, 4):
                            assert head.payoffs[agent].at(m) == f.at(m + k)

    def test_decomposition_reembedding(self):
        # re-rooting the one-step observation denotes the same subtree
        for seed in range(30):
            sys_ = helpers.random_system(seed)
            for cls_id in range(len(sys_.classes)):
                ref = Ref(cls_id, seed % 3)
                head = unfold(sys_, ref)
                reembedded = CoSystem(sys_.kind, sys_.roster,
                                      sys_.classes + (head,),
                                      Ref(len(sys_.classes), 0))
                assert validate(reembedded).holds
                v = bisimilar_bounded(with_root(sys_, ref), reembedded, 10)
                assert v.holds, v.certificate


class TestIsParametric:
    def test_families(self):
        assert is_parametric(dollar_auction_strategy("agu"))
        assert is_parametric(dollar_auction_game())

    def test_finite_example_game_is_not(self):
        assert not is_parametric(finite_example_game())

    def test_constant_leaf_is_not(self):
        assert not is_parametric(leaf_system())
        assert is_parametric(leaf_system(slope=2))

    def test_unreachable_offsets_do_not_count(self):
        sys_ = CoSystem(GAME, ("A",), (
            Leaf({"A": Affine.const(1)}),
            Node("A", None, Ref(0, 5), Ref(0, 5)),
        ), Ref(0))
        assert not is_parametric(sys_)


def left_comb_one_class():
    # X = <A, X, leaf 1>
    return CoSystem(GAME, ("A",), (
        Node("A", None, Ref(0), Ref(1)),
        Leaf({"A": Affine.const(1)}),
    ))


def left_comb_two_classes():
    # X = <A, Y, leaf 1>, Y = <A, X, leaf 1>: same tree, two mutually
    # referring presentations
    return CoSystem(GAME, ("A",), (
        Node("A", None, Ref(2), Ref(1)),
        Leaf({"A": Affine.const(1)}),
        Node("A", None, Ref(0), Ref(3)),
        Leaf({"A": Affine.const(1)}),
    ))


class TestBisimilar:
    def test_reflexive_with_diagonal_relation(self):
        for seed in range(30):
            sys_ = helpers.random_system(seed, parametric=False)
            v = bisimilar(sys_, sys_)
            assert v.holds
            assert all(a == b for a, b in v.certificate["relation"])

    def test_left_comb_presentations(self):
        a, b = left_comb_one_class(), left_comb_two_classes()
        assert bisimilar(a, b).holds
        assert bisimilar_bounded(a, b, 20).holds  # cross-check by unrolling

    def test_distinct_leaf_payoffs_distinguished_at_root(self):
        a = leaf_system(value=1)
        b = leaf_system(value=2)
        v = bisimilar(a, b)
        assert not v.holds
        assert v.certificate["path"] == []

    def test_parametric_inputs_rejected(self):
        with pytest.raises(ParametricUnsupportedError):
            bisimilar(dollar_auction_game(), dollar_auction_game())

    def test_kind_mismatch_rejected(self):
        with pytest.raises(KindMismatchError):
            bisimilar(leaf_system(kind=GAME), leaf_system(kind=STRATEGY))

    def test_equivalence_on_generated_instances(self):
        for seed in range(25):
            s = helpers.random_system(seed, parametric=False)
            t = helpers.unrolled_variant(s, seed + 1)
            u = helpers.unrolled_variant(t, seed + 2)
            assert bisimilar(s, t).holds and bisimilar(t, s).holds  # symmetry
            assert bisimilar(t, u).holds
            assert bisimilar(s, u).holds  # transitivity along the chain

    def test_mutant_is_distinguished_symmetrically(self):
        for seed in range(25):
            s = helpers.random_system(seed, parametric=False)
            leaf_id = helpers.first_reachable_leaf(s)
            if leaf_id is None:
                continue
            m = helpers.payoff_mutant(s, leaf_id)
            assert not bisimilar(s, m).holds
            assert not bisimilar(m, s).holds

    def test_exact_implies_bounded(self):
        for seed in range(20):
            s = helpers.random_system(seed, parametric=False)
            t = helpers.unrolled_variant(s, seed + 100)
            assert bisimilar(s, t).holds
            for depth in (0, 1, 5, 30):
                assert bisimilar_bounded(s, t, depth).holds


class TestBisimilarBounded:
    def test_reflexive_on_parametric(self):
        agu = dollar_auction_strategy("agu")
        assert bisimilar_bounded(agu, agu, 50).holds

    def test_agu_vs_ngu_distinguished_at_the_root(self):
        agu = dollar_auction_strategy("agu")
        ngu = dollar_auction_strategy("ngu")
        v = bisimilar_bounded(agu, ngu, 1)
        assert not v.holds and v.certificate["path"] == []

    def test_depth_zero_compares_only_the_root_head(self):
        # identical heads, children differ: depth 0 cannot see it
        a = CoSystem(GAME, ("A",), (
            Node("A", None, Ref(1), Ref(1)),
            Leaf({"A": Affine.const(0)}),
        ))
        b = CoSystem(GAME, ("A",), (
            Node("A", None, Ref(1), Ref(1)),
            Leaf({"A": Affine.const(9)}),
        ))
        assert bisimilar_bounded(a, b, 0).holds
        assert not bisimilar_bounded(a, b, 1).holds


class TestErasure:
    def test_erased_strategies_play_the_family_game(self):
        game = dollar_auction_game()
        for kind in ("agu", "ngu"):
            erased = strategy_to_game(dollar_auction_strategy(kind))
            for depth in (0, 5, 12, 24):
                assert bisimilar_bounded(erased, game, depth).holds

    def test_leaf_erasure_identity(self):
        s = leaf_system()
        assert strategy_to_game(s).classes == s.classes

    def test_reannotation_round_trip(self):
        agu = dollar_auction_strategy("agu")
        game = strategy_to_game(agu)
        choices = {i: cls.choice for i, cls in enumerate(agu.classes) if isinstance(cls, Node)}
        assert annotate(game, choices) == agu


def closure(edges: dict[int, list[int]], start: int) -> set[int]:
    seen, todo = {start}, [start]
    while todo:
        for w in edges[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


class TestSccs:
    def test_matches_mutual_reachability_in_reverse_topological_order(self):
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 10)
            edges = {v: [rng.randrange(n) for _ in range(rng.randint(0, 3))] for v in range(n)}
            for v in rng.sample(range(n), rng.randint(0, n)):
                edges[v].append(v)  # self-loops
            reach = {v: closure(edges, v) for v in range(n)}
            comps = sccs(range(n), lambda v: edges[v])
            expected = {frozenset(w for w in reach[v] if v in reach[w]) for v in range(n)}
            assert sorted(map(sorted, comps)) == sorted(map(sorted, expected))
            position = {v: i for i, comp in enumerate(comps) for v in comp}
            for v in range(n):
                assert all(position[w] <= position[v] for w in edges[v])

    def test_covers_only_what_the_start_nodes_reach(self):
        edges = {0: [1], 1: [0], 2: [0], 3: [3]}
        assert sorted(map(sorted, sccs([0], lambda v: edges[v]))) == [[0, 1]]

    def test_long_path_needs_no_recursion(self):
        n = 20000
        comps = sccs([0], lambda v: [v + 1] if v + 1 < n else [0])
        assert len(comps) == 1 and len(comps[0]) == n
