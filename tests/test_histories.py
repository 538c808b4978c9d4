import math
import random

from cogames import (
    Choice,
    CoSystem,
    GAME,
    Affine,
    LassoHistory,
    Leaf,
    Node,
    Ref,
    STRATEGY,
    canonicalize,
    format_lasso,
    h_bisimilar,
    in_h1,
    in_h2,
    is_finite,
    is_history_of,
    parse_lasso,
    strategy_history,
    strategy_to_game,
)
from cogames.families import (
    centipede_strategy,
    dollar_auction_game,
    dollar_auction_strategy,
    finite_example_game,
)

import helpers

L, R = Choice.L, Choice.R


class TestCanonicalize:
    def test_prefix_absorption_rotates_the_cycle(self):
        h = LassoHistory((L,), (R, L))
        assert canonicalize(h) == LassoHistory((), (L, R))

    def test_primitive_root(self):
        h = LassoHistory((), (L, R, L, R))
        assert canonicalize(h) == LassoHistory((), (L, R))

    def test_finite_already_canonical(self):
        h = LassoHistory((L, L), ())
        assert canonicalize(h) == h

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(300):
            h = canonicalize(helpers.random_lasso(rng))
            assert canonicalize(h) == h


def words_equal_by_expansion(a: LassoHistory, b: LassoHistory) -> bool:
    if a.finite != b.finite:
        return False
    if a.finite:
        return a.prefix == b.prefix
    n = len(a.prefix) + len(b.prefix) + 2 * math.lcm(len(a.cycle), len(b.cycle))
    return a.expand(n) == b.expand(n)


def test_expand_stops_at_the_end_of_a_finite_history():
    h = LassoHistory((L, R, R))
    assert h.expand(2) == (L, R)
    assert h.expand(5) == (L, R, R)
    assert LassoHistory((L,), (R,)).expand(4) == (L, R, R, R)


class TestHBisimilar:
    def test_alternating_presentations(self):
        # one-step vs two-step presentations of the same alternating word
        alpha = LassoHistory((), (L, R))
        beta = LassoHistory((L, R), (L, R))
        assert h_bisimilar(alpha, beta)

    def test_head_difference(self):
        assert not h_bisimilar(LassoHistory((L,)), LassoHistory((R,)))

    def test_rotated_lasso(self):
        a = LassoHistory((), (L, R))
        b = LassoHistory((L,), (R, L))
        assert h_bisimilar(a, b)
        assert a.expand(12) == b.expand(12)

    def test_agrees_with_direct_expansion(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b = helpers.random_lasso(rng), helpers.random_lasso(rng)
            assert h_bisimilar(a, b) == words_equal_by_expansion(a, b)

    def test_equivalence_relation(self):
        rng = random.Random(13)
        for _ in range(200):
            a = helpers.random_lasso(rng)
            b = canonicalize(a)
            c = LassoHistory(a.prefix + a.cycle, a.cycle) if not a.finite else a
            assert h_bisimilar(a, a)
            assert h_bisimilar(a, b) and h_bisimilar(b, a)
            assert h_bisimilar(a, c) and h_bisimilar(b, c)


def ends_in_all_l_by_expansion(h: LassoHistory) -> bool:
    if h.finite:
        return True
    window = len(h.prefix) + 2 * len(h.cycle)
    tail = h.expand(window + 50)[window:]
    return all(c is L for c in tail)


class TestFamilies:
    def test_finite_histories_in_both(self):
        h = LassoHistory((R, R))
        assert in_h1(h) and in_h2(h)

    def test_trailing_l_run(self):
        assert in_h1(LassoHistory((R,), (L,)))

    def test_cycle_memberships(self):
        all_r = LassoHistory((), (R,))
        assert not in_h1(all_r) and not in_h2(all_r)
        alt = LassoHistory((), (L, R))
        assert not in_h1(alt) and in_h2(alt)
        # cross-check against a 50-symbol expansion
        assert not any(c is L for c in all_r.expand(50))
        assert sum(1 for c in alt.expand(50) if c is L) == 25

    def test_chain_on_generated_lassos(self):
        rng = random.Random(17)
        for _ in range(1000):
            h = helpers.random_lasso(rng)
            if in_h1(h):
                assert in_h2(h)
            if h.finite:
                assert in_h1(h) and in_h2(h)
            assert in_h1(h) == ends_in_all_l_by_expansion(h)


class TestIsHistoryOf:
    def test_escalation_path_exists(self):
        game = dollar_auction_game()
        assert is_history_of(game, LassoHistory((), (L, L)))

    def test_empty_history_everywhere(self):
        assert is_history_of(dollar_auction_game(), LassoHistory(()))
        assert is_history_of(finite_example_game(), LassoHistory(()))

    def test_leaf_blocks_the_walk(self):
        one_leaf = CoSystem(GAME, ("A",), (Leaf({"A": Affine.const(0)}),))
        assert not is_history_of(one_leaf, LassoHistory((L,)))

    def test_interior_ending_finite_history_accepted(self):
        assert is_history_of(finite_example_game(), LassoHistory((R,)))

    def test_give_up_tail_is_not_a_history(self):
        game = dollar_auction_game()
        assert is_history_of(game, LassoHistory((L, R)))
        assert not is_history_of(game, LassoHistory((R, R)))
        assert not is_history_of(game, LassoHistory((), (R,)))


class TestStrategyHistory:
    def test_always_give_up_is_immediate(self):
        h = strategy_history(dollar_auction_strategy("agu"))
        assert h == LassoHistory((R,))
        assert len(h.prefix) <= 2

    def test_escalation_lasso(self):
        h = strategy_history(dollar_auction_strategy("ngu"))
        assert h_bisimilar(h, LassoHistory((), (L, L)))
        assert h == LassoHistory((), (L,))  # canonical form

    def test_leaf_strategy_empty_history(self):
        s = CoSystem(STRATEGY, ("A",), (Leaf({"A": Affine.const(0)}),))
        assert strategy_history(s) == LassoHistory(())

    def test_history_of_the_underlying_game(self):
        pool = [dollar_auction_strategy("agu"), dollar_auction_strategy("ngu"),
                centipede_strategy("agu"), centipede_strategy("ngu")]
        pool += [helpers.random_system(seed, kind=STRATEGY) for seed in range(60)]
        for s in pool:
            assert is_history_of(strategy_to_game(s), strategy_history(s))

    def test_infinite_history_implies_infinite_strategy(self):
        for seed in range(80):
            s = helpers.random_system(seed, kind=STRATEGY)
            if not strategy_history(s).finite:
                assert not is_finite(s)


class TestIsFinite:
    def test_examples(self):
        assert is_finite(finite_example_game())
        assert not is_finite(dollar_auction_strategy("agu"))
        assert is_finite(CoSystem(GAME, ("A",), (Leaf({"A": Affine.const(0)}),)))

    def test_acyclic_but_parametric_is_not_finite(self):
        s = CoSystem(GAME, ("A",), (
            Node("A", None, Ref(1, 1), Ref(1, 0)),
            Leaf({"A": Affine(1, 0)}),
        ))
        assert not is_finite(s)


class TestLassoText:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            h = helpers.random_lasso(rng)
            assert parse_lasso(format_lasso(h)) == h

    def test_examples(self):
        assert format_lasso(LassoHistory((L, R), (L, R))) == "lr(lr)^w"
        assert format_lasso(LassoHistory((L, L))) == "ll"
        assert parse_lasso("l(lr)^w") == LassoHistory((L,), (L, R))
        assert parse_lasso("") == LassoHistory(())
