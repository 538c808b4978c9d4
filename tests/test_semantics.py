import pytest

from cogames import (
    Affine,
    Choice,
    CoSystem,
    KindMismatchError,
    Leaf,
    Node,
    Ref,
    STRATEGY,
    alw_leads_to_leaf,
    leads_to_leaf,
    s2u,
    utility_from,
    with_root,
    reachable,
)
from cogames import oracle
from cogames.semantics import play_table
from cogames.families import (
    dollar_auction_game,
    dollar_auction_strategy,
    finite_example_strategy,
)

import helpers


class TestLeadsToLeaf:
    def test_escalation_cycles_through_both_owners(self):
        v = leads_to_leaf(dollar_auction_strategy("ngu"))
        assert not v.holds
        assert v.certificate["cycle"] == [0, 1]
        assert v.certificate["owners"] == ["Alice", "Bob"]

    def test_give_up_reaches_a_leaf_in_one_step(self):
        v = leads_to_leaf(dollar_auction_strategy("agu"))
        assert v.holds
        assert v.certificate["choices"] == ["r"]
        assert len(v.certificate["path"]) == 2

    def test_leaf_holds_with_empty_path(self):
        s = CoSystem(STRATEGY, ("A",), (Leaf({"A": Affine.const(3)}),))
        v = leads_to_leaf(s)
        assert v.holds and v.certificate["choices"] == []

    def test_rejects_games(self):
        with pytest.raises(KindMismatchError):
            leads_to_leaf(dollar_auction_game())

    def test_terminates_within_class_bound(self):
        for seed in range(120):
            s = helpers.random_system(seed, kind=STRATEGY)
            v = leads_to_leaf(s)
            if v.holds:
                assert len(v.certificate["choices"]) <= len(s.classes)
            else:
                assert 1 <= len(v.certificate["cycle"]) <= len(s.classes)


def escalating_off_path() -> CoSystem:
    """Root leads to a leaf but the unchosen subtree escalates forever."""
    return CoSystem(STRATEGY, ("A", "B"), (
        Node("A", Choice.R, Ref(1), Ref(2)),
        Node("B", Choice.L, Ref(1, 1), Ref(2)),
        Leaf({"A": Affine.const(0), "B": Affine.const(0)}),
    ))


class TestAlwLeadsToLeaf:
    def test_give_up_everywhere(self):
        v = alw_leads_to_leaf(dollar_auction_strategy("agu"))
        assert v.holds
        assert {row["class"] for row in v.certificate["classes"]} == {0, 1, 2, 3}

    def test_escalation_fails_at_the_root_class(self):
        v = alw_leads_to_leaf(dollar_auction_strategy("ngu"))
        assert not v.holds
        assert v.certificate["class"] == 0

    def test_off_path_escalation_separates_the_predicates(self):
        s = escalating_off_path()
        assert leads_to_leaf(s).holds
        v = alw_leads_to_leaf(s)
        assert not v.holds and v.certificate["class"] == 1

    def test_implies_ltl_at_root_and_is_suffix_closed(self):
        pool = [dollar_auction_strategy("agu")]
        pool += [helpers.random_terminating_strategy(seed) for seed in range(40)]
        for s in pool:
            assert alw_leads_to_leaf(s).holds
            assert leads_to_leaf(s).holds
            for cls_id in reachable(s):
                assert alw_leads_to_leaf(with_root(s, Ref(cls_id, 0))).holds


    def test_holding_rows_replay_by_the_local_rule(self):
        pool = [dollar_auction_strategy("agu")]
        pool += [helpers.random_terminating_strategy(seed) for seed in range(60)]
        for s in pool:
            v = alw_leads_to_leaf(s)
            rows = {row["class"]: row for row in v.certificate["classes"]}
            assert set(rows) == set(reachable(s))
            for cls_id, row in rows.items():
                cls = s.classes[cls_id]
                if isinstance(cls, Leaf):
                    assert (row["leaf"], row["steps"]) == (cls_id, 0)
                else:
                    nxt = rows[cls.child(cls.choice).cls]
                    assert (row["leaf"], row["steps"]) == (nxt["leaf"], nxt["steps"] + 1)


class TestPlayTable:
    def test_agrees_with_the_walk_from_every_class(self):
        pool = [helpers.random_system(seed, kind=STRATEGY, max_classes=8) for seed in range(300)]
        pool += [helpers.random_terminating_strategy(seed) for seed in range(100)]
        for s in pool:
            table = play_table(s)
            for cls_id in range(len(s.classes)):
                walk = leads_to_leaf(s, Ref(cls_id, 0))
                if not walk.holds:
                    assert table[cls_id] is None
                    continue
                last = walk.certificate["path"][-1]
                assert table[cls_id] == (last["class"], last["shift"], len(walk.certificate["choices"]))

    def test_rejects_games(self):
        with pytest.raises(KindMismatchError):
            play_table(dollar_auction_game())


class TestS2u:
    def test_worked_example_value(self):
        assert s2u(finite_example_strategy(), "Alice").at(0) == 2

    def test_leaf_rule(self):
        s = CoSystem(STRATEGY, ("A",), (Leaf({"A": Affine(2, 5)}),))
        assert s2u(s, "A") == Affine(2, 5)

    def test_escalation_has_no_utility(self):
        assert s2u(dollar_auction_strategy("ngu"), "Alice") is None

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError):
            s2u(finite_example_strategy(), "Mallory")

    def test_existence_on_terminating_strategies(self):
        for seed in range(60):
            s = helpers.random_terminating_strategy(seed)
            for agent in s.roster:
                assert s2u(s, agent) is not None

    def test_uniqueness_against_recursive_oracle(self):
        trees = helpers.finite_corpus(150, oracle.random_strategy, max_size=12)
        for tree in trees:
            emb = oracle.embed(tree)
            for agent in emb.roster:
                assert s2u(emb, agent).at(0) == oracle.finite_utility(tree, agent)

    def test_offset_accumulation(self):
        # root at class 0 reaches the leaf two shifts deep: K = 3
        s = CoSystem(STRATEGY, ("A",), (
            Node("A", Choice.L, Ref(1, 1), Ref(2)),
            Node("A", Choice.L, Ref(2, 2), Ref(2)),
            Leaf({"A": Affine(10, 1)}),
        ))
        assert s2u(s, "A") == Affine(10, 31)
        assert utility_from(s, Ref(1, 0), "A") == Affine(10, 21)


class TestMonotonicity:
    def test_unreachable_class_never_changes_verdicts(self):
        from cogames import nash_eq, sgpe

        for seed in range(40):
            s = helpers.random_system(seed, kind=STRATEGY)
            junk = Leaf({a: Affine(1, 7) for a in s.roster})
            padded = CoSystem(s.kind, s.roster, s.classes + (junk,), s.root)
            assert leads_to_leaf(s).holds == leads_to_leaf(padded).holds
            assert alw_leads_to_leaf(s).holds == alw_leads_to_leaf(padded).holds
            assert nash_eq(s).holds == nash_eq(padded).holds
            assert sgpe(s).holds == sgpe(padded).holds
            for agent in s.roster:
                assert s2u(s, agent) == s2u(padded, agent)
