import sys
import threading

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
    nash_eq,
    s2u,
    utility_from,
    with_root,
    reachable,
)
from cogames import cli, oracle
from cogames.semantics import play_table, utility_columns
from cogames.families import (
    dollar_auction_game,
    dollar_auction_strategy,
    finite_example_strategy,
)

import helpers


class TestLeadsToLeaf:
    def test_escalation_cycles_through_both_owners(self):
        s = dollar_auction_strategy("ngu")
        v = leads_to_leaf(s)
        assert not v.holds
        assert v.certificate == {"cycle": [0, 1], "entered_after": 0, "choices": ["l", "l"]}
        # the owners are the system's, read at the classes the cycle names
        assert [s.owner[c] for c in v.certificate["cycle"]] == ["Alice", "Bob"]
        helpers.replay_walk(s, v.certificate)

    def test_give_up_reaches_a_leaf_in_one_step(self):
        s = dollar_auction_strategy("agu")
        v = leads_to_leaf(s)
        assert v.holds
        assert v.certificate == {"class": [0, 3], "shift": [0, 0], "choices": ["r"]}
        helpers.replay_walk(s, v.certificate)

    def test_leaf_holds_with_empty_path(self):
        s = CoSystem(STRATEGY, ("A",), (Leaf({"A": Affine.const(3)}),))
        v = leads_to_leaf(s)
        assert v.holds and v.certificate == {"class": [0], "shift": [0], "choices": []}

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

    def test_each_caller_owns_its_certificate(self):
        # the walk is memoized, but a caller that changes its certificate
        # changes no other caller's, nor a certificate that cites the walk
        s = dollar_auction_strategy("ngu")
        mine = leads_to_leaf(s).certificate
        mine["cycle"].clear()
        mine["choices"].clear()
        fresh = leads_to_leaf(s).certificate
        assert fresh == {"cycle": [0, 1], "entered_after": 0, "choices": ["l", "l"]}
        assert nash_eq(s).certificate["leads_to_leaf"] == fresh
        assert alw_leads_to_leaf(s).certificate["cycle"] == fresh
        held = CoSystem(STRATEGY, ("A",), (Node("A", Choice.R, Ref(0), Ref(1, 2)),
                                           Leaf({"A": Affine.const(3)})))
        walk = leads_to_leaf(held).certificate
        walk["shift"][0] = 9
        walk["class"].pop()
        walk["choices"].clear()
        assert leads_to_leaf(held).certificate == {"class": [0, 1], "shift": [0, 2],
                                                   "choices": ["r"]}


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
        assert set(v.certificate["class"]) == {0, 1, 2, 3}

    def test_escalation_fails_at_the_root_class(self):
        s = dollar_auction_strategy("ngu")
        v = alw_leads_to_leaf(s)
        assert not v.holds
        assert v.certificate == {"class": 0, "cycle": leads_to_leaf(s).certificate}
        helpers.replay_altl_failure(s, v.certificate)

    def test_off_path_escalation_separates_the_predicates(self):
        s = escalating_off_path()
        assert leads_to_leaf(s).holds
        v = alw_leads_to_leaf(s)
        assert not v.holds and v.certificate["class"] == 1
        helpers.replay_altl_failure(s, v.certificate)

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
            cert = v.certificate
            rows = {c: {"leaf": e, "steps": k}
                    for c, e, k in zip(cert["class"], cert["leaf"], cert["steps"])}
            assert len(cert["class"]) == len(cert["leaf"]) == len(cert["steps"]) == len(rows)
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
            leaf, shift, steps = play_table(s)
            assert len(leaf) == len(shift) == len(steps) == len(s.classes)
            for cls_id in range(len(s.classes)):
                walk = leads_to_leaf(s, Ref(cls_id, 0))
                if not walk.holds:
                    assert (leaf[cls_id], shift[cls_id], steps[cls_id]) == (-1, 0, 0)
                    continue
                cert = walk.certificate
                assert (leaf[cls_id], shift[cls_id], steps[cls_id]) == (
                    cert["class"][-1], cert["shift"][-1], len(cert["choices"]))

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
        trees = helpers.finite_corpus(150, helpers.random_strategy, max_size=12)
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


def fresh(s: CoSystem) -> CoSystem:
    """An equal system with an empty memo."""
    return CoSystem(s.kind, s.roster, s.classes, s.root)


class TestSharedTables:
    def test_checks_share_one_play_table_and_reachable_list(self):
        pool = [dollar_auction_strategy("agu"), escalating_off_path()]
        pool += [helpers.random_system(seed, kind=STRATEGY) for seed in range(30)]
        rerooted_differs = False
        for s in pool:
            for check in cli.CHECKS.values():
                check(s)
            assert play_table(s) is play_table(s)
            for agent in s.roster:
                assert utility_columns(s, agent) is utility_columns(s, agent)
            assert reachable(s) is reachable(s)
            for k in range(len(s.classes)):
                at = Ref(k, 0)
                assert reachable(with_root(s, at)) == reachable(fresh(with_root(s, at)))
                rerooted_differs |= reachable(with_root(s, at)) != reachable(s)
            assert s == fresh(s)
            assert repr(s) == repr(fresh(s)) and "_memo" not in repr(s)
        # a re-rooted system that kept its parent's memo would fail above
        assert rerooted_differs

    def test_warmed_system_answers_like_a_fresh_one(self):
        """No reader mutates a shared table: every check, ``s2u`` and
        ``utility_from`` agree on a system the other checks have warmed
        (in either order) and on a fresh copy."""
        pool = [helpers.random_system(seed, kind=STRATEGY, max_shift=3) for seed in range(300)]
        pool += [helpers.random_terminating_strategy(seed) for seed in range(300)]
        for s in pool:
            expected = {name: check(fresh(s)).to_json() for name, check in cli.CHECKS.items()}
            for order in (list(cli.CHECKS), list(reversed(cli.CHECKS))):
                warm = fresh(s)
                for name in order:
                    assert cli.CHECKS[name](warm).to_json() == expected[name], (order, name)
                for agent in s.roster:
                    assert s2u(warm, agent) == s2u(fresh(s), agent)
                    for k in range(len(s.classes)):
                        for shift in (0, 2):
                            at = Ref(k, shift)
                            assert utility_from(warm, at, agent) == utility_from(fresh(s), at, agent)

    def test_threads_racing_on_a_cold_memo_agree(self):
        """Readers racing to fill an empty memo at most compute a table
        twice; every thread still gets the fresh answers."""
        pool = [helpers.random_system(seed, kind=STRATEGY, max_classes=40) for seed in range(20)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for s in pool:
                expected = [check(fresh(s)).to_json() for check in cli.CHECKS.values()]
                shared = fresh(s)
                results: list = []
                start = threading.Barrier(8)

                def work():
                    start.wait(timeout=30)
                    results.append([check(shared).to_json() for check in cli.CHECKS.values()])

                threads = [threading.Thread(target=work) for _ in range(8)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                    assert not th.is_alive()
                assert results == [expected] * len(threads)
                assert play_table(shared)._asdict() == play_table(fresh(s))._asdict()
                assert reachable(shared) == reachable(fresh(s))
        finally:
            sys.setswitchinterval(previous)
