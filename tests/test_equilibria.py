import pytest

from cogames import (
    Affine,
    Choice,
    CoSystem,
    Leaf,
    Node,
    Ref,
    RosterMismatchError,
    STRATEGY,
    alw_leads_to_leaf,
    bisimilar_bounded,
    check_altl_preservation,
    convertible,
    leads_to_leaf,
    nash_eq,
    reach_index_sets,
    sgpe,
    strategy_to_game,
    unfold,
)
from cogames.equilibria import Convertibility, NotApplicableError
from cogames import oracle
from cogames.families import centipede_strategy, dollar_auction_strategy

import helpers

IND = Convertibility.INDUCTIVE
COIND = Convertibility.COINDUCTIVE_ONLY
NOT = Convertibility.NOT_CONVERTIBLE


def replay_deviation(s: CoSystem, cert: dict) -> None:
    """Check a Nash failure witness against the system with ``unfold``
    only: the on-path value, then the deviation path, which may override
    choices at the deviating agent's nodes only."""
    agent = cert["agent"]
    at = s.root
    for _ in range(len(s.classes) + 1):
        head = unfold(s, at)
        if isinstance(head, Leaf):
            break
        at = head.child(head.choice)
    assert head.payoffs[agent].at(0) == cert["on_path_value"]
    at = s.root
    for step in cert["path"]:
        head = unfold(s, at)
        assert isinstance(head, Node)
        assert (step["class"], step["index"]) == (at.cls, at.shift)
        choice = Choice(step["choice"])
        assert choice is head.choice or head.owner == agent
        at = head.child(choice)
    head = unfold(s, at)
    assert isinstance(head, Leaf)
    assert (cert["leaf_class"], cert["leaf_index"]) == (at.cls, at.shift)
    assert head.payoffs[agent].at(0) == cert["deviation_value"] > cert["on_path_value"]


def flip_class_choice(s: CoSystem, cls_id: int) -> CoSystem:
    cls = s.classes[cls_id]
    classes = list(s.classes)
    classes[cls_id] = Node(cls.owner, cls.choice.other, cls.left, cls.right)
    return CoSystem(s.kind, s.roster, tuple(classes), s.root)


class TestConvertible:
    def test_reflexivity(self):
        for s in (dollar_auction_strategy("agu"), helpers.random_system(3, kind=STRATEGY)):
            for agent in s.roster:
                assert convertible(s, s, agent).value is IND

    def test_agu_ngu_not_convertible_for_alice(self):
        agu = dollar_auction_strategy("agu")
        ngu = dollar_auction_strategy("ngu")
        r = convertible(agu, ngu, "Alice")
        assert r.value is NOT
        assert "Bob" in r.witness["reason"]

    def test_recurring_own_difference_is_coinductive_only(self):
        ngu = dollar_auction_strategy("ngu")
        switched = flip_class_choice(ngu, 0)  # Alice's backbone class
        r = convertible(ngu, switched, "Alice")
        assert r.value is COIND
        assert r.witness["difference"] == {"left_class": 0, "right_class": 0, "delta": 0}
        assert len(r.witness["cycle"]) == 2

    def test_finite_perturbation_is_inductive(self):
        pool = [dollar_auction_strategy("agu"), centipede_strategy("agu")]
        pool += [helpers.random_terminating_strategy(seed) for seed in range(20)]
        for i, s in enumerate(pool):
            agent = s.roster[i % len(s.roster)]
            t, flips = helpers.prefix_perturbation(s, agent, seed=i)
            r = convertible(s, t, agent)
            assert r.value is IND, (r.value, r.witness)
            assert len(r.witness["differences"]) >= (1 if flips else 0)

    def test_inductive_equivalence_relation_on_triples(self):
        for seed in range(15):
            s = helpers.random_terminating_strategy(seed)
            agent = s.roster[0]
            t, _ = helpers.prefix_perturbation(s, agent, seed=seed + 50)
            u, _ = helpers.prefix_perturbation(t, agent, seed=seed + 90)
            assert convertible(s, t, agent).value is IND
            assert convertible(t, s, agent).value is IND  # symmetry
            assert convertible(t, u, agent).value is IND
            assert convertible(s, u, agent).value is IND  # transitivity

    def test_convertible_strategies_play_bisimilar_games(self):
        ngu = dollar_auction_strategy("ngu")
        pairs = [(ngu, flip_class_choice(ngu, 0), "Alice")]
        for seed in range(10):
            s = helpers.random_terminating_strategy(seed)
            t, _ = helpers.prefix_perturbation(s, s.roster[0], seed=seed + 7)
            pairs.append((s, t, s.roster[0]))
        for s, t, agent in pairs:
            assert convertible(s, t, agent).value in (IND, COIND)
            for depth in (0, 4, 10, 16):
                assert bisimilar_bounded(strategy_to_game(s), strategy_to_game(t), depth).holds

    def test_payoff_mismatch_not_convertible(self):
        s = dollar_auction_strategy("agu")
        leaf_id = helpers.first_reachable_leaf(s)
        t = helpers.payoff_mutant(s, leaf_id)
        assert convertible(s, t, "Alice").value is NOT

    def test_roster_mismatch_rejected(self):
        a = CoSystem(STRATEGY, ("A",), (Leaf({"A": Affine.const(0)}),))
        b = CoSystem(STRATEGY, ("B",), (Leaf({"B": Affine.const(0)}),))
        with pytest.raises(RosterMismatchError):
            convertible(a, b, "A")

    def test_parametrization_drift_is_blocked(self):
        # the drifting backbone only reaches constant leaves, but a
        # reachable indexed leaf elsewhere forces offset tracking, so the
        # alignment bound kicks in (the documented conservative case)
        def comb(step: int) -> CoSystem:
            return CoSystem(STRATEGY, ("A",), (
                Node("A", Choice.L, Ref(1, 0), Ref(3, 0)),
                Node("A", Choice.L, Ref(1, step), Ref(2, 0)),
                Leaf({"A": Affine(0, 7)}),
                Leaf({"A": Affine(1, 0)}),
            ), Ref(0, 0))

        r = convertible(comb(1), comb(2), "A")
        assert r.value is NOT
        assert "drift" in r.witness["reason"]

    def test_zero_slope_drift_is_tolerated(self):
        def comb(step: int) -> CoSystem:
            return CoSystem(STRATEGY, ("A",), (
                Node("A", Choice.L, Ref(0, step), Ref(1, 0)),
                Leaf({"A": Affine(0, 7)}),
            ), Ref(0, 0))

        # same denoted tree (payoffs do not depend on the index)
        assert convertible(comb(1), comb(2), "A").value is IND


class TestPreservation:
    def test_perturbed_give_up_stays_terminating(self):
        agu = dollar_auction_strategy("agu")
        t, _ = helpers.prefix_perturbation(agu, "Alice", seed=5)
        v = check_altl_preservation(agu, t, "Alice")
        assert v.holds
        assert v.certificate["source"]["outcome"] == "holds"
        assert v.certificate["target"]["outcome"] == "holds"

    def test_identity_trivially_preserved(self):
        s = centipede_strategy("agu")
        assert check_altl_preservation(s, s, "Bob").holds

    def test_vacuous_when_premise_fails(self):
        ngu = dollar_auction_strategy("ngu")
        v = check_altl_preservation(ngu, ngu, "Alice")
        assert v.holds and "vacuous" in v.note

    def test_not_applicable_without_inductive_convertibility(self):
        agu = dollar_auction_strategy("agu")
        ngu = dollar_auction_strategy("ngu")
        with pytest.raises(NotApplicableError):
            check_altl_preservation(agu, ngu, "Alice")

    def test_lemma_on_generated_pairs(self):
        for seed in range(60):
            s = helpers.random_terminating_strategy(seed)
            agent = s.roster[seed % len(s.roster)]
            t, _ = helpers.prefix_perturbation(s, agent, seed=seed + 1000)
            assert check_altl_preservation(s, t, agent).holds


class TestNashEq:
    def test_escalation_vacuous(self):
        v = nash_eq(dollar_auction_strategy("ngu"))
        assert v.holds
        assert v.note == "vacuous: strategy does not lead to a leaf"

    def test_give_up_holds_with_maxima_report(self):
        v = nash_eq(dollar_auction_strategy("agu"))
        assert v.holds
        report = {row["agent"]: row for row in v.certificate["agents"]}
        assert report["Alice"]["on_path_value"] == -1
        assert report["Bob"]["on_path_value"] == 0
        assert report["Alice"]["best_deviation_value"] <= -1

    def test_worse_leaf_fails_with_one_step_deviation(self):
        s = CoSystem(STRATEGY, ("A",), (
            Node("A", Choice.L, Ref(1), Ref(2)),
            Leaf({"A": Affine.const(0)}),
            Leaf({"A": Affine.const(1)}),
        ))
        v = nash_eq(s)
        assert not v.holds
        assert v.certificate["deviation_value"] == 1
        assert [p["class"] for p in v.certificate["path"]] == [0]
        assert v.certificate["overrides"][0]["choice"] == "r"

    def test_unbounded_growth_found_by_pumping(self):
        # stop now for 0, or keep playing and stop later for n
        s = CoSystem(STRATEGY, ("A",), (
            Node("A", Choice.R, Ref(0, 1), Ref(1, 0)),
            Leaf({"A": Affine(1, 0)}),
        ))
        v = nash_eq(s)
        assert not v.holds
        assert v.certificate["deviation_value"] > 0
        assert any(p["overridden"] for p in v.certificate["path"])

    def test_unbounded_leaf_past_a_cycle_is_reached_at_its_minimum(self):
        # the better leaf lies past a positive-offset cycle and its payoff
        # does not grow, so the witness is the min-weight path to it
        s = CoSystem(STRATEGY, ("A",), (
            Node("A", Choice.R, Ref(1, 1), Ref(2, 0)),
            Node("A", Choice.R, Ref(0, 0), Ref(3, 0)),
            Leaf({"A": Affine(0, 0)}),
            Leaf({"A": Affine(0, 5)}),
        ))
        v = nash_eq(s)
        assert not v.holds
        assert (v.certificate["leaf_class"], v.certificate["leaf_index"]) == (3, 1)
        replay_deviation(s, v.certificate)

    def test_failure_witnesses_replay_on_random_strategies(self):
        failures = 0
        for seed in range(5000):
            s = helpers.random_system(seed, kind=STRATEGY, max_classes=8)
            v = nash_eq(s)
            if not v.holds:
                failures += 1
                replay_deviation(s, v.certificate)
        assert failures > 400

    def test_vacuity_property(self):
        for seed in range(80):
            s = helpers.random_system(seed, kind=STRATEGY)
            if not leads_to_leaf(s).holds:
                v = nash_eq(s)
                assert v.holds and "vacuous" in v.note

    def test_agrees_with_exhaustive_oracle(self):
        trees = helpers.finite_corpus(200, oracle.random_strategy, max_size=12)
        for tree in trees:
            assert nash_eq(oracle.embed(tree)).holds == oracle.exhaustive_nash(tree).holds


class TestSgpe:
    def test_dollar_auction_margins_are_zero(self):
        v = sgpe(dollar_auction_strategy("agu"))
        assert v.holds
        for row in v.certificate["classes"]:
            assert row["margin"] == {"slope": 0, "intercept": 0}

    def test_centipede_margins_are_one(self):
        v = sgpe(centipede_strategy("agu"))
        assert v.holds
        for row in v.certificate["classes"]:
            assert row["margin"] == {"slope": 0, "intercept": 1}
            assert row["margin_at_n_min"] == 1

    def test_escalation_fails_through_altl(self):
        v = sgpe(dollar_auction_strategy("ngu"))
        assert not v.holds
        assert "alw_leads_to_leaf" in v.certificate

    def test_worse_choice_reports_class_and_index(self):
        s = CoSystem(STRATEGY, ("A",), (
            Node("A", Choice.L, Ref(1), Ref(2)),
            Leaf({"A": Affine.const(0)}),
            Leaf({"A": Affine.const(1)}),
        ))
        v = sgpe(s)
        assert not v.holds
        assert v.certificate["class"] == 0 and v.certificate["index"] == 0
        assert v.certificate["chosen_value"] == 0 and v.certificate["other_value"] == 1

    def test_negative_margin_slope_fails_at_explicit_index(self):
        # class 1's chosen branch wins at small n but loses from n = 3 on;
        # the off-path backbone makes class 1 reachable at every n
        s = CoSystem(STRATEGY, ("A",), (
            Node("A", Choice.R, Ref(0, 1), Ref(1, 0)),   # backbone, exits right
            Node("A", Choice.L, Ref(2, 0), Ref(3, 0)),   # the compared class
            Leaf({"A": Affine(-2, 5)}),                  # chosen: 5 - 2n
            Leaf({"A": Affine(0, 0)}),                   # other: 0
        ), Ref(0, 0))
        assert alw_leads_to_leaf(s).holds
        v = sgpe(s)
        assert not v.holds
        assert v.certificate["class"] == 1
        assert v.certificate["index"] == 3  # first n with 5-2n < 0

    def test_sgpe_implies_nash_on_finite_corpus(self):
        trees = helpers.finite_corpus(200, oracle.random_strategy, max_size=12)
        for tree in trees:
            emb = oracle.embed(tree)
            if sgpe(emb).holds:
                assert nash_eq(emb).holds
                assert oracle.exhaustive_nash(tree).holds


class TestReachIndexSets:
    def test_backbone_indices_grow_without_bound(self):
        sets = reach_index_sets(dollar_auction_strategy("ngu"), mode="tree")
        assert sets[0].minimum == 0 and sets[0].unbounded
        assert sets[1].minimum == 0 and sets[1].unbounded

    def test_finite_tree_indices_are_exact_singletons(self):
        tree = oracle.random_strategy(1, max_depth=3)
        sets = reach_index_sets(oracle.embed(tree), mode="tree")
        for rs in sets.values():
            assert not rs.unbounded and rs.values == frozenset({0})
            assert rs.minimum == 0

    def test_play_projection_follows_choices_only(self):
        agu = dollar_auction_strategy("agu")
        sets = reach_index_sets(agu, mode="play")
        assert set(sets) == {0, 3}  # root and Alice's give-up leaf
