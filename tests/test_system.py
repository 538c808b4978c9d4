import gc
import json
import itertools
import random
import re
from pathlib import Path

import pytest

from cogames import (
    Affine,
    Choice,
    CoSystem,
    GAME,
    InvalidSystemError,
    KindMismatchError,
    Leaf,
    Node,
    Ref,
    STRATEGY,
    alw_leads_to_leaf,
    annotate,
    bisimilar,
    bisimilar_bounded,
    is_history_of,
    is_parametric,
    leads_to_leaf,
    nash_eq,
    reach_index_sets,
    s2u,
    sgpe,
    strategy_history,
    strategy_to_game,
    unfold,
    utility_from,
    validate,
    with_root,
)
from cogames import convertible, dsl, system
from cogames.system import Convertibility, ProductWalk, reachable, sccs
from cogames.families import (
    dollar_auction_game,
    dollar_auction_strategy,
    finite_example_game,
)

import helpers


def leaf_system(value=1, slope=0, kind=STRATEGY):
    return CoSystem(kind, ("A",), (Leaf({"A": Affine(slope, value)}),))


def refused(kind, roster, classes, root=Ref(0, 0)) -> InvalidSystemError:
    """The error that the constructor raises on these classes."""
    with pytest.raises(InvalidSystemError) as info:
        CoSystem(kind, roster, classes, root)
    return info.value


class TestValidate:
    """The constructor is the validity gate: it refuses every invalid
    system, so ``validate`` holds on every system that exists."""

    def test_smallest_wellformed_system(self):
        assert validate(leaf_system()).holds

    def test_dollar_auction_systems_accept(self):
        assert validate(dollar_auction_strategy("agu")).holds
        assert validate(dollar_auction_strategy("ngu")).holds
        assert validate(dollar_auction_game()).holds

    def test_game_node_with_choice_rejected(self):
        err = refused(GAME, ("A",), (
            Node("A", Choice.L, Ref(1), Ref(1)),
            Leaf({"A": Affine.const(0)}),
        ))
        assert err.certificate == {"error": "ExtraChoice", "class": 0}
        assert str(err) == "game node carries a choice"

    def test_strategy_node_without_choice_rejected(self):
        err = refused(STRATEGY, ("A",), (
            Node("A", None, Ref(1), Ref(1)),
            Leaf({"A": Affine.const(0)}),
        ))
        assert err.certificate == {"error": "MissingChoice", "class": 0}
        assert str(err) == "strategy node lacks a choice"

    def test_dangling_reference_rejected(self):
        err = refused(GAME, ("A",), (Node("A", None, Ref(5), Ref(0)),))
        assert err.certificate == {"error": "InvalidRef", "class": 0,
                                   "ref": {"class": 5, "shift": 0}}
        assert str(err) == "child reference out of range"

    def test_empty_roster_rejected(self):
        err = refused(GAME, (), (Leaf({}),))
        assert (err.certificate, str(err)) == ({"error": "EmptyRoster"}, "roster must be nonempty")

    def test_payoff_domain_must_match_roster(self):
        err = refused(GAME, ("A", "B"), (Leaf({"A": Affine.const(0)}),))
        assert err.certificate == {"error": "PayoffDomain", "class": 0}
        assert str(err) == "leaf payoffs must cover exactly the roster"

    def test_unknown_kind_rejected(self):
        err = refused("tree", ("A",), (Leaf({"A": Affine.const(0)}),))
        assert err.certificate == {"error": "BadKind", "kind": "tree"}
        assert str(err) == "kind must be game or strategy"

    def test_owner_outside_the_roster_rejected(self):
        err = refused(GAME, ("A",), (Node("Z", None, Ref(1), Ref(1)), Leaf({"A": Affine.const(0)})))
        assert err.certificate == {"error": "UnknownOwner", "class": 0}
        assert str(err) == "owner 'Z' not in roster"

    @pytest.mark.parametrize("root", [Ref(1), Ref(0, -1)])
    def test_root_out_of_range_rejected(self, root):
        err = refused(GAME, ("A",), (Leaf({"A": Affine.const(0)}),), root)
        assert err.certificate == {"error": "InvalidRef", "class": "root", "ref": root.to_json()}
        assert str(err) == "root reference out of range"

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

    def test_reachable_offsets_on_constant_leaves_do_not_count(self):
        sys_ = CoSystem(GAME, ("A",), (
            Node("A", None, Ref(0, 1), Ref(1, 3)),
            Leaf({"A": Affine.const(1)}),
        ), Ref(0, 2))
        assert not is_parametric(sys_)

    def test_unreachable_sloped_leaf_does_not_count(self):
        # classes 2 and 3 see the sloped leaf; the root reaches neither
        sys_ = CoSystem(GAME, ("A",), (
            Node("A", None, Ref(1), Ref(0, 1)),
            Leaf({"A": Affine.const(1)}),
            Leaf({"A": Affine(3, 0)}),
            Node("A", None, Ref(0), Ref(2)),
        ), Ref(0))
        assert not is_parametric(sys_)
        assert system._sensitive(sys_) == [False, False, True, True]
        assert is_parametric(with_root(sys_, Ref(3)))


def _sloped_leaf_reachable(sys: CoSystem) -> bool:
    """Some leaf with a nonzero slope is in ``reachable(sys)``."""
    return any(isinstance(sys.classes[c], Leaf)
               and any(f.slope for f in sys.classes[c].payoffs.values())
               for c in reachable(sys))


def test_sensitivity_table_matches_forward_reachability_on_random_systems():
    """Every class's entry is whether a leaf with a nonzero slope is
    reachable from it, found by re-rooting there and searching forward;
    is_parametric is the root's entry, and the table is built once."""
    systems, sensitive, insensitive = 0, 0, 0
    for seed in range(300):
        for kind in (GAME, STRATEGY):
            for parametric in (True, False):
                s = helpers.random_system(seed, kind=kind, parametric=parametric, max_classes=8)
                table = system._sensitive(s)
                assert len(table) == len(s.classes)
                for c in range(len(s.classes)):
                    assert table[c] == _sloped_leaf_reachable(with_root(s, Ref(c, 0)))
                assert is_parametric(s) == table[s.root.cls]
                assert system._sensitive(s) is table
                systems += 1
                sensitive += sum(table)
                insensitive += len(table) - sum(table)
    assert systems >= 1000 and sensitive > 1000 and insensitive > 1000


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


GAMES = Path(__file__).resolve().parent.parent / "games"

# the dollar auction under "always give up", unrolled into two
# Alice/Bob periods: period i stands for backbone position 2n + i
DOLLAR_AGU_TWO_PERIODS = """strategy agents Alice Bob
alice0(n) = <Alice, r, bob0(n), quit_a0(n)>
bob0(n) = <Bob, r, alice1(n), quit_b0(n)>
alice1(n) = <Alice, r, bob1(n), quit_a1(n)>
bob1(n) = <Bob, r, alice0(n+1), quit_b1(n)>
quit_a0(n) = leaf[Alice: -4*n-1, Bob: -4*n]
quit_b0(n) = leaf[Alice: -4*n-1, Bob: -4*n-2]
quit_a1(n) = leaf[Alice: -4*n-3, Bob: -4*n-2]
quit_b1(n) = leaf[Alice: -4*n-3, Bob: -4*n-4]
root alice0
"""


def sloped_chain(length: int, end: str) -> str:
    """Agent A continues down ``length`` nodes, each a level deeper
    (``n+1``), to a leaf paying ``end``; stopping pays 0."""
    lines = ["game agents A"]
    for i in range(length):
        nxt = f"c{i + 1}(n+1)" if i + 1 < length else "end(n+1)"
        lines.append(f"c{i}(n) = <A, {nxt}, z(n)>")
    lines += [f"end(n) = leaf[A: {end}]", "z(n) = leaf[A: 0]", "root c0"]
    return "\n".join(lines) + "\n"


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

    def test_parametric_family_holds_with_the_walk_states(self):
        v = bisimilar(dollar_auction_game(), dollar_auction_game())
        assert v.to_json() == {"outcome": "holds", "note": "product walk closed at every index",
                               "certificate": {"states": [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)]}}

    def test_sloped_leaf_differs_from_a_constant_one_at_the_root(self):
        a = dsl.parse("game agents A\nx(n) = leaf[A: n]\nroot x\n")
        b = dsl.parse("game agents A\nx(n) = leaf[A: 0]\nroot x\n")
        for v in (bisimilar(a, b), bisimilar(b, a)):
            assert v.to_json() == {"outcome": "fails", "note": "distinguished: leaf payoffs differ",
                                   "certificate": {"path": [], "reason": "leaf payoffs differ"}}
        assert bisimilar_bounded(a, b, 24).holds  # both pay 0 at n = 0

    def test_one_sloped_leaf_under_a_drift_differs(self):
        # equal head ids on both sides: only the drift tells them apart
        leaf = dsl.parse("game agents A\nx(n) = leaf[A: n]\nroot x\n")
        v = bisimilar(leaf, with_root(leaf, Ref(0, 1)))
        assert v.certificate == {"path": [], "reason": "leaf payoffs differ"}
        a = dsl.parse("game agents A\nt(n) = <A, x(n), x(n)>\nx(n) = leaf[A: n]\nroot t\n")
        b = dsl.parse("game agents A\nt(n) = <A, x(n), x(n+1)>\nx(n) = leaf[A: n]\nroot t\n")
        for v in (bisimilar(a, b), bisimilar(b, a)):
            assert v.certificate == {"path": ["r"], "reason": "leaf payoffs differ"}

    def test_slopes_that_differ_below_the_bounded_depth(self):
        a, b = (dsl.parse(sloped_chain(30, end)) for end in ("n", "2*n"))
        v = bisimilar(a, b)
        assert (v.holds, v.certificate) == (False, {"path": ["l"] * 30, "reason": "leaf payoffs differ"})
        assert bisimilar_bounded(a, b, 24).holds

    def test_unrolled_dollar_auction_is_another_family(self):
        # two periods per class pair, each entering the next at n+1: the
        # slopes are doubled, so the give-up leaves pay -4n-1 where the
        # family pays -2n-1, and the trees agree at n = 0 only
        unrolled = dsl.parse(DOLLAR_AGU_TWO_PERIODS)
        family = dsl.parse((GAMES / "dollar_auction_agu.cog").read_text())
        for a, b in ((unrolled, family), (family, unrolled)):
            v = bisimilar(a, b)
            assert (v.holds, v.certificate) == (False, {"path": ["r"], "reason": "leaf payoffs differ"})
            assert bisimilar_bounded(a, b, 24).holds

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


_RING2 = ("game agents A\nx0(n) = <A, x1(n), e(n)>\nx1(n) = <A, x0(n), e(n)>\n"
          "e(n) = leaf[A: {}]\nroot x0\n")
_RING3 = ("game agents A\nx0(n) = <A, x1(n), e(n)>\nx1(n) = <A, x2(n), e(n)>\n"
          "x2(n) = <A, x0(n), f(n)>\ne(n) = leaf[A: 3]\nf(n) = leaf[A: {}]\nroot x0\n")

# one row per outcome: sources of the two systems, then the verdict as JSON
BISIM_TABLE = {
    "head-kind": (
        "game agents A\nx(n) = <A, y(n), z(n)>\ny(n) = leaf[A: 0]\nz(n) = leaf[A: 1]\nroot x\n",
        "game agents A\nx(n) = <A, y(n), w(n)>\ny(n) = leaf[A: 0]\nw(n) = <A, y(n), y(n)>\nroot x\n",
        {"outcome": "fails", "certificate": {"path": ["r"], "reason": "head kind differs"},
         "note": "distinguished: head kind differs"}),
    "leaf-payoffs": (
        _RING2.format(3), _RING3.format(5),
        {"outcome": "fails", "certificate": {"path": ["l", "l", "r"], "reason": "leaf payoffs differ"},
         "note": "distinguished: leaf payoffs differ"}),
    "owner": (
        "game agents A B\nx(n) = <A, x(n), y(n)>\ny(n) = leaf[A: 0, B: 1]\nroot x\n",
        "game agents A B\nx(n) = <A, z(n), y(n)>\nz(n) = <B, x(n), y(n)>\ny(n) = leaf[A: 0, B: 1]\nroot x\n",
        {"outcome": "fails", "certificate": {"path": ["l"], "reason": "owner differs"},
         "note": "distinguished: owner differs"}),
    "choice": (
        "strategy agents A\nx(n) = <A, l, x(n), y(n)>\ny(n) = leaf[A: 0]\nroot x\n",
        "strategy agents A\nx(n) = <A, l, z(n), y(n)>\nz(n) = <A, r, x(n), y(n)>\ny(n) = leaf[A: 0]\nroot x\n",
        {"outcome": "fails", "certificate": {"path": ["l"], "reason": "choice differs"},
         "note": "distinguished: choice differs"}),
    "holds": (
        _RING2.format(3), _RING3.format(3),
        {"outcome": "holds",
         "certificate": {"relation": [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 3), (2, 4)]},
         "note": "bisimulation relation closed"}),
}


@pytest.mark.parametrize("case", sorted(BISIM_TABLE))
def test_bisimilar_certificate_table(case):
    a, b, expected = BISIM_TABLE[case]
    assert bisimilar(dsl.parse(a), dsl.parse(b)).to_json() == expected


def _observation(sys: CoSystem, ref: Ref) -> tuple:
    """The one-step observation at ``ref``: leaf payoffs, or owner and choice."""
    head = unfold(sys, ref)
    return (head.payoffs,) if isinstance(head, Leaf) else (head.owner, head.choice)


def _replay_heads_differ(a: CoSystem, b: CoSystem, path: list[str]) -> bool:
    """Follow ``path`` from both roots with ``unfold`` alone; True iff the
    observations agree along the way and differ where it ends."""
    ra, rb = a.root, b.root
    for step in path:
        assert _observation(a, ra) == _observation(b, rb)
        ra, rb = unfold(a, ra).child(Choice(step)), unfold(b, rb).child(Choice(step))
    return _observation(a, ra) != _observation(b, rb)


def full_walk(a: CoSystem, b: CoSystem) -> ProductWalk:
    """The product walk with the union-find switched off, so it walks
    every pair: the reference the union-find's verdicts are checked
    against."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProductWalk, "_union_find", lambda self: None)
        return ProductWalk(a, b)


def _relation_is_a_bisimulation(a: CoSystem, b: CoSystem, relation: list[list[int]]) -> bool:
    """The root pair is related, related pairs have equal observations,
    and the child pairs of related nodes are related."""
    pairs = {tuple(p) for p in relation}
    if (a.root.cls, b.root.cls) not in pairs:
        return False
    for i, j in pairs:
        if _observation(a, Ref(i)) != _observation(b, Ref(j)):
            return False
        ha, hb = unfold(a, Ref(i)), unfold(b, Ref(j))
        if isinstance(ha, Node) and not {(ha.left.cls, hb.left.cls),
                                         (ha.right.cls, hb.right.cls)} <= pairs:
            return False
    return True


def test_bisimilar_certificates_replay_on_random_pairs():
    for seed in range(200):
        s = helpers.random_system(seed, parametric=False)
        others = [helpers.unrolled_variant(s, seed + 1)]
        leaf_id = helpers.first_reachable_leaf(s)
        if leaf_id is not None:
            others.append(helpers.payoff_mutant(s, leaf_id))
        for t in others:
            for a, b in ((s, t), (t, s)):
                v = bisimilar(a, b)
                if v.holds:
                    assert _relation_is_a_bisimulation(a, b, v.certificate["relation"])
                else:
                    assert _replay_heads_differ(a, b, v.certificate["path"])
                bound = len(a.classes) * len(b.classes)
                assert v.holds == bisimilar_bounded(a, b, bound).holds


def test_bisimilar_agrees_with_the_product_walk_on_random_pairs():
    """Differential sweep: the verdict is the walk's, a failing
    certificate is the walk's, and a holding relation replays and covers
    every pair the walk visits."""
    for seed in range(1000):
        s = helpers.random_system(seed, parametric=False)
        others = [s, helpers.unrolled_variant(s, seed + 1),
                  helpers.unrolled_variant(helpers.unrolled_variant(s, seed + 2), seed + 3)]
        leaf_id = helpers.first_reachable_leaf(s)
        if leaf_id is not None:
            others.append(helpers.payoff_mutant(s, leaf_id))
        for t in others:
            for a, b in ((s, t), (t, s)):
                v = bisimilar(a, b)
                walk = full_walk(a, b)
                assert v.holds == (walk.failure is None)
                if not v.holds:
                    path, _, reason = walk.failure
                    assert v.certificate == {"path": path, "reason": reason}
                    continue
                relation = v.certificate["relation"]
                assert relation == sorted(relation)
                assert _relation_is_a_bisimulation(a, b, relation)
                assert {walk.decode(state)[:2] for state in walk.parent} <= set(map(tuple, relation))


def _sloped_below(sys: CoSystem, cls: int) -> bool:
    """A leaf with a nonzero slope is reachable from class ``cls``,
    found by unfolding alone."""
    seen, todo = {cls}, [cls]
    while todo:
        head = unfold(sys, Ref(todo.pop()))
        if isinstance(head, Leaf):
            if any(f.slope for f in head.payoffs.values()):
                return True
            continue
        for ref in (head.left, head.right):
            if ref.cls not in seen:
                seen.add(ref.cls)
                todo.append(ref.cls)
    return False


def _states_are_a_bisimulation(a: CoSystem, b: CoSystem, states: list[tuple[int, int, int]]) -> bool:
    """Replay a walk certificate with ``unfold`` alone: the root state is
    a row, every row ``(i, j, delta)`` observes class ``i`` of ``a`` at
    ``n`` like class ``j`` of ``b`` at ``n + delta``, and every row's
    child states are rows.  A pair from which no leaf with a nonzero
    slope is reachable denotes one tree at every index, so its state
    carries drift 0.  A row is read at ``n + k`` on both sides, with
    ``k`` the least offset that keeps both shifts >= 0; a common offset
    changes neither the drift nor whether the observations agree."""
    rows = set(states)
    sens_a = [_sloped_below(a, i) for i in range(len(a.classes))]
    sens_b = [_sloped_below(b, j) for j in range(len(b.classes))]

    def state(ra: Ref, rb: Ref) -> tuple[int, int, int]:
        drift = rb.shift - ra.shift if sens_a[ra.cls] or sens_b[rb.cls] else 0
        return ra.cls, rb.cls, drift

    if state(a.root, b.root) not in rows:
        return False
    for i, j, delta in rows:
        ra, rb = Ref(i, max(0, -delta)), Ref(j, max(0, delta))
        if _observation(a, ra) != _observation(b, rb):
            return False
        ha, hb = unfold(a, ra), unfold(b, rb)
        if isinstance(ha, Node) and any(state(ha.child(c), hb.child(c)) not in rows for c in Choice):
            return False
    return True


def _value(sys: CoSystem, ref: Ref, n: int) -> tuple:
    """The observation at ``ref`` with the root index set to ``n``."""
    head = unfold(sys, ref)
    if isinstance(head, Leaf):
        return ({agent: f.at(n) for agent, f in head.payoffs.items()},)
    return head.owner, head.choice


def _path_ends_differing_at_index_0_or_1(a: CoSystem, b: CoSystem, path: list[str]) -> bool:
    ra, rb = a.root, b.root
    for step in path:
        assert _observation(a, ra) == _observation(b, rb)
        ra, rb = unfold(a, ra).child(Choice(step)), unfold(b, rb).child(Choice(step))
    return any(_value(a, ra, n) != _value(b, rb, n) for n in (0, 1))


def _shifted_roots(a: CoSystem, b: CoSystem, k: int) -> tuple[CoSystem, CoSystem]:
    return (with_root(a, Ref(a.root.cls, a.root.shift + k)),
            with_root(b, Ref(b.root.cls, b.root.shift + k)))


def test_bisimilar_decides_random_parametric_pairs_with_replayable_certificates():
    """Differential sweep over parametric pairs: presentations of one
    tree (itself, an unrolled variant, moved offsets), a shift mutant
    (one tree or two, by whether a sloped leaf lies below the edge) and
    different trees (a payoff mutant, an unrelated system).  Every
    certificate replays with ``unfold`` alone, and a holding pair agrees
    under the bounded comparison at the first six root indices."""
    pairs, walked, relations, failing = 0, 0, 0, 0
    for seed in range(250):
        s = helpers.random_system(seed, max_shift=3)
        rng = random.Random(seed)
        moved = helpers.offset_moved(s, rng.randrange(len(s.classes)), rng.randint(1, 3))
        partners = [(s, s), (s, helpers.unrolled_variant(s, seed)), moved,
                    (moved[0], helpers.unrolled_variant(moved[1], seed + 1)),
                    (s, helpers.shift_mutant(s, seed))]
        leaf = helpers.first_reachable_leaf(s)
        if leaf is not None:
            partners.append((s, helpers.payoff_mutant(s, leaf)))
        other = helpers.random_system(seed + 1000, kind=s.kind, max_shift=3)
        if other.roster == s.roster:
            partners.append((s, other))
        for x, y in partners:
            for a, b in ((x, y), (y, x)):
                v = bisimilar(a, b)
                pairs += 1
                if not v.holds:
                    assert set(v.certificate) == {"path", "reason"}
                    assert _path_ends_differing_at_index_0_or_1(a, b, v.certificate["path"])
                    failing += 1
                    continue
                if "relation" in v.certificate:
                    assert not (is_parametric(a) or is_parametric(b))
                    assert _relation_is_a_bisimulation(a, b, v.certificate["relation"])
                    relations += 1
                else:
                    states = v.certificate["states"]
                    assert states == sorted(states)
                    assert all(type(x) is int for row in states for x in row)
                    assert _states_are_a_bisimulation(a, b, states)
                    walked += 1
                for k in range(6):
                    assert bisimilar_bounded(*_shifted_roots(a, b, k), 6).holds
    assert pairs >= 1000 and walked >= 300 and failing >= 300 and relations > 0


def test_bisimilar_relation_may_relate_pairs_the_walk_never_visits():
    # the walk pairs leaf a0 with b0 and a1 with both b0 and b1, so a0
    # and b1 share a block without the walk ever visiting them together
    a = dsl.parse("game agents A\nt(n) = <A, p(n), q(n)>\np(n) = <A, a0(n), a1(n)>\n"
                  "q(n) = <A, a1(n), a1(n)>\na0(n) = leaf[A: 0]\na1(n) = leaf[A: 0]\nroot t\n")
    b = dsl.parse("game agents A\nt(n) = <A, p(n), q(n)>\np(n) = <A, b0(n), b1(n)>\n"
                  "q(n) = <A, b0(n), b1(n)>\nb0(n) = leaf[A: 0]\nb1(n) = leaf[A: 0]\nroot t\n")
    v = bisimilar(a, b)
    assert v.holds
    relation = v.certificate["relation"]
    assert _relation_is_a_bisimulation(a, b, relation)
    walk = full_walk(a, b)
    visited = {walk.decode(state)[:2] for state in walk.parent}
    assert set(map(tuple, relation)) - visited == {(3, 4)}


def identical_ring(length: int) -> CoSystem:
    """``length`` Alice nodes in a ring, each with its own leaf on the
    right: node ``i`` is class ``2*i`` and its leaf class ``2*i + 1``."""
    classes = []
    for i in range(length):
        classes += [Node("Alice", None, Ref(2 * ((i + 1) % length)), Ref(2 * i + 1)),
                    Leaf({"Alice": Affine.const(0)})]
    return CoSystem(GAME, ("Alice",), tuple(classes))


def refuse_to_walk(monkeypatch) -> None:
    """Make the product walk itself raise; the flat tables and the
    union-find stay."""
    def no_walk(self):
        raise AssertionError("a same-tree verdict must not walk the product")

    monkeypatch.setattr(ProductWalk, "_walk", no_walk)


def test_a_sensitive_root_goes_straight_to_the_walk(monkeypatch):
    def no_union_find(self):
        raise AssertionError("a sensitive root must not run the union-find")

    monkeypatch.setattr(ProductWalk, "_union_find", no_union_find)
    agu, ngu = dollar_auction_strategy("agu"), dollar_auction_strategy("ngu")
    assert bisimilar(agu, agu).holds and not bisimilar(agu, ngu).holds
    assert convertible(agu, ngu, "Bob").value is Convertibility.NOT_CONVERTIBLE
    walks = 0
    for seed in range(200):
        s = helpers.random_system(seed, max_shift=3)
        if not is_parametric(s):
            continue
        partners = [helpers.unrolled_variant(s, seed)]
        other = helpers.random_system(seed + 1000, kind=s.kind, max_shift=3)
        if other.roster == s.roster:
            partners.append(other)  # sensitive or not: one sensitive root suffices
        for t in partners:
            for a, b in ((s, t), (t, s)):
                assert ProductWalk(a, b).blocks is None
                walks += 1
    assert walks >= 200


def test_bisimilar_coprime_rings_without_the_product_walk(monkeypatch):
    refuse_to_walk(monkeypatch)
    p, q = 353, 354
    v = bisimilar(identical_ring(p), identical_ring(q))
    assert v.holds
    relation = v.certificate["relation"]
    assert len(relation) == 2 * p * q
    assert relation == sorted(relation)
    assert relation[:2] == [(0, 0), (0, 2)] and relation[-1] == (2 * p - 1, 2 * q - 1)


def test_bisimilar_rows_are_int_pairs_the_collector_does_not_track():
    relation = bisimilar(identical_ring(353), identical_ring(354)).certificate["relation"]
    gc.collect()
    assert all(type(row) is tuple and len(row) == 2 and type(row[0]) is type(row[1]) is int
               and not gc.is_tracked(row) for row in relation)


def ring_strategy(length: int) -> CoSystem:
    """``identical_ring`` with every node choosing l, on round the ring."""
    return annotate(identical_ring(length), {2 * i: Choice.L for i in range(length)})


def test_convertible_coprime_rings_without_the_product_walk(monkeypatch):
    refuse_to_walk(monkeypatch)
    r = convertible(ring_strategy(353), ring_strategy(354), "Alice")
    assert (r.value, r.witness, r.note) == (
        Convertibility.INDUCTIVE, {"differences": []}, "strategies denote the same tree")


def flatten_calls(monkeypatch) -> list[CoSystem]:
    """The system of every ``_flatten`` call from now on."""
    calls = []
    original = system._flatten

    def counted(sys_, *args):
        calls.append(sys_)
        return original(sys_, *args)

    monkeypatch.setattr(system, "_flatten", counted)
    return calls


def test_each_input_is_flattened_once_per_call(monkeypatch):
    calls = flatten_calls(monkeypatch)
    ring = identical_ring(7)
    mutant = helpers.payoff_mutant(ring, 13)
    for a, b in ((ring, identical_ring(5)), (ring, mutant), (mutant, ring)):
        assert bisimilar(a, b).holds == (mutant not in (a, b))
        assert list(map(id, calls)) == [id(a), id(b)]
        calls.clear()
    strategy = ring_strategy(7)
    agu, ngu = dollar_auction_strategy("agu"), dollar_auction_strategy("ngu")
    for value, a, b, agent in (
            (Convertibility.INDUCTIVE, strategy, ring_strategy(3), "Alice"),
            (Convertibility.COINDUCTIVE_ONLY, strategy, helpers.flip_class_choice(strategy, 0), "Alice"),
            (Convertibility.NOT_CONVERTIBLE, strategy, helpers.payoff_mutant(strategy, 13), "Alice"),
            (Convertibility.NOT_CONVERTIBLE, agu, ngu, "Bob")):  # the last pair is parametric
        assert convertible(a, b, agent).value is value
        assert list(map(id, calls)) == [id(a), id(b)]
        calls.clear()


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


def naive_bounded(a: CoSystem, b: CoSystem, depth: int) -> tuple[list[str], str] | None:
    """The first failing path of length <= depth, shortest first and
    left before right among equal lengths, and its reason, or None: a
    plain search that unfolds every path from the roots on its own and
    remembers nothing between paths."""

    def reason(ha, hb) -> str | None:
        if isinstance(ha, Leaf) != isinstance(hb, Leaf):
            return "head kind differs"
        if isinstance(ha, Leaf):
            if any(ha.payoffs[ag].at(0) != hb.payoffs[ag].at(0) for ag in a.roster):
                return "leaf payoffs differ"
            return None
        if ha.owner != hb.owner:
            return "owner differs"
        if ha.choice is not hb.choice:
            return "choice differs"
        return None

    for length in range(depth + 1):
        for path in itertools.product("lr", repeat=length):
            ra, rb = a.root, b.root
            for label in path:
                ha, hb = unfold(a, ra), unfold(b, rb)
                if reason(ha, hb) is not None or isinstance(ha, Leaf):
                    break  # a shorter path fails, or this one leaves the tree
                ra, rb = ha.child(Choice(label)), hb.child(Choice(label))
            else:
                found = reason(unfold(a, ra), unfold(b, rb))
                if found is not None:
                    return list(path), found
    return None


def test_bisimilar_bounded_agrees_with_a_naive_search_on_random_pairs():
    calls, failing, below_root = 0, 0, 0
    for seed in range(300):
        a = helpers.random_system(seed, max_shift=3)
        partners = [helpers.unrolled_variant(a, seed)]
        leaf = helpers.first_reachable_leaf(a)
        if leaf is not None:
            partners.append(helpers.payoff_mutant(a, leaf))
        other = helpers.random_system(seed + 1000, kind=a.kind, max_shift=3)
        if other.roster == a.roster:
            partners.append(other)
        for b in partners:
            for depth in range(7):
                v = bisimilar_bounded(a, b, depth)
                found = naive_bounded(a, b, depth)
                calls += 1
                if found is None:
                    assert v.holds and v.certificate == {"depth": depth}
                else:
                    path, reason = found
                    assert not v.holds
                    assert v.certificate == {"path": path, "reason": reason, "depth": depth}
                    failing += 1
                    below_root += bool(path)
    assert calls > 1500 and failing > 300 and below_root > 100


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

    def test_annotate_rejects_a_strategy(self):
        with pytest.raises(KindMismatchError, match="annotate expects a game"):
            annotate(dollar_auction_strategy("agu"), {0: Choice.L, 1: Choice.L})

    def test_an_incomplete_choice_map_names_the_first_node_class_without_one(self):
        with pytest.raises(ValueError, match="no choice for node class 1"):
            annotate(dollar_auction_game(), {0: Choice.L})

    @pytest.mark.parametrize("choices, where", [
        ({0: "l", 1: None}, 0), ({0: Choice.L, 1: None}, 1), ({0: Choice.R, 1: "r"}, 1)])
    def test_a_choice_that_is_not_a_choice_names_its_node_class(self, choices, where):
        with pytest.raises(ValueError, match=f"no choice for node class {where}: "):
            annotate(dollar_auction_game(), choices)


class TestRefsOutsideTheSystem:
    """A reference to a class outside the system, or at a negative shift,
    is refused by name where it enters the library."""

    CALLS = {
        "with_root": lambda s, ref: [check(with_root(s, ref)) for check in (
            nash_eq, sgpe, lambda t: bisimilar(t, t))],
        "unfold": unfold,
        "leads_to_leaf": leads_to_leaf,
        "utility_from": lambda s, ref: utility_from(s, ref, "Alice"),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("ref", [Ref(4), Ref(4, 2), Ref(-1), Ref(0, -1)], ids=repr)
    def test_is_refused_with_a_value_error(self, call, ref):
        s = dollar_auction_strategy("agu")
        with pytest.raises(ValueError, match=rf"reference {re.escape(str(ref))} lies outside"):
            self.CALLS[call](s, ref)


def closure(edges: dict, start) -> set:
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
        for name in (int, "n{}".format) * 400:  # int and string node names
            n = rng.randint(1, 10)
            nodes = [name(v) for v in range(n)]
            edges = {v: [rng.choice(nodes) for _ in range(rng.randint(0, 3))] for v in nodes}
            for v in rng.sample(nodes, rng.randint(0, n)):
                edges[v].append(v)  # self-loops
            reach = {v: closure(edges, v) for v in nodes}
            comps = sccs(rng.sample(nodes, n), edges.__getitem__)
            expected = {frozenset(w for w in reach[v] if v in reach[w]) for v in nodes}
            assert sorted(map(sorted, comps)) == sorted(map(sorted, expected))
            position = {v: i for i, comp in enumerate(comps) for v in comp}
            for v in nodes:
                assert all(position[w] <= position[v] for w in edges[v])

    def test_covers_only_what_the_start_nodes_reach(self):
        edges = {0: [1], 1: [0], 2: [0], 3: [3]}
        assert sorted(map(sorted, sccs([0], lambda v: edges[v]))) == [[0, 1]]

    def test_long_path_needs_no_recursion(self):
        n = 20000
        comps = sccs([0], lambda v: [v + 1] if v + 1 < n else [0])
        assert len(comps) == 1 and len(comps[0]) == n


def refuse_classes(monkeypatch) -> None:
    """Make every read of any system's classes view raise."""
    def refuse(self):
        raise AssertionError("the system's classes were read")

    monkeypatch.setattr(CoSystem, "classes", property(refuse))


def untimed(report: dict) -> dict:
    report.pop("timing_ms")
    return report


class TestChecksNeverReadTheClasses:
    """The checks in ``semantics``, ``equilibria`` and ``histories``, and
    every command on a file the flat reader reads, never read a system's
    classes view; the commands call no ``unfold`` either, so they build
    no class object."""

    CHECKS = {
        "leads_to_leaf": lambda s, lassos: leads_to_leaf(s),
        "alw_leads_to_leaf": lambda s, lassos: alw_leads_to_leaf(s),
        "nash_eq": lambda s, lassos: nash_eq(s),
        "sgpe": lambda s, lassos: sgpe(s),
        "s2u": lambda s, lassos: [s2u(s, agent) for agent in s.roster],
        "reach_index_sets": lambda s, lassos: [reach_index_sets(s, agent)
                                               for agent in (None, *s.roster)],
        "strategy_history": lambda s, lassos: strategy_history(s),
        "is_history_of": lambda s, lassos: [is_history_of(s, h) for h in lassos],
    }

    def test_checks_agree_without_the_classes(self, monkeypatch):
        pool = []
        for seed in range(600):
            s = helpers.random_system(seed, kind=STRATEGY, max_classes=6 + seed % 7,
                                      max_shift=seed % 3)
            untouched = CoSystem(s.kind, s.roster, s.classes, s.root)
            rng = random.Random(seed)
            lassos = [helpers.random_lasso(rng) for _ in range(4)]
            pool.append((seed, s, lassos, {name: check(untouched, lassos)
                                           for name, check in self.CHECKS.items()}))
        refuse_classes(monkeypatch)
        for seed, s, lassos, expected in pool:
            for name, check in self.CHECKS.items():
                assert check(s, lassos) == expected[name], (seed, name)

    def test_a_read_of_the_classes_is_caught(self, monkeypatch):
        s = helpers.random_system(0, kind=STRATEGY)
        refuse_classes(monkeypatch)
        with pytest.raises(AssertionError, match="classes were read"):
            dsl.render(s)

    def test_commands_on_flat_files_never_read_the_classes(self, capsys, monkeypatch, tmp_path):
        from cogames import cli

        rng = random.Random(23)
        texts = {path.stem: path.read_text() for path in sorted(GAMES.glob("*.cog"))}
        for periods in (1, 7, rng.randint(100, 530)):
            for choice in "rl":
                texts[f"unrolled_{choice}_{periods}"] = helpers.unrolled_dollar_auction(
                    periods, rng.randrange(1000), choice)
        p, q = rng.sample([3, 5, 7, 11, 13], 2)
        rings = {"ring_p": identical_ring(p), "ring_q": identical_ring(q),
                 "ring_mutant": helpers.payoff_mutant(identical_ring(q), 1),
                 "lring_p": ring_strategy(p), "lring_q": ring_strategy(q),
                 "lring_flipped": helpers.flip_class_choice(ring_strategy(q), 0)}
        texts.update((name, dsl.render(ring)) for name, ring in rings.items())
        for name, text in texts.items():
            (tmp_path / f"{name}.cog").write_text(text)
            assert dsl._parse_flat(text) is not None, name
        path = {name: str(tmp_path / f"{name}.cog") for name in texts}
        strategies = [name for name, text in texts.items() if text.startswith("strategy")]
        unrolled = f"unrolled_r_{periods}"
        argvs = [["history", path[name], "--check", lasso] for name in texts for lasso in ("r", "(l)^w")]
        for name in strategies:
            argvs += [["check", path[name], "--ltl", "--altl", "--nash", "--sgpe"],
                      ["eval", path[name], "--agent", "Alice", "--n", "3"], ["history", path[name]]]
        for a, b in (("ring_p", "ring_q"), ("ring_p", "ring_mutant"), ("lring_p", "lring_q"),
                     ("dollar_auction", "centipede"), ("dollar_auction_agu", unrolled)):
            argvs.append(["bisim", path[a], path[b]])
        for a, b, agent in (("lring_p", "lring_q", "Alice"), ("lring_p", "lring_flipped", "Alice"),
                            ("dollar_auction_agu", unrolled, "Alice"),
                            ("dollar_auction_agu", "dollar_auction_ngu", "Bob")):
            argvs.append(["convert", path[a], path[b], "--agent", agent])

        def run_all() -> list:
            out = []
            for argv in argvs:
                code = cli.main(["--json", *argv])
                captured = capsys.readouterr()
                out.append((code, untimed(json.loads(captured.out)), captured.err))
            return out

        expected = run_all()
        assert {"bisimilar", "bisimilar_bounded[24]"} <= {
            report["checks"][0]["name"] for _, report, _ in expected}
        assert {0, 1} == {code for code, _, _ in expected}
        refuse_classes(monkeypatch)

        def refuse_unfold(*args):
            raise AssertionError("a class object was built")

        monkeypatch.setattr(system, "unfold", refuse_unfold)
        assert run_all() == expected


def class_unfold(classes: tuple, at: Ref):
    """``unfold`` on class objects, as it read them before the columns."""
    cls = classes[at.cls]
    if isinstance(cls, Leaf):
        return Leaf({a: f.shifted(at.shift) for a, f in cls.payoffs.items()})
    return Node(cls.owner, cls.choice, Ref(cls.left.cls, cls.left.shift + at.shift),
                Ref(cls.right.cls, cls.right.shift + at.shift))


class TestColumns:
    """``CoSystem(kind, roster, classes, root)`` fills the columns that
    the flat reader fills from text, and the ``classes`` view rebuilds the
    class objects from them."""

    def test_constructor_reader_and_view_agree_on_random_systems(self):
        for seed in range(3000):
            kind, roster, classes, root = helpers.random_classes(seed)
            s = CoSystem(kind, roster, classes, root)
            parsed = dsl.parse(dsl.render(s))
            assert s == parsed and repr(s) == repr(parsed), seed
            assert s.classes == classes and parsed.classes == classes, seed
            assert [type(c) for c in parsed.classes] == [type(c) for c in classes]
            rng = random.Random(seed)
            for _ in range(3):
                at = Ref(rng.randrange(len(classes)), rng.randint(0, 5))
                assert unfold(parsed, at) == class_unfold(classes, at), (seed, at)
            system.condensation(s)
            at = Ref(rng.randrange(len(classes)), rng.randint(0, 2))
            moved = with_root(s, at)
            assert moved.root == at and moved._memo == {} and s._memo
            assert all(a is b for a, b in zip(moved._columns(), s._columns()))
            assert moved.classes == classes

    ZERO = Leaf({"A": Affine.const(0)})
    PAYS_A_ONLY = Leaf({"A": Affine(1, 0)})
    # kind, roster, classes, root, and the certificate of the first violation;
    # the last four put a node over a leaf, and on them the engines once
    # raised IndexError, TypeError, KeyError and AttributeError
    INVALID = [
        (GAME, ("A",), (Node("A", Choice.L, Ref(1), Ref(1)), ZERO), Ref(0),
         {"error": "ExtraChoice", "class": 0}),
        (STRATEGY, ("A",), (Node("A", None, Ref(1), Ref(1)), ZERO), Ref(0),
         {"error": "MissingChoice", "class": 0}),
        (GAME, ("A",), (Node("A", None, Ref(5), Ref(0, -2)),), Ref(0),
         {"error": "InvalidRef", "class": 0, "ref": {"class": 5, "shift": 0}}),
        (GAME, (), (Leaf({}),), Ref(0), {"error": "EmptyRoster"}),
        (GAME, ("A", "B"), (ZERO,), Ref(0), {"error": "PayoffDomain", "class": 0}),
        (GAME, ("A",), (Leaf({"A": Affine(1, 2), "Z": Affine(3, 4)}),), Ref(0),
         {"error": "PayoffDomain", "class": 0}),
        ("tree", ("A",), (ZERO,), Ref(0), {"error": "BadKind", "kind": "tree"}),
        (GAME, ("A",), (Node("Z", None, Ref(1), Ref(1)), ZERO), Ref(0),
         {"error": "UnknownOwner", "class": 0}),
        (GAME, ("A",), (ZERO,), Ref(1), {"error": "InvalidRef", "class": "root",
                                         "ref": {"class": 1, "shift": 0}}),
        (GAME, ("A",), (), Ref(0), {"error": "InvalidRef", "class": "root",
                                    "ref": {"class": 0, "shift": 0}}),
        (STRATEGY, ("A", "B"), (Node("A", Choice.L, Ref(2), Ref(1)), PAYS_A_ONLY), Ref(0),
         {"error": "InvalidRef", "class": 0, "ref": {"class": 2, "shift": 0}}),
        (STRATEGY, ("A", "B"), (Node("A", Choice.L, Ref(1), Ref(1)), PAYS_A_ONLY), Ref(0),
         {"error": "PayoffDomain", "class": 1}),
        (STRATEGY, ("A",), (Node("B", Choice.L, Ref(1), Ref(1)), PAYS_A_ONLY), Ref(0),
         {"error": "UnknownOwner", "class": 0}),
        (STRATEGY, ("A",), (Node("A", "l", Ref(1), Ref(1)), PAYS_A_ONLY), Ref(0),
         {"error": "MissingChoice", "class": 0}),
        # mistyped: these once raised AttributeError or TypeError
        (GAME, ("A",), ("x",), Ref(0), {"error": "NotAClass", "class": 0}),
        (GAME, ("A",), (Leaf({"A": 1}),), Ref(0), {"error": "PayoffDomain", "class": 0}),
        (GAME, ("A",), (Node("A", None, Ref("0"), Ref(0)),), Ref(0),
         {"error": "InvalidRef", "class": 0, "ref": "Ref(cls='0', shift=0)"}),
        (GAME, ("A",), (ZERO,), (0, 0), {"error": "InvalidRef", "class": "root", "ref": "(0, 0)"}),
        (GAME, ("A",), (Node(["A"], None, Ref(0), Ref(0)),), Ref(0),
         {"error": "UnknownOwner", "class": 0}),
    ]

    @pytest.mark.parametrize("kind, roster, classes, root, certificate", INVALID)
    def test_invalid_systems_are_refused_at_construction(self, kind, roster, classes, root,
                                                         certificate):
        assert refused(kind, roster, classes, root).certificate == certificate

    def test_a_leaf_entry_is_the_roster_pairs(self):
        plain = CoSystem(GAME, ("A", "B"), (Leaf({"B": Affine(3, 4), "A": Affine(1, 2)}),))
        assert plain.payoff == ((1, 2, 3, 4),) and validate(plain).holds
        assert plain.classes == (Leaf({"A": Affine(1, 2), "B": Affine(3, 4)}),)
