import collections
import contextlib
import json
import random
import re
from collections import deque

import pytest

from cogames import (
    Affine,
    Choice,
    CoSystem,
    KindMismatchError,
    Leaf,
    Node,
    Ref,
    ReachSet,
    RosterMismatchError,
    STRATEGY,
    alw_leads_to_leaf,
    bisimilar_bounded,
    convertible,
    leads_to_leaf,
    nash_eq,
    reach_index_sets,
    reachable,
    sgpe,
    strategy_history,
    strategy_to_game,
    unfold,
)
from cogames.system import Convertibility, ProductWalk, condensation, sccs
from cogames import equilibria
from cogames import dsl, oracle
from cogames.cli import main
from cogames.families import centipede_strategy, dollar_auction_strategy

import helpers

IND = Convertibility.INDUCTIVE
COIND = Convertibility.COINDUCTIVE_ONLY
NOT = Convertibility.NOT_CONVERTIBLE


def play_value(s: CoSystem, at: Ref, agent: str) -> int:
    """The agent's payoff at the leaf the committed choices lead to from
    ``at``, read with ``unfold`` only."""
    for _ in range(len(s.classes) + 1):
        head = unfold(s, at)
        if isinstance(head, Leaf):
            return head.payoffs[agent].at(0)
        at = head.child(head.choice)
    raise AssertionError(f"the play from {at} reaches no leaf")


def margins(cert: dict) -> list[tuple[int, int]]:
    """A holding ``sgpe`` certificate's margin per class, chosen minus
    other, as (slope, intercept at the class's local index 0)."""
    return [(cs - os_, ci - oi) for cs, ci, os_, oi in zip(
        cert["chosen_slope"], cert["chosen_intercept"], cert["other_slope"], cert["other_intercept"])]


def replay_sgpe_failure(s: CoSystem, cert: dict, note: str) -> None:
    """Check an SGPE failure against the system with ``unfold`` only: a
    breadth-first search over (class, index) states, bounded by the
    reported index, reaches the class at that index, and there the
    owner's play through the other child pays more than the chosen one.
    The owner and the choice are the system's, and the note names the
    owner."""
    assert list(cert) == ["class", "index", "chosen_value", "other_value"]
    target = Ref(cert["class"], cert["index"])
    seen, queue = {s.root}, deque([s.root])
    while queue and target not in seen:
        head = unfold(s, queue.popleft())
        if isinstance(head, Node):
            for ref in (head.left, head.right):
                if ref.shift <= target.shift and ref not in seen:
                    seen.add(ref)
                    queue.append(ref)
    assert target in seen
    head = unfold(s, target)
    assert isinstance(head, Node)
    chosen, other = (play_value(s, head.child(c), head.owner) for c in (head.choice, head.choice.other))
    assert (chosen, other) == (cert["chosen_value"], cert["other_value"])
    assert chosen < other
    assert note == f"{head.owner} prefers the other branch of class {target.cls} at index {target.shift}"


def doubling_chain(length: int, choice: Choice) -> CoSystem:
    """Node i reaches node i+1 at shifts 0 and 2**i, so the end leaf (pays
    n) occurs at every index 0 .. 2**length - 1; every node plays ``choice``."""
    classes = [Node("A", choice, Ref(i + 1), Ref(i + 1, 2 ** i)) for i in range(length)]
    return CoSystem(STRATEGY, ("A",), (*classes, Leaf({"A": Affine(1, 0)})), Ref(0))


NASH_FAILURE = ["agent", "on_path_value", "deviation_value", "leaf_class", "leaf_index", "path"]
STEP_COLUMNS = ["class", "index", "choice"]


def replay_deviation(s: CoSystem, cert: dict, note: str) -> None:
    """Check a Nash failure witness against the system with ``unfold``
    only: the on-path value, then the deviation path, which may override
    choices at the deviating agent's nodes only.  Each list of steps is
    the columns ``class``, ``index`` and ``choice``; the owners and the
    committed choices are the system's.  A lasso witness is expanded
    here: ``repeat`` rounds of ``cycle``, whose indices hold for the
    first round and grow by the same amount each round, then ``tail``.
    The note counts the overrides among the steps as written, once per
    (class, index)."""
    assert list(cert) in (NASH_FAILURE, NASH_FAILURE + ["cycle", "repeat", "tail"])
    agent = cert["agent"]
    assert play_value(s, s.root, agent) == cert["on_path_value"]
    at, overrides = s.root, set()

    def follow(steps: dict, shift: int = 0) -> None:
        nonlocal at
        assert list(steps) == STEP_COLUMNS
        assert len(steps["class"]) == len(steps["index"]) == len(steps["choice"])
        for c, index, label in zip(steps["class"], steps["index"], steps["choice"]):
            head = unfold(s, at)
            assert isinstance(head, Node)
            assert (c, index + shift) == (at.cls, at.shift)
            choice = Choice(label)
            if choice is not head.choice:
                assert head.owner == agent
                if not shift:
                    overrides.add((c, index))
            at = head.child(choice)

    follow(cert["path"])
    if "cycle" in cert:
        cycle = cert["cycle"]
        assert cert["repeat"] >= 1
        loop = 0
        for round_ in range(cert["repeat"]):
            follow(cycle, round_ * loop)
            if round_ == 0:
                loop = at.shift - cycle["index"][0]
                assert at.cls == cycle["class"][0] and loop > 0
        follow(cert["tail"])
    head = unfold(s, at)
    assert isinstance(head, Leaf)
    assert (cert["leaf_class"], cert["leaf_index"]) == (at.cls, at.shift)
    assert head.payoffs[agent].at(0) == cert["deviation_value"] > cert["on_path_value"]
    assert note == (f"{agent} improves {cert['on_path_value']} -> {cert['deviation_value']} "
                    f"by overriding {len(overrides)} choice(s)")


def replay_altl_holds(s: CoSystem, cert: dict) -> None:
    """Check a holding ``alw_leads_to_leaf`` certificate with ``unfold``
    only: its ``class`` column is the breadth-first order of the classes
    reachable through both children, and every ``leaf`` and ``steps``
    entry follows the local rule (a leaf ends at itself in 0 steps, a
    node where its chosen child ends, in one step more)."""
    assert list(cert) == ["class", "leaf", "steps"]
    classes, leaf, steps = cert["class"], cert["leaf"], cert["steps"]
    assert len(classes) == len(leaf) == len(steps)
    assert classes == helpers.reachable_classes(s)
    row = {c: i for i, c in enumerate(classes)}
    for c, end, k in zip(classes, leaf, steps):
        head = unfold(s, Ref(c))
        if isinstance(head, Leaf):
            assert (end, k) == (c, 0)
        else:
            i = row[head.child(head.choice).cls]
            assert (end, k) == (leaf[i], steps[i] + 1)


SGPE_COLUMNS = ["class", "n_min", "n_max", "chosen_slope", "chosen_intercept", "other_slope",
                "other_intercept"]


def replay_sgpe_holds(s: CoSystem, cert: dict) -> None:
    """Check a holding ``sgpe`` certificate with ``unfold``, ``play_value``
    and ``helpers.reference_reach`` only: one entry per reachable node
    class in id order, whose interval is the reference's; each branch
    utility's intercept and slope are the owner's play values through
    that child at the class's local indices 0 and 1 (the value at 0,
    and the value at 1 less it); and the margin, chosen minus other, is
    >= 0 at both ends of the interval, or at its least end with a slope
    >= 0 when it has no greatest."""
    assert list(cert) == SGPE_COLUMNS
    columns = [cert[name] for name in SGPE_COLUMNS]
    assert len({len(column) for column in columns}) == 1
    least, greatest, _ = helpers.reference_reach(s)
    assert cert["class"] == [c for c, lo in enumerate(least)
                             if lo is not None and isinstance(unfold(s, Ref(c)), Node)]
    for c, lo, hi, cs, ci, os_, oi in zip(*columns):
        assert (lo, hi) == (least[c], greatest[c])
        at0, at1 = unfold(s, Ref(c)), unfold(s, Ref(c, 1))
        for choice, slope, intercept in ((at0.choice, cs, ci), (at0.choice.other, os_, oi)):
            v0, v1 = (play_value(s, head.child(choice), head.owner) for head in (at0, at1))
            assert (slope, intercept) == (v1 - v0, v0)
        a, b = cs - os_, ci - oi
        assert a * lo + b >= 0
        assert a * hi + b >= 0 if hi is not None else a >= 0


def replay_nash_holds(s: CoSystem, cert: dict) -> None:
    """Check a holding, non-vacuous ``nash_eq`` certificate with
    ``unfold``, ``play_value`` and ``helpers.reference_reach`` only: per
    roster agent, the on-path value is the root's play value; the
    leaves, in id order, and their intervals are those of the agent's
    reference reach; the best deviation value is the greatest payoff at
    an end of a leaf's interval; a leaf met at unboundedly large indices
    pays with a slope <= 0; and no leaf's best end beats the on-path
    value."""
    assert list(cert) == ["agents"]
    assert [report["agent"] for report in cert["agents"]] == list(s.roster)
    for report in cert["agents"]:
        assert list(report) == ["agent", "on_path_value", "best_deviation_value", "leaf_class",
                                "n_min", "n_max"]
        agent, base = report["agent"], report["on_path_value"]
        assert base == play_value(s, s.root, agent)
        least, greatest, _ = helpers.reference_reach(s, agent)
        leaves = [c for c, lo in enumerate(least)
                  if lo is not None and isinstance(unfold(s, Ref(c)), Leaf)]
        assert report["leaf_class"] == leaves
        assert report["n_min"] == [least[c] for c in leaves]
        assert report["n_max"] == [greatest[c] for c in leaves]
        ends = []
        for c, lo, hi in zip(leaves, report["n_min"], report["n_max"]):
            pay = unfold(s, Ref(c)).payoffs[agent]
            ends.append(pay.at(lo))
            if hi is None:
                assert pay.slope <= 0
            else:
                ends.append(pay.at(hi))
        assert report["best_deviation_value"] == max(ends) <= base


def int_entries(node, path: tuple = ()):
    """The path to every int in a certificate, through dicts and lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from int_entries(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from int_entries(value, path + (i,))
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path


class TestHoldingCertificatesReplay:
    """The holding certificates of ``leads_to_leaf``, ``alw_leads_to_leaf``,
    ``sgpe`` and ``nash_eq`` replay against the system by code that shares
    nothing with the engines, and the replay rejects any one entry moved
    by 1."""

    CHECKS = ((leads_to_leaf, helpers.replay_walk), (alw_leads_to_leaf, replay_altl_holds),
              (sgpe, replay_sgpe_holds), (nash_eq, replay_nash_holds))

    @staticmethod
    def pool(ring: int, chain: int) -> list[CoSystem]:
        pool = [helpers.random_terminating_strategy(seed) for seed in range(60)]
        return pool + [dollar_auction_strategy("agu"), centipede_strategy("agu"),
                       shifted_ring(ring, -1), doubling_chain(chain, Choice.R)]

    def holding(self, pool: list[CoSystem]):
        held = 0
        for s in pool:
            for check, replay in self.CHECKS:
                v = check(s)
                if v.holds:
                    held += 1
                    yield s, v.certificate, replay
        # every check holds on most of the pool
        assert held > 2 * len(pool)

    def test_every_holding_certificate_replays(self):
        for s, cert, replay in self.holding(self.pool(TestShiftedRing.LENGTH, 40)):
            replay(s, cert)

    def test_every_entry_moved_by_one_is_rejected(self):
        for s, cert, replay in self.holding(self.pool(12, 40)):
            for path in int_entries(cert):
                *inner, last = path
                column = cert
                for key in inner:
                    column = column[key]
                for delta in (1, -1):
                    column[last] += delta
                    with pytest.raises(AssertionError):
                        replay(s, cert)
                    column[last] -= delta
            replay(s, cert)

    def test_a_leaf_root_gives_empty_columns(self):
        s = CoSystem(STRATEGY, ("A",), (Leaf({"A": Affine(1, 2)}),))
        assert sgpe(s).certificate == dict.fromkeys(SGPE_COLUMNS, [])
        assert alw_leads_to_leaf(s).certificate == {"class": [0], "leaf": [0], "steps": [0]}
        [report] = nash_eq(s).certificate["agents"]
        assert (report["leaf_class"], report["n_min"], report["n_max"]) == ([0], [0], [0])
        for check, replay in self.CHECKS:
            replay(s, check(s).certificate)


FAILING_CHECKS = {"ltl": leads_to_leaf, "altl": alw_leads_to_leaf, "nash": nash_eq, "sgpe": sgpe}


def replay_failing(s: CoSystem, name: str, v) -> str:
    """Replay a failing certificate of check ``name``, or the walk that a
    vacuous ``nash`` hold cites, with the owners and the choices read
    from ``s``; returns which kind of certificate it was."""
    cert = v.certificate
    if name == "ltl":
        helpers.replay_walk(s, cert)
        return "ltl"
    if name == "altl":
        helpers.replay_altl_failure(s, cert)
        return "altl"
    if name == "nash" and v.holds:
        assert list(cert) == ["leads_to_leaf"] and not leads_to_leaf(s).holds
        helpers.replay_walk(s, cert["leads_to_leaf"])
        return "nash vacuous"
    if name == "nash":
        replay_deviation(s, cert, v.note)
        return "nash lasso" if "cycle" in cert else "nash path"
    if "alw_leads_to_leaf" in cert:
        assert list(cert) == ["alw_leads_to_leaf"]
        helpers.replay_altl_failure(s, cert["alw_leads_to_leaf"])
        return "sgpe precondition"
    replay_sgpe_failure(s, cert, v.note)
    return "sgpe"


class TestFailingCertificatesReplay:
    """Every failing certificate of ``leads_to_leaf``, ``alw_leads_to_leaf``,
    ``nash_eq`` and ``sgpe``, and the walk that a vacuous Nash hold or a
    failed SGPE precondition cites, replays against the system, which
    alone names owners and committed choices; the replay rejects any
    one int entry moved by 1."""

    @staticmethod
    def failing(seeds: range):
        for parametric in (True, False):
            for seed in seeds:
                s = helpers.random_system(seed, kind=STRATEGY, max_classes=8, parametric=parametric)
                for name, check in FAILING_CHECKS.items():
                    v = check(s)
                    if not v.holds or "leads_to_leaf" in v.certificate:
                        yield s, name, v

    def test_every_failing_certificate_replays_on_random_cyclic_strategies(self):
        kinds = collections.Counter(replay_failing(s, name, v)
                                    for s, name, v in self.failing(range(1500)))
        assert set(kinds) == {"ltl", "altl", "nash vacuous", "nash path", "nash lasso",
                              "sgpe precondition", "sgpe"}, kinds
        assert min(kinds.values()) >= 20, kinds

    def test_every_entry_moved_by_one_is_rejected(self):
        moved = 0
        for s, name, v in self.failing(range(150)):
            cert = v.certificate
            for path in int_entries(cert):
                *inner, last = path
                column = cert
                for key in inner:
                    column = column[key]
                for delta in (1, -1):
                    column[last] += delta
                    # a class moved off the system is refused by unfold
                    with pytest.raises((AssertionError, ValueError)):
                        replay_failing(s, name, v)
                    column[last] -= delta
                    moved += 1
            replay_failing(s, name, v)
        assert moved > 1000


# two positive cycles, c1's and c2's, both feed one class past them
TWO_CYCLES_NASH = """strategy agents A
c0(n) = <A, r, c1(n), stop(n)>
c1(n) = <A, r, c1(n+1), c2(n+5)>
c2(n) = <A, r, c2(n+1), win(n)>
win(n) = leaf[A: n]
stop(n) = leaf[A: 100]
root c0
"""

# a lasso whose path and cycle both take c4's r at index 0
STEP_TWICE_NASH = """strategy agents Ann
c0(n) = <Ann, r, c4(n), c4(n)>
c1(n) = <Ann, r, c1(n), c2(n)>
c2(n) = leaf[Ann: 1*n-8]
c3(n) = <Ann, r, c0(n+2), c0(n+1)>
c4(n) = <Ann, l, c1(n+1), c5(n)>
c5(n) = <Ann, l, c4(n+2), c0(n)>
root c4
"""

# c2's cycle lies below c1's, but the root reaches c2 directly at index 0
# and c1 only at 5, so a lasso into win pumps c2's cycle
SHORTCUT_CYCLES_NASH = """strategy agents A
c0(n) = <A, l, c1(n+5), c2(n)>
c1(n) = <A, r, c1(n+1), c2(n)>
c2(n) = <A, r, c2(n+1), win(n)>
win(n) = leaf[A: n]
root c0
"""

TWO_CYCLES_SGPE = """strategy agents A
c0(n) = <A, l, c1(n), stop(n)>
c1(n) = <A, r, c1(n+1), c2(n+5)>
c2(n) = <A, r, c2(n+3), x(n)>
x(n) = <A, l, lose(n), keep(n)>
lose(n) = leaf[A: -n]
keep(n) = leaf[A: -20]
stop(n) = leaf[A: -1000]
root c0
"""


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
        switched = helpers.flip_class_choice(ngu, 0)  # Alice's backbone class
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
        pairs = [(ngu, helpers.flip_class_choice(ngu, 0), "Alice")]
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

    def test_agent_outside_the_roster_rejected(self):
        s = dollar_auction_strategy("agu")
        with pytest.raises(ValueError, match=r"agent 'Zed' not in roster \('Alice', 'Bob'\)"):
            convertible(s, s, "Zed")

    def test_parametrization_drift_is_exact(self):
        # the drifting backbone only reaches constant leaves, and a
        # reachable indexed leaf elsewhere does not make its drift matter
        def comb(step: int) -> CoSystem:
            return CoSystem(STRATEGY, ("A",), (
                Node("A", Choice.L, Ref(1, 0), Ref(3, 0)),
                Node("A", Choice.L, Ref(1, step), Ref(2, 0)),
                Leaf({"A": Affine(0, 7)}),
                Leaf({"A": Affine(1, 0)}),
            ), Ref(0, 0))

        r = convertible(comb(1), comb(2), "A")
        assert (r.value, r.note) == (IND, "strategies denote the same tree")
        # one two-leaf tree, its large offset on the edges or in the leaf
        s = dsl.parse("strategy agents A\nc0(n) = <A, l, c1(n+100), c1(n+100)>\n"
                      "c1(n) = leaf[A: n]\nroot c0\n")
        t = dsl.parse("strategy agents A\nc0(n) = <A, l, c1(n), c1(n)>\n"
                      "c1(n) = leaf[A: n+100]\nroot c0\n")
        for a, b in ((s, t), (t, s)):
            r = convertible(a, b, "A")
            assert (r.value, r.note) == (IND, "strategies denote the same tree")

    def test_zero_slope_drift_is_tolerated(self):
        def comb(step: int) -> CoSystem:
            return CoSystem(STRATEGY, ("A",), (
                Node("A", Choice.L, Ref(0, step), Ref(1, 0)),
                Leaf({"A": Affine(0, 7)}),
            ), Ref(0, 0))

        # same denoted tree (payoffs do not depend on the index)
        assert convertible(comb(1), comb(2), "A").value is IND


_RING = ("strategy agents A B\np(n) = <{p_owner}, {p_choice}, r0(n), e(n)>\n"
         "r0(n) = <A, l, r1(n), e(n)>\nr1(n) = <B, {r1_choice}, r0(n), d(n)>\n"
         "d(n) = <A, {d_choice}, e(n), f(n)>\ne(n) = leaf[A: 0, B: 0]\nf(n) = leaf[A: 1, B: {f_b}]\n"
         "root p\n")


def _ring(p_owner="B", p_choice="l", r1_choice="l", d_choice="l", f_b=1) -> str:
    """A prefix ``p`` into the cycle ``r0 r1``, which leaves through ``d``."""
    return _RING.format(p_owner=p_owner, p_choice=p_choice, r1_choice=r1_choice,
                        d_choice=d_choice, f_b=f_b)


def _state(left: int, right: int, delta: int = 0) -> dict:
    return {"left_class": left, "right_class": right, "delta": delta}


_DRIFT = ("strategy agents A\nx(n) = <A, l, y(n), z(n)>\ny(n) = <A, l, {}, {}>\n"
          "w(n) = leaf[A: 7]\nz(n) = leaf[A: n]\nroot x\n")
_SLOPED = "strategy agents A\nx(n) = <A, l, y(n+{}), y(n+{})>\ny(n) = leaf[A: n+{}]\nroot x\n"
_CYCLE = ("strategy agents A B\np(n) = <B, l, r0(n), e(n)>\nr0(n) = <A, {}, r1(n), e(n)>\n"
          "r1(n) = <B, l, r0(n), e(n)>\ne(n) = leaf[A: 0, B: 0]\nroot p\n")

# one row per outcome: the two strategies, the deviator, then the class,
# the witness and the note
CONVERT_TABLE = {
    "foreign-owner-choice": (
        _ring(), _ring(r1_choice="r"), "A", NOT,
        {"path": ["l", "l"], "state": _state(2, 2),
         "reason": "choice differs at a node owned by B, not the deviator"},
        "choice differs at a node owned by B, not the deviator"),
    "leaf-payoffs": (
        _ring(), _ring(f_b=2), "A", NOT,
        {"path": ["l", "l", "r", "r"], "state": _state(5, 5), "reason": "leaf payoffs differ for B"},
        "leaf payoffs differ for B"),
    "sloped-leaf-under-drift": (
        _SLOPED.format(1, 0, 0), _SLOPED.format(0, 0, 0), "A", NOT,
        {"path": ["l"], "state": _state(1, 1, -1), "reason": "leaf payoffs differ for A"},
        "leaf payoffs differ for A"),
    "large-drift-realigns": (
        _DRIFT.format("y(n+1)", "w(n)"), _DRIFT.format("y(n+2)", "w(n)"), "A", IND,
        {"differences": []},
        "strategies denote the same tree"),
    "large-drift-realigns-on-the-right": (
        _DRIFT.format("w(n)", "y(n+1)"), _DRIFT.format("w(n)", "y(n+2)"), "A", IND,
        {"differences": []},
        "strategies denote the same tree"),
    "sensitive-pair-reached-with-two-drifts": (
        _DRIFT.format("y(n+1)", "z(n)"), _DRIFT.format("y(n+2)", "z(n)"), "A", NOT,
        {"path": ["l", "l", "r"], "state": _state(3, 3, 1), "reason": "leaf payoffs differ for A"},
        "leaf payoffs differ for A"),
    "coinductive-after-the-cycle": (
        _ring(), _ring(d_choice="r"), "A", COIND,
        {"difference": _state(3, 3), "cycle": [_state(1, 1), _state(2, 2)],
         "path_from_cycle": [_state(3, 3)], "path_from_root": ["l", "l"]},
        "a choice difference recurs along an unrolled cycle"),
    "coinductive-on-the-cycle": (
        _CYCLE.format("l"), _CYCLE.format("r"), "A", COIND,
        {"difference": _state(1, 1), "cycle": [_state(1, 1), _state(2, 2)],
         "path_from_cycle": [], "path_from_root": ["l"]},
        "a choice difference recurs along an unrolled cycle"),
    "inductive-with-differences": (
        _ring(p_owner="A"), _ring(p_owner="A", p_choice="r"), "A", IND,
        {"differences": [_state(0, 0)]},
        "1 differing node class pair(s), none recurring"),
    "inductive-realigned-drift": (
        _SLOPED.format(1, 1, 0), _SLOPED.format(0, 0, 1), "A", IND,
        {"differences": []},
        "strategies denote the same tree"),
}


@pytest.mark.parametrize("case", sorted(CONVERT_TABLE))
def test_convertible_certificate_table(case):
    s, t, agent, value, witness, note = CONVERT_TABLE[case]
    r = convertible(dsl.parse(s), dsl.parse(t), agent)
    assert (r.value, r.witness, r.note) == (value, witness, note)


def observations_differ(ha, hb, agent: str) -> bool:
    """Whether two one-step observations (from ``unfold``) differ in a way
    the agent's own choices cannot explain."""
    if isinstance(ha, Leaf) or isinstance(hb, Leaf):
        return not (isinstance(ha, Leaf) and isinstance(hb, Leaf)) or ha.payoffs != hb.payoffs
    return ha.owner != hb.owner or (ha.choice is not hb.choice and ha.owner != agent)


def replay_not_convertible(s: CoSystem, t: CoSystem, agent: str, witness: dict) -> None:
    """Follow the witness path from both roots with ``unfold`` only: it
    must end at the named classes, under their drift (or 0 where no
    sloped leaf is reachable), in observations that differ."""
    at_s, at_t = s.root, t.root
    for label in witness["path"]:
        hs, ht = unfold(s, at_s), unfold(t, at_t)
        assert isinstance(hs, Node) and isinstance(ht, Node)
        at_s, at_t = hs.child(Choice(label)), ht.child(Choice(label))
    state = witness["state"]
    assert (state["left_class"], state["right_class"]) == (at_s.cls, at_t.cls)
    assert state["delta"] in (0, at_t.shift - at_s.shift)
    assert observations_differ(unfold(s, at_s), unfold(t, at_t), agent), witness


def agree_to_depth(s: CoSystem, t: CoSystem, agent: str, depth: int) -> bool:
    """Depth-bounded unfolding: no observation on a path of at most
    ``depth`` steps differs beyond the agent's own choices."""
    level = {(s.root, t.root)}
    for _ in range(depth + 1):
        below = set()
        for at_s, at_t in level:
            hs, ht = unfold(s, at_s), unfold(t, at_t)
            if observations_differ(hs, ht, agent):
                return False
            if isinstance(hs, Node):
                below.update(((hs.left, ht.left), (hs.right, ht.right)))
        level = below
    return True


def test_convertible_verdicts_replay_on_random_parametric_pairs():
    """Presentations of one tree whose offsets sit on different edges
    (shifts up to 150) are inductively convertible; every
    ``NOT_CONVERTIBLE`` witness replays to a differing observation; and
    every verdict that holds agrees with a depth-bounded unfolding."""
    counts = {value: 0 for value in Convertibility}
    for seed in range(300):
        rng = random.Random(seed)
        s = helpers.random_system(seed, kind=STRATEGY, max_classes=6)
        agent = s.roster[seed % len(s.roster)]
        k = rng.randint(1, 150)
        moved_in, moved_out = helpers.offset_moved(s, rng.randrange(len(s.classes)), k)
        for a, b in ((moved_in, moved_out), (moved_out, moved_in)):
            r = convertible(a, b, agent)
            assert (r.value, r.note) == (IND, "strategies denote the same tree"), (seed, r.witness)
        perturbed, _ = helpers.prefix_perturbation(moved_out, agent, seed=seed)
        other = helpers.random_system(seed + 1000, kind=STRATEGY, max_classes=6)
        pairs = [(moved_in, helpers.unrolled_variant(moved_out, seed)), (moved_in, perturbed),
                 (perturbed, moved_in), (s, moved_out), (moved_in, s)]
        leaf = helpers.first_reachable_leaf(moved_out)
        if leaf is not None:
            pairs.append((moved_in, helpers.payoff_mutant(moved_out, leaf)))
        if isinstance(moved_out.classes[0], Node):
            pairs.append((moved_in, helpers.flip_class_choice(moved_out, 0)))
        if other.roster == s.roster:
            pairs.append((moved_in, other))
        for a, b in pairs:
            r = convertible(a, b, agent)
            counts[r.value] += 1
            if r.value is NOT:
                replay_not_convertible(a, b, agent, r.witness)
            else:
                assert agree_to_depth(a, b, agent, 8), (seed, r.value, r.witness)
    assert min(counts.values()) > 20, counts


def constant_leaves(s: CoSystem) -> CoSystem:
    """The same shifts with every payoff slope set to 0: no class is
    sensitive, so the union-find decides however the shifts sit."""
    classes = [Leaf({a: Affine(0, f.intercept) for a, f in c.payoffs.items()})
               if isinstance(c, Leaf) else c for c in s.classes]
    return CoSystem(s.kind, s.roster, tuple(classes), s.root)


def test_convertible_agrees_with_the_full_walk_on_random_pairs(monkeypatch):
    """Differential sweep: convertible, which lets the union-find answer
    same-tree pairs without walking, gives the same class, witness and
    note as convertible with the union-find switched off, where the
    product walk decides every pair.  Plain systems, systems with shifts
    but constant leaves, and parametric systems (where the union-find
    gives up at the first sensitive pair), with offset-moved pairs."""
    results = []
    for seed in range(300):
        rng = random.Random(seed)
        plain = helpers.random_system(seed, kind=STRATEGY, max_classes=7, parametric=False)
        sloped = helpers.random_system(seed, kind=STRATEGY, max_classes=7, max_shift=3)
        for s in (plain, helpers.random_terminating_strategy(seed, parametric=False),
                  sloped, constant_leaves(sloped)):
            agent = s.roster[seed % len(s.roster)]
            perturbed, _ = helpers.prefix_perturbation(s, agent, seed=seed)
            moved_in, moved_out = helpers.offset_moved(s, rng.randrange(len(s.classes)),
                                                       rng.randint(1, 9))
            others = [s, helpers.unrolled_variant(s, seed),
                      helpers.unrolled_variant(helpers.unrolled_variant(s, seed + 1), seed + 2),
                      perturbed, helpers.unrolled_variant(perturbed, seed + 3), moved_in, moved_out]
            leaf = helpers.first_reachable_leaf(s)
            if leaf is not None:
                others.append(helpers.payoff_mutant(s, leaf))
            node = next((c for c in reachable(s) if isinstance(s.classes[c], Node)), None)
            if node is not None:
                others.append(helpers.flip_class_choice(s, node))
            results += [(a, b, agent) for t in others for a, b in ((s, t), (t, s))]
    fast = [convertible(*args) for args in results]
    monkeypatch.setattr(ProductWalk, "_union_find", lambda self: None)
    for r, (a, b, agent) in zip(fast, results):
        walked = convertible(a, b, agent)
        assert (r.value, r.witness, r.note) == (walked.value, walked.witness, walked.note), \
            (a, b, agent)
    counts = {value: sum(r.value is value for r in fast) for value in Convertibility}
    same = sum(r.note == "strategies denote the same tree" for r in fast)
    assert min(counts.values()) > 100 and same > 3000, (counts, same)

class TestPreservation:
    def test_perturbed_give_up_stays_terminating(self):
        agu = dollar_auction_strategy("agu")
        t, _ = helpers.prefix_perturbation(agu, "Alice", seed=5)
        v = helpers.check_altl_preservation(agu, t, "Alice")
        assert v.holds
        assert v.certificate["source"]["outcome"] == "holds"
        assert v.certificate["target"]["outcome"] == "holds"

    def test_identity_trivially_preserved(self):
        s = centipede_strategy("agu")
        assert helpers.check_altl_preservation(s, s, "Bob").holds

    def test_vacuous_when_premise_fails(self):
        ngu = dollar_auction_strategy("ngu")
        v = helpers.check_altl_preservation(ngu, ngu, "Alice")
        assert v.holds and "vacuous" in v.note

    def test_not_applicable_without_inductive_convertibility(self):
        agu = dollar_auction_strategy("agu")
        ngu = dollar_auction_strategy("ngu")
        with pytest.raises(helpers.NotApplicableError):
            helpers.check_altl_preservation(agu, ngu, "Alice")

    def test_lemma_on_generated_pairs(self):
        for seed in range(60):
            s = helpers.random_terminating_strategy(seed)
            agent = s.roster[seed % len(s.roster)]
            t, _ = helpers.prefix_perturbation(s, agent, seed=seed + 1000)
            assert helpers.check_altl_preservation(s, t, agent).holds


@pytest.mark.parametrize("check", [nash_eq, sgpe, leads_to_leaf, alw_leads_to_leaf,
                                   strategy_history, strategy_to_game])
def test_equilibrium_checks_reject_a_game(check):
    with pytest.raises(KindMismatchError, match=f"{check.__name__} expects a strategy"):
        check(strategy_to_game(dollar_auction_strategy("agu")))


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
        assert v.certificate["path"] == {"class": [0], "index": [0], "choice": ["r"]}
        assert v.note == "A improves 0 -> 1 by overriding 1 choice(s)"
        replay_deviation(s, v.certificate, v.note)

    def test_unbounded_growth_found_by_pumping(self):
        # stop now for 0, or keep playing and stop later for n
        s = CoSystem(STRATEGY, ("A",), (
            Node("A", Choice.R, Ref(0, 1), Ref(1, 0)),
            Leaf({"A": Affine(1, 0)}),
        ))
        v = nash_eq(s)
        assert not v.holds
        assert v.certificate["deviation_value"] > 0
        assert v.certificate["cycle"] == {"class": [0], "index": [0], "choice": ["l"]}
        assert v.certificate["repeat"] == 1
        assert v.certificate["tail"] == {"class": [0], "index": [1], "choice": ["r"]}
        # the cycle's l overrides the committed r; the tail's r does not
        assert v.note == "A improves 0 -> 1 by overriding 1 choice(s)"
        replay_deviation(s, v.certificate, v.note)

    def test_pumped_witness_keeps_its_size_as_the_gap_grows(self, capsys, tmp_path):
        # stopping at once pays the gap; the deviation must go round the
        # cycle gap + 1 times before its leaf pays more
        source = ("strategy agents A\n"
                  "c0(n) = <A, r, c1(n), stop(n)>\n"
                  "c1(n) = <A, r, c1(n+1), win(n)>\n"
                  "stop(n) = leaf[A: {gap}]\n"
                  "win(n) = leaf[A: n]\n"
                  "root c0\n")
        shapes = set()
        for gap in (10 ** 3, 10 ** 5, 10 ** 6):
            path = tmp_path / f"gap{gap}.cog"
            path.write_text(source.format(gap=gap))
            assert main(["--json", "check", str(path), "--nash"]) == 1
            out = capsys.readouterr().out
            assert len(out) < 4096
            [check] = json.loads(out)["checks"]
            cert = check["certificate"]
            assert (cert["repeat"], cert["leaf_index"]) == (gap + 1, gap + 1)
            if gap < 10 ** 6:  # unfolding a million rounds one by one takes seconds
                replay_deviation(dsl.parse(source.format(gap=gap)), cert, check["note"])
            shapes.add(re.sub(r"\d+", "0", json.dumps(cert)))
        assert len(shapes) == 1  # equal apart from the digits of the numbers

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
        replay_deviation(s, v.certificate, v.note)

    def test_lasso_pumps_the_positive_cycle_nearest_the_root(self):
        # both c1 (first met at index 0) and c2 (at 5) sit on a positive
        # cycle that feeds win; the lasso pumps c1's, so the path to it is
        # [c0] and the tail goes on through c2
        s = dsl.parse(TWO_CYCLES_NASH)
        v = nash_eq(s)
        assert not v.holds
        cert = v.certificate
        assert cert["path"]["class"] == [0]
        assert cert["cycle"]["class"] == [1]
        assert cert["repeat"] == 96
        assert cert["tail"]["class"] == [1, 2]
        assert cert["leaf_index"] == 101
        replay_deviation(s, cert, v.note)

    def test_lasso_pumps_the_cycle_met_at_the_least_index_below_another(self):
        s = dsl.parse(SHORTCUT_CYCLES_NASH)
        v = nash_eq(s)
        assert not v.holds
        cert = v.certificate
        assert (cert["path"]["class"], cert["path"]["choice"]) == ([0], ["r"])
        assert cert["cycle"]["class"] == [2]
        assert (cert["on_path_value"], cert["repeat"], cert["leaf_index"]) == (5, 6, 6)
        replay_deviation(s, cert, v.note)

    def test_an_override_written_in_two_parts_of_a_lasso_counts_once(self):
        # the path to c0 overrides c4's l at index 0, and the cycle's first
        # round takes that same step again; a note counting steps, not
        # (class, index) pairs, would say 7
        s = dsl.parse(STEP_TWICE_NASH)
        v = nash_eq(s)
        assert not v.holds
        cert = v.certificate
        assert cert["path"] == {"class": [4, 5], "index": [0, 0], "choice": ["r", "r"]}
        assert cert["cycle"] == {"class": [0, 4, 5, 4, 5], "index": [0, 0, 0, 2, 2],
                                 "choice": ["l", "r", "l", "r", "r"]}
        assert v.note == "Ann improves -7 -> -5 by overriding 6 choice(s)"
        replay_deviation(s, cert, v.note)

    def test_failure_witnesses_replay_on_random_strategies(self):
        failures = 0
        for seed in range(5000):
            s = helpers.random_system(seed, kind=STRATEGY, max_classes=8)
            v = nash_eq(s)
            if not v.holds:
                failures += 1
                replay_deviation(s, v.certificate, v.note)
        assert failures > 400

    def test_vacuity_property(self):
        for seed in range(80):
            s = helpers.random_system(seed, kind=STRATEGY)
            if not leads_to_leaf(s).holds:
                v = nash_eq(s)
                assert v.holds and "vacuous" in v.note

    def test_agrees_with_exhaustive_oracle(self):
        trees = helpers.finite_corpus(200, helpers.random_strategy, max_size=12)
        for tree in trees:
            assert nash_eq(oracle.embed(tree)).holds == oracle.exhaustive_nash(tree).holds


class TestSgpe:
    def test_dollar_auction_margins_are_zero(self):
        v = sgpe(dollar_auction_strategy("agu"))
        assert v.holds
        assert margins(v.certificate) == [(0, 0)] * 2

    def test_centipede_margins_are_one(self):
        v = sgpe(centipede_strategy("agu"))
        assert v.holds
        assert margins(v.certificate) == [(0, 1)] * 2
        # so the margin at each class's least index is 1 too
        assert [b + a * n for (a, b), n in zip(margins(v.certificate), v.certificate["n_min"])] == [1, 1]

    def test_mutating_the_reachable_classes_cannot_corrupt_later_verdicts(self):
        # ``reachable`` is public and memoized: emptying what it returns
        # must not make a strategy that escalates forever pass
        s = dollar_auction_strategy("ngu")
        order = reachable(s)
        with contextlib.suppress(AttributeError):
            order.clear()
        assert list(reachable(s)) == [0, 1, 3, 2]
        assert not alw_leads_to_leaf(s).holds
        assert not sgpe(s).holds

    def test_escalation_fails_through_altl(self):
        v = sgpe(dollar_auction_strategy("ngu"))
        assert not v.holds
        assert "alw_leads_to_leaf" in v.certificate

    def test_precondition_reads_the_play_table_without_a_certificate(self, monkeypatch):
        import cogames.equilibria as equilibria

        def refuse(s):
            raise AssertionError("a holding precondition needs no alw_leads_to_leaf certificate")

        monkeypatch.setattr(equilibria, "alw_leads_to_leaf", refuse)
        assert sgpe(dollar_auction_strategy("agu")).holds
        assert sgpe(centipede_strategy("agu")).holds

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

    def test_lasso_pumps_the_positive_cycle_nearest_the_root(self):
        # x's margin 20 - n turns negative past index 20; x is first met
        # at index 5, and pumping c1's cycle (weight 1) first reaches a
        # negative margin at 21, while pumping c2's (weight 3) would
        # report 23
        s = dsl.parse(TWO_CYCLES_SGPE)
        v = sgpe(s)
        assert not v.holds
        assert (v.certificate["class"], v.certificate["index"]) == (3, 21)
        replay_sgpe_failure(s, v.certificate, v.note)

    def test_failing_indices_are_reachable_on_random_strategies(self):
        failures = 0
        for parametric in (True, False):
            for seed in range(3000):
                s = helpers.random_system(seed, kind=STRATEGY, max_classes=8, parametric=parametric)
                v = sgpe(s)
                if not v.holds and "index" in v.certificate:
                    failures += 1
                    replay_sgpe_failure(s, v.certificate, v.note)
        assert failures > 300

    def test_sgpe_implies_nash_on_finite_corpus(self):
        trees = helpers.finite_corpus(200, helpers.random_strategy, max_size=12)
        for tree in trees:
            emb = oracle.embed(tree)
            if sgpe(emb).holds:
                assert nash_eq(emb).holds
                assert oracle.exhaustive_nash(tree).holds


def count_reach_reads(monkeypatch) -> dict[str, int]:
    """Count what the reach analysis reads: ``members``, the members read
    out of the SCC lists of the tree's condensation and of the ``sccs``
    searches inside its cyclic SCCs, and ``edges``, the entries read out
    of the projection's edge list.  Iterating a list counts one read per
    entry."""
    import cogames.equilibria as equilibria

    reads = {"members": 0, "edges": 0}

    def counted(kind: str):
        class Counted(list):
            def __iter__(self):
                reads[kind] += len(self)
                return super().__iter__()

            def __getitem__(self, at):
                reads[kind] += 1
                return super().__getitem__(at)
        return Counted

    members, entries = counted("members"), counted("edges")
    condensation, sccs, projection = equilibria.condensation, equilibria.sccs, equilibria._projection
    monkeypatch.setattr(equilibria, "condensation",
                        lambda s: condensation(s)._replace(
                            comps=[members(comp) for comp in condensation(s).comps]))
    monkeypatch.setattr(equilibria, "sccs",
                        lambda *args: [members(comp) for comp in sccs(*args)])
    monkeypatch.setattr(equilibria, "_projection", lambda *args: entries(projection(*args)))
    return reads


def shifted_ring(length: int, slope: int) -> CoSystem:
    """``length`` classes of agent A in a ring, every edge ``n+1``: each
    chooses r, into the one leaf ``A: slope*n``, over l, on round the
    ring, so each lap raises the index by ``length``."""
    classes: list = [Node("A", Choice.R, Ref((i + 1) % length, 1), Ref(length, 1))
                     for i in range(length)]
    return CoSystem(STRATEGY, ("A",), (*classes, Leaf({"A": Affine(slope, 0)})))


class TestShiftedRing:
    """One positive SCC as large as the system: the reach analysis marks
    it positive once, not once per shifted edge."""

    LENGTH = 3000

    def test_reach_analysis_reads_the_ring_a_bounded_number_of_times(self, monkeypatch):
        reads = count_reach_reads(monkeypatch)
        s = shifted_ring(self.LENGTH, 1)
        for agent in (None, "A"):
            reads.update(members=0, edges=0)
            sets = reach_index_sets(s, agent)
            assert sets[0] == ReachSet(0, None) and sets[self.LENGTH] == ReachSet(1, None)
            # once to find the reached members, once to settle them
            assert 0 < reads["members"] <= 2 * len(s.classes), agent
            assert 0 < reads["edges"] <= 4 * len(s.classes), agent

    def test_growing_leaf_breaks_both_equilibria(self):
        s = shifted_ring(self.LENGTH, 1)
        nash = nash_eq(s)
        assert not nash.holds
        assert (nash.certificate["on_path_value"], nash.certificate["repeat"]) == (1, 1)
        assert nash.certificate["deviation_value"] == self.LENGTH + 1
        replay_deviation(s, nash.certificate, nash.note)
        perfect = sgpe(s)
        assert not perfect.holds
        assert perfect.certificate == {"class": 0, "index": 0, "chosen_value": 1, "other_value": 2}
        assert (s.owner[0], s.choice[0]) == ("A", Choice.R)
        assert perfect.note == "A prefers the other branch of class 0 at index 0"
        replay_sgpe_failure(s, perfect.certificate, perfect.note)

    def test_shrinking_leaf_keeps_both_equilibria(self):
        s = shifted_ring(self.LENGTH, -1)
        nash = nash_eq(s)
        assert nash.holds
        [report] = nash.certificate["agents"]
        assert (report["on_path_value"], report["best_deviation_value"]) == (-1, -1)
        perfect = sgpe(s)
        assert perfect.holds
        cert = perfect.certificate
        assert cert["class"] == cert["n_min"] == list(range(self.LENGTH))
        assert margins(cert) == [(0, 1)] * self.LENGTH
        assert cert["n_max"] == [None] * self.LENGTH


def diamond_ladder(k: int) -> CoSystem:
    """``k`` diamonds in a row: Alice's ``a_i`` (class i) goes on to
    ``a_{i+1}`` at ``n``, or through Bob's ``b_i`` (class k+1+i) to it at
    ``n+1``, and Bob may stop at ``z`` instead; the end leaf ``a_k`` pays
    Alice ``n``.  Every node plays l, so ``a_i`` is met along 2**i paths,
    at every index from 0 to i."""
    a = [Node("Alice", Choice.L, Ref(i + 1), Ref(k + 1 + i, 1)) for i in range(k)]
    b = [Node("Bob", Choice.L, Ref(i + 1), Ref(2 * k + 1)) for i in range(k)]
    end = Leaf({"Alice": Affine(1, 0), "Bob": Affine.const(0)})
    z = Leaf({"Alice": Affine.const(0), "Bob": Affine.const(0)})
    return CoSystem(STRATEGY, ("Alice", "Bob"), (*a, end, *b, z))


class TestDiamondLadder:
    """Bounded classes met along many paths: the reach analysis reads
    each class's edges a bounded number of times, not once per longer
    path found."""

    K = 1000

    def test_reach_analysis_reads_each_class_a_bounded_number_of_times(self, monkeypatch):
        reads = count_reach_reads(monkeypatch)
        s = diamond_ladder(self.K)
        for agent in (None, "Alice", "Bob"):
            reads.update(members=0, edges=0)
            sets = reach_index_sets(s, agent)
            assert 0 < reads["members"] <= 2 * len(s.classes), agent
            assert 0 < reads["edges"] <= 4 * len(s.classes), agent
            # Bob's deviation graph follows Alice's committed l only
            tops = range(self.K + 1) if agent != "Bob" else [0] * (self.K + 1)
            assert [sets[i] for i in range(self.K + 1)] == [ReachSet(0, top) for top in tops]

    def test_alice_gains_by_taking_every_detour(self):
        s = diamond_ladder(self.K)
        nash = nash_eq(s)
        assert not nash.holds
        cert = nash.certificate
        assert (cert["agent"], cert["on_path_value"], cert["deviation_value"]) == ("Alice", 0, self.K)
        # every a_i overrides l with r, and each is counted once
        assert cert["path"]["choice"].count("r") == self.K
        assert nash.note == f"Alice improves 0 -> {self.K} by overriding {self.K} choice(s)"
        replay_deviation(s, cert, nash.note)
        perfect = sgpe(s)
        assert not perfect.holds
        assert perfect.certificate == {"class": 0, "index": 0, "chosen_value": 0, "other_value": 1}
        assert (s.owner[0], s.choice[0]) == ("Alice", Choice.L)
        assert perfect.note == "Alice prefers the other branch of class 0 at index 0"
        replay_sgpe_failure(s, perfect.certificate, perfect.note)


def replay_steps(s: CoSystem, steps: list, target: Ref, agent: str | None) -> None:
    """Check, with ``unfold`` only, that parent steps walk from the root
    to ``target`` in ``agent``'s deviation graph (the tree when None)."""
    at = s.root
    for cls_id, index, choice in steps:
        assert (cls_id, index) == (at.cls, at.shift)
        head = unfold(s, at)
        assert agent is None or choice is head.choice or head.owner == agent
        at = head.child(choice)
    assert at == target


class TestReachPass:
    """The one topological pass over the condensation against an
    independent Dijkstra + Tarjan analysis (``helpers.reference_reach``)."""

    def test_agrees_with_the_reference_analysis(self):
        # max_shift 0 and 1 give many zero-shift diamonds, where paths of
        # equal least index tie
        unbounded = split = flat = flat_ties = 0
        for seed in range(3000):
            s = helpers.random_system(seed, kind=STRATEGY, max_classes=6 + seed % 7,
                                      max_shift=seed % 3)
            for agent in (None, *s.roster):
                info = equilibria._analyze(s, agent)
                least, greatest, pump = helpers.reference_reach(s, agent)
                assert info.least == least, (seed, agent)
                for c, lo in enumerate(least):
                    if lo is None:
                        continue
                    assert info.greatest(c) == greatest[c], (seed, agent, c)
                    assert (info.pump[c] or (None, None))[1] == pump[c], (seed, agent, c)
                    steps = equilibria._steps_to(info.edges, info.min_parent, info.least, c)
                    replay_steps(s, steps, Ref(c, lo), agent)
                    if greatest[c] is not None:
                        steps = equilibria._steps_to(info.edges, info.max_parent, info.most, c)
                        replay_steps(s, steps, Ref(c, greatest[c]), agent)
                    unbounded += greatest[c] is None
                edges = equilibria._projection(s, agent)
                comps = sccs([s.root.cls], lambda v: [t for t, _, _ in edges[v]])
                if agent is not None:
                    # some tree SCC holds more than one of the projection's
                    reached = {condensation(s).where[c] for c, lo in enumerate(least) if lo is not None}
                    split += len(comps) > len(reached)
                # the cyclic projection SCCs without a positive internal
                # edge, whose least indices a Dijkstra over zero-weight
                # edges finds, and those of them entered at two or more
                # members, where offers made from outside tie
                where = {v: i for i, comp in enumerate(comps) for v in comp}
                for i, comp in enumerate(comps):
                    inner = [k for c in comp for t, k, _ in edges[c] if where[t] == i]
                    if inner and not any(inner):
                        flat += 1
                        entered = {t for v in where if where[v] != i
                                   for t, _, _ in edges[v] if where[t] == i}
                        flat_ties += len(entered | ({s.root.cls} & set(comp))) >= 2
        assert unbounded > 4000 and split > 250
        assert flat >= 1000 and flat_ties >= 20, (flat, flat_ties)

    def test_failure_certificates_replay(self):
        nash_failures = sgpe_failures = 0
        for seed in range(3000):
            s = helpers.random_system(seed, kind=STRATEGY, max_classes=6 + seed % 7,
                                      max_shift=seed % 3)
            nash, perfect = nash_eq(s), sgpe(s)
            if not nash.holds:
                nash_failures += 1
                replay_deviation(s, nash.certificate, nash.note)
            if not perfect.holds and "index" in perfect.certificate:
                sgpe_failures += 1
                replay_sgpe_failure(s, perfect.certificate, perfect.note)
        assert nash_failures > 200 and sgpe_failures > 200


class TestReachIndexSets:
    def test_backbone_indices_grow_without_bound(self):
        sets = reach_index_sets(dollar_auction_strategy("ngu"))
        assert sets[0].minimum == 0 and sets[0].maximum is None
        assert sets[1].minimum == 0 and sets[1].maximum is None

    def test_finite_tree_indices_are_exact_singletons(self):
        tree = helpers.random_strategy(1, max_depth=3)
        sets = reach_index_sets(oracle.embed(tree))
        for rs in sets.values():
            assert rs.minimum == rs.maximum == 0

    def test_agrees_with_a_bounded_search_of_index_states(self):
        # A bounded class occurs only at indices <= top = max_shift*(|classes|-1),
        # the weight of a simple path.  An unbounded one occurs past top, and
        # first past it within one more lap of a cycle, at most
        # max_shift*|classes| higher; indices never fall along a path, so a
        # breadth-first search of (class, index) states capped there finds it.
        unbounded = 0
        for seed in range(1500):
            s = helpers.random_system(seed, kind=STRATEGY, max_classes=8)
            max_shift = max((r.shift for c in s.classes if isinstance(c, Node)
                             for r in (c.left, c.right)), default=0)
            top, cap = max_shift * (len(s.classes) - 1), max_shift * (2 * len(s.classes) - 1)
            for agent in (None, *s.roster):
                seen, queue = {s.root}, deque([s.root])
                while queue:
                    at = queue.popleft()
                    cls = s.classes[at.cls]
                    if isinstance(cls, Leaf):
                        continue
                    both = agent is None or cls.owner == agent
                    for ref in (cls.left, cls.right) if both else (cls.child(cls.choice),):
                        nxt = Ref(ref.cls, at.shift + ref.shift)
                        if nxt.shift <= cap and nxt not in seen:
                            seen.add(nxt)
                            queue.append(nxt)
                indices: dict[int, list[int]] = {}
                for at in seen:
                    indices.setdefault(at.cls, []).append(at.shift)
                expected = {c: ReachSet(min(ns), max(ns) if max(ns) <= top else None)
                            for c, ns in indices.items()}
                assert reach_index_sets(s, agent) == expected, (seed, agent)
                unbounded += sum(rs.maximum is None for rs in expected.values())
        assert unbounded > 1000

    def test_deviation_graph_branches_at_the_agents_classes_only(self):
        # Alice may take either child at her own class 0; Bob always
        # continues from class 1, so his give-up leaf (class 2) is never met
        sets = reach_index_sets(dollar_auction_strategy("ngu"), agent="Alice")
        assert set(sets) == {0, 1, 3}
        with pytest.raises(KindMismatchError):  # a game commits to no child
            reach_index_sets(strategy_to_game(dollar_auction_strategy("ngu")), agent="Alice")

    def test_deviation_graph_of_an_agent_outside_the_roster_is_refused(self):
        # an agent outside the roster owns no node, so its graph would
        # silently be the committed walk
        with pytest.raises(ValueError, match="agent 'Nobody' not in roster"):
            reach_index_sets(dollar_auction_strategy("agu"), agent="Nobody")

    @pytest.mark.parametrize("choice", [Choice.L, Choice.R])
    def test_doubling_shift_chain_is_summarized_by_its_extremes(self, choice):
        # 2**40 (class, index) states: only the least and greatest index count
        s = doubling_chain(40, choice)
        top = 2 ** 40 - 1
        assert reach_index_sets(s)[40] == ReachSet(0, top)
        nash, perfect = nash_eq(s), sgpe(s)
        if choice is Choice.R:  # every node takes the larger shift
            assert nash.holds and perfect.holds
            [report] = nash.certificate["agents"]
            # the one leaf pays n, so its best end is its greatest index
            assert (report["leaf_class"], report["n_min"], report["n_max"]) == ([40], [0], [top])
            assert report["best_deviation_value"] == top
        else:
            assert not nash.holds
            assert (nash.certificate["leaf_index"], nash.certificate["deviation_value"]) == (top, top)
            replay_deviation(s, nash.certificate, nash.note)
            assert not perfect.holds
            assert (perfect.certificate["class"], perfect.certificate["index"]) == (0, 0)
            replay_sgpe_failure(s, perfect.certificate, perfect.note)
