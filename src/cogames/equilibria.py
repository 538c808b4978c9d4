"""Convertibility and equilibrium checking on strategy systems.

Nash equilibrium quantifies over every strategy an agent can reach by
rewriting its own choices.  On the finite representation that quantifier
is decided by optimizing over the *deviation graph*: at classes owned by
the deviating agent both children are edges, everywhere else only the
committed child is.  This is sound and complete for the definition
because (i) only deviations that lead to a leaf matter (the definition's
antecedent), (ii) the payoff of a leaf-terminating deviation depends only
on the realized finite path, and (iii) any finite path of choice
overrides extends to a full convertible strategy by copying the original
off-path.  The oracle cross-validation in the test suite is the
executable form of this argument.

Subgame perfection is checked per reachable node class.  A class stands
for one subtree per reachable instantiation index, so the chosen branch
must dominate at every index at which the class occurs.  Payoffs and
margins are affine in the index, so both checks only need the least and
the greatest index of each class (``ReachSet``), or, when a
positive-offset cycle lies on a path to the class, a lasso through that
cycle along which the index grows without bound.  Every index a
certificate reports is one at which its class occurs.  Dijkstra finds
the least indices, Tarjan's algorithm (``system.sccs``) the SCCs, and
one pass over the SCCs in topological order the greatest indices and
the lasso entries.  All three passes read the system's edge table
(``system.edge_table``, built once per system): the tree is its full
columns and an agent's deviation graph picks, per class, the full entry
or the chosen one, so a projection allocates two lists and no edge.
Results sit in lists indexed by class id.  Dijkstra reads a class's
edges once, Tarjan its child ids once, and the SCC pass its edges once,
twice in an SCC of more than one class, however many paths lead to the
class.

Convertibility, the relation the Nash quantifier ranges over, is decided
exactly, with no bound on the offset drift between the two strategies,
by ``system.ProductWalk``, the engine ``bisimilar`` uses too.  It picks
its regime once, at the roots, from each system's sensitivity table
(per class: is a leaf with a nonzero slope reachable from it?).  Where
neither root is sensitive, its union-find decides first whether the two
strategies denote the same tree, and when they do the answer is
``INDUCTIVE`` with no difference and no walk.  Otherwise the product
walk decides, and finds the witness or the agent's choice differences.
It tracks the drift only in
pairs from which a leaf with a nonzero slope is reachable.  If such a
pair is reached with two drifts, the path to that leaf ends in a
differing observation below one of the two arrivals, so the walk either
finds a replayable mismatch or visits each class pair with one drift, at
most ``|S|*|T|`` states.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .semantics import alw_leads_to_leaf, leads_to_leaf, play_table, s2u, utility_from
from .system import (
    Affine,
    Choice,
    CoSystem,
    Edge,
    KindMismatchError,
    Leaf,
    Node,
    ProductWalk,
    Ref,
    RosterMismatchError,
    STRATEGY,
    edge_table,
    reachable,
    sccs,
)
from .verdict import Verdict


# ---------------------------------------------------------------------------
# reachability with additive index offsets


@dataclass(frozen=True)
class ReachSet:
    """Least and greatest root-relative index at which a class occurs.

    ``maximum`` is None exactly when a positive-total-offset cycle lies
    on some path to the class, which then occurs at unboundedly large
    indices.  Both ends are indices the class occurs at.
    """

    minimum: int
    maximum: int | None


Step = tuple[int, int, Choice]  # class left, its index there, choice taken


def _projection(s: CoSystem, agent: str | None) -> tuple[list[tuple[int, ...]], list[tuple[Edge, ...]]]:
    """Child ids and edges per class of ``agent``'s deviation graph: both
    children at the classes ``agent`` owns, the committed child elsewhere;
    both children everywhere when ``agent`` is None (the tree).  Each
    entry is one of the system's edge table, picked per class."""
    table = edge_table(s)
    if agent is None:
        return table.kids, table.edges
    if s.kind != STRATEGY:
        raise KindMismatchError("a deviation graph needs a strategy")
    mine = [owner == agent for owner in table.owner]
    return ([both if m else one for both, one, m in zip(table.kids, table.chosen_kids, mine)],
            [both if m else one for both, one, m in zip(table.edges, table.chosen_edges, mine)])


@dataclass
class _ReachInfo:
    """The reach analysis of one projection, in lists indexed by class
    id (``least``, ``most``, the parent steps, ``where``) or by SCC
    (``comps``, ``pump``)."""

    edges: list[tuple[Edge, ...]]
    # least index of each class, None where the projection never reaches it
    least: list[int | None]
    # greatest index of each reached class, read only where it is bounded
    most: list[int]
    # the reached SCCs in reverse topological order, and each reached
    # class's position among them
    comps: list[list[int]]
    where: list[int]
    # per SCC: None if bounded, else the positive-SCC member its lasso pumps
    pump: list[int | None]
    # the step into each class on a path to its least / greatest index
    min_parent: list[Step | None]
    max_parent: list[Step | None]

    def greatest(self, c: int) -> int | None:
        """The greatest index of reached class ``c``, None if unbounded."""
        return None if self.pump[self.where[c]] is not None else self.most[c]


def _shortest(edges: list[tuple[Edge, ...]], source: Ref, target: int | None = None,
              within: set[int] | None = None) -> tuple[list[int | None], list[Step | None]]:
    """Least indices from ``source`` (Dijkstra; all offsets are >= 0, and
    the heap pops ``(index, id)`` pairs) and the step into each class on
    a path to its least index, None where not reached.  The search stops
    once ``target`` is settled; ``within`` restricts the classes it
    passes through on the way to ``target`` (used to stay inside an
    SCC)."""
    dist: list[int | None] = [None] * len(edges)
    parent: list[Step | None] = [None] * len(edges)
    dist[source.cls] = source.shift
    heap = [(source.shift, source.cls)]
    while heap:
        d, c = heapq.heappop(heap)
        if d > dist[c]:
            continue
        if c == target:
            break
        for t, k, label in edges[c]:
            if within is not None and t not in within and t != target:
                continue
            nd, dt = d + k, dist[t]
            if dt is None or nd < dt:
                dist[t] = nd
                parent[t] = (c, d, label)
                heapq.heappush(heap, (nd, t))
    return dist, parent


def _analyze(s: CoSystem, agent: str | None = None) -> _ReachInfo:
    """Least and greatest indices, lasso entries and parent steps over
    ``agent``'s deviation graph (over the tree when ``agent`` is None),
    with the edges they were computed on."""
    kids, edges = _projection(s, agent)
    root = s.root
    least, min_parent = _shortest(edges, root)
    comps = sccs([root.cls], kids.__getitem__)
    where = [-1] * len(kids)
    for i, comp in enumerate(comps):
        for v in comp:
            where[v] = i

    # One pass over the SCCs in topological order (Tarjan's list reversed):
    # an SCC is settled once every SCC with an edge into it is, and then
    # makes offers along its edges out.  An SCC is positive iff one of its
    # internal edges has positive weight (offsets are nonnegative, so the
    # path closing that cycle adds nothing negative).  A class is
    # unbounded iff a positive SCC feeds it.  Its lasso pumps the positive
    # member feeding it with the least (least index, id): the least of the
    # pairs fed into its SCC (``feed``) and, if the SCC is positive, of its
    # own members; ``pump`` keeps that member's id.  In a bounded SCC every
    # internal edge weighs 0, so all members share one greatest index, the
    # best offer into a member (the first in the SCC's order on a tie); it
    # spreads from that member along a tree of parent steps.  A bounded
    # singleton just makes its offers.  Until its SCC is settled, a
    # class's ``most`` and ``max_parent`` hold the best offer made to it;
    # an unbounded class makes no offers.
    feed: list[tuple[int, int] | None] = [None] * len(comps)
    pump: list[int | None] = [None] * len(comps)
    most = [-1] * len(kids)
    most[root.cls] = root.shift
    max_parent: list[Step | None] = [None] * len(kids)
    for i in range(len(comps) - 1, -1, -1):
        comp, fed = comps[i], feed[i]
        if len(comp) == 1:
            c = comp[0]
            es = edges[c]
            if fed is None:
                w = most[c]
                for t, k, label in es:
                    if w + k > most[t]:
                        if t == c:
                            # a positive self-loop: the offers already
                            # made went to classes ``c`` feeds below
                            fed = (least[c], c)
                            break
                        most[t], max_parent[t] = w + k, (c, w, label)
                if fed is None:
                    continue
            else:
                for t, k, _ in es:
                    if t == c and k:
                        fed = min(fed, (least[c], c))
            outs = [where[t] for t, _, _ in es if t != c]
        else:
            # one read of the members: positive or not, the least pair,
            # the member with the best offer, and the SCCs its edges enter
            positive, own, start, outs = False, None, None, []
            for c in comp:
                for t, k, _ in edges[c]:
                    if where[t] != i:
                        outs.append(where[t])
                    elif k:
                        positive = True
                if own is None or (least[c], c) < own:
                    own = (least[c], c)
                if start is None or most[c] > most[start]:
                    start = c
            if positive and (fed is None or own < fed):
                fed = own
            if fed is None:
                w, queue, seen = most[start], [start], {start}
                for c in queue:
                    for t, k, label in edges[c]:
                        if where[t] != i:
                            if w + k > most[t]:
                                most[t], max_parent[t] = w + k, (c, w, label)
                        elif t not in seen:
                            seen.add(t)
                            most[t], max_parent[t] = w, (c, w, label)
                            queue.append(t)
                continue
        pump[i] = fed[1]
        for j in outs:
            if feed[j] is None or fed < feed[j]:
                feed[j] = fed
    return _ReachInfo(edges, least, most, comps, where, pump, min_parent, max_parent)


def reach_index_sets(s: CoSystem, agent: str | None = None) -> dict[int, ReachSet]:
    """Per-class least and greatest reachable index over the whole tree,
    or over ``agent``'s deviation graph when ``agent`` is given."""
    info = _analyze(s, agent)
    return {c: ReachSet(lo, info.greatest(c)) for c, lo in enumerate(info.least) if lo is not None}


# ---------------------------------------------------------------------------
# deviation witness construction


def _step(s: CoSystem, cls_id: int, index: int, choice: Choice, agent: str) -> dict[str, Any]:
    cls = s.classes[cls_id]
    assert isinstance(cls, Node)
    return {
        "class": cls_id,
        "owner": cls.owner,
        "index": index,
        "choice": choice.value,
        "overridden": cls.owner == agent and choice is not cls.choice,
    }


def _steps_to(parent: list[Step | None], target: int) -> list[Step]:
    """The steps from the root to ``target`` along a parent table."""
    steps, step = [], parent[target]
    while step is not None:
        steps.append(step)
        step = parent[step[0]]
    steps.reverse()
    return steps


def _cycle_steps(edges: list[tuple[Edge, ...]], members: set[int], at: Ref) -> tuple[list[Step], int]:
    """A positive-weight cycle from ``at`` back to its class inside one
    SCC, as steps plus the cycle's total weight."""
    for c in sorted(members):
        for t, k, label in edges[c]:
            if t in members and k > 0:
                dist, parent = _shortest(edges, at, c, members)
                back_dist, back = _shortest(edges, Ref(t, dist[c] + k), at.cls, members)
                return (_steps_to(parent, c) + [(c, dist[c], label)] + _steps_to(back, at.cls),
                        back_dist[at.cls] - at.shift)
    raise AssertionError("no positive edge inside a positive SCC")


def _lasso(info: _ReachInfo, target: int) -> tuple[list[Step], list[Step], int, list[Step], int]:
    """A lasso along which ``target`` occurs at ``reach + k*loop`` for
    every k >= 0: the least-index steps to the positive-SCC member that
    ``_analyze`` chose as ``target``'s entry, a positive cycle there
    (weight ``loop``) and min-weight steps on to ``target``, which arrive
    at index ``reach``."""
    entry = info.pump[info.where[target]]
    at = Ref(entry, info.least[entry])
    cycle, loop = _cycle_steps(info.edges, set(info.comps[info.where[entry]]), at)
    dist, parent = _shortest(info.edges, at, target)
    return _steps_to(info.min_parent, entry), cycle, loop, _steps_to(parent, target), dist[target]


def _pumps(f: Affine, reach: int, loop: int, above: int) -> int:
    """The least k >= 0 with ``f.at(reach + k*loop) > above``, for a
    positive slope and loop."""
    return max(0, -((f.at(reach) - above - 1) // (f.slope * loop)))


def _deviation_verdict(s: CoSystem, agent: str, base: int, steps: list[Step],
                       leaf_cls: int, leaf_index: int, value: int,
                       pumped: tuple[list[Step], int, list[Step]] | None = None) -> Verdict:
    """A Nash failure.  The deviation walks ``steps`` from the root, then,
    when ``pumped`` is ``(cycle, repeat, tail)``, ``repeat`` >= 1 rounds of
    ``cycle`` (written with its first-round indices) and then ``tail``
    (written with its indices after those rounds), so the witness stays
    the size of the class graph however many rounds the gap needs."""
    cert: dict[str, Any] = {
        "agent": agent,
        "on_path_value": base,
        "deviation_value": value,
        "leaf_class": leaf_cls,
        "leaf_index": leaf_index,
        "path": [_step(s, c, w, label, agent) for c, w, label in steps],
    }
    written = cert["path"]
    if pumped is not None:
        cycle, repeat, tail = pumped
        cert["cycle"] = [_step(s, c, w, label, agent) for c, w, label in cycle]
        cert["repeat"] = repeat
        cert["tail"] = [_step(s, c, w, label, agent) for c, w, label in tail]
        written = written + cert["cycle"] + cert["tail"]
    # one step may be written in more than one part of a lasso
    overrides, seen = [], set()
    for p in written:
        if p["overridden"] and (p["class"], p["index"]) not in seen:
            seen.add((p["class"], p["index"]))
            overrides.append(p)
    cert["overrides"] = overrides
    return Verdict(False, cert, f"{agent} improves {base} -> {value} by overriding "
                                f"{len(overrides)} choice(s)")


# ---------------------------------------------------------------------------
# Nash equilibrium


def nash_eq(s: CoSystem) -> Verdict:
    """Nash equilibrium check.

    Vacuously holds when the strategy does not lead to a leaf (no actual
    utility to improve on).  Otherwise, per agent, the deviation graph is
    optimized over every reachable leaf and every index it occurs at: an
    affine payoff peaks at the leaf's greatest index when its slope is
    positive (without bound past a positive cycle) and at its least index
    otherwise.  A strict improvement yields a concrete finite deviation
    path as the counterexample (a lasso, when a positive cycle has to be
    pumped past the on-path value), and the holds-certificate reports the
    per-agent optima.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("nash_eq expects a strategy")
    if play_table(s)[s.root.cls] is None:
        return Verdict(True, {"leads_to_leaf": leads_to_leaf(s).certificate},
                       "vacuous: strategy does not lead to a leaf")

    agents_report = []
    for agent in s.roster:
        base = s2u(s, agent).at(0)
        info = _analyze(s, agent)
        best: tuple[int, int, int] | None = None  # value, leaf class, index
        leaves_report = []
        for cls_id, least in enumerate(info.least):
            cls = s.classes[cls_id]
            if least is None or not isinstance(cls, Leaf):
                continue
            payoff = cls.payoffs[agent]
            top = info.greatest(cls_id)
            if payoff.slope > 0 and top is None:
                # payoff grows without bound along a positive cycle:
                # pump the cycle just past the on-path value
                head, cycle, loop, tail, reach = _lasso(info, cls_id)
                k = _pumps(payoff, reach, loop, base)
                if k == 0:
                    return _deviation_verdict(s, agent, base, head + tail, cls_id, reach,
                                              payoff.at(reach))
                tail = [(c, w + k * loop, label) for c, w, label in tail]
                index = reach + k * loop
                return _deviation_verdict(s, agent, base, head, cls_id, index, payoff.at(index),
                                          (cycle, k, tail))
            at_index = top if payoff.slope > 0 else least
            value = payoff.at(at_index)
            leaves_report.append({"leaf_class": cls_id, "reach": {"minimum": least, "maximum": top},
                                  "max_value": value, "at_index": at_index})
            if best is None or value > best[0]:
                best = (value, cls_id, at_index)
        if best is not None and best[0] > base:
            value, leaf, index = best
            parent = info.min_parent if index == info.least[leaf] else info.max_parent
            return _deviation_verdict(s, agent, base, _steps_to(parent, leaf), leaf, index, value)
        agents_report.append({
            "agent": agent,
            "on_path_value": base,
            "best_deviation_value": best[0] if best else None,
            "leaves": leaves_report,
        })
    return Verdict(True, {"agents": agents_report},
                   "no agent has a profitable leaf-terminating deviation")


# ---------------------------------------------------------------------------
# subgame perfection


def sgpe(s: CoSystem) -> Verdict:
    """Subgame perfect equilibrium check.

    Requires every reachable node to lead to a leaf, then checks, per
    reachable node class, that the owner's chosen branch weakly dominates
    the other at every index the class is reachable at.  Dominance is
    weak (ties are subgame perfect).  The certificate tabulates both
    branch utilities, read from the play table, and the margin per class.
    The margin is affine in the index, so it is negative somewhere iff it
    is negative at the least or the greatest index, or has a negative
    slope past a positive cycle.  A failure names an index the class
    occurs at: that end, or in the last case the first index on a lasso
    through the cycle at which the margin is negative.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("sgpe expects a strategy")
    # the precondition is a scan of the shared play table; the
    # alw_leads_to_leaf certificate is built only for a failure
    ends = play_table(s)
    if any(ends[c] is None for c in reachable(s)):
        altl = alw_leads_to_leaf(s)
        return Verdict(False, {"alw_leads_to_leaf": altl.certificate},
                       "not always leading to a leaf: " + altl.note)

    info = _analyze(s)
    table = []
    for cls_id, least in enumerate(info.least):
        cls = s.classes[cls_id]
        if least is None or isinstance(cls, Leaf):
            continue
        assert cls.choice is not None
        # never None: every class here leads to a leaf, by the scan above
        left_u, right_u = utility_from(s, cls.left, cls.owner), utility_from(s, cls.right, cls.owner)
        chosen, other = (left_u, right_u) if cls.choice is Choice.L else (right_u, left_u)
        margin = chosen - other
        top = info.greatest(cls_id)

        bad: int | None = None
        if margin.at(least) < 0:
            bad = least
        elif top is not None:
            bad = top if margin.at(top) < 0 else None
        elif margin.slope < 0:
            _, _, loop, _, reach = _lasso(info, cls_id)
            bad = reach + loop * _pumps(Affine(0, 0) - margin, reach, loop, 0)

        if bad is not None:
            return Verdict(False, {
                "class": cls_id,
                "owner": cls.owner,
                "choice": cls.choice.value,
                "index": bad,
                "chosen_value": chosen.at(bad),
                "other_value": other.at(bad),
            }, f"{cls.owner} prefers the other branch of class {cls_id} at index {bad}")

        table.append({
            "class": cls_id,
            "owner": cls.owner,
            "choice": cls.choice.value,
            "n_min": least,
            "indices": {"minimum": least, "maximum": top},
            "chosen": chosen.to_json(),
            "other": other.to_json(),
            "margin": margin.to_json(),
            "margin_at_n_min": margin.at(least),
        })
    return Verdict(True, {"classes": table},
                   "chosen branch weakly dominates at every reachable node class")


# ---------------------------------------------------------------------------
# convertibility


class Convertibility(Enum):
    NOT_CONVERTIBLE = "not_convertible"
    INDUCTIVE = "inductive"
    COINDUCTIVE_ONLY = "coinductive_only"


@dataclass(frozen=True)
class ConvClass:
    """Classification of a strategy pair for one deviating agent.

    ``INDUCTIVE``: same tree up to finitely many choice changes at the
    agent's own nodes.  ``COINDUCTIVE_ONLY``: changes only at the agent's
    nodes, but recurring on an unrolled cycle, hence infinitely many.
    ``NOT_CONVERTIBLE``: some observation differs in a way the agent's
    deviations cannot explain.
    """

    value: Convertibility
    witness: Any = None
    note: str = ""


def _state_json(state: tuple[int, int, int]) -> dict[str, int]:
    return {"left_class": state[0], "right_class": state[1], "delta": state[2]}


def convertible(s: CoSystem, t: CoSystem, agent: str) -> ConvClass:
    """Classify the relation between two strategies for a deviating agent.

    ``system.ProductWalk`` decides it, as it decides ``bisimilar``.
    Where no leaf with a nonzero slope is reachable from either root,
    its union-find decides first whether the two denote the same tree;
    if they do, the answer is ``INDUCTIVE`` with no difference, which is
    what the walk would find, and the product is never walked.  Otherwise the product
    walk runs.
    It tracks the offset drift ``delta`` between the two sides wherever
    a leaf with a nonzero slope is reachable.  Leaves must carry equal
    payoff functions under that alignment; nodes must agree on owner,
    and on choice except where the agent owns the node, where the walk
    records the difference and steps on.  The walk is exact and
    terminates (its docstring has the argument), so a
    ``NOT_CONVERTIBLE`` witness is a path from the roots to an
    observation that differs, and any other verdict means the two
    strategies denote the same tree up to the agent's own choices.
    When some difference was recorded, the cycle analysis reads the
    walk's own int states through ``walk.successors``.
    """
    if s.kind != STRATEGY or t.kind != STRATEGY:
        raise KindMismatchError("convertible expects two strategies")
    if s.roster != t.roster:
        raise RosterMismatchError(f"rosters differ: {s.roster} vs {t.roster}")
    if agent not in s.roster:
        raise ValueError(f"agent {agent!r} not in roster {s.roster}")

    walk = ProductWalk(s, t, agent)
    if walk.failure is not None:
        path, state, reason = walk.failure
        witness = {"path": path, "state": _state_json(state), "reason": reason}
        return ConvClass(Convertibility.NOT_CONVERTIBLE, witness, reason)
    if not walk.diffs:
        return ConvClass(Convertibility.INDUCTIVE, {"differences": []},
                         "strategies denote the same tree")

    # a difference is realized infinitely often iff it sits on or after a
    # product cycle; the analysis runs on the walk's int states, and only
    # the states written into the witness are decoded
    succ, decode = walk.successors, walk.decode
    cyclic = {v: comp for comp in sccs(walk.order, succ)
              if len(comp) > 1 or comp[0] in succ(comp[0]) for v in comp}
    # each state on or after a cycle -> the state the search reached it
    # from, None on a cycle; seeded in the walk's breadth-first order
    queue = [v for v in walk.order if v in cyclic]
    origin: dict[int, int | None] = dict.fromkeys(queue)
    for v in queue:
        for w in succ(v):
            if w not in origin:
                origin[w] = v
                queue.append(w)

    v = target = min((d for d in walk.diffs if d in origin), key=decode, default=None)
    if target is None:
        return ConvClass(
            Convertibility.INDUCTIVE,
            {"differences": [_state_json(d) for d in sorted(map(decode, walk.diffs))]},
            f"{len(walk.diffs)} differing node class pair(s), none recurring",
        )

    hop_path = []
    while origin[v] is not None:
        hop_path.append(_state_json(decode(v)))
        v = origin[v]
    witness = {
        "difference": _state_json(decode(target)),
        "cycle": [_state_json(x) for x in sorted(map(decode, cyclic[v]))],
        "path_from_cycle": hop_path[::-1],
        "path_from_root": walk.path_to(v),
    }
    return ConvClass(Convertibility.COINDUCTIVE_ONLY, witness,
                     "a choice difference recurs along an unrolled cycle")
