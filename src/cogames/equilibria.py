"""Equilibrium checking on strategy systems.

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
certificate reports is one at which its class occurs.

All of these come from one pass per projection (``_analyze``) over the
tree's condensation (``system.condensation``: one Tarjan search per
system, memoized), in topological order.
Each class offers its least and greatest index along its edges out, and
so does each SCC once settled.  A projection (``_projection``) lists
each class's ``(child, shift, label)`` edges, read off the system's
columns: both children at a node of the tree, and in an agent's
deviation graph both at the agent's nodes and the committed child
elsewhere.  Both checks read the system through its columns (owner,
choice, children and shifts), never its classes.  A projection's SCCs
refine the tree's: an acyclic tree SCC is one class, which just makes
its offers, and inside a cyclic one ``sccs`` runs over the projection's
edges there.  Each cyclic SCC of the projection finds its least indices
with one Dijkstra, run locally from the members offers reached; a
bounded one (no internal edge of positive offset) spreads its
greatest offer.  Results sit in lists indexed by class id, a parent as
the id of the class the offer came from; ``_steps_to`` turns parents
back into steps.  A deviation witness or lasso head follows the
least-index parents, whose ties go to the first offer in topological
order, inside a cyclic SCC to the first parent its Dijkstra settles, and
between a node's two edges to L.  Dijkstra over the whole projection
runs only to build a lasso.

Convertibility, the relation the Nash quantifier ranges over, is decided
in ``system`` beside bisimilarity, by the same product walk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any

from .semantics import alw_leads_to_leaf, leads_to_leaf, play_table, utility_columns
from .system import (
    Choice,
    CoSystem,
    KindMismatchError,
    Ref,
    STRATEGY,
    condensation,
    reachable,
    sccs,
)
# convertibility lives in ``system``; these names stay importable from here
# because the benchmark's traced replay (bench/tracing.py) imports them from
# this module
from .system import ConvClass, Convertibility, convertible  # noqa: F401
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


Edge = tuple[int, int, Choice]  # child class, shift, label
Step = tuple[int, int, Choice]  # class left, its index there, choice taken


def _projection(s: CoSystem, agent: str | None) -> list[tuple[Edge, ...]]:
    """The edges per class of ``agent``'s deviation graph, read off the
    system's columns: both children at the nodes ``agent`` owns, the
    committed child at every other node; both children at every node
    when ``agent`` is None (the tree).  A leaf has no edge, and L comes
    before R.  A deviation graph needs a strategy and a roster agent."""
    if agent is not None:
        if s.kind != STRATEGY:
            raise KindMismatchError("a deviation graph needs a strategy")
        if agent not in s.roster:
            raise ValueError(f"agent {agent!r} not in roster {s.roster}")
    L, R = Choice.L, Choice.R
    return [() if owner is None
            else ((lc, lk, L), (rc, rk, R)) if agent is None or owner == agent
            else ((lc, lk, L),) if choice is L else ((rc, rk, R),)
            for owner, choice, lc, lk, rc, rk in zip(s.owner, s.choice, s.left, s.left_shift,
                                                      s.right, s.right_shift)]


@dataclass
class _ReachInfo:
    """The reach analysis of one projection, in lists indexed by class
    id, plus the members of each positive SCC."""

    edges: list[tuple[Edge, ...]]
    # least index of each class, None where the projection never reaches it
    least: list[int | None]
    # greatest index of each reached class, read only where it is bounded
    most: list[int]
    # per reached class: None if bounded, else the (least index, id) of
    # the positive-SCC member its lasso pumps
    pump: list[tuple[int, int] | None]
    # the members of each positive SCC, keyed by the one with the least
    # (least index, id)
    loops: dict[int, list[int]]
    # the class a path to each class's least / greatest index comes from
    min_parent: list[int | None]
    max_parent: list[int | None]

    def greatest(self, c: int) -> int | None:
        """The greatest index of reached class ``c``, None if unbounded."""
        return None if self.pump[c] is not None else self.most[c]


def _shortest(edges: list[tuple[Edge, ...]], dist: list[int | None], parent: list[int | None],
              sources: list[tuple[int, int]], target: int | None = None,
              within: set[int] | None = None) -> list[int]:
    """Dijkstra from several sources (all offsets are >= 0, and the heap
    pops ``(index, id)`` pairs), into ``dist`` and ``parent``, which
    already hold each source's index and parent.  A class's
    entry improves only on a strictly smaller index.  The search stops
    once ``target`` is settled; ``within`` restricts the classes it
    passes through (to stay inside an SCC), and holds ``target`` when
    both are given.  Returns the classes it settled, in the order it
    settled them."""
    heap = list(sources)
    heapq.heapify(heap)
    order = []
    while heap:
        d, c = heapq.heappop(heap)
        if d > dist[c]:
            continue
        order.append(c)
        if c == target:
            break
        for t, k, _ in edges[c]:
            if within is not None and t not in within:
                continue
            nd, dt = d + k, dist[t]
            if dt is None or nd < dt:
                dist[t] = nd
                parent[t] = c
                heapq.heappush(heap, (nd, t))
    return order


def _search(edges: list[tuple[Edge, ...]], source: Ref, target: int | None = None,
            within: set[int] | None = None) -> tuple[list[int | None], list[int | None]]:
    """``_shortest`` from one source, into fresh lists."""
    dist: list[int | None] = [None] * len(edges)
    parent: list[int | None] = [None] * len(edges)
    dist[source.cls] = source.shift
    _shortest(edges, dist, parent, [(source.shift, source.cls)], target, within)
    return dist, parent


def _analyze(s: CoSystem, agent: str | None = None) -> _ReachInfo:
    """Least and greatest indices, lasso entries and parents over
    ``agent``'s deviation graph (over the tree when ``agent`` is None),
    with the edges they were computed on.

    One pass over the tree's condensation (``system.condensation``, one
    Tarjan search per system) in topological order.  A deviation graph
    keeps a subset of the tree's edges, so each of its SCCs lies inside
    one tree SCC, and a path never leaves a tree SCC and comes back.
    Once every SCC with an edge into an SCC is settled, the SCC settles
    and makes its offers along its edges out: its least and its greatest
    index (the least offer wins unless a later one is strictly smaller,
    the greatest unless a later one is strictly larger), or, once a
    positive SCC feeds it, the lasso entry ``pump``.  An acyclic tree
    SCC is one class, which just makes its offers, in one loop over its
    edges; that is the whole of a chain.  Inside a cyclic tree SCC,
    ``sccs`` finds the projection's SCCs from the members offers reached,
    over the projection's edges there, and ``_settle`` settles each in
    topological order.
    """
    edges = _projection(s, agent)
    comps, where, cyclic = condensation(s)
    n = len(edges)
    least: list[int | None] = [None] * n
    most = [-1] * n
    min_parent: list[int | None] = [None] * n
    max_parent: list[int | None] = [None] * n
    pump: list[tuple[int, int] | None] = [None] * n
    loops: dict[int, list[int]] = {}
    root = s.root
    least[root.cls] = most[root.cls] = root.shift
    for i in range(len(comps) - 1, -1, -1):
        comp = comps[i]
        if cyclic[i]:
            if agent is None:
                # strongly connected in the tree itself, and reached
                subs = [comp]
            else:
                entries = [c for c in comp if least[c] is not None]
                if not entries:
                    continue
                subs = sccs(entries, lambda v: [t for t, _, _ in edges[v] if where[t] == i])
            for j in range(len(subs) - 1, -1, -1):
                _settle(subs[j], edges, least, most, min_parent, max_parent, pump, loops)
            continue
        c = comp[0]
        w = least[c]
        if w is None:
            continue
        fed, top = pump[c], most[c]
        for t, k, _ in edges[c]:
            if least[t] is None or w + k < least[t]:
                least[t], min_parent[t] = w + k, c
            if fed is None:
                if top + k > most[t]:
                    most[t], max_parent[t] = top + k, c
            elif pump[t] is None or fed < pump[t]:
                pump[t] = fed
    return _ReachInfo(edges, least, most, pump, loops, min_parent, max_parent)


def _settle(comp: list[int], edges: list[tuple[Edge, ...]], least: list[int | None], most: list[int],
            min_parent: list[int | None], max_parent: list[int | None],
            pump: list[tuple[int, int] | None], loops: dict[int, list[int]]) -> None:
    """Settle one SCC of a projection, every member reached, given the
    offers made into it, and make its offers out.

    Every SCC finds its least indices with a local Dijkstra from the
    members with offers; a member keeps an equal offer made from outside
    as its least parent.  The SCC is positive iff one of its internal
    edges has positive weight (offsets are nonnegative, so the path
    closing that cycle adds nothing negative).  A positive SCC pumps,
    and feeds, the least of the lasso entries offered to it and its own
    member with the least (least index, id).  In a bounded SCC every
    internal edge weighs 0, so Dijkstra gives every member the least
    offer.  Unless a positive SCC feeds it, the members share one
    greatest index too, the best offer (the first in the SCC's order on
    a tie), which spreads from that member along a tree of parents, the
    members' greatest parents.  One loop over the members makes the
    offers out: in the order Dijkstra settled them when the SCC is fed,
    and otherwise in the order the greatest index spreads to them.
    """
    # one read of the members: their set, the heads of their positive
    # edges, the offers made to them and the lasso entry fed to them
    inside: set[int] = set()
    heads, fed, sources, top = [], None, [], None
    for c in comp:
        inside.add(c)
        heads.extend(t for t, k, _ in edges[c] if k)
        if least[c] is not None:
            sources.append((least[c], c))
        if pump[c] is not None and (fed is None or pump[c] < fed):
            fed = pump[c]
        if top is None or most[c] > most[top]:
            top = c
    order = _shortest(edges, least, min_parent, sources, within=inside)
    if any(t in inside for t in heads):
        own = (least[order[0]], order[0])
        for c in order:
            if least[c] > own[0]:
                break
            own = min(own, (least[c], c))
        loops[own[1]] = comp
        if fed is None or own < fed:
            fed = own
    if fed is None:
        w, order, seen = most[top], [top], {top}
    for c in order:
        pump[c] = fed  # None over None when unfed
        lc = least[c]
        for t, k, _ in edges[c]:
            if t in inside:
                if fed is None and t not in seen:
                    seen.add(t)
                    most[t], max_parent[t] = w, c
                    order.append(t)
                continue
            if least[t] is None or lc + k < least[t]:
                least[t], min_parent[t] = lc + k, c
            if fed is None:
                if w + k > most[t]:
                    most[t], max_parent[t] = w + k, c
            elif pump[t] is None or fed < pump[t]:
                pump[t] = fed


def reach_index_sets(s: CoSystem, agent: str | None = None) -> dict[int, ReachSet]:
    """Per-class least and greatest reachable index over the whole tree,
    or over ``agent``'s deviation graph when ``agent`` is given."""
    info = _analyze(s, agent)
    return {c: ReachSet(lo, info.greatest(c)) for c, lo in enumerate(info.least) if lo is not None}


# ---------------------------------------------------------------------------
# deviation witness construction


def _steps_to(edges: list[tuple[Edge, ...]], parent: list[int | None], index: list[int | None],
              target: int) -> list[Step]:
    """The steps from the source of a search to ``target`` along its
    parent table and the indices it found.  The step out of a parent is
    its first edge into the child that arrives at the child's index, the
    edge whose offer the search took."""
    steps, c = [], target
    while parent[c] is not None:
        p = parent[c]
        label = next(label for t, k, label in edges[p] if t == c and index[p] + k == index[c])
        steps.append((p, index[p], label))
        c = p
    steps.reverse()
    return steps


def _cycle_steps(edges: list[tuple[Edge, ...]], members: set[int], at: Ref) -> tuple[list[Step], int]:
    """A positive-weight cycle from ``at`` back to its class inside one
    SCC, as steps plus the cycle's total weight."""
    for c in sorted(members):
        for t, k, label in edges[c]:
            if t in members and k > 0:
                dist, parent = _search(edges, at, c, members)
                back_dist, back = _search(edges, Ref(t, dist[c] + k), at.cls, members)
                return (_steps_to(edges, parent, dist, c) + [(c, dist[c], label)]
                        + _steps_to(edges, back, back_dist, at.cls), back_dist[at.cls] - at.shift)
    raise AssertionError("no positive edge inside a positive SCC")


def _lasso(info: _ReachInfo, target: int) -> tuple[list[Step], list[Step], int, list[Step], int]:
    """A lasso along which ``target`` occurs at ``reach + k*loop`` for
    every k >= 0: the least-index steps to the positive-SCC member that
    ``_analyze`` chose as ``target``'s entry, a positive cycle there
    (weight ``loop``) and min-weight steps on to ``target``, which arrive
    at index ``reach``."""
    index, entry = info.pump[target]
    at = Ref(entry, index)
    cycle, loop = _cycle_steps(info.edges, set(info.loops[entry]), at)
    dist, parent = _search(info.edges, at, target)
    return (_steps_to(info.edges, info.min_parent, info.least, entry), cycle, loop,
            _steps_to(info.edges, parent, dist, target), dist[target])


def _pumps(slope: int, intercept: int, reach: int, loop: int, above: int) -> int:
    """The least k >= 0 with ``slope*(reach + k*loop) + intercept >
    above``, for a positive slope and loop."""
    return max(0, -((slope * reach + intercept - above - 1) // (slope * loop)))


def _deviation_verdict(s: CoSystem, agent: str, base: int, steps: list[Step],
                       leaf_cls: int, leaf_index: int, value: int,
                       pumped: tuple[list[Step], int, list[Step]] | None = None) -> Verdict:
    """A Nash failure.  The deviation walks ``steps`` from the root, then,
    when ``pumped`` is ``(cycle, repeat, tail)``, ``repeat`` >= 1 rounds of
    ``cycle`` (written with its first-round indices) and then ``tail``
    (written with its indices after those rounds), so the witness stays
    the size of the class graph however many rounds the gap needs.  Each
    list of steps is written as three columns, ``class``, ``index`` and
    ``choice``; the owner of a step and whether it overrides are the
    system's to tell."""
    cert: dict[str, Any] = {
        "agent": agent,
        "on_path_value": base,
        "deviation_value": value,
        "leaf_class": leaf_cls,
        "leaf_index": leaf_index,
        "path": _step_columns(steps),
    }
    if pumped is not None:
        cycle, repeat, tail = pumped
        cert["cycle"] = _step_columns(cycle)
        cert["repeat"] = repeat
        cert["tail"] = _step_columns(tail)
        steps = steps + cycle + tail
    # a deviation graph keeps only the committed child at a node the agent
    # does not own, so a step off the committed choice is an override of
    # the agent's; one step may be written in more than one part of a lasso
    choice = s.choice
    overrides = {(c, w) for c, w, label in steps if label is not choice[c]}
    return Verdict(False, cert, f"{agent} improves {base} -> {value} by overriding "
                                f"{len(overrides)} choice(s)")


def _step_columns(steps: list[Step]) -> dict[str, list]:
    """``steps`` as the columns ``class``, ``index`` and ``choice``."""
    return _columns(("class", "index", "choice"), [(c, w, label.value) for c, w, label in steps])


# ---------------------------------------------------------------------------
# Nash equilibrium


def _columns(names: tuple[str, ...], rows: list[tuple]) -> dict[str, list]:
    """``rows`` transposed into one list per name, in order; every list
    is empty when there are no rows."""
    cols = list(zip(*rows)) or [()] * len(names)
    return {name: list(col) for name, col in zip(names, cols)}


def nash_eq(s: CoSystem) -> Verdict:
    """Nash equilibrium check.

    Vacuously holds when the strategy does not lead to a leaf (no actual
    utility to improve on).  Otherwise, per agent, the deviation graph is
    optimized over every reachable leaf and every index it occurs at: an
    affine payoff peaks at the leaf's greatest index when its slope is
    positive (without bound past a positive cycle) and at its least index
    otherwise.  A strict improvement yields a concrete finite deviation
    path as the counterexample (a lasso, when a positive cycle has to be
    pumped past the on-path value).  The failing certificate holds the
    ``agent``, its ``on_path_value`` and ``deviation_value``, the
    ``leaf_class`` and ``leaf_index`` the deviation ends at, and its
    steps as columns ``class``, ``index`` and ``choice``: ``path``, and
    on a lasso also ``cycle``, ``repeat`` and ``tail``.  Which steps
    override a choice is read off the system; the note counts them.  A
    vacuous hold cites the failing ``leads_to_leaf`` certificate.  The
    holds-certificate lists, per agent, the on-path value (read from the
    agent's utility columns), the best deviation value, and the leaves
    its deviation graph reaches as three columns of equal length:
    ``leaf_class`` in id order, and the least and greatest index it
    occurs at, ``n_min`` and ``n_max`` (None when unbounded).  A leaf's
    best value is its payoff at the end of that interval where the
    payoff is greatest.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("nash_eq expects a strategy")
    root = s.root
    if play_table(s).leaf[root.cls] < 0:
        return Verdict(True, {"leads_to_leaf": leads_to_leaf(s).certificate},
                       "vacuous: strategy does not lead to a leaf")

    leaves = [c for c, owner in enumerate(s.owner) if owner is None]
    agents_report = []
    for agent in s.roster:
        # at a leaf, the utility columns hold its own payoff
        slope, intercept = utility_columns(s, agent)
        base = slope[root.cls] * root.shift + intercept[root.cls]
        info = _analyze(s, agent)
        pump, most = info.pump, info.most
        best: tuple[int, int, int] | None = None  # value, leaf class, index
        reached = []  # (leaf class, least index, greatest index) per reached leaf
        for cls_id in leaves:
            least = info.least[cls_id]
            if least is None:
                continue
            a, b = slope[cls_id], intercept[cls_id]
            top = most[cls_id] if pump[cls_id] is None else None
            if a > 0 and top is None:
                # payoff grows without bound along a positive cycle:
                # pump the cycle just past the on-path value
                head, cycle, loop, tail, reach = _lasso(info, cls_id)
                k = _pumps(a, b, reach, loop, base)
                if k == 0:
                    return _deviation_verdict(s, agent, base, head + tail, cls_id, reach,
                                              a * reach + b)
                tail = [(c, w + k * loop, label) for c, w, label in tail]
                index = reach + k * loop
                return _deviation_verdict(s, agent, base, head, cls_id, index, a * index + b,
                                          (cycle, k, tail))
            at_index = top if a > 0 else least
            value = a * at_index + b
            reached.append((cls_id, least, top))
            if best is None or value > best[0]:
                best = (value, cls_id, at_index)
        if best is not None and best[0] > base:
            value, leaf, index = best
            if index == info.least[leaf]:
                steps = _steps_to(info.edges, info.min_parent, info.least, leaf)
            else:
                steps = _steps_to(info.edges, info.max_parent, info.most, leaf)
            return _deviation_verdict(s, agent, base, steps, leaf, index, value)
        agents_report.append({
            "agent": agent,
            "on_path_value": base,
            "best_deviation_value": best[0] if best else None,
            **_columns(("leaf_class", "n_min", "n_max"), reached),
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
    weak (ties are subgame perfect).  The holds-certificate is seven int
    columns of equal length, one entry per reachable node class in id
    order: ``class``, the least and greatest index it occurs at
    (``n_min``, and ``n_max``, None when unbounded), and the slope and
    the intercept at the class's local index 0 of the owner's utility
    through the chosen and through the other child (``chosen_slope``,
    ``chosen_intercept``, ``other_slope``, ``other_intercept``), read
    from the owner's utility columns.  The owner and the choice are the
    input's, and the margin is chosen minus other.  It is affine in the
    index, so it is negative somewhere iff it is negative at the least or
    the greatest index, or has a negative slope past a positive cycle.  A
    failure names an index the class occurs at: that end, or in the last
    case the first index on a lasso through the cycle at which the margin
    is negative.  The failing certificate is that ``class`` and
    ``index`` and the owner's two values there, ``chosen_value`` and
    ``other_value``; the owner and the choice are the system's, and the
    note names the owner.  A failed precondition cites the failing
    ``alw_leads_to_leaf`` certificate.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("sgpe expects a strategy")
    # the precondition is a scan of the shared play table; the
    # alw_leads_to_leaf certificate is built only for a failure
    ends = play_table(s).leaf
    if any(ends[c] < 0 for c in reachable(s)):
        altl = alw_leads_to_leaf(s)
        return Verdict(False, {"alw_leads_to_leaf": altl.certificate},
                       "not always leading to a leaf: " + altl.note)

    info = _analyze(s)
    columns = {agent: utility_columns(s, agent) for agent in s.roster}
    pump, most = info.pump, info.most
    rows = []
    for cls_id, (least, owner, choice, lc, lk, rc, rk) in enumerate(
            zip(info.least, s.owner, s.choice, s.left, s.left_shift, s.right, s.right_shift)):
        if least is None or owner is None:
            continue
        slope, intercept = columns[owner]
        # never cycling: every class here leads to a leaf, by the scan above
        c, k, o, j = (lc, lk, rc, rk) if choice is Choice.L else (rc, rk, lc, lk)
        chosen_slope, other_slope = slope[c], slope[o]
        chosen_value = chosen_slope * k + intercept[c]
        other_value = other_slope * j + intercept[o]
        margin_slope, margin = chosen_slope - other_slope, chosen_value - other_value
        top = most[cls_id] if pump[cls_id] is None else None

        bad: int | None = None
        if margin_slope * least + margin < 0:
            bad = least
        elif top is not None:
            bad = top if margin_slope * top + margin < 0 else None
        elif margin_slope < 0:
            _, _, loop, _, reach = _lasso(info, cls_id)
            bad = reach + loop * _pumps(-margin_slope, -margin, reach, loop, 0)

        if bad is not None:
            return Verdict(False, {
                "class": cls_id,
                "index": bad,
                "chosen_value": chosen_slope * bad + chosen_value,
                "other_value": other_slope * bad + other_value,
            }, f"{owner} prefers the other branch of class {cls_id} at index {bad}")

        rows.append((cls_id, least, top, chosen_slope, chosen_value, other_slope, other_value))
    return Verdict(True, _columns(("class", "n_min", "n_max", "chosen_slope", "chosen_intercept",
                                   "other_slope", "other_intercept"), rows),
                   "chosen branch weakly dominates at every reachable node class")
