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
must dominate at every index at which the class occurs.  Index sets are
exact when finite; when a positive-offset cycle makes them infinite they
are over-approximated by ``n >= n_min``.  The verdict stays exact, since
an affine margin is negative somewhere on an infinite set containing
``n_min`` iff it is negative at ``n_min`` or has negative slope; only the
index a failing certificate reports may lie outside the set.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .semantics import alw_leads_to_leaf, leads_to_leaf, play_table
from .system import (
    Affine,
    Choice,
    CoSystem,
    KindMismatchError,
    Leaf,
    Node,
    Ref,
    RosterMismatchError,
    STRATEGY,
    reachable,
    sccs,
)
from .verdict import Verdict


class NotApplicableError(ValueError):
    """Preservation check invoked on a pair that is not inductively convertible."""


# ---------------------------------------------------------------------------
# reachability with additive index offsets


@dataclass(frozen=True)
class ReachSet:
    """Root-relative indices at which a class is reachable.

    ``minimum`` is always exact.  ``unbounded`` is set when a
    positive-total-offset cycle lies on some path to the class (the set
    is then infinite); otherwise ``values`` is the exact finite set.
    """

    minimum: int
    unbounded: bool
    values: frozenset[int] | None

    def to_json(self) -> dict[str, Any]:
        return {
            "minimum": self.minimum,
            "unbounded": self.unbounded,
            "values": sorted(self.values) if self.values is not None else None,
        }


Adjacency = dict[int, list[tuple[Choice, Ref]]]


def _adjacency(s: CoSystem, mode: str, agent: str | None = None) -> Adjacency:
    """Edge projection of the class graph.

    ``tree``: both children everywhere; ``play``: the committed child
    only; ``deviate``: both children at classes owned by ``agent``, the
    committed child elsewhere.
    """
    adj: Adjacency = {}
    for i, cls in enumerate(s.classes):
        if isinstance(cls, Leaf):
            adj[i] = []
        elif mode == "tree" or (mode == "deviate" and cls.owner == agent):
            adj[i] = [(Choice.L, cls.left), (Choice.R, cls.right)]
        else:
            assert cls.choice is not None
            adj[i] = [(cls.choice, cls.child(cls.choice))]
    return adj


@dataclass
class _ReachInfo:
    sets: dict[int, ReachSet]
    positive_members: set[int]  # classes inside a positive-weight SCC
    scc_of: dict[int, list[int]]
    # BFS tree over the bounded (class, index) states: the step into each
    parent: dict[tuple[int, int], tuple[int, int, Choice] | None]


def _analyze(s: CoSystem, adj: Adjacency) -> _ReachInfo:
    root = s.root
    # exact minima (Dijkstra; all offsets are >= 0), keyed by the classes
    # reachable under this projection
    dist = {root.cls: root.shift}
    heap = [(root.shift, root.cls)]
    while heap:
        d, c = heapq.heappop(heap)
        if d > dist.get(c, d):
            continue
        for _, ref in adj[c]:
            nd = d + ref.shift
            if nd < dist.get(ref.cls, nd + 1):
                dist[ref.cls] = nd
                heapq.heappush(heap, (nd, ref.cls))

    # an SCC has a positive-weight cycle iff one of its internal edges has
    # positive weight (offsets are nonnegative, so the closing path adds
    # nothing negative)
    scc_of = {v: comp for comp in sccs([root.cls], lambda c: (r.cls for _, r in adj[c])) for v in comp}
    positive: set[int] = set()
    for c in dist:
        for _, ref in adj[c]:
            if scc_of[c] is scc_of[ref.cls] and ref.shift > 0:
                positive.update(scc_of[c])

    # unbounded = reachable from a positive cycle
    unbounded = set(positive)
    queue = deque(positive)
    while queue:
        for _, ref in adj[queue.popleft()]:
            if ref.cls not in unbounded:
                unbounded.add(ref.cls)
                queue.append(ref.cls)

    # exact value sets for bounded classes: every path to a bounded class
    # stays in bounded classes, where all cycles have weight zero, so the
    # (class, weight) state space is finite
    values: dict[int, set[int]] = {c: set() for c in dist if c not in unbounded}
    parent: dict[tuple[int, int], tuple[int, int, Choice] | None] = {}
    if root.cls not in unbounded:
        parent[(root.cls, root.shift)] = None
        queue2 = deque(parent)
        while queue2:
            state = queue2.popleft()
            for label, ref in adj[state[0]]:
                nxt = (ref.cls, state[1] + ref.shift)
                if ref.cls not in unbounded and nxt not in parent:
                    parent[nxt] = (*state, label)
                    queue2.append(nxt)
    for c, w in parent:
        values[c].add(w)

    sets = {}
    for c in dist:
        if c in unbounded:
            sets[c] = ReachSet(dist[c], True, None)
        else:
            sets[c] = ReachSet(dist[c], False, frozenset(values[c]))
    return _ReachInfo(sets, positive, scc_of, parent)


def reach_index_sets(s: CoSystem, mode: str = "tree", agent: str | None = None) -> dict[int, ReachSet]:
    """Per-class reachable index sets under the chosen edge projection."""
    return _analyze(s, _adjacency(s, mode, agent)).sets


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


def _shortest_steps(s: CoSystem, adj: Adjacency, source: Ref, target: int,
                    within: set[int] | None = None) -> tuple[list[tuple[int, int, Choice]], int]:
    """Min-weight path ``source -> target`` as (class, index, choice) steps
    plus the target's arrival index.  ``within`` restricts intermediate
    classes (used to stay inside an SCC)."""
    dist = {source.cls: source.shift}
    parent: dict[int, tuple[int, Choice]] = {}
    heap = [(source.shift, source.cls)]
    while heap:
        d, c = heapq.heappop(heap)
        if d > dist.get(c, d):
            continue
        if c == target:
            break
        for label, ref in adj[c]:
            if within is not None and ref.cls not in within and ref.cls != target:
                continue
            nd = d + ref.shift
            if nd < dist.get(ref.cls, nd + 1):
                dist[ref.cls] = nd
                parent[ref.cls] = (c, label)
                heapq.heappush(heap, (nd, ref.cls))
    chain: list[tuple[int, Choice]] = []
    c = target
    while c != source.cls:
        prev, label = parent[c]
        chain.append((prev, label))
        c = prev
    chain.reverse()
    steps = []
    w = source.shift
    for cls_id, label in chain:
        steps.append((cls_id, w, label))
        ref = dict(adj[cls_id])[label]
        w += ref.shift
    return steps, w


def _cycle_steps(s: CoSystem, adj: Adjacency, members: set[int], at: int) -> tuple[list[tuple[int, int, Choice]], int]:
    """A positive-weight cycle through ``at`` inside one SCC, as relative
    steps (indices start at 0) plus the cycle's total weight."""
    for c in sorted(members):
        for label, ref in adj[c]:
            if ref.cls in members and ref.shift > 0:
                to_edge, w1 = _shortest_steps(s, adj, Ref(at, 0), c, within=members)
                back, w2 = _shortest_steps(s, adj, Ref(ref.cls, w1 + ref.shift), at, within=members)
                return to_edge + [(c, w1, label)] + back, w2
    raise AssertionError("no positive edge inside a positive SCC")


def _deviation_verdict(s: CoSystem, agent: str, base: int, steps: list[tuple[int, int, Choice]],
                       leaf_cls: int, leaf_index: int, value: int) -> Verdict:
    path = [_step(s, c, w, label, agent) for c, w, label in steps]
    overrides = [p for p in path if p["overridden"]]
    cert = {
        "agent": agent,
        "on_path_value": base,
        "deviation_value": value,
        "leaf_class": leaf_cls,
        "leaf_index": leaf_index,
        "path": path,
        "overrides": overrides,
    }
    return Verdict(False, cert, f"{agent} improves {base} -> {value} by overriding "
                                f"{len(overrides)} choice(s)")


# ---------------------------------------------------------------------------
# Nash equilibrium


def nash_eq(s: CoSystem) -> Verdict:
    """Nash equilibrium check.

    Vacuously holds when the strategy does not lead to a leaf (no actual
    utility to improve on).  Otherwise, per agent, the deviation graph is
    optimized over every reachable leaf and every reachable index; a
    strict improvement yields a concrete finite deviation path as the
    counterexample, and the holds-certificate reports the per-agent
    optima.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("nash_eq expects a strategy")
    walk = leads_to_leaf(s)
    if not walk.holds:
        return Verdict(True, {"leads_to_leaf": walk.certificate},
                       "vacuous: strategy does not lead to a leaf")

    last = walk.certificate["path"][-1]
    agents_report = []
    for agent in s.roster:
        base = s.classes[last["class"]].payoffs[agent].at(last["shift"])
        adj = _adjacency(s, "deviate", agent)
        info = _analyze(s, adj)
        best: tuple[int, int, int] | None = None  # value, leaf class, index
        leaves_report = []
        for cls_id in sorted(info.sets):
            cls = s.classes[cls_id]
            if not isinstance(cls, Leaf):
                continue
            payoff = cls.payoffs[agent]
            rs = info.sets[cls_id]
            if rs.unbounded:
                if payoff.slope > 0:
                    # payoff grows without bound along a positive cycle:
                    # pump the cycle just past the on-path value
                    entry = _pump_entry(adj, info, cls_id)
                    steps, leaf_index = _pumped_steps(s, adj, info, entry, cls_id, payoff, base)
                    return _deviation_verdict(s, agent, base, steps, cls_id, leaf_index,
                                              payoff.at(leaf_index))
                value, at_index = payoff.at(rs.minimum), rs.minimum
            else:
                assert rs.values is not None
                at_index = max(rs.values, key=lambda n: (payoff.at(n), -n))
                value = payoff.at(at_index)
            leaves_report.append({"leaf_class": cls_id, "reach": rs.to_json(),
                                  "max_value": value, "at_index": at_index})
            if best is None or value > best[0]:
                best = (value, cls_id, at_index)
        if best is not None and best[0] > base:
            value, leaf, index = best
            if info.sets[leaf].unbounded:  # valued at its minimum index
                steps, _ = _shortest_steps(s, adj, s.root, leaf)
            else:
                steps, step = [], info.parent[(leaf, index)]
                while step is not None:
                    steps.append(step)
                    step = info.parent[step[:2]]
                steps.reverse()
            return _deviation_verdict(s, agent, base, steps, leaf, index, value)
        agents_report.append({
            "agent": agent,
            "on_path_value": base,
            "best_deviation_value": best[0] if best else None,
            "leaves": leaves_report,
        })
    return Verdict(True, {"agents": agents_report},
                   "no agent has a profitable leaf-terminating deviation")


def _pump_entry(adj: Adjacency, info: _ReachInfo, target: int) -> int:
    """A positive-SCC member from which ``target`` is reachable, preferring
    the one closest to the root."""
    preds: dict[int, list[int]] = {}
    for c in info.sets:
        for _, ref in adj[c]:
            preds.setdefault(ref.cls, []).append(c)
    feeding = {target}
    queue = deque(feeding)
    while queue:
        for c in preds.get(queue.popleft(), ()):
            if c not in feeding:
                feeding.add(c)
                queue.append(c)
    return min((info.sets[m].minimum, m) for m in info.positive_members & feeding)[1]


def _pumped_steps(s: CoSystem, adj: Adjacency, info: _ReachInfo, entry: int, target: int,
                  payoff: Affine, base: int) -> tuple[list[tuple[int, int, Choice]], int]:
    head, w1 = _shortest_steps(s, adj, s.root, entry)
    loop_rel, loop_weight = _cycle_steps(s, adj, set(info.scc_of[entry]), entry)
    tail_rel, w2_rel = _shortest_steps(s, adj, Ref(entry, 0), target)
    # smallest k >= 0 with payoff.at(w1 + k*loop + w2) > base
    flat = w1 + w2_rel
    num = base + 1 - payoff.intercept - payoff.slope * flat
    den = payoff.slope * loop_weight
    k = max(0, -(-num // den))
    steps = list(head)
    offset = w1
    for _ in range(k):
        steps.extend((c, offset + w, label) for c, w, label in loop_rel)
        offset += loop_weight
    steps.extend((c, offset + w, label) for c, w, label in tail_rel)
    return steps, offset + w2_rel


# ---------------------------------------------------------------------------
# subgame perfection


def sgpe(s: CoSystem) -> Verdict:
    """Subgame perfect equilibrium check.

    Requires every reachable node to lead to a leaf, then checks, per
    reachable node class, that the owner's chosen branch weakly dominates
    the other at every index the class is reachable at.  Dominance is
    weak (ties are subgame perfect).  The certificate tabulates both
    branch utilities, read from the play table, and the margin per class.
    The verdict is exact; on an infinite index set the failing index
    reported is the first ``n >= n_min`` with a negative margin, which
    need not be one the class occurs at.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("sgpe expects a strategy")
    altl = alw_leads_to_leaf(s)
    if not altl.holds:
        return Verdict(False, {"alw_leads_to_leaf": altl.certificate},
                       "not always leading to a leaf: " + altl.note)

    info = _analyze(s, _adjacency(s, "tree"))
    plays = play_table(s)  # no None entries, by alw_leads_to_leaf

    def utility(ref: Ref, agent: str) -> Affine:
        leaf, shift, _ = plays[ref.cls]
        return s.classes[leaf].payoffs[agent].shifted(ref.shift + shift)

    table = []
    for cls_id in sorted(info.sets):
        cls = s.classes[cls_id]
        if isinstance(cls, Leaf):
            continue
        left_u, right_u = utility(cls.left, cls.owner), utility(cls.right, cls.owner)
        chosen, other = (left_u, right_u) if cls.choice is Choice.L else (right_u, left_u)
        margin = chosen - other
        rs = info.sets[cls_id]

        bad: int | None = None
        if rs.values is not None:
            for n in sorted(rs.values):
                if margin.at(n) < 0:
                    bad = n
                    break
        elif margin.at(rs.minimum) < 0:
            bad = rs.minimum
        elif margin.slope < 0:
            bad = max(rs.minimum, margin.intercept // (-margin.slope) + 1)

        if bad is not None:
            assert cls.choice is not None
            return Verdict(False, {
                "class": cls_id,
                "owner": cls.owner,
                "choice": cls.choice.value,
                "index": bad,
                "chosen_value": chosen.at(bad),
                "other_value": other.at(bad),
                "reach": "exact" if rs.values is not None else "over-approximated: n >= n_min",
            }, f"{cls.owner} prefers the other branch of class {cls_id} at index {bad}")

        assert cls.choice is not None
        table.append({
            "class": cls_id,
            "owner": cls.owner,
            "choice": cls.choice.value,
            "n_min": rs.minimum,
            "indices": rs.to_json(),
            "chosen": chosen.to_json(),
            "other": other.to_json(),
            "margin": margin.to_json(),
            "margin_at_n_min": margin.at(rs.minimum),
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

    Explores the product of the class graphs tracking the offset
    difference between the two sides.  Leaves must carry equal payoff
    functions under that alignment; nodes must agree on owner, and on
    choice except where the agent owns the node.  The drift between the
    parametrizations is capped at |classes(s)| + |classes(t)|: past that
    the leaves cannot realign unless no reachable leaf depends on the
    index at all, which is detected up front and tracked as zero drift.
    """
    if s.kind != STRATEGY or t.kind != STRATEGY:
        raise KindMismatchError("convertible expects two strategies")
    if s.roster != t.roster:
        raise RosterMismatchError(f"rosters differ: {s.roster} vs {t.roster}")
    if agent not in s.roster:
        raise ValueError(f"agent {agent!r} not in roster {s.roster}")

    def has_slopes(sys: CoSystem) -> bool:
        return any(
            isinstance(sys.classes[c], Leaf)
            and any(f.slope != 0 for f in sys.classes[c].payoffs.values())
            for c in reachable(sys)
        )

    track = has_slopes(s) or has_slopes(t)
    cap = len(s.classes) + len(t.classes)

    start = (s.root.cls, t.root.cls, t.root.shift - s.root.shift if track else 0)
    parent: dict[tuple[int, int, int], tuple[tuple[int, int, int], str]] = {}
    seen = {start}
    queue = deque([start])
    out_edges: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    diffs: set[tuple[int, int, int]] = set()

    def path_to(state: tuple[int, int, int]) -> list[str]:
        labels: list[str] = []
        while state in parent:
            state, label = parent[state]
            labels.append(label)
        return labels[::-1]

    def blocked(state: tuple[int, int, int], reason: str) -> ConvClass:
        witness = {"path": path_to(state), "state": _state_json(state), "reason": reason}
        return ConvClass(Convertibility.NOT_CONVERTIBLE, witness, reason)

    while queue:
        state = queue.popleft()
        cs, ct, delta = state
        ks, kt = s.classes[cs], t.classes[ct]
        if isinstance(ks, Leaf) != isinstance(kt, Leaf):
            return blocked(state, "head kind differs")
        if isinstance(ks, Leaf):
            assert isinstance(kt, Leaf)
            for ag in s.roster:
                fs, ft = ks.payoffs[ag], kt.payoffs[ag]
                if fs.slope != ft.slope or fs.intercept != ft.intercept + fs.slope * delta:
                    return blocked(state, f"leaf payoffs differ for {ag}")
            out_edges[state] = []
            continue
        assert isinstance(kt, Node)
        if ks.owner != kt.owner:
            return blocked(state, "owner differs")
        if ks.choice is not kt.choice:
            if ks.owner != agent:
                return blocked(state, f"choice differs at a node owned by {ks.owner}, not the deviator")
            diffs.add(state)
        succs = []
        for label, rs_, rt_ in (("l", ks.left, kt.left), ("r", ks.right, kt.right)):
            nd = delta + (rt_.shift - rs_.shift) if track else 0
            if abs(nd) > cap:
                drift = (rs_.cls, rt_.cls, nd)
                parent[drift] = (state, label)
                return blocked(drift, "parametrization drift exceeds the alignment bound")
            nxt = (rs_.cls, rt_.cls, nd)
            succs.append(nxt)
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = (state, label)
                queue.append(nxt)
        out_edges[state] = succs

    if not diffs:
        return ConvClass(Convertibility.INDUCTIVE, {"differences": []},
                         "strategies denote the same tree")

    # a difference is realized infinitely often iff it sits on or after a
    # product cycle
    comps = sccs(out_edges.keys(), lambda v: out_edges[v])
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    cyclic = set()
    for comp in comps:
        members = set(comp)
        if len(comp) > 1 or any(v in out_edges[comp[0]] for v in comp):
            cyclic.update(members)
    after: set[tuple[int, int, int]] = set(cyclic)
    origin: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    queue = deque(cyclic)
    while queue:
        v = queue.popleft()
        for w in out_edges[v]:
            if w not in after:
                after.add(w)
                origin[w] = v
                queue.append(w)

    recurring = sorted(diffs & after)
    if not recurring:
        return ConvClass(
            Convertibility.INDUCTIVE,
            {"differences": [_state_json(d) for d in sorted(diffs)]},
            f"{len(diffs)} differing node class pair(s), none recurring",
        )

    target = recurring[0]
    hop_path = []
    v = target
    while v in origin:
        hop_path.append(_state_json(v))
        v = origin[v]
    cycle_comp = [x for x in comps[comp_of[v]]]
    witness = {
        "difference": _state_json(target),
        "cycle": [_state_json(x) for x in sorted(cycle_comp)],
        "path_from_cycle": hop_path[::-1],
        "path_from_root": path_to(v),
    }
    return ConvClass(Convertibility.COINDUCTIVE_ONLY, witness,
                     "a choice difference recurs along an unrolled cycle")


def check_altl_preservation(s: CoSystem, t: CoSystem, agent: str) -> Verdict:
    """Harness for the preservation law: an inductively convertible
    rewrite of a strategy that always leads to a leaf again always leads
    to a leaf.  A failing verdict here indicates an engine bug, not a
    property of the inputs."""
    conv = convertible(s, t, agent)
    if conv.value is not Convertibility.INDUCTIVE:
        raise NotApplicableError(f"pair is {conv.value.value}, not inductively convertible")
    premise = alw_leads_to_leaf(s)
    if not premise.holds:
        return Verdict(True, {"source": premise.to_json()},
                       "not applicable: premise fails, implication vacuous")
    conclusion = alw_leads_to_leaf(t)
    cert = {"source": premise.to_json(), "target": conclusion.to_json()}
    if conclusion.holds:
        return Verdict(True, cert, "always-leads-to-leaf preserved")
    return Verdict(False, cert, "PRESERVATION VIOLATED: engine inconsistency")
