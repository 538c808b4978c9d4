"""Choice-following predicates on strategies and the utility they induce.

The three core questions about a strategy system are: does following the
committed choices from the root terminate at a leaf (``leads_to_leaf``,
a least-fixpoint property), does it terminate from *every* node of the
denoted tree (``alw_leads_to_leaf``, a greatest-fixpoint property), and
what payoff does an agent collect when it does (``s2u``).

Soundness of the class-level cycle test: choices are attached to classes,
so revisiting a class means revisiting the same choice; the instantiation
index grows along the walk but never alters which child is taken.  A
repeated class therefore proves the walk runs forever, and conversely a
terminating walk visits each class at most once.  This is the argument
that makes the finite representation decide the infinite-tree predicates.

The committed children form a functional graph on classes, so one pass
(``play_table``) labels every class with the end of its chosen walk -
leaf class, accumulated shift and step count - or with None when the
walk cycles.  ``alw_leads_to_leaf`` and ``sgpe`` read that table.
"""

from __future__ import annotations

from typing import NamedTuple

from .system import Affine, CoSystem, Leaf, Node, Ref, STRATEGY, KindMismatchError, reachable, with_root
from .verdict import Verdict


def _owner_of(sys: CoSystem, cls_id: int) -> str | None:
    cls = sys.classes[cls_id]
    return cls.owner if isinstance(cls, Node) else None


def leads_to_leaf(s: CoSystem, at: Ref | None = None) -> Verdict:
    """Follow the chosen child from ``at`` (default root).

    Holds with the finite path (visited references and choices taken) if
    a leaf is reached; fails with the repeating class cycle and the
    choices taken otherwise.  Terminates within |classes| + 1 steps.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("leads_to_leaf expects a strategy")
    cur = s.root if at is None else at
    first_visit: dict[int, int] = {}
    refs = [cur]
    choices: list[str] = []
    while True:
        cls = s.classes[cur.cls]
        if isinstance(cls, Leaf):
            return Verdict(
                True,
                {
                    "path": [r.to_json() for r in refs],
                    "choices": choices,
                    "total_shift": cur.shift,
                },
                f"leaf reached in {len(choices)} steps",
            )
        if cur.cls in first_visit:
            cycle = [r.cls for r in refs[first_visit[cur.cls] : -1]]
            return Verdict(
                False,
                {
                    "cycle": cycle,
                    "owners": [_owner_of(s, c) for c in cycle],
                    "entered_after": first_visit[cur.cls],
                    "choices": choices,
                },
                "chosen path revisits a class and can never terminate",
            )
        first_visit[cur.cls] = len(refs) - 1
        assert cls.choice is not None
        nxt = cls.child(cls.choice)
        cur = Ref(nxt.cls, cur.shift + nxt.shift)
        refs.append(cur)
        choices.append(cls.choice.value)


PlayEnd = NamedTuple("PlayEnd", [("leaf", int), ("shift", int), ("steps", int)])


def play_table(s: CoSystem) -> list[PlayEnd | None]:
    """The end of the chosen walk from every class at local index 0, or
    None where it cycles.  Each class is walked once: a walk stops at a
    leaf, at a class already labelled, or at a class on the walk itself
    (a cycle), and the classes it passed are labelled on the way back.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("play_table expects a strategy")
    table = [PlayEnd(i, 0, 0) if isinstance(c, Leaf) else None for i, c in enumerate(s.classes)]
    seen = [end is not None for end in table]
    for start in range(len(s.classes)):
        walk: list[int] = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            walk.append(cur)
            cls = s.classes[cur]
            cur = cls.child(cls.choice).cls
        end = table[cur]  # None also while ``cur`` is on this walk: a cycle
        for cls_id in reversed(walk):
            if end is not None:
                cls = s.classes[cls_id]
                end = PlayEnd(end.leaf, end.shift + cls.child(cls.choice).shift, end.steps + 1)
            table[cls_id] = end
    return table


def alw_leads_to_leaf(s: CoSystem) -> Verdict:
    """``leads_to_leaf`` from every class reachable through both children.

    The certificate lists, per reachable class, the leaf its chosen walk
    ends at and the walk's length; the rows replay locally, since a
    node's row is its chosen child's with one more step.  A failure
    reports the first reachable class (BFS order) whose chosen walk
    cycles, together with that cycle.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("alw_leads_to_leaf expects a strategy")
    table = play_table(s)
    rows = []
    for cls_id in reachable(s):
        end = table[cls_id]
        if end is None:
            return Verdict(
                False,
                {"class": cls_id, "owner": _owner_of(s, cls_id),
                 "cycle": leads_to_leaf(s, Ref(cls_id, 0)).certificate},
                f"class {cls_id} does not lead to a leaf",
            )
        rows.append({"class": cls_id, "leaf": end.leaf, "steps": end.steps})
    return Verdict(True, {"classes": rows}, "every reachable class leads to a leaf")


def s2u(s: CoSystem, agent: str) -> Affine | None:
    """The agent's utility under the strategy, as an affine function of
    the root index, or None when the strategy does not lead to a leaf.

    The defining relation is functional exactly on the leads-to-leaf
    domain (the chosen path is unique), which is why this is a partial
    function rather than a relation.  The concrete on-path value is the
    evaluation at n = 0, the root baseline.
    """
    if agent not in s.roster:
        raise ValueError(f"agent {agent!r} not in roster {s.roster}")
    walk = leads_to_leaf(s)
    if not walk.holds:
        return None
    last = walk.certificate["path"][-1]
    leaf = s.classes[last["class"]]
    assert isinstance(leaf, Leaf)
    return leaf.payoffs[agent].shifted(last["shift"])


def utility_from(s: CoSystem, ref: Ref, agent: str) -> Affine | None:
    """``s2u`` of the subtree at ``ref``, as an affine function of the
    *local* index of the class containing ``ref``."""
    return s2u(with_root(s, ref), agent)
