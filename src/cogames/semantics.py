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
(``play_table``) labels every class with the end of its chosen walk, in
three int columns indexed by class id: the leaf class it ends at (-1
where the walk cycles), the shift it accumulates and its step count.
Per agent, ``utility_columns`` turns the table into two more int
columns: the slope of the agent's utility from each class, and its
intercept at the class's local index 0.  All of these are
``system.memoized`` tables, and every choice-following question reads
them instead of building an object per class: ``alw_leads_to_leaf``,
``utility_from`` and so ``s2u``, and in ``equilibria`` ``nash_eq``
(whether the root's walk ends, and each agent's on-path value) and
``sgpe`` (both branch utilities at every reachable node class).  The
holding certificates of ``alw_leads_to_leaf``, ``sgpe`` and ``nash_eq``
are columns too: one list per named field, with one entry per class or
leaf, and no dict per entry.

A certificate carries only what its replay needs.  It names classes,
and holds no owner (a lookup of the system's ``owner`` column at a
class it names) and nothing that is a function of its other fields.  A
walk's ``choices`` stays, since ``histories.strategy_history`` reads it.
The walk certificates, in full:

- ``leads_to_leaf`` holds with ``{"class", "shift", "choices"}``: the
  classes visited and the shift at each (both one entry longer than the
  choices, the last entry being the leaf), and the choices taken.
- ``leads_to_leaf`` fails with ``{"cycle", "entered_after",
  "choices"}``: the classes of the cycle, the number of steps before
  the walk enters it, and the choices taken up to the first repeat.
- ``alw_leads_to_leaf`` fails with ``{"class", "cycle"}``: the first
  reachable class whose walk cycles, and that walk's failing
  ``leads_to_leaf`` certificate from local index 0.

Nothing here reads the system's classes or builds a graph of it: the
walks follow the system's own ``choice`` column to the ``left`` or
``right`` child, and the utility columns read leaf payoffs from its
``payoff`` column (see ``system.CoSystem``).

Only ``leads_to_leaf`` walks, since its certificate is the path itself.
The walk is memoized too, one per start reference, so the certificates
that cite one walk (``alw_leads_to_leaf``'s failure, ``nash_eq``'s
vacuous holds, ``sgpe``'s failing precondition) walk it once between
them; each gets its own copy of the certificate through its own
``leads_to_leaf`` call.
"""

from __future__ import annotations

from typing import NamedTuple

from .system import (Affine, Choice, CoSystem, KindMismatchError, Ref, STRATEGY, check_ref,
                     memoized, reachable)
from .verdict import Verdict


def leads_to_leaf(s: CoSystem, at: Ref | None = None) -> Verdict:
    """Follow the chosen child from ``at`` (default root).

    Holds with the finite path (visited classes and shifts as two
    columns, and the choices taken) if a leaf is reached; fails with the
    repeating class cycle and the choices taken otherwise (see the
    module docstring).  Terminates within |classes| + 1 steps.
    The walk is memoized per start reference; each call builds its own
    verdict from it, so a caller may keep or change its certificate
    without touching any other's.  A start outside the system raises
    ``ValueError``.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("leads_to_leaf expects a strategy")
    if at is not None:
        check_ref(s, at)
    visited, shifts, choices, entered = _chosen_walk(s, s.root if at is None else at)
    if entered is None:
        return Verdict(True, {"class": list(visited), "shift": list(shifts), "choices": list(choices)},
                       f"leaf reached in {len(choices)} steps")
    return Verdict(False, {"cycle": visited[entered:-1], "entered_after": entered,
                           "choices": list(choices)},
                   "chosen path revisits a class and can never terminate")


@memoized
def _chosen_walk(s: CoSystem, start: Ref) -> tuple[list[int], list[int], list[str], int | None]:
    """:func:`_walk`, built once per start; :func:`leads_to_leaf` copies it."""
    return _walk(s, start)


def _walk(s: CoSystem, start: Ref) -> tuple[list[int], list[int], list[str], int | None]:
    """The chosen walk from ``start``, along the system's choice and child
    columns: the classes visited, the shift at each, the choices taken,
    and the index of the first visit of the class that repeats (None
    when the walk ends at a leaf, which is then the last class
    visited)."""
    owner, choice = s.owner, s.choice
    cur, shift = start.cls, start.shift
    first_visit: dict[int, int] = {}
    visited, shifts = [cur], [shift]
    choices: list[str] = []
    while owner[cur] is not None:
        if cur in first_visit:
            return visited, shifts, choices, first_visit[cur]
        first_visit[cur] = len(visited) - 1
        label = choice[cur]
        if label is Choice.L:
            cur, k = s.left[cur], s.left_shift[cur]
        else:
            cur, k = s.right[cur], s.right_shift[cur]
        shift += k
        visited.append(cur)
        shifts.append(shift)
        choices.append(label.value)
    return visited, shifts, choices, None


class PlayTable(NamedTuple):
    """The end of the chosen walk from every class at local index 0, as
    int columns indexed by class id: the leaf class the walk ends at (-1
    where it cycles), the shift it accumulates and its step count (both
    0 where it cycles)."""

    leaf: list[int]
    shift: list[int]
    steps: list[int]


@memoized
def play_table(s: CoSystem) -> PlayTable:
    """The system's :class:`PlayTable`.  Each class is walked once along
    its chosen children: a walk stops at a leaf, at a class
    already labelled, or at a class on the walk itself (a cycle), and
    the classes it passed are labelled on the way back.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("play_table expects a strategy")
    L = Choice.L
    # the chosen child of every class and the shift of its edge (either
    # child's at a leaf, never read)
    nxt = [lc if c is L else rc for c, lc, rc in zip(s.choice, s.left, s.right)]
    step = [lk if c is L else rk for c, lk, rk in zip(s.choice, s.left_shift, s.right_shift)]
    n = len(nxt)
    leaf, shift, steps = [-1] * n, [0] * n, [0] * n
    seen = [False] * n
    for c, owner in enumerate(s.owner):
        if owner is None:
            leaf[c], seen[c] = c, True
    for start in range(n):
        walk: list[int] = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            walk.append(cur)
            cur = nxt[cur]
        end = leaf[cur]  # -1 also while ``cur`` is on this walk: a cycle
        if end < 0:
            continue
        k, m = shift[cur], steps[cur]
        for c in reversed(walk):
            k += step[c]
            m += 1
            leaf[c], shift[c], steps[c] = end, k, m
    return PlayTable(leaf, shift, steps)


@memoized
def utility_columns(s: CoSystem, agent: str) -> tuple[list[int], list[int]]:
    """``agent``'s utility from every class at local index 0, as two int
    columns indexed by class id: the slope, and the intercept at local
    index 0 (the end leaf's payoff shifted by the walk's shift); both 0
    where the chosen walk cycles, which the play table's ``leaf`` column
    marks.  Memoized per agent."""
    if agent not in s.roster:
        raise ValueError(f"agent {agent!r} not in roster {s.roster}")
    leaf, shift, _ = play_table(s)
    payoff, i = s.payoff, 2 * s.roster.index(agent)
    # per end leaf, and (0, 0) for -1
    slopes, intercepts = {-1: 0}, {-1: 0}
    for e in set(leaf):
        if e >= 0:
            slopes[e], intercepts[e] = payoff[e][i], payoff[e][i + 1]
    return ([slopes[e] for e in leaf],
            [slopes[e] * k + intercepts[e] for e, k in zip(leaf, shift)])


def alw_leads_to_leaf(s: CoSystem) -> Verdict:
    """``leads_to_leaf`` from every class reachable through both children.

    A holding certificate is three int columns of equal length, one
    entry per reachable class in ``reachable``'s breadth-first order:
    ``class``, the ``leaf`` its chosen walk ends at and the walk's
    ``steps``.  They replay locally, since a node's entries are its
    chosen child's with one more step.  A failure reports the first
    reachable class (BFS order) whose chosen walk cycles, together with
    that walk's failing ``leads_to_leaf`` certificate.
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("alw_leads_to_leaf expects a strategy")
    leaf, _, steps = play_table(s)
    order = reachable(s)
    bad = next((c for c in order if leaf[c] < 0), None)
    if bad is not None:
        return Verdict(
            False,
            {"class": bad, "cycle": leads_to_leaf(s, Ref(bad, 0)).certificate},
            f"class {bad} does not lead to a leaf",
        )
    return Verdict(True, {"class": list(order), "leaf": [leaf[c] for c in order],
                          "steps": [steps[c] for c in order]},
                   "every reachable class leads to a leaf")


def s2u(s: CoSystem, agent: str) -> Affine | None:
    """The agent's utility under the strategy, as an affine function of
    the root index, or None when the strategy does not lead to a leaf.

    The defining relation is functional exactly on the leads-to-leaf
    domain (the chosen path is unique), which is why this is a partial
    function rather than a relation.  The concrete on-path value is the
    evaluation at n = 0, the root baseline.  It is ``utility_from`` at
    the root, read from the agent's utility columns.
    """
    return utility_from(s, s.root, agent)


def utility_from(s: CoSystem, ref: Ref, agent: str) -> Affine | None:
    """``s2u`` of the subtree at ``ref``, as an affine function of the
    *local* index of the class containing ``ref``, or None when the
    chosen walk from there cycles.  One lookup in the agent's utility
    columns, shifted by ``ref.shift``.  A reference outside the system
    raises ``ValueError``."""
    check_ref(s, ref)
    slope, intercept = utility_columns(s, agent)
    if play_table(s).leaf[ref.cls] < 0:
        return None
    k = slope[ref.cls]
    return Affine(k, k * ref.shift + intercept[ref.cls])
