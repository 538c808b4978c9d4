"""Finitely presented corecursive game and strategy trees.

An infinite binary game (or strategy profile) is represented here as a
finite system of parametric equations: a list of node *classes* indexed by
a natural parameter ``n``.  A class is either a leaf carrying one payoff
per agent, affine in ``n``, or an internal node whose two children are
references ``(class, n + k)`` into the same system.  Unrolling the system
from its root reference yields the denoted tree; a class graph with cycles
denotes an infinite tree, and offsets let payoffs grow along a backbone
(the dollar-auction and centipede shapes).

All values are immutable after construction and every operation is a pure
function, so systems can be shared freely between concurrent analyses.
Payoff arithmetic is exact (Python integers); nothing here overflows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Union

from .verdict import Verdict

GAME = "game"
STRATEGY = "strategy"
KINDS = (GAME, STRATEGY)


class KindMismatchError(ValueError):
    """Operation applied to a system of the wrong kind, or to mixed kinds."""


class RosterMismatchError(ValueError):
    """Two systems compared over different agent rosters."""


class ParametricUnsupportedError(ValueError):
    """Exact bisimilarity requested for a parametric system."""


class Choice(Enum):
    """Binary branch label.  L sorts before R in every canonical order."""

    L = "l"
    R = "r"

    @property
    def other(self) -> "Choice":
        return Choice.R if self is Choice.L else Choice.L

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Affine:
    """Exact integer payoff ``slope * n + intercept`` of the index ``n``."""

    slope: int
    intercept: int

    @classmethod
    def const(cls, value: int) -> "Affine":
        return cls(0, value)

    def at(self, n: int) -> int:
        return self.slope * n + self.intercept

    def shifted(self, k: int) -> "Affine":
        """The same payoff observed ``k`` levels deeper: value at ``n + k``
        expressed as a function of ``n``."""
        return Affine(self.slope, self.slope * k + self.intercept)

    def __sub__(self, other: "Affine") -> "Affine":
        return Affine(self.slope - other.slope, self.intercept - other.intercept)

    def to_json(self) -> dict[str, int]:
        return {"slope": self.slope, "intercept": self.intercept}


@dataclass(frozen=True)
class Ref:
    """Reference to a class instantiated at index ``n + shift``."""

    cls: int
    shift: int = 0

    def to_json(self) -> dict[str, int]:
        return {"class": self.cls, "shift": self.shift}


@dataclass(frozen=True)
class Leaf:
    """Terminal class: one affine payoff per roster agent."""

    payoffs: Mapping[str, Affine]


@dataclass(frozen=True)
class Node:
    """Internal class: owning agent, two child references, and - in
    strategy systems only - the owner's committed choice."""

    owner: str
    choice: Choice | None
    left: Ref
    right: Ref

    def child(self, c: Choice) -> Ref:
        return self.left if c is Choice.L else self.right


NodeClass = Union[Leaf, Node]


@dataclass(frozen=True)
class CoSystem:
    """A finite equation system denoting a (possibly infinite) tree.

    ``kind`` is ``"game"`` (no choices) or ``"strategy"`` (a choice at
    every node).  The roster is normalized to a sorted tuple, since it is
    a set.  The root is conventionally ``Ref(cls, 0)``.
    """

    kind: str
    roster: tuple[str, ...]
    classes: tuple[NodeClass, ...]
    root: Ref = Ref(0, 0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "roster", tuple(sorted(set(self.roster))))
        object.__setattr__(self, "classes", tuple(self.classes))


def validate(sys: CoSystem) -> Verdict:
    """Check every representation invariant; reject at the first violation.

    Failure certificates carry an error code and the offending location:
    ``EmptyRoster``, ``BadKind``, ``InvalidRef``, ``MissingChoice``,
    ``ExtraChoice``, ``UnknownOwner``, ``PayoffDomain``.
    """
    if not sys.roster:
        return Verdict(False, {"error": "EmptyRoster"}, "roster must be nonempty")
    if sys.kind not in KINDS:
        return Verdict(False, {"error": "BadKind", "kind": sys.kind}, "kind must be game or strategy")

    def bad(code: str, where: int | str, why: str, **extra) -> Verdict:
        cert = {"error": code, "class": where}
        cert.update(extra)
        return Verdict(False, cert, why)

    n = len(sys.classes)
    roster = set(sys.roster)
    for i, cls in enumerate(sys.classes):
        if isinstance(cls, Leaf):
            if set(cls.payoffs) != roster:
                return bad("PayoffDomain", i, "leaf payoffs must cover exactly the roster")
        else:
            if cls.owner not in roster:
                return bad("UnknownOwner", i, f"owner {cls.owner!r} not in roster")
            if sys.kind == STRATEGY and cls.choice is None:
                return bad("MissingChoice", i, "strategy node lacks a choice")
            if sys.kind == GAME and cls.choice is not None:
                return bad("ExtraChoice", i, "game node carries a choice")
            for ref in (cls.left, cls.right):
                if not (0 <= ref.cls < n) or ref.shift < 0:
                    return bad("InvalidRef", i, "child reference out of range", ref=ref.to_json())
    if not (0 <= sys.root.cls < n) or sys.root.shift < 0:
        return bad("InvalidRef", "root", "root reference out of range", ref=sys.root.to_json())
    return Verdict(True, {"classes": n, "roster": list(sys.roster)})


def unfold(sys: CoSystem, at: Ref | None = None) -> NodeClass:
    """One-step observation of the tree at ``at`` (default: root).

    Leaf payoffs are folded exactly: a leaf ``(s, b)`` observed at shift
    ``k`` becomes ``(s, b + s*k)`` relative to the observation index.
    Node children carry the accumulated shift, so re-rooting the head
    denotes the same subtree.
    """
    if at is None:
        at = sys.root
    cls = sys.classes[at.cls]
    if isinstance(cls, Leaf):
        return Leaf({a: f.shifted(at.shift) for a, f in cls.payoffs.items()})
    return Node(
        cls.owner,
        cls.choice,
        Ref(cls.left.cls, cls.left.shift + at.shift),
        Ref(cls.right.cls, cls.right.shift + at.shift),
    )


def reachable(sys: CoSystem, start: int | None = None) -> list[int]:
    """Class ids reachable through both children, in BFS order."""
    first = sys.root.cls if start is None else start
    seen = {first}
    order = [first]
    queue = deque([first])
    while queue:
        cls = sys.classes[queue.popleft()]
        if isinstance(cls, Node):
            for ref in (cls.left, cls.right):
                if ref.cls not in seen:
                    seen.add(ref.cls)
                    order.append(ref.cls)
                    queue.append(ref.cls)
    return order


def sccs(nodes: Iterable[Hashable], succ: Callable[[Hashable], Iterable[Hashable]]) -> list[list[Hashable]]:
    """Strongly connected components reachable from ``nodes``, in reverse
    topological order.  Iterative Tarjan: an explicit stack of successor
    iterators replaces recursion, so graph depth is unbounded."""
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    stack: list[Hashable] = []
    on_stack: set[Hashable] = set()
    out: list[list[Hashable]] = []
    work: list[tuple[Hashable, Iterator[Hashable]]] = []

    def push(v: Hashable) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(succ(v))))

    for root in nodes:
        if root not in index:
            push(root)
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    push(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        comp.append(stack.pop())
                        on_stack.discard(comp[-1])
                    out.append(comp)
    return out


def is_parametric(sys: CoSystem) -> bool:
    """True iff some reachable reference has shift > 0 or some reachable
    leaf payoff has nonzero slope.  Non-parametric systems denote plain
    rational trees and admit exact bisimilarity checking."""
    if sys.root.shift > 0:
        return True
    for i in reachable(sys):
        cls = sys.classes[i]
        if isinstance(cls, Leaf):
            if any(f.slope != 0 for f in cls.payoffs.values()):
                return True
        else:
            if cls.left.shift > 0 or cls.right.shift > 0:
                return True
    return False


def with_root(sys: CoSystem, ref: Ref) -> CoSystem:
    """The same system observed from ``ref`` instead of its root."""
    return replace(sys, root=ref)


def _check_comparable(a: CoSystem, b: CoSystem) -> None:
    if a.kind != b.kind:
        raise KindMismatchError(f"cannot compare {a.kind} with {b.kind}")
    if a.roster != b.roster:
        raise RosterMismatchError(f"rosters differ: {a.roster} vs {b.roster}")


def bisimilar(a: CoSystem, b: CoSystem) -> Verdict:
    """Decide bisimilarity of two non-parametric systems.

    Runs the greatest-fixpoint computation on the product of the class
    graphs: explore head observations pairwise; if no pair ever
    disagrees, the visited pair set is itself a bisimulation and is
    returned as the certificate.  On disagreement the witness is the
    finite path of choices leading to the first mismatching observation.
    """
    _check_comparable(a, b)
    if is_parametric(a) or is_parametric(b):
        raise ParametricUnsupportedError("use bisimilar_bounded for parametric systems")

    start = (a.root.cls, b.root.cls)
    parent: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}
    seen = {start}
    queue = deque([start])

    def path_to(pair: tuple[int, int]) -> list[str]:
        steps: list[str] = []
        while pair in parent:
            pair, label = parent[pair]
            steps.append(label)
        return steps[::-1]

    def mismatch(pair: tuple[int, int], reason: str) -> Verdict:
        return Verdict(False, {"path": path_to(pair), "reason": reason}, f"distinguished: {reason}")

    while queue:
        pair = queue.popleft()
        ca, cb = a.classes[pair[0]], b.classes[pair[1]]
        if isinstance(ca, Leaf) != isinstance(cb, Leaf):
            return mismatch(pair, "head kind differs")
        if isinstance(ca, Leaf):
            if ca.payoffs != cb.payoffs:
                return mismatch(pair, "leaf payoffs differ")
            continue
        assert isinstance(cb, Node)
        if ca.owner != cb.owner:
            return mismatch(pair, "owner differs")
        if ca.choice is not cb.choice:
            return mismatch(pair, "choice differs")
        for label, ra, rb in (("l", ca.left, cb.left), ("r", ca.right, cb.right)):
            nxt = (ra.cls, rb.cls)
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = (pair, label)
                queue.append(nxt)
    relation = sorted(seen)
    return Verdict(True, {"relation": [list(p) for p in relation]}, "bisimulation relation closed")


def bisimilar_bounded(a: CoSystem, b: CoSystem, depth: int) -> Verdict:
    """Compare observations on every path of length <= depth.

    Works for parametric systems: leaf payoffs are compared as evaluated
    integers at the accumulated index (root instantiated at n = 0).
    Sound approximation of bisimilarity: exact bisimilarity implies this
    at every depth.
    """
    _check_comparable(a, b)
    # memo value: None when the subcomparison agrees, else the failing
    # suffix (choices, reason)
    memo: dict[tuple[int, int, int, int, int], tuple[list[str], str] | None] = {}

    def walk(ra: Ref, rb: Ref, d: int) -> tuple[list[str], str] | None:
        key = (ra.cls, ra.shift, rb.cls, rb.shift, d)
        if key in memo:
            return memo[key]
        ha, hb = unfold(a, ra), unfold(b, rb)
        result: tuple[list[str], str] | None = None
        if isinstance(ha, Leaf) != isinstance(hb, Leaf):
            result = ([], "head kind differs")
        elif isinstance(ha, Leaf):
            assert isinstance(hb, Leaf)
            va = {ag: f.at(0) for ag, f in ha.payoffs.items()}
            vb = {ag: f.at(0) for ag, f in hb.payoffs.items()}
            if va != vb:
                result = ([], "leaf payoffs differ")
        else:
            assert isinstance(hb, Node)
            if ha.owner != hb.owner:
                result = ([], "owner differs")
            elif ha.choice is not hb.choice:
                result = ([], "choice differs")
            elif d > 0:
                for label, na, nb in (("l", ha.left, hb.left), ("r", ha.right, hb.right)):
                    sub = walk(na, nb, d - 1)
                    if sub is not None:
                        result = ([label] + sub[0], sub[1])
                        break
        memo[key] = result
        return result

    failure = walk(a.root, b.root, depth)
    if failure is None:
        return Verdict(True, {"depth": depth}, f"observations agree to depth {depth}")
    path, reason = failure
    return Verdict(False, {"path": path, "reason": reason, "depth": depth}, f"distinguished: {reason}")


def strategy_to_game(s: CoSystem) -> CoSystem:
    """Erase all choices: the underlying game of a strategy."""
    if s.kind != STRATEGY:
        raise KindMismatchError("strategy_to_game expects a strategy")
    classes: list[NodeClass] = []
    for cls in s.classes:
        if isinstance(cls, Node):
            classes.append(Node(cls.owner, None, cls.left, cls.right))
        else:
            classes.append(cls)
    return CoSystem(GAME, s.roster, tuple(classes), s.root)


def annotate(game: CoSystem, choices: Mapping[int, Choice]) -> CoSystem:
    """Inverse of :func:`strategy_to_game`: attach a choice to every node
    class of a game.  ``choices`` must cover every node class id."""
    if game.kind != GAME:
        raise KindMismatchError("annotate expects a game")
    classes: list[NodeClass] = []
    for i, cls in enumerate(game.classes):
        if isinstance(cls, Node):
            classes.append(Node(cls.owner, choices[i], cls.left, cls.right))
        else:
            classes.append(cls)
    return CoSystem(STRATEGY, game.roster, tuple(classes), game.root)
