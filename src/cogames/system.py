"""Finitely presented corecursive game and strategy trees.

An infinite binary game (or strategy profile) is represented here as a
finite system of parametric equations: a list of node *classes* indexed by
a natural parameter ``n``.  A class is either a leaf carrying one payoff
per agent, affine in ``n``, or an internal node whose two children are
references ``(class, n + k)`` into the same system.  Unrolling the system
from its root reference yields the denoted tree; a class graph with cycles
denotes an infinite tree, and offsets let payoffs grow along a backbone
(the dollar-auction and centipede shapes).

A system is stored as per-class columns of strings and ints (see
:class:`CoSystem`), which every engine reads.  The class objects
(:class:`Node`, :class:`Leaf`, :class:`Ref`, :class:`Affine`) are how a
system is built by hand.  :func:`unfold` is the one code that builds
them from the columns, and ``CoSystem.classes`` calls it once per class,
on first read.  The printer (``dsl.render``), the tests and the benchmark
read that view; ``oracle.embed`` and ``families`` build through the
constructor and ``unfold``.

Two questions compare two systems: bisimilarity, and convertibility, the
relation that the Nash quantifier in ``equilibria`` ranges over.  One
product walk (:class:`ProductWalk`) decides both exactly, with no bound
on the offset drift between the two sides, and its int-coded states are
read only here.

All values are immutable after construction and every operation is a pure
function, so systems can be shared freely between concurrent analyses.
The one exception is a system's private memo of derived tables, which
only :func:`memoized` reads and writes; its docstring states the rule.
Payoff arithmetic is exact (Python integers); nothing here overflows.
No int here is converted to or from text, so CPython's limit on such
conversions applies only where text is read or written: ``dsl``'s
docstring states the policy there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import wraps
from itertools import chain, product
from sys import maxsize
from typing import Any, Callable, Hashable, Iterable, Mapping, NamedTuple, Union

from .verdict import Verdict

GAME = "game"
STRATEGY = "strategy"
KINDS = (GAME, STRATEGY)


class KindMismatchError(ValueError):
    """Operation applied to a system of the wrong kind, or to mixed kinds."""


class RosterMismatchError(ValueError):
    """Two systems compared over different agent rosters."""


class InvalidSystemError(ValueError):
    """Classes that break an invariant of :class:`CoSystem`.
    ``certificate`` names the violation, ``{"error": code, "class": i}``
    with the reference under ``"ref"`` for ``InvalidRef`` (``EmptyRoster``
    and ``BadKind`` name no class), and the message says why."""

    def __init__(self, certificate: dict[str, Any], note: str) -> None:
        super().__init__(note)
        self.certificate = certificate


class Choice(Enum):
    """Binary branch label.  L sorts before R in every canonical order."""

    L = "l"
    R = "r"

    @property
    def other(self) -> "Choice":
        return Choice.R if self is Choice.L else Choice.L

    def __str__(self) -> str:
        return self.value


# each choice by its letter, as the readers meet it: a dict lookup, where
# ``Choice(letter)`` is an Enum call per letter
CHOICES = {c.value: c for c in Choice}


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


@dataclass(frozen=True, init=False)
class CoSystem:
    """A finite equation system denoting a (possibly infinite) tree.

    ``kind`` is ``"game"`` (no choices) or ``"strategy"`` (a choice at
    every node).  The roster is normalized to a sorted tuple, since it is
    a set.  The root is conventionally ``Ref(cls, 0)``.

    The classes are stored as columns, tuples indexed by class id:
    ``owner`` (None at a leaf, which is how a leaf is told from a node),
    ``choice`` (the committed :class:`Choice` at a strategy's node, None
    at a game's node and at a leaf), the children ``left`` and ``right``
    with their shifts ``left_shift`` and ``right_shift`` (0 at a leaf),
    and ``payoff``: at a leaf, the slope and the intercept of each roster
    agent's payoff in roster order, ``(s0, b0, s1, b1, ...)``, and None
    at a node.  Equality and ``repr`` are over the kind, the roster, the
    root and the columns.

    ``CoSystem(kind, roster, classes, root)`` is the one constructor
    from class objects and the one validity gate: it checks the classes
    (:func:`_check_classes` lists the seven invariants) before it builds
    the columns, and raises :class:`InvalidSystemError` at the first
    violation.  So every system is valid, and no engine checks one
    again.  :meth:`_from_columns` is the unchecked path, for the four
    producers whose columns are valid by how they are made: ``dsl``'s
    flat reader, which fills them straight from the text,
    :func:`with_root`, :func:`strategy_to_game` and :func:`annotate`.
    ``classes`` is a view: the class objects, built by :func:`unfold`
    on first read and kept in the memo.

    ``_memo`` holds the tables that :func:`memoized` builders derive
    from the fields, so every check on one system reads one copy; it
    takes no part in equality or ``repr``.
    """

    kind: str
    roster: tuple[str, ...]
    root: Ref
    owner: tuple[str | None, ...]
    choice: tuple[Choice | None, ...]
    left: tuple[int, ...]
    left_shift: tuple[int, ...]
    right: tuple[int, ...]
    right_shift: tuple[int, ...]
    payoff: tuple[tuple | None, ...]
    _memo: dict = field(compare=False, repr=False)

    def __init__(self, kind: str, roster: Iterable[str], classes: Iterable[NodeClass],
                 root: Ref = Ref(0, 0)) -> None:
        roster, classes = tuple(sorted(set(roster))), tuple(classes)
        _check_classes(kind, roster, classes, root)
        rows = [(None, None, 0, 0, 0, 0, _payoff_entry(cls.payoffs, roster)) if isinstance(cls, Leaf)
                else (cls.owner, cls.choice, cls.left.cls, cls.left.shift, cls.right.cls,
                      cls.right.shift, None)
                for cls in classes]
        self._fill(kind, roster, root, *(zip(*rows) if rows else [()] * 7))

    @classmethod
    def _from_columns(cls, kind: str, roster: tuple[str, ...], root: Ref,
                      *columns: tuple) -> CoSystem:
        """A system with the given columns, in the field order, and a
        roster that is already sorted and free of repeats, unchecked.
        The caller states why its columns are valid; a tier-1 test,
        ``tests/test_gates.py``, refuses a caller other than the four that
        :class:`CoSystem` names."""
        sys = object.__new__(cls)
        sys._fill(kind, roster, root, *columns)
        return sys

    def _fill(self, kind, roster, root, owner, choice, left, left_shift, right, right_shift,
              payoff) -> None:
        self.__dict__.update(kind=kind, roster=roster, root=root, owner=owner, choice=choice,
                             left=left, left_shift=left_shift, right=right,
                             right_shift=right_shift, payoff=payoff, _memo={})

    def _columns(self) -> tuple[tuple, ...]:
        return (self.owner, self.choice, self.left, self.left_shift, self.right,
                self.right_shift, self.payoff)

    @property
    def classes(self) -> tuple[NodeClass, ...]:
        """The class objects, built by :func:`unfold` on first read."""
        return _class_view(self)


def _check_classes(kind: str, roster: tuple[str, ...], classes: tuple[NodeClass, ...],
                   root: Ref) -> None:
    """Raise :class:`InvalidSystemError` at the first broken invariant,
    checked in this order: ``EmptyRoster``, ``BadKind`` (the kind is
    ``"game"`` or ``"strategy"``), then class by class ``NotAClass`` (a
    class is a :class:`Leaf` or a :class:`Node`), ``PayoffDomain`` (a
    leaf pays exactly the roster, each agent an :class:`Affine` of two
    ints), ``UnknownOwner``, ``MissingChoice`` (a strategy's node holds a
    :class:`Choice`), ``ExtraChoice`` (a game's node holds None) and
    ``InvalidRef`` (each child is a :class:`Ref` of two ints that names a
    class at a shift >= 0), and last ``InvalidRef`` at the root.  An
    ``InvalidRef`` names a mistyped reference by its ``repr``."""
    if not roster:
        raise InvalidSystemError({"error": "EmptyRoster"}, "roster must be nonempty")
    if kind not in KINDS:
        raise InvalidSystemError({"error": "BadKind", "kind": kind},
                                 "kind must be game or strategy")

    def bad(code: str, where: int | str, why: str, **extra: Any) -> InvalidSystemError:
        return InvalidSystemError({"error": code, "class": where, **extra}, why)

    def check(where: int | str, ref: Any, what: str) -> None:
        if not (isinstance(ref, Ref) and _ints(ref.cls, ref.shift)):
            raise bad("InvalidRef", where, f"{what} is not a Ref of two ints", ref=repr(ref))
        if not (0 <= ref.cls < n) or ref.shift < 0:
            raise bad("InvalidRef", where, f"{what} reference out of range", ref=ref.to_json())

    n, agents = len(classes), set(roster)
    for i, cls in enumerate(classes):
        if isinstance(cls, Leaf):
            if not isinstance(cls.payoffs, Mapping) or cls.payoffs.keys() != agents:
                raise bad("PayoffDomain", i, "leaf payoffs must cover exactly the roster")
            if not all(isinstance(pay, Affine) and _ints(pay.slope, pay.intercept)
                       for pay in cls.payoffs.values()):
                raise bad("PayoffDomain", i, "each leaf payoff must be an Affine of two ints")
            continue
        if not isinstance(cls, Node):
            raise bad("NotAClass", i, "a class must be a Leaf or a Node")
        if cls.owner not in roster:
            raise bad("UnknownOwner", i, f"owner {cls.owner!r} not in roster")
        if kind == STRATEGY and not isinstance(cls.choice, Choice):
            raise bad("MissingChoice", i, "strategy node lacks a choice")
        if kind == GAME and cls.choice is not None:
            raise bad("ExtraChoice", i, "game node carries a choice")
        check(i, cls.left, "child")
        check(i, cls.right, "child")
    check("root", root, "root")


def _ints(a: Any, b: Any) -> bool:
    return isinstance(a, int) and isinstance(b, int)


def _payoff_entry(payoffs: Mapping[str, Affine], roster: tuple[str, ...]) -> tuple[int, ...]:
    """A leaf's ``payoff`` column entry: the slope and the intercept of
    each roster agent's payoff, in roster order."""
    return tuple(chain.from_iterable((payoffs[a].slope, payoffs[a].intercept) for a in roster))


def memoized(build: Callable[..., Any]) -> Callable[..., Any]:
    """``build(sys, *args)``, kept in the system's memo under the builder
    and its extra arguments.

    The one memo rule: a table is a pure function of the system and the
    arguments, built on first use per system and key, and shared by
    every later reader, which must not mutate it.  Two readers racing on
    a cold key build it twice at worst, and either copy serves.  A
    builder that raises stores nothing, so a kind or argument check
    inside it raises on every call.  ``with_root`` starts the new system
    with an empty memo."""
    @wraps(build)
    def table(sys: CoSystem, *args: Hashable) -> Any:
        key = (build, *args) if args else build
        if key not in sys._memo:
            sys._memo[key] = build(sys, *args)
        return sys._memo[key]
    return table


@memoized
def _class_view(sys: CoSystem) -> tuple[NodeClass, ...]:
    """The system's classes as :class:`Node` and :class:`Leaf` objects."""
    return tuple(unfold(sys, Ref(c)) for c in range(len(sys.owner)))


def validate(sys: CoSystem) -> Verdict:
    """The holding verdict ``{"classes": n, "roster": [...]}``, on any
    system: :class:`CoSystem`'s constructor refuses an invalid one with
    :class:`InvalidSystemError`, whose certificate names the violation.
    It stays public for callers that want a :class:`Verdict`."""
    return Verdict(True, {"classes": len(sys.owner), "roster": list(sys.roster)})


def check_ref(sys: CoSystem, ref: Ref) -> None:
    """Raise ``ValueError`` unless ``ref`` names a class of ``sys`` at a
    shift >= 0, the condition that the constructor refuses as
    ``InvalidRef``."""
    if not (0 <= ref.cls < len(sys.owner)) or ref.shift < 0:
        raise ValueError(f"reference {ref} lies outside the system's {len(sys.owner)} classes")


def unfold(sys: CoSystem, at: Ref | None = None) -> NodeClass:
    """One-step observation of the tree at ``at`` (default: root): the
    one code that turns the columns into class objects.  The ``classes``
    view is ``unfold`` at every class id, at shift 0.

    Leaf payoffs are folded exactly: a leaf ``(s, b)`` observed at shift
    ``k`` becomes ``(s, b + s*k)`` relative to the observation index.
    Node children carry the accumulated shift, so re-rooting the head
    denotes the same subtree.  A leaf's payoff entry (see
    :class:`CoSystem`) holds a slope and an intercept per roster agent,
    in roster order, and yields one :class:`Affine` per agent.  A
    reference outside the system raises ``ValueError``.
    """
    if at is None:
        at = sys.root
    check_ref(sys, at)
    c, k = at.cls, at.shift
    owner = sys.owner[c]
    if owner is not None:
        return Node(owner, sys.choice[c], Ref(sys.left[c], sys.left_shift[c] + k),
                    Ref(sys.right[c], sys.right_shift[c] + k))
    entry = sys.payoff[c]
    return Leaf({agent: Affine(s, s * k + b)
                 for agent, s, b in zip(sys.roster, entry[::2], entry[1::2])})


@memoized
def reachable(sys: CoSystem) -> tuple[int, ...]:
    """Class ids reachable from the root through both children, in BFS
    order, read off the child columns.  A tuple, since every caller
    shares the memoized one."""
    owner, left, right = sys.owner, sys.left, sys.right
    seen = [False] * len(owner)
    order = [sys.root.cls]
    seen[sys.root.cls] = True
    for c in order:
        if owner[c] is not None:
            for t in (left[c], right[c]):
                if not seen[t]:
                    seen[t] = True
                    order.append(t)
    return tuple(order)


_DONE = maxsize  # the low link of a node whose component is emitted


def sccs(nodes: Iterable[Hashable], succ: Callable[[Hashable], Iterable[Hashable]]) -> list[list[Hashable]]:
    """Strongly connected components reachable from ``nodes``, in reverse
    topological order, each listing its members in the reverse of the
    order the search reached them.  Iterative Tarjan: an explicit stack of
    successor iterators replaces recursion, so graph depth is unbounded.

    The nodes may be any hashables.  ``succ(v)`` returns an iterable of
    ``v``'s successors and is called once per node, so a bound
    ``__getitem__`` of a list of tuples serves and no per-node generator
    is made.  A node's low link takes the low links of the visited
    successors still on the stack, a variant of Tarjan's that finds the
    same components; once a component is emitted its members' low links
    are set above every visit number, so no on-stack set is needed."""
    low: dict[Hashable, int] = {}
    stack: list[Hashable] = []
    out: list[list[Hashable]] = []
    for root in nodes:
        if root in low:
            continue
        # a frame: a node, its visit number and its successors still unread
        low[root] = num = len(low)
        work = [(root, num, iter(succ(root)))]
        stack.append(root)
        while work:
            v, num, edges = work[-1]
            for w in edges:
                lw = low.get(w)
                if lw is None:
                    low[w] = lw = len(low)
                    work.append((w, lw, iter(succ(w))))
                    stack.append(w)
                    break
                if lw < low[v]:
                    low[v] = lw
            else:
                work.pop()
                lv = low[v]
                if lv == num:
                    w = stack.pop()
                    low[w] = _DONE
                    comp = [w]
                    while w != v:
                        w = stack.pop()
                        low[w] = _DONE
                        comp.append(w)
                    out.append(comp)
                else:
                    parent = work[-1][0]
                    if lv < low[parent]:
                        low[parent] = lv
    return out


class Condensation(NamedTuple):
    """The strongly connected components of the class graph reachable
    from the root, through both children.

    ``comps`` lists them in reverse topological order, as :func:`sccs`
    returns them; ``where`` gives each reached class's position in
    ``comps`` (-1 for a class the root does not reach); ``cyclic`` says
    per component whether it holds a cycle: more than one member, or a
    member that is its own child."""

    comps: list[list[int]]
    where: list[int]
    cyclic: list[bool]


@memoized
def condensation(sys: CoSystem) -> Condensation:
    """The system's :class:`Condensation`: one Tarjan search from the
    root over the class graph, whose successor list is zipped from the
    child columns (a node's left and right child, nothing at a leaf)."""
    kids = [() if owner is None else pair
            for owner, pair in zip(sys.owner, zip(sys.left, sys.right))]
    comps = sccs([sys.root.cls], kids.__getitem__)
    where = [-1] * len(kids)
    for i, comp in enumerate(comps):
        for v in comp:
            where[v] = i
    cyclic = [len(comp) > 1 or comp[0] in kids[comp[0]] for comp in comps]
    return Condensation(comps, where, cyclic)


@memoized
def _sensitive(sys: CoSystem) -> list[bool]:
    """Per class id, whether the class is *sensitive*: a leaf with a
    nonzero payoff slope is reachable from it (the class itself
    included).  One reverse pass from the leaves with a nonzero slope
    over every class, reachable from the root or not; without such a
    leaf no class is sensitive, and no predecessor list is built."""
    sensitive = [payoff is not None and any(payoff[::2]) for payoff in sys.payoff]
    if not any(sensitive):
        return sensitive
    preds: list[list[int]] = [[] for _ in sys.owner]
    for c, (owner, left, right) in enumerate(zip(sys.owner, sys.left, sys.right)):
        if owner is not None:
            preds[left].append(c)
            preds[right].append(c)
    queue = [c for c in range(len(sensitive)) if sensitive[c]]
    for c in queue:
        for p in preds[c]:
            if not sensitive[p]:
                sensitive[p] = True
                queue.append(p)
    return sensitive


def is_parametric(sys: CoSystem) -> bool:
    """True iff a leaf with a nonzero payoff slope is reachable from the
    root: the root's entry in the system's sensitivity table.  Shifts
    alone do not count: below constant leaves they change no
    observation, so a system without such a leaf denotes one plain
    rational tree at every root index."""
    return _sensitive(sys)[sys.root.cls]


def with_root(sys: CoSystem, ref: Ref) -> CoSystem:
    """The same system observed from ``ref`` instead of its root: the
    same columns, and an empty memo.  A reference outside the system
    raises ``ValueError``, so :func:`check_ref` keeps the new root valid
    and the columns need no check."""
    check_ref(sys, ref)
    return CoSystem._from_columns(sys.kind, sys.roster, ref, *sys._columns())


def _check_comparable(a: CoSystem, b: CoSystem) -> None:
    if a.kind != b.kind:
        raise KindMismatchError(f"cannot compare {a.kind} with {b.kind}")
    if a.roster != b.roster:
        raise RosterMismatchError(f"rosters differ: {a.roster} vs {b.roster}")


def _flatten(sys: CoSystem, heads: dict[Hashable, int], scale: int, unit: int) -> tuple[list, ...]:
    """Per-class lists: head id, the left and the right child as
    ``class*scale + shift*unit``, and a mask of the children that
    :func:`_sensitive` marks (1 left, 2 right); the last three are not
    read at a leaf.

    A head id is an int interned in ``heads`` from the one-step
    observation: negative for leaf payoffs, nonnegative for owner and
    choice.  Sharing ``heads`` between two systems makes equal ids mean
    equal observations."""
    sensitive = _sensitive(sys)
    head = [heads.setdefault(payoff, ~len(heads)) if owner is None
            else heads.setdefault((owner, choice), len(heads))
            for owner, choice, payoff in zip(sys.owner, sys.choice, sys.payoff)]
    return (head,
            [c * scale + k * unit for c, k in zip(sys.left, sys.left_shift)],
            [c * scale + k * unit for c, k in zip(sys.right, sys.right_shift)],
            [sensitive[lc] | sensitive[rc] << 1 for lc, rc in zip(sys.left, sys.right)])


@dataclass(frozen=True)
class Blocks:
    """A holding bisimulation in block form, as :class:`ProductWalk`'s
    union-find leaves it: ``block[i]`` is the block of class ``i`` of
    ``a``, and ``partners`` maps a block to the classes of ``b`` in it,
    in increasing order.  A block that holds no class of ``b`` need not
    be a key.  The relation is every pair ``(i, j)`` with ``j`` in
    ``partners[block[i]]``; :meth:`rows` lists them.  Its size is
    linear in the two class counts, where the rows can be quadratic."""

    block: list[int]
    partners: dict[int, list[int]]

    def rows(self) -> list[tuple[int, int]]:
        """Every pair of the relation, sorted: one class of ``a`` at a
        time, by ``itertools.product``, so a row costs C time, and the
        cyclic collector stops tracking each tuple at its first pass;
        two-int lists would stay tracked and be scanned again by every
        older-generation pass."""
        partners = self.partners
        return list(chain.from_iterable(product((i,), partners.get(k, ()))
                                        for i, k in enumerate(self.block)))


class ProductWalk:
    """The product of two class graphs: one set of flat tables for both
    questions that compare two systems, :func:`bisimilar` and
    :func:`convertible`.  The regime is picked once, at the
    roots, from the two systems' :func:`_sensitive` tables.  If neither
    root is sensitive, no leaf with a nonzero slope is reachable, and a
    union-find decides whether the two systems denote the same tree; the
    breadth-first walk runs only when they differ, to find the witness.
    If a root is sensitive, the walk decides at every root index at
    once, and either finds the witness or visits a closed set of states.

    Each system is compiled once by :func:`_flatten` into flat per-class
    lists: a head id (interned across both systems), the left and the
    right child as one int each (its class and shift, scaled into the
    state coding), and a mask of the children that are *sensitive*: a
    leaf with a nonzero slope is reachable from them.  A pair is
    sensitive if one of its classes is.  A product state is
    one int, ``delta*P + i*|T| + j`` for class ``i`` of ``a``, class ``j``
    of ``b`` and the offset drift ``delta = shift_b - shift_a``, where ``P
    = |S|*|T|`` (Python's floor ``%`` and ``divmod`` decode a negative
    drift).  The drift is kept while ``i`` or ``j`` is sensitive and is 0
    elsewhere: below an insensitive pair every leaf is constant, so the
    drift cannot change an observation there, and the children of an
    insensitive pair are insensitive too.

    Below two insensitive roots :meth:`_union_find` runs first.  If it
    shows that the systems denote the same tree, ``blocks`` holds its
    partition, as :class:`Blocks`, and the walk never runs: every pair
    the walk would visit has equal heads, so it would find neither a
    mismatch nor a choice difference.  Otherwise, or with a sensitive root, ``blocks`` is None
    and the walk runs as below, on the same tables.

    The walk: ``parent`` maps each state seen to ``2*parent + label_bit``
    (None at the root), so it is both the seen set and the path witness;
    ``order`` is the breadth-first queue, a list iterated as it grows.
    Equal head ids step straight on to the child pairs.  Different ones,
    and two leaves under nonzero drift, take the slow path: a drift
    survives only at a sensitive pair, where two leaves with equal heads
    both have a nonzero slope, and :meth:`_differ` decides either way.
    It names the mismatch, or, where only the choice differs at a node
    ``agent`` owns, records the state in ``diffs`` and steps on (with
    ``agent=None`` any choice difference is a mismatch).  ``failure`` is
    ``(path, (i, j, delta), reason)`` for the first mismatch in
    breadth-first order (left before right), else None.

    The walk is exact and terminates.  Say a sensitive pair, with ``i``
    sensitive (or ``j``, symmetrically), is reached with two drifts.
    Follow, from both arrivals, the path of labels from ``i`` to a leaf
    with a nonzero slope: the classes met on it do not depend on the
    drift, and neither does the sum of the shift differences along it.  So both arrivals
    meet the same mismatch before the end, or the path ends at the same
    pair of leaves under two different drifts, and a payoff with a
    nonzero slope agrees with the other side's under at most one of
    them.  Either way a mismatching
    observation lies a bounded number of steps below one of the two
    arrivals, and the breadth-first walk, which has finitely many states
    at each depth, reaches it.  Without such a conflict every pair
    carries one drift, so there are at most ``|S|*|T|`` states.  With
    ``agent=None`` and no mismatch, the states visited relate the roots,
    agree on every observation under their drift and hold their child
    states: a bisimulation at every root index, up to the drift dropped
    from insensitive pairs.
    """

    def __init__(self, a: CoSystem, b: CoSystem, agent: str | None = None) -> None:
        self.a, self.b, self.agent = a, b, agent
        self.width = len(b.owner)
        self.size = len(a.owner) * self.width
        heads: dict[Hashable, int] = {}
        self.flat_a = _flatten(a, heads, self.width, -self.size)
        self.flat_b = _flatten(b, heads, 1, self.size)
        self.diffs: list[int] = []
        self.failure: tuple[list[str], tuple[int, int, int], str] | None = None
        i, j = a.root.cls, b.root.cls
        drifts = _sensitive(a)[i] or _sensitive(b)[j]
        start = self.encode(i, j, b.root.shift - a.root.shift if drifts else 0)
        self.parent: dict[int, int | None] = {start: None}
        self.order = [start]
        self.blocks = None if drifts else self._union_find()
        if self.blocks is None:
            self._walk()

    def encode(self, i: int, j: int, delta: int) -> int:
        return delta * self.size + i * self.width + j

    def decode(self, state: int) -> tuple[int, int, int]:
        delta, pair = divmod(state, self.size)
        return (*divmod(pair, self.width), delta)

    def path_to(self, state: int) -> list[str]:
        labels: list[str] = []
        link = self.parent[state]
        while link is not None:
            labels.append("r" if link & 1 else "l")
            link = self.parent[link >> 1]
        return labels[::-1]

    def successors(self, state: int) -> list[int]:
        """Child states of a state the walk has stepped past: the drift
        ``state - pair`` carries on into a sensitive child pair, and
        ``% size`` drops it, with the shifts, from an insensitive one."""
        head_a, la, ra, ma = self.flat_a
        _, lb, rb, mb = self.flat_b
        pair = state % self.size
        i, j = divmod(pair, self.width)
        if head_a[i] < 0:
            return []
        m, drift, size = ma[i] | mb[j], state - pair, self.size
        return [la[i] + lb[j] + drift if m & 1 else (la[i] + lb[j]) % size,
                ra[i] + rb[j] + drift if m & 2 else (ra[i] + rb[j]) % size]

    def _union_find(self) -> Blocks | None:
        """The partition into blocks if the two systems denote one tree,
        else None.  Called only below two insensitive roots.

        A Hopcroft-Karp union-find over the disjoint union of the two
        class lists, in which class ``j`` of ``b`` is element ``|S| + j``
        (Hopcroft & Karp, "A linear algorithm for testing
        equivalence of finite automata", 1971; Bonchi & Pous, "Checking
        NFA equivalence with bisimulations up to congruence", 2013).
        Starting from the pair of roots, a pair whose classes already
        share a block is skipped; otherwise their head ids must agree, the
        two blocks are merged and the two child pairs are pushed.  Every
        class reachable from an insensitive root is insensitive, so every
        pair pushed is, and below an insensitive pair the drift cannot
        change an observation: as in the walk, ``% size`` drops the
        shifts from a child pair.  Every pair pushed is reached from both
        roots by one path, so a head mismatch distinguishes the systems.
        Without one, the merged pairs form a bisimulation up to
        equivalence, so the blocks relate only bisimilar classes."""
        head_a, la, ra, _ = self.flat_a
        head_b, lb, rb, _ = self.flat_b
        width, size, offset = self.width, self.size, len(head_a)
        parent = list(range(offset + width))
        members = [1] * len(parent)

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        todo = [self.order[0] % size]
        while todo:
            i, j = divmod(todo.pop(), width)
            ri, rj = find(i), find(offset + j)
            if ri == rj:
                continue
            if head_a[i] != head_b[j]:
                return None
            if members[ri] < members[rj]:
                ri, rj = rj, ri
            parent[rj] = ri
            members[ri] += members[rj]
            if head_a[i] >= 0:
                todo += [(la[i] + lb[j]) % size, (ra[i] + rb[j]) % size]
        partners: dict[int, list[int]] = {}
        for j in range(width):
            partners.setdefault(find(offset + j), []).append(j)
        return Blocks([find(i) for i in range(offset)], partners)

    def _walk(self) -> None:
        head_a, la, ra, ma = self.flat_a
        head_b, lb, rb, mb = self.flat_b
        width, size = self.width, self.size
        parent, order = self.parent, self.order
        for state in order:
            pair = state % size
            i, j = divmod(pair, width)
            h = head_a[i]
            if h != head_b[j] or (h < 0 and state != pair):
                delta = (state - pair) // size
                reason = self._differ(state, i, j, delta)
                if reason is not None:
                    self.failure = (self.path_to(state), (i, j, delta), reason)
                    return
            if h < 0:
                continue
            m = ma[i] | mb[j]
            left = la[i] + lb[j]
            left = left + state - pair if m & 1 else left % size
            right = ra[i] + rb[j]
            right = right + state - pair if m & 2 else right % size
            if left not in parent:
                parent[left] = 2 * state
                order.append(left)
            if right not in parent:
                parent[right] = 2 * state + 1
                order.append(right)

    def _differ(self, state: int, i: int, j: int, delta: int) -> str | None:
        """The slow path: why classes ``i`` and ``j`` differ under
        ``delta``, or None if they agree (recording an agent-owned choice
        difference in ``diffs``)."""
        a, b = self.a, self.b
        if (a.owner[i] is None) != (b.owner[j] is None):
            return "head kind differs"
        if a.owner[i] is None:
            pa, pb = a.payoff[i], b.payoff[j]
            for k, ag in enumerate(a.roster):
                slope = pa[2 * k]
                if slope != pb[2 * k] or pa[2 * k + 1] != pb[2 * k + 1] + slope * delta:
                    return "leaf payoffs differ" if self.agent is None else f"leaf payoffs differ for {ag}"
            return None
        owner = a.owner[i]
        if owner != b.owner[j]:
            return "owner differs"
        if self.agent is None:
            return "choice differs"
        if owner != self.agent:
            return f"choice differs at a node owned by {owner}, not the deviator"
        self.diffs.append(state)
        return None


def bisimilar_blocks(a: CoSystem, b: CoSystem) -> Verdict:
    """:func:`bisimilar`, with a relation that the union-find decides
    left in block form: the certificate is ``{"relation": Blocks}``,
    which is not JSON until :meth:`Blocks.rows` expands it.  Every other
    verdict is :func:`bisimilar`'s own.  ``cogames --json bisim`` writes
    the rows' text from the blocks, and never builds the rows."""
    _check_comparable(a, b)
    walk = ProductWalk(a, b)
    if walk.failure is not None:
        path, _, reason = walk.failure
        return Verdict(False, {"path": path, "reason": reason}, f"distinguished: {reason}")
    if walk.blocks is None:
        return Verdict(True, {"states": sorted(map(walk.decode, walk.order))},
                       "product walk closed at every index")
    return Verdict(True, {"relation": walk.blocks}, "bisimulation relation closed")


def bisimilar(a: CoSystem, b: CoSystem) -> Verdict:
    """Decide whether two systems denote the same tree at every root
    index ``n``: equal observations on every path, leaf payoffs equal as
    affine functions of ``n``.  Shifts and payoff slopes may appear
    anywhere.

    :class:`ProductWalk` decides it.  Where a leaf with a nonzero slope
    is reachable from a root, the product walk decides; elsewhere its
    union-find runs first, in near-linear time, and the walk runs only
    when the trees differ.  Both read one set of flat tables, so each
    system is flattened once.

    If it fails, the walk gives the witness: the shortest path of
    choices (breadth-first, left before right) to the first mismatching
    observation, which differs at root index 0 or 1.

    If the union-find decides that it holds, the certificate is the
    block relation: every pair ``(i, j)`` of a class of ``a`` and a
    class of ``b`` in one block, sorted.  It is a bisimulation that
    relates the roots and contains every pair the product walk visits,
    and may contain more: two classes of ``a`` that each meet one class
    of ``b`` put all their partners in one block.  The rows are tuples
    of two ints, which ``json`` writes as ``[i, j]``, expanded by
    :meth:`Blocks.rows` from :func:`bisimilar_blocks`' blocks; ``cogames
    --json bisim`` writes the same text from the blocks themselves.

    If the walk decides that it holds, the certificate is the walk's
    visited states, sorted ``(i, j, delta)`` int tuples: class ``i`` of
    ``a`` at index ``n`` and class ``j`` of ``b`` at ``n + delta`` denote
    the same tree for every ``n``.  The root state carries the roots'
    shift difference.  A child state carries its parent's drift plus
    the difference of the two edge shifts, except that the drift is 0
    on a pair from which no leaf with a nonzero slope is reachable,
    where it changes no observation.
    """
    verdict = bisimilar_blocks(a, b)
    blocks = verdict.certificate.get("relation")
    if blocks is None:
        return verdict
    return Verdict(True, {"relation": blocks.rows()}, verdict.note)


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

    :class:`ProductWalk` decides it, as it decides :func:`bisimilar`.
    Where no leaf with a nonzero slope is reachable from either root,
    its union-find decides first whether the two denote the same tree;
    if they do, the answer is ``INDUCTIVE`` with no difference, which is
    what the walk would find, and the product is never walked.
    Otherwise the product walk runs.  It tracks the offset drift
    ``delta`` between the two sides wherever a leaf with a nonzero slope
    is reachable.  Leaves must carry equal
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
    _check_comparable(s, t)
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


def bisimilar_bounded(a: CoSystem, b: CoSystem, depth: int) -> Verdict:
    """Compare observations on every path of length <= depth.

    Works for parametric systems: leaf payoffs are compared as evaluated
    integers at the accumulated index (root instantiated at n = 0).
    Sound approximation of bisimilarity: exact bisimilarity implies this
    at every depth.

    It reads both systems' columns at each key ``(i, si, j, sj)``: class
    ``i`` of ``a`` at shift ``si`` and class ``j`` of ``b`` at shift
    ``sj``.  The heads differ when exactly one class is a leaf; two
    leaves differ when some roster agent's ``slope*shift + intercept``
    differs, read in roster order; two nodes are compared by owner,
    then by choice.  A child key adds each edge's shift to its side's.

    The search is breadth first, left before right, over keys (class
    and shift on each side), so the reported path is the first shortest
    failing one, as in :func:`bisimilar`, and any depth runs without
    recursion.  ``order`` is the queue of keys with their depth left, a
    list iterated as it grows, and ``came`` maps each key met to its
    (label, key above), or None at the root.  A key met again is
    skipped: the observations below a key do not depend on the path to
    it, and the first meeting is at the shallowest depth, so it has the
    most depth left.  The witness path is read back through ``came``,
    so memory stays linear in the keys met.
    """
    _check_comparable(a, b)
    Key = tuple[int, int, int, int]
    root: Key = (a.root.cls, a.root.shift, b.root.cls, b.root.shift)
    came: dict[Key, tuple[str, Key] | None] = {root: None}
    order = [(root, depth)]
    reason: str | None = None
    width = 2 * len(a.roster)
    for key, d in order:
        i, si, j, sj = key
        owner = a.owner[i]
        if (owner is None) != (b.owner[j] is None):
            reason = "head kind differs"
        elif owner is None:
            pa, pb = a.payoff[i], b.payoff[j]
            if any(pa[k] * si + pa[k + 1] != pb[k] * sj + pb[k + 1] for k in range(0, width, 2)):
                reason = "leaf payoffs differ"
        elif owner != b.owner[j]:
            reason = "owner differs"
        elif a.choice[i] is not b.choice[j]:
            reason = "choice differs"
        elif d > 0:
            for label, child in (
                    ("l", (a.left[i], a.left_shift[i] + si, b.left[j], b.left_shift[j] + sj)),
                    ("r", (a.right[i], a.right_shift[i] + si, b.right[j], b.right_shift[j] + sj))):
                if child not in came:
                    came[child] = (label, key)
                    order.append((child, d - 1))
        if reason is not None:
            break
    else:
        return Verdict(True, {"depth": depth}, f"observations agree to depth {depth}")
    path: list[str] = []
    link = came[key]
    while link is not None:
        path.append(link[0])
        link = came[link[1]]
    return Verdict(False, {"path": path[::-1], "reason": reason, "depth": depth}, f"distinguished: {reason}")


def strategy_to_game(s: CoSystem) -> CoSystem:
    """Erase all choices: the underlying game of a strategy.  A valid
    strategy's columns with None at every choice are a valid game's, so
    they need no check."""
    if s.kind != STRATEGY:
        raise KindMismatchError("strategy_to_game expects a strategy")
    owner, _, *rest = s._columns()
    return CoSystem._from_columns(GAME, s.roster, s.root, owner, (None,) * len(owner), *rest)


def annotate(game: CoSystem, choices: Mapping[int, Choice]) -> CoSystem:
    """Inverse of :func:`strategy_to_game`: attach a choice to every node
    class of a game.  ``choices`` must map every node class id to a
    :class:`Choice`: the first node class without one raises
    ``ValueError``, so a valid game's columns with these choices are a
    valid strategy's and need no check."""
    if game.kind != GAME:
        raise KindMismatchError("annotate expects a game")
    owner, _, *rest = game._columns()
    choice = tuple(None if o is None else choices.get(c) for c, o in enumerate(owner))
    for c, (o, pick) in enumerate(zip(owner, choice)):
        if o is not None and not isinstance(pick, Choice):
            raise ValueError(f"no choice for node class {c}: {pick!r} is not a Choice")
    return CoSystem._from_columns(STRATEGY, game.roster, game.root, owner, choice, *rest)
