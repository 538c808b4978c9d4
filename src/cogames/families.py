"""Built-in game families: dollar auction, centipede, and a small finite
worked example; plus truncation of the infinite families to explicit
finite trees.

Both infinite families share one shape: an Alice/Bob backbone on the
left and a give-up leaf on the right of every node, with payoffs affine
in the backbone position n.  Utilities are stored in a fixed frame:

* dollar auction: utilities are negated escalation costs, so they
  decrease along the backbone (Alice's give-up leaf at position n pays
  Alice -(2n+1) and Bob -2n; Bob's pays Alice -(2n+1) and Bob -(2n+2)).
  Adding any constant stake to both agents changes no comparison, so the
  stake is not a parameter.
* centipede: utilities grow along the backbone (Alice's stop leaf at n
  pays (2n, 2n); Bob's pays Alice 2n-1 and Bob 2n+3).

The canonical strategies are ``"agu"`` (always give up: every node picks
its leaf child, the right one) and ``"ngu"`` (never give up: every node
continues left along the backbone, which never reaches a leaf).
"""

from __future__ import annotations

from .oracle import FiniteGame, FiniteStrategy, GameNode, StrategyNode
from .oracle import Leaf as FinLeaf
from .system import (
    Affine,
    Choice,
    CoSystem,
    GAME,
    Leaf,
    Node,
    Ref,
    STRATEGY,
    annotate,
    unfold,
)

AGU = "agu"
NGU = "ngu"
_KINDS = (AGU, NGU)


# explicit trees past this many nodes are refused: a truncation can
# double its size every level or two
MAX_TREE_NODES = 1 << 16


class NoLeafAtHorizonError(ValueError):
    """Truncation horizon hit a node with no leaf child to close with."""


class TreeTooLargeError(ValueError):
    """Truncation would build more than ``MAX_TREE_NODES`` nodes."""


def _backbone(kind: str | None, alice_leaf: Leaf, bob_leaf: Leaf) -> CoSystem:
    """Two node classes (Alice at n continues to Bob at n, Bob at n
    continues to Alice at n+1) with per-owner give-up leaves on the right.

    Class layout matches the desugaring order of the one-line source
    form: 0 Alice node, 1 Bob node, 2 Bob's leaf, 3 Alice's leaf.
    """
    if kind is None:
        alice_choice = bob_choice = None
        sys_kind = GAME
    else:
        if kind not in _KINDS:
            raise ValueError(f"strategy kind must be one of {_KINDS}, got {kind!r}")
        alice_choice = bob_choice = Choice.R if kind == AGU else Choice.L
        sys_kind = STRATEGY
    classes = (
        Node("Alice", alice_choice, Ref(1, 0), Ref(3, 0)),
        Node("Bob", bob_choice, Ref(0, 1), Ref(2, 0)),
        bob_leaf,
        alice_leaf,
    )
    return CoSystem(sys_kind, ("Alice", "Bob"), classes, Ref(0, 0))


_DOLLAR_ALICE_LEAF = Leaf({"Alice": Affine(-2, -1), "Bob": Affine(-2, 0)})
_DOLLAR_BOB_LEAF = Leaf({"Alice": Affine(-2, -1), "Bob": Affine(-2, -2)})
_CENT_ALICE_LEAF = Leaf({"Alice": Affine(2, 0), "Bob": Affine(2, 0)})
_CENT_BOB_LEAF = Leaf({"Alice": Affine(2, -1), "Bob": Affine(2, 3)})


def dollar_auction_game() -> CoSystem:
    return _backbone(None, _DOLLAR_ALICE_LEAF, _DOLLAR_BOB_LEAF)


def dollar_auction_strategy(kind: str) -> CoSystem:
    return _backbone(kind, _DOLLAR_ALICE_LEAF, _DOLLAR_BOB_LEAF)


def centipede_game() -> CoSystem:
    return _backbone(None, _CENT_ALICE_LEAF, _CENT_BOB_LEAF)


def centipede_strategy(kind: str) -> CoSystem:
    return _backbone(kind, _CENT_ALICE_LEAF, _CENT_BOB_LEAF)


def finite_example_game() -> CoSystem:
    """Two-agent worked example: Alice picks between a (1, 2) leaf and a
    Bob node whose leaves pay (2, 2) and (3, 2)."""
    classes = (
        Node("Alice", None, Ref(1), Ref(2)),
        Leaf({"Alice": Affine.const(1), "Bob": Affine.const(2)}),
        Node("Bob", None, Ref(3), Ref(4)),
        Leaf({"Alice": Affine.const(2), "Bob": Affine.const(2)}),
        Leaf({"Alice": Affine.const(3), "Bob": Affine.const(2)}),
    )
    return CoSystem(GAME, ("Alice", "Bob"), classes, Ref(0))


def finite_example_strategy() -> CoSystem:
    """The worked example with Alice committing right and Bob left, which
    gives Alice utility 2."""
    return annotate(finite_example_game(), {0: Choice.R, 2: Choice.L})


def truncate(sys: CoSystem, depth: int) -> FiniteGame | FiniteStrategy:
    """Unroll to an explicit finite tree with nodes on levels 0..depth.

    At the horizon level, each non-leaf child of a node is replaced by
    that node's own leaf child (same payoffs), which is the minimal
    closure keeping the family's own numbers.  Nodes at the horizon with
    no leaf child cannot be closed this way.  Payoffs come out as fully
    evaluated integers; choices are preserved for strategy systems.  A
    tree of more than ``MAX_TREE_NODES`` nodes, leaves included, raises
    :class:`TreeTooLargeError` as soon as the count passes the bound.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")

    def as_leaf(ref: Ref) -> FinLeaf | None:
        head = unfold(sys, ref)
        if isinstance(head, Leaf):
            return FinLeaf({a: f.at(0) for a, f in head.payoffs.items()})
        return None

    def node(head: Node, left, right) -> FiniteGame | FiniteStrategy:
        if sys.kind == STRATEGY:
            assert head.choice is not None
            return StrategyNode(head.owner, head.choice, left, right)
        return GameNode(head.owner, left, right)

    # an explicit stack, left subtree first: a (ref, level) to unroll, or
    # a node whose two subtrees lie on top of ``built``, right above left
    todo: list[tuple[Ref, int] | Node] = [(sys.root, 0)]
    built: list[FiniteGame | FiniteStrategy] = []
    count = 0  # nodes built or on their way
    while todo:
        task = todo.pop()
        if isinstance(task, Node):
            right = built.pop()
            built.append(node(task, built.pop(), right))
            continue
        ref, level = task
        head = unfold(sys, ref)
        if isinstance(head, Leaf):
            built.append(FinLeaf({a: f.at(0) for a, f in head.payoffs.items()}))
            count += 1
        elif level == depth:
            own_leaf = as_leaf(head.left) or as_leaf(head.right)
            if own_leaf is None:
                raise NoLeafAtHorizonError(
                    f"class {ref.cls} at the horizon has no leaf child to close with")
            built.append(node(head, as_leaf(head.left) or own_leaf,
                              as_leaf(head.right) or own_leaf))
            count += 3
        else:
            todo += [head, (head.right, level + 1), (head.left, level + 1)]
            count += 1
        if count > MAX_TREE_NODES:
            raise TreeTooLargeError(
                f"the truncation to depth {depth} has more than {MAX_TREE_NODES} nodes")
    return built[0]
