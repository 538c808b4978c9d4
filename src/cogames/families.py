"""Built-in game families: dollar auction, centipede, and a small finite
worked example; plus truncation of the infinite families to explicit
finite trees, and backward induction on finite trees.

A truncation is itself a :class:`CoSystem`: one class per tree node, in
preorder, with constant payoffs and every ref at shift 0.  So
``dsl.render`` prints it, and the engines that decide the infinite games
(``nash_eq``, ``sgpe``, ``s2u``) decide the finite ones too; there is no
second representation of a finite tree on the command line's path.

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

from .histories import is_finite
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
    condensation,
    strategy_to_game,
    unfold,
)

AGU = "agu"
NGU = "ngu"
_KINDS = (AGU, NGU)

# the two tiebreaks of ``backward_induction``: the child that a node's
# owner picks when both pay it the same
PREFER_LEFT = "prefer_left"
PREFER_RIGHT = "prefer_right"


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


def truncate(sys: CoSystem, depth: int) -> CoSystem:
    """Unroll to an explicit finite tree with nodes on levels 0..depth,
    as a system of the input's kind and roster: one class per tree node,
    numbered in preorder (left before right), with every ref at shift 0.

    At the horizon level, each non-leaf child of a node is replaced by
    that node's own leaf child (same payoffs), which is the minimal
    closure keeping the family's own numbers.  Nodes at the horizon with
    no leaf child cannot be closed this way.  Payoffs come out as
    constants; choices are preserved for strategy systems.  A tree of
    more than ``MAX_TREE_NODES`` nodes, leaves included, raises
    :class:`TreeTooLargeError` as soon as the count passes the bound.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")

    def as_leaf(ref: Ref) -> Leaf | None:
        head = unfold(sys, ref)
        if isinstance(head, Leaf):
            return Leaf({a: Affine.const(f.at(0)) for a, f in head.payoffs.items()})
        return None

    # the classes in preorder; a node holds its children's class ids, in
    # ``kids``, until the tree is whole
    classes: list[Leaf | Node] = []
    kids: dict[int, list[int]] = {}
    # an explicit stack, left child on top: a ref to unroll, its level, and
    # the class id of its parent with the side it hangs on (-1 at the root)
    todo: list[tuple[Ref, int, int, int]] = [(sys.root, 0, -1, 0)]
    while todo:
        ref, level, parent, side = todo.pop()
        if parent >= 0:
            kids[parent][side] = len(classes)
        head = unfold(sys, ref)
        if isinstance(head, Leaf):
            classes.append(as_leaf(ref))
        elif level == depth:
            left, right = as_leaf(head.left), as_leaf(head.right)
            if left is None and right is None:
                raise NoLeafAtHorizonError(
                    f"class {ref.cls} at the horizon has no leaf child to close with")
            kids[len(classes)] = [len(classes) + 1, len(classes) + 2]
            classes += [head, left or right, right or left]
        else:
            kids[len(classes)] = [0, 0]
            todo += [(head.right, level + 1, len(classes), 1), (head.left, level + 1, len(classes), 0)]
            classes.append(head)
        if len(classes) > MAX_TREE_NODES:
            raise TreeTooLargeError(
                f"the truncation to depth {depth} has more than {MAX_TREE_NODES} nodes")
    for c, (left_id, right_id) in kids.items():
        classes[c] = Node(classes[c].owner, classes[c].choice, Ref(left_id), Ref(right_id))
    return CoSystem(sys.kind, sys.roster, classes, Ref(0))


def backward_induction(tree: CoSystem, tiebreak: str = PREFER_LEFT) -> CoSystem:
    """The strategy that backward induction picks on a finite tree, such
    as ``truncate`` builds, a game or a strategy (whose choices it
    ignores): at each node, the child whose outcome pays the owner more,
    and on a tie the child that ``tiebreak`` prefers.  Every subtree of
    the result is solved so, and a node class the root does not reach
    picks L.  One pass over the condensation's classes, which puts each
    child before its parent.  A tree that ``histories.is_finite`` refuses
    (a cycle, or a payoff that depends on the index) raises
    ``ValueError``."""
    if tiebreak not in (PREFER_LEFT, PREFER_RIGHT):
        raise ValueError(f"unknown tiebreak {tiebreak!r}")
    game = strategy_to_game(tree) if tree.kind == STRATEGY else tree
    if not is_finite(game):
        raise ValueError("backward induction needs a finite tree with constant payoffs")
    # the outcome of each class's subtree: its leaf's payoff entry, where
    # agent i's constant payoff is item 2*i + 1
    slot = {agent: 2 * i + 1 for i, agent in enumerate(game.roster)}
    outcome: list[tuple | None] = list(game.payoff)
    choices = dict.fromkeys(range(len(outcome)), Choice.L)
    for (c,) in condensation(game).comps:
        owner = game.owner[c]
        if owner is None:
            continue
        left, right = outcome[game.left[c]], outcome[game.right[c]]
        mine_l, mine_r = left[slot[owner]], right[slot[owner]]
        if mine_l > mine_r or (mine_l == mine_r and tiebreak == PREFER_LEFT):
            choices[c], outcome[c] = Choice.L, left
        else:
            choices[c], outcome[c] = Choice.R, right
    return annotate(game, choices)
