"""Seeded generators and small transforms shared by the test modules."""

from __future__ import annotations

import ast
import contextlib
import heapq
import os
import random
import re
import subprocess
import sys
from pathlib import Path

from cogames import (
    Affine,
    Choice,
    CoSystem,
    Convertibility,
    GAME,
    Leaf,
    LassoHistory,
    Node,
    Ref,
    STRATEGY,
    Verdict,
    alw_leads_to_leaf,
    convertible,
    oracle,
    unfold,
    validate,
)
from cogames.dsl import ParseError
from cogames.system import sccs

AGENTS = ("Ann", "Ben", "Cyd")
CHOICES = (Choice.L, Choice.R)

# A leaf that gives no payoff to one agent of the roster: the token parser
# reports it at the leaf's closing bracket, 2:18.
INCOMPLETE_LEAF = "strategy agents A B\nc0(n) = leaf[A: 1]\nroot c0\n"

# Strategies that hold a 5 000-digit integer, past CPython's default
# int/str conversion limit of 4 300 digits: a payoff; a shift on a named
# ref; and the same shift in a node whose other child is an inline leaf,
# which only the token parser reads.  Every check holds on each.
PAST_THE_DIGIT_LIMIT = [
    f"strategy agents A\nc0(n) = leaf[A: {'1' * 5000}]\nroot c0\n",
    f"strategy agents A\nc0(n) = <A, l, c1(n+{'9' * 5000}), c1(n)>\nc1(n) = leaf[A: 0]\nroot c0\n",
    f"strategy agents A\nc0(n) = <A, l, c1(n+{'9' * 5000}), leaf[A: 0]>\nc1(n) = leaf[A: 0]\n"
    "root c0\n",
]


def python_process(args, **kwargs) -> subprocess.Popen:
    """``python *args`` started as a process that imports this checkout's
    ``src/`` first; ``kwargs`` go to ``Popen``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


def cli_process(argv, **kwargs) -> subprocess.Popen:
    """``python -m cogames *argv``, started as :func:`python_process` starts it."""
    return python_process(["-m", "cogames", *argv], **kwargs)


@contextlib.contextmanager
def default_int_digits():
    """Hold CPython's default int/str conversion limit for the block and
    restore the caller's limit after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# the token text that a parse error names, as the repr in its message
_NAMED_TOKEN = re.compile(r"(?:found|trailing input) ('[^']*')")


def check_error_names_its_token(text: str, err: ParseError) -> None:
    """A ``found 'X'`` or ``trailing input 'X'`` error sits where ``text``
    starts with ``X``, a ``found 'end of input'`` error at the end of
    ``text``; and no error names an empty token."""
    message = str(err)
    assert "found ''" not in message, message
    named = _NAMED_TOKEN.search(message)
    if named:
        token = ast.literal_eval(named[1])
        offset = sum(len(line) + 1 for line in text.split("\n")[:err.line - 1]) + err.col - 1
        if token == "end of input":
            assert offset == len(text), message
        else:
            assert text.startswith(token, offset), message


def random_affine(rng: random.Random, parametric: bool = True) -> Affine:
    slope = rng.randint(-3, 3) if parametric else 0
    return Affine(slope, rng.randint(-9, 9))


def random_system(seed: int, kind: str | None = None, max_classes: int = 6,
                  parametric: bool = True, max_shift: int = 2, leaf_bias: float = 0.4) -> CoSystem:
    """Arbitrary valid system: cycles, forward refs, mixed leaves."""
    out = CoSystem(*random_classes(seed, kind, max_classes, parametric, max_shift, leaf_bias))
    assert validate(out).holds
    return out


def random_classes(seed: int, kind: str | None = None, max_classes: int = 6,
                   parametric: bool = True, max_shift: int = 2,
                   leaf_bias: float = 0.4) -> tuple[str, tuple[str, ...], tuple, Ref]:
    """The kind, roster, class objects and root of ``random_system``."""
    rng = random.Random(seed)
    kind = kind or rng.choice((GAME, STRATEGY))
    roster = AGENTS[: rng.randint(1, 3)]
    count = rng.randint(1, max_classes)
    classes = []
    for _ in range(count):
        if rng.random() < leaf_bias:
            classes.append(Leaf({a: random_affine(rng, parametric) for a in roster}))
        else:
            shift = (lambda: rng.randint(0, max_shift)) if parametric else (lambda: 0)
            choice = rng.choice(CHOICES) if kind == STRATEGY else None
            classes.append(Node(rng.choice(roster), choice,
                                Ref(rng.randrange(count), shift()),
                                Ref(rng.randrange(count), shift())))
    return kind, roster, tuple(classes), Ref(rng.randrange(count), 0)


def random_terminating_strategy(seed: int, max_classes: int = 7, parametric: bool = True,
                                max_shift: int = 2) -> CoSystem:
    """Strategy whose chosen child always points at a later class, so
    alw_leads_to_leaf holds by construction (the off-choice child may
    cycle back freely)."""
    rng = random.Random(seed)
    roster = AGENTS[: rng.randint(1, 3)]
    count = rng.randint(2, max_classes)
    shift = (lambda: rng.randint(0, max_shift)) if parametric else (lambda: 0)
    classes = []
    for i in range(count):
        if i == count - 1 or rng.random() < 0.3:
            classes.append(Leaf({a: random_affine(rng, parametric) for a in roster}))
        else:
            forward = Ref(rng.randrange(i + 1, count), shift())
            anywhere = Ref(rng.randrange(count), shift())
            choice = rng.choice(CHOICES)
            left, right = (forward, anywhere) if choice is Choice.L else (anywhere, forward)
            classes.append(Node(rng.choice(roster), choice, left, right))
    out = CoSystem(STRATEGY, roster, tuple(classes), Ref(0, 0))
    assert validate(out).holds and alw_leads_to_leaf(out).holds
    return out


def unrolled_variant(sys: CoSystem, seed: int) -> CoSystem:
    """Duplicate one class and redirect a random subset of references to
    the clone: a syntactically different presentation of the same tree."""
    rng = random.Random(seed)
    victim = rng.randrange(len(sys.classes))
    clone_id = len(sys.classes)

    def maybe(ref: Ref) -> Ref:
        if ref.cls == victim and rng.random() < 0.5:
            return Ref(clone_id, ref.shift)
        return ref

    classes = []
    for cls in sys.classes + (sys.classes[victim],):
        if isinstance(cls, Node):
            classes.append(Node(cls.owner, cls.choice, maybe(cls.left), maybe(cls.right)))
        else:
            classes.append(cls)
    return CoSystem(sys.kind, sys.roster, tuple(classes), maybe(sys.root))


def unrolled_dollar_auction(periods: int, seed: int, choice: str = "r") -> str:
    """The dollar auction strategy ``agu`` (``choice`` r) or ``ngu`` (l)
    unrolled ``periods`` times, in shuffled equation order: period ``i``
    stands at ``periods*n + i`` and the last loops back to period 0 at
    ``n+1``."""
    k = periods
    eqs = []
    for i in range(k):
        nxt = f"alice{i + 1}(n)" if i + 1 < k else "alice0(n+1)"
        p = 2 * i
        eqs += [f"alice{i}(n) = <Alice, {choice}, bob{i}(n), quit_a{i}(n)>",
                f"bob{i}(n) = <Bob, {choice}, {nxt}, quit_b{i}(n)>",
                f"quit_a{i}(n) = leaf[Alice: {-2 * k}*n{-p - 1:+d}, Bob: {-2 * k}*n{-p:+d}]",
                f"quit_b{i}(n) = leaf[Alice: {-2 * k}*n{-p - 1:+d}, Bob: {-2 * k}*n{-p - 2:+d}]"]
    random.Random(seed).shuffle(eqs)
    return "strategy agents Alice Bob\n" + "\n".join(eqs) + "\nroot alice0\n"


def first_reachable_leaf(sys: CoSystem) -> int | None:
    from cogames import reachable

    for c in reachable(sys):
        if isinstance(sys.classes[c], Leaf):
            return c
    return None


def payoff_mutant(sys: CoSystem, leaf_id: int) -> CoSystem:
    """Bump one intercept of one leaf: a genuinely different tree."""
    leaf = sys.classes[leaf_id]
    assert isinstance(leaf, Leaf)
    agent = sorted(leaf.payoffs)[0]
    payoffs = dict(leaf.payoffs)
    payoffs[agent] = Affine(payoffs[agent].slope, payoffs[agent].intercept + 1)
    classes = list(sys.classes)
    classes[leaf_id] = Leaf(payoffs)
    return CoSystem(sys.kind, sys.roster, tuple(classes), sys.root)


def shift_mutant(sys: CoSystem, seed: int) -> CoSystem:
    """One more level of shift on one child edge of a random node class:
    the same tree where no leaf with a nonzero slope lies below the edge,
    usually a different one where one does."""
    rng = random.Random(seed)
    nodes = [i for i, cls in enumerate(sys.classes) if isinstance(cls, Node)]
    if not nodes:
        return sys
    victim = rng.choice(nodes)
    cls = sys.classes[victim]
    left, right = cls.left, cls.right
    if rng.random() < 0.5:
        left = Ref(left.cls, left.shift + 1)
    else:
        right = Ref(right.cls, right.shift + 1)
    classes = list(sys.classes)
    classes[victim] = Node(cls.owner, cls.choice, left, right)
    return CoSystem(sys.kind, sys.roster, tuple(classes), sys.root)


def flip_class_choice(sys: CoSystem, cls_id: int) -> CoSystem:
    """Flip the committed choice of one node class of a strategy."""
    cls = sys.classes[cls_id]
    classes = list(sys.classes)
    classes[cls_id] = Node(cls.owner, cls.choice.other, cls.left, cls.right)
    return CoSystem(sys.kind, sys.roster, tuple(classes), sys.root)


def prefix_perturbation(sys: CoSystem, agent: str, seed: int, depth: int = 2) -> tuple[CoSystem, int]:
    """Unroll the first ``depth`` levels into fresh classes and flip some
    of the agent's choices there.  The fresh classes each stand for a
    single unrolled position, so the result differs from ``sys`` at
    finitely many of the agent's nodes (inductively convertible); all
    other structure is untouched.  Returns (variant, flip count)."""
    rng = random.Random(seed)
    classes = list(sys.classes)
    flips = 0

    def copy(ref: Ref, level: int) -> Ref:
        nonlocal flips
        cls = sys.classes[ref.cls]
        if isinstance(cls, Leaf):
            fresh: Leaf | Node = Leaf({a: f.shifted(ref.shift) for a, f in cls.payoffs.items()})
        elif level >= depth:
            return ref  # splice back into the shared graph
        else:
            left = copy(Ref(cls.left.cls, cls.left.shift + ref.shift), level + 1)
            right = copy(Ref(cls.right.cls, cls.right.shift + ref.shift), level + 1)
            choice = cls.choice
            if cls.owner == agent and choice is not None and rng.random() < 0.5:
                choice = choice.other
                flips += 1
            fresh = Node(cls.owner, choice, left, right)
        classes.append(fresh)
        return Ref(len(classes) - 1, 0)

    root = copy(sys.root, 0)
    return CoSystem(sys.kind, sys.roster, tuple(classes), root), flips


def offset_moved(sys: CoSystem, victim: int, k: int) -> tuple[CoSystem, CoSystem]:
    """Two presentations of one tree that differ by a shift ``k`` on the
    edges around class ``victim``: in the first, every reference to the
    class (the root's too) carries ``k`` more; in the second, its own
    children do, and, if it is a leaf, its payoffs are read ``k`` levels
    deeper.  So the victim of the second stands at ``n`` for the victim
    of the first at ``n + k``, and a walk in step reaches the victim
    with drift ``-k``."""

    def into(ref: Ref) -> Ref:
        return Ref(ref.cls, ref.shift + k) if ref.cls == victim else ref

    inflow, outflow = [], list(sys.classes)
    for cls in sys.classes:
        if isinstance(cls, Node):
            inflow.append(Node(cls.owner, cls.choice, into(cls.left), into(cls.right)))
        else:
            inflow.append(cls)
    cls = sys.classes[victim]
    if isinstance(cls, Node):
        outflow[victim] = Node(cls.owner, cls.choice, Ref(cls.left.cls, cls.left.shift + k),
                               Ref(cls.right.cls, cls.right.shift + k))
    else:
        outflow[victim] = Leaf({a: f.shifted(k) for a, f in cls.payoffs.items()})
    return (CoSystem(sys.kind, sys.roster, tuple(inflow), into(sys.root)),
            CoSystem(sys.kind, sys.roster, tuple(outflow), sys.root))


def random_lasso(rng: random.Random, max_prefix: int = 4, max_cycle: int = 3) -> LassoHistory:
    prefix = tuple(rng.choice(CHOICES) for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(rng.choice(CHOICES) for _ in range(rng.randint(0, max_cycle)))
    return LassoHistory(prefix, cycle)


def finite_corpus(count: int, build, max_size: int = 12, **kwargs) -> list:
    """First ``count`` seeded random trees of total size <= max_size."""
    out = []
    seed = 0
    while len(out) < count:
        tree = build(seed, **kwargs)
        if oracle.size(tree) <= max_size:
            out.append(tree)
        seed += 1
    return out


def random_game(seed: int, max_depth: int = 3, payoff_range: tuple[int, int] = (-9, 9),
                roster: tuple[str, ...] = ("Alice", "Bob"), leaf_bias: float = 0.35) -> oracle.FiniteGame:
    """Deterministic-in-seed random finite game."""
    rng = random.Random(seed)

    def gen(depth: int) -> oracle.FiniteGame:
        if depth >= max_depth or rng.random() < leaf_bias:
            return oracle.Leaf({a: rng.randint(*payoff_range) for a in roster})
        return oracle.GameNode(rng.choice(roster), gen(depth + 1), gen(depth + 1))

    return gen(0)


def random_strategy(seed: int, max_depth: int = 3, payoff_range: tuple[int, int] = (-9, 9),
                    roster: tuple[str, ...] = ("Alice", "Bob"),
                    leaf_bias: float = 0.35) -> oracle.FiniteStrategy:
    """Deterministic-in-seed random finite strategy (random choices)."""
    rng = random.Random(seed)

    def gen(depth: int) -> oracle.FiniteStrategy:
        if depth >= max_depth or rng.random() < leaf_bias:
            return oracle.Leaf({a: rng.randint(*payoff_range) for a in roster})
        return oracle.StrategyNode(rng.choice(roster), rng.choice(CHOICES),
                                   gen(depth + 1), gen(depth + 1))

    return gen(0)


def finite_tree(sys: CoSystem) -> oracle.FiniteGame | oracle.FiniteStrategy:
    """The inverse of ``oracle.embed``: the explicit tree that ``sys``
    denotes, with payoffs at n = 0, for a system whose refs are all at
    shift 0 and whose children each come after their parent, as in a
    ``families.truncate`` or an ``embed`` result.  Built bottom up, one
    pass over the class ids from the last."""
    trees: list = [None] * len(sys.owner)
    for c in range(len(sys.owner) - 1, -1, -1):
        cls = sys.classes[c]
        if isinstance(cls, Leaf):
            trees[c] = oracle.Leaf({a: f.at(0) for a, f in cls.payoffs.items()})
            continue
        assert cls.left.cls > c and cls.right.cls > c and not (cls.left.shift or cls.right.shift)
        left, right = trees[cls.left.cls], trees[cls.right.cls]
        trees[c] = (oracle.GameNode(cls.owner, left, right) if sys.kind == GAME
                    else oracle.StrategyNode(cls.owner, cls.choice, left, right))
    assert sys.root == Ref(0)
    return trees[0]


def backbone_source(width: int) -> str:
    """An always-give-up strategy on a backbone of ``width`` agents, in
    the flat spelling: node ``b{i}``, owned by agent ``P{i}``, continues
    to ``b{i+1}`` (the last one to ``b0`` one period on) and gives up to
    the leaf ``g{i}``, which pays every agent a payoff affine in ``n``.
    The agents are declared in a shuffled order, and each leaf lists its
    payoffs in the order of the roster, reversed, or shuffled."""
    rng = random.Random(width)
    agents = [f"P{i}" for i in range(width)]
    roster = sorted(agents)
    lines = [f"strategy agents {' '.join(rng.sample(agents, width))}"]
    for i in range(width):
        nxt = f"b{i + 1}(n)" if i + 1 < width else "b0(n+1)"
        lines.append(f"b{i}(n) = <P{i}, r, {nxt}, g{i}(n)>")
        order = (roster, roster[::-1], rng.sample(roster, width))[i % 3]
        items = ", ".join(f"{a}: {i - j}*n+{j}" for j, a in enumerate(order))
        lines.append(f"g{i}(n) = leaf[{items}]")
    lines.append("root b0")
    return "\n".join(lines) + "\n"


class NotApplicableError(ValueError):
    """Preservation check invoked on a pair that is not inductively convertible."""


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


def reference_reach(s: CoSystem, agent: str | None = None) -> tuple[list, list, list]:
    """An independent reach analysis, to compare ``equilibria._analyze``
    with: per class id, the least index, the greatest index (None where
    unbounded) and the lasso entry (the positive-SCC member with the least
    (least index, id) that feeds the class, None where bounded), over
    ``agent``'s deviation graph or, when ``agent`` is None, the tree; None
    in all three for a class not reached.  Dijkstra over the whole graph
    for the least indices, one Tarjan search (``system.sccs``) of the
    projection itself, and a pass over its SCCs in topological order for
    the rest."""
    edges: list[list[tuple[int, int]]] = []
    for cls in s.classes:
        if isinstance(cls, Leaf):
            edges.append([])
        elif agent is None or cls.owner == agent:
            edges.append([(cls.left.cls, cls.left.shift), (cls.right.cls, cls.right.shift)])
        else:
            child = cls.child(cls.choice)
            edges.append([(child.cls, child.shift)])
    least: list = [None] * len(edges)
    least[s.root.cls] = s.root.shift
    heap = [(s.root.shift, s.root.cls)]
    while heap:
        d, c = heapq.heappop(heap)
        if d > least[c]:
            continue
        for t, k in edges[c]:
            if least[t] is None or d + k < least[t]:
                least[t] = d + k
                heapq.heappush(heap, (d + k, t))
    comps = sccs([s.root.cls], lambda v: [t for t, _ in edges[v]])
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    most: list = [None] * len(edges)
    most[s.root.cls] = s.root.shift
    entry: list = [None] * len(comps)
    for i in range(len(comps) - 1, -1, -1):
        comp = comps[i]
        if any(k and where[t] == i for c in comp for t, k in edges[c]):
            own = min((least[c], c) for c in comp)
            entry[i] = own if entry[i] is None else min(entry[i], own)
        if entry[i] is None:
            top = max(most[c] for c in comp if most[c] is not None)
            for c in comp:
                most[c] = top
        for c in comp:
            for t, k in edges[c]:
                j = where[t]
                if j == i:
                    continue
                if entry[i] is not None:
                    entry[j] = entry[i] if entry[j] is None else min(entry[j], entry[i])
                elif most[t] is None or most[c] + k > most[t]:
                    most[t] = most[c] + k
    greatest: list = [None] * len(edges)
    pump: list = [None] * len(edges)
    for v, i in where.items():
        if entry[i] is None:
            greatest[v] = most[v]
        else:
            pump[v] = entry[i][1]
    return least, greatest, pump


# ---------------------------------------------------------------------------
# replays of the walk certificates, with ``unfold`` only: the owners and the
# committed choices are the system's, never the certificate's


def reachable_classes(s: CoSystem) -> list[int]:
    """The classes reachable from the root through both children, in
    breadth-first order (L before R)."""
    order, seen = [s.root.cls], {s.root.cls}
    for c in order:
        head = unfold(s, Ref(c))
        if isinstance(head, Node):
            for t in (head.left.cls, head.right.cls):
                if t not in seen:
                    seen.add(t)
                    order.append(t)
    return order


def ends_at_leaf(s: CoSystem, at: Ref) -> bool:
    """Whether the committed choices from ``at`` reach a leaf; a walk that
    does visits each class at most once."""
    for _ in range(len(s.owner)):
        head = unfold(s, at)
        if isinstance(head, Leaf):
            return True
        at = head.child(head.choice)
    return False


def replay_walk(s: CoSystem, cert: dict, start: Ref | None = None) -> None:
    """Check a ``leads_to_leaf`` certificate from ``start`` (default the
    root): every choice is the system's own at the class it leaves.  A
    holding one lists the classes visited and their shifts, one entry
    more than the choices, and its last class is a leaf.  A failing one
    visits no class twice before its last step, which returns to the
    class it visited after ``entered_after`` steps; ``cycle`` is the
    classes from there on, so the walk repeats them forever."""
    at = s.root if start is None else start
    visited = [at]
    for label in cert["choices"]:
        head = unfold(s, at)
        assert isinstance(head, Node) and head.choice.value == label
        at = head.child(head.choice)
        visited.append(at)
    classes = [ref.cls for ref in visited]
    if "cycle" not in cert:
        assert list(cert) == ["class", "shift", "choices"]
        assert cert["class"] == classes and cert["shift"] == [ref.shift for ref in visited]
        assert isinstance(unfold(s, at), Leaf)
        return
    assert list(cert) == ["cycle", "entered_after", "choices"]
    k = cert["entered_after"]
    assert 0 <= k < len(cert["choices"])
    assert len(set(classes[:-1])) == len(classes) - 1 and classes[-1] == classes[k]
    assert cert["cycle"] == classes[k:-1]


def replay_altl_failure(s: CoSystem, cert: dict) -> None:
    """Check a failing ``alw_leads_to_leaf`` certificate: ``class`` is the
    first class in breadth-first order whose chosen walk cycles, and
    ``cycle`` is that walk's failing certificate from its local index 0."""
    assert list(cert) == ["class", "cycle"]
    order = reachable_classes(s)
    bad = cert["class"]
    assert bad in order
    assert all(ends_at_leaf(s, Ref(c)) for c in order[:order.index(bad)])
    replay_walk(s, cert["cycle"], Ref(bad))
