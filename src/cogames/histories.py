"""Finite and eventually periodic choice sequences (lassos).

A history records the choices taken along one play of a game.  The
decidable fragment implemented here is the lasso: a finite prefix
followed by a finite cycle repeated forever (empty cycle = finite
history).  Every history produced by a finitely presented strategy is a
lasso, so nothing is lost for the analyses in this package.

Text form: ``lr(lr)^w`` for prefix ``lr`` and cycle ``lr``; a finite
history is just its letters (``ll``); the empty history is ``""``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .semantics import leads_to_leaf
from .system import Choice, CoSystem, Leaf, Node, STRATEGY, KindMismatchError, is_parametric, sccs


@dataclass(frozen=True)
class LassoHistory:
    """Choice word ``prefix . cycle^omega``; finite iff the cycle is empty."""

    prefix: tuple[Choice, ...]
    cycle: tuple[Choice, ...] = ()

    @property
    def finite(self) -> bool:
        return not self.cycle

    def expand(self, count: int) -> tuple[Choice, ...]:
        """The first ``count`` symbols (fewer if finite and shorter)."""
        if self.finite:
            return self.prefix[:count]
        out = list(self.prefix)
        while len(out) < count:
            out.extend(self.cycle)
        return tuple(out[:count])


def _primitive_root(word: tuple[Choice, ...]) -> tuple[Choice, ...]:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word[:d] * (n // d) == word:
            return word[:d]
    return word


def canonicalize(h: LassoHistory) -> LassoHistory:
    """Unique normal form: primitive cycle, maximally absorbed prefix.

    Absorbing rotates the cycle: while the prefix ends with the cycle's
    last symbol, that symbol moves from the prefix into a rotated cycle.
    Two lassos denote the same (finite or omega) word iff their normal
    forms are equal.
    """
    if h.finite:
        return LassoHistory(h.prefix, ())
    cycle = _primitive_root(h.cycle)
    prefix = list(h.prefix)
    while prefix and prefix[-1] is cycle[-1]:
        prefix.pop()
        cycle = cycle[-1:] + cycle[:-1]
    return LassoHistory(tuple(prefix), cycle)


def h_bisimilar(a: LassoHistory, b: LassoHistory) -> bool:
    """Symbol-wise equality of the denoted words."""
    return canonicalize(a) == canonicalize(b)


def in_h1(h: LassoHistory) -> bool:
    """Finite, or ends with an infinite run of L."""
    h = canonicalize(h)
    return h.finite or h.cycle == (Choice.L,)


def in_h2(h: LassoHistory) -> bool:
    """Finite, or contains infinitely many L (the cycle has one)."""
    h = canonicalize(h)
    return h.finite or Choice.L in h.cycle


def is_history_of(g: CoSystem, h: LassoHistory) -> bool:
    """Whether following ``h``'s choices through the class graph stays
    defined at every step.

    The walk ignores strategy choices, so games and strategies are both
    accepted.  A finite history may end at a leaf or an interior node; a
    leaf met before the history ends refutes membership.  Infinite
    histories are decided by detecting a repeated (class, cycle-position)
    state, which the walk must reach within |classes| * |cycle| steps.
    """
    cur = g.root.cls
    for c in h.prefix:
        cls = g.classes[cur]
        if isinstance(cls, Leaf):
            return False
        cur = cls.child(c).cls
    if h.finite:
        return True
    seen: set[tuple[int, int]] = set()
    pos = 0
    while (cur, pos) not in seen:
        seen.add((cur, pos))
        cls = g.classes[cur]
        if isinstance(cls, Leaf):
            return False
        cur = cls.child(h.cycle[pos]).cls
        pos = (pos + 1) % len(h.cycle)
    return True


def strategy_history(s: CoSystem) -> LassoHistory:
    """The history obtained by following the strategy's own choices.

    Choices are attached to classes, so either the walk reaches a leaf
    within |classes| steps (finite history) or a class repeats and the
    choices between the two visits repeat forever (lasso).
    """
    if s.kind != STRATEGY:
        raise KindMismatchError("strategy_history expects a strategy")
    walk = leads_to_leaf(s).certificate
    taken = tuple(Choice(c) for c in walk["choices"])
    split = walk.get("entered_after", len(taken))
    return canonicalize(LassoHistory(taken[:split], taken[split:]))


def is_finite(sys: CoSystem) -> bool:
    """True iff the reachable class graph is acyclic and non-parametric,
    i.e. the system denotes a finite tree with index-independent payoffs."""
    if is_parametric(sys):
        return False

    def children(c: int) -> tuple[int, ...]:
        cls = sys.classes[c]
        return (cls.left.cls, cls.right.cls) if isinstance(cls, Node) else ()

    return all(len(comp) == 1 and comp[0] not in children(comp[0])
               for comp in sccs([sys.root.cls], children))


_LASSO_RE = re.compile(r"^(?P<prefix>[lr]*)(?:\((?P<cycle>[lr]+)\)\^w)?$")


def format_lasso(h: LassoHistory) -> str:
    prefix = "".join(c.value for c in h.prefix)
    if h.finite:
        return prefix
    return f"{prefix}({''.join(c.value for c in h.cycle)})^w"


def parse_lasso(text: str) -> LassoHistory:
    """Parse the ``prefix(cycle)^w`` text form (finite: letters only)."""
    m = _LASSO_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a lasso: {text!r} (expected e.g. 'lr', 'l(lr)^w')")
    prefix = tuple(Choice(c) for c in m.group("prefix"))
    cycle = tuple(Choice(c) for c in m.group("cycle") or "")
    return LassoHistory(prefix, cycle)
