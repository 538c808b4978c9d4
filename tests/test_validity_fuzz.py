"""Property tests on the constructor's validity gate.

A seeded valid system with one class (or its root, or its kind, or its
roster) broken by one invariant's mutation must be refused at
construction with that invariant's code and location.  And each of the
four producers that build a system without the gate (the flat reader,
``with_root``, ``strategy_to_game`` and ``annotate``) must return, on a
valid system, one that the gate accepts and rebuilds equal.
"""

import random

import pytest

from cogames import (
    Affine,
    CoSystem,
    GAME,
    InvalidSystemError,
    Leaf,
    Node,
    Ref,
    STRATEGY,
    annotate,
    dsl,
    strategy_to_game,
    with_root,
)

import helpers

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CODES = ("EmptyRoster", "BadKind", "NotAClass", "PayoffDomain", "UnknownOwner", "MissingChoice",
         "ExtraChoice", "InvalidRef")
OUTSIDER = "Zed"  # an agent name that helpers.AGENTS never holds


def bad_ref(rng: random.Random, n: int) -> tuple[object, object]:
    """A reference that names no class of ``n``, sits at a negative
    shift or is not a ``Ref`` of two ints, and how a certificate names it."""
    k = rng.randrange(n)
    if rng.random() < 0.6:
        ref = rng.choice([Ref(n + rng.randint(0, 3), rng.randint(0, 2)),
                          Ref(-rng.randint(1, 3), 0), Ref(k, -rng.randint(1, 3))])
        return ref, ref.to_json()
    ref = rng.choice([Ref(str(k)), Ref(k, 0.5), (k, 0), k])
    return ref, repr(ref)


def mutate(seed: int, code: str) -> tuple[tuple, dict]:
    """A ``helpers.random_classes`` system broken once, by ``code``'s
    invariant alone, and the certificate the constructor must give."""
    rng = random.Random(~seed)
    kind = {"MissingChoice": STRATEGY, "ExtraChoice": GAME}.get(code)
    kind, roster, classes, root = helpers.random_classes(seed, kind)
    if code == "EmptyRoster":
        return (kind, (), classes, root), {"error": code}
    if code == "BadKind":
        return ("tree", roster, classes, root), {"error": code, "kind": "tree"}
    n = len(classes)
    if code == "InvalidRef" and rng.random() < 0.3:
        ref, named = bad_ref(rng, n)
        return (kind, roster, classes, ref), {"error": code, "class": "root", "ref": named}
    i = rng.randrange(n)
    owner, left, right = rng.choice(roster), Ref(rng.randrange(n)), Ref(rng.randrange(n))
    choice = rng.choice(helpers.CHOICES) if kind == STRATEGY else None
    cert = {"error": code, "class": i}
    if code == "PayoffDomain":
        agents = list(roster)
        pays = {a: Affine(rng.randint(-3, 3), rng.randint(-9, 9)) for a in agents}
        way = rng.randrange(3)
        if way == 0:
            del pays[rng.choice(agents)]
        elif way == 1:
            pays[OUTSIDER] = Affine(0, 0)
        else:
            pays[rng.choice(agents)] = rng.choice([1, (0, 1), Affine(0, "1"), Affine(0.5, 0)])
        broken = Leaf(pays)
    elif code == "NotAClass":
        broken = rng.choice(["x", None, Ref(0), (owner, choice, left, right)])
    elif code == "UnknownOwner":
        broken = Node(OUTSIDER, choice, left, right)
    elif code == "MissingChoice":
        broken = Node(owner, rng.choice([None, "l", "r", 0]), left, right)
    elif code == "ExtraChoice":
        broken = Node(owner, rng.choice([*helpers.CHOICES, "l"]), left, right)
    else:
        ref, cert["ref"] = bad_ref(rng, n)
        left, right = (ref, right) if rng.random() < 0.5 else (left, ref)
        broken = Node(owner, choice, left, right)
    return (kind, roster, classes[:i] + (broken,) + classes[i + 1:], root), cert


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.sampled_from(CODES))
def test_one_broken_invariant_is_refused_with_its_code(seed, code):
    args, cert = mutate(seed, code)
    with pytest.raises(InvalidSystemError) as info:
        CoSystem(*args)
    assert info.value.certificate == cert


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32))
def test_every_unchecked_producer_returns_a_system_the_gate_rebuilds(seed):
    rng = random.Random(seed)
    s = CoSystem(*helpers.random_classes(seed))
    flat = dsl._parse_flat(dsl.render(s))
    assert flat is not None
    produced = [flat, with_root(s, Ref(rng.randrange(len(s.owner)), rng.randint(0, 3)))]
    game = strategy_to_game(s) if s.kind == STRATEGY else s
    strategy = annotate(game, {c: rng.choice(helpers.CHOICES)
                               for c, owner in enumerate(game.owner) if owner is not None})
    produced += [game, strategy, strategy_to_game(strategy)]
    for p in produced:
        rebuilt = CoSystem(p.kind, p.roster, p.classes, p.root)
        assert p == rebuilt and repr(p) == repr(rebuilt)
