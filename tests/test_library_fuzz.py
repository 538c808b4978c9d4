"""Every public library function, run on seeded random systems, returns or
raises a ``ValueError``: ``KindMismatchError`` for a system of the wrong
kind, ``RosterMismatchError`` for two rosters that differ, or a plain
``ValueError`` for an input that the function refuses, such as a tree
that ``truncate`` cannot close or an infinite one given to
``backward_induction``.  Any other exception fails the test.

Each seed draws a system of either kind, cyclic and parametric ones
among them, and pairs it with the same tree in another presentation
(odd seeds) or with the next seed's system (even seeds).
"""

import random

import pytest

from cogames import (
    Ref,
    alw_leads_to_leaf,
    bisimilar,
    bisimilar_bounded,
    convertible,
    is_history_of,
    nash_eq,
    reach_index_sets,
    s2u,
    sgpe,
    strategy_history,
    with_root,
)
from cogames.dsl import parse, render
from cogames.families import PREFER_LEFT, PREFER_RIGHT, backward_induction, truncate

import helpers

SEEDS = range(400)

# each function, called on a system ``a``, a second system ``b`` and the
# seed's generator ``rng``, which draws the other arguments
CALLS = {
    "truncate": lambda a, b, rng: truncate(a, rng.randrange(4)),
    "backward_induction": lambda a, b, rng: backward_induction(
        a, rng.choice((PREFER_LEFT, PREFER_RIGHT))),
    "render then parse": lambda a, b, rng: parse(render(a)),
    "strategy_history": lambda a, b, rng: strategy_history(a),
    "is_history_of": lambda a, b, rng: is_history_of(a, helpers.random_lasso(rng)),
    "bisimilar": lambda a, b, rng: bisimilar(a, b),
    "bisimilar_bounded": lambda a, b, rng: bisimilar_bounded(a, b, rng.randrange(6)),
    "convertible": lambda a, b, rng: convertible(a, b, rng.choice(a.roster)),
    "nash_eq": lambda a, b, rng: nash_eq(a),
    "sgpe": lambda a, b, rng: sgpe(a),
    "alw_leads_to_leaf": lambda a, b, rng: alw_leads_to_leaf(a),
    "reach_index_sets": lambda a, b, rng: reach_index_sets(a, rng.choice((None, *a.roster))),
    "s2u": lambda a, b, rng: s2u(a, rng.choice(a.roster)),
    # one class past the last, to reach the refusal too
    "with_root": lambda a, b, rng: with_root(
        a, Ref(rng.randrange(len(a.owner) + 1), rng.randrange(3))),
}


@pytest.mark.parametrize("name", CALLS)
def test_only_value_errors_escape(name):
    call = CALLS[name]
    for seed in SEEDS:
        a = helpers.random_system(seed)
        b = helpers.unrolled_variant(a, seed) if seed % 2 else helpers.random_system(seed + 1)
        try:
            call(a, b, random.Random(seed))
        except ValueError:  # KindMismatchError and RosterMismatchError among them
            continue
        except Exception as err:
            pytest.fail(f"{name} raised {err!r} on seed {seed}")
