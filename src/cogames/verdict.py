"""Check outcomes with machine-checkable evidence.

Every decision procedure in this package returns a :class:`Verdict` rather
than a bare boolean, so a caller (or the CLI report) can inspect *why*
something holds or fails.  Certificates are plain JSON-able structures:
paths and cycles for the walk-based predicates, relations for the
coinductive ones, deviation descriptions for the equilibrium checks.
The holding certificates of ``alw_leads_to_leaf``, ``sgpe`` and
``nash_eq`` are named columns: one list per field, all of one length,
with one entry per class or leaf, rather than one dict per row.  A
failure is one row.  A list of steps (a chosen walk, a deviation) is
columns too, in a holding certificate and a failing one alike.  No
certificate copies an owner out of the system's columns.  Certificates hold dicts, lists, tuples, strings,
ints, booleans and None, and nothing else; a tuple is written as a
list, so it reads back as a list.  A row ``(i, j)`` of a ``bisimilar``
relation reads back as ``[i, j]``: ``json`` writes it so, and the CLI's
report writes the same text with ``cli.block_pieces``.  The one
exception is ``system.bisimilar_blocks``, whose holding relation may be
a ``system.Blocks``, the block form that ``bisimilar`` expands to rows
and the CLI writes as rows without building them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Verdict:
    """Outcome of a predicate check plus its evidence.

    ``certificate`` carries the supporting structure for either outcome:
    a witness path/cycle when the check fails, a closed relation or
    named columns when it holds.  ``note`` is a short human-readable
    reason string.
    """

    holds: bool
    certificate: Any = None
    note: str = ""

    @property
    def outcome(self) -> str:
        return "holds" if self.holds else "fails"

    def to_json(self) -> dict[str, Any]:
        return {"outcome": self.outcome, "certificate": self.certificate, "note": self.note}
