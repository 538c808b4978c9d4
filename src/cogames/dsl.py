"""Textual source form for equation systems.

Grammar (``.cog`` files)::

    file    := ("strategy" | "game") "agents" ident+ eq+ "root" ident
    eq      := ident "(n)" "=" term
    term    := leaf | node
    leaf    := "leaf" "[" ident ":" affine ("," ident ":" affine)* "]"
    node    := "<" ident ("," choice)? "," ref "," ref ">"
    ref     := ident "(" "n" ("+" nat)? ")" | term
    affine  := "-"? (int | int "*n" tail? | "n" tail?)
    tail    := "+" int | "-" int
    choice  := "l" | "r"

Tokens are identifiers ``[^\\W\\d]\\w*`` that start with a letter or
``_``, integers ``-?\\d+`` of Unicode decimal digits, the punctuation
``()[]<>,:=+-*`` and whitespace between them.  Any other character is an
error, and so is a digit that is not a decimal (such as ``²`` or ``½``)
where a token starts.  A token is only its text, and its kind follows
from its first character.  The parser keeps no positions: when it raises
an error it knows the failing token's index, one more scan of the text
finds that token's offset, and the error's ``line:col`` is worked out
from the offset.

Beyond the grammar, a file names each agent and each equation once,
owns every node by an agent of the roster, gives every leaf exactly one
payoff per agent of the roster, and puts a choice at every node of a
strategy and at none of a game.  Refs name equations and shifts are
natural numbers.  These are the invariants that ``system.CoSystem``'s
constructor checks.  The token parser builds its system through that
constructor, after it has reported any broken invariant at its
position.  The flat reader gives up on any text that breaks one, so it
fills the columns through the unchecked ``CoSystem._from_columns``.

The grammar sets no bound on the length of an integer.  CPython refuses
int/str conversions past 4 300 digits by default
(``sys.set_int_max_str_digits``), a guard against quadratic conversion of
untrusted input.  ``parse`` keeps whatever limit its caller has set, and
reports a literal past it as a positioned ``ParseError`` that names the
limit.  ``render`` writes and does not read input: it keeps the limit
too, and past it raises the interpreter's ``ValueError``.  ``cli.main``
lifts the limit while it runs, since the command line reads files that
its user names.

A ``-`` glued to digits is part of the integer literal, so the canonical
spelling ``-2*n-1`` denotes slope -2, intercept -1; a leading ``-``
negates the leading term only, so ``-n+2`` denotes slope -1, intercept 2.
Inline terms in ref position desugar to fresh classes, numbered after
the named equations in order of appearance; terms are parsed with an
explicit stack, so nesting depth is unbounded.  The printer emits one
equation per class, named ``c0``, ``c1``, ..., with sorted rosters and
payoff keys and normalized ``a*n+b`` affine spelling; parse/print
round-trips are exact.

Two readers share this grammar.  A flat reader takes the plain spelling
that most files use (ASCII text, named refs only) and gives up, without
raising, on anything else.  It reads a node equation in one anchored
regex match, and a leaf equation in one match up to its ``[`` and then
one match per payoff item.  The two patterns are compiled once and serve
every roster width, so a file costs time linear in its length however
many agents its roster holds.  The same loop appends the match groups
to the system's columns (``system.CoSystem``), each payoff at its
agent's roster index; it keeps no match and builds no class object.
The token parser reads what the flat reader gives up on, into class
objects that ``CoSystem`` turns into the same columns; it alone defines
the grammar, and it raises every error, with its message, ``line:col``
and expected tokens.  So the flat reader also gives up on an invalid
system and on an integer past the caller's limit.
"""

from __future__ import annotations

import re
import sys

from .system import Affine, Choice, CoSystem, GAME, Leaf, Node, NodeClass, Ref, STRATEGY

RESERVED = {"strategy", "game", "agents", "root", "leaf", "l", "r", "n"}

# A token's first character gives its kind: a letter or ``_`` starts an
# identifier, a decimal digit or a ``-`` followed by digits an integer, and
# anything else is one punctuation character.  A punctuation token's text is
# never the text of an identifier or an integer, and keywords are
# identifiers, so the parser compares token texts.  ``findall`` skips
# whitespace and the characters ``_BAD`` finds, which no token can hold.
_TOKEN = re.compile(r"[^\W\d]\w*|-?\d+|[()\[\]<>,:=+*-]")
_BAD = re.compile(r"[^\w\s()\[\]<>,:=+*-]")

_CHOICES = {"l": Choice.L, "r": Choice.R}

_OpenNode = tuple[int, str, Choice | None, list[Ref]]  # class id, owner, choice, refs so far


class ParseError(ValueError):
    """Positioned syntax or static error in a source file."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


class UnknownAgentError(ParseError):
    pass


class UnknownEquationError(ParseError):
    pass


class ChoiceInGameKindError(ParseError):
    pass


def _is_ident(token: str) -> bool:
    return token[:1].isalpha() or token[:1] == "_"


def _is_int(token: str) -> bool:
    return token.lstrip("-").isdecimal()


def _offset(text: str, index: int) -> int:
    """Offset of token ``index`` of ``text``; the end of the text for an
    end-of-input token."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == index:
            return m.start()
    return len(text)


def _position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``offset``; only ``\\n`` ends a line."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[str]:
    """Token texts of ``text`` followed by two empty end-of-input tokens,
    so that the parser can look one token past any real token without a
    bounds check."""
    tokens = _TOKEN.findall(text)
    end = len(text)
    bad = _BAD.search(text)
    first = bad.start() if bad else end
    if not text.isascii():
        # \w also holds digits that are not decimals, such as ² and ½, and
        # no token may start with one.
        index = next((i for i, word in enumerate(tokens) if not (
            word[0].isalpha() or word[0].isdecimal() or word[0] in "_()[]<>,:=+*-")), None)
        if index is not None:
            first = min(first, _offset(text, index))
    if first < end:
        raise ParseError(f"unexpected character {text[first]!r}", *_position(text, first))
    tokens += ("", "")
    return tokens


class _Parser:
    """Parser over token texts."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.kind = ""
        self.roster: list[str] = []
        self.eq_ids: dict[str, int] = {}
        self.classes: dict[int, NodeClass] = {}
        self.next_fresh = 0

    def error(self, index: int, message: str, expected: tuple[str, ...] = (),
              cls: type[ParseError] = ParseError) -> ParseError:
        """The error for token ``index``, positioned by one scan of the text."""
        return cls(message, *_position(self.text, _offset(self.text, index)), expected)

    def fail(self, message: str, expected: tuple[str, ...] = (),
             cls: type[ParseError] = ParseError) -> ParseError:
        return self.error(self.pos, message, expected, cls)

    def expect_punct(self, ch: str) -> None:
        tok = self.tokens[self.pos]
        if tok != ch:
            raise self.fail(f"found {tok or 'end of input'!r}", (repr(ch),))
        self.pos += 1

    def expect_ident(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if not _is_ident(tok):
            raise self.fail(f"found {tok or 'end of input'!r}", (what,))
        self.pos += 1
        return tok

    def expect_name(self, what: str) -> str:
        tok = self.expect_ident(what)
        if tok in RESERVED:
            raise self.error(self.pos - 1, f"{tok!r} is reserved and cannot name {what}")
        return tok

    def expect_n(self) -> None:
        tok = self.expect_ident("'n'")
        if tok != "n":
            raise self.error(self.pos - 1, f"found {tok!r}", ("n",))

    def int_at(self, index: int) -> int:
        """The value of integer token ``index``, which ``int`` refuses only
        past the caller's int/str conversion limit."""
        try:
            return int(self.tokens[index])
        except ValueError:
            raise self.error(index, f"integer past the int/str limit of {sys.get_int_max_str_digits()} "
                             "digits (sys.set_int_max_str_digits)") from None

    def expect_agent(self) -> str:
        tok = self.expect_ident("an agent name")
        if tok not in self.roster:
            raise self.error(self.pos - 1, f"unknown agent {tok!r}", cls=UnknownAgentError)
        return tok

    # ---- file structure

    def parse_file(self) -> CoSystem:
        toks = self.tokens
        head = self.expect_ident("'strategy' or 'game'")
        if head not in (STRATEGY, GAME):
            raise self.error(self.pos - 1, "file must start with 'strategy' or 'game'",
                             ("strategy", "game"))
        self.kind = head
        if self.expect_ident("'agents'") != "agents":
            raise self.error(self.pos - 1, f"found {toks[self.pos - 1]!r}", ("agents",))
        while (_is_ident(toks[self.pos]) and toks[self.pos] != "root"
               and toks[self.pos + 1] != "("):
            agent = self.expect_name("an agent")
            if agent in self.roster:
                raise self.error(self.pos - 1, f"duplicate agent {agent!r}")
            self.roster.append(agent)
        if not self.roster:
            raise self.fail("at least one agent is required", ("agent name",))

        self._prescan_equations()
        self.next_fresh = len(self.eq_ids)
        if not self.eq_ids:
            raise self.fail("at least one equation is required", ("equation",))

        while toks[self.pos] != "root":
            self._parse_equation()
        self.pos += 1  # root
        name = self.expect_ident("an equation name")
        if name not in self.eq_ids:
            raise self.error(self.pos - 1, f"unknown equation {name!r}", cls=UnknownEquationError)
        if toks[self.pos]:
            raise self.fail(f"trailing input {toks[self.pos]!r}", ("end of file",))

        ordered = tuple(self.classes[i] for i in range(len(self.classes)))
        return CoSystem(self.kind, tuple(self.roster), ordered, Ref(self.eq_ids[name], 0))

    def _prescan_equations(self) -> None:
        """Equation headers (ident "(n)" "=") are syntactically unambiguous,
        so names can be collected up front to allow forward references."""
        toks = self.tokens
        i = self.pos + 3
        while True:
            try:
                i = toks.index("=", i + 1)
            except ValueError:
                return
            if (toks[i - 1] == ")" and toks[i - 2] == "n" and toks[i - 3] == "("
                    and _is_ident(toks[i - 4])):
                name = toks[i - 4]
                if name in RESERVED:
                    raise self.error(i - 4, f"{name!r} is reserved and cannot name an equation")
                if name in self.eq_ids:
                    raise self.error(i - 4, f"duplicate equation {name!r}")
                self.eq_ids[name] = len(self.eq_ids)

    def _parse_equation(self) -> None:
        name = self.expect_ident("an equation header")
        if name not in self.eq_ids:
            raise self.error(self.pos - 1, f"found {name!r}", ("equation header", "root"))
        self.expect_punct("(")
        self.expect_n()
        self.expect_punct(")")
        self.expect_punct("=")
        self._parse_term(self.eq_ids[name])

    # ---- terms

    def _parse_term(self, cid: int) -> None:
        """Parse the term at the cursor into class ``cid``.  Nodes whose
        refs are still being parsed wait on an explicit stack, so deep
        inline nesting does not consume the Python stack."""
        open_nodes: list[_OpenNode] = []
        while True:
            tok = self.tokens[self.pos]
            if tok == "leaf":
                self.classes[cid] = self._parse_leaf()
            elif tok == "<":
                open_nodes.append(self._parse_node_head(cid))
            else:
                raise self.fail(f"found {tok or 'end of input'!r}", ("leaf", "'<'"))
            cid = self._close_nodes(open_nodes)
            if cid is None:
                return

    def _close_nodes(self, open_nodes: list[_OpenNode]) -> int | None:
        """Parse refs and close nodes from the top of ``open_nodes`` until
        a ref is an inline term.  Return the fresh class id allotted to
        that term, or None once every node is closed."""
        while open_nodes:
            cid, owner, choice, refs = open_nodes[-1]
            if len(refs) == 2:
                self.expect_punct(">")
                open_nodes.pop()
                self.classes[cid] = Node(owner, choice, refs[0], refs[1])
                continue
            if refs:
                self.expect_punct(",")
            tok = self.tokens[self.pos]
            if tok == "<" or tok == "leaf":
                fresh = self.next_fresh
                self.next_fresh += 1
                refs.append(Ref(fresh, 0))
                return fresh
            refs.append(self._parse_named_ref())
        return None

    def _parse_leaf(self) -> Leaf:
        self.pos += 1  # leaf
        self.expect_punct("[")
        payoffs: dict[str, Affine] = {}
        while True:
            agent = self.expect_agent()
            if agent in payoffs:
                raise self.error(self.pos - 1, f"duplicate agent {agent!r} in leaf")
            self.expect_punct(":")
            payoffs[agent] = self._parse_affine()
            if self.tokens[self.pos] != ",":
                break
            self.pos += 1
        self.expect_punct("]")
        if len(payoffs) < len(self.roster):
            missing = next(agent for agent in self.roster if agent not in payoffs)
            raise self.error(self.pos - 1, f"leaf gives no payoff to {missing!r}")
        return Leaf(payoffs)

    def _parse_node_head(self, cid: int) -> _OpenNode:
        """``"<" owner ("," choice)? ","``: an open node for class ``cid``."""
        self.pos += 1  # <
        owner = self.expect_agent()
        self.expect_punct(",")
        toks, pos = self.tokens, self.pos
        tok = toks[pos]
        choice = _CHOICES.get(tok)
        if choice is not None and toks[pos + 1] == ",":
            if self.kind == GAME:
                raise self.error(pos, "choice annotation in a game-kind file",
                                 cls=ChoiceInGameKindError)
            self.pos = pos + 2
        elif self.kind == STRATEGY:
            raise self.error(pos, f"strategy node needs a choice, found {tok!r}", ("l", "r"))
        else:
            choice = None
        return cid, owner, choice, []

    def _parse_named_ref(self) -> Ref:
        name = self.expect_ident("an equation name or inline term")
        if name not in self.eq_ids:
            raise self.error(self.pos - 1, f"unknown equation {name!r}", cls=UnknownEquationError)
        self.expect_punct("(")
        self.expect_n()
        shift = 0
        if self.tokens[self.pos] == "+":
            self.pos += 1
            k = self.tokens[self.pos]
            shift = self.int_at(self.pos) if _is_int(k) else -1
            if shift < 0:
                raise self.fail(f"found {k!r}", ("a natural offset",))
            self.pos += 1
        self.expect_punct(")")
        return Ref(self.eq_ids[name], shift)

    # ---- affine payoffs

    def _parse_affine(self) -> Affine:
        """``"-"? (int | int "*n" tail? | "n" tail?)``, where a tail is
        ``"+" int``, ``"-" int`` or an integer glued to its minus sign."""
        toks, pos = self.tokens, self.pos
        tok = toks[pos]
        sign = 1
        if tok == "-":
            pos += 1
            tok, sign = toks[pos], -1
        if tok == "n":
            slope = sign
        elif _is_int(tok):
            if toks[pos + 1] != "*":
                self.pos = pos + 1
                return Affine(0, sign * self.int_at(pos))
            slope = sign * self.int_at(pos)
            pos += 2
            if toks[pos] != "n":
                self.pos = pos
                self.expect_n()
        else:
            self.pos = pos
            raise self.fail(f"found {tok or 'end of input'!r}", ("an integer", "n", "'-'"))
        tail = toks[pos + 1]  # pos is at the "n"
        if tail == "+" or tail == "-":
            val = toks[pos + 2]
            if not _is_int(val):
                self.pos = pos + 2
                raise self.fail(f"found {val!r}", ("an integer",))
            self.pos = pos + 3
            return Affine(slope, self.int_at(pos + 2) if tail == "+" else -self.int_at(pos + 2))
        if tail[:1] == "-":  # an integer glued to its minus sign, "-0" too
            self.pos = pos + 2
            return Affine(slope, self.int_at(pos + 1))
        self.pos = pos + 1
        return Affine(slope, 0)


# The flat reader's spelling: a header, equations whose refs are all named,
# and a root, with payoffs ``-?k``, ``-?k*n`` or ``-?n``, the last two with
# an optional tail ``+k`` or ``-k``.  ``\s+`` stands wherever two
# identifiers meet, so that no match splits one.  One match reads a node
# equation whole, and a leaf equation up to its ``[``; then each payoff
# item is one match of ``_FLAT_PAYOFF``, which ends at the ``,`` or the
# ``]`` after the item.  Neither pattern depends on the roster's width.
# All are compiled with ``re.ASCII``, so no character outside ASCII matches
# them.
_IDENT = r"[A-Za-z_]\w*"
_REF = rf"({_IDENT})\s*\(\s*n\s*(?:\+\s*(\d+)\s*)?\)"
_FLAT_HEAD = re.compile(rf"\s*(strategy|game)\s+agents((?:\s+{_IDENT})+?)\s+(?={_IDENT}\s*\()",
                        re.ASCII)
# groups: name, then owner, choice, left, left shift, right and right
# shift, all None at a leaf
_FLAT_EQUATION = re.compile(rf"\s*({_IDENT})\s*\(\s*n\s*\)\s*=\s*(?:"
                            rf"<\s*({_IDENT})\s*,(?:\s*([lr])\s*,)?\s*{_REF}\s*,\s*{_REF}\s*>"
                            rf"|leaf\s*\[)", re.ASCII)
# groups: agent, minus, constant, slope, tail sign, tail, and the ``,`` or
# ``]`` that ends the item
_FLAT_PAYOFF = re.compile(rf"\s*({_IDENT})\s*:\s*(-?)\s*(?:(\d+)|(?:(\d+)\s*\*\s*)?n"
                          rf"(?:\s*([+-])\s*(\d+))?)\s*([,\]])", re.ASCII)
_FLAT_ROOT = re.compile(rf"\s*root\s+({_IDENT})\s*\Z", re.ASCII)


def _parse_flat(text: str) -> CoSystem | None:
    """The system of a valid file in the flat spelling, or None for any
    other text.  Where it returns a system, the token parser returns an
    equal one.  One match per node equation, and one per leaf equation
    plus one per payoff item; the same loop appends the matches' groups
    to the system's columns, and no class object is built.  Past the
    caller's int/str limit ``int`` raises ``ValueError``, and ``parse``
    gives the text to the token parser.  Its give-up rules are
    ``CoSystem``'s invariants, so the columns it fills are valid."""
    head = _FLAT_HEAD.match(text)
    if head is None:
        return None
    kind, names = head[1], head[2].split()
    roster = tuple(sorted(set(names)))
    if len(roster) < len(names) or not RESERVED.isdisjoint(roster):
        return None
    # each agent's slope slot in a leaf's payoff entry; the intercept follows
    slot = {agent: 2 * i for i, agent in enumerate(roster)}
    strategy, width = kind == STRATEGY, 2 * len(roster)
    ids: dict[str, int] = {}
    # the columns, in ``CoSystem``'s field order; ``left`` and ``right``
    # hold child names (None at a leaf) until every name is known
    owner, choice, left, left_shift, right, right_shift, payoff = ([] for _ in range(7))
    pos = head.end()
    while (m := _FLAT_EQUATION.match(text, pos)) is not None:
        pos = m.end()
        # a leaf's owner, choice, children and shifts are unmatched: None
        name, who, c, lname, lk, rname, rk = m.groups()
        ids.setdefault(name, len(owner))
        owner.append(who)
        choice.append(c and _CHOICES[c])
        left.append(lname)
        left_shift.append(int(lk) if lk else 0)
        right.append(rname)
        right_shift.append(int(rk) if rk else 0)
        if who is not None:
            if who not in slot or (c is None) == strategy:
                return None
            payoff.append(None)
            continue
        entry, end = [None] * width, ","
        while end == ",":
            p = _FLAT_PAYOFF.match(text, pos)
            i = slot.get(p[1]) if p else None
            if i is None or entry[i] is not None:
                return None
            pos = p.end()
            _, minus, const, slope, tail_sign, tail, end = p.groups()
            if const:
                entry[i], entry[i + 1] = 0, -int(const) if minus else int(const)
            else:
                k, b = int(slope) if slope else 1, int(tail) if tail else 0
                entry[i], entry[i + 1] = -k if minus else k, -b if tail_sign == "-" else b
        if None in entry:  # an agent without a payoff
            return None
        payoff.append(tuple(entry))
    root = _FLAT_ROOT.match(text, pos)
    if (root is None or root[1] not in ids or len(ids) < len(owner)
            or not ids.keys().isdisjoint(RESERVED)):
        return None
    known = {None: 0, **ids}
    try:
        left, right = tuple(map(known.__getitem__, left)), tuple(map(known.__getitem__, right))
    except KeyError:  # a child that names no equation
        return None
    return CoSystem._from_columns(kind, roster, Ref(ids[root[1]], 0), tuple(owner), tuple(choice),
                                  left, tuple(left_shift), right, tuple(right_shift), tuple(payoff))


def parse(text: str) -> CoSystem:
    """Parse source text into an equation system, valid as every
    ``CoSystem`` is, or raise a positioned ``ParseError``; nothing else
    escapes, under any int/str conversion limit.

    The flat reader takes plain files; the token parser takes the rest
    (inline terms, rarer spellings) and raises every error.  Classes are
    numbered by the textual order of the named equations, then of the
    inline terms; this makes parse(render(x)) representation equal to x.
    """
    try:
        sys_ = _parse_flat(text)
    except ValueError:  # an integer past the int/str limit, which the token parser reports
        sys_ = None
    return sys_ if sys_ is not None else _Parser(text).parse_file()


def _render_affine(f: Affine) -> str:
    if f.slope == 0:
        return str(f.intercept)
    head = f"{f.slope}*n"
    if f.intercept > 0:
        return f"{head}+{f.intercept}"
    if f.intercept < 0:
        return f"{head}{f.intercept}"
    return head


def _render_ref(r: Ref) -> str:
    return f"c{r.cls}(n+{r.shift})" if r.shift else f"c{r.cls}(n)"


def _render_class(cls: NodeClass) -> str:
    if isinstance(cls, Leaf):
        body = ", ".join(f"{a}: {_render_affine(f)}" for a, f in sorted(cls.payoffs.items()))
        return f"leaf[{body}]"
    parts = [cls.owner]
    if cls.choice is not None:
        parts.append(cls.choice.value)
    parts.extend((_render_ref(cls.left), _render_ref(cls.right)))
    return f"<{', '.join(parts)}>"


def render(sys: CoSystem) -> str:
    """Canonical source text: sorted roster, one ``cI(n) = ...`` line per
    class, normalized affine spelling.  The root must sit at offset 0,
    which is the only root designation the grammar can express."""
    if sys.root.shift != 0:
        raise ValueError("only offset-0 roots are expressible in source form")
    lines = [f"{sys.kind} agents {' '.join(sys.roster)}"]
    lines.extend(f"c{i}(n) = {_render_class(cls)}" for i, cls in enumerate(sys.classes))
    lines.append(f"root c{sys.root.cls}")
    return "\n".join(lines) + "\n"
