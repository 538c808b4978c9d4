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
from the offset.  An error that names the token where the parser stopped
names it by its text's repr, and the end of the input as ``'end of
input'``; it names an expected keyword bare and expected punctuation by
its repr.

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
the grammar, and it raises every error, each a ``ParseError`` with its
message, ``line:col`` and expected tokens.  So the flat reader also
gives up on an invalid system and on an integer past the caller's limit.
"""

from __future__ import annotations

import re
import sys

from .system import Affine, CHOICES, Choice, CoSystem, GAME, Leaf, Node, NodeClass, Ref, STRATEGY

RESERVED = {"strategy", "game", "agents", "root", "leaf", "l", "r", "n"}

# A token's first character gives its kind: a letter or ``_`` starts an
# identifier, a decimal digit or a ``-`` followed by digits an integer, and
# anything else is one punctuation character.  A punctuation token's text is
# never the text of an identifier or an integer, and keywords are
# identifiers, so the parser compares token texts.  ``findall`` skips
# whitespace and the characters ``_BAD`` finds, which no token can hold.
_TOKEN = re.compile(r"[^\W\d]\w*|-?\d+|[()\[\]<>,:=+*-]")
_BAD = re.compile(r"[^\w\s()\[\]<>,:=+*-]")

_OpenNode = tuple[int, str, Choice | None, list[Ref]]  # class id, owner, choice, refs so far


class ParseError(ValueError):
    """Positioned syntax or static error in a source file."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


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
    """Parser over token texts, with one cursor ``pos``."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.kind = ""
        self.roster: list[str] = []
        self.eq_ids: dict[str, int] = {}
        self.classes: dict[int, NodeClass] = {}
        self.next_fresh = 0

    def error(self, message: str, expected: tuple[str, ...] = (), at: int | None = None) -> ParseError:
        """The error at token ``at``, the cursor's by default, positioned
        by one scan of the text."""
        index = self.pos if at is None else at
        return ParseError(message, *_position(self.text, _offset(self.text, index)), expected)

    def found(self, *expected: str, what: str = "found") -> ParseError:
        """The error that names the token at the cursor after ``what``;
        past the last token, that is ``'end of input'``."""
        return self.error(f"{what} {self.tokens[self.pos] or 'end of input'!r}", expected)

    def expect(self, token: str) -> None:
        """Step over ``token``: a keyword, which an error names bare, or a
        punctuation character, which it names by its repr."""
        if self.tokens[self.pos] != token:
            raise self.found(token if _is_ident(token) else repr(token))
        self.pos += 1

    def expect_ident(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if not _is_ident(tok):
            raise self.found(what)
        self.pos += 1
        return tok

    def expect_agent(self) -> str:
        tok = self.expect_ident("an agent name")
        if tok not in self.roster:
            raise self.error(f"unknown agent {tok!r}", at=self.pos - 1)
        return tok

    def expect_equation(self, what: str) -> int:
        """Step over a name of an equation and return its class id."""
        name = self.expect_ident(what)
        if name not in self.eq_ids:
            raise self.error(f"unknown equation {name!r}", at=self.pos - 1)
        return self.eq_ids[name]

    def take_int(self, *expected: str, natural: bool = False) -> int:
        """Step over the integer at the cursor, a natural number if
        ``natural``, and return its value; any other token is an error that
        names ``expected``.  ``int`` refuses an integer token only past the
        caller's int/str conversion limit."""
        tok = self.tokens[self.pos]
        if not _is_int(tok):
            raise self.found(*expected)
        try:
            value = int(tok)
        except ValueError:
            raise self.error(f"integer past the int/str limit of {sys.get_int_max_str_digits()} "
                             "digits (sys.set_int_max_str_digits)") from None
        if natural and value < 0:
            raise self.found(*expected)
        self.pos += 1
        return value

    # ---- file structure

    def parse_file(self) -> CoSystem:
        toks = self.tokens
        self.kind = self.expect_ident("'strategy' or 'game'")
        if self.kind not in (STRATEGY, GAME):
            raise self.error("file must start with 'strategy' or 'game'", ("strategy", "game"), at=0)
        self.expect("agents")
        while (_is_ident(toks[self.pos]) and toks[self.pos] != "root"
               and toks[self.pos + 1] != "("):
            agent = toks[self.pos]
            if agent in RESERVED:
                raise self.error(f"{agent!r} is reserved and cannot name an agent")
            if agent in self.roster:
                raise self.error(f"duplicate agent {agent!r}")
            self.roster.append(agent)
            self.pos += 1
        if not self.roster:
            raise self.error("at least one agent is required", ("agent name",))

        self._prescan_equations()
        self.next_fresh = len(self.eq_ids)
        if not self.eq_ids:
            raise self.error("at least one equation is required", ("equation",))

        while toks[self.pos] != "root":
            self._parse_equation()
        self.pos += 1  # root
        root = self.expect_equation("an equation name")
        if toks[self.pos]:
            raise self.found("end of file", what="trailing input")

        ordered = tuple(self.classes[i] for i in range(len(self.classes)))
        return CoSystem(self.kind, tuple(self.roster), ordered, Ref(root, 0))

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
                    raise self.error(f"{name!r} is reserved and cannot name an equation", at=i - 4)
                if name in self.eq_ids:
                    raise self.error(f"duplicate equation {name!r}", at=i - 4)
                self.eq_ids[name] = len(self.eq_ids)

    def _parse_equation(self) -> None:
        name = self.tokens[self.pos]
        if name not in self.eq_ids:
            raise (self.found("equation header", "root") if _is_ident(name)
                   else self.found("an equation header"))
        self.pos += 1
        for token in ("(", "n", ")", "="):
            self.expect(token)
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
                raise self.found("leaf", "'<'")
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
                self.expect(">")
                open_nodes.pop()
                self.classes[cid] = Node(owner, choice, refs[0], refs[1])
                continue
            if refs:
                self.expect(",")
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
        self.expect("[")
        payoffs: dict[str, Affine] = {}
        while True:
            agent = self.expect_agent()
            if agent in payoffs:
                raise self.error(f"duplicate agent {agent!r} in leaf", at=self.pos - 1)
            self.expect(":")
            payoffs[agent] = self._parse_affine()
            if self.tokens[self.pos] != ",":
                break
            self.pos += 1
        self.expect("]")
        if len(payoffs) < len(self.roster):
            missing = next(agent for agent in self.roster if agent not in payoffs)
            raise self.error(f"leaf gives no payoff to {missing!r}", at=self.pos - 1)
        return Leaf(payoffs)

    def _parse_node_head(self, cid: int) -> _OpenNode:
        """``"<" owner ("," choice)? ","``: an open node for class ``cid``."""
        self.pos += 1  # <
        owner = self.expect_agent()
        self.expect(",")
        choice = CHOICES.get(self.tokens[self.pos])
        if choice is not None and self.tokens[self.pos + 1] == ",":
            if self.kind == GAME:
                raise self.error("choice annotation in a game-kind file")
            self.pos += 2
        elif self.kind == STRATEGY:
            raise self.found("l", "r", what="strategy node needs a choice, found")
        else:
            choice = None
        return cid, owner, choice, []

    def _parse_named_ref(self) -> Ref:
        cid = self.expect_equation("an equation name or inline term")
        self.expect("(")
        self.expect("n")
        shift = 0
        if self.tokens[self.pos] == "+":
            self.pos += 1
            shift = self.take_int("a natural offset", natural=True)
        self.expect(")")
        return Ref(cid, shift)

    # ---- affine payoffs

    def _parse_affine(self) -> Affine:
        """``"-"? (int | int "*n" tail? | "n" tail?)``, where a tail is
        ``"+" int``, ``"-" int`` or an integer glued to its minus sign."""
        toks = self.tokens
        slope = 1
        if toks[self.pos] == "-":
            self.pos += 1
            slope = -1
        if toks[self.pos] != "n":
            slope *= self.take_int("an integer", "n", "'-'")
            if toks[self.pos] != "*":
                return Affine(0, slope)
            self.pos += 1  # *
        self.expect("n")
        tail = toks[self.pos]
        if tail == "+" or tail == "-":
            self.pos += 1
            value = self.take_int("an integer")
            return Affine(slope, value if tail == "+" else -value)
        if tail[:1] == "-":  # an integer glued to its minus sign, "-0" too
            return Affine(slope, self.take_int("an integer"))
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
        choice.append(c and CHOICES[c])
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
