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

A ``-`` glued to digits is part of the integer literal, so the canonical
spelling ``-2*n-1`` denotes slope -2, intercept -1; a leading ``-``
negates the leading term only, so ``-n+2`` denotes slope -1, intercept 2.
Inline terms in ref position desugar to fresh classes, numbered after
the named equations in order of appearance.  The printer emits one equation per class, named
``c0``, ``c1``, ..., with sorted rosters and payoff keys and normalized
``a*n+b`` affine spelling; parse/print round-trips are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .system import Affine, Choice, CoSystem, GAME, Leaf, Node, NodeClass, Ref, STRATEGY

RESERVED = {"strategy", "game", "agents", "root", "leaf", "l", "r", "n"}

_PUNCT = set("()[]<>,:=+-*")


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "punct", "eof"
    text: str
    value: int
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], 0, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, 0, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("eof", "", 0, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.kind = ""
        self.roster: list[str] = []
        self.eq_ids: dict[str, int] = {}
        self.classes: dict[int, NodeClass] = {}
        self.next_fresh = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = (), cls=ParseError) -> ParseError:
        tok = self.peek()
        return cls(message, tok.line, tok.col, expected)

    def expect_punct(self, ch: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            raise self.fail(f"found {tok.text or 'end of input'!r}", (repr(ch),))
        return self.advance()

    def expect_ident(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail(f"found {tok.text or 'end of input'!r}", (what,))
        return self.advance()

    def expect_name(self, what: str) -> _Token:
        tok = self.expect_ident(what)
        if tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is reserved and cannot name {what}", tok.line, tok.col)
        return tok

    # ---- file structure

    def parse_file(self) -> CoSystem:
        head = self.expect_ident("'strategy' or 'game'")
        if head.text not in (STRATEGY, GAME):
            raise ParseError("file must start with 'strategy' or 'game'", head.line, head.col,
                             ("strategy", "game"))
        self.kind = head.text
        agents_kw = self.expect_ident("'agents'")
        if agents_kw.text != "agents":
            raise ParseError(f"found {agents_kw.text!r}", agents_kw.line, agents_kw.col, ("agents",))
        while (self.peek().kind == "ident" and self.peek().text != "root"
               and not (self.peek(1).kind == "punct" and self.peek(1).text == "(")):
            tok = self.expect_name("an agent")
            if tok.text in self.roster:
                raise ParseError(f"duplicate agent {tok.text!r}", tok.line, tok.col)
            self.roster.append(tok.text)
        if not self.roster:
            raise self.fail("at least one agent is required", ("agent name",))

        self._prescan_equations()
        self.next_fresh = len(self.eq_ids)
        if not self.eq_ids:
            raise self.fail("at least one equation is required", ("equation",))

        while not (self.peek().kind == "ident" and self.peek().text == "root"):
            self._parse_equation()
        self.advance()  # root
        name = self.expect_ident("an equation name")
        if name.text not in self.eq_ids:
            raise UnknownEquationError(f"unknown equation {name.text!r}", name.line, name.col)
        tail = self.peek()
        if tail.kind != "eof":
            raise self.fail(f"trailing input {tail.text!r}", ("end of file",))

        ordered = tuple(self.classes[i] for i in range(len(self.classes)))
        return CoSystem(self.kind, tuple(self.roster), ordered, Ref(self.eq_ids[name.text], 0))

    def _prescan_equations(self) -> None:
        """Equation headers (ident "(n)" "=") are syntactically unambiguous,
        so names can be collected up front to allow forward references."""
        toks = self.tokens
        for i in range(self.pos, len(toks) - 4):
            if (toks[i].kind == "ident"
                    and toks[i + 1].kind == "punct" and toks[i + 1].text == "("
                    and toks[i + 2].kind == "ident" and toks[i + 2].text == "n"
                    and toks[i + 3].kind == "punct" and toks[i + 3].text == ")"
                    and toks[i + 4].kind == "punct" and toks[i + 4].text == "="):
                name = toks[i]
                if name.text in RESERVED:
                    raise ParseError(f"{name.text!r} is reserved and cannot name an equation",
                                     name.line, name.col)
                if name.text in self.eq_ids:
                    raise ParseError(f"duplicate equation {name.text!r}", name.line, name.col)
                self.eq_ids[name.text] = len(self.eq_ids)

    def _parse_equation(self) -> None:
        name = self.expect_ident("an equation header")
        if name.text not in self.eq_ids:
            raise ParseError(f"found {name.text!r}", name.line, name.col,
                             ("equation header", "root"))
        self.expect_punct("(")
        n_tok = self.expect_ident("'n'")
        if n_tok.text != "n":
            raise ParseError(f"found {n_tok.text!r}", n_tok.line, n_tok.col, ("n",))
        self.expect_punct(")")
        self.expect_punct("=")
        self.classes[self.eq_ids[name.text]] = self._parse_term()

    # ---- terms

    def _parse_term(self) -> NodeClass:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "leaf":
            return self._parse_leaf()
        if tok.kind == "punct" and tok.text == "<":
            return self._parse_node()
        raise self.fail(f"found {tok.text or 'end of input'!r}", ("leaf", "'<'"))

    def _parse_leaf(self) -> Leaf:
        self.advance()  # leaf
        self.expect_punct("[")
        payoffs: dict[str, Affine] = {}
        while True:
            agent = self.expect_ident("an agent name")
            if agent.text not in self.roster:
                raise UnknownAgentError(f"unknown agent {agent.text!r}", agent.line, agent.col)
            if agent.text in payoffs:
                raise ParseError(f"duplicate agent {agent.text!r} in leaf", agent.line, agent.col)
            self.expect_punct(":")
            payoffs[agent.text] = self._parse_affine()
            if self.peek().kind == "punct" and self.peek().text == ",":
                self.advance()
                continue
            break
        self.expect_punct("]")
        return Leaf(payoffs)

    def _parse_node(self) -> Node:
        self.expect_punct("<")
        owner = self.expect_ident("an agent name")
        if owner.text not in self.roster:
            raise UnknownAgentError(f"unknown agent {owner.text!r}", owner.line, owner.col)
        self.expect_punct(",")
        choice: Choice | None = None
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("l", "r") \
                and self.peek(1).kind == "punct" and self.peek(1).text == ",":
            if self.kind == GAME:
                raise ChoiceInGameKindError("choice annotation in a game-kind file",
                                            tok.line, tok.col)
            choice = Choice(tok.text)
            self.advance()
            self.expect_punct(",")
        elif self.kind == STRATEGY:
            raise self.fail(f"strategy node needs a choice, found {tok.text!r}", ("l", "r"))
        left = self._parse_ref()
        self.expect_punct(",")
        right = self._parse_ref()
        self.expect_punct(">")
        return Node(owner.text, choice, left, right)

    def _parse_ref(self) -> Ref:
        tok = self.peek()
        if (tok.kind == "punct" and tok.text == "<") or (tok.kind == "ident" and tok.text == "leaf"):
            fresh = self.next_fresh
            self.next_fresh += 1
            self.classes[fresh] = self._parse_term()
            return Ref(fresh, 0)
        name = self.expect_ident("an equation name or inline term")
        if name.text not in self.eq_ids:
            raise UnknownEquationError(f"unknown equation {name.text!r}", name.line, name.col)
        self.expect_punct("(")
        n_tok = self.expect_ident("'n'")
        if n_tok.text != "n":
            raise ParseError(f"found {n_tok.text!r}", n_tok.line, n_tok.col, ("n",))
        shift = 0
        if self.peek().kind == "punct" and self.peek().text == "+":
            self.advance()
            k = self.peek()
            if k.kind != "int" or k.value < 0:
                raise self.fail(f"found {k.text!r}", ("a natural offset",))
            self.advance()
            shift = k.value
        self.expect_punct(")")
        return Ref(self.eq_ids[name.text], shift)

    # ---- affine payoffs

    def _parse_affine(self) -> Affine:
        tok = self.peek()
        sign = 1
        if tok.kind == "punct" and tok.text == "-":
            self.advance()
            tok, sign = self.peek(), -1
        if tok.kind == "ident" and tok.text == "n":
            self.advance()
            return Affine(sign, self._parse_tail())
        if tok.kind == "int":
            self.advance()
            if self.peek().kind == "punct" and self.peek().text == "*":
                self.advance()
                n_tok = self.expect_ident("'n'")
                if n_tok.text != "n":
                    raise ParseError(f"found {n_tok.text!r}", n_tok.line, n_tok.col, ("n",))
                return Affine(sign * tok.value, self._parse_tail())
            return Affine(0, sign * tok.value)
        raise self.fail(f"found {tok.text or 'end of input'!r}", ("an integer", "n", "'-'"))

    def _parse_tail(self) -> int:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "+":
            self.advance()
            val = self.peek()
            if val.kind != "int":
                raise self.fail(f"found {val.text!r}", ("an integer",))
            self.advance()
            return val.value
        if tok.kind == "punct" and tok.text == "-":
            self.advance()
            val = self.peek()
            if val.kind != "int":
                raise self.fail(f"found {val.text!r}", ("an integer",))
            self.advance()
            return -val.value
        if tok.kind == "int" and tok.value < 0:
            self.advance()
            return tok.value
        return 0


def parse(text: str) -> CoSystem:
    """Parse source text into an equation system.

    Classes are numbered by the textual order of the named equations,
    then of the inline terms; this makes parse(render(x)) representation
    equal to x.
    """
    return _Parser(_tokenize(text)).parse_file()


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
