import random
import re
import sys
from pathlib import Path

import pytest

from cogames import Affine, Choice, CoSystem, GAME, Leaf, Node, Ref, STRATEGY, validate
from cogames.dsl import ParseError, parse, render
from cogames import dsl, families
from cogames.cli import main, unbounded_int_digits

import helpers
from test_cli import run_json

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"

DOLLAR_AGU_ONE_LINER = (
    "strategy agents Alice Bob  "
    "agu(n) = <Alice, r, <Bob, r, agu(n+1), leaf[Alice: -2*n-1, Bob: -2*n-2]>, "
    "leaf[Alice: -2*n-1, Bob: -2*n]>  root agu"
)


# every payoff spelling that the flat reader takes, and its value
AFFINE_SPELLINGS = {
    "0": Affine(0, 0),
    "-7": Affine(0, -7),
    "n": Affine(1, 0),
    "n+3": Affine(1, 3),
    "n-3": Affine(1, -3),
    "-n": Affine(-1, 0),
    "2*n+1": Affine(2, 1),
    "2*n-1": Affine(2, -1),
    "-2*n-1": Affine(-2, -1),
    "-2*n": Affine(-2, 0),
    "2*n + 1": Affine(2, 1),
    "2*n - 1": Affine(2, -1),
    # a leading minus negates the leading term only
    "-n+2": Affine(-1, 2),
    "-n-2": Affine(-1, -2),
    "- 2*n+1": Affine(-2, 1),
    "- n + 2": Affine(-1, 2),
    "- 7": Affine(0, -7),
    # a minus glued to a zero tail, as "n - 0" and "n+0" are read
    "n-0": Affine(1, 0),
    "2*n-00": Affine(2, 0),
}


class TestParse:
    def test_inline_desugaring_matches_the_constructor(self):
        assert parse(DOLLAR_AGU_ONE_LINER) == families.dollar_auction_strategy("agu")

    def test_one_class_constant_game(self):
        sys_ = parse("game agents A  g(n) = leaf[A: 0]  root g")
        assert sys_ == CoSystem(GAME, ("A",), (Leaf({"A": Affine.const(0)}),), Ref(0))

    def test_forward_references(self):
        sys_ = parse("""
            strategy agents A
            top(n) = <A, l, bottom(n), bottom(n+3)>
            bottom(n) = leaf[A: n+1]
            root top
        """)
        assert sys_.classes[0] == Node("A", Choice.L, Ref(1, 0), Ref(1, 3))
        assert sys_.classes[1] == Leaf({"A": Affine(1, 1)})

    def test_affine_spellings(self):
        for text, expected in AFFINE_SPELLINGS.items():
            source = f"game agents A g(n) = leaf[A: {text}] root g"
            sys_ = parse(source)
            assert sys_.classes[0].payoffs["A"] == expected, text
            assert parse(render(sys_)) == sys_, text
            # every spelling here is one the flat reader takes
            assert dsl._parse_flat(source) == dsl._Parser(source).parse_file() == sys_, text


    def test_offset_spellings(self):
        # an offset is any integer token that is not negative
        sys_ = parse("game agents A g(n) = <A, g(n+-0), g(n+007)> root g")
        assert sys_.classes[0] == Node("A", None, Ref(0, 0), Ref(0, 7))

    def test_accepted_files_never_locate_a_token(self, monkeypatch):
        # positions are worked out only for an error
        def refuse(*args):
            raise AssertionError("a token position was worked out")

        monkeypatch.setattr(dsl, "_position", refuse)
        sources = [p.read_text() for p in sorted(GAMES_DIR.glob("*.cog"))]
        sources += [render(helpers.random_system(seed)) for seed in range(100)]
        sources.append(DOLLAR_AGU_ONE_LINER)
        for text in sources:
            parse(text)
            # most sources never reach the token parser through parse
            dsl._Parser(text).parse_file()


def wide_file(width: int) -> tuple[str, dict[str, dict[str, Affine]]]:
    """A game over ``width`` agents, declared in shuffled order, with a
    node chain whose leaves pay every spelling of ``AFFINE_SPELLINGS``,
    their items in roster, reversed and shuffled order; and each leaf's
    expected payoffs by equation name."""
    rng = random.Random(width)
    agents = [f"P{i}" for i in range(width)]
    spellings = list(AFFINE_SPELLINGS)
    leaves = []
    for order in (agents, agents[::-1], rng.sample(agents, width)):
        for k in range(len(spellings)):
            leaves.append([(a, spellings[(k + i) % len(spellings)]) for i, a in enumerate(order)])
    equations = []
    for i, items in enumerate(leaves):
        body = ", ".join(f"{a}: {spelling}" for a, spelling in items)
        equations.append(f"x{i}(n) = leaf[{body}]")
        equations.append(f"h{i}(n) = <P{i % width}, x{i}(n), h{(i + 1) % len(leaves)}(n+{i % 3})>")
    rng.shuffle(equations)
    lines = [f"game agents {' '.join(rng.sample(agents, width))}", *equations, "root h0"]
    expected = {f"x{i}": {a: AFFINE_SPELLINGS[spelling] for a, spelling in items}
                for i, items in enumerate(leaves)}
    return "\n".join(lines) + "\n", expected


def wide_file_missing_an_agent() -> str:
    """``wide_file(12)`` with one more leaf at the end that pays every
    agent but ``P7``."""
    text, _ = wide_file(12)
    body = ", ".join(f"P{i}: {i}" for i in range(12) if i != 7)
    return text.replace("root h0", f"last(n) = leaf[{body}]\nroot h0")


def respaced(text: str) -> str:
    """``text`` with spaces and tabs between all of its tokens."""
    return " \t".join(dsl._TOKEN.findall(text)) + "\t\n"


class TestFlatReader:
    def test_plain_files_never_reach_the_token_parser(self, monkeypatch):
        token_parser = dsl._Parser

        def refuse(text):
            raise AssertionError("the token parser was called")

        monkeypatch.setattr(dsl, "_Parser", refuse)
        sources = [p.read_text() for p in sorted(GAMES_DIR.glob("*.cog"))]
        sources += [render(helpers.random_system(seed)) for seed in range(100)]
        sources += [helpers.unrolled_dollar_auction(periods, seed)
                    for seed, periods in enumerate((1, 2, 7, 40))]
        assert "alice0(n+1)" in sources[-1] and "-80*n-1" in sources[-1]
        for text in sources + [respaced(text) for text in sources]:
            sys_ = parse(text)
            expected = token_parser(text).parse_file()
            assert sys_ == expected and repr(sys_) == repr(expected)

    @pytest.mark.parametrize("width", [1, 3, 12, 64, 200])
    def test_each_roster_width_reads_as_the_token_parser(self, width):
        # each payoff item fills its agent's slot, in whatever order the
        # leaf lists them
        text, expected = wide_file(width)
        for source in (text, respaced(text)):
            sys_ = dsl._parse_flat(source)
            tokens = dsl._Parser(source).parse_file()
            assert sys_ is not None and sys_ == tokens and repr(sys_) == repr(tokens)
        names = [line.split("(")[0] for line in text.splitlines()[1:-1]]
        for name, payoffs in expected.items():
            assert sys_.classes[names.index(name)].payoffs == payoffs, name

    @pytest.mark.parametrize("width", [64, 200])
    def test_wide_leaf_with_a_missing_or_repeated_agent_is_given_up(self, width):
        text = helpers.backbone_source(width)
        last = text.splitlines()[-2]
        head, body = last[:-1].split("[")
        items = body.split(", ")
        # the last agent missing; then the first one repeated in its place
        for broken in (items[:-1], items[:-1] + items[:1]):
            mutant = text.replace(last, f"{head}[{', '.join(broken)}]")
            assert dsl._parse_flat(mutant) is None
            with pytest.raises(ParseError):
                parse(mutant)

    def test_one_compiled_equation_pattern_serves_every_width(self, monkeypatch):
        patterns = {name: value for name, value in vars(dsl).items() if isinstance(value, re.Pattern)}

        def refuse(*args, **kwargs):
            raise AssertionError("a pattern was compiled while reading")

        monkeypatch.setattr(re, "compile", refuse)
        for width in (1, 2, 3, 64, 200):
            assert dsl._parse_flat(helpers.backbone_source(width)) is not None
        assert {name: value for name, value in vars(dsl).items()
                if isinstance(value, re.Pattern)} == patterns

    # (source, why the flat reader gives it up); parse must then return the
    # token parser's system or raise its error
    GIVEN_UP = [
        (DOLLAR_AGU_ONE_LINER, "inline term"),
        ("game agents A g(n) = <A, g(n), leaf[A: 0]> root g", "inline leaf"),
        ("game agents A leaf(n) = leaf[A: 0] root leaf", "reserved equation name"),
        ("game agents A n g(n) = leaf[A: 0, n: 1] root g", "reserved agent"),
        ("game agents A A g(n) = leaf[A: 0] root g", "duplicate agent"),
        ("game agents A g(n) = leaf[A: 0] g(n) = leaf[A: 1] root g", "duplicate equation"),
        ("game agents A g(n) = <A, g(n), h(n)> root g", "unknown ref"),
        ("game agents A g(n) = leaf[A: 0] root h", "unknown root"),
        ("game agents A g(n) = <B, g(n), g(n)> root g", "unknown owner"),
        ("game agents A g(n) = leaf[B: 0] root g", "unknown leaf agent"),
        ("game agents A B g(n) = leaf[A: 0, A: 1] root g", "duplicate leaf agent"),
        ("game agents A B g(n) = leaf[A: 0] root g", "leaf misses an agent"),
        ("game agents A g(n) = leaf[A: 0, A: 1] root g", "leaf item past the roster"),
        ("game agents A B C g(n) = leaf[A: 0, B: 1, A: 2] root g",
         "full-width leaf repeats an agent and misses another"),
        (wide_file_missing_an_agent(), "last leaf of a wide roster misses an agent"),
        ("game agents A g(n) = <A, l, g(n), g(n)> root g", "choice in a game"),
        ("strategy agents A g(n) = <A, g(n), g(n)> root g", "no choice in a strategy"),
        ("game agents A g(n) = leaf[A: --5] root g", "double minus"),
        ("game agents A g(n) = leaf[A: n+-0] root g", "signed tail after plus"),
        ("game agents A g(n) = <A, g(n+-0), g(n)> root g", "signed offset"),
        ("game agents A g(n) = leaf[A: 5+1] root g", "tail on a constant"),
        ("game agents A g(n) = leaf[A: 0] root g g", "trailing input"),
        ("game agents A g(n) = leaf[A: 0] root g )", "trailing punctuation"),
        ("game agents A g(n) = leaf[A: ٣] root g", "non-ASCII digit"),
        ("game agents Åsa g(n) = leaf[Åsa: 0] root g", "non-ASCII agent"),
        ("game agents A g(n) = leaf[A: 0]\x1croot g", "whitespace outside ASCII's \\s"),
        ("strategy agents Annc0(n) = <Ann, l, c0(n), c0(n)> root c0",
         "agent glued to the first equation name"),
        ("game agents A rootg(n) = leaf[A: 0] root g", "root glued to an agent"),
        ("game agents A g(n) = leaf[A: 0] rootg", "root glued to its name"),
        ("game agents A g(n) = leaf[A: 0]", "no root"),
        ("game agents A root g", "no equation"),
    ]

    @pytest.mark.parametrize("source, why", GIVEN_UP, ids=[why for _, why in GIVEN_UP])
    def test_gives_up_on_other_spellings_without_raising(self, source, why):
        assert dsl._parse_flat(source) is None
        try:
            expected = dsl._Parser(source).parse_file()
        except ParseError as err:
            with pytest.raises(type(err)) as again:
                parse(source)
            assert str(again.value) == str(err)
        else:
            assert parse(source) == expected


#: (source, str(error), line, col, expected) for malformed inputs; every
#: error is a plain ParseError.
ERROR_TABLE = [
    ("strategy agents A\nx(n) = <A, l, x(n), >\nroot x",
     "2:21: found '>' (expected an equation name or inline term)", 2, 21,
     ("an equation name or inline term",)),
    ("strategy agents A\n\tx(n) =\t<A,\tl, x(n), x(n)>\n\troot\t y",
     "3:8: unknown equation 'y'", 3, 8, ()),
    ("game agents A\n\tg(n) = leaf[A:\t@] root g",
     "2:17: unexpected character '@'", 2, 17, ()),
    ("strategy agents A\r\ng(n) = <A, l, g(n), g(n)>\r\nroot g h",
     "3:8: trailing input 'h' (expected end of file)", 3, 8, ("end of file",)),
    ("game agents A g(n) = leaf[A: 0] root",
     "1:37: found 'end of input' (expected an equation name)", 1, 37,
     ("an equation name",)),
    ("game agents A g(n) = leaf[A: 0]\n",
     "2:1: found 'end of input' (expected an equation header)", 2, 1,
     ("an equation header",)),
    ("game agents A g(n) = leaf[A: 0",
     "1:31: found 'end of input' (expected ']')", 1, 31, ("']'",)),
    ("game agents A\ng(n) = <A, g(n),  \n  ",
     "3:3: found 'end of input' (expected an equation name or inline term)", 3, 3,
     ("an equation name or inline term",)),
    ("",
     "1:1: found 'end of input' (expected 'strategy' or 'game')", 1, 1,
     ("'strategy' or 'game'",)),
    ("game agents A g(n) = leaf[A: -x] root g",
     "1:31: found 'x' (expected an integer, n, '-')", 1, 31, ("an integer", "n", "'-'")),
    ("game agents A g(n) = leaf[A: n - x] root g",
     "1:34: found 'x' (expected an integer)", 1, 34, ("an integer",)),
    ("game agents A g(n) = leaf[A: - ] root g",
     "1:32: found ']' (expected an integer, n, '-')", 1, 32, ("an integer", "n", "'-'")),
    ("game agents A\ng(n) = leaf[A: 0, B: 1]\nroot g",
     "2:19: unknown agent 'B'", 2, 19, ()),
    ("game agents A\ng(n) = <B, g(n), g(n)>\nroot g",
     "2:9: unknown agent 'B'", 2, 9, ()),
    ("game agents A\ng(n) = <A, g(n),\n   h(n+1)>\nroot g",
     "3:4: unknown equation 'h'", 3, 4, ()),
    ("strategy agents A\ng(n) = <A, l, <A, r, leaf[A: 0],\n  <A, l, g(n), q(n)>>, g(n)>\nroot g",
     "3:16: unknown equation 'q'", 3, 16, ()),
    ("strategy agents A\ng(n) = <A, l, <A, r, leaf[A: 0], g(n), g(n)> root g",
     "2:38: found ',' (expected '>')", 2, 38, ("'>'",)),
    ("game agents A\ng(n) = leaf[A: 0]\nroot h\n",
     "3:6: unknown equation 'h'", 3, 6, ()),
    ("game agents A g(n) = <A, l, g(n), g(n)> root g",
     "1:26: choice annotation in a game-kind file", 1, 26, ()),
    ("strategy agents A g(n) = <A, g(n), g(n)> root g",
     "1:30: strategy node needs a choice, found 'g' (expected l, r)", 1, 30, ("l", "r")),
    ("game agents A g(n) = <A, g(n+-1), g(n)> root g",
     "1:30: found '-1' (expected a natural offset)", 1, 30, ("a natural offset",)),
    ("game agents A g(n) = leaf[A: 2*m] root g",
     "1:32: found 'm' (expected n)", 1, 32, ("n",)),
    ("play agents A g(n) = leaf[A: 0] root g",
     "1:1: file must start with 'strategy' or 'game' (expected strategy, game)", 1, 1,
     ("strategy", "game")),
    ("game agents A\ng(n) = leaf[A: 0]\ng(n) = leaf[A: 1]\nroot g",
     "3:1: duplicate equation 'g'", 3, 1, ()),
    ("game agents leaf g(n) = leaf[A: 0] root g",
     "1:13: 'leaf' is reserved and cannot name an agent", 1, 13, ()),
    ("game agents A g(x) = leaf[A: 0] root g",
     "1:15: at least one equation is required (expected equation)", 1, 15,
     ("equation",)),
    # each row below stops the parser at a different token of a common spelling
    ("game agents A\nc0(n) = <A, c0(n+x), c0(n)>\nroot c0",
     "2:18: found 'x' (expected a natural offset)", 2, 18, ("a natural offset",)),
    ("game agents A\nc0(n) = <A, c0(n+), c0(n)>\nroot c0",
     "2:18: found ')' (expected a natural offset)", 2, 18, ("a natural offset",)),
    ("game agents A\nc0(n) = <A, c0(n",
     "2:17: found 'end of input' (expected ')')", 2, 17, ("')'",)),
    ("game agents A B\nc0(n) = leaf[A: 1 B: 2]\nroot c0",
     "2:19: found 'B' (expected ']')", 2, 19, ("']'",)),
    ("strategy agents A\nc0(n) = <A, l, c0(n) c1(n)>\nc1(n) = leaf[A: 0]\nroot c0",
     "2:22: found 'c1' (expected ',')", 2, 22, ("','",)),
    ("game agents A\ng(n) leaf[A: 0]\ng(n) = leaf[A: 1]\nroot g",
     "2:6: found 'leaf' (expected '=')", 2, 6, ("'='",)),
    ("game agents A\ng(n) = leaf[A: 0]\ng(m) = leaf[A: 1]\nroot g",
     "3:3: found 'm' (expected n)", 3, 3, ("n",)),
    ("game agents Åsa Þór\ng(n) = <Þór, g(n), leaf[Åsa: 0, Þór: x]>\nroot g",
     "2:38: found 'x' (expected an integer, n, '-')", 2, 38,
     ("an integer", "n", "'-'")),
    ("game agents Åsa Þór\ng(n) = <Þór, g(n), leaf[Åsa: 0, Þór: 1]>\nroot h",
     "3:6: unknown equation 'h'", 3, 6, ()),
    ("game agents A g(n) = leaf[A: 0] root g )",
     "1:40: trailing input ')' (expected end of file)", 1, 40, ("end of file",)),
    # every leaf covers the roster; the error sits at the closing bracket
    (helpers.INCOMPLETE_LEAF, "2:18: leaf gives no payoff to 'B'", 2, 18, ()),
    ("game agents B A\ng(n) = <A, leaf[A: 0], g(n)>\nroot g",
     "2:21: leaf gives no payoff to 'B'", 2, 21, ()),
    # an error at the end of the input names it 'end of input', and an
    # expected keyword is named bare, whatever token stands in its place
    ("game agents A\nc0(n) = <A, c0(n+",
     "2:18: found 'end of input' (expected a natural offset)", 2, 18,
     ("a natural offset",)),
    ("game agents A\nc0(n) = leaf[A: n -",
     "2:20: found 'end of input' (expected an integer)", 2, 20, ("an integer",)),
    ("strategy agents A\nc0(n) = <A, ",
     "2:13: strategy node needs a choice, found 'end of input' (expected l, r)", 2, 13,
     ("l", "r")),
    ("game agents A\nc0(n) = leaf[A: 2*]\nroot c0",
     "2:19: found ']' (expected n)", 2, 19, ("n",)),
    ("game agents A g(n) = <A, g(), g(n)> root g",
     "1:28: found ')' (expected n)", 1, 28, ("n",)),
    ("game 5 A\nc0(n) = leaf[A: 0]\nroot c0",
     "1:6: found '5' (expected agents)", 1, 6, ("agents",)),
    ("game foo A\nc0(n) = leaf[A: 0]\nroot c0",
     "1:6: found 'foo' (expected agents)", 1, 6, ("agents",)),
    # one line each
    ("game agents A g(n) = leaf[B: 0] root g",
     "1:27: unknown agent 'B'", 1, 27, ()),
    ("game agents A g(n) = <B, g(n), g(n)> root g",
     "1:23: unknown agent 'B'", 1, 23, ()),
    ("game agents A g(n) = <A, h(n), g(n)> root g",
     "1:26: unknown equation 'h'", 1, 26, ()),
    ("game agents A g(n) = leaf[A: 0] root h",
     "1:38: unknown equation 'h'", 1, 38, ()),
    ("game agents A g(n) = leaf[A: 0] g(n) = leaf[A: 1] root g",
     "1:33: duplicate equation 'g'", 1, 33, ()),
    ("game agents A B g(n) = leaf[A: 0, A: 1] root g",
     "1:35: duplicate agent 'A' in leaf", 1, 35, ()),
    ("game agents leaf g(n) = leaf[leaf: 0] root g",
     "1:13: 'leaf' is reserved and cannot name an agent", 1, 13, ()),
    ("game agents A n(n) = leaf[A: 0] root n",
     "1:15: 'n' is reserved and cannot name an equation", 1, 15, ()),
    ("game agents A g(n) = leaf[A: 0] root g leftovers",
     "1:40: trailing input 'leftovers' (expected end of file)", 1, 40, ("end of file",)),
]


@pytest.mark.parametrize("source, message, line, col, expected", ERROR_TABLE)
def test_error_messages_and_positions(source, message, line, col, expected):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert type(err.value) is ParseError
    assert (str(err.value), err.value.line, err.value.col, err.value.expected) == \
        (message, line, col, expected)
    helpers.check_error_names_its_token(source, err.value)


class TestHostileInputs:
    @pytest.mark.parametrize("payoff, col", [("²", 34), ("-²", 35), ("1²", 35), ("½", 34)])
    def test_non_decimal_digit_is_a_positioned_error(self, capsys, tmp_path, payoff, col):
        path = tmp_path / "digit.cog"
        path.write_text(f"strategy agents A g(n) = leaf[A: {payoff}] root g\n", encoding="utf-8")
        assert main(["check", str(path), "--ltl"]) == 2
        char = payoff[-1]
        assert capsys.readouterr().err == f"error: {path}: 1:{col}: unexpected character {char!r}\n"

    def test_unicode_decimal_digits_are_integers(self):
        sys_ = parse("game agents A g(n) = leaf[A: -٣*n+١٢] root g")
        assert sys_.classes[0].payoffs["A"] == Affine(-3, 12)

    def test_deep_inline_nesting(self, capsys, tmp_path):
        depth = 5000
        source = ("strategy agents A g(n) = " + "<A, l, " * depth + "leaf[A: 0]"
                  + ", g(n)>" * depth + " root g\n")
        sys_ = parse(source)
        # fresh classes in order of appearance: each inline node is the left
        # child of the one before it
        assert len(sys_.classes) == depth + 1
        assert all(sys_.classes[i].left == Ref(i + 1) for i in range(depth))
        assert parse(render(sys_)) == sys_
        path = tmp_path / "deep.cog"
        path.write_text(source)
        code, report = run_json(capsys, "check", str(path), "--ltl")
        assert code == 0
        assert [c["outcome"] for c in report["checks"]] == ["holds"]

    @pytest.mark.parametrize("source, col", zip(helpers.PAST_THE_DIGIT_LIMIT, (17, 21, 21)))
    def test_integers_past_the_callers_digit_limit_are_positioned_errors(self, source, col):
        limit = sys.int_info.default_max_str_digits
        with helpers.default_int_digits(), pytest.raises(ParseError) as err:
            parse(source)
        assert (err.value.line, err.value.col) == (2, col)
        assert str(err.value) == (f"2:{col}: integer past the int/str limit of {limit} digits "
                                  "(sys.set_int_max_str_digits)")

    def test_integers_past_the_default_digit_limit_round_trip(self):
        big = 10 ** 5000 - 1  # 5 000 nines, past CPython's default 4 300 digits
        sys_ = CoSystem(GAME, ("A",), (Node("A", None, Ref(0, big), Ref(1)),
                                       Leaf({"A": Affine(-big, big)})))
        with unbounded_int_digits():
            assert parse(render(sys_)) == sys_


class TestRender:
    def test_round_trip_on_seeded_systems(self):
        for seed in range(500):
            sys_ = helpers.random_system(seed)
            text = render(sys_)
            again = parse(text)
            assert again == sys_, f"seed {seed}"
            assert render(again) == text  # idempotent on accepted text

    def test_canonical_forms(self):
        text = render(families.dollar_auction_strategy("agu"))
        assert "leaf[Alice: -2*n-1, Bob: -2*n-2]" in text
        assert text.splitlines()[0] == "strategy agents Alice Bob"
        assert text.endswith("root c0\n")

    def test_roster_is_sorted(self):
        sys_ = CoSystem(GAME, ("Zed", "Ann"), (Leaf({"Zed": Affine.const(0), "Ann": Affine.const(1)}),))
        assert render(sys_).splitlines()[0] == "game agents Ann Zed"

    def test_nonzero_root_shift_unrepresentable(self):
        sys_ = CoSystem(GAME, ("A",), (Leaf({"A": Affine.const(0)}),), Ref(0, 2))
        with pytest.raises(ValueError):
            render(sys_)


class TestShippedFiles:
    CONSTRUCTORS = {
        "dollar_auction.cog": families.dollar_auction_game,
        "dollar_auction_agu.cog": lambda: families.dollar_auction_strategy("agu"),
        "dollar_auction_ngu.cog": lambda: families.dollar_auction_strategy("ngu"),
        "centipede.cog": families.centipede_game,
        "centipede_agu.cog": lambda: families.centipede_strategy("agu"),
        "centipede_ngu.cog": lambda: families.centipede_strategy("ngu"),
        "paper_s0.cog": families.finite_example_strategy,
    }

    def test_files_are_byte_identical_to_rendered_constructors(self):
        for name, build in self.CONSTRUCTORS.items():
            assert (GAMES_DIR / name).read_text() == render(build()), name

    def test_files_parse_to_the_constructors_systems(self):
        assert sorted(p.name for p in GAMES_DIR.glob("*.cog")) == sorted(self.CONSTRUCTORS)
        for name, build in self.CONSTRUCTORS.items():
            sys_ = parse((GAMES_DIR / name).read_text())
            assert sys_ == build(), name
            assert validate(sys_).holds
