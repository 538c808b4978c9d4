"""Property tests on mutated sources: every one parses to a valid system or
raises a positioned ParseError (at the token that it names, if it names
one), and the flat reader either gives it up or reads the system the token
parser reads.

Sources are the shipped games and rendered seeded systems, mutated by
inserting, deleting or truncating characters drawn from the grammar's
alphabet plus a few non-ASCII letters and digits, and digit runs longer
than CPython's default int/str conversion limit (4 300 digits).  The tests
here lift that limit, as ``cogames.cli.main`` does, and the parse property
runs a second time under the default limit.  Any exception other than
``ParseError`` fails the test.
"""

from pathlib import Path

import pytest

from cogames import CoSystem, validate
from cogames import dsl
from cogames.cli import unbounded_int_digits
from cogames.dsl import ParseError, parse, render

import helpers

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"

# the last two hold integers past CPython's default int/str conversion limit
SOURCES = ([p.read_text() for p in sorted(GAMES_DIR.glob("*.cog"))]
           + [render(helpers.random_system(seed)) for seed in range(40)]
           + [f"strategy agents Ann\nc0(n) = leaf[Ann: {'1' * 5000}]\nroot c0\n",
              f"strategy agents Ann\nc0(n) = <Ann, l, c1(n+{'9' * 3000}), c1(n)>\n"
              f"c1(n) = leaf[Ann: {'9' * 3000}*n]\nroot c0\n"])

# Grammar characters and whitespace; non-ASCII letters, a decimal digit
# (Arabic-Indic three) and non-decimal digits (superscript two, one half);
# fragments that open or close inline terms; rare payoff spellings, and an
# agent that glues onto the identifier after it; digit runs past 4 300.
INSERTS = st.one_of(st.sampled_from("abcdefgilnorstyABC_0123456789()[]<>,:=+-* \t\n\r"),
                    st.sampled_from("éßΩ٣²½"),
                    st.sampled_from(["<Ann, l, ", "leaf[Ann: 0]", "c0(n+1)", ", "]),
                    st.sampled_from(["n-0", "n+-0", "--5", "- 5", "*n", " Ann"]),
                    st.sampled_from(["9" * 4301, "1" * 5000, f"leaf[Ann: {'7' * 4400}*n]"]))


@pytest.fixture(autouse=True, scope="module")
def no_digit_limit():
    with unbounded_int_digits():
        yield


@st.composite
def mutated_sources(draw) -> str:
    text = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "truncate")))
        if edit == "insert":
            text = text[:at] + draw(INSERTS) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return text


def check_parse(text: str) -> None:
    """``parse`` returns a valid system that round-trips, or raises a
    ParseError positioned inside the text, at the token that it names."""
    try:
        sys_ = parse(text)
    except ParseError as err:
        assert type(err) is ParseError
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.col <= len(lines[err.line - 1]) + 1
        assert str(err).startswith(f"{err.line}:{err.col}: ")
        helpers.check_error_names_its_token(text, err)
    else:
        assert isinstance(sys_, CoSystem)
        assert validate(sys_).holds
        assert render(parse(render(sys_))) == render(sys_)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(mutated_sources())
@example(helpers.INCOMPLETE_LEAF)
def test_parse_returns_a_system_or_a_positioned_error(text):
    check_parse(text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(mutated_sources())
@example(helpers.PAST_THE_DIGIT_LIMIT[0])
@example(helpers.PAST_THE_DIGIT_LIMIT[1])
@example(helpers.PAST_THE_DIGIT_LIMIT[2])
def test_parse_raises_only_parse_errors_under_the_default_digit_limit(text):
    with helpers.default_int_digits():
        check_parse(text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(mutated_sources())
@example("strategy agents Annc0(n) = <Ann, l, c0(n), c0(n)>\nroot c0\n")
@example("game agents Ann\nc0(n) = leaf[Ann: n-0]\nroot c0\n")
@example("game agents Ann\nc0(n) = leaf[Ann: n+-0]\nroot c0\n")
@example(helpers.INCOMPLETE_LEAF)
def test_flat_reader_gives_up_or_agrees_with_the_token_parser(text):
    flat = dsl._parse_flat(text)
    try:
        expected = dsl._Parser(text).parse_file()
    except ParseError:
        assert flat is None
    else:
        assert flat is None or (flat == expected and repr(flat) == repr(expected))
