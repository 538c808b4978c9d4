from pathlib import Path

import pytest

from cogames import Affine, Choice, CoSystem, GAME, Leaf, Node, Ref, STRATEGY, validate
from cogames.dsl import (
    ChoiceInGameKindError,
    ParseError,
    UnknownAgentError,
    UnknownEquationError,
    parse,
    render,
)
from cogames import families

import helpers

GAMES_DIR = Path(__file__).resolve().parent.parent / "games"

DOLLAR_AGU_ONE_LINER = (
    "strategy agents Alice Bob  "
    "agu(n) = <Alice, r, <Bob, r, agu(n+1), leaf[Alice: -2*n-1, Bob: -2*n-2]>, "
    "leaf[Alice: -2*n-1, Bob: -2*n]>  root agu"
)


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
        cases = {
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
        }
        for text, expected in cases.items():
            sys_ = parse(f"game agents A g(n) = leaf[A: {text}] root g")
            assert sys_.classes[0].payoffs["A"] == expected, text
            assert parse(render(sys_)) == sys_, text


class TestParseErrors:
    def test_syntax_error_is_positioned(self):
        with pytest.raises(ParseError) as err:
            parse("strategy agents A\nx(n) = <A, l, x(n), >\nroot x")
        assert err.value.line == 2
        assert err.value.expected

    def test_unknown_agent_in_leaf(self):
        with pytest.raises(UnknownAgentError):
            parse("game agents A g(n) = leaf[B: 0] root g")

    def test_unknown_owner(self):
        with pytest.raises(UnknownAgentError):
            parse("game agents A g(n) = <B, g(n), g(n)> root g")

    def test_unknown_equation_in_ref(self):
        with pytest.raises(UnknownEquationError):
            parse("game agents A g(n) = <A, h(n), g(n)> root g")

    def test_unknown_root(self):
        with pytest.raises(UnknownEquationError):
            parse("game agents A g(n) = leaf[A: 0] root h")

    def test_choice_in_game_kind(self):
        with pytest.raises(ChoiceInGameKindError):
            parse("game agents A g(n) = <A, l, g(n), g(n)> root g")

    def test_missing_choice_in_strategy_kind(self):
        with pytest.raises(ParseError) as err:
            parse("strategy agents A g(n) = <A, g(n), g(n)> root g")
        assert set(err.value.expected) == {"l", "r"}

    def test_duplicate_equation(self):
        with pytest.raises(ParseError):
            parse("game agents A g(n) = leaf[A: 0] g(n) = leaf[A: 1] root g")

    def test_duplicate_leaf_agent(self):
        with pytest.raises(ParseError):
            parse("game agents A B g(n) = leaf[A: 0, A: 1] root g")

    def test_reserved_names_rejected(self):
        with pytest.raises(ParseError):
            parse("game agents leaf g(n) = leaf[leaf: 0] root g")
        with pytest.raises(ParseError):
            parse("game agents A n(n) = leaf[A: 0] root n")

    def test_negative_offset_rejected(self):
        with pytest.raises(ParseError):
            parse("game agents A g(n) = <A, g(n+-1), g(n)> root g")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("game agents A g(n) = leaf[A: 0] root g leftovers")


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
