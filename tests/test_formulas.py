import contextlib
import io
import random

import pytest
from hypothesis import given, strategies as st

import imk.cli

from imk import (And, Atom, BOTTOM, Box, Diamond, Implies, Not, Or, ParseError,
                 TOP, complexity, parse, render, subformulas)
from gen import naive_tokenize
from imk.formulas import _tokenize, modal_free

P, Q, R = Atom("p"), Atom("q"), Atom("r")

SEPARATION_1 = Implies(Not(Box(BOTTOM)), Diamond(TOP))
SEPARATION_2 = Implies(And(Box(Or(P, Not(P))), Not(Box(P))), Diamond(Not(P)))


def formulas(max_depth=6):
    leaves = st.one_of(
        st.from_regex(r"[a-z][a-zA-Z0-9_]{0,3}", fullmatch=True).map(Atom),
        st.just(BOTTOM))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: And(*t)),
            st.tuples(sub, sub).map(lambda t: Or(*t)),
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            sub.map(Box), sub.map(Diamond)),
        max_leaves=2 ** max_depth)


class TestParse:
    def test_negation_desugars(self):
        assert parse("~p") == Implies(P, BOTTOM)

    def test_atom(self):
        assert parse("p") == P

    def test_separation_formula(self):
        assert parse("[](p|~p) & ~[]p -> <>~p") == SEPARATION_2

    def test_first_separation_formula(self):
        assert parse("(~[]_|_) -> <>T") == SEPARATION_1

    def test_top_is_sugar(self):
        assert parse("T") == Implies(BOTTOM, BOTTOM)

    def test_implication_right_associative(self):
        assert parse("p -> q -> r") == Implies(P, Implies(Q, R))

    def test_and_binds_tighter_than_or(self):
        assert parse("p | q & r") == Or(P, And(Q, R))

    def test_left_associative_chains(self):
        assert parse("p & q & r") == And(And(P, Q), R)
        assert parse("p | q | r") == Or(Or(P, Q), R)

    def test_unary_stacking(self):
        assert parse("~[]<>p") == Not(Box(Diamond(P)))

    def test_whitespace_and_comment(self):
        assert parse("p &  # noise\n q") == And(P, Q)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   # just a comment")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse("(p & q")

    def test_error_position_is_one_based(self):
        with pytest.raises(ParseError) as err:
            parse("p ? q")
        assert err.value.position == 3

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("p q")


# Every lexeme and blank, a comment, and characters that are neither or
# only begin a lexeme.
LEXER_PIECES = ["_|_", "->", "[]", "<>", "~", "&", "|", "(", ")", "T", "p", "q1", "aB_9",
                " ", "\t", "\r", "\n", "#", "# note\n", "\x0b", "\x0c", "\u00e9", "_", "-",
                "[", "]", "<", ">", "A", "0"]


def _lexed(lex, text: str):
    """lex's tokens for text, or its ParseError's message and position."""
    try:
        return lex(text)
    except ParseError as exc:
        return str(exc), exc.position


class TestLexer:
    def test_matches_the_naive_lexer(self):
        """The one-regex lexer and the character-by-character one agree on
        20,000 seeded strings, in tokens or in the error and its position."""
        rng = random.Random(29)
        kinds = set()
        for _ in range(20000):
            text = "".join(rng.choice(LEXER_PIECES) for _ in range(rng.randint(0, 12)))
            got = _lexed(_tokenize, text)
            assert got == _lexed(naive_tokenize, text), text
            kinds.add(type(got))
        assert kinds == {list, tuple}  # both tokens and errors were compared

    @pytest.mark.parametrize("text, position, char", [
        ("p \x0b q", 3, "\x0b"), ("p\x0c", 2, "\x0c"), ("\u00e9", 1, "\u00e9"),
        ("p & _", 5, "_"), ("p - q", 3, "-"), ("# \u00e9\n\u00e9", 5, "\u00e9")])
    def test_unexpected_character(self, text, position, char):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"


def _left_nested_implications(depth: int) -> str:
    text = "p"
    for _ in range(depth):
        text = f"({text}) -> q" if " " in text else f"{text} -> q"
    return text


# Canonical texts nested 3,000 deep, each with its complexity and whether it
# is modal-free.
DEEP = {"negations": ("~" * 3000 + "p", 6000, True),
        "modalities": ("[]<>" * 1500 + "p", 3000, False),
        "right_implications": (" -> ".join(["p"] * 3000), 2999, True),
        "left_conjunctions": (" & ".join(["p"] * 3000), 2999, True),
        "disjunctions": (" | ".join(["(p -> q)"] * 3000), 5999, True),
        "left_implications": (_left_nested_implications(3000), 3000, True)}


class TestDeepFormulas:
    @pytest.mark.parametrize("text, size, free", DEEP.values(), ids=DEEP)
    def test_parse_render_measure(self, text, size, free):
        f = parse(text)
        assert render(f) == text
        assert complexity(f) == size
        assert modal_free(f) == free

    @pytest.mark.parametrize("text", [t for t, _, _ in DEEP.values()], ids=DEEP)
    def test_compare_hash_and_print(self, text):
        """Formulas compare and hash on their flat programs and print from
        a stack, so no recursion follows the nesting depth."""
        f, g = parse(text), parse(text)
        assert f == g and hash(f) == hash(g) and f in {g}
        assert f != parse(text + " | q") and f not in {parse("p")}
        assert repr(f) == repr(g) and repr(f).startswith(type(f).__name__ + "(")

    def test_deep_parentheses(self):
        assert render(parse("(" * 3000 + "p" + ")" * 3000)) == "p"
        with pytest.raises(ParseError, match="unbalanced") as err:
            parse("(" * 3000 + "p" + ")" * 2999)
        assert err.value.position == 1


class TestRender:
    def test_negation_sugar(self):
        assert render(Implies(P, BOTTOM)) == "~p"

    def test_atom(self):
        assert render(P) == "p"

    def test_prefix_operators(self):
        assert render(Box(Diamond(Q))) == "[]<>q"

    def test_separation_formula(self):
        assert render(SEPARATION_2) == "[](p | ~p) & ~[]p -> <>~p"

    def test_parenthesizes_or_inside_and(self):
        assert render(And(Or(P, Q), R)) == "(p | q) & r"

    @given(formulas())
    def test_round_trip(self, f):
        assert parse(render(f)) == f

    @given(formulas())
    def test_render_is_a_fixed_point(self, f):
        assert render(parse(render(f))) == render(f)

    @given(formulas())
    def test_implication_to_bottom_always_renders_as_negation(self, f):
        for g in subformulas(f):
            if isinstance(g, Implies) and g.right == BOTTOM:
                assert render(g).startswith("~")


class TestComplexity:
    def test_atom_is_zero(self):
        assert complexity(P) == 0

    def test_desugared_negation(self):
        assert complexity(Implies(P, BOTTOM)) == 2

    def test_separation_formula(self):
        # 9 connectives plus 3 desugared Bottom leaves
        assert complexity(SEPARATION_2) == 12

    def test_bottom_counts(self):
        assert complexity(BOTTOM) == 1

    @given(formulas())
    def test_strictly_monotone_on_proper_subformulas(self, f):
        for g in subformulas(f)[:-1]:
            if g != f:
                assert complexity(g) < complexity(f)


class TestSubformulas:
    def test_atom(self):
        assert subformulas(P) == [P]

    def test_and(self):
        assert subformulas(And(P, Q)) == [P, Q, And(P, Q)]

    def test_box(self):
        assert subformulas(Box(P)) == [P, Box(P)]

    def test_distinct_and_postorder(self):
        f = And(P, And(P, P))
        assert subformulas(f) == [P, And(P, P), f]

    @given(formulas())
    def test_self_is_last(self, f):
        assert subformulas(f)[-1] == f


# formula-like noise: every lexeme, stray characters and whitespace
_LEXEMES = ["p", "q1", "x_Y", "_|_", "T", "~", "[]", "<>", "&", "|", "->", "(", ")",
            " ", "\n", "#", "-", "<", "[", "_", "?", "\x00", "\u00e9"]


@given(st.one_of(formulas().map(render),
                 st.lists(st.sampled_from(_LEXEMES), max_size=30).map("".join),
                 st.text(max_size=30)))
def test_cli_parse_answers_or_rejects(text):
    """Exit 0 (parsed) or 1 (rejected input), never an internal error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = imk.cli.main(["parse", "--formula", text])
    assert code in (0, 1), err.getvalue()
    if code == 0:
        assert out.getvalue() == render(parse(text)) + "\n"
