"""Propositional modal formulas: AST, parser, printer and simple measures.

The language has atoms, falsum, conjunction, disjunction, implication and
the two modalities box/diamond.  Negation is not a node of its own: ``~A``
is sugar for ``A -> _|_`` and is desugared at parse time.  ``render``
reintroduces the sugar, so ``parse(render(f))`` is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Formula", "Atom", "Bottom", "And", "Or", "Implies", "Box", "Diamond",
    "BOTTOM", "TOP", "Not", "ParseError",
    "parse", "render", "complexity", "subformulas", "subformula_dag",
    "modal_free",
]


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Bottom:
    pass


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    inner: "Formula"


@dataclass(frozen=True)
class Diamond:
    inner: "Formula"


Formula = Atom | Bottom | And | Or | Implies | Box | Diamond

BOTTOM = Bottom()
TOP = Implies(BOTTOM, BOTTOM)


def Not(f: Formula) -> Implies:
    """The desugared negation ``f -> _|_``."""
    return Implies(f, BOTTOM)


class ParseError(ValueError):
    """Formula syntax error, with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_PUNCT = ("_|_", "->", "[]", "<>", "~", "&", "|", "(", ")", "T")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Yield (kind, lexeme, 1-based position); '#' comments run to end of line."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _ATOM_RE.match(text, i)
        if m:
            tokens.append(("atom", m.group(), i + 1))
            i = m.end()
            continue
        for lexeme in _PUNCT:
            if text.startswith(lexeme, i):
                tokens.append(("punct", lexeme, i + 1))
                i += len(lexeme)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i + 1)
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length + 1)
        self.pos += 1
        return tok

    def expect(self, lexeme: str) -> None:
        tok = self.peek()
        if tok is None or tok[1] != lexeme:
            pos = tok[2] if tok else self.length + 1
            found = repr(tok[1]) if tok else "end of input"
            raise ParseError(f"expected {lexeme!r}, found {found}", pos)
        self.pos += 1

    # impl := disj ("->" impl)?        right associative
    def impl(self) -> Formula:
        left = self.disj()
        tok = self.peek()
        if tok and tok[1] == "->":
            self.pos += 1
            return Implies(left, self.impl())
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while (tok := self.peek()) and tok[1] == "|":
            self.pos += 1
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while (tok := self.peek()) and tok[1] == "&":
            self.pos += 1
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok and tok[1] == "~":
            self.pos += 1
            return Not(self.unary())
        if tok and tok[1] == "[]":
            self.pos += 1
            return Box(self.unary())
        if tok and tok[1] == "<>":
            self.pos += 1
            return Diamond(self.unary())
        return self.primary()

    def primary(self) -> Formula:
        kind, lexeme, pos = self.take()
        if kind == "atom":
            return Atom(lexeme)
        if lexeme == "_|_":
            return BOTTOM
        if lexeme == "T":
            return TOP
        if lexeme == "(":
            f = self.impl()
            tok = self.peek()
            if tok is None or tok[1] != ")":
                raise ParseError("unbalanced parentheses", pos)
            self.pos += 1
            return f
        raise ParseError(f"unexpected {lexeme!r}", pos)


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a 1-based character position."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1)
    parser = _Parser(tokens, len(text))
    f = parser.impl()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return f


# Precedence levels used by the printer; higher binds tighter.
_IMPL, _DISJ, _CONJ, _UNARY = 1, 2, 3, 4


def _render(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Bottom):
        return "_|_"
    if isinstance(f, Implies) and f.right == BOTTOM:
        return "~" + _render(f.left, _UNARY)
    if isinstance(f, Box):
        return "[]" + _render(f.inner, _UNARY)
    if isinstance(f, Diamond):
        return "<>" + _render(f.inner, _UNARY)
    if isinstance(f, And):
        text = _render(f.left, _CONJ) + " & " + _render(f.right, _UNARY)
        own = _CONJ
    elif isinstance(f, Or):
        text = _render(f.left, _DISJ) + " | " + _render(f.right, _CONJ)
        own = _DISJ
    elif isinstance(f, Implies):
        text = _render(f.left, _DISJ) + " -> " + _render(f.right, _IMPL)
        own = _IMPL
    else:
        raise TypeError(f"not a formula: {f!r}")
    return "(" + text + ")" if own < level else text


def render(f: Formula) -> str:
    """Canonical text for f; ``X -> _|_`` prints as ``~X``."""
    return _render(f, _IMPL)


def complexity(f: Formula) -> int:
    """Count of logical symbols: every connective and Bottom is 1, atoms are 0."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Bottom):
        return 1
    if isinstance(f, (Box, Diamond)):
        return 1 + complexity(f.inner)
    return 1 + complexity(f.left) + complexity(f.right)


def _children(f: Formula) -> tuple:
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    if isinstance(f, (Box, Diamond)):
        return (f.inner,)
    if isinstance(f, (Atom, Bottom)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def subformula_dag(f: Formula) -> tuple[list[Formula], list[tuple]]:
    """The distinct subformulas of f in post-order, f itself last, each with a
    key: (Atom, name) for an atom, otherwise the node's class followed by the
    list positions of its children.  The walk is iterative and compares keys,
    never whole formulas, so nesting depth costs no recursion."""
    nodes: list[Formula] = []
    keys: list[tuple] = []
    position: dict[tuple, int] = {}
    done: dict[int, int] = {}  # id of a visited object -> its position
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if id(g) in done:
            continue
        kids = _children(g)
        if kids and not expanded:
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(kids))
            continue
        key = (Atom, g.name) if isinstance(g, Atom) else \
            (type(g), *(done[id(c)] for c in kids))
        if key not in position:
            position[key] = len(nodes)
            nodes.append(g)
            keys.append(key)
        done[id(g)] = position[key]
    return nodes, keys


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subformulas in post-order; f itself comes last."""
    return subformula_dag(f)[0]


def modal_free(f: Formula) -> bool:
    """True when f contains no Box or Diamond."""
    if isinstance(f, (Box, Diamond)):
        return False
    if isinstance(f, (And, Or, Implies)):
        return modal_free(f.left) and modal_free(f.right)
    return True
