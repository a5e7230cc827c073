"""Propositional modal formulas: AST, parser, printer and simple measures.

The language has atoms, falsum, conjunction, disjunction, implication and
the two modalities box/diamond.  Negation is not a node of its own: ``~A``
is sugar for ``A -> _|_`` and is desugared at parse time.  ``render``
reintroduces the sugar, so ``parse(render(f))`` is the identity.
"""

from __future__ import annotations

import re

from .memo import Record, cached, set_field

__all__ = [
    "Formula", "Atom", "Bottom", "And", "Or", "Implies", "Box", "Diamond",
    "BOTTOM", "TOP", "Not", "ParseError",
    "parse", "render", "complexity", "subformulas", "subformula_dag",
    "modal_free",
]


class _Node(Record):
    """Base of the formula classes.  Formulas compare and hash on their
    program, which is flat, so nesting depth costs no recursion."""

    @cached
    def program(self) -> list[tuple]:
        """The keys of subformula_dag(self), this formula's own key last:
        computed on first use and kept on this object, so a formula is walked
        once however many models evaluate it."""
        return subformula_dag(self)[1]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.program == other.program

    def __hash__(self):
        # neither classes nor None, which CPython 3.11 hashes by address, so
        # that one hash seed gives every run the same hashes and set orders
        return hash(tuple([(cls.__name__, a or 0, b or 0) for cls, a, b in self.program]))


class Atom(_Node):
    name: str

    def __init__(self, name: str):
        set_field(self, "name", name)


class Bottom(_Node):
    def __init__(self):
        pass


class _Binary(_Node):
    left: "Formula"
    right: "Formula"

    def __init__(self, left: "Formula", right: "Formula"):
        set_field(self, "left", left)
        set_field(self, "right", right)


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class _Modal(_Node):
    inner: "Formula"

    def __init__(self, inner: "Formula"):
        set_field(self, "inner", inner)


class Box(_Modal):
    pass


class Diamond(_Modal):
    pass


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


# Precedence levels of the parser and the printer; higher binds tighter.
_IMPL, _DISJ, _CONJ, _UNARY = 1, 2, 3, 4
# Prefix operators, and binary operators with their level; every binary
# operator but the right-associative -> is left-associative.
_PREFIX = {"~": Not, "[]": Box, "<>": Diamond}
_BINARY = {"->": (_IMPL, Implies), "|": (_DISJ, Or), "&": (_CONJ, And)}


def parse(text: str) -> Formula:
    """Parse a formula; raises ParseError with a 1-based character position.

    Precedence climbing over explicit stacks, so nesting depth costs no
    recursion; errors are reported at the first token that cannot continue
    the formula."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input", 1)
    args: list[Formula] = []  # finished operands
    ops: list = []  # pending operators, and the int position of each open "("

    def fold(prec: int) -> None:
        """Apply the pending binary operators that bind at least this tightly."""
        while ops and ops[-1] in _BINARY and _BINARY[ops[-1]][0] >= prec:
            right = args.pop()
            args[-1] = _BINARY[ops.pop()][1](args[-1], right)

    def operand(f: Formula) -> None:
        while ops and ops[-1] in _PREFIX:
            f = _PREFIX[ops.pop()](f)
        args.append(f)

    want_operand = True
    for kind, lexeme, pos in tokens:
        if want_operand:
            if lexeme in _PREFIX:
                ops.append(lexeme)
            elif lexeme == "(":
                ops.append(pos)
            elif kind == "atom" or lexeme in ("_|_", "T"):
                operand(Atom(lexeme) if kind == "atom" else
                        BOTTOM if lexeme == "_|_" else TOP)
                want_operand = False
            else:
                raise ParseError(f"unexpected {lexeme!r}", pos)
        elif lexeme in _BINARY:  # a pending -> waits for its right operand
            fold(_BINARY[lexeme][0] + (lexeme == "->"))
            ops.append(lexeme)
            want_operand = True
        else:
            fold(_IMPL)
            if lexeme == ")" and ops:
                ops.pop()
                operand(args.pop())
            elif ops:
                raise ParseError("unbalanced parentheses", ops[-1])
            else:
                raise ParseError(f"trailing input {lexeme!r}", pos)
    if want_operand:
        raise ParseError("unexpected end of input", len(text) + 1)
    fold(_IMPL)
    if ops:
        raise ParseError("unbalanced parentheses", ops[-1])
    return args[0]


# infix text, own level, levels of the left and right operands
_INFIX = {And: (" & ", _CONJ, _CONJ, _UNARY), Or: (" | ", _DISJ, _DISJ, _CONJ),
          Implies: (" -> ", _IMPL, _DISJ, _IMPL)}


def render(f: Formula) -> str:
    """Canonical text for f; ``X -> _|_`` prints as ``~X``.  Iterative: a
    stack holds literal text and (formula, level) items still to print."""
    out: list[str] = []
    todo: list = [(f, _IMPL)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, level = item
        if isinstance(g, Atom):
            out.append(g.name)
        elif isinstance(g, Bottom):
            out.append("_|_")
        elif isinstance(g, Implies) and isinstance(g.right, Bottom):
            out.append("~")
            todo.append((g.left, _UNARY))
        elif isinstance(g, (Box, Diamond)):
            out.append("[]" if isinstance(g, Box) else "<>")
            todo.append((g.inner, _UNARY))
        elif type(g) in _INFIX:
            text, own, left, right = _INFIX[type(g)]
            parens = own < level  # pushed in reverse: the stack is LIFO
            todo += [")"] * parens + [(g.right, right), text, (g.left, left)] \
                + ["("] * parens
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def complexity(f: Formula) -> int:
    """Count of logical symbols: every connective and Bottom is 1, atoms are 0."""
    sizes: list[int] = []
    for cls, a, b in f.program:
        sizes.append(0 if cls is Atom else 1 if cls is Bottom else
                     1 + sizes[a] + (0 if b is None else sizes[b]))
    return sizes[-1]


def _children(f: Formula) -> tuple:
    if isinstance(f, _Binary):
        return (f.left, f.right)
    if isinstance(f, _Modal):
        return (f.inner,)
    if isinstance(f, (Atom, Bottom)):
        return ()
    raise TypeError(f"not a formula: {f!r}")


def subformula_dag(f: Formula) -> tuple[list[Formula], list[tuple]]:
    """The distinct subformulas of f in post-order, f itself last, each with a
    key (class, a, b): a is an atom's name or the list position of the first
    child, b the position of the second child, and None stands for what a
    node lacks.  The walk is iterative and compares keys, never whole
    formulas, so nesting depth costs no recursion."""
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
        key = (Atom, g.name, None) if isinstance(g, Atom) else \
            (type(g), *(done[id(c)] for c in kids), *(None,) * (2 - len(kids)))
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
    return not any(cls is Box or cls is Diamond for cls, _, _ in f.program)
