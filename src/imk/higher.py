"""Layered Kripke models: models whose objects are lower-level models.

A level-0 model is an ordinary relational structure over worlds (one or more
named relations plus an atom valuation).  A level-n model's objects are
named level-(n-1) models, with named relations between them.  Evaluation
follows two fixed rules rather than a stored table:

* the mk modal rule: box and diamond read the single top-level relation,
  moving the first path coordinate and keeping the rest fixed;
* the universal lift rule: truth at an object is truth at all of its points,
  so a path that stops short of a world is closed off by conjunction.

Propositional connectives are evaluated inside the bottom model, whose
relation named "le" must be a preorder with a hereditary valuation.  This
fixes one reading of the level-n semantics; levels above 1 are exploratory
surface and carry no guarantees beyond the documented rules.

Under these rules a level-n model is the mk family of its level-0 models,
one member per path prefix, linked by the top relation; relations below
the top level are checked but never read.  A model is compiled once, as
that family's cell kernel.  A shift may reach a path the model lacks;
where some order of reading the clauses lazily would meet such a shift,
``evaluate`` raises instead of letting the order decide.
"""

from __future__ import annotations

from typing import Iterable

from .formulas import Atom, Bottom, Box, Diamond, Formula, Implies, Or
from .general import GeneralModel, HomogeneousModel, _cell_kernel
from .kripke import (Frame, Kernel, ModelError, PropModel, UnknownWorldError, _rows,
                     points)
from .memo import Record, cached, set_field

__all__ = [
    "HigherOrderModel", "BadPathError", "PolicyGapError",
    "wrap_prop_model", "from_birelational", "lift",
    "is_unirelational", "evaluate",
]


class BadPathError(ModelError):
    pass


class PolicyGapError(ModelError):
    """The formula is not handled by any level under the evaluation rules."""


class HigherOrderModel(Record):
    level: int
    objects: tuple    # pairs (name, child); child is None at level 0
    relations: tuple  # pairs (name, frozenset of name pairs), sorted
    val: frozenset = frozenset()  # (world, atom) pairs, level 0 only

    def __post_init__(self):
        if self.level < 0:
            raise ModelError("level must be non-negative")
        if not self.objects:
            raise ModelError("a model needs at least one object")
        if not self.relations:
            raise ModelError("a model needs at least one relation")
        names = {n: i for i, (n, _) in enumerate(self.objects)}
        if len(names) != len(self.objects):
            raise ModelError("duplicate object name")
        for name, child in self.objects:
            if self.level == 0:
                if child is not None:
                    raise ModelError("level-0 objects are bare worlds")
            elif not isinstance(child, HigherOrderModel):
                raise ModelError(f"object {name!r} must be a model")
            elif child.level != self.level - 1:
                raise ModelError(
                    f"object {name!r} has level {child.level}, expected {self.level - 1}")
        for rel_name, pairs in self.relations:
            _rows(names, pairs, lambda a, b: ModelError(
                f"relation {rel_name!r} endpoint {a!r} or {b!r} is not an object"))
        if self.level > 0 and self.val:
            raise ModelError("only level-0 models carry a valuation")
        _rows(names, self.val, lambda w, _: UnknownWorldError(w), labels=True)

    def object_names(self) -> list[str]:
        return [n for n, _ in self.objects]

    def relation(self, name: str) -> frozenset:
        for n, pairs in self.relations:
            if n == name:
                return pairs
        raise ModelError(f"no relation named {name!r}")

    @cached
    def prop(self) -> PropModel:
        """A level-0 model as the propositional model over its relation le."""
        if self.level:
            raise ModelError("only a level-0 model is a propositional model")
        pairs = dict(self.relations).get("le")
        if pairs is None:
            raise PolicyGapError("level-0 evaluation needs a relation named 'le'")
        return PropModel(Frame(frozenset(self.object_names()), pairs), self.val)

    @cached
    def kernel(self) -> "_LayeredKernel":
        """Compiled on first use; a malformed bottom model raises here."""
        return _LayeredKernel(self)


def wrap_prop_model(m: PropModel) -> HigherOrderModel:
    """m as a level-0 model over its relation le, with m as its prop."""
    h = HigherOrderModel(0, tuple((w, None) for w in m.frame.sorted_worlds()),
                         (("le", m.frame.le),), m.val)
    set_field(h, "prop", m)  # as memo.cached does
    return h


def from_birelational(frame: Frame, r: frozenset, val: frozenset) -> HigherOrderModel:
    """A birelational model seen as a level-0 model with two relations."""
    return HigherOrderModel(0, tuple((w, None) for w in frame.sorted_worlds()),
                            (("le", frame.le), ("r", r)), val)


def lift(h: HomogeneousModel) -> HigherOrderModel:
    """A homogeneous family as a level-1 model: the members become level-0
    objects, the accessibility between members becomes the sole relation."""
    objects = tuple((k, wrap_prop_model(m)) for k, m in h.general.submodels)
    return HigherOrderModel(1, objects, (("succ", h.general.succ),))


def is_unirelational(m: HigherOrderModel) -> bool:
    return len(m.relations) == 1 and (
        m.level == 0 or all(is_unirelational(c) for _, c in m.objects))


def _bottoms(m: HigherOrderModel, prefix: tuple = ()) -> list[tuple]:
    """(path prefix, level-0 model) pairs in declared depth-first order."""
    if m.level == 0:
        return [(prefix, m)]
    return [pb for k, child in m.objects for pb in _bottoms(child, prefix + (k,))]


class _LayeredKernel(Kernel):
    """The cell kernel of the prefix family: one member per path prefix,
    the prop model of its level-0 model, in declared depth-first order, and
    p succ (b,) + p[1:] for each a rel b of the top relation with p[0] == a.
    A cell (p, w) is the path p + (w,).  below maps each path, full or
    short, to the cells under it, and rank gives each cell's place in
    declared order.  bad holds the cells whose shift dangles, or all of them
    when the model has no modal rule (gap says why)."""

    def __init__(self, m: HigherOrderModel):
        bottoms = _bottoms(m)
        members = {p: b.prop for p, b in bottoms}  # the first bad bottom raises
        self.gap = None if m.level and len(m.relations) == 1 else (
            "the mk modal rule needs a single top-level relation above level 0; "
            f"model has level {m.level}, relations {[n for n, _ in m.relations]}")
        shifts = [] if self.gap else [(p, (b,) + p[1:]) for a, b in m.relations[0][1]
                                      for p in members if p[0] == a]
        k = _cell_kernel(GeneralModel(tuple(members.items()),
                                      frozenset(s for s in shifts if s[1] in members)))
        super().__init__(k.index, k.up, k.atoms, k.box, k.dia)
        self.below: dict[tuple, int] = {}
        self.rank = [0] * len(k.index)
        declared = ((p, w) for p, b in bottoms for w in b.object_names())
        for rank, (p, w) in enumerate(declared):
            i, path = k.index[p, w], p + (w,)
            self.rank[i] = rank
            for n in range(len(path) + 1):
                self.below[path[:n]] = self.below.get(path[:n], 0) | 1 << i
        self.bad = self.full if self.gap else 0
        for p, q in shifts:  # the worlds of p that q lacks, or all of them
            there = members[q].worlds if q in members else frozenset()
            self.bad |= sum(1 << k.index[p, w] for w in members[p].worlds - there)
        self._forcing: dict[int, tuple] = {}  # id(f) -> (f, extension, errors)

    def forcing(self, f: Formula) -> tuple[int, int]:
        """The points that force f, and those where f errs: where some order
        of the lazy clause-by-clause reading meets a bad point."""
        hit = self._forcing.get(id(f))
        if hit is None or hit[0] is not f:
            keys, exts = self.extensions(f)
            errs: list[int] = []
            for cls, a, b in keys if self.bad else ():
                if cls is Box or cls is Diamond:  # rows that meet an error
                    err = self.bad | self._select(Diamond, errs[a])
                elif cls is Atom or cls is Bottom:
                    err = 0
                else:  # B is read where A holds, or for | where A fails
                    err = errs[a] | (~exts[a] if cls is Or else exts[a]) & errs[b]
                    if cls is Implies:  # up rows that meet err
                        err = self.full & ~self._select(Implies, err)
                errs.append(err)
            hit = self._forcing[id(f)] = (f, exts[-1], errs[-1] if errs else 0)
        return hit[1], hit[2]


def evaluate(m: HigherOrderModel, path: Iterable[str], f: Formula) -> bool:
    """Truth of f at the chain of objects named by path.  A full path ends at
    a world of a level-0 model; a shorter one is decided by the first point
    under it, in declared order, where f fails or errs."""
    kernel, path = m.kernel, tuple(path)
    below = kernel.below.get(path)
    if below is None:
        raise BadPathError(f"no object or world at path {path!r}")
    hit = kernel._forcing.get(id(f))
    _, ext, err = hit if hit is not None and hit[0] is f else (f, *kernel.forcing(f))
    miss = below & (~ext | err)
    if miss & err and err >> min(points(miss), key=kernel.rank.__getitem__) & 1:
        if kernel.gap:
            raise PolicyGapError(kernel.gap)
        raise BadPathError(f"a modality read under {path!r} shifts to a path "
                           "the model lacks")
    return not miss
