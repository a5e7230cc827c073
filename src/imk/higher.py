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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .formulas import And, Atom, Bottom, Box, Diamond, Formula, Implies, Or
from .general import HomogeneousModel
from .kripke import Frame, ModelError, PropModel

__all__ = [
    "HigherOrderModel", "BadPathError", "PolicyGapError",
    "wrap_prop_model", "from_birelational", "lift",
    "is_unirelational", "evaluate",
]


class BadPathError(ModelError):
    pass


class PolicyGapError(ModelError):
    """The formula is not handled by any level under the evaluation rules."""


@dataclass(frozen=True)
class HigherOrderModel:
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
        names = [n for n, _ in self.objects]
        if len(set(names)) != len(names):
            raise ModelError("duplicate object name")
        for name, child in self.objects:
            if self.level == 0:
                if child is not None:
                    raise ModelError("level-0 objects are bare worlds")
            else:
                if not isinstance(child, HigherOrderModel):
                    raise ModelError(f"object {name!r} must be a model")
                if child.level != self.level - 1:
                    raise ModelError(
                        f"object {name!r} has level {child.level}, expected {self.level - 1}")
        for rel_name, pairs in self.relations:
            for a, b in pairs:
                if a not in set(names) or b not in set(names):
                    raise ModelError(
                        f"relation {rel_name!r} endpoint {a!r} or {b!r} is not an object")
        if self.level > 0 and self.val:
            raise ModelError("only level-0 models carry a valuation")

    def object_names(self) -> list[str]:
        return [n for n, _ in self.objects]

    def child(self, name: str) -> "HigherOrderModel":
        for n, c in self.objects:
            if n == name:
                if c is None:
                    raise BadPathError(f"{name!r} is a world, not a model")
                return c
        raise BadPathError(f"no object named {name!r}")

    def relation(self, name: str) -> frozenset:
        for n, pairs in self.relations:
            if n == name:
                return pairs
        raise ModelError(f"no relation named {name!r}")


def wrap_prop_model(m: PropModel) -> HigherOrderModel:
    return HigherOrderModel(0,
                            tuple((w, None) for w in m.frame.sorted_worlds()),
                            (("le", m.frame.le),),
                            m.val)


def from_birelational(frame: Frame, r: frozenset, val: frozenset) -> HigherOrderModel:
    """A birelational model seen as a level-0 model with two relations."""
    return HigherOrderModel(0,
                            tuple((w, None) for w in frame.sorted_worlds()),
                            (("le", frame.le), ("r", r)),
                            val)


def lift(h: HomogeneousModel) -> HigherOrderModel:
    """A homogeneous family as a level-1 model: the members become level-0
    objects, the accessibility between members becomes the sole relation."""
    objects = tuple((k, wrap_prop_model(m)) for k, m in h.general.submodels)
    return HigherOrderModel(1, objects, (("succ", h.general.succ),))


def is_unirelational(m: HigherOrderModel) -> bool:
    if len(m.relations) != 1:
        return False
    if m.level == 0:
        return True
    return all(is_unirelational(c) for _, c in m.objects)


@lru_cache(maxsize=4096)
def _base_model(m: HigherOrderModel) -> PropModel:
    """The bottom model's propositional structure; validates that 'le' is a
    preorder and the valuation hereditary."""
    try:
        pairs = m.relation("le")
    except ModelError:
        raise PolicyGapError("level-0 evaluation needs a relation named 'le'")
    frame = Frame(frozenset(m.object_names()), pairs)
    return PropModel(frame, m.val)


def _descend(m: HigherOrderModel, selectors: Sequence[str]) -> HigherOrderModel:
    cur = m
    for s in selectors:
        cur = cur.child(s)
    return cur


def _sole_relation(m: HigherOrderModel) -> frozenset:
    if len(m.relations) != 1:
        raise PolicyGapError(
            "the mk modal rule needs a single top-level relation; "
            f"model has {[n for n, _ in m.relations]}")
    return m.relations[0][1]


@lru_cache(maxsize=1 << 16)
def _eval(m: HigherOrderModel, path: tuple, f: Formula) -> bool:
    if len(path) > m.level + 1:
        raise BadPathError(f"path {path!r} is longer than the model is deep")
    if len(path) <= m.level:
        # lift rule: truth at an object is truth at every one-step extension
        target = _descend(m, path)
        return all(_eval(m, path + (name,), f) for name in target.object_names())

    bottom = _descend(m, path[:-1])
    base = _base_model(bottom)
    w = path[-1]
    if w not in base.frame.worlds:
        raise BadPathError(f"no world named {w!r} at the end of path {path!r}")

    if isinstance(f, Atom):
        return (w, f.name) in bottom.val
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return _eval(m, path, f.left) and _eval(m, path, f.right)
    if isinstance(f, Or):
        return _eval(m, path, f.left) or _eval(m, path, f.right)
    if isinstance(f, Implies):
        return all(_eval(m, path[:-1] + (v,), f.right)
                   for v in base.frame.above(w)
                   if _eval(m, path[:-1] + (v,), f.left))
    if isinstance(f, (Box, Diamond)):
        if m.level == 0:
            raise PolicyGapError(
                "modalities are read at the top level; a level-0 model has none")
        rel = _sole_relation(m)
        shifted = [(o2,) + tuple(path[1:]) for o1, o2 in rel if o1 == path[0]]
        if isinstance(f, Box):
            return all(_eval(m, p, f.inner) for p in shifted)
        return any(_eval(m, p, f.inner) for p in shifted)
    raise TypeError(f"not a formula: {f!r}")


def evaluate(m: HigherOrderModel, path: Iterable[str], f: Formula) -> bool:
    """Truth of f at the chain of objects named by path.  A full path ends at
    a world of a level-0 model; a shorter path is closed by the lift rule."""
    return _eval(m, tuple(path), f)
