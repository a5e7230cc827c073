"""Birelational models: one intuitionistic order plus one modal relation.

F1-F4 are the standard interaction laws between the two relations:

  F1: w <= w' and w R j   give a j' with j <= j' and w' R j'
  F2: w R j   and j <= j' give a w' with w <= w' and w' R j'
  F3: w <= w' and w' R j' give a j  with w R j   and j <= j'
  F4: j <= j' and w' R j' give a w  with w R j   and w <= w'

A model is *birelational* when F1 and F2 hold with unique witnesses,
*strong* when F3 also holds uniquely, and *excessive* when F4 does too.
IK forcing is defined on birelational models, MK forcing on strong ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .formulas import Formula
from .kripke import (Frame, Kernel, ModelError, PropModel, UnknownWorldError,
                     World, relation_masks)
from .memo import cached

__all__ = [
    "BirelationalModel", "ConditionReport", "CONDITIONS",
    "NotBirelationalError", "NotStrongError",
    "check_condition", "classify",
    "forces_ik", "forces_mk", "entails_ik", "entails_mk", "valid_ik", "valid_mk",
]

CONDITIONS = ("F1", "F2", "F3", "F4")


class NotBirelationalError(ModelError):
    """IK forcing needs F1 and F2 (with unique witnesses by default)."""


class NotStrongError(ModelError):
    """MK clauses are only defined on strong models: F3 is required."""


@dataclass(frozen=True)
class BirelationalModel:
    frame: Frame
    r: frozenset  # modal relation; no closure is applied
    val: frozenset  # pairs (world, atom), hereditary over frame.le

    def __post_init__(self):
        for a, b in self.r:
            if a not in self.frame.worlds or b not in self.frame.worlds:
                raise ModelError(f"r endpoint {a!r} or {b!r} is not a world")
        self.prop  # the propositional validation (heredity, known worlds)

    @cached
    def prop(self) -> PropModel:
        return PropModel(self.frame, self.val)

    @property
    def worlds(self) -> frozenset:
        return self.frame.worlds

    @cached
    def classes(self) -> dict:
        """classify's verdicts so far, by require_unique."""
        return {}

    @cached
    def ik_kernel(self) -> Kernel:
        """IK: box reads r from every later world, diamond reads r."""
        index, up = self.frame.compiled
        r = relation_masks(index, self.r)
        box = [0] * len(r)
        for a, b in self.frame.le:
            box[index[a]] |= r[index[b]]
        return Kernel(index, up, self.prop.atom_masks, box, r)

    @cached
    def mk_kernel(self) -> Kernel:
        """MK: box and diamond both read r."""
        index, up = self.frame.compiled
        r = relation_masks(index, self.r)
        return Kernel(index, up, self.prop.atom_masks, r, r)


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: bool
    unique: bool
    violations: tuple  # antecedent triples with no witness
    nonunique: tuple   # antecedent triples with two or more witnesses

    def __post_init__(self):
        assert self.holds == (not self.violations)
        assert self.unique == (self.holds and not self.nonunique)


def _antecedents(m: BirelationalModel, c: str):
    """Antecedent triples of condition c together with their witness sets."""
    le, r = m.frame.le, m.r
    if c == "F1":
        for w, w2 in le:
            for a, j in r:
                if a == w:
                    yield (w, w2, j), [j2 for b, j2 in r
                                       if b == w2 and (j, j2) in le]
    elif c == "F2":
        for w, j in r:
            for a, j2 in le:
                if a == j:
                    yield (w, j, j2), [w2 for w2, b in r
                                       if b == j2 and (w, w2) in le]
    elif c == "F3":
        for w, w2 in le:
            for a, j2 in r:
                if a == w2:
                    yield (w, w2, j2), [j for b, j in r
                                        if b == w and (j, j2) in le]
    elif c == "F4":
        for j, j2 in le:
            for w2, b in r:
                if b == j2:
                    yield (j, j2, w2), [w for w, a in r
                                        if a == j and (w, w2) in le]
    else:
        raise ValueError(f"unknown condition {c!r}; expected one of {CONDITIONS}")


def check_condition(m: BirelationalModel, c: str) -> ConditionReport:
    """Exhaustive report for one condition: all violations and all antecedents
    whose witness is not unique."""
    violations = []
    nonunique = []
    for triple, witnesses in _antecedents(m, c):
        if not witnesses:
            violations.append(triple)
        elif len(set(witnesses)) > 1:
            nonunique.append(triple)
    violations = tuple(sorted(set(violations), key=repr))
    nonunique = tuple(sorted(set(nonunique), key=repr))
    holds = not violations
    return ConditionReport(c, holds, holds and not nonunique, violations, nonunique)


def _condition_ok(m: BirelationalModel, c: str, unique: bool) -> bool:
    """Early-exit check used by classify; check_condition stays exhaustive."""
    for _, witnesses in _antecedents(m, c):
        if not witnesses:
            return False
        if unique and len(set(witnesses)) > 1:
            return False
    return True


def classify(m: BirelationalModel, require_unique: bool = True) -> str:
    """Strongest class the model belongs to: 'excessive' > 'strong' >
    'birelational' > 'none'.  Witness uniqueness is part of each class
    definition; pass require_unique=False to accept non-unique witnesses."""
    if require_unique not in m.classes:
        cls = "excessive"
        for c, weaker in (("F1", "none"), ("F2", "none"),
                          ("F3", "birelational"), ("F4", "strong")):
            if not _condition_ok(m, c, require_unique):
                cls = weaker
                break
        m.classes[require_unique] = cls
    return m.classes[require_unique]


_RANK = {"none": 0, "birelational": 1, "strong": 2, "excessive": 3}


def _require(m: BirelationalModel, rank: str, require_unique: bool) -> None:
    cls = classify(m, require_unique)
    if _RANK[cls] < _RANK[rank]:
        if rank == "strong":
            raise NotStrongError(
                f"model classifies as {cls!r}; MK forcing requires F3 (a strong model)")
        raise NotBirelationalError(
            f"model classifies as {cls!r}; IK forcing requires F1 and F2")


def forces_ik(m: BirelationalModel, w: World, f: Formula, *,
              require_unique: bool = True) -> bool:
    """IK forcing: box looks at r-successors of all later worlds, diamond at
    direct r-successors."""
    return entails_ik(m, w, (), f, require_unique=require_unique)


def forces_mk(m: BirelationalModel, w: World, f: Formula, *,
              require_unique: bool = True) -> bool:
    """MK forcing on strong models: box quantifies over direct r-successors only."""
    return entails_mk(m, w, (), f, require_unique=require_unique)


def entails_ik(m: BirelationalModel, w: World, gamma: Iterable[Formula],
               f: Formula, *, require_unique: bool = True) -> bool:
    _require(m, "birelational", require_unique)
    if w not in m.frame.worlds:
        raise UnknownWorldError(w)
    return m.ik_kernel.entails(w, gamma, f)


def entails_mk(m: BirelationalModel, w: World, gamma: Iterable[Formula],
               f: Formula, *, require_unique: bool = True) -> bool:
    _require(m, "strong", require_unique)
    if w not in m.frame.worlds:
        raise UnknownWorldError(w)
    return m.mk_kernel.entails(w, gamma, f)


def valid_ik(m: BirelationalModel, gamma: Iterable[Formula], f: Formula, *,
             require_unique: bool = True) -> bool:
    gamma = list(gamma)
    return all(entails_ik(m, w, gamma, f, require_unique=require_unique)
               for w in m.frame.worlds)


def valid_mk(m: BirelationalModel, gamma: Iterable[Formula], f: Formula, *,
             require_unique: bool = True) -> bool:
    gamma = list(gamma)
    return all(entails_mk(m, w, gamma, f, require_unique=require_unique)
               for w in m.frame.worlds)
