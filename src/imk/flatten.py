"""Flattening a family of models into a single birelational model.

Each (world, member) pair becomes one world of the flat model.  The order
relates pairs within one member exactly as that member does; the modal
relation links the two occurrences of one world across ``succ``-related
members.  Flattening a partial model yields a birelational model, flattening
a homogeneous model an excessive one, and forcing is preserved cell by cell:
partial evaluation matches IK forcing on the image, homogeneous evaluation
matches MK forcing.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .birelational import BirelationalModel, ConditionReport, _kernel, check_condition
from .formulas import Formula, render
from .general import (GeneralModel, HomogeneousModel, InvalidModelClassError,
                      PartialModel, as_homogeneous, as_partial,
                      validate_homogeneous, validate_partial)
from .kripke import _frame, _numbering, points
from .memo import Record

__all__ = ["FlatWorld", "Disagreement", "EquivalenceReport",
           "flatten", "verify_flatten_class", "equivalence_report"]


class FlatWorld(NamedTuple):
    world: str
    submodel: str


def flatten(g: GeneralModel) -> BirelationalModel:
    """The single birelational model carrying every (world, member) pair."""
    worlds = frozenset(FlatWorld(w, k) for k, m in g.submodels
                       for w in m.frame.worlds)
    index = _numbering(worlds)  # by world, then member
    up = [0] * len(index)
    for k, m in g.submodels:  # each member's rows, renumbered
        names, rows = m.frame.compiled
        at = [index[FlatWorld(w, k)] for w in names]
        for i, row in enumerate(rows):
            up[at[i]] = sum(1 << at[j] for j in points(row))
    members = dict(g.submodels)
    r = frozenset((FlatWorld(w, a), FlatWorld(w, b)) for a, b in g.succ
                  for w in members[a].worlds & members[b].worlds)
    val = frozenset((FlatWorld(w, k), atom)
                    for k, m in g.submodels for w, atom in m.val)
    return BirelationalModel(_frame(worlds, index, up), r, val)


def verify_flatten_class(g: GeneralModel) -> list[ConditionReport]:
    """F1-F4 reports for the flat model, in order."""
    flat = flatten(g)
    return [check_condition(flat, c) for c in ("F1", "F2", "F3", "F4")]


class Disagreement(Record):
    submodel: str
    world: str
    gamma: tuple[str, ...]
    formula: str
    family_side: bool
    flat_side: bool


class EquivalenceReport(Record):
    logic: str  # "ik" for partial input, "mk" for homogeneous input
    cases: int
    disagreements: tuple

    @property
    def ok(self) -> bool:
        return not self.disagreements


def equivalence_report(g: GeneralModel, formulas: Sequence[Formula],
                       gammas: Sequence[Iterable[Formula]] = ((),),
                       logic: str | None = None) -> EquivalenceReport:
    """Compare family-side entailment against IK/MK entailment on the flat
    model at every (member, world) cell.  Homogeneous input is checked
    against MK, other partial input against IK; expected: no disagreements.
    """
    if logic is None:
        logic = "mk" if validate_homogeneous(g) else "ik"
    if logic == "mk":
        if not validate_homogeneous(g):
            raise InvalidModelClassError("MK comparison needs a homogeneous model")
        family: HomogeneousModel | PartialModel = as_homogeneous(g)
    elif logic == "ik":
        if validate_partial(g) is None:
            raise InvalidModelClassError("IK comparison needs a partial model")
        family = as_partial(g)
    else:
        raise ValueError(f"logic must be 'ik' or 'mk', not {logic!r}")

    flat = flatten(g)
    rank = "strong" if logic == "mk" else "birelational"
    cases = [(tuple(gset), f) for gset in gammas for f in formulas]
    masks = [(family.kernel.entailed(gset, f), _kernel(flat, rank, True).entailed(gset, f))
             for gset, f in cases]
    at, cells, bad = flat.frame.compiled[0], g.cells(), []
    for i, (k, w) in enumerate(cells):  # the family kernel numbers cells in this order
        j = at[FlatWorld(w, k)]
        for (gset, f), (lhs, rhs) in zip(cases, masks):
            lhs, rhs = lhs >> i & 1 == 1, rhs >> j & 1 == 1
            if lhs != rhs:
                bad.append(Disagreement(k, w, tuple(render(x) for x in gset),
                                        render(f), lhs, rhs))
    return EquivalenceReport(logic, len(cells) * len(cases), tuple(bad))
