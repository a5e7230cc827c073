"""Families of propositional Kripke models joined by an accessibility relation.

A general model is a finite set of propositional models (the "possible
models") plus a relation ``succ`` saying which members count as alternative
versions of which.  Two refinements matter:

* partial models: every member's frame is a partial copy of one reference
  member's frame (worlds may be dropped, but only from the past);
* homogeneous models: all members share one identical frame.

Modal formulas are evaluated at a (member, world) cell.  A world looks for
itself inside the alternative members: diamond finds some alternative where
the same world satisfies the formula, box requires it of every alternative
(for partial models, of every later world present in the alternative).
Homogeneous evaluation is the MK reading, partial evaluation the IK reading.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .formulas import Formula
from .kripke import (Frame, Kernel, ModelError, PropModel, UnknownWorldError,
                     World, _least_bad, build_frame, is_partial_copy)
from .memo import Record, cached, set_field

__all__ = [
    "GeneralModel", "PartialModel", "HomogeneousModel",
    "UnknownSubmodelError", "InvalidModelClassError", "CarrierMismatchError",
    "general_model", "as_partial", "as_homogeneous",
    "validate_partial", "validate_homogeneous",
    "forces_partial", "forces_homogeneous",
    "entails_partial", "entails_homogeneous",
    "valid_at_submodel", "valid_in_model",
    "modular_mk_evaluate", "classical_member", "CLASSICAL_POINT",
]


class UnknownSubmodelError(ModelError):
    def __init__(self, k: str):
        super().__init__(f"unknown submodel {k!r}")


class InvalidModelClassError(ModelError):
    pass


class CarrierMismatchError(ModelError):
    pass


class GeneralModel(Record):
    submodels: tuple  # sorted pairs (id, PropModel)
    succ: frozenset   # pairs (id, id)

    def __init__(self, submodels: tuple, succ: frozenset):
        set_field(self, "submodels", submodels)
        set_field(self, "succ", succ)
        if not submodels:
            raise ModelError("a general model needs at least one submodel")
        ids = {k for k, _ in submodels}
        if len(ids) != len(submodels):
            raise ModelError("duplicate submodel id")
        for a, b in succ:  # a check only: search builds one of these per candidate
            if a not in ids or b not in ids:
                a, b = _least_bad(ids, succ)
                raise ModelError(f"succ endpoint {a!r} or {b!r} is not a declared submodel")

    @property
    def ids(self) -> list[str]:
        return [k for k, _ in self.submodels]

    def submodel(self, k: str) -> PropModel:
        for kid, m in self.submodels:
            if kid == k:
                return m
        raise UnknownSubmodelError(k)

    def cells(self) -> list[tuple[str, World]]:
        return [(k, w) for k, m in self.submodels for w in m.frame.sorted_worlds()]


def general_model(submodels: Mapping[str, PropModel],
                  succ: Iterable[tuple[str, str]] = ()) -> GeneralModel:
    return GeneralModel(tuple(sorted(submodels.items())), frozenset(succ))


def validate_partial(g: GeneralModel) -> str | None:
    """Some submodel id usable as reference (every member frame is a partial
    copy of its frame), or None."""
    for k, ref in g.submodels:
        if all(is_partial_copy(m.frame, ref.frame) for _, m in g.submodels):
            return k
    return None


def validate_homogeneous(g: GeneralModel) -> bool:
    first = g.submodels[0][1].frame
    return all(m.frame == first for _, m in g.submodels)


class PartialModel(Record):
    general: GeneralModel
    reference: str

    def __init__(self, general: GeneralModel, reference: str):
        set_field(self, "general", general)
        set_field(self, "reference", reference)
        ref = general.submodel(reference).frame
        for k, m in general.submodels:
            if not is_partial_copy(m.frame, ref):
                raise InvalidModelClassError(
                    f"submodel {k!r} is not a partial copy of reference {reference!r}")

    @cached
    def kernel(self) -> Kernel:
        """The IK cell kernel: box reads the links from every later cell."""
        return _cell_kernel(self.general.submodels, self.general.succ, ik=True)


class HomogeneousModel(Record):
    general: GeneralModel

    def __init__(self, general: GeneralModel):
        set_field(self, "general", general)
        if not validate_homogeneous(general):
            raise InvalidModelClassError("submodels do not share one identical frame")

    @property
    def frame(self) -> Frame:
        return self.general.submodels[0][1].frame

    @cached
    def kernel(self) -> Kernel:
        return _cell_kernel(self.general.submodels, self.general.succ)


def _cell_kernel(submodels: Iterable[tuple], succ: Iterable[tuple],
                 ik: bool = False) -> Kernel:
    """Kernel over the (member, world) cells of the (id, PropModel) pairs in
    submodels, in that order; the order and the valuation stay inside each
    member.  rel links (k, w) to (k2, w) when k succ k2; with ik, box reads
    rel from every later cell of k: in a partial family, the cells of k2 at
    or above w.  An unknown member is named before an unknown world."""
    cells: dict = {}
    up: list[int] = []
    atoms: dict[str, int] = {}
    start = {}  # member -> its first cell and its world numbers
    for k, m in submodels:
        offset = len(up)
        worlds, rows = m.frame.compiled
        start[k] = offset, worlds
        cells.update({(k, w): offset + i for w, i in worlds.items()})
        up += [row << offset for row in rows]
        for atom, mask in m.atom_masks.items():
            atoms[atom] = atoms.get(atom, 0) | mask << offset
    rel = [0] * len(up)
    for k, k2 in succ:
        (here, worlds), (offset, there) = start[k], start[k2]
        for w, i in worlds.items():
            j = there.get(w)
            if j is not None:
                rel[here + i] |= 1 << offset + j
    def unknown(p):  # an unknown member, else an unknown world of a known one
        return UnknownWorldError(p[1]) if p[0] in start else UnknownSubmodelError(p[0])
    return Kernel(cells, up, atoms, rel, ik, unknown)


def as_partial(g: GeneralModel, reference: str | None = None) -> PartialModel:
    if reference is None:
        reference = validate_partial(g)
        if reference is None:
            raise InvalidModelClassError("no submodel works as a reference model")
    return PartialModel(g, reference)


def as_homogeneous(g: GeneralModel) -> HomogeneousModel:
    return HomogeneousModel(g)


def forces_partial(m: PartialModel, k: str, w: World, f: Formula) -> bool:
    return m.kernel.entails((k, w), (), f)


def forces_homogeneous(h: HomogeneousModel, k: str, w: World, f: Formula) -> bool:
    return h.kernel.entails((k, w), (), f)


def entails_partial(m: PartialModel, k: str, w: World,
                    gamma: Iterable[Formula], f: Formula) -> bool:
    """Entailment runs inside one member, over its own order."""
    return m.kernel.entails((k, w), gamma, f)


def entails_homogeneous(h: HomogeneousModel, k: str, w: World,
                        gamma: Iterable[Formula], f: Formula) -> bool:
    return h.kernel.entails((k, w), gamma, f)


def _valid(m, k: str | None, gamma: Iterable[Formula], f: Formula) -> bool:
    """gamma entails f at every cell of member k, or of every member when k
    is None, as one mask test."""
    if not isinstance(m, (PartialModel, HomogeneousModel)):
        raise InvalidModelClassError(
            f"expected a PartialModel or HomogeneousModel, got {type(m).__name__}")
    cells = -1
    if k is not None:
        index = m.kernel.index
        cells = sum(1 << index[k, w] for w in m.general.submodel(k).frame.worlds)
    return m.kernel.valid(gamma, f, cells)


def valid_at_submodel(m, k: str, gamma: Iterable[Formula], f: Formula) -> bool:
    return _valid(m, k, gamma, f)


def valid_in_model(m, gamma: Iterable[Formula], f: Formula) -> bool:
    return _valid(m, None, gamma, f)


# --- the MK clauses over any base of propositional models --------------------
#
# The box/diamond clauses above do not care which propositional models the
# members are: any family over one shared world set works.  Each member keeps
# its own order, and a classical valuation is the one-point model
# classical_member builds, whose only up row makes -> material implication.

CLASSICAL_POINT = "pt"


def classical_member(valuation: Iterable[str]) -> PropModel:
    """A classical valuation (the set of true atoms) as a one-point model."""
    return PropModel(build_frame({CLASSICAL_POINT}, ()),
                     frozenset((CLASSICAL_POINT, atom) for atom in valuation))


def modular_mk_evaluate(family: Mapping[str, PropModel],
                        succ: Iterable[tuple[str, str]],
                        k: str, w: World, f: Formula) -> bool:
    """MK forcing of f at (k, w) in a family of members over one world set."""
    if not family:
        raise ModelError("empty family")
    first = next(iter(family.values())).frame
    for kid, member in family.items():
        if member.worlds != first.worlds:
            carrier = lambda m: "{" + ", ".join(map(repr, m.sorted_worlds())) + "}"
            raise CarrierMismatchError(f"member {kid!r} has carrier {carrier(member.frame)}, "
                                       f"expected {carrier(first)}")
    succ = frozenset(succ)
    bad = _least_bad(family, succ)
    if bad:
        raise ModelError(f"succ endpoint {bad[0]!r} or {bad[1]!r} is not a family member")
    return _cell_kernel(sorted(family.items()), succ).entails((k, w), (), f)
