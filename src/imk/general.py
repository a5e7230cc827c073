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

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .formulas import And, Atom, Bottom, Box, Diamond, Formula, Implies, Or, _children
from .kripke import (Frame, Kernel, ModelError, PropModel, UnknownWorldError,
                     World, is_partial_copy, label_masks, relation_masks)
from .memo import cached

__all__ = [
    "GeneralModel", "PartialModel", "HomogeneousModel",
    "UnknownSubmodelError", "InvalidModelClassError", "CarrierMismatchError",
    "general_model", "as_partial", "as_homogeneous",
    "validate_partial", "validate_homogeneous",
    "forces_partial", "forces_homogeneous",
    "entails_partial", "entails_homogeneous",
    "valid_at_submodel", "valid_in_model",
    "modular_mk_evaluate", "intuitionistic_base_forces",
    "classical_base_forces", "classical_carrier", "CLASSICAL_POINT",
]


class UnknownSubmodelError(ModelError):
    def __init__(self, k: str):
        super().__init__(f"unknown submodel {k!r}")


class InvalidModelClassError(ModelError):
    pass


class CarrierMismatchError(ModelError):
    pass


@dataclass(frozen=True)
class GeneralModel:
    submodels: tuple  # sorted pairs (id, PropModel)
    succ: frozenset   # pairs (id, id)

    def __post_init__(self):
        if not self.submodels:
            raise ModelError("a general model needs at least one submodel")
        ids = {k for k, _ in self.submodels}
        if len(ids) != len(self.submodels):
            raise ModelError("duplicate submodel id")
        for a, b in self.succ:
            if a not in ids or b not in ids:
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
    frames = {m.frame for _, m in g.submodels}
    return len(frames) == 1


@dataclass(frozen=True)
class PartialModel:
    general: GeneralModel
    reference: str

    def __post_init__(self):
        ref = self.general.submodel(self.reference).frame
        for k, m in self.general.submodels:
            if not is_partial_copy(m.frame, ref):
                raise InvalidModelClassError(
                    f"submodel {k!r} is not a partial copy of reference {self.reference!r}")

    @cached
    def kernel(self) -> Kernel:
        """Box links (k, w) to every (k2, w2) with k succ k2 and w <= w2 in
        the reference order; diamond links (k, w) to (k2, w)."""
        g = self.general
        worlds = {k: m.frame.worlds for k, m in g.submodels}
        ref_le = g.submodel(self.reference).frame.le
        box = [((k, w), (k2, w2)) for k, k2 in g.succ for w, w2 in ref_le
               if w in worlds[k] and w2 in worlds[k2]]
        dia = [((k, w), (k2, w)) for k, k2 in g.succ for w in worlds[k]
               if w in worlds[k2]]
        return _cell_kernel(g, box, dia)


@dataclass(frozen=True)
class HomogeneousModel:
    general: GeneralModel

    def __post_init__(self):
        if not validate_homogeneous(self.general):
            raise InvalidModelClassError("submodels do not share one identical frame")

    @property
    def frame(self) -> Frame:
        return self.general.submodels[0][1].frame

    @cached
    def kernel(self) -> Kernel:
        """Box and diamond both link (k, w) to (k2, w) when k succ k2."""
        links = [((k, w), (k2, w)) for k, k2 in self.general.succ
                 for w in self.frame.worlds]
        return _cell_kernel(self.general, links, links)


def _cell_kernel(g: GeneralModel, box: list, dia: list) -> Kernel:
    """Kernel over the (member, world) cells of g; the order and the
    valuation stay inside each member."""
    index = {(k, w): i for i, (k, w) in
             enumerate((k, w) for k, m in g.submodels for w in m.frame.worlds)}
    up = relation_masks(index, (((k, a), (k, b)) for k, m in g.submodels
                                for a, b in m.frame.le))
    atoms = label_masks(index, (((k, w), atom) for k, m in g.submodels
                                for w, atom in m.val))
    return Kernel(index, up, atoms, relation_masks(index, box),
                  relation_masks(index, dia))


def as_partial(g: GeneralModel, reference: str | None = None) -> PartialModel:
    if reference is None:
        reference = validate_partial(g)
        if reference is None:
            raise InvalidModelClassError("no submodel works as a reference model")
    return PartialModel(g, reference)


def as_homogeneous(g: GeneralModel) -> HomogeneousModel:
    return HomogeneousModel(g)


def forces_partial(m: PartialModel, k: str, w: World, f: Formula) -> bool:
    return entails_partial(m, k, w, (), f)


def forces_homogeneous(h: HomogeneousModel, k: str, w: World, f: Formula) -> bool:
    return entails_homogeneous(h, k, w, (), f)


def entails_partial(m: PartialModel, k: str, w: World,
                    gamma: Iterable[Formula], f: Formula) -> bool:
    """Entailment runs inside one member, over its own order."""
    kernel = m.kernel
    if (k, w) not in kernel.index:
        m.general.submodel(k)  # an unknown member raises here
        raise UnknownWorldError(w)
    return kernel.entails((k, w), gamma, f)


def entails_homogeneous(h: HomogeneousModel, k: str, w: World,
                        gamma: Iterable[Formula], f: Formula) -> bool:
    kernel = h.kernel
    if (k, w) not in kernel.index:
        h.general.submodel(k)
        raise UnknownWorldError(w)
    return kernel.entails((k, w), gamma, f)


def _require_family(m) -> None:
    if not isinstance(m, (PartialModel, HomogeneousModel)):
        raise InvalidModelClassError(
            f"expected a PartialModel or HomogeneousModel, got {type(m).__name__}")


def _valid(m, ks: Iterable[str], gamma: Iterable[Formula], f: Formula) -> bool:
    """gamma entails f at every cell of the members ks, as one mask test."""
    _require_family(m)
    index = m.kernel.index
    cells = sum(1 << index[k, w] for k in ks for w in m.general.submodel(k).frame.worlds)
    return m.kernel.valid(gamma, f, cells)


def valid_at_submodel(m, k: str, gamma: Iterable[Formula], f: Formula) -> bool:
    return _valid(m, [k], gamma, f)


def valid_in_model(m, gamma: Iterable[Formula], f: Formula) -> bool:
    return _valid(m, m.general.ids, gamma, f)


# --- modular MK clauses over a pluggable propositional base -----------------
#
# The box/diamond clauses above do not care that the members are
# intuitionistic: any notion of propositional model with a shared carrier of
# evaluation points works.  base_forces(member, point, formula, rec) must
# evaluate the non-modal connectives, calling rec(point, subformula) so that
# nested modalities re-enter the modal layer.

CLASSICAL_POINT = "pt"


def modular_mk_evaluate(family: Mapping[str, object],
                        succ: Iterable[tuple[str, str]],
                        base_forces: Callable,
                        k: str, w, f: Formula, *,
                        carrier_of: Callable) -> bool:
    if not family:
        raise ModelError("empty family")
    carriers = {kid: carrier_of(member) for kid, member in family.items()}
    first = next(iter(carriers.values()))
    for kid, carrier in carriers.items():
        if carrier != first:
            raise CarrierMismatchError(
                f"member {kid!r} has carrier {set(carrier)!r}, expected {set(first)!r}")
    succ = frozenset(succ)
    for a, b in succ:
        if a not in family or b not in family:
            raise ModelError(f"succ endpoint {a!r} or {b!r} is not a family member")
    if k not in family:
        raise UnknownSubmodelError(k)
    if w not in first:
        raise UnknownWorldError(w)

    keys = f.program  # bottom-up over it; the node objects are found top-down
    nodes, position = [f] * len(keys), {}
    for i in range(len(keys) - 1, -1, -1):
        for j, child in zip(keys[i][1:], _children(nodes[i])):
            nodes[j], position[id(child)] = child, j
    succs = {kid: [b for a, b in succ if a == kid] for kid in family}
    memo: dict = {}  # (member, point, program position) -> verdict
    for i, (cls, a, _) in enumerate(keys):
        for kid, member in family.items():
            for point in first:
                if cls is Box:
                    out = all(memo[k2, point, a] for k2 in succs[kid])
                elif cls is Diamond:
                    out = any(memo[k2, point, a] for k2 in succs[kid])
                else:
                    out = base_forces(member, point, nodes[i], lambda p, sub:
                                      memo[kid, p, position[id(sub)]])
                memo[kid, point, i] = out
    return memo[k, w, len(keys) - 1]


def intuitionistic_base_forces(model: PropModel, w: World, f: Formula,
                               rec: Callable) -> bool:
    """Intuitionistic clauses for the non-modal connectives of one member."""
    if isinstance(f, Atom):
        return (w, f.name) in model.val
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return rec(w, f.left) and rec(w, f.right)
    if isinstance(f, Or):
        return rec(w, f.left) or rec(w, f.right)
    if isinstance(f, Implies):
        return all(rec(v, f.right) for v in model.frame.above(w) if rec(v, f.left))
    raise TypeError(f"base evaluator got a modal formula: {f!r}")


def classical_base_forces(valuation: frozenset, w, f: Formula,
                          rec: Callable) -> bool:
    """Truth-table clauses; the member is just a set of true atoms."""
    if isinstance(f, Atom):
        return f.name in valuation
    if isinstance(f, Bottom):
        return False
    if isinstance(f, And):
        return rec(w, f.left) and rec(w, f.right)
    if isinstance(f, Or):
        return rec(w, f.left) or rec(w, f.right)
    if isinstance(f, Implies):
        return (not rec(w, f.left)) or rec(w, f.right)
    raise TypeError(f"base evaluator got a modal formula: {f!r}")


def classical_carrier(valuation) -> frozenset:
    return frozenset({CLASSICAL_POINT})
