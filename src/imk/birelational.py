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

from operator import itemgetter
from typing import Iterable

from .formulas import Formula
from .kripke import Frame, Kernel, ModelError, PropModel, World, _image, _rows, points
from .memo import Record, cached, set_field

__all__ = [
    "BirelationalModel", "ConditionReport", "CONDITIONS",
    "NotBirelationalError", "NotStrongError",
    "check_condition", "class_of", "classify",
    "forces_ik", "forces_mk", "entails_ik", "entails_mk", "valid_ik", "valid_mk",
]

CONDITIONS = ("F1", "F2", "F3", "F4")


class NotBirelationalError(ModelError):
    """IK forcing needs F1 and F2 (with unique witnesses by default)."""


class NotStrongError(ModelError):
    """MK clauses are only defined on strong models: F3 is required."""


class BirelationalModel(Record):
    frame: Frame
    r: frozenset  # modal relation; no closure is applied
    val: frozenset  # pairs (world, atom), hereditary over frame.le

    def __init__(self, frame: Frame, r: frozenset, val: frozenset):
        set_field(self, "frame", frame)
        set_field(self, "r", r)
        set_field(self, "val", val)
        index, up = frame.compiled
        rows, rinv = _rows(index, r, lambda a, b: ModelError(
            f"r endpoint {a!r} or {b!r} is not a world"), converse=True)
        # over frame.compiled's numbering: up, r and its converse rinv
        set_field(self, "rows", {"up": up, "r": rows, "rinv": rinv})
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
    def admitted(self) -> dict:
        """_kernel's kernels so far, by require_unique and then by rank."""
        return {True: {}, False: {}}

    @cached
    def ik_kernel(self) -> Kernel:
        """IK: box reads r from every later world (the image of up under r,
        in one pass over the frame's plan), diamond reads r."""
        up, r = self.rows["up"], self.rows["r"]
        return Kernel(self.frame.compiled[0], up, self.prop.atom_masks,
                      _image(self.frame.plan, r), r)

    @cached
    def mk_kernel(self) -> Kernel:
        """MK: box and diamond both read r."""
        up, r = self.rows["up"], self.rows["r"]
        return Kernel(self.frame.compiled[0], up, self.prop.atom_masks, r, r)


class ConditionReport(Record):
    condition: str
    holds: bool
    unique: bool
    violations: tuple  # antecedent triples with no witness
    nonunique: tuple   # antecedent triples with two or more witnesses

    def __post_init__(self):
        assert self.holds == (not self.violations)
        assert self.unique == (self.holds and not self.nonunique)


# Each law is an inclusion between two composed rows, for x = r or rinv:
# up;x, the union of x over a point's up row, and x;up, the points at or
# above its x-successors.  F3 reads up;r <= r;up, F4 up;rinv <= rinv;up, F2
# r;up <= up;r and F1 rinv;up <= up;rinv, so F1 is F2 and F4 is F3 on the
# converse.  Each entry names, in BirelationalModel.rows, x and its
# converse; whether up;x is the smaller side; and where the law's
# statement puts a, the middle point and b of an antecedent (a, b).
_LAWS = {"F1": ("rinv", "r", False, itemgetter(1, 2, 0)),
         "F2": ("r", "rinv", False, itemgetter(0, 1, 2)),
         "F3": ("r", "rinv", True, itemgetter(0, 1, 2)),
         "F4": ("rinv", "r", True, itemgetter(0, 1, 2))}


def _failures(m: BirelationalModel, c: str, unique: bool):
    """(a, the b in a's smaller row and not its larger one, the b with two or
    more witnesses) for each point a where law c fails, or where uniqueness
    is asked for and fails.  up;x is one pass over the frame's plan: a
    component's row is x over its points and the rows of the components it
    reaches.  x;up is a walk over x[a]; b has two witnesses there when two
    points of x[a] are at or below it.  b's witnesses in up;x are
    up[a] & xinv[b], so only a point with two or more x-predecessors can
    have two.  The points come component by component, each checked as
    soon as its pass row exists, so a failing law stops early.  The bits
    are walked inline: search classifies every candidate it builds."""
    x, xinv, up_first, _ = _LAWS[c]
    up, x, xinv = m.rows["up"], m.rows[x], m.rows[xinv]
    multi = 0  # the points with two or more x-predecessors
    if unique and not up_first:
        seen = 0
        for row in x:
            multi |= seen & row
            seen |= row
    done: list[int] = []  # up;x, by step
    for a, mates, succ in m.frame.plan:
        image = x[a]
        for b in mates:
            image |= x[b]
        for s in succ:
            image |= done[s]
        done.append(image)
        once = twice = 0
        row = x[a]
        while row:  # x;up: the point j of x[a] reaches each b in up[j]
            low = row & -row
            j = up[low.bit_length() - 1]
            twice |= once & j
            once |= j
            row ^= low
        if up_first:
            small, large = image, once
        else:
            small, large, twice = once, image, 0
            more = small & multi
            while more:
                bit = more & -more
                more ^= bit
                row = xinv[bit.bit_length() - 1] & up[a]
                if row & row - 1:
                    twice |= bit
        if small & ~large or unique and small & twice:
            yield a, small & ~large, small & twice


def check_condition(m: BirelationalModel, c: str) -> ConditionReport:
    """Exhaustive report for one condition: all violations and all antecedents
    whose witness is not unique.  Only failing (a, b) pairs are expanded:
    a <= mid x b for up;x, a x mid <= b for x;up."""
    if c not in _LAWS:
        raise ValueError(f"unknown condition {c!r}; expected one of {CONDITIONS}")
    x, xinv, up_first, order = _LAWS[c]
    up, x, xinv = m.rows["up"], m.rows[x], m.rows[xinv]
    names = list(m.frame.compiled[0])
    found = [], []  # violations, non-unique antecedents
    for a, *masks in _failures(m, c, True):
        for out, mask in zip(found, masks):
            for b in points(mask):
                mids = points(up[a] & xinv[b]) if up_first else \
                    (j for j in points(x[a]) if up[j] >> b & 1)
                for mid in mids:
                    out.append(tuple(names[i] for i in order((a, mid, b))))
    violations, nonunique = (tuple(sorted(out, key=repr)) for out in found)
    return ConditionReport(c, not violations, not violations and not nonunique,
                           violations, nonunique)


# The class of a model by how many of F1, F2, F3, F4 hold, in that order.
_CLASSES = ("none", "none", "birelational", "strong", "excessive")


def classify(m: BirelationalModel, require_unique: bool = True) -> str:
    """Strongest class the model belongs to: 'excessive' > 'strong' >
    'birelational' > 'none'.  Witness uniqueness is part of each class
    definition; pass require_unique=False to accept non-unique witnesses."""
    if require_unique not in m.classes:
        held = 0
        while held < 4 and not next(_failures(m, CONDITIONS[held], require_unique), None):
            held += 1
        m.classes[require_unique] = _CLASSES[held]
    return m.classes[require_unique]


def class_of(reports: list[ConditionReport]) -> str:
    """classify's answer read from the reports of F1-F4, in that order."""
    held = 0
    while held < 4 and reports[held].unique:
        held += 1
    return _CLASSES[held]


_RANK = {"none": 0, "birelational": 1, "strong": 2, "excessive": 3}


def _kernel(m: BirelationalModel, rank: str, require_unique: bool) -> Kernel:
    """The MK kernel for rank 'strong', else the IK one, kept on the model
    once it is known to be of that rank; below it, every call raises."""
    kept = m.admitted[bool(require_unique)]
    kernel = kept.get(rank)
    if kernel is None:
        cls = classify(m, require_unique)
        if _RANK[cls] < _RANK[rank]:
            if rank == "strong":
                raise NotStrongError(
                    f"model classifies as {cls!r}; MK forcing requires F3 (a strong model)")
            raise NotBirelationalError(
                f"model classifies as {cls!r}; IK forcing requires F1 and F2")
        kernel = kept[rank] = m.mk_kernel if rank == "strong" else m.ik_kernel
    return kernel


def forces_ik(m: BirelationalModel, w: World, f: Formula, *,
              require_unique: bool = True) -> bool:
    """IK forcing: box looks at r-successors of all later worlds, diamond at
    direct r-successors."""
    return _kernel(m, "birelational", require_unique).entails(w, (), f)


def forces_mk(m: BirelationalModel, w: World, f: Formula, *,
              require_unique: bool = True) -> bool:
    """MK forcing on strong models: box quantifies over direct r-successors only."""
    return _kernel(m, "strong", require_unique).entails(w, (), f)


def entails_ik(m: BirelationalModel, w: World, gamma: Iterable[Formula],
               f: Formula, *, require_unique: bool = True) -> bool:
    return _kernel(m, "birelational", require_unique).entails(w, gamma, f)


def entails_mk(m: BirelationalModel, w: World, gamma: Iterable[Formula],
               f: Formula, *, require_unique: bool = True) -> bool:
    return _kernel(m, "strong", require_unique).entails(w, gamma, f)


def valid_ik(m: BirelationalModel, gamma: Iterable[Formula], f: Formula, *,
             require_unique: bool = True) -> bool:
    return _kernel(m, "birelational", require_unique).valid(gamma, f)


def valid_mk(m: BirelationalModel, gamma: Iterable[Formula], f: Formula, *,
             require_unique: bool = True) -> bool:
    return _kernel(m, "strong", require_unique).valid(gamma, f)
