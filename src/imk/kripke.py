"""Propositional Kripke models and intuitionistic forcing.

Frames are finite preorders.  build_frame closes the generators as one
bitmask row per world and keeps the rows; the pairs ``le`` are spelled out
only when read.  Valuations are hereditary: an atom forced at a world stays
forced at every later world.
World labels are plain identifiers in files, but any hashable value works
internally (flattening uses (world, submodel) pairs).

``Kernel`` is the one forcing evaluator of the package: propositional, IK,
MK, partial and homogeneous forcing each compile a model into numbered
points with bitmask rows, and differ only in the rows they build.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import reduce
from operator import and_, or_
from typing import Hashable, Iterable, Iterator, Mapping

from .formulas import And, Atom, Bottom, Box, Formula, Implies, Or
from .memo import cached

__all__ = [
    "World", "Frame", "PropModel",
    "ModelError", "HeredityError", "UnknownWorldError", "UnsupportedConnectiveError",
    "build_frame", "build_prop_model", "closure", "relation_masks", "label_masks",
    "points", "compose", "Kernel", "forces", "entails", "model_valid",
    "is_partial_copy", "upward_restrict", "sub_frame", "world_key",
]

World = Hashable
Pair = tuple[World, World]


class ModelError(ValueError):
    pass


class HeredityError(ModelError):
    def __init__(self, low: World, high: World, atom: str):
        super().__init__(f"heredity violated: atom {atom!r} holds at {low!r} "
                         f"but not at later world {high!r}")
        self.witness = (low, high, atom)


class UnknownWorldError(ModelError):
    def __init__(self, w: World):
        super().__init__(f"unknown world {w!r}")


class UnsupportedConnectiveError(ModelError):
    """Box/Diamond have no clauses in purely propositional models."""


def world_key(w: World):
    """Sort key that works for both string worlds and tuple-shaped worlds."""
    return tuple(w) if isinstance(w, tuple) else (w,)


def closure(worlds: Iterable[World], pairs: Iterable[Pair]) -> frozenset[Pair]:
    """Reflexive-transitive closure of pairs over the given world set:
    Warshall's algorithm on one bitmask row per world or endpoint."""
    worlds, pairs = list(worlds), list(pairs)
    names = list(dict.fromkeys([*worlds, *(x for pair in pairs for x in pair)]))
    index = {x: i for i, x in enumerate(names)}
    rows = relation_masks(index, pairs)
    for w in worlds:
        rows[index[w]] |= 1 << index[w]
    return frozenset((names[i], names[j]) for i, row in enumerate(_warshall(rows))
                     for j in points(row))


def _warshall(rows: list[int]) -> list[int]:
    """The rows closed under transitivity, in place."""
    for k, row in enumerate(rows):  # now every path via points 0..k-1 is in rows
        bit = 1 << k
        for i, r in enumerate(rows):
            if r & bit:
                rows[i] = r | row
    return rows


def relation_masks(index: Mapping, pairs: Iterable[Pair]) -> list[int]:
    """Row i holds bit j for every pair (a, b) with index[a] == i, index[b] == j."""
    rows = [0] * len(index)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def label_masks(index: Mapping, pairs: Iterable[tuple]) -> dict[str, int]:
    """For (point, atom) pairs: each atom's set of points as a bitmask."""
    out: dict[str, int] = {}
    for p, atom in pairs:
        out[atom] = out.get(atom, 0) | 1 << index[p]
    return out


def points(mask: int) -> Iterator[int]:
    """The numbers of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def compose(x: list[int], y: list[int]) -> list[int]:
    """The rows x followed by y: row i is the union of y's rows at x[i]'s points."""
    return [reduce(or_, (y[j] for j in points(row)), 0) for row in x]


def _point_at(index: Mapping, mask: int):
    """The point behind the lowest set bit of a nonzero mask."""
    return list(index)[(mask & -mask).bit_length() - 1]


class Frame:
    """A finite preorder: the worlds, and le, the pairs (a, b) with a <= b.
    Frame(worlds, le) checks the pairs it is given.  build_frame makes a
    frame from bitmask rows that are closed by construction, and spells le
    out only when it is read.  Frames are immutable and compare on
    (worlds, le), whichever way they were made."""

    def __init__(self, worlds: frozenset, le: frozenset):
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "le", le)
        if not worlds:
            raise ModelError("a frame needs at least one world")
        for a, b in le:
            if a not in worlds or b not in worlds:
                raise ModelError(f"le endpoint {a!r} or {b!r} is not a world")
        for w in worlds:
            if (w, w) not in le:
                raise ModelError(f"le is not reflexive at {w!r}")
        index, up = self.compiled
        for a, b in le:  # transitive: up[b] lies inside up[a]
            extra = up[index[b]] & ~up[index[a]]
            if extra:
                d = _point_at(index, extra)
                raise ModelError(f"le is not transitive: {a!r} {b!r} {d!r}")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return self is other or (self.worlds, self.le) == (other.worlds, other.le)

    def __hash__(self):
        return hash((self.worlds, self.le))

    def __repr__(self):
        return f"Frame(worlds={self.worlds!r}, le={self.le!r})"

    @cached
    def compiled(self) -> tuple[dict, list[int]]:
        """(index, up): a number for each world, and for each number the
        bitmask of the worlds at or above it."""
        index = {w: i for i, w in enumerate(self.worlds)}
        return index, relation_masks(index, self.le)

    @cached
    def down(self) -> list[int]:
        """For each number, the bitmask of the worlds at or below it: the
        transpose of the up rows."""
        up = self.compiled[1]
        down = [0] * len(up)
        for i, row in enumerate(up):
            for j in points(row):
                down[j] |= 1 << i
        return down

    @cached
    def partial_copy_of(self) -> dict:
        """is_partial_copy's verdicts with this frame as the candidate, by
        reference frame."""
        return {}

    def above(self, w: World) -> frozenset:
        index, up = self.compiled
        return frozenset(v for v, j in index.items() if up[index[w]] >> j & 1)

    def sorted_worlds(self) -> list:
        return sorted(self.worlds, key=world_key)


class _RowFrame(Frame):
    """A frame made from up rows that are closed by construction: nothing
    checks them, and le is spelled out from them on first read.  Frame
    itself keeps le as a plain attribute, the fastest to read."""

    def __init__(self, worlds: frozenset, index: dict, up: list[int]):
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "compiled", (index, up))

    @cached
    def le(self) -> frozenset:
        index, up = self.compiled
        names = list(index)
        return frozenset((a, names[j]) for a, i in index.items() for j in points(up[i]))


def build_frame(worlds: Iterable[World], le_generators: Iterable[Pair]) -> Frame:
    """Frame over worlds whose le is the reflexive-transitive closure of the
    generators, kept as bitmask rows over the numbering Frame.compiled uses."""
    ws = frozenset(worlds)
    gens = list(le_generators)
    for a, b in gens:
        if a not in ws or b not in ws:
            raise ModelError(f"le generator ({a!r}, {b!r}) has an endpoint outside the world set")
    if not ws:
        raise ModelError("a frame needs at least one world")
    index = {w: i for i, w in enumerate(ws)}
    rows = [row | 1 << i for i, row in enumerate(relation_masks(index, gens))]
    return _RowFrame(ws, index, _warshall(rows))


class Kernel:
    """Forcing over one model compiled to points 0..n-1, every set of points
    an int bitmask.  up[i] holds the points at or above i; box[i] and dia[i]
    hold the points that box and diamond read from i, and are None where the
    semantics has no modal clauses.  Each semantics differs from the others
    only in the rows it builds."""

    def __init__(self, index: Mapping, up: list[int], atoms: Mapping[str, int],
                 box: list[int] | None = None, dia: list[int] | None = None):
        self.index, self.up, self.atoms, self.box, self.dia = index, up, atoms, box, dia
        self.full = (1 << len(up)) - 1  # every point
        # extensions of -> / [] / <> nodes, keyed by the class and the mask
        # that _select reads, so equal subformulas share one entry
        self._nodes: dict[tuple, int] = {}
        self._roots: dict[int, tuple[Formula, int]] = {}  # id(f) -> (f, extension)

    def extension(self, f: Formula) -> int:
        """Bitmask of the points that force f."""
        hit = self._roots.get(id(f))
        if hit is None or hit[0] is not f:
            hit = self._roots[id(f)] = (f, self.extensions(f)[1][-1])
        return hit[1]

    def extensions(self, f: Formula) -> tuple[list[tuple], list[int]]:
        """Keys of f's distinct subformulas (f.program), f last, and the
        extension of each."""
        keys = f.program
        exts: list[int] = []
        append, atom, nodes = exts.append, self.atoms.get, self._nodes
        for cls, a, b in keys:
            if cls is Atom:
                append(atom(a, 0))
            elif cls is And:
                append(exts[a] & exts[b])
            elif cls is Or:
                append(exts[a] | exts[b])
            elif cls is Bottom:
                append(0)
            else:
                key = (cls, exts[a] & ~exts[b] if cls is Implies else exts[a])
                ext = nodes.get(key)
                if ext is None:
                    ext = nodes[key] = self._select(*key)
                append(ext)
        return keys, exts

    def _select(self, cls, mask: int) -> int:
        """Points whose row misses mask (-> over up, box over box) or meets it
        (diamond over dia).  For -> the mask is A & ~B, for box and diamond
        the extension of the inner formula."""
        if cls is Implies:
            rows, meets = self.up, False
        elif self.box is None:
            raise UnsupportedConnectiveError(
                f"propositional models have no clause for {cls.__name__}")
        elif cls is Box:
            rows, mask, meets = self.box, ~mask, False
        else:
            rows, meets = self.dia, True
        out = 0
        for i, row in enumerate(rows):
            if bool(row & mask) == meets:
                out |= 1 << i
        return out

    def entails(self, p, gamma: Iterable[Formula], f: Formula) -> bool:
        """Forcing of f at p when gamma is empty: one bit of f's memoised
        extension.  Otherwise every point above p that forces all of gamma
        forces f.  An unknown p raises UnknownWorldError."""
        try:
            i = self.index[p]
        except KeyError:
            raise UnknownWorldError(p) from None
        premises = [self.extension(g) for g in gamma] if gamma else None
        hit = self._roots.get(id(f))
        ext = hit[1] if hit is not None and hit[0] is f else self.extension(f)
        if not premises:
            return ext >> i & 1 == 1
        return not self.up[i] & ~ext & reduce(and_, premises)

    def valid(self, gamma: Iterable[Formula], f: Formula, carrier: int = -1) -> bool:
        """entails at every point of carrier, all points by default, as one
        mask test: each up row holds its own point and stays in the carrier."""
        premises = reduce(and_, map(self.extension, gamma), carrier)
        return not premises & ~self.extension(f) & self.full


@dataclass(frozen=True)
class PropModel:
    frame: Frame
    val: frozenset  # pairs (world, atom)

    def __post_init__(self):
        for w, _ in self.val:
            if w not in self.frame.worlds:
                raise UnknownWorldError(w)
        index, up = self.frame.compiled
        masks = self.atom_masks
        for w, atom in self.val:
            if up[index[w]] & ~masks[atom]:
                raise self._heredity_error()

    def _heredity_error(self) -> HeredityError:
        """The least violating (world, atom) by world_key and atom name, with
        its least missing later world, so that the report does not follow
        set order."""
        index, up = self.frame.compiled
        masks, names = self.atom_masks, list(index)
        low, atom = min(((w, atom) for w, atom in self.val
                         if up[index[w]] & ~masks[atom]),
                        key=lambda pair: (world_key(pair[0]), pair[1]))
        missing = up[index[low]] & ~masks[atom]
        return HeredityError(low, min((names[j] for j in points(missing)), key=world_key),
                             atom)

    @cached
    def atom_masks(self) -> dict[str, int]:
        return label_masks(self.frame.compiled[0], self.val)

    @cached
    def kernel(self) -> Kernel:
        index, up = self.frame.compiled
        return Kernel(index, up, self.atom_masks)

    def atoms(self, w: World) -> frozenset[str]:
        if w not in self.frame.worlds:
            raise UnknownWorldError(w)
        return frozenset(atom for world, atom in self.val if world == w)

    @property
    def worlds(self) -> frozenset:
        return self.frame.worlds


def build_prop_model(frame: Frame, val: Mapping[World, Iterable[str]]) -> PropModel:
    """Validated model; worlds missing from val get the empty atom set."""
    return PropModel(frame, frozenset((w, atom) for w, atoms in val.items()
                                      for atom in atoms))


def forces(model: PropModel, w: World, f: Formula) -> bool:
    """Intuitionistic forcing at w: atoms by valuation, -> quantifies over later worlds."""
    return entails(model, w, (), f)


def entails(model: PropModel, w: World, gamma: Iterable[Formula], f: Formula) -> bool:
    """With empty gamma this is plain forcing; otherwise every later world
    forcing all of gamma must force f."""
    return model.kernel.entails(w, gamma, f)


def model_valid(model: PropModel, gamma: Iterable[Formula], f: Formula) -> bool:
    return model.kernel.valid(gamma, f)


def is_partial_copy(candidate: Frame, reference: Frame) -> bool:
    """True when candidate repeats part of reference: a subset of its worlds,
    closed upward under the reference order, carrying the restricted order;
    so its order is exactly the reference pairs that start at its worlds.
    The verdict is kept on the candidate."""
    known = candidate.partial_copy_of
    verdict = known.get(reference)
    if verdict is None:
        verdict = known[reference] = candidate.worlds <= reference.worlds and \
            candidate.le == {(a, b) for a, b in reference.le if a in candidate.worlds}
    return verdict


def upward_restrict(frame: Frame, j: World) -> Frame:
    """Subframe on the worlds at or above j, with the restricted order."""
    if j not in frame.worlds:
        raise UnknownWorldError(j)
    return sub_frame(frame, frame.above(j))


def sub_frame(frame: Frame, kept: frozenset) -> Frame:
    """Subframe on the worlds kept, with the restricted order."""
    return Frame(kept, frozenset((a, b) for a, b in frame.le
                                 if a in kept and b in kept))
