"""Propositional Kripke models and intuitionistic forcing.

Frames are finite preorders, kept as one bitmask row per world, with the
worlds numbered in world_key order; the pairs ``le`` are spelled out only
when read.  Valuations are hereditary: an atom forced at a world stays
forced at every later world.
World labels are plain identifiers in files; internally any hashable value
that sorts by world_key works (flattening uses (world, submodel) pairs).

``Kernel`` is the one forcing evaluator of the package: propositional, IK,
MK, partial and homogeneous forcing each compile a model into numbered
points with bitmask rows, and differ only in the rows they build.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Hashable, Iterable, Iterator, Mapping

from .formulas import And, Atom, Bottom, Box, Diamond, Formula, Implies, Or
from .memo import Record, cached, set_field

__all__ = [
    "World", "Frame", "PropModel",
    "ModelError", "HeredityError", "UnknownWorldError", "UnsupportedConnectiveError",
    "build_frame", "build_prop_model",
    "points", "Kernel", "forces", "entails", "model_valid",
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


def _close(gens: list[int]) -> tuple[list[int], list[tuple]]:
    """The reflexive-transitive closure of the generator rows gens, and its
    plan: the components in the order they closed, sinks first, as one step
    (a, mates, succ) per point.  A component's first step holds its other
    points as mates and, as succ, the first steps of the components its
    generators reach, bar those that one listed reaches; each mate's step
    reads the first step.  Tarjan's algorithm without recursion; a component
    is closed from those it reaches, one row operation per generator
    (Purdom 1970; Nuutila 1995)."""
    n = len(gens)
    num, low = [0] * n, [0] * n  # depth-first number from 1 (0: unseen), lowlink
    todo, up, plan = list(gens), [0] * n, []
    stack: list[int] = []  # finished points whose component is still open
    # done holds the closed points; a closed point's num is closed plus its
    # component's first step, never below a lowlink
    count, closed, done = 0, n + 1, 0
    for root in range(n):
        if num[root]:
            continue
        bit = 1 << root
        if not gens[root] & ~bit:  # a sink: closed at once
            num[root], up[root], done = closed + len(plan), bit, done | bit
            plan.append((root, (), ()))
            continue
        count += 1
        num[root] = low[root] = count
        path = [root]
        while path:
            v = path[-1]
            row = todo[v] & ~done
            while row:
                bit = row & -row
                row ^= bit
                w = bit.bit_length() - 1
                if num[w]:
                    if num[w] < low[v]:
                        low[v] = num[w]
                elif gens[w] & ~bit:  # descend to w, and come back for the rest of row
                    todo[v], count = row, count + 1
                    num[w] = low[w] = count
                    path.append(w)
                    break
                else:  # a sink, as above
                    num[w], up[w], done = closed + len(plan), bit, done | bit
                    plan.append((w, (), ()))
            else:
                path.pop()
                if low[v] < num[v]:  # v is not its component's root: it waits on the stack
                    stack.append(v)
                    if low[v] < low[path[-1]]:
                        low[path[-1]] = low[v]
                    continue
                mates, mask, row = [], 1 << v, gens[v]
                while stack and num[stack[-1]] > num[v]:  # the rest of v's component
                    mates.append(stack.pop())
                    mask, row = mask | 1 << mates[-1], row | gens[mates[-1]]
                out, row, succ = row & ~mask, row | mask, []
                while out:  # a point above one seen needs no second look
                    j = (out & -out).bit_length() - 1
                    succ.append(num[j] - closed)
                    row, out = row | up[j], out & ~up[j]
                at = len(plan)
                num[v], up[v], done = closed + at, row, done | mask
                plan.append((v, mates, succ))
                for b in mates:
                    num[b], up[b] = closed + at, row
                    plan.append((b, (), (at,)))
    return up, plan


def _image(plan: list[tuple], rows: list[int]) -> list[int]:
    """Row i is the union of rows over the points that point i reaches in
    the plan: one row operation per point and per generator."""
    done, out = [], [0] * len(rows)
    for a, mates, succ in plan:
        row = rows[a]
        for b in mates:
            row |= rows[b]
        for c in succ:
            row |= done[c]
        done.append(row)
        out[a] = row
    return out


def _rows(index: Mapping, pairs: Iterable[tuple], error, converse: bool = False,
          labels: bool = False):
    """The pairs (a, b) numbered by index in the pass that checks them: their
    rows, row index[a] holding bit index[b], and with converse the converse
    rows too; with labels each b is a label, and the result is each label's
    mask of points.  Where index lacks an a, or a b that is a point, the
    _least_bad pair raises error(a, b); that search reads pairs again, so
    pairs is not an iterator."""
    rows = {} if labels else [0] * len(index)
    try:
        if labels:
            for a, b in pairs:
                rows[b] = rows.get(b, 0) | 1 << index[a]
        elif not converse:
            for a, b in pairs:
                rows[index[a]] |= 1 << index[b]
        else:
            conv = [0] * len(index)
            for a, b in pairs:
                i, j = index[a], index[b]
                rows[i] |= 1 << j
                conv[j] |= 1 << i
            return rows, conv
    except KeyError:
        raise error(*_least_bad(index, pairs, labels)) from None
    return rows


def _least_bad(known, pairs: Iterable[tuple], labels: bool = False) -> tuple:
    """The least pair in world_key order whose a, or (without labels) b, is
    not in known, whatever the set order."""
    return min((p for p in pairs if p[0] not in known or not labels and p[1] not in known),
               key=lambda p: (world_key(p[0]), world_key(p[1])))


def points(mask: int) -> Iterator[int]:
    """The numbers of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _numbering(worlds: Iterable[World]) -> dict:
    """Each world's number: its place in world_key order."""
    try:  # worlds of one kind sort alike on their own, and faster
        order = sorted(worlds)
    except TypeError:
        order = sorted(worlds, key=world_key)
    return dict(zip(order, range(len(order))))


class Frame(Record):
    """A finite preorder.  compiled is (index, up): each world's number, its
    place in world_key order, and for each number the bitmask of the worlds
    at or above it; plan is the plan of the pass that closed the rows.
    Every frame closes its generator rows once, at construction: those of
    build_frame's pairs, the pairs that Frame(worlds, le) checks, or the
    closed rows of sub_frame and flatten.  le is spelled out on first read.
    Frames are immutable and compare on (worlds, up)."""

    def __init__(self, worlds: frozenset, le: frozenset):
        if not worlds:
            raise ModelError("a frame needs at least one world")
        index = _numbering(worlds)
        gens, names = _rows(index, le, lambda a, b: ModelError(
            f"le endpoint {a!r} or {b!r} is not a world")), list(index)
        for i, row in enumerate(gens):
            if not row >> i & 1:
                raise ModelError(f"le is not reflexive at {names[i]!r}")
        up = _frame(worlds, index, gens, self).compiled[1]
        for i, row in enumerate(gens):
            if up[i] != row:  # the least row that grew holds a row not inside it
                j = next(j for j in points(row) if gens[j] & ~row)
                d = names[next(points(gens[j] & ~row))]
                raise ModelError(f"le is not transitive: {names[i]!r} {names[j]!r} {d!r}")
        set_field(self, "le", le)

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return (self.worlds, self.compiled[1]) == (other.worlds, other.compiled[1])

    def __hash__(self):
        return hash((self.worlds, self.compiled[1]))

    def __repr__(self):
        return f"Frame(worlds={self.worlds!r}, le={self.le!r})"

    @cached
    def le(self) -> frozenset:
        names, up = list(self.compiled[0]), self.compiled[1]
        return frozenset((a, names[j]) for i, a in enumerate(names) for j in points(up[i]))

    @cached
    def partial_copy_of(self) -> dict:
        """is_partial_copy's verdicts with this frame as the candidate, by
        reference frame."""
        return {}

    def above(self, w: World) -> frozenset:
        index, up = self.compiled
        return frozenset(v for v, j in index.items() if up[index[w]] >> j & 1)

    def sorted_worlds(self) -> list:
        return list(self.compiled[0])


def _frame(worlds: frozenset, index: dict, gens: list[int], frame: Frame | None = None) -> Frame:
    """The frame over worlds, numbered by index in world_key order, whose up
    rows close the generator rows gens; the closing pass gives its plan."""
    if frame is None:
        frame = object.__new__(Frame)
    up, plan = _close(gens)
    set_field(frame, "worlds", worlds)
    set_field(frame, "compiled", (index, tuple(up)))
    set_field(frame, "plan", plan)
    return frame


def build_frame(worlds: Iterable[World], le_generators: Iterable[Pair]) -> Frame:
    """Frame over worlds whose le is the reflexive-transitive closure of the
    generators, closed as bitmask rows in one pass over their components."""
    ws = frozenset(worlds)
    index = _numbering(ws)
    gens = _rows(index, tuple(le_generators), lambda a, b: ModelError(
        f"le generator ({a!r}, {b!r}) has an endpoint outside the world set"))
    if not ws:
        raise ModelError("a frame needs at least one world")
    return _frame(ws, index, gens)


class Kernel:
    """Forcing over one model compiled to points 0..n-1, every set of points
    an int bitmask.  up[i] holds the points at or above i; box[i] and dia[i]
    hold the points that box and diamond read from i, and are None where the
    semantics has no modal clauses.  Each semantics differs from the others
    only in the rows it builds.  unknown(p) is the error for a point p that
    index lacks."""

    def __init__(self, index: Mapping, up: list[int], atoms: Mapping[str, int],
                 box: list[int] | None = None, dia: list[int] | None = None,
                 unknown=UnknownWorldError):
        self.index, self.up, self.atoms, self.box, self.dia = index, up, atoms, box, dia
        self.unknown = unknown
        self.full = (1 << len(up)) - 1  # every point
        # extensions of -> / [] / <> nodes, one dict per connective keyed by
        # the mask that _select reads, so equal subformulas share one entry
        self._nodes: dict[type, dict[int, int]] = {Implies: {}, Box: {}, Diamond: {}}
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
                mask, memo = exts[a] & ~exts[b] if cls is Implies else exts[a], nodes[cls]
                ext = memo.get(mask)
                if ext is None:
                    ext = memo[mask] = self._select(cls, mask)
                append(ext)
        return keys, exts

    def _select(self, cls, mask: int) -> int:
        """Points whose row meets mask (diamond over dia), or misses it (->
        over up; box over box, with the mask turned).  For -> the mask is
        A & ~B, for box and diamond the extension of the inner formula."""
        if cls is not Implies and self.box is None:
            raise UnsupportedConnectiveError(
                f"propositional models have no clause for {cls.__name__}")
        out = 0
        if cls is Diamond:
            for i, row in enumerate(self.dia):
                if row & mask:
                    out |= 1 << i
            return out
        rows, mask = (self.up, mask) if cls is Implies else (self.box, ~mask)
        for i, row in enumerate(rows):
            if not row & mask:
                out |= 1 << i
        return out

    def entailed(self, gamma: Iterable[Formula], f: Formula) -> int:
        """Bitmask of the points where gamma entails f: f's extension when
        gamma is empty, else the points whose up row misses every point that
        forces all of gamma and not f, memoised as the -> node with that
        mask.  Reads gamma in order, then f."""
        premises = [self.extension(g) for g in gamma]
        ext = self.extension(f)
        if not premises:
            return ext
        mask, memo = reduce(and_, premises) & ~ext, self._nodes[Implies]
        hit = memo.get(mask)
        if hit is None:
            hit = memo[mask] = self._select(Implies, mask)
        return hit

    def entails(self, p, gamma: Iterable[Formula], f: Formula) -> bool:
        """Forcing of f at p when gamma is empty: one bit of f's memoised
        extension.  Otherwise one bit of entailed.  An unknown p raises
        unknown(p)."""
        try:
            i = self.index[p]
        except KeyError:
            raise self.unknown(p) from None
        if gamma:
            return self.entailed(gamma, f) >> i & 1 == 1
        hit = self._roots.get(id(f))
        ext = hit[1] if hit is not None and hit[0] is f else self.extension(f)
        return ext >> i & 1 == 1

    def valid(self, gamma: Iterable[Formula], f: Formula, carrier: int = -1) -> bool:
        """entails at every point of carrier, all points by default, as one
        mask test: each up row holds its own point and stays in the carrier."""
        premises = reduce(and_, map(self.extension, gamma), carrier)
        return not premises & ~self.extension(f) & self.full


class PropModel(Record):
    frame: Frame
    val: frozenset  # pairs (world, atom)

    def __init__(self, frame: Frame, val: frozenset):
        set_field(self, "frame", frame)
        set_field(self, "val", val)
        index, up = frame.compiled
        masks = _rows(index, val, lambda w, _: UnknownWorldError(w), labels=True)
        set_field(self, "atom_masks", masks)  # each atom's worlds
        for w, atom in val:
            if up[index[w]] & ~masks[atom]:  # the least (world, atom), its least missing world
                low, atom = min((index[v], a) for v, a in val if up[index[v]] & ~masks[a])
                names = list(index)
                raise HeredityError(names[low], names[next(points(up[low] & ~masks[atom]))], atom)

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
    return model.kernel.entails(w, (), f)


def entails(model: PropModel, w: World, gamma: Iterable[Formula], f: Formula) -> bool:
    """With empty gamma this is plain forcing; otherwise every later world
    forcing all of gamma must force f."""
    return model.kernel.entails(w, gamma, f)


def model_valid(model: PropModel, gamma: Iterable[Formula], f: Formula) -> bool:
    return model.kernel.valid(gamma, f)


def is_partial_copy(candidate: Frame, reference: Frame) -> bool:
    """True when candidate repeats part of reference: its worlds lie in
    reference and each sees the same later worlds in both frames, so they are
    closed upward and carry the restricted order.  Kept on the candidate."""
    known = candidate.partial_copy_of
    verdict = known.get(reference)
    if verdict is None:
        (index, up), (there, rows) = candidate.compiled, reference.compiled
        verdict = candidate.worlds <= reference.worlds
        if verdict:  # each point's number in reference, then its row there
            at = [there[w] for w in index]
            verdict = all(rows[at[i]] == sum(1 << at[j] for j in points(row))
                          for i, row in enumerate(up))
        known[reference] = verdict
    return verdict


def upward_restrict(frame: Frame, j: World) -> Frame:
    """Subframe on the worlds at or above j, with the restricted order."""
    if j not in frame.worlds:
        raise UnknownWorldError(j)
    return sub_frame(frame, frame.above(j))


def sub_frame(frame: Frame, kept: frozenset) -> Frame:
    """Subframe on the worlds kept, with the restricted order."""
    if not kept or not kept <= frame.worlds:  # Frame names what is wrong
        return Frame(kept, frozenset((w, w) for w in kept & frame.worlds))
    index = {w: i for i, w in enumerate(w for w in frame.compiled[0] if w in kept)}
    at, up = [frame.compiled[0][w] for w in index], frame.compiled[1]
    rows = [sum(1 << k for k, j in enumerate(at) if up[i] >> j & 1) for i in at]
    return _frame(frozenset(kept), index, rows)
