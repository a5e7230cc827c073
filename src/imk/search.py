"""Bounded enumeration of models and countermodel search.

Models are generated with canonical labels (worlds w1..wn, atoms p1..pk,
members K1..Km), in a fixed deterministic order, each labeled structure
exactly once.  Isomorphic structures under different labelings may both
appear; deduplication is by canonical labeling, not isomorphism.  A search
that finds nothing within bounds is one-sided evidence only and is reported
as such, never as validity.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator

from .birelational import _RANK, BirelationalModel, classify
from .formulas import Atom, Formula
from .general import GeneralModel, HomogeneousModel, PartialModel
from .kripke import Frame, PropModel, _frame, _numbering, points, sub_frame
from .memo import Record
from .modelfile import dump_birelational, dump_general, dump_prop_model

__all__ = ["SearchBounds", "SearchOutcome", "LOGICS",
           "enumerate_models", "find_countermodel", "serialize_model"]

LOGICS = ("prop", "ik", "mk", "partial", "homogeneous", "classicalK")

# Candidates are built and checked one at a time: ik and mk classify every
# (frame, valuation, r), already about 153 million at 4 worlds and 1 atom.
MAX_ENUMERABLE_WORLDS = 4


class SearchBounds(Record):
    logic: str
    max_worlds: int = 3
    max_atoms: int = 1
    max_submodels: int = 1
    rooted: bool = False

    def __post_init__(self):
        if self.logic not in LOGICS:
            raise ValueError(f"logic must be one of {LOGICS}, not {self.logic!r}")
        if min(self.max_worlds, self.max_atoms, self.max_submodels) < 1:
            raise ValueError("all bounds must be at least 1")
        if self.max_worlds > MAX_ENUMERABLE_WORLDS:
            raise ValueError(f"enumeration is capped at {MAX_ENUMERABLE_WORLDS} worlds")


class SearchOutcome(Record):
    found: bool
    model: str | None          # canonical model file text
    locus: tuple[str | None, str] | None  # (submodel or None, world)
    models_examined: int
    elapsed: float


def _world_names(n: int) -> list[str]:
    return [f"w{i}" for i in range(1, n + 1)]


def _frames(n: int) -> list[Frame]:
    """All preorders over w1..wn, ordered by their sorted pair lists: the
    tuples of reflexive up rows in which each row holds its points' rows."""
    worlds = _world_names(n)
    rows = [[row for row in range(1 << n) if row >> i & 1] for i in range(n)]
    ups = (up for up in itertools.product(*rows)
           if all(up[j] | row == row for row in up for j in points(row)))
    frames = [_frame(frozenset(worlds), _numbering(worlds), list(up)) for up in ups]
    return sorted(frames, key=lambda frame: sorted(frame.le))


def _up_sets(frame: Frame) -> list[int]:
    """The up-closed sets of frame's points as masks, by size and then in
    combination order, so the empty set comes first."""
    up, n = frame.compiled[1], len(frame.worlds)
    masks = (sum(1 << i for i in combo) for size in range(n + 1)
             for combo in itertools.combinations(range(n), size))
    return [mask for mask in masks if all(up[i] | mask == mask for i in points(mask))]


def _valuations(frame: Frame, atoms: list[str]) -> Iterator[frozenset]:
    """All hereditary valuations: each atom's extension is an upward-closed set."""
    names = frame.sorted_worlds()
    ups = [frozenset(names[i] for i in points(mask)) for mask in _up_sets(frame)]
    for choice in itertools.product(ups, repeat=len(atoms)):
        yield frozenset((w, atom) for atom, ext in zip(atoms, choice) for w in ext)


def _relation_subsets(labels: list) -> Iterator[frozenset]:
    """Every relation over labels (worlds or member ids), in a fixed order."""
    pairs = [(a, b) for a in labels for b in labels]
    for bits in itertools.product((False, True), repeat=len(pairs)):
        yield frozenset(p for p, keep in zip(pairs, bits) if keep)


def _atom_names(k: int) -> list[str]:
    return [f"p{i}" for i in range(1, k + 1)]


def _query_alphabet(formulas, k: int) -> list[str]:
    """Atom names the search valuates: the query's own atoms (sorted, first k),
    padded with fresh p1, p2, ... up to exactly k names."""
    names = sorted({a for f in formulas for cls, a, _ in f.program
                    if cls is Atom})[:k]
    fresh = (name for name in _atom_names(k + len(names)) if name not in names)
    while len(names) < k:
        names.append(next(fresh))
    return sorted(names)


def enumerate_models(b: SearchBounds, atoms: list[str] | None = None) -> Iterator:
    """Every model of the requested class within bounds, exactly once, in a
    fixed order.  The valuation alphabet defaults to the canonical p1..pk."""
    if atoms is None:
        atoms = _atom_names(b.max_atoms)
    if b.logic == "prop":
        for n in range(1, b.max_worlds + 1):
            for frame in _frames(n):
                for val in _valuations(frame, atoms):
                    yield PropModel(frame, val)
    elif b.logic in ("ik", "mk"):
        want = _RANK["strong" if b.logic == "mk" else "birelational"]
        for n in range(1, b.max_worlds + 1):
            worlds = _world_names(n)
            for frame in _frames(n):
                for val in _valuations(frame, atoms):
                    for r in _relation_subsets(worlds):
                        m = BirelationalModel(frame, r, val)
                        if _RANK[classify(m)] >= want:
                            yield m
    else:  # partial, homogeneous and classicalK
        yield from _enumerate_families(b, atoms)


def _member_ids(m: int) -> list[str]:
    return [f"K{i}" for i in range(1, m + 1)]


class _Relations(dict):
    """Every succ relation over K1..Km, listed on first use for each m."""

    def __missing__(self, m: int) -> list[frozenset]:
        self[m] = list(_relation_subsets(_member_ids(m)))
        return self[m]


def _enumerate_families(b: SearchBounds, atoms: list[str]) -> Iterator:
    """K1 carries the full reference frame.  In a partial family later
    members carry upward-closed subframes of it; every partial model has
    this shape up to relabeling.  In a homogeneous family they carry the
    frame itself, and classicalK's frame is one world.  Members are built
    once per (frame, valuation) and shared by families."""
    partial, relations = b.logic == "partial", _Relations()
    for n in [1] if b.logic == "classicalK" else range(1, b.max_worlds + 1):
        for ref in _frames(n):
            names, up = ref.sorted_worlds(), ref.compiled[1]
            if b.rooted and (1 << n) - 1 not in up:  # rooted: some up row holds every point
                continue
            ref_members = [PropModel(ref, v) for v in _valuations(ref, atoms)]
            later = [ref_members]
            if partial:  # the part on an up-closed set is rooted when that set is an up row
                subs = [sub_frame(ref, frozenset(names[i] for i in points(kept)))
                        for kept in _up_sets(ref)[1:] if not b.rooted or kept in up]
                later = [[PropModel(fr, v) for v in _valuations(fr, atoms)] for fr in subs]
            for m in range(1, b.max_submodels + 1):
                ids = _member_ids(m)
                for spaces in itertools.product([ref_members], *[later] * (m - 1)):
                    for chosen in itertools.product(*spaces):
                        submodels = tuple(sorted(zip(ids, chosen)))
                        for succ in relations[m]:
                            g = GeneralModel(submodels, succ)
                            yield PartialModel(g, "K1") if partial else HomogeneousModel(g)


def serialize_model(model) -> str:
    """Canonical model-file text for anything enumerate_models yields."""
    if isinstance(model, PartialModel):
        return dump_general(model.general, reference=model.reference)
    if isinstance(model, HomogeneousModel):
        return dump_general(model.general)
    if isinstance(model, BirelationalModel):
        return dump_birelational(model)
    return dump_prop_model(model)


def find_countermodel(f: Formula, gamma, b: SearchBounds) -> SearchOutcome:
    """First enumerated model with a point where all of gamma holds and f
    fails, under the forcing relation of the requested class.  Each model's
    kernel reads a premise only while some point forces the ones before it,
    and the goal only if some point forces them all; the locus is the
    lowest such point where f fails."""
    gamma = list(gamma)
    start = time.perf_counter()
    examined = 0
    alphabet = _query_alphabet([f, *gamma], b.max_atoms)
    # ik and mk candidates are classified as they are enumerated
    kernel_of = {"ik": "ik_kernel", "mk": "mk_kernel"}.get(b.logic, "kernel")
    family = b.logic in ("partial", "homogeneous", "classicalK")
    for model in enumerate_models(b, atoms=alphabet):
        examined += 1
        kernel = getattr(model, kernel_of)
        mask = kernel.full
        for g in gamma:
            if not mask:
                break
            mask &= kernel.extension(g)
        if mask:
            mask &= ~kernel.extension(f)
        if mask:
            point = list(kernel.index)[(mask & -mask).bit_length() - 1]
            k, w = point if family else (None, point)
            return SearchOutcome(True, serialize_model(model), (k, str(w)),
                                 examined, time.perf_counter() - start)
    return SearchOutcome(False, None, None, examined, time.perf_counter() - start)
