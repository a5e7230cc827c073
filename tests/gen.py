"""Deterministic generators and independent oracles shared by the tests.

Formula pools are seeded samples of bounded depth: the full space of
depth-3 formulas over two atoms runs to tens of millions, so sweeps that
say "formulas to depth N" draw from a reproducible pool instead.
"""

from __future__ import annotations

import random
import re

from imk import (And, Atom, BOTTOM, BirelationalModel, Box, Diamond, FlatWorld,
                 GeneralModel, HigherOrderModel, HomogeneousModel, Implies,
                 Not, Or, ParseError, PartialModel, PropModel, general_model,
                 wrap_prop_model)
from imk.kripke import Frame, world_key


# --- formulas ---------------------------------------------------------------

_ATOM_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_PUNCT = ("_|_", "->", "[]", "<>", "~", "&", "|", "(", ")", "T")


def naive_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The formula lexer written character by character: (kind, lexeme,
    1-based position) of each token; blanks are space, tab, CR and LF, and
    '#' comments run to end of line."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _ATOM_RE.match(text, i)
        if m:
            tokens.append(("atom", m.group(), i + 1))
            i = m.end()
            continue
        for lexeme in _PUNCT:
            if text.startswith(lexeme, i):
                tokens.append(("punct", lexeme, i + 1))
                i += len(lexeme)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i + 1)
    return tokens


def random_formula(rng: random.Random, depth: int, atoms: list[str]):
    leaves = [Atom(a) for a in atoms] + [BOTTOM]
    if depth == 0:
        return rng.choice(leaves)
    pick = rng.randrange(7)
    if pick == 0:
        return rng.choice(leaves)
    sub = lambda: random_formula(rng, depth - 1, atoms)
    if pick == 1:
        return And(sub(), sub())
    if pick == 2:
        return Or(sub(), sub())
    if pick == 3:
        return Implies(sub(), sub())
    if pick == 4:
        return Not(sub())
    if pick == 5:
        return Box(sub())
    return Diamond(sub())


def formula_pool(count: int, depth: int, atoms: list[str], seed: int = 0,
                 modal: bool = True) -> list:
    """count distinct formulas of depth <= depth, deterministic for a seed."""
    rng = random.Random(seed)
    pool: dict = {}
    while len(pool) < count:
        f = random_formula(rng, depth, atoms)
        if not modal:
            from imk.formulas import modal_free
            if not modal_free(f):
                continue
        pool[f] = None
    return list(pool)


# --- models -----------------------------------------------------------------

def naive_closure(worlds, pairs) -> frozenset:
    """Reflexive-transitive closure by a set-based search from every world
    and every generator endpoint; reflexive pairs only for the given worlds."""
    ws = set(worlds)
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    rel = {(w, w) for w in ws}
    for a in ws | succ.keys():
        reach: set = set()
        stack = list(succ.get(a, ()))
        while stack:
            b = stack.pop()
            if b not in reach:
                reach.add(b)
                stack.extend(succ.get(b, ()))
        rel.update((a, b) for b in reach)
    return frozenset(rel)


def naive_frame_error(worlds, le) -> str | None:
    """The message of the error Frame(worlds, le) raises, or None, from a
    walk over the pairs: an endpoint outside worlds (the least pair), then
    reflexivity, then transitivity (the least a, then b, then d with a <= b,
    b <= d and not a <= d), worlds taken in sorted order."""
    if not worlds:
        return "a frame needs at least one world"
    bad = [p for p in le if p[0] not in worlds or p[1] not in worlds]
    if bad:
        return "le endpoint {!r} or {!r} is not a world".format(*min(bad))
    names = sorted(worlds, key=world_key)
    for w in names:
        if (w, w) not in le:
            return f"le is not reflexive at {w!r}"
    for a in names:
        for b in names:
            for d in names:
                if (a, b) in le and (b, d) in le and (a, d) not in le:
                    return f"le is not transitive: {a!r} {b!r} {d!r}"
    return None


def random_frame(rng: random.Random, max_worlds: int) -> Frame:
    n = rng.randint(1, max_worlds)
    return random_order(rng, [f"w{i}" for i in range(1, n + 1)])


def random_generators(rng: random.Random, worlds: list) -> list:
    """Each ordered pair of distinct worlds with probability 0.4."""
    return [(a, b) for a in worlds for b in worlds if a != b and rng.random() < 0.4]


def random_order(rng: random.Random, worlds: list) -> Frame:
    """A frame on exactly these worlds, closed from random generators."""
    return Frame(frozenset(worlds), naive_closure(worlds, random_generators(rng, worlds)))


def cluster_generators(rng: random.Random, worlds: list) -> list:
    """Sparse generators whose strongly connected components are clusters of
    1-4 worlds, each closed by a cycle, joined by edges from earlier to later
    clusters of a random order; with many clusters, components with two or
    more successor components (diamonds) are common."""
    ws = list(worlds)
    rng.shuffle(ws)
    clusters, i = [], 0
    while i < len(ws):
        clusters.append(ws[i:i + rng.randint(1, 4)])
        i += len(clusters[-1])
    gens = [(a, b) for c in clusters if len(c) > 1 for a, b in zip(c, c[1:] + c[:1])]
    for i, c in enumerate(clusters):
        gens += [(rng.choice(c), rng.choice(d)) for d in clusters[i + 1:] if rng.random() < 0.3]
    rng.shuffle(gens)
    return gens


def random_valuation(rng: random.Random, frame: Frame, atoms: list[str]) -> frozenset:
    pairs = set()
    for atom in atoms:
        ext = set()
        for w in frame.sorted_worlds():
            if rng.random() < 0.4:
                ext |= set(frame.above(w))
        pairs |= {(w, atom) for w in ext}
    return frozenset(pairs)


def _up_closed_subsets(frame: Frame) -> list[frozenset]:
    import itertools
    worlds = frame.sorted_worlds()
    out = []
    for size in range(1, len(worlds) + 1):
        for combo in itertools.combinations(worlds, size):
            s = frozenset(combo)
            if all(b in s for a, b in frame.le if a in s):
                out.append(s)
    return out


def random_partial_model(rng: random.Random, max_submodels: int = 3,
                         max_worlds: int = 4, atoms: tuple = ("p1", "p2")) -> PartialModel:
    ref = random_frame(rng, max_worlds)
    m = rng.randint(1, max_submodels)
    subsets = _up_closed_subsets(ref)
    members = {}
    for i in range(1, m + 1):
        if i == 1:
            frame = ref
        else:
            kept = rng.choice(subsets)
            frame = Frame(kept, frozenset((a, b) for a, b in ref.le
                                          if a in kept and b in kept))
        members[f"K{i}"] = PropModel(frame, random_valuation(rng, frame, list(atoms)))
    ids = sorted(members)
    succ = {(a, b) for a in ids for b in ids if rng.random() < 0.4}
    return PartialModel(general_model(members, succ), "K1")


def random_homogeneous_model(rng: random.Random, max_submodels: int = 3,
                             max_worlds: int = 4,
                             atoms: tuple = ("p1", "p2")) -> HomogeneousModel:
    frame = random_frame(rng, max_worlds)
    m = rng.randint(1, max_submodels)
    members = {f"K{i}": PropModel(frame, random_valuation(rng, frame, list(atoms)))
               for i in range(1, m + 1)}
    ids = sorted(members)
    succ = {(a, b) for a in ids for b in ids if rng.random() < 0.4}
    return HomogeneousModel(general_model(members, succ))


def random_same_carrier_family(rng: random.Random, max_submodels: int = 3,
                               max_worlds: int = 3,
                               atoms: tuple = ("p1", "p2")) -> GeneralModel:
    """Members on one world set, each member with its own random order."""
    worlds = [f"w{i}" for i in range(1, rng.randint(1, max_worlds) + 1)]
    members = {}
    for i in range(1, rng.randint(1, max_submodels) + 1):
        frame = random_order(rng, worlds)
        members[f"K{i}"] = PropModel(frame, random_valuation(rng, frame, list(atoms)))
    ids = sorted(members)
    succ = {(a, b) for a in ids for b in ids if rng.random() < 0.4}
    return general_model(members, succ)


def partial_corpus(count: int, seed: int = 11) -> list[PartialModel]:
    rng = random.Random(seed)
    return [random_partial_model(rng) for _ in range(count)]


def homogeneous_corpus(count: int, seed: int = 13) -> list[HomogeneousModel]:
    rng = random.Random(seed)
    return [random_homogeneous_model(rng) for _ in range(count)]


# --- pair definitions of the row paths ---------------------------------------
#
# Frames, families and flattening run on bitmask rows; these are the older
# definitions on sets of pairs, kept as oracles.

def pair_partial_copy(candidate: Frame, reference: Frame) -> bool:
    """candidate repeats part of reference: its order is exactly the
    reference pairs that start at its worlds."""
    return candidate.worlds <= reference.worlds and \
        candidate.le == {(a, b) for a, b in reference.le if a in candidate.worlds}


def pair_sub_frame(frame: Frame, kept) -> Frame:
    return Frame(frozenset(kept), frozenset((a, b) for a, b in frame.le
                                            if a in kept and b in kept))


def pair_flat_frame(g) -> Frame:
    worlds = frozenset(FlatWorld(w, k) for k, m in g.submodels for w in m.frame.worlds)
    return Frame(worlds, frozenset((FlatWorld(a, k), FlatWorld(b, k))
                                   for k, m in g.submodels for a, b in m.frame.le))


def pair_partial_links(m) -> tuple[list, list]:
    """(box, diamond) links between the cells of a partial model: box reads
    the reference order, diamond the same world."""
    g = m.general
    worlds = {k: sm.frame.worlds for k, sm in g.submodels}
    ref_le = g.submodel(m.reference).frame.le
    box = [((k, w), (k2, w2)) for k, k2 in g.succ for w, w2 in ref_le
           if w in worlds[k] and w2 in worlds[k2]]
    dia = [((k, w), (k2, w)) for k, k2 in g.succ for w in worlds[k] if w in worlds[k2]]
    return box, dia


def pair_homogeneous(g) -> bool:
    """Every member has one frame, compared as (worlds, le)."""
    return len({(m.frame.worlds, m.frame.le) for _, m in g.submodels}) == 1


# --- independent oracles ----------------------------------------------------

def naive_forces(model: PropModel, w, f) -> bool:
    """Direct clause-by-clause intuitionistic evaluation, no shared machinery."""
    if isinstance(f, Atom):
        return (w, f.name) in model.val
    if isinstance(f, type(BOTTOM)):
        return False
    if isinstance(f, And):
        return naive_forces(model, w, f.left) and naive_forces(model, w, f.right)
    if isinstance(f, Or):
        return naive_forces(model, w, f.left) or naive_forces(model, w, f.right)
    if isinstance(f, Implies):
        return all(naive_forces(model, v, f.right)
                   for a, v in model.frame.le
                   if a == w and naive_forces(model, v, f.left))
    raise ValueError(f"propositional oracle got {f!r}")


def classical_k_forces(valuations: dict, succ: set, k: str, f) -> bool:
    """Classical modal logic K over a plain world set: the worlds are the
    members, the accessibility is succ, truth-table connectives."""
    if isinstance(f, Atom):
        return f.name in valuations[k]
    if isinstance(f, type(BOTTOM)):
        return False
    if isinstance(f, And):
        return (classical_k_forces(valuations, succ, k, f.left)
                and classical_k_forces(valuations, succ, k, f.right))
    if isinstance(f, Or):
        return (classical_k_forces(valuations, succ, k, f.left)
                or classical_k_forces(valuations, succ, k, f.right))
    if isinstance(f, Implies):
        return ((not classical_k_forces(valuations, succ, k, f.left))
                or classical_k_forces(valuations, succ, k, f.right))
    if isinstance(f, Box):
        return all(classical_k_forces(valuations, succ, b, f.inner)
                   for a, b in succ if a == k)
    if isinstance(f, Diamond):
        return any(classical_k_forces(valuations, succ, b, f.inner)
                   for a, b in succ if a == k)
    raise ValueError(f"not a formula: {f!r}")


def naive_condition(m, c: str):
    """Interaction-law check by sweeping all world triples, for cross-checking
    the row-driven implementation.  Returns (holds, unique, violations,
    nonunique): the two flags and the sets of antecedent triples with no
    witness and with two or more."""
    worlds = sorted(m.frame.worlds)
    le, r = m.frame.le, m.r
    violations, nonunique = set(), set()
    for x in worlds:
        for y in worlds:
            for z in worlds:
                if c == "F1":
                    fires = (x, y) in le and (x, z) in r
                    wits = [v for v in worlds if (z, v) in le and (y, v) in r]
                elif c == "F2":
                    fires = (x, y) in r and (y, z) in le
                    wits = [v for v in worlds if (x, v) in le and (v, z) in r]
                elif c == "F3":
                    fires = (x, y) in le and (y, z) in r
                    wits = [v for v in worlds if (x, v) in r and (v, z) in le]
                else:
                    fires = (x, y) in le and (z, y) in r
                    wits = [v for v in worlds if (v, x) in r and (v, z) in le]
                if fires and not wits:
                    violations.add((x, y, z))
                if fires and len(wits) > 1:
                    nonunique.add((x, y, z))
    holds = not violations
    return holds, holds and not nonunique, violations, nonunique


def naive_class(m, require_unique: bool = True) -> str:
    """The class named by how many of F1, F2, F3, F4 hold in turn, read off
    the triple sweep."""
    held = 0
    for c in ("F1", "F2", "F3", "F4"):
        holds, unique, _, _ = naive_condition(m, c)
        if not (unique if require_unique else holds):
            break
        held += 1
    return ("none", "none", "birelational", "strong", "excessive")[held]


def random_birelational(rng: random.Random, max_worlds: int, density: float):
    """A random frame with a random r, each pair kept with the given
    probability; no valuation."""
    frame = random_frame(rng, max_worlds)
    worlds = frame.sorted_worlds()
    r = frozenset((a, b) for a in worlds for b in worlds if rng.random() < density)
    return BirelationalModel(frame, r, frozenset())


def naive_ik_forces(m, w, f) -> bool:
    """IK clauses transcribed directly from their definition."""
    if isinstance(f, Atom):
        return (w, f.name) in m.val
    if isinstance(f, type(BOTTOM)):
        return False
    if isinstance(f, And):
        return naive_ik_forces(m, w, f.left) and naive_ik_forces(m, w, f.right)
    if isinstance(f, Or):
        return naive_ik_forces(m, w, f.left) or naive_ik_forces(m, w, f.right)
    if isinstance(f, Implies):
        return all(naive_ik_forces(m, v, f.right)
                   for a, v in m.frame.le
                   if a == w and naive_ik_forces(m, v, f.left))
    if isinstance(f, Box):
        return all(naive_ik_forces(m, j, f.inner)
                   for a, v in m.frame.le if a == w
                   for b, j in m.r if b == v)
    if isinstance(f, Diamond):
        return any(naive_ik_forces(m, j, f.inner) for a, j in m.r if a == w)
    raise ValueError(f"not a formula: {f!r}")


def naive_mk_forces(m, w, f) -> bool:
    """MK clauses transcribed directly: box reads r successors only."""
    if isinstance(f, Box):
        return all(naive_mk_forces(m, j, f.inner) for a, j in m.r if a == w)
    if isinstance(f, Diamond):
        return any(naive_mk_forces(m, j, f.inner) for a, j in m.r if a == w)
    if isinstance(f, And):
        return naive_mk_forces(m, w, f.left) and naive_mk_forces(m, w, f.right)
    if isinstance(f, Or):
        return naive_mk_forces(m, w, f.left) or naive_mk_forces(m, w, f.right)
    if isinstance(f, Implies):
        return all(naive_mk_forces(m, v, f.right)
                   for a, v in m.frame.le
                   if a == w and naive_mk_forces(m, v, f.left))
    if isinstance(f, Atom):
        return (w, f.name) in m.val
    if isinstance(f, type(BOTTOM)):
        return False
    raise ValueError(f"not a formula: {f!r}")


def _naive_family_forces(g, k, w, f, box_to, dia_to) -> bool:
    """Family clauses at cell (k, w) of the general model g: connectives
    inside member k, box and diamond over the cells that box_to/dia_to list
    for (k, w)."""
    members = dict(g.submodels)
    if isinstance(f, Atom):
        return (w, f.name) in members[k].val
    if isinstance(f, type(BOTTOM)):
        return False
    rec = lambda k2, w2, sub: _naive_family_forces(g, k2, w2, sub, box_to, dia_to)
    if isinstance(f, And):
        return rec(k, w, f.left) and rec(k, w, f.right)
    if isinstance(f, Or):
        return rec(k, w, f.left) or rec(k, w, f.right)
    if isinstance(f, Implies):
        return all(rec(k, v, f.right) for a, v in members[k].frame.le
                   if a == w and rec(k, v, f.left))
    if isinstance(f, Box):
        return all(rec(k2, w2, f.inner) for k2, w2 in box_to(members, k, w))
    if isinstance(f, Diamond):
        return any(rec(k2, w2, f.inner) for k2, w2 in dia_to(members, k, w))
    raise ValueError(f"not a formula: {f!r}")


def naive_partial_forces(m, k, w, f) -> bool:
    """Partial-model clauses transcribed directly: box reaches every world of
    an alternative member that lies above w in the reference order, diamond
    looks for w itself in an alternative member."""
    ref_le = dict(m.general.submodels)[m.reference].frame.le
    alternatives = lambda k: [b for a, b in m.general.succ if a == k]
    box_to = lambda members, k, w: [(k2, w2) for k2 in alternatives(k)
                                    for w2 in members[k2].frame.worlds
                                    if (w, w2) in ref_le]
    dia_to = lambda members, k, w: [(k2, w) for k2 in alternatives(k)
                                    if w in members[k2].frame.worlds]
    return _naive_family_forces(m.general, k, w, f, box_to, dia_to)


def naive_homogeneous_forces(h, k, w, f) -> bool:
    return naive_same_world_forces(h.general, k, w, f)


def naive_same_world_forces(g, k, w, f) -> bool:
    """MK clauses transcribed directly, for any general model whose members
    share one world set: box and diamond look at w itself in every / some
    alternative member."""
    same_world = lambda members, k, w: [(b, w) for a, b in g.succ if a == k]
    return _naive_family_forces(g, k, w, f, same_world, same_world)


def naive_family_entails(forces_fn, m, k, w, gamma, f) -> bool:
    """Entailment inside member k: with empty gamma plain forcing, otherwise
    every later world of the member that forces gamma forces f."""
    if not gamma:
        return forces_fn(m, k, w, f)
    le = dict(m.general.submodels)[k].frame.le
    return all(forces_fn(m, k, v, f) for a, v in le
               if a == w and all(forces_fn(m, k, v, g) for g in gamma))


def random_layered_model(rng: random.Random, level: int, max_objects: int = 3,
                         relations: int = 1):
    """A level-n model whose level-0 objects have 1..3 worlds each, so that a
    shift along the top relation may reach a world that is not there."""
    if level == 0:
        frame = random_frame(rng, 3)
        return wrap_prop_model(PropModel(frame, random_valuation(rng, frame, ["p1", "p2"])))
    names = [f"K{i}" for i in range(1, rng.randint(1, max_objects) + 1)]
    objects = tuple((k, random_layered_model(rng, level - 1, max_objects))
                    for k in names)
    rels = tuple((f"r{i}", frozenset((a, b) for a in names for b in names
                                     if rng.random() < 0.4))
                 for i in range(1, relations + 1))
    return HigherOrderModel(level, objects, rels)


def shuffled_declared_order(m, rng: random.Random):
    """m with the objects of every level, the worlds of its level-0 models
    too, declared in a random order, so that declared order and sorted
    order part."""
    objects = [(k, c if c is None else shuffled_declared_order(c, rng))
               for k, c in m.objects]
    rng.shuffle(objects)
    return HigherOrderModel(m.level, tuple(objects), m.relations, m.val)


def with_lower_relations(m, full: bool):
    """m with every relation strictly between its top level and its level-0
    models made full (every pair of objects) or empty."""
    def lower(child):
        if child.level == 0:
            return child
        names = child.object_names()
        pairs = frozenset((a, b) for a in names for b in names) if full else frozenset()
        return HigherOrderModel(child.level, tuple((k, lower(c)) for k, c in child.objects),
                                tuple((n, pairs) for n, _ in child.relations))
    if m.level == 0:
        return m
    return HigherOrderModel(m.level, tuple((k, lower(c)) for k, c in m.objects), m.relations)


def layered_points(m, prefix=()) -> list[tuple]:
    """The full paths of a layered model, in declared depth-first order."""
    if m.level == 0:
        return [prefix + (w,) for w, _ in m.objects]
    return [p for k, child in m.objects for p in layered_points(child, prefix + (k,))]


def _naive_bottom(m, p: tuple):
    for name in p[:-1]:
        m = dict(m.objects)[name]
    return m


def naive_higher_eval(m, path, f):
    """Layered-model forcing transcribed set by set: the truth of f at path,
    or the name of the error that evaluating it raises.

    Points are the full paths in declared depth-first order.  f errs at a
    point when some order of the lazy clause-by-clause reading meets an
    error there: a conjunct or disjunct that gets read, any later world
    under ->, any box/diamond alternative, or a shift to a path the model
    lacks.  Without a modal rule (level 0, or several top relations) every
    box and diamond errs.  A short path is the first point below it, in
    order, that errs or fails."""
    points = layered_points(m)
    known = set(points)
    modal = m.level > 0 and len(m.relations) == 1
    rel = m.relations[0][1] if modal else frozenset()
    later = {p: [p[:-1] + (v,) for a, v in dict(_naive_bottom(m, p).relations)["le"]
                 if a == p[-1]] for p in points}
    shifts = {p: [(b,) + p[1:] for a, b in rel if a == p[0]] for p in points}

    def ev(g) -> tuple[set, set]:  # (points forcing g, points where g errs)
        if isinstance(g, Atom):
            return {p for p in points if (p[-1], g.name) in _naive_bottom(m, p).val}, set()
        if isinstance(g, type(BOTTOM)):
            return set(), set()
        if isinstance(g, (Box, Diamond)):
            t, e = ev(g.inner)
            quantifier = all if isinstance(g, Box) else any
            return ({p for p in points if quantifier(q in t for q in shifts[p])},
                    {p for p in points
                     if not modal or any(q not in known or q in e for q in shifts[p])})
        (lt, lerr), (rt, rerr) = ev(g.left), ev(g.right)
        if isinstance(g, And):
            return lt & rt, lerr | lt & rerr
        if isinstance(g, Or):
            return lt | rt, lerr | (known - lt) & rerr
        if isinstance(g, Implies):
            return ({p for p in points if all(v in rt for v in later[p] if v in lt)},
                    {p for p in points
                     if any(v in lerr or v in lt and v in rerr for v in later[p])})
        raise ValueError(f"not a formula: {g!r}")

    below = [p for p in points if p[:len(path)] == tuple(path)]
    if not below:
        return "BadPathError"
    t, e = ev(f)
    for p in below:
        if p in e:
            return "BadPathError" if modal else "PolicyGapError"
        if p not in t:
            return False
    return True


# --- bounded enumeration ----------------------------------------------------

def _naive_preorders(n: int) -> list[frozenset]:
    """Every preorder over w1..wn: the closures of all off-diagonal generator
    sets, deduplicated and ordered by their sorted pair lists."""
    import itertools
    worlds = [f"w{i}" for i in range(1, n + 1)]
    off_diag = [(a, b) for a in worlds for b in worlds if a != b]
    seen = {naive_closure(worlds, [p for p, keep in zip(off_diag, bits) if keep])
            for bits in itertools.product((False, True), repeat=len(off_diag))}
    return sorted(seen, key=sorted)


def _naive_valuations(frame: Frame, atoms: list[str]) -> list[frozenset]:
    import itertools
    ups = [frozenset()] + _up_closed_subsets(frame)
    return [frozenset((w, atom) for atom, ext in zip(atoms, choice) for w in ext)
            for choice in itertools.product(ups, repeat=len(atoms))]


def _naive_relations(points: list) -> list[frozenset]:
    import itertools
    pairs = [(a, b) for a in points for b in points]
    return [frozenset(p for p, keep in zip(pairs, bits) if keep)
            for bits in itertools.product((False, True), repeat=len(pairs))]


def _naive_block(name: str, frame: Frame, r, val) -> list[str]:
    order = sorted(frame.worlds)
    lines = [f"model {name}", "worlds " + " ".join(order)]
    lines += [f"le {a} {b}" for a in order for b in order if a != b and (a, b) in frame.le]
    lines += [f"r {a} {b}" for a in order for b in order if (a, b) in r]
    lines += [f"val {w} : {' '.join(sorted(x for v, x in val if v == w))}".rstrip()
              for w in order]
    return lines + ["end"]


def naive_model_texts(logic: str, max_worlds: int, atoms: list[str],
                      max_submodels: int = 1):
    """The canonical model-file text of every model that
    search.enumerate_models(SearchBounds(logic, max_worlds, len(atoms),
    max_submodels), atoms) yields, in its order.  Every candidate is built
    from scratch; ik and mk candidates are classified one by one."""
    import itertools
    from imk import BirelationalModel, classify
    rank = {"none": 0, "birelational": 1, "strong": 2, "excessive": 3}
    sizes = [1] if logic == "classicalK" else range(1, max_worlds + 1)
    for n in sizes:
        worlds = [f"w{i}" for i in range(1, n + 1)]
        for le in _naive_preorders(n):
            frame = Frame(frozenset(worlds), le)
            vals = _naive_valuations(frame, atoms)
            if logic == "prop":
                for v in vals:
                    yield "\n".join(_naive_block("K", frame, (), v)) + "\n"
            elif logic in ("ik", "mk"):
                want = rank["strong" if logic == "mk" else "birelational"]
                for v in vals:
                    for r in _naive_relations(worlds):
                        if rank[classify(BirelationalModel(frame, r, v))] >= want:
                            yield "\n".join(_naive_block("K", frame, r, v)) + "\n"
            else:
                if logic == "partial":  # K1 is the reference; others upward-closed parts
                    subs = [Frame(kept, frozenset((a, b) for a, b in le
                                                  if a in kept and b in kept))
                            for kept in _up_closed_subsets(frame)]
                    tail = ["reference K1"]
                else:  # homogeneous, classicalK: one shared frame
                    subs, tail = [frame], []
                for m in range(1, max_submodels + 1):
                    ids = [f"K{i}" for i in range(1, m + 1)]
                    for frames in itertools.product([frame], *[subs] * (m - 1)):
                        for chosen in itertools.product(
                                *[_naive_valuations(fr, atoms) for fr in frames]):
                            blocks = [line for k, fr, v in sorted(zip(ids, frames, chosen))
                                      for line in _naive_block(k, fr, (), v)]
                            for succ in _naive_relations(ids):
                                yield "\n".join(blocks + tail + [f"succ {a} {b}" for a, b
                                                                  in sorted(succ)]) + "\n"


def _naive_atoms(f) -> set:
    if isinstance(f, Atom):
        return {f.name}
    return set().union(*(_naive_atoms(getattr(f, side)) for side in ("left", "right", "inner")
                         if hasattr(f, side)))


def naive_countermodel(f, gamma, logic: str, max_worlds: int, max_atoms: int = 1,
                       max_submodels: int = 1):
    """(found, model text, locus, models examined) of the bounded search for
    a point where all of gamma holds and f fails: the point-by-point loop
    over the texts of naive_model_texts, read back with modelfile.loads and
    decided by the naive_*_forces oracles.  Points come in model-file order:
    members by id, worlds by name.  The search alphabet is the query's own
    atoms, sorted, the first max_atoms of them, padded with fresh p1, p2, ..."""
    from imk.modelfile import loads
    names = sorted(set().union(_naive_atoms(f), *map(_naive_atoms, gamma)))[:max_atoms]
    fresh = (f"p{i}" for i in range(1, 2 * max_atoms + 1) if f"p{i}" not in names)
    alphabet = sorted(names + [next(fresh) for _ in range(max_atoms - len(names))])
    texts = naive_model_texts(logic, max_worlds, alphabet, max_submodels)
    for examined, text in enumerate(texts, 1):
        doc = loads(text)
        if logic in ("prop", "ik", "mk"):
            m = doc.as_prop_model() if logic == "prop" else doc.as_birelational()
            oracle = {"prop": naive_forces, "ik": naive_ik_forces, "mk": naive_mk_forces}[logic]
            points = [(None, w) for w in sorted(m.frame.worlds)]
            holds = lambda k, w, x: oracle(m, w, x)
        else:
            general = doc.as_general()
            m = PartialModel(general, "K1") if logic == "partial" else HomogeneousModel(general)
            oracle = naive_partial_forces if logic == "partial" else naive_homogeneous_forces
            points = [(k, w) for k, sub in general.submodels for w in sorted(sub.frame.worlds)]
            holds = lambda k, w, x: oracle(m, k, w, x)
        for k, w in points:
            if all(holds(k, w, g) for g in gamma) and not holds(k, w, f):
                return True, text, (k, w), examined
    return False, None, None, examined
