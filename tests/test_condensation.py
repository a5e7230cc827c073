"""Frames closed over the strongly connected components of their generators.

Every frame closes its generator rows in one pass over their components,
sinks first, when it is made; the plan of that pass (its components in that
order, each with the components its generators reach) then drives the
walks of F1-F4.  build_frame's generators are its pairs, Frame(worlds, le)
takes the pairs it checks, and sub_frame and flatten take closed rows.  These tests check all four against the pair
oracles of tests/gen.py, on sparse generators with cycles (clusters) and
with diamonds, 1-40 worlds (up to 80 flat worlds).
"""

import random
from functools import reduce
from operator import or_

import pytest

from imk import (BirelationalModel, FlatWorld, PropModel, build_frame, check_condition,
                 classify, flatten, general_model, parse)
from imk.birelational import CONDITIONS
from imk.kripke import Frame, points, sub_frame

from gen import (cluster_generators, naive_class, naive_closure, naive_condition,
                 naive_ik_forces, random_valuation)


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


def _frames(seed: int, sizes) -> list:
    """(worlds, generators, build_frame frame, pair-built frame) per size;
    then, for every third of those, (kept worlds, their restricted order,
    sub_frame of each) and (flat worlds, the members' orders, flatten of a
    family on each frame and its sub_frame)."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        worlds = [f"w{i}" for i in range(1, n + 1)]
        gens = cluster_generators(rng, worlds)
        closed = naive_closure(worlds, gens)
        out.append((worlds, gens, build_frame(worlds, gens), Frame(frozenset(worlds), closed)))
    for worlds, gens, frame, pairs in out[::3]:
        kept = sorted(rng.sample(worlds, rng.randint(1, len(worlds))))
        order = [(a, b) for a, b in sorted(naive_closure(worlds, gens))
                 if a in kept and b in kept]
        subs = [sub_frame(fr, frozenset(kept)) for fr in (frame, pairs)]
        out.append((kept, order, *subs))
        parts = (("K1", worlds, gens), ("K2", kept, order))
        out.append(([FlatWorld(w, k) for k, ws, _ in parts for w in ws],
                    [(FlatWorld(a, k), FlatWorld(b, k)) for k, _, ps in parts for a, b in ps],
                    *(flatten(general_model({"K1": PropModel(fr, frozenset()),
                                             "K2": PropModel(sub, frozenset())},
                                            {("K1", "K2")})).frame
                      for fr, sub in zip((frame, pairs), subs))))
    return out


@pytest.fixture(scope="module")
def frames():
    return _frames(41, [n for n in range(1, 41) for _ in range(3)])


def _relation(rng: random.Random, worlds: list) -> frozenset:
    """Identity on most worlds, a few pairs more."""
    keep = rng.random()
    return frozenset({(w, w) for w in worlds if rng.random() < keep} |
                     {(rng.choice(worlds), rng.choice(worlds))
                      for _ in range(rng.randint(0, len(worlds) // 3))})


def _copies(rng: random.Random, n: int) -> BirelationalModel:
    """Two or three upward closed parts of one frame on cluster generators,
    each world linked by r to its copies along a random relation between the
    parts: the flat image of a family.  Linking only parts to their
    supersets makes it strong (F4 fails where the larger part reaches lower
    worlds); built by build_frame."""
    worlds = [f"w{i}" for i in range(1, n + 1)]
    gens = cluster_generators(rng, worlds)
    up = {a: {b for x, b in naive_closure(worlds, gens) if x == a} for a in worlds}
    parts = {f"k{i}": set().union(*(up[a] for a in rng.sample(worlds, rng.randint(1, n))))
             for i in range(rng.randint(2, 3))}
    nested = rng.random() < 0.7
    succ = [(a, b) for a in parts for b in parts
            if rng.random() < 0.6 and (parts[a] <= parts[b] or not nested)]
    frame = build_frame([f"{w}{k}" for k, part in parts.items() for w in part],
                        [(f"{a}{k}", f"{b}{k}") for k, part in parts.items()
                         for a, b in gens if a in part])
    return BirelationalModel(frame, frozenset((f"{w}{a}", f"{w}{b}") for a, b in succ
                                              for w in parts[a] & parts[b]), frozenset())


def test_the_corpus_has_diamonds_and_clusters(frames):
    """Components of two or more points, and components with two successor
    components, neither above the other, above a common one."""
    diamonds = clusters = 0
    for _, _, frame, _ in frames:
        plan, up = frame.plan, frame.compiled[1]
        clusters += any(mates for _, mates, _ in plan)
        diamonds += any(up[a] & up[b] and not up[a] >> b & 1 and not up[b] >> a & 1
                        for _, _, succ in plan for a, b in
                        ((plan[s][0], plan[t][0]) for s in succ for t in succ))
    assert diamonds > 20 and clusters > 50


def test_up_is_the_closure(frames):
    for worlds, gens, frame, pairs in frames:
        closed = naive_closure(worlds, gens)
        for fr in (frame, pairs):
            assert fr.le == closed


def test_one_closure_is_one_frame(frames):
    rng = random.Random(43)
    for worlds, gens, frame, pairs in frames:
        closed = naive_closure(worlds, gens)
        more = list(gens) + rng.sample(sorted(closed), min(len(closed), 5))
        rng.shuffle(more)
        for other in (pairs, build_frame(worlds, more), build_frame(worlds, sorted(closed))):
            assert other == frame and frame == other and hash(other) == hash(frame)


def test_plans_run_sinks_first_and_close_up(frames):
    """Every component reads only components before it, and the pass over
    the plan gives back up."""
    for _, _, frame, pairs in frames:
        for fr in (frame, pairs):
            plan, unit = fr.plan, [1 << i for i in range(len(fr.worlds))]
            assert all(c < at for at, (_, _, succ) in enumerate(plan) for c in succ)
            assert sorted(a for a, _, _ in plan) == list(range(len(unit)))
            assert _image(plan, unit) == list(fr.compiled[1])


def test_ik_box_rows(frames):
    rng = random.Random(47)
    pool = [parse(t) for t in ("[]p", "[](p -> q)", "<>[]p", "[]<>q | []p", "~[]~p")]
    for worlds, _, frame, pairs in frames:
        for fr in (frame, pairs):
            m = BirelationalModel(fr, _relation(rng, worlds),
                                  random_valuation(rng, fr, ["p", "q"]))
            index, kernel = fr.compiled[0], m.ik_kernel
            assert kernel.ik and kernel.rel == m.rows["r"]
            box = [reduce(or_, (kernel.rel[j] for j in points(row)), 0) for row in kernel.up]
            assert {(a, j) for a in worlds for j in worlds if box[index[a]] >> index[j] & 1} \
                == {(a, j) for a, v in fr.le for b, j in m.r if b == v}
            if len(worlds) <= 20:
                for f in pool:
                    ext = m.ik_kernel.extension(f)
                    assert {w for w in worlds if ext >> index[w] & 1} == \
                        {w for w in worlds if naive_ik_forces(m, w, f)}


def test_classes_and_reports(frames):
    """classify under both flags and every report, field by field, on the
    frames of up to 12 worlds (the oracle sweeps every triple)."""
    rng = random.Random(53)
    seen = set()
    for worlds, _, frame, pairs in frames:
        if len(worlds) > 12:
            continue
        models = [BirelationalModel(fr, _relation(rng, worlds), frozenset())
                  for fr in (frame, pairs) for _ in range(3)]
        for m in models + [_copies(rng, len(worlds) // 2 + 1)]:
            for unique in (True, False):
                assert classify(m, unique) == naive_class(m, unique)
            seen.add(classify(m))
            for c in CONDITIONS:
                rep = check_condition(m, c)
                holds, unique, violations, nonunique = naive_condition(m, c)
                assert (rep.condition, rep.holds, rep.unique) == (c, holds, unique)
                assert rep.violations == tuple(sorted(violations, key=repr))
                assert rep.nonunique == tuple(sorted(nonunique, key=repr))
    assert seen == {"none", "birelational", "strong", "excessive"}
