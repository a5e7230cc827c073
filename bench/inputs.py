"""Seeded inputs for the three workloads, as plain data and model-file text.

Nothing here imports imk: the workloads hand imk only formula text, world
names, generator pairs, valuations and model files.  The same seed gives
byte-identical inputs; ``digest`` is compared across the fresh processes
of one run to check that.

Sizes that set the cost of a workload (world counts, formula sizes, query
mix) are fixed lists; the seed only picks the contents, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from oracle import (BOT, RANK, family_text, flat_image, le_pairs, lifted_text,
                    model_class, neg, render, single_text, size, up_close,
                    up_sets)


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, default=sorted)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- formulas --------------------------------------------------------------------

def random_formula(rng, depth: int, atoms, modal: bool = True):
    if depth == 0 or rng.random() < 0.1:
        return rng.choice([("atom", a) for a in atoms] + [BOT])
    ops = ["and", "or", "imp", "not"] + (["box", "dia"] if modal else [])
    op = rng.choice(ops)
    sub = lambda: random_formula(rng, depth - 1, atoms, modal)
    if op == "not":
        return neg(sub())
    if op in ("box", "dia"):
        return (op, sub())
    return (op, sub(), sub())


def formula_pool(rng, count: int, atoms, modal: bool = True,
                 sizes=(5, 6, 7, 8, 9)) -> list:
    """count distinct formulas of depth at most 3; the i-th has exactly
    sizes[i % len(sizes)] connectives, so every seed's pool is as big."""
    pool = {}
    while len(pool) < count:
        f = random_formula(rng, 3, atoms, modal)
        if size(f) == sizes[len(pool) % len(sizes)]:
            pool.setdefault(render(f), f)
    return list(pool.values())


# --- models ------------------------------------------------------------------------

def world_names(n: int) -> list[str]:
    return [f"w{i}" for i in range(1, n + 1)]


def random_gens(rng, worlds, p: float = 0.3) -> list:
    return [(a, b) for a in worlds for b in worlds if a != b and rng.random() < p]


def random_val(rng, worlds, gens, atoms, p: float = 0.35) -> dict:
    """Hereditary valuation: each atom holds on an up-closed set."""
    up = up_sets(worlds, gens)
    val = {w: set() for w in worlds}
    for atom in atoms:
        for w in up_close(up, [w for w in worlds if rng.random() < p]):
            val[w].add(atom)
    return {w: sorted(s) for w, s in val.items()}


def prop_model(rng, n: int, atoms) -> dict:
    worlds = world_names(n)
    gens = random_gens(rng, worlds)
    return {"worlds": worlds, "le": gens, "val": random_val(rng, worlds, gens, atoms)}


def birel_model(rng, n: int, atoms, want: str) -> dict:
    """Random birelational model of class >= want, by rejection."""
    while True:
        m = prop_model(rng, n, atoms)
        m["r"] = [(a, b) for a in m["worlds"] for b in m["worlds"] if rng.random() < 0.3]
        if m["r"] and RANK[model_class(m)] >= RANK[want]:
            return m


def random_succ(rng, ids, p: float = 0.4) -> list:
    return [(a, b) for a in ids for b in ids if rng.random() < p]


def partial_family(rng, n: int, members: int, atoms) -> dict:
    """K1 carries the reference frame, later members up-closed parts of it."""
    ref = world_names(n)
    gens = random_gens(rng, ref)
    up = up_sets(ref, gens)
    order = sorted(le_pairs(up))
    fam = {}
    for i in range(1, members + 1):
        kept = ref if i == 1 else sorted(up_close(up, rng.sample(ref, rng.randint(1, n))))
        sub = [(a, b) for a, b in order if a in kept and b in kept and a != b]
        fam[f"K{i}"] = {"worlds": kept, "le": sub,
                        "val": random_val(rng, kept, sub, atoms)}
    ids = sorted(fam)
    return {"members": fam, "succ": random_succ(rng, ids), "reference": "K1"}


def homogeneous_family(rng, n: int, members: int, atoms) -> dict:
    worlds = world_names(n)
    gens = random_gens(rng, worlds)
    fam = {f"K{i}": {"worlds": worlds, "le": gens,
                     "val": random_val(rng, worlds, gens, atoms)}
           for i in range(1, members + 1)}
    return {"members": fam, "succ": random_succ(rng, sorted(fam))}


def classical_family(rng, members: int, atoms) -> dict:
    fam = {f"K{i}": {"worlds": ["w1"], "le": [],
                     "val": {"w1": sorted(a for a in atoms if rng.random() < 0.5)}}
           for i in range(1, members + 1)}
    return {"members": fam, "succ": random_succ(rng, sorted(fam), 0.5)}


def distinct(make, count: int) -> list:
    """make(0), ..., make(count - 1), each retried until its contents differ
    from every earlier one."""
    out, seen = [], set()
    for i in range(count):
        for _ in range(10_000):
            item = make(i)
            key = digest(item)
            if key not in seen:
                break
        else:
            raise RuntimeError(f"input space too small for {count} distinct inputs")
        seen.add(key)
        out.append(item)
    return out


# --- sweep ---------------------------------------------------------------------------

# (kind, how many, world counts cycled over, member counts cycled over).
# Sorted by cost per model the kinds fill the latency distribution in
# blocks: classicalK the lowest 40 %, prop, ik and mk up to 72 %, partial
# up to 80 %, homogeneous the top 20 %.  So p50 falls inside the prop/ik/mk
# block and p90 in the middle of the homogeneous one, not on an edge
# between blocks where it would jump from seed to seed.
SWEEP_MIX = (
    ("prop", 200, (3, 4, 5, 6), (1,)),
    ("ik", 60, (2, 3, 4), (1,)),
    ("mk", 60, (2, 3, 4), (1,)),
    ("partial", 80, (3,), (2,)),
    ("homogeneous", 200, (3,), (2,)),
    ("classicalK", 400, (1,), (2, 3, 3, 3)),
)
SWEEP_ATOMS = ("p", "q")


def sweep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    asts = {
        "modal": formula_pool(rng, 40, SWEEP_ATOMS),
        "prop": formula_pool(rng, 30, SWEEP_ATOMS, modal=False),
        "classical": formula_pool(rng, 12, SWEEP_ATOMS),
    }
    models = []
    for kind, count, worlds, members in SWEEP_MIX:
        def make(i):
            n, m = worlds[i % len(worlds)], members[i % len(members)]
            if kind == "prop":
                return prop_model(rng, n, SWEEP_ATOMS)
            if kind in ("ik", "mk"):
                return birel_model(rng, n, SWEEP_ATOMS,
                                   "birelational" if kind == "ik" else "strong")
            if kind == "partial":
                return partial_family(rng, n, m, SWEEP_ATOMS)
            if kind == "homogeneous":
                return homogeneous_family(rng, n, m, SWEEP_ATOMS)
            return classical_family(rng, m, SWEEP_ATOMS)
        models += [(kind, m) for m in distinct(make, count)]
    rng.shuffle(models)
    pools = {name: [render(f) for f in pool] for name, pool in asts.items()}
    return {"pools": pools, "asts": asts, "models": models}


# --- search ----------------------------------------------------------------------------

TOP = ("imp", BOT, BOT)


def separation_1(a, b):
    """(~[]_|_) -> <>T"""
    return ("imp", neg(("box", BOT)), ("dia", TOP))


def separation_2(a, b):
    """([](a|~a) & ~[]a) -> <>~a"""
    p = ("atom", a)
    return ("imp", ("and", ("box", ("or", p, neg(p))), neg(("box", p))), ("dia", neg(p)))


def k_axiom(a, b):
    """[](a -> b) -> ([]a -> []b)"""
    p, q = ("atom", a), ("atom", b)
    return ("imp", ("box", ("imp", p, q)), ("imp", ("box", p), ("box", q)))


# (logic, formula, worlds, atoms, members, known: found, models examined)
SEARCH_FINDS = (
    ("mk", separation_1, 3, 1, 1, False, 4778),
    ("mk", separation_2, 3, 1, 1, False, 4778),
    ("ik", separation_1, 3, 1, 1, True, 12),
    ("ik", separation_2, 3, 1, 1, True, 12),
    ("partial", k_axiom, 3, 1, 2, False, 27264),
    ("homogeneous", k_axiom, 3, 1, 2, False, 11072),
)
# enumerate_models + serialize_model: (logic, worlds, atoms, members, known count)
SEARCH_ENUMERATE = ("partial", 2, 1, 3, 217212)


def search_inputs(seed: int) -> dict:
    """The known-answer searches, with seeded atom names.  Renaming atoms
    leaves every known answer unchanged; a sorts before b in every seed,
    because the search valuates only the first atom in sorted order."""
    rng = random.Random(seed)
    a, b = sorted(rng.sample(["p", "q", "r", "s", "t", "u"], 2))
    finds = [{"logic": logic, "ast": make(a, b), "formula": render(make(a, b)),
              "worlds": n, "atoms": k, "members": m, "found": found, "examined": examined}
             for logic, make, n, k, m, found, examined in SEARCH_FINDS]
    logic, n, k, m, count = SEARCH_ENUMERATE
    return {"finds": finds,
            "enumerate": {"logic": logic, "worlds": n, "atoms": k, "members": m,
                          "alphabet": [a], "count": count}}


# --- cli -----------------------------------------------------------------------------------

CLI_ATOMS = ("p", "q")
# Small queries: (kind, how many).  Models have 2-8 worlds.
CLI_SMALL = (
    ("parse", 10), ("parse_deep", 2), ("check_prop", 12), ("check_ik", 6),
    ("check_mk", 6), ("check_partial", 6), ("check_homogeneous", 6),
    ("check_nmodel", 4), ("check_deep", 2), ("frame_check", 6), ("classify", 6),
    ("flatten", 4), ("equiv_report", 4), ("countermodel", 3), ("invalid", 4),
)
# Large queries on 40-60-world models: (kind, world count), one count each,
# paired the same way for every seed so that every seed does the same work.
CLI_LARGE = tuple(zip(
    ("check_prop", "check_ik", "check_prop", "classify", "check_prop",
     "frame_check", "check_prop", "check_prop", "check_ik", "check_prop") * 2,
    (n for n in range(40, 61) if n != 50)))
CLI_DEEP = (300, 500)
CLI_INVALID = ("syntax", "undeclared", "heredity", "unknown_at")


def chain_model(rng, worlds, blocks: bool, atoms, r: bool) -> dict:
    """A chain, or with blocks=True a total preorder of random clusters."""
    worlds = list(worlds)
    rng.shuffle(worlds)
    gens, i = [], 0
    prev = None
    while i < len(worlds):
        width = rng.randint(1, 3) if blocks else 1
        block = worlds[i:i + width]
        gens += [(a, b) for a in block for b in block if a != b]
        if prev:
            gens.append((prev, block[0]))
        prev, i = block[-1], i + width
    m = {"worlds": sorted(worlds), "le": gens,
         "val": random_val(rng, worlds, gens, atoms, p=0.05)}
    if r:
        m["r"] = [(w, w) for w in sorted(worlds)]
    return m


def _small_query(rng, kind: str, i: int) -> dict:
    n = 2 + i % 7
    f = lambda modal=True: formula_pool(rng, 1, CLI_ATOMS, modal)[0]
    if kind == "parse":
        return {"formula": f()}
    if kind in ("parse_deep", "check_deep"):
        q = {"formula": ("deep", CLI_DEEP[i % 2])}
        if kind == "check_deep":
            q["model"] = prop_model(rng, 3, CLI_ATOMS)
        return q
    if kind == "check_prop":
        return {"model": prop_model(rng, n, CLI_ATOMS), "formula": f(False)}
    if kind in ("check_ik", "check_mk", "frame_check", "classify"):
        if kind == "check_mk" or (kind != "check_ik" and i % 2):
            fam = homogeneous_family(rng, 1 + i % 4, 2, CLI_ATOMS)
        else:
            fam = partial_family(rng, 1 + i % 4, 2, CLI_ATOMS)
        model = flat_image(fam) if kind != "frame_check" or i % 3 else \
            birel_model(rng, 3, CLI_ATOMS, "none")
        return {"model": model, "formula": f()}
    if kind == "check_partial":
        return {"family": partial_family(rng, 1 + i % 4, 2 + i % 2, CLI_ATOMS),
                "formula": f()}
    if kind in ("check_homogeneous", "check_nmodel"):
        fam = homogeneous_family(rng, 1 + i % 4, 2 + i % 2, CLI_ATOMS)
        if not fam["succ"]:
            fam["succ"] = [("K1", "K2")]
        return {"family": fam, "formula": f()}
    if kind in ("flatten", "equiv_report"):
        make = partial_family if i % 2 else homogeneous_family
        return {"family": make(rng, 2 + i % 3, 2, CLI_ATOMS),
                "formulas": [f() for _ in range(3)]}
    if kind == "countermodel":
        logic = ("prop", "ik", "mk")[i % 3]
        return {"logic": logic,
                "formula": formula_pool(rng, 1, ("p",), modal=logic != "prop")[0]}
    if kind == "invalid":
        return {"what": CLI_INVALID[i % len(CLI_INVALID)],
                "model": prop_model(rng, 3, CLI_ATOMS)}
    raise ValueError(kind)


def cli_inputs(seed: int) -> list[dict]:
    """Query specs as plain data; child.cli_setup writes their model files."""
    rng = random.Random(seed)
    queries = []
    for kind, count in CLI_SMALL:
        for i in range(count):
            q = _small_query(rng, kind, i)
            q["kind"] = kind
            queries.append(q)
    for i, (kind, n) in enumerate(CLI_LARGE):
        model = chain_model(rng, world_names(n), i % 2 == 1, CLI_ATOMS,
                            r=kind != "check_prop")
        queries.append({"kind": kind, "large": True, "model": model,
                        "formula": formula_pool(rng, 1, CLI_ATOMS, kind != "check_prop")[0]})
    rng.shuffle(queries)
    for i, q in enumerate(queries):
        q["id"] = f"q{i:03d}"
    return queries


def formula_text(f) -> str:
    if f[0] == "deep":
        return "~" * f[1] + "p"
    return render(f)


def deep_formula(depth: int):
    f = ("atom", "p")
    for _ in range(depth):
        f = neg(f)
    return f


def query_file_text(q: dict) -> str | None:
    """Model-file text for a query, or None when it reads no file."""
    kind = q["kind"]
    if kind == "invalid":
        m = q["model"]
        if q["what"] == "undeclared":
            return single_text(m).replace("end\n", "le w1 zz\nend\n")
        if q["what"] == "heredity":
            low = {**m, "le": [("w1", "w2")], "val": {"w1": ["p"]}}
            return single_text(low)
        return single_text(m)
    if "family" in q:
        return lifted_text(q["family"]) if kind == "check_nmodel" else family_text(q["family"])
    if "model" in q:
        return single_text(q["model"])
    return None


def query_argv(q: dict, path: str | None, out_path: str) -> list[str]:
    kind = q["kind"]
    if kind in ("parse", "parse_deep"):
        argv = ["parse", "--formula", formula_text(q["formula"])]
        return argv + ["--json"] if kind == "parse" else argv
    if kind.startswith("check"):
        logic = {"check_prop": "prop", "check_ik": "ik", "check_mk": "mk",
                 "check_partial": "partial", "check_homogeneous": "homogeneous",
                 "check_deep": "prop"}.get(kind)
        argv = ["check", "--model", path, "--formula", formula_text(q["formula"])]
        return argv + ["--logic", logic] if logic else argv
    if kind == "frame_check":
        return ["frame-check", "--json", "--model", path]
    if kind == "classify":
        return ["classify", "--model", path]
    if kind == "flatten":
        return ["flatten", "--model", path, "-o", out_path]
    if kind == "equiv_report":
        return ["equiv-report", "--model", path,
                "--formula", ";".join(render(f) for f in q["formulas"])]
    if kind == "countermodel":
        return ["countermodel", "--formula", render(q["formula"]), "--logic", q["logic"],
                "--max-worlds", "2", "--max-atoms", "1"]
    if kind == "invalid":
        if q["what"] == "syntax":
            return ["check", "--model", path, "--formula", "(p & -> q"]
        if q["what"] == "unknown_at":
            return ["check", "--model", path, "--formula", "p", "--at", "nowhere"]
        return ["check", "--model", path, "--formula", "p"]
    raise ValueError(kind)


def two_world_models(logic: str, atoms) -> list[dict]:
    """Every model with at most two worlds over the given atoms, for
    re-checking a 'no countermodel' answer: prop models, or birelational
    ones of the class the logic needs."""
    out = []
    for n in (1, 2):
        worlds = world_names(n)
        off = [(a, b) for a in worlds for b in worlds if a != b]
        orders = {}
        for bits in itertools.product((0, 1), repeat=len(off)):
            gens = [p for p, keep in zip(off, bits) if keep]
            orders.setdefault(frozenset(le_pairs(up_sets(worlds, gens))), gens)
        ups = []
        for bits in itertools.product((0, 1), repeat=n):
            s = {w for w, keep in zip(worlds, bits) if keep}
            ups.append(s)
        for gens in orders.values():
            up = up_sets(worlds, gens)
            closed = [s for s in ups if all(up[w] <= s for w in s)]
            for choice in itertools.product(closed, repeat=len(atoms)):
                val = {w: sorted(a for a, s in zip(atoms, choice) if w in s) for w in worlds}
                m = {"worlds": worlds, "le": gens, "val": val}
                if logic == "prop":
                    out.append(m)
                    continue
                pairs = [(a, b) for a in worlds for b in worlds]
                for bits in itertools.product((0, 1), repeat=len(pairs)):
                    bm = {**m, "r": [p for p, keep in zip(pairs, bits) if keep]}
                    want = "birelational" if logic == "ik" else "strong"
                    if RANK[model_class(bm)] >= RANK[want]:
                        out.append(bm)
    return out
