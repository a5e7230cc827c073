"""Reference semantics for checking imk's answers.

Everything here works on plain data (world-name lists, generator pairs,
valuation dicts, formula tuples) and shares no code with imk.  The clauses
are transcribed from the definitions in the project README:

* prop: ``A -> B`` holds at w when every later v forcing A forces B;
* IK:   ``[]A`` holds at w when every r-successor of every later world forces A;
* MK:   ``[]A`` holds at w when every r-successor of w forces A;
* ``<>A`` holds at w when some r-successor of w forces A (IK and MK);
* partial families: cells (K, w); implication runs inside member K; ``[]A``
  needs A at every (K2, w2) with K succ K2, w2 a world of K2 and
  w <= w2 in the reference order; ``<>A`` needs A at some (K2, w) with
  K succ K2 and w a world of K2;
* homogeneous families (and their lift): ``[]A`` / ``<>A`` look at the same
  world in every / some succ-alternative member;
* classical K: the members are the worlds, connectives are truth tables.

Formulas are tuples: ("atom", name), ("bot",), ("and"|"or"|"imp", A, B),
("box"|"dia", A).  Negation is ("imp", A, ("bot",)).
"""

from __future__ import annotations

BOT = ("bot",)


def neg(f):
    return ("imp", f, BOT)


# --- formulas ----------------------------------------------------------------

def render(f) -> str:
    """Fully parenthesised text in imk's formula syntax."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "bot":
        return "_|_"
    if tag == "imp" and f[2] == BOT:
        return "~" + render(f[1])
    if tag == "box":
        return "[]" + render(f[1])
    if tag == "dia":
        return "<>" + render(f[1])
    op = {"and": " & ", "or": " | ", "imp": " -> "}[tag]
    return "(" + render(f[1]) + op + render(f[2]) + ")"


def size(f) -> int:
    """Connectives plus falsum, the measure imk calls complexity."""
    if f[0] == "atom":
        return 0
    return 1 + sum(size(g) for g in f[1:])


def ast_json(f):
    """The AST in the shape ``imk parse --json`` prints."""
    names = {"and": "and", "or": "or", "imp": "implies", "box": "box", "dia": "diamond"}
    if f[0] == "atom":
        return {"type": "atom", "name": f[1]}
    if f[0] == "bot":
        return {"type": "bottom"}
    if f[0] in ("box", "dia"):
        return {"type": names[f[0]], "inner": ast_json(f[1])}
    return {"type": names[f[0]], "left": ast_json(f[1]), "right": ast_json(f[2])}


# --- orders --------------------------------------------------------------------

def up_sets(worlds, gens) -> dict:
    """w -> set of worlds at or above w, the reflexive-transitive closure of gens."""
    up = {w: {w} for w in worlds}
    for a, b in gens:
        up[a].add(b)
    for k in worlds:
        for i in worlds:
            if k in up[i]:
                up[i] |= up[k]
    return up


def le_pairs(up: dict) -> set:
    return {(a, b) for a, later in up.items() for b in later}


def up_close(up: dict, seed) -> set:
    out = set()
    for w in seed:
        out |= up[w]
    return out


# --- one evaluator, many clause sets -------------------------------------------------

def _extensions(formulas, points, atoms_at, later, box_to, dia_to) -> list:
    """Extension (set of points) of each formula; each semantics supplies
    the points an implication, a box and a diamond quantify over."""
    memo = {}

    def ext(f):
        if f in memo:
            return memo[f]
        tag = f[0]
        if tag == "atom":
            out = {p for p in points if f[1] in atoms_at(p)}
        elif tag == "bot":
            out = set()
        elif tag == "and":
            out = ext(f[1]) & ext(f[2])
        elif tag == "or":
            out = ext(f[1]) | ext(f[2])
        elif tag == "imp":
            a, b = ext(f[1]), ext(f[2])
            out = {p for p in points if all(q in b for q in later(p) if q in a)}
        elif tag == "box":
            a = ext(f[1])
            out = {p for p in points if all(q in a for q in box_to(p))}
        elif tag == "dia":
            a = ext(f[1])
            out = {p for p in points if any(q in a for q in dia_to(p))}
        else:
            raise ValueError(f"not a formula: {f!r}")
        memo[f] = out
        return out

    return [ext(f) for f in formulas]


def _no_modal(_p):
    raise ValueError("propositional models have no modal clauses")


def prop_ext(model, formulas) -> list:
    up = up_sets(model["worlds"], model["le"])
    val = model["val"]
    return _extensions(formulas, model["worlds"], lambda w: val.get(w, ()),
                       lambda w: up[w], _no_modal, _no_modal)


def birel_ext(model, formulas, logic: str) -> list:
    """logic 'ik' or 'mk' on a birelational model given by plain data."""
    up = up_sets(model["worlds"], model["le"])
    rs = {w: [j for a, j in model["r"] if a == w] for w in model["worlds"]}
    val = model["val"]
    if logic == "ik":
        box_to = lambda w: [j for v in up[w] for j in rs[v]]
    else:
        box_to = lambda w: rs[w]
    return _extensions(formulas, model["worlds"], lambda w: val.get(w, ()),
                       lambda w: up[w], box_to, lambda w: rs[w])


def family_cells(fam) -> list:
    return [(k, w) for k in sorted(fam["members"])
            for w in sorted(fam["members"][k]["worlds"])]


def partial_ext(fam, formulas) -> list:
    members = fam["members"]
    ups = {k: up_sets(m["worlds"], m["le"]) for k, m in members.items()}
    ref_up = ups[fam["reference"]]
    succ = {k: [b for a, b in fam["succ"] if a == k] for k in members}
    worlds = {k: set(m["worlds"]) for k, m in members.items()}
    return _extensions(
        formulas, family_cells(fam),
        lambda p: members[p[0]]["val"].get(p[1], ()),
        lambda p: [(p[0], v) for v in ups[p[0]][p[1]]],
        lambda p: [(k2, w2) for k2 in succ[p[0]] for w2 in worlds[k2]
                   if w2 in ref_up[p[1]]],
        lambda p: [(k2, p[1]) for k2 in succ[p[0]] if p[1] in worlds[k2]])


def homogeneous_ext(fam, formulas) -> list:
    """Also the reference for evaluate(lift(h), [K, w], f)."""
    members = fam["members"]
    first = members[min(members)]
    up = up_sets(first["worlds"], first["le"])
    succ = {k: [b for a, b in fam["succ"] if a == k] for k in members}
    alt = lambda p: [(k2, p[1]) for k2 in succ[p[0]]]
    return _extensions(
        formulas, family_cells(fam),
        lambda p: members[p[0]]["val"].get(p[1], ()),
        lambda p: [(p[0], v) for v in up[p[1]]], alt, alt)


def classical_k_ext(vals: dict, succ, formulas) -> list:
    """Classical K: vals maps each member (a world) to its true atoms."""
    nexts = {k: [b for a, b in succ if a == k] for k in vals}
    return _extensions(formulas, list(vals), lambda k: vals[k],
                       lambda k: [k], lambda k: nexts[k], lambda k: nexts[k])


# --- flattening ------------------------------------------------------------------------

def flat_name(w, k) -> str:
    return f"{w}__{k}"


def flat_image(fam) -> dict:
    """The flat birelational model of a family: worlds w__K, order inside
    each member, r between occurrences of one world across succ."""
    members = fam["members"]
    worlds, le, val = [], [], {}
    for k, m in members.items():
        worlds += [flat_name(w, k) for w in m["worlds"]]
        le += [(flat_name(a, k), flat_name(b, k))
               for a, b in sorted(le_pairs(up_sets(m["worlds"], m["le"])))]
        for w, atoms in m["val"].items():
            val[flat_name(w, k)] = set(atoms)
    r = [(flat_name(w, a), flat_name(w, b)) for a, b in fam["succ"]
         for w in members[a]["worlds"] if w in members[b]["worlds"]]
    return {"worlds": worlds, "le": le, "r": r, "val": val}


# --- frame conditions --------------------------------------------------------------------

CONDITIONS = ("F1", "F2", "F3", "F4")


def condition_report(model, c: str) -> tuple[set, set]:
    """(violations, nonunique) antecedent triples of one interaction law,
    in the triple layout imk reports."""
    ws = model["worlds"]
    up = up_sets(ws, model["le"])
    le = le_pairs(up)
    r = set(model["r"])
    succ = {w: [j for a, j in r if a == w] for w in ws}
    pred = {w: [a for a, j in r if j == w] for w in ws}
    bad, many = set(), set()
    for x in ws:
        for y in up[x]:
            if c == "F1":    # x <= y, x r z  =>  some v: z <= v, y r v
                cases = [((x, y, z), [v for v in succ[y] if v in up[z]]) for z in succ[x]]
            elif c == "F3":  # x <= y, y r z  =>  some v: x r v, v <= z
                cases = [((x, y, z), [v for v in succ[x] if z in up[v]]) for z in succ[y]]
            elif c == "F4":  # x <= y, z r y  =>  some v: v r x, v <= z
                cases = [((x, y, z), [v for v in pred[x] if z in up[v]]) for z in pred[y]]
            else:            # z r x, x <= y  =>  some v: z <= v, v r y
                cases = [((z, x, y), [v for v in pred[y] if v in up[z]]) for z in pred[x]]
            for triple, wits in cases:
                if not wits:
                    bad.add(triple)
                elif len(wits) > 1:
                    many.add(triple)
    return bad, many


def model_class(model) -> str:
    """Strongest class with unique witnesses: none < birelational < strong < excessive."""
    ok = {}
    for c in CONDITIONS:
        bad, many = condition_report(model, c)
        ok[c] = not bad and not many
    if not (ok["F1"] and ok["F2"]):
        return "none"
    if not ok["F3"]:
        return "birelational"
    return "excessive" if ok["F4"] else "strong"


RANK = {"none": 0, "birelational": 1, "strong": 2, "excessive": 3}


# --- model files ---------------------------------------------------------------------------

def model_block(name: str, m: dict) -> list[str]:
    lines = [f"model {name}", "worlds " + " ".join(m["worlds"])]
    lines += [f"le {a} {b}" for a, b in m["le"]]
    lines += [f"r {a} {b}" for a, b in m.get("r", ())]
    lines += [f"val {w} : " + " ".join(sorted(atoms))
              for w, atoms in sorted(m["val"].items()) if atoms]
    return lines + ["end"]


def single_text(m: dict) -> str:
    return "\n".join(model_block("K", m)) + "\n"


def family_text(fam: dict) -> str:
    lines = []
    for k in sorted(fam["members"]):
        lines += model_block(k, fam["members"][k])
    if fam.get("reference"):
        lines.append(f"reference {fam['reference']}")
    lines += [f"succ {a} {b}" for a, b in fam["succ"]]
    return "\n".join(lines) + "\n"


def lifted_text(fam: dict) -> str:
    """A homogeneous family as a level-1 layered model related by succ."""
    lines = ["nmodel H level 1"]
    for k in sorted(fam["members"]):
        lines += model_block(k, fam["members"][k])
    lines += [f"rel succ {a} {b}" for a, b in fam["succ"]]
    return "\n".join(lines + ["end"]) + "\n"


def read_models(text: str) -> dict:
    """Model blocks of a model file as plain data, plus succ and reference."""
    out = {"members": {}, "succ": [], "reference": None}
    cur = None
    for raw in text.split("\n"):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        head = toks[0]
        if head == "model":
            cur = {"worlds": [], "le": [], "r": [], "val": {}}
            out["members"][toks[1]] = cur
        elif head == "worlds":
            cur["worlds"] += toks[1:]
        elif head in ("le", "r"):
            cur[head].append((toks[1], toks[2]))
        elif head == "val":
            cur["val"].setdefault(toks[1], set()).update(toks[3:])
        elif head == "end":
            cur = None
        elif head == "succ":
            out["succ"].append((toks[1], toks[2]))
        elif head == "reference":
            out["reference"] = toks[1]
        else:
            raise ValueError(f"unexpected line {raw!r}")
    return out


def partial_family_ok(fam: dict) -> bool:
    """Every member is an up-closed part of the reference member's frame
    with the restricted order, and every valuation is hereditary."""
    members = fam["members"]
    if fam["reference"] not in members:
        return False
    ref = members[fam["reference"]]
    ref_up = up_sets(ref["worlds"], ref["le"])
    for m in members.values():
        kept = set(m["worlds"])
        if not kept <= set(ref_up) or any(not ref_up[w] <= kept for w in kept):
            return False
        up = up_sets(m["worlds"], m["le"])
        for w in kept:
            atoms = set(m["val"].get(w, ()))
            if up[w] != ref_up[w] or any(not atoms <= set(m["val"].get(v, ())) for v in up[w]):
                return False
    return True


def same_structure(a: dict, b: dict) -> bool:
    """Equal world sets, orders (after closure), r edges and valuations."""
    if set(a["worlds"]) != set(b["worlds"]):
        return False
    if le_pairs(up_sets(a["worlds"], a["le"])) != le_pairs(up_sets(b["worlds"], b["le"])):
        return False
    norm = lambda m: {w: set(s) for w, s in m["val"].items() if s}
    return set(a.get("r", ())) == set(b.get("r", ())) and norm(a) == norm(b)
