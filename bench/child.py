"""One pass of one workload, in a fresh interpreter.

    python3 bench/child.py <workload> <seed> <mode> <workdir>

mode is one of
  plain   set up, run the timed section with tracing off, check the answers;
  traced  the same with a span around every call the benchmark makes into imk;
  replay  (search, cli) repeat the work that imk does inside find_countermodel
          and cli.main through the public API, with spans, for attribution;
  setup   set up only, for the set-up time samples.

The last line of standard output is a JSON object for bench/run.py.  Times
are time.perf_counter() values, which on Linux read one clock shared by all
processes, so the parent can measure set-up from before this interpreter
started.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import imk  # noqa: E402
import imk.cli  # noqa: E402
from imk import modelfile, search  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402

perf = time.perf_counter


# --- tracing ------------------------------------------------------------------------

class Tracer:
    """Self time and call count per span name.  A span's self time is its
    duration minus the time of the spans opened inside it."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._inner = [0.0]

    def wrap(self, name: str, fn):
        def traced(*args, **kw):
            self._inner.append(0.0)
            start = perf()
            try:
                return fn(*args, **kw)
            finally:
                took = perf() - start
                inner = self._inner.pop()
                self._inner[-1] += took
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + took - inner
        return traced

    def count(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


class NoTracer:
    def wrap(self, name, fn):
        return fn

    def count(self, name, amount=1):
        pass


def _doc(method):
    return lambda doc, *args: getattr(doc, method)(*args)


# Every call the workloads make into imk, by the layer (span name) it is
# charged to.  Document.as_* build and validate kripke frames.
API = {
    "parse": ("formulas.parse", imk.parse),
    "build_frame": ("kripke.build", imk.build_frame),
    "build_prop_model": ("kripke.build", imk.build_prop_model),
    "BirelationalModel": ("kripke.build", imk.BirelationalModel),
    "as_prop_model": ("kripke.build", _doc("as_prop_model")),
    "as_birelational": ("kripke.build", _doc("as_birelational")),
    "as_general": ("kripke.build", _doc("as_general")),
    "as_higher": ("kripke.build", _doc("as_higher")),
    "forces": ("kripke.forces", imk.forces),
    "classify": ("birelational.classify", imk.classify),
    "check_condition": ("birelational.check_condition", imk.check_condition),
    "forces_ik": ("birelational.forces_ik", imk.forces_ik),
    "forces_mk": ("birelational.forces_mk", imk.forces_mk),
    "general_model": ("general.build", imk.general_model),
    "as_partial": ("general.build", imk.as_partial),
    "as_homogeneous": ("general.build", imk.as_homogeneous),
    "forces_partial": ("general.forces_partial", imk.forces_partial),
    "forces_homogeneous": ("general.forces_homogeneous", imk.forces_homogeneous),
    "flatten": ("flatten.flatten", imk.flatten),
    "lift": ("higher.lift", imk.lift),
    "evaluate": ("higher.evaluate", imk.evaluate),
    "find_countermodel": ("search.find", imk.find_countermodel),
    "next_model": ("search.enumerate", next),
    "serialize_model": ("modelfile.dump", search.serialize_model),
    "dump_birelational": ("modelfile.dump", modelfile.dump_birelational),
    "load_path": ("modelfile.load", modelfile.load_path),
    "main": ("cli.main", imk.cli.main),
}


class Api:
    def __init__(self, tracer):
        self.tracer = tracer
        for attr, (span, fn) in API.items():
            setattr(self, attr, tracer.wrap(span, fn))


def frame_pairs(obj) -> int:
    """le pairs of the frames inside a freshly built model or family."""
    if isinstance(obj, imk.Frame):
        return len(obj.le)
    if isinstance(obj, imk.GeneralModel):
        return sum(len(m.frame.le) for _, m in obj.submodels)
    if isinstance(obj, imk.HigherOrderModel):
        return sum(len(dict(c.relations).get("le", ())) for _, c in obj.objects)
    return len(obj.frame.le)


# --- sweep -----------------------------------------------------------------------------

def sweep_setup(seed: int, workdir: Path) -> dict:
    return inputs.sweep_inputs(seed)


def _frame(api, m: dict):
    frame = api.build_frame(m["worlds"], m["le"])
    api.tracer.count("kripke.le_pairs", len(frame.le))
    return frame


def _members(api, fam, shared=None) -> dict:
    """Member models; a homogeneous family builds its shared frame once."""
    return {k: api.build_prop_model(shared or _frame(api, m), m["val"])
            for k, m in sorted(fam["members"].items())}


def sweep_model(api, kind: str, m: dict, pools: dict) -> list:
    """Build one seeded model and force every pool formula at every point."""
    if kind in ("prop", "ik", "mk"):
        frame = _frame(api, m)
        pm = api.build_prop_model(frame, m["val"])
        if kind == "prop":
            return [api.forces(pm, w, f) for f in pools["prop"] for w in m["worlds"]]
        bm = api.BirelationalModel(frame, frozenset(map(tuple, m["r"])), pm.val)
        fn = api.forces_ik if kind == "ik" else api.forces_mk
        return [fn(bm, w, f) for f in pools["modal"] for w in m["worlds"]]
    cells = oracle.family_cells(m)
    if kind == "partial":
        g = api.general_model(_members(api, m), m["succ"])
        pm = api.as_partial(g, m["reference"])
        out = [api.forces_partial(pm, k, w, f) for f in pools["modal"] for k, w in cells]
        flat = api.flatten(g)
        api.tracer.count("flatten.flat_worlds", len(flat.frame.worlds))
        return out + [api.forces_ik(flat, (w, k), f) for f in pools["modal"] for k, w in cells]
    frame = _frame(api, m["members"][min(m["members"])])
    g = api.general_model(_members(api, m, frame), m["succ"])
    h = api.as_homogeneous(g)
    pool = pools["classical" if kind == "classicalK" else "modal"]
    out = [api.forces_homogeneous(h, k, w, f) for f in pool for k, w in cells]
    if kind == "classicalK":
        return out
    flat = api.flatten(g)
    api.tracer.count("flatten.flat_worlds", len(flat.frame.worlds))
    out += [api.forces_mk(flat, (w, k), f) for f in pool for k, w in cells]
    lifted = api.lift(h)
    return out + [api.evaluate(lifted, [k, w], f) for f in pool for k, w in cells]


def sweep_run(inp: dict, api) -> dict:
    lat = array("d")
    answers, errors = [], 0
    start = perf()
    pools = {name: [api.parse(text) for text in texts]
             for name, texts in inp["pools"].items()}
    for kind, m in inp["models"]:
        t = perf()
        try:
            answers.append(sweep_model(api, kind, m, pools))
        except Exception as exc:  # counted as a failed operation
            answers.append(repr(exc))
            errors += 1
        lat.append(perf() - t)
    wall = perf() - start
    for f in (f for pool in pools.values() for f in pool):
        api.tracer.count("formulas.nodes", imk.complexity(f))
    return {"wall": wall, "lat": lat, "answers": answers, "errors": errors}


def sweep_expected(kind: str, m: dict, pools: dict) -> list:
    if kind in ("prop", "ik", "mk"):
        pool = pools["prop"] if kind == "prop" else pools["modal"]
        exts = oracle.prop_ext(m, pool) if kind == "prop" else oracle.birel_ext(m, pool, kind)
        return [w in e for e in exts for w in m["worlds"]]
    cells = oracle.family_cells(m)
    if kind == "partial":
        exts = oracle.partial_ext(m, pools["modal"])
        flat = oracle.birel_ext(oracle.flat_image(m), pools["modal"], "ik")
        return [c in e for e in exts for c in cells] + \
            [oracle.flat_name(w, k) in e for e in flat for k, w in cells]
    if kind == "classicalK":
        vals = {k: set(mm["val"]["w1"]) for k, mm in m["members"].items()}
        exts = oracle.classical_k_ext(vals, m["succ"], pools["classical"])
        return [k in e for e in exts for k, _ in cells]
    exts = oracle.homogeneous_ext(m, pools["modal"])
    flat = oracle.birel_ext(oracle.flat_image(m), pools["modal"], "mk")
    family = [c in e for e in exts for c in cells]
    return family + [oracle.flat_name(w, k) in e for e in flat for k, w in cells] + family


def sweep_check(inp: dict, res: dict) -> dict:
    pools = inp["asts"]
    wrong = 0
    for (kind, m), got in zip(inp["models"], res["answers"]):
        if isinstance(got, list) and got != sweep_expected(kind, m, pools):
            wrong += 1
    return {"attempted": len(inp["models"]), "failed": res["errors"] + wrong,
            "wrong": wrong, "verdicts": sum(len(a) for a in res["answers"]
                                            if isinstance(a, list)),
            "models": len(inp["models"])}


# --- search -----------------------------------------------------------------------------

def search_setup(seed: int, workdir: Path) -> dict:
    return inputs.search_inputs(seed)


def _bounds(op: dict):
    return imk.SearchBounds(op["logic"], op["worlds"], op["atoms"], op["members"])


def search_run(inp: dict, api) -> dict:
    outcomes, parsed, errors = [], [], 0
    start = perf()
    for op in inp["finds"]:
        try:
            parsed.append(api.parse(op["formula"]))
            outcomes.append(api.find_countermodel(parsed[-1], [], _bounds(op)))
        except Exception as exc:  # counted as a failed operation
            outcomes.append(repr(exc))
            errors += 1
    en = inp["enumerate"]
    lat = array("d")
    seen, sample, written = set(), [], 0
    models = imk.enumerate_models(_bounds(en), atoms=en["alphabet"])
    t = perf()
    try:
        while (m := api.next_model(models, None)) is not None:
            text = api.serialize_model(m)
            now = perf()
            lat.append(now - t)
            t = now
            seen.add(hash(text))
            written += len(text)
            if len(lat) % 997 == 1:
                sample.append(text)
    except Exception:  # counted as a failed operation; the count check fails too
        errors += 1
    wall = perf() - start
    api.tracer.count("modelfile.bytes_written", written)
    api.tracer.count("formulas.nodes", sum(imk.complexity(f) for f in parsed))
    for op, out in zip(inp["finds"], outcomes):
        api.tracer.count("search.models_examined", getattr(out, "models_examined", 0))
        if op["logic"] in ("ik", "mk") and not getattr(out, "found", True):
            # wasted work of a search that scanned its whole candidate space
            api.tracer.count("search.candidates", candidates(op["worlds"], op["atoms"]))
            api.tracer.count("search.yielded", out.models_examined)
    return {"wall": wall, "lat": lat, "outcomes": outcomes, "errors": errors,
            "distinct": len(seen), "sample": sample}


def birel_data(bm) -> dict:
    worlds = sorted(bm.frame.worlds)
    val = {}
    for w, atom in bm.val:
        val.setdefault(w, set()).add(atom)
    return {"worlds": worlds, "le": sorted(bm.frame.le), "r": sorted(bm.r), "val": val}


def search_check(inp: dict, res: dict) -> dict:
    wrong = 0
    for op, out in zip(inp["finds"], res["outcomes"]):
        if isinstance(out, str):
            continue
        if (out.found, out.models_examined) != (op["found"], op["examined"]):
            wrong += 1
            continue
        if out.found:
            # re-load the countermodel through imk's reader, re-check it here
            bm = modelfile.loads(out.model).as_birelational()
            m = birel_data(bm)
            want = "birelational" if op["logic"] == "ik" else "strong"
            [ext] = oracle.birel_ext(m, [op["ast"]], op["logic"])
            if oracle.RANK[oracle.model_class(m)] < oracle.RANK[want] or out.locus[1] in ext:
                wrong += 1
    en = inp["enumerate"]
    if len(res["lat"]) != en["count"] or res["distinct"] != en["count"]:
        wrong += 1
    for text in res["sample"]:
        if not oracle.partial_family_ok(oracle.read_models(text)):
            wrong += 1
    examined = sum(o.models_examined for o in res["outcomes"] if not isinstance(o, str))
    return {"attempted": len(inp["finds"]) + 1, "failed": res["errors"] + wrong,
            "wrong": wrong, "verdicts": examined, "models": examined + len(res["lat"])}


def search_replay(inp: dict, api, tracer: Tracer) -> None:
    """Drain enumerate_models for each find's bounds, up to the number of
    models the find examined, and classify every ik/mk candidate once."""
    for op in inp["finds"]:
        # find_countermodel valuates the query's own atoms; every search here
        # has one atom, p1 when the formula has none
        atoms = sorted(_atoms(op["ast"]))[:op["atoms"]] or ["p1"]
        models = imk.enumerate_models(_bounds(op), atoms=atoms)
        for _ in range(op["examined"]):
            api.next_model(models)
    spaces = sorted({(op["worlds"], op["atoms"]) for op in inp["finds"]
                     if op["logic"] in ("ik", "mk")})
    for n, k in spaces:
        built = 0
        for pm in imk.enumerate_models(imk.SearchBounds("prop", n, k)):
            worlds = pm.frame.sorted_worlds()
            pairs = [(a, b) for a in worlds for b in worlds]
            for bits in range(1 << len(pairs)):
                r = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
                api.classify(api.BirelationalModel(pm.frame, r, pm.val))
                built += 1
        if built != candidates(n, k):
            raise RuntimeError(f"built {built} candidates, expected {candidates(n, k)}")
    if candidates(3, 1) != 66756:
        raise RuntimeError("candidate count for 3 worlds and 1 atom is not 66,756")


def candidates(n_worlds: int, n_atoms: int) -> int:
    """Candidates an ik/mk enumeration builds: every prop model with exactly
    n worlds times every one of the 2^(n*n) modal relations."""
    total, below = 0, 0
    for n in range(1, n_worlds + 1):
        upto = sum(1 for _ in imk.enumerate_models(imk.SearchBounds("prop", n, n_atoms)))
        total += (upto - below) * 2 ** (n * n)
        below = upto
    return total


# --- cli -----------------------------------------------------------------------------------

def cli_setup(seed: int, workdir: Path) -> dict:
    queries = inputs.cli_inputs(seed)
    texts = [inputs.query_file_text(q) for q in queries]
    digest = inputs.digest([queries, texts])
    for q, text in zip(queries, texts):
        q["path"] = str(workdir / f"{q['id']}.km") if text is not None else None
        q["out"] = str(workdir / f"{q['id']}.out.km")
        if text is not None:
            with open(q["path"], "w", encoding="utf-8") as fh:
                fh.write(text)
        q["argv"] = inputs.query_argv(q, q["path"], q["out"])
    return {"queries": queries, "digest": digest}


def cli_run(inp: dict, api) -> dict:
    lat, results = array("d"), []
    start = perf()
    for q in inp["queries"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t = perf()
            rc = api.main(q["argv"])
            lat.append(perf() - t)
        results.append((rc, out.getvalue(), err.getvalue()))
        api.tracer.count(f"cli.exit_{rc}")
    wall = perf() - start
    return {"wall": wall, "lat": lat, "results": results}


def _labels(text: str) -> dict:
    out = {}
    for line in text.strip().split("\n"):
        label, _, value = line.rpartition(": ")
        out[label] = value == "true"
    return out


def cli_expected_ok(q: dict, out: str, err: str) -> bool:
    """True when a query that exited as expected printed the right answer."""
    kind = q["kind"]
    f = inputs.deep_formula(q["formula"][1]) if q.get("formula", ("",))[0] == "deep" \
        else q.get("formula")
    if kind == "invalid":
        return err.startswith("error:")
    if kind == "parse":
        got = json.loads(out)
        return got["ast"] == oracle.ast_json(f) and got["complexity"] == oracle.size(f)
    if kind == "parse_deep":
        return out.strip() == inputs.formula_text(q["formula"])
    if kind in ("check_prop", "check_deep", "check_ik", "check_mk"):
        m = q["model"]
        if kind in ("check_prop", "check_deep"):
            [ext] = oracle.prop_ext(m, [f])
        else:
            [ext] = oracle.birel_ext(m, [f], kind[-2:])
        return _labels(out) == {w: w in ext for w in m["worlds"]}
    if kind in ("check_partial", "check_homogeneous", "check_nmodel"):
        fam = q["family"]
        ext_fn = oracle.partial_ext if kind == "check_partial" else oracle.homogeneous_ext
        [ext] = ext_fn(fam, [f])
        return _labels(out) == {f"{k}:{w}": (k, w) in ext for k, w in oracle.family_cells(fam)}
    if kind == "classify":
        return out.strip() == oracle.model_class(q["model"])
    if kind == "frame_check":
        got = json.loads(out)
        if got["class"] != oracle.model_class(q["model"]):
            return False
        for rep in got["reports"]:
            bad, many = oracle.condition_report(q["model"], rep["condition"])
            if {tuple(t) for t in rep["violations"]} != bad or rep["holds"] != (not bad) \
                    or {tuple(t) for t in rep["nonunique"]} != many \
                    or rep["unique"] != (not bad and not many):
                return False
        return True
    if kind == "flatten":
        with open(q["out"], encoding="utf-8") as fh:
            written = oracle.read_models(fh.read())["members"]["Flat"]
        return oracle.same_structure(written, oracle.flat_image(q["family"]))
    if kind == "equiv_report":
        fam = q["family"]
        frames = {(tuple(sorted(m["worlds"])),
                   frozenset(oracle.le_pairs(oracle.up_sets(m["worlds"], m["le"]))))
                  for m in fam["members"].values()}
        logic = "mk" if len(frames) == 1 else "ik"
        cases = len(oracle.family_cells(fam)) * len(q["formulas"])
        return out.split("\n")[:3] == [f"logic: {logic}", f"cases: {cases}",
                                       "disagreements: 0"]
    if kind == "countermodel":
        return countermodel_ok(q, out, f)
    raise ValueError(kind)


def countermodel_ok(q: dict, out: str, f) -> bool:
    logic = q["logic"]
    head, _, text = out.partition("\n")
    want = {"ik": "birelational", "mk": "strong"}.get(logic)
    if head.startswith("countermodel found at "):
        m = oracle.read_models(text)["members"]["K"]
        at = head[len("countermodel found at "):].split(" ")[0]
        if logic == "prop":
            [ext] = oracle.prop_ext(m, [f])
            return at not in ext
        return oracle.RANK[oracle.model_class(m)] >= oracle.RANK[want] and \
            at not in oracle.birel_ext(m, [f], logic)[0]
    atoms = sorted(_atoms(f))[:1] or ["p1"]
    models = inputs.two_world_models(logic, atoms)
    for m in models:
        ext = oracle.prop_ext(m, [f])[0] if logic == "prop" else \
            oracle.birel_ext(m, [f], logic)[0]
        if set(m["worlds"]) - ext:
            return False
    return head == f"no countermodel found within bounds ({len(models)} models examined)"


def _atoms(f) -> set:
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(_atoms(g) for g in f[1:]))


def cli_check(inp: dict, res: dict) -> dict:
    wrong = failed = verdicts = models = 0
    for q, (rc, out, err) in zip(inp["queries"], res["results"]):
        models += q["path"] is not None
        expected_rc = 1 if q["kind"] == "invalid" else 0
        if rc != expected_rc:
            failed += 1
            continue
        if not cli_expected_ok(q, out, err):
            wrong += 1
        if q["kind"].startswith("check"):
            verdicts += len(_labels(out))
    return {"attempted": len(inp["queries"]), "failed": failed + wrong, "wrong": wrong,
            "verdicts": verdicts, "models": models}


def cli_replay(inp: dict, api, tracer: Tracer) -> None:
    """Each query again through load_path, Document.as_*, parse and the
    evaluator, so that cli.self_s = main - replay."""
    for q in inp["queries"]:
        t = perf()
        try:
            replay_query(api, tracer, q)
        except (ValueError, RecursionError):
            pass  # the same error cli.main reported
        tracer.count("cli.replay_s", perf() - t)


def replay_query(api, tracer, q: dict) -> None:
    kind = q["kind"]
    doc = None
    if q["path"] is not None:
        tracer.count("modelfile.bytes_read", os.path.getsize(q["path"]))
        doc = api.load_path(q["path"])
    if kind == "invalid":
        api.parse("(p & -> q" if q["what"] == "syntax" else "p")
        api.as_prop_model(doc)
        return
    texts = [inputs.formula_text(q["formula"])] if "formula" in q else \
        [oracle.render(g) for g in q["formulas"]]
    parsed = []
    for text in texts:
        g = api.parse(text)
        tracer.count("formulas.nodes", imk.complexity(g))
        parsed.append(g)
    if kind in ("parse", "parse_deep"):
        return
    f = parsed[0]
    if kind in ("check_prop", "check_deep"):
        m = api.as_prop_model(doc)
        tracer.count("kripke.le_pairs", frame_pairs(m))
        for w in q["model"]["worlds"]:
            api.forces(m, w, f)
    elif kind in ("check_ik", "check_mk", "classify", "frame_check"):
        bm = api.as_birelational(doc)
        tracer.count("kripke.le_pairs", frame_pairs(bm))
        if kind == "classify":
            api.classify(bm)
        elif kind == "frame_check":
            for c in oracle.CONDITIONS:
                api.check_condition(bm, c)
            api.classify(bm)
        else:
            fn = api.forces_ik if kind == "check_ik" else api.forces_mk
            for w in q["model"]["worlds"]:
                fn(bm, w, f)
    elif kind == "check_nmodel":
        hm = api.as_higher(doc)
        tracer.count("kripke.le_pairs", frame_pairs(hm))
        for k, w in oracle.family_cells(q["family"]):
            api.evaluate(hm, [k, w], f)
    elif kind == "countermodel":
        api.find_countermodel(f, [], imk.SearchBounds(q["logic"], 2, 1))
    else:
        g = api.as_general(doc)
        tracer.count("kripke.le_pairs", frame_pairs(g))
        cells = oracle.family_cells(q["family"])
        if kind == "flatten":
            flat = api.flatten(g)
            tracer.count("flatten.flat_worlds", len(flat.frame.worlds))
            tracer.count("modelfile.bytes_written",
                         len(api.dump_birelational(flat, "Flat").encode()))
        elif kind == "check_partial":
            pm = api.as_partial(g, doc.reference)
            for k, w in cells:
                api.forces_partial(pm, k, w, f)
        elif kind == "check_homogeneous":
            h = api.as_homogeneous(g)
            for k, w in cells:
                api.forces_homogeneous(h, k, w, f)
        elif kind == "equiv_report":
            homogeneous = imk.general.validate_homogeneous(g)
            fam = api.as_homogeneous(g) if homogeneous else api.as_partial(g)
            flat = api.flatten(g)
            tracer.count("flatten.flat_worlds", len(flat.frame.worlds))
            side = api.forces_homogeneous if homogeneous else api.forces_partial
            flat_side = api.forces_mk if homogeneous else api.forces_ik
            for g_ in parsed:
                for k, w in cells:
                    side(fam, k, w, g_)
                    flat_side(flat, (w, k), g_)


# --- entry point ------------------------------------------------------------------------------------

WORKLOADS = {
    "sweep": (sweep_setup, sweep_run, None),
    "search": (search_setup, search_run, search_replay),
    "cli": (cli_setup, cli_run, cli_replay),
}


def main(argv) -> int:
    workload, seed, mode, workdir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    setup, run, replay = WORKLOADS[workload]
    inp = setup(seed, workdir)
    ready = perf()
    result = {"ready": ready, "digest": inp.get("digest") or inputs.digest(inp)}
    if mode == "replay":
        tracer = Tracer()
        replay(inp, Api(tracer), tracer)
        result["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                            "counts": tracer.counts}
    elif mode in ("plain", "traced"):
        tracer = Tracer() if mode == "traced" else NoTracer()
        res = run(inp, Api(tracer))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = CHECKS[workload](inp, res)
        result.update(checked, wall=res["wall"], lat=list(res["lat"]), rss_mb=rss)
        if mode == "traced":
            result["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                                "counts": tracer.counts}
    print(json.dumps(result))
    return 0


CHECKS = {"sweep": sweep_check, "search": search_check, "cli": cli_check}

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
