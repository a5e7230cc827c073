"""Command-line front end.

Subcommands: parse, check, frame-check, classify, flatten, equiv-report,
countermodel, enumerate.  Exit codes: 0 when the query was answered (a
"false" or "not found" answer is still an answer), 1 on usage or input
errors, 2 on an internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .birelational import CONDITIONS, _kernel, check_condition, class_of, classify
from .flatten import equivalence_report, flatten
from .formulas import (Atom, Box, Diamond, Formula, ParseError, complexity,
                       parse, render)
from .general import (GeneralModel, as_homogeneous, as_partial, validate_homogeneous,
                      validate_partial)
from .higher import evaluate
from .kripke import ModelError
from .modelfile import (Document, ModelFileError, dump_birelational, load_path)
from .search import (LOGICS, SearchBounds, enumerate_models, find_countermodel,
                     serialize_model)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _formula_list(text: str) -> list[Formula]:
    return [parse(part) for part in text.split(";") if part.strip()]


def _gamma(text: str | None) -> list[Formula]:
    return _formula_list(text) if text else []


def _ast_json(f: Formula):
    """The syntax tree as nested dicts, built bottom-up over f.program, so
    deep formulas cost no recursion; equal subtrees share one dict."""
    nodes: list[dict] = []
    for cls, a, b in f.program:
        node = {"type": cls.__name__.lower()}
        if cls is Atom:
            node["name"] = a
        else:
            fields = ("inner",) if cls in (Box, Diamond) else ("left", "right")
            node.update(zip(fields, (nodes[i] for i in (a, b) if i is not None)))
        nodes.append(node)
    return nodes[-1]


def _json_chunks(value):
    """The text of json.dumps(value, indent=2, sort_keys=True) in pieces, from
    an explicit stack in place of the standard encoder's recursion, so that
    deep syntax trees print.  Past 1,000 levels, where the standard encoder
    fails, the pad is empty: no newlines, so the text is linear in depth."""
    stack = [(value, "\n")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # brackets, keys, commas and indentation
            yield item
            continue
        v, pad = item
        if not v or not isinstance(v, (dict, list, tuple)):  # scalars, {} and []
            yield encode_basestring_ascii(v) if isinstance(v, str) else json.dumps(v)
            continue
        keyed, inner = isinstance(v, dict), pad + "  " if 0 < len(pad) <= 2000 else ""
        items = sorted(v.items()) if keyed else [("", x) for x in v]
        yield "{" if keyed else "["
        stack.append(pad + ("}" if keyed else "]"))
        for i in range(len(items) - 1, -1, -1):  # pushed last to first
            key = encode_basestring_ascii(items[i][0]) + ": " if keyed else ""
            stack += [(items[i][1], inner), "," * (i > 0) + inner + key]


def _emit(args, payload, text: str) -> None:
    """Print text, or under --json the dict that payload() builds."""
    if args.json:
        sys.stdout.writelines(_json_chunks(payload()))
        print()
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load(args) -> Document:
    if not args.model:
        raise UsageError("--model is required for this subcommand")
    return load_path(args.model)


def _split_at(at: str) -> tuple[str, str | None]:
    world, _, submodel = at.partition(":")
    if not world:
        raise UsageError("--at looks like <world> or <world>:<submodel>")
    return world, submodel or None


def _family_kind(g: GeneralModel, args) -> str:
    if getattr(args, "as_class", None):
        return args.as_class
    if args.logic in ("partial", "homogeneous", "classicalK"):
        return "homogeneous" if args.logic in ("homogeneous", "classicalK") else "partial"
    if validate_homogeneous(g):
        return "homogeneous"
    if validate_partial(g) is not None:
        return "partial"
    raise UsageError("family validates as neither partial nor homogeneous")


def _cmd_parse(args) -> int:
    f = parse(args.formula)
    text = render(f)
    _emit(args, lambda: {"formula": text, "complexity": complexity(f), "ast": _ast_json(f)},
          text)
    return 0


def _check_points(doc: Document, args):
    """Yield (label, verdict) pairs for the check subcommand."""
    gamma = _gamma(args.gamma)
    f = parse(args.formula)
    at_world, at_sub = _split_at(args.at) if args.at else (None, None)

    if doc.nmodels:
        if gamma:
            raise UsageError("--gamma is not supported for nmodel files")
        m = doc.as_higher()
        if at_world:  # <world>:<object>:...:<top object>, a path read from its end
            path = [*reversed(at_sub.split(":")), at_world] if at_sub else [at_world]
            yield ":".join(path), evaluate(m, path, f)
            return
        if m.level > 1:
            raise UsageError("use --at to address worlds of models above level 1")
        for name, child in m.objects:  # nmodel blocks have level 1 or more
            for w, _ in child.objects:
                yield f"{name}:{w}", evaluate(m, [name, w], f)
        return

    family = len(doc.models) > 1 or doc.succ or doc.reference is not None \
        or args.logic in ("partial", "homogeneous", "classicalK")
    if family:  # each branch picks the kernel and the (label, point) pairs --at selects
        if args.logic in ("prop", "ik", "mk"):
            raise UsageError(f"--logic {args.logic} needs a single-model file; "
                             "families use partial, homogeneous or classicalK")
        g = doc.as_general()
        model = as_partial(g, doc.reference) if _family_kind(g, args) == "partial" \
            else as_homogeneous(g)
        labelled = [(f"{k}:{w}", (k, w)) for k, w in g.cells()
                    if (at_sub is None or k == at_sub)
                    and (at_world is None or w == at_world)]
        if not labelled:
            raise UsageError("--at does not match any (submodel, world) cell")
        kernel = model.kernel
    else:
        raw = doc.single_model()
        logic = args.logic or ("ik" if raw.r else "prop")
        if at_sub is not None:
            raise UsageError("--at <world>:<submodel> needs a family file")
        if logic == "prop":
            if raw.r:
                raise UsageError("model has r edges; pick --logic ik or mk")
            m = raw.to_prop_model()
        elif logic in ("ik", "mk"):
            m = raw.to_birelational()
        else:
            raise UsageError(f"logic {logic!r} needs a family file")
        labelled = [(str(w), w) for w in m.frame.sorted_worlds()
                    if at_world is None or w == at_world]
        if not labelled:
            raise UsageError(f"--at names an unknown world {at_world!r}")
        kernel = m.kernel if logic == "prop" else \
            _kernel(m, "strong" if logic == "mk" else "birelational", True)
    mask = kernel.entailed(gamma, f)
    for label, point in labelled:
        yield label, mask >> kernel.index[point] & 1 == 1


def _cmd_check(args) -> int:
    doc = _load(args)
    verdicts = list(_check_points(doc, args))
    text = "\n".join(f"{label}: {'true' if v else 'false'}" for label, v in verdicts)
    _emit(args, lambda: {"verdicts": [{"at": label, "value": v} for label, v in verdicts]},
          text)
    return 0


def _report_text(rep) -> str:
    flags = "holds" if rep.holds else "fails"
    parts = [f"{rep.condition}: {flags}"]
    if rep.holds:
        parts.append("unique" if rep.unique else
                     "non-unique at " + ", ".join(map(str, rep.nonunique)))
    else:
        parts.append("violations " + ", ".join(map(str, rep.violations)))
    return " ".join(parts)


def _report_json(rep) -> dict:
    return {"condition": rep.condition, "holds": rep.holds, "unique": rep.unique,
            "violations": [list(map(str, t)) for t in rep.violations],
            "nonunique": [list(map(str, t)) for t in rep.nonunique]}


def _cmd_frame_check(args) -> int:
    m = _load(args).as_birelational()
    reports = [check_condition(m, c) for c in CONDITIONS]
    cls = class_of(reports)
    text = "\n".join(_report_text(rep) for rep in reports) + f"\nclass: {cls}"
    _emit(args, lambda: {"reports": [_report_json(rep) for rep in reports], "class": cls},
          text)
    return 0


def _cmd_classify(args) -> int:
    cls = classify(_load(args).as_birelational())
    _emit(args, lambda: {"class": cls}, cls)
    return 0


def _cmd_flatten(args) -> int:
    g = _load(args).as_general()
    flat = flatten(g)
    text = dump_birelational(flat, name="Flat")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        summary = (f"wrote {args.output}: {len(flat.frame.worlds)} worlds, "
                   f"{len(flat.r)} r edges")
        _emit(args, lambda: {"worlds": len(flat.frame.worlds), "r_edges": len(flat.r),
                             "output": args.output}, summary)
    else:
        _emit(args, lambda: {"worlds": len(flat.frame.worlds), "r_edges": len(flat.r),
                             "text": text}, text)
    return 0


def _cmd_equiv_report(args) -> int:
    g = _load(args).as_general()
    formulas = _formula_list(args.formula) if args.formula else []
    if not formulas:
        raise UsageError("--formula with at least one formula is required")
    gammas = [tuple(_gamma(args.gamma))]
    logic = args.logic if args.logic in ("ik", "mk") else None
    rep = equivalence_report(g, formulas, gammas, logic=logic)
    lines = [f"logic: {rep.logic}", f"cases: {rep.cases}",
             f"disagreements: {len(rep.disagreements)}"]
    lines += [f"  {d.submodel}:{d.world} {d.formula!r} family={d.family_side} "
              f"flat={d.flat_side}" for d in rep.disagreements]
    _emit(args, lambda: {"logic": rep.logic, "cases": rep.cases,
                         "disagreements": [vars(d) for d in rep.disagreements]},
          "\n".join(lines))
    return 0


def _bounds(args) -> SearchBounds:
    if not args.logic:
        raise UsageError("--logic is required")
    try:
        return SearchBounds(args.logic, args.max_worlds, args.max_atoms,
                            args.max_submodels, args.rooted)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_countermodel(args) -> int:
    f = parse(args.formula)
    outcome = find_countermodel(f, _gamma(args.gamma), _bounds(args))
    if outcome.found:
        k, w = outcome.locus
        where = f"{k}:{w}" if k else w
        text = (f"countermodel found at {where} "
                f"({outcome.models_examined} models examined)\n" + outcome.model)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(outcome.model)
    else:
        text = (f"no countermodel found within bounds "
                f"({outcome.models_examined} models examined)")
    _emit(args, lambda: {"found": outcome.found, "locus": outcome.locus,
                         "models_examined": outcome.models_examined,
                         "model": outcome.model}, text)
    return 0


def _cmd_enumerate(args) -> int:
    texts = [serialize_model(m) for m in enumerate_models(_bounds(args))]
    _emit(args, lambda: {"count": len(texts), "models": texts},
          "".join(text + "\n" for text in texts) + f"# enumerated {len(texts)} models")
    return 0


def build_parser() -> _Parser:
    top = _Parser(prog="imk", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, model=False, formula=False, bounds=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if model:
            p.add_argument("--model", help="model file path")
        if formula:
            p.add_argument("--formula", help="formula text")
            p.add_argument("--gamma", help="semicolon-separated premises")
        if bounds:
            p.add_argument("--logic", choices=LOGICS)
            p.add_argument("--max-worlds", type=int, default=3)
            p.add_argument("--max-atoms", type=int, default=1)
            p.add_argument("--max-submodels", type=int, default=1)
            p.add_argument("--rooted", action="store_true",
                           help="only rooted family members")

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    common(p, formula=True)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    common(p, model=True, formula=True)
    p.add_argument("--logic", choices=LOGICS)
    p.add_argument("--at", help="<world> or <world>:<submodel>; in nmodel files "
                   "<world>:<object>:...:<top object>")
    p.add_argument("--as", dest="as_class", choices=("partial", "homogeneous"))

    p = sub.add_parser("frame-check", help="report conditions F1-F4")
    common(p, model=True)

    p = sub.add_parser("classify", help="strongest model class")
    common(p, model=True)

    p = sub.add_parser("flatten", help="flatten a family into one birelational model")
    common(p, model=True)
    p.add_argument("-o", "--output", help="write the flat model here")

    p = sub.add_parser("equiv-report",
                       help="compare family forcing against the flat model")
    common(p, model=True, formula=True)
    p.add_argument("--logic", choices=("ik", "mk"))

    p = sub.add_parser("countermodel", help="bounded countermodel search")
    common(p, formula=True, bounds=True)
    p.add_argument("-o", "--output", help="write a found model here")

    p = sub.add_parser("enumerate", help="list every model within bounds")
    common(p, bounds=True)
    return top


@cache
def _parser() -> _Parser:
    """main's parser: built on first use, then kept for the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "formula", None) is None and args.command in ("parse", "check",
                                                                       "countermodel"):
            raise UsageError("--formula is required")
        # the handler is looked up now, not bound into the kept parser
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (UsageError, ParseError, ModelFileError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
