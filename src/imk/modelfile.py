"""Line-oriented model files.

One block per propositional or birelational model::

    model K
    worlds m a e
    le m a          # order generators; reflexive-transitive closure applied
    le a e
    r a e           # modal edges, taken as written
    val m : p
    val e : p q
    end

A family file holds several blocks followed by ``succ A B`` lines and an
optional ``reference K`` line.  Layered models use ``nmodel H level n``
blocks that nest ``model``/``nmodel`` blocks plus ``rel name a b`` lines;
a ``rel name`` line declares a relation that may have no pairs.  A nested
``model`` block that carries ``rel`` lines in place of ``le``/``r`` lines
is a level-0 object with exactly those relations.
Files are UTF-8 with LF newlines; ``#`` starts a comment.  Serialization is
canonical (sorted) so equal models produce byte-identical files.
"""

from __future__ import annotations

import re

from .birelational import BirelationalModel
from .general import GeneralModel, general_model
from .higher import HigherOrderModel, from_birelational, wrap_prop_model
from .kripke import Frame, ModelError, PropModel, build_frame, build_prop_model
from .flatten import FlatWorld
from .memo import Record, set_field

__all__ = ["ModelFileError", "Document", "RawModel", "loads", "load_path",
           "dump_prop_model", "dump_birelational", "dump_general", "dump_higher"]

_WORLD_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class ModelFileError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line else ""
        super().__init__(where + message)
        self.line = line


class RawModel(Record, frozen=False):
    name: str
    line: int
    worlds: list[str]
    le: list[tuple[str, str]]
    r: list[tuple[str, str]]
    val: dict[str, set[str]]

    def __init__(self, name: str, line: int, worlds=None, le=None, r=None, val=None):
        self.name, self.line = name, line
        self.worlds = [] if worlds is None else worlds
        self.le = [] if le is None else le
        self.r = [] if r is None else r
        self.val = {} if val is None else val

    def frame(self) -> Frame:
        if not self.worlds:
            raise ModelFileError(f"model {self.name!r} declares no worlds", self.line)
        return build_frame(self.worlds, self.le)

    def to_prop_model(self) -> PropModel:
        return build_prop_model(self.frame(), self.val)

    def to_birelational(self) -> BirelationalModel:
        return BirelationalModel(self.frame(), frozenset(self.r), frozenset(
            (w, atom) for w, atoms in self.val.items() for atom in atoms))


class Document(Record, frozen=False):
    models: dict[str, RawModel]
    succ: list[tuple[str, str]]
    reference: str | None
    nmodels: dict[str, HigherOrderModel]

    def __init__(self, models=None, succ=None, reference=None, nmodels=None):
        self.models = {} if models is None else models
        self.succ = [] if succ is None else succ
        self.reference = reference
        self.nmodels = {} if nmodels is None else nmodels

    def single_model(self) -> RawModel:
        if self.nmodels or len(self.models) != 1 or self.succ:
            raise ModelFileError("expected a file with exactly one model block")
        return next(iter(self.models.values()))

    def as_prop_model(self) -> PropModel:
        raw = self.single_model()
        if raw.r:
            raise ModelFileError(
                f"model {raw.name!r} carries r edges; load it as birelational", raw.line)
        return raw.to_prop_model()

    def as_birelational(self) -> BirelationalModel:
        return self.single_model().to_birelational()

    def as_general(self) -> GeneralModel:
        if self.nmodels or not self.models:
            raise ModelFileError("expected a file of model blocks")
        for raw in self.models.values():
            if raw.r:
                raise ModelFileError(
                    f"family member {raw.name!r} must not carry r edges", raw.line)
        return general_model({k: raw.to_prop_model() for k, raw in self.models.items()},
                             self.succ)

    def as_higher(self) -> HigherOrderModel:
        if len(self.nmodels) != 1 or self.models or self.succ:
            raise ModelFileError("expected a file with exactly one nmodel block")
        return next(iter(self.nmodels.values()))


def _lines(text: str):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _want_world(tok: str, lineno: int, what: str = "world id") -> str:
    if not _WORLD_RE.match(tok):
        raise ModelFileError(f"bad {what} {tok!r}", lineno)
    return tok


def _want_id(tok: str, lineno: int) -> str:
    if not _ID_RE.match(tok):
        raise ModelFileError(f"bad identifier {tok!r}", lineno)
    return tok


def _parse_model_block(name: str, start: int, stream, rels: dict | None = None) -> RawModel:
    """A model block; inside an nmodel block, rels collects its rel lines."""
    raw = RawModel(name, start)
    for lineno, toks in stream:
        head = toks[0]
        if head == "end":
            seen = set(raw.worlds)
            for a, b in raw.le + raw.r:
                if a not in seen or b not in seen:
                    raise ModelFileError(f"edge ({a}, {b}) uses an undeclared world", lineno)
            for w in raw.val:
                if w not in seen:
                    raise ModelFileError(f"val line uses undeclared world {w!r}", lineno)
            if rels and (raw.le or raw.r):
                raise ModelFileError("a model block with rel lines has no le or r lines",
                                     lineno)
            return raw
        if head == "worlds":
            if len(toks) < 2:
                raise ModelFileError("worlds line needs at least one id", lineno)
            for t in toks[1:]:
                raw.worlds.append(_want_world(t, lineno))
        elif head in ("le", "r"):
            if len(toks) != 3:
                raise ModelFileError(f"{head} line needs exactly two worlds", lineno)
            pair = (_want_world(toks[1], lineno), _want_world(toks[2], lineno))
            (raw.le if head == "le" else raw.r).append(pair)
        elif head == "val":
            if len(toks) < 3 or toks[2] != ":":
                raise ModelFileError("val line looks like: val <world> : <atom>*", lineno)
            w = _want_world(toks[1], lineno)
            atoms = {_want_world(t, lineno, "atom") for t in toks[3:]}
            raw.val.setdefault(w, set()).update(atoms)
        elif head == "rel" and rels is not None:
            _rel_line(toks, lineno, rels, _want_world)
        else:
            raise ModelFileError(f"unexpected {head!r} inside a model block", lineno)
    raise ModelFileError(f"model {name!r} is missing its end line", start)


def _parse_nmodel_block(name: str, level: int, start: int, stream) -> HigherOrderModel:
    objects: list[tuple[str, HigherOrderModel]] = []
    relations: dict[str, set[tuple[str, str]]] = {}
    for lineno, toks in stream:
        head = toks[0]
        if head == "end":
            if not relations:
                raise ModelFileError(
                    f"nmodel {name!r} declares no rel lines", start)
            try:
                return HigherOrderModel(level, tuple(objects), _relations(relations))
            except ValueError as exc:
                raise ModelFileError(f"nmodel {name!r}: {exc}", start)
        if head == "model":
            if len(toks) != 2:
                raise ModelFileError("model line looks like: model <Id>", lineno)
            child_name, rels = _want_id(toks[1], lineno), {}
            raw = _parse_model_block(child_name, lineno, stream, rels)
            if rels:
                val = frozenset((w, a) for w, atoms in raw.val.items() for a in atoms)
                try:
                    child = HigherOrderModel(0, tuple((w, None) for w in raw.worlds),
                                             _relations(rels), val)
                except ValueError as exc:
                    raise ModelFileError(f"model {child_name!r}: {exc}", lineno)
            elif raw.r:
                m = raw.to_birelational()
                child = from_birelational(m.frame, m.r, m.val)
                set_field(child, "prop", m.prop)  # as wrap_prop_model does
            else:
                child = wrap_prop_model(raw.to_prop_model())
            objects.append((child_name, child))
        elif head == "nmodel":
            child_name, child_level = _parse_nmodel_header(toks, lineno)
            objects.append((child_name,
                            _parse_nmodel_block(child_name, child_level, lineno, stream)))
        elif head == "rel":
            _rel_line(toks, lineno, relations, _want_id)
        else:
            raise ModelFileError(f"unexpected {head!r} inside an nmodel block", lineno)
    raise ModelFileError(f"nmodel {name!r} is missing its end line", start)


def _rel_line(toks, lineno: int, relations: dict, want) -> None:
    """"rel <name>" alone declares the relation, maybe empty; want checks
    the endpoints."""
    if len(toks) not in (2, 4):
        raise ModelFileError("rel line looks like: rel <name> [<a> <b>]", lineno)
    pairs = relations.setdefault(_want_id(toks[1], lineno), set())
    if len(toks) == 4:
        pairs.add((want(toks[2], lineno), want(toks[3], lineno)))


def _relations(relations: dict) -> tuple:
    return tuple(sorted((n, frozenset(p)) for n, p in relations.items()))


def _parse_nmodel_header(toks, lineno) -> tuple[str, int]:
    if len(toks) != 4 or toks[2] != "level" or not toks[3].isdigit():
        raise ModelFileError("nmodel line looks like: nmodel <Id> level <n>", lineno)
    level = int(toks[3])
    if level < 1:
        raise ModelFileError("nmodel blocks have level 1 or higher; "
                             "use a plain model block for level 0", lineno)
    return _want_id(toks[1], lineno), level


def loads(text: str) -> Document:
    doc = Document()
    stream = iter(_lines(text))
    for lineno, toks in stream:
        head = toks[0]
        if head == "model":
            if len(toks) != 2:
                raise ModelFileError("model line looks like: model <Id>", lineno)
            name = _want_id(toks[1], lineno)
            if name in doc.models:
                raise ModelFileError(f"duplicate model id {name!r}", lineno)
            doc.models[name] = _parse_model_block(name, lineno, stream)
        elif head == "nmodel":
            name, level = _parse_nmodel_header(toks, lineno)
            if name in doc.nmodels:
                raise ModelFileError(f"duplicate nmodel id {name!r}", lineno)
            doc.nmodels[name] = _parse_nmodel_block(name, level, lineno, stream)
        elif head == "succ":
            if len(toks) != 3:
                raise ModelFileError("succ line looks like: succ <K1> <K2>", lineno)
            doc.succ.append((_want_id(toks[1], lineno), _want_id(toks[2], lineno)))
        elif head == "reference":
            if len(toks) != 2:
                raise ModelFileError("reference line looks like: reference <K>", lineno)
            doc.reference = _want_id(toks[1], lineno)
        else:
            raise ModelFileError(f"unexpected {head!r} at top level", lineno)
    for a, b in doc.succ:
        if a not in doc.models or b not in doc.models:
            raise ModelFileError(f"succ line ({a}, {b}) names an unknown model")
    if doc.reference is not None and doc.reference not in doc.models:
        raise ModelFileError(f"reference names an unknown model {doc.reference!r}")
    return doc


def load_path(path) -> Document:
    with open(path, encoding="utf-8") as fh:
        try:
            return loads(fh.read())
        except UnicodeDecodeError as exc:
            raise ModelFileError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _world_name(w) -> str:
    """Printable id for a world; flat pair worlds are mangled as world__member."""
    if isinstance(w, FlatWorld):
        return f"{w.world}__{w.submodel}"
    return str(w)


def _world_key(w):
    # pair worlds sort by member first, then world; plain worlds by name
    if isinstance(w, FlatWorld):
        return (0, w.submodel, w.world)
    return (0, "", str(w))


def _block_body(frame: Frame, r: frozenset, val: frozenset) -> str:
    """A model block without its ``model <name>`` line, which is all that
    depends on the name."""
    names = {w: _world_name(w) for w in frame.worlds}
    if len(set(names.values())) != len(names):
        raise ModelFileError("world names collide after flattening; rename the inputs")
    order = [names[w] for w in sorted(frame.worlds, key=_world_key)]
    key = {n: i for i, n in enumerate(order)}
    lines = ["worlds " + " ".join(order)]
    for a, b in sorted(((names[a], names[b]) for a, b in frame.le if a != b),
                       key=lambda p: (key[p[0]], key[p[1]])):
        lines.append(f"le {a} {b}")
    for a, b in sorted(((names[a], names[b]) for a, b in r),
                       key=lambda p: (key[p[0]], key[p[1]])):
        lines.append(f"r {a} {b}")
    atoms_by_world: dict[str, set] = {n: set() for n in order}
    for w, atom in val:
        atoms_by_world[names[w]].add(atom)
    for n in order:
        atoms = " ".join(sorted(atoms_by_world[n]))
        lines.append(f"val {n} : {atoms}".rstrip())
    lines.append("end")
    return "\n".join(lines)


def _member_body(m: PropModel) -> str:
    """The body of a family member's block, kept on the member: bounded
    search puts one member object into many families."""
    body = getattr(m, "_file_body", None)
    if body is None:
        body = _block_body(m.frame, frozenset(), m.val)
        set_field(m, "_file_body", body)  # as memo.cached does
    return body


def dump_prop_model(m: PropModel, name: str = "K") -> str:
    return f"model {name}\n{_block_body(m.frame, frozenset(), m.val)}\n"


def dump_birelational(m: BirelationalModel, name: str = "K") -> str:
    return f"model {name}\n{_block_body(m.frame, m.r, m.val)}\n"


def dump_general(g: GeneralModel, reference: str | None = None) -> str:
    lines: list[str] = []
    for k, m in g.submodels:
        lines += [f"model {k}", _member_body(m)]
    if reference is not None:
        lines.append(f"reference {reference}")
    for a, b in sorted(g.succ):
        lines.append(f"succ {a} {b}")
    return "\n".join(lines) + "\n"


def _plain_block(m: HigherOrderModel) -> str | None:
    """The body of a plain model block that loads back as the level-0 model
    m (its relations le, and r if r has pairs), or None if there is none."""
    try:
        prop = m.prop
    except ModelError:
        return None
    r = dict(m.relations).get("r", frozenset())
    same = from_birelational(prop.frame, r, m.val) if r else wrap_prop_model(prop)
    return _block_body(prop.frame, r, m.val) if m == same else None


def _higher_lines(m: HigherOrderModel, name: str) -> list[str]:
    if m.level == 0:
        body = _plain_block(m)
        if body is not None:
            return [f"model {name}", body]
        atoms: dict = {}
        for w, atom in m.val:
            atoms.setdefault(w, []).append(atom)
        names = m.object_names()
        lines = [f"model {name}", "worlds " + " ".join(names)]
        lines += [f"val {w} : {' '.join(sorted(atoms.get(w, ())))}".rstrip() for w in names]
    else:
        lines = [f"nmodel {name} level {m.level}"]
        for child_name, child in m.objects:
            lines.extend(_higher_lines(child, child_name))
    for rel_name, pairs in m.relations:
        lines += [f"rel {rel_name} {a} {b}" for a, b in sorted(pairs)] or [f"rel {rel_name}"]
    lines.append("end")
    return lines


def dump_higher(m: HigherOrderModel, name: str = "H") -> str:
    """An nmodel file of m.  A level-0 model is no nmodel block: ValueError."""
    if m.level == 0:
        raise ValueError("dump_higher writes models of level 1 and above; "
                         "a level-0 model is a plain model block")
    return "\n".join(_higher_lines(m, name)) + "\n"
