"""The package's record classes: each keeps the repr, equality, hashing and
immutability that it had as a dataclass, and importing imk leaves
dataclasses and inspect unloaded."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path
from types import SimpleNamespace

import pytest

import imk.cli as cli
from imk.birelational import BirelationalModel, ConditionReport
from imk.flatten import Disagreement, EquivalenceReport
from imk.formulas import BOTTOM, And, Atom, Bottom, Box, Diamond, Implies, Not, Or
from imk.general import GeneralModel, HomogeneousModel, PartialModel
from imk.higher import HigherOrderModel
from imk.kripke import Frame, PropModel
from imk.memo import Record
from imk.modelfile import Document, RawModel, loads
from imk.search import SearchBounds, SearchOutcome

SRC = Path(__file__).resolve().parent.parent / "src"

# One-element sets only, so that no repr below follows the hash seed.
W = frozenset({"w"})
FRAME = Frame(W, frozenset({("w", "w")}))
VAL = frozenset({("w", "p")})
PROP = PropModel(FRAME, VAL)
FAMILY = GeneralModel((("K", PROP),), frozenset({("K", "K")}))
LEVEL0 = HigherOrderModel(0, (("w", None),), (("le", FRAME.le),), VAL)
p, q = Atom("p"), Atom("q")

# name -> (build, a copy with one field changed, the repr the dataclass gave)
CASES = {
    "Atom": (lambda: Atom("p"), lambda: Atom("q"), "Atom(name='p')"),
    "Bottom": (Bottom, None, "Bottom()"),
    "And": (lambda: And(p, q), lambda: And(q, q),
            "And(left=Atom(name='p'), right=Atom(name='q'))"),
    "Or": (lambda: Or(p, q), lambda: Or(p, p),
           "Or(left=Atom(name='p'), right=Atom(name='q'))"),
    "Implies": (lambda: Not(p), lambda: Implies(p, q),
                "Implies(left=Atom(name='p'), right=Bottom())"),
    "Box": (lambda: Box(p), lambda: Box(q), "Box(inner=Atom(name='p'))"),
    "Diamond": (lambda: Diamond(Box(p)), lambda: Diamond(p),
                "Diamond(inner=Box(inner=Atom(name='p')))"),
    "PropModel": (lambda: PropModel(FRAME, VAL), lambda: PropModel(FRAME, frozenset()),
                  "PropModel(frame=Frame(worlds=frozenset({'w'}), "
                  "le=frozenset({('w', 'w')})), val=frozenset({('w', 'p')}))"),
    "BirelationalModel": (
        lambda: BirelationalModel(FRAME, frozenset({("w", "w")}), VAL),
        lambda: BirelationalModel(FRAME, frozenset(), VAL),
        "BirelationalModel(frame=Frame(worlds=frozenset({'w'}), "
        "le=frozenset({('w', 'w')})), r=frozenset({('w', 'w')}), "
        "val=frozenset({('w', 'p')}))"),
    "ConditionReport": (
        lambda: ConditionReport("F1", False, False, (("w", "w", "w"),), ()),
        lambda: ConditionReport("F2", False, False, (("w", "w", "w"),), ()),
        "ConditionReport(condition='F1', holds=False, unique=False, "
        "violations=(('w', 'w', 'w'),), nonunique=())"),
    "GeneralModel": (
        lambda: GeneralModel((("K", PROP),), frozenset({("K", "K")})),
        lambda: GeneralModel((("K", PROP),), frozenset()),
        "GeneralModel(submodels=(('K', PropModel(frame=Frame(worlds=frozenset({'w'}), "
        "le=frozenset({('w', 'w')})), val=frozenset({('w', 'p')}))),), "
        "succ=frozenset({('K', 'K')}))"),
    "PartialModel": (
        lambda: PartialModel(FAMILY, "K"),
        lambda: PartialModel(GeneralModel((("K", PROP),), frozenset()), "K"),
        "PartialModel(general=GeneralModel(submodels=(('K', PropModel(frame=Frame("
        "worlds=frozenset({'w'}), le=frozenset({('w', 'w')})), "
        "val=frozenset({('w', 'p')}))),), succ=frozenset({('K', 'K')})), reference='K')"),
    "HomogeneousModel": (
        lambda: HomogeneousModel(FAMILY),
        lambda: HomogeneousModel(GeneralModel((("K", PROP),), frozenset())),
        "HomogeneousModel(general=GeneralModel(submodels=(('K', PropModel(frame=Frame("
        "worlds=frozenset({'w'}), le=frozenset({('w', 'w')})), "
        "val=frozenset({('w', 'p')}))),), succ=frozenset({('K', 'K')})))"),
    "HigherOrderModel": (
        lambda: HigherOrderModel(1, (("K", LEVEL0),), (("succ", frozenset()),)),
        lambda: HigherOrderModel(1, (("K", LEVEL0),), (("next", frozenset()),)),
        "HigherOrderModel(level=1, objects=(('K', HigherOrderModel(level=0, "
        "objects=(('w', None),), relations=(('le', frozenset({('w', 'w')})),), "
        "val=frozenset({('w', 'p')}))),), relations=(('succ', frozenset()),), "
        "val=frozenset())"),
    "Disagreement": (
        lambda: Disagreement("K", "w", ("p",), "[]p", True, False),
        lambda: Disagreement("K", "w", (), "[]p", True, False),
        "Disagreement(submodel='K', world='w', gamma=('p',), formula='[]p', "
        "family_side=True, flat_side=False)"),
    "EquivalenceReport": (
        lambda: EquivalenceReport("mk", 2, ()),
        lambda: EquivalenceReport("ik", 2, ()),
        "EquivalenceReport(logic='mk', cases=2, disagreements=())"),
    "SearchBounds": (
        lambda: SearchBounds("mk"),
        lambda: SearchBounds("mk", max_atoms=2),
        "SearchBounds(logic='mk', max_worlds=3, max_atoms=1, max_submodels=1, "
        "rooted=False)"),
    "SearchOutcome": (
        lambda: SearchOutcome(True, "model K\n", (None, "w"), 3, 0.5),
        lambda: SearchOutcome(True, "model K\n", ("K", "w"), 3, 0.5),
        "SearchOutcome(found=True, model='model K\\n', locus=(None, 'w'), "
        "models_examined=3, elapsed=0.5)"),
    "RawModel": (
        lambda: loads("model K\nworlds w\nval w : p\nend\n").models["K"],
        lambda: RawModel("K", 1, ["w"]),
        "RawModel(name='K', line=1, worlds=['w'], le=[], r=[], val={'w': {'p'}})"),
    "Document": (
        lambda: loads("model K\nworlds w\nend\nsucc K K\n"),
        Document,
        "Document(models={'K': RawModel(name='K', line=1, worlds=['w'], le=[], r=[], "
        "val={})}, succ=[('K', 'K')], reference=None, nmodels={})"),
}
MUTABLE = {"RawModel", "Document"}


def test_every_record_class_is_listed():
    def records(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from records(sub)
    named = {c.__name__ for c in records(Record) if not c.__name__.startswith("_")}
    assert named == set(CASES) | {"Frame"}


@pytest.mark.parametrize("name", CASES)
class TestRecordTable:
    def test_repr(self, name):
        build, _, text = CASES[name]
        assert repr(build()) == text

    def test_equality(self, name):
        build, change, _ = CASES[name]
        a, b = build(), build()
        assert a == b and not a != b
        if change is not None:
            assert a != change() and not a == change()
        fields = {key: getattr(a, key) for key in type(a)._fields}
        assert a != SimpleNamespace(**fields) and a != tuple(fields.values())

    def test_hash(self, name):
        build, _, _ = CASES[name]
        a, b = build(), build()
        if name in MUTABLE:
            with pytest.raises(TypeError):
                hash(a)
        elif name in ("Atom", "Bottom", "And", "Or", "Implies", "Box", "Diamond"):
            assert hash(a) == hash(b) and a in {b}
        else:  # as the dataclass hashed: the tuple of fields
            assert hash(a) == hash(b) == hash(tuple(getattr(a, k) for k in type(a)._fields))

    def test_assignment(self, name):
        build, _, _ = CASES[name]
        a = build()
        first = type(a)._fields[0] if type(a)._fields else "extra"
        if name in MUTABLE:
            setattr(a, first, "changed")
            assert getattr(a, first) == "changed"
            return
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{first}'"):
            setattr(a, first, "changed")
        with pytest.raises(FrozenInstanceError, match="cannot delete field"):
            delattr(a, first)


def test_records_of_two_classes_differ():
    assert And(p, q) != Or(p, q) and Box(p) != Diamond(p)
    assert PartialModel(FAMILY, "K") != HomogeneousModel(FAMILY)


class TestRecordInit:
    def test_keywords_and_defaults(self):
        b = SearchBounds(logic="ik", rooted=True)
        assert (b.max_worlds, b.max_atoms, b.max_submodels, b.rooted) == (3, 1, 1, True)
        assert Implies(right=BOTTOM, left=p) == Not(p)
        assert PropModel(val=VAL, frame=FRAME) == PROP
        assert HigherOrderModel(0, (("w", None),), (("le", FRAME.le),)).val == frozenset()

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}), (("mk", 3, 1, 1, False, "extra"), {}), (("mk",), {"logic": "ik"}),
        (("mk",), {"depth": 2})])
    def test_bad_arguments(self, args, kwargs):
        with pytest.raises(TypeError):
            SearchBounds(*args, **kwargs)

    def test_post_init_checks(self):
        with pytest.raises(ValueError):
            SearchBounds("s4")
        with pytest.raises(AssertionError):
            ConditionReport("F1", True, True, (("w", "w", "w"),), ())


def _nest(*kinds, depth=3000):
    """p under depth operators, the last of kinds outermost."""
    f = p
    for i in range(depth):
        f = kinds[i % len(kinds)](f)
    return f


DEEP = {"negations": lambda: _nest(Not), "boxes": lambda: _nest(Box),
        "diamonds": lambda: _nest(Diamond), "mixed": lambda: _nest(Box, Diamond)}


@pytest.mark.parametrize("name", DEEP)
def test_deep_formulas_compare_hash_and_print(name):
    a, b = DEEP[name](), DEEP[name]()
    assert a == b and hash(a) == hash(b) and a in {b} and b in [a]
    assert a != a.inner if name != "negations" else a != a.left
    text = repr(a)
    assert text == repr(b) and text.count("(") == text.count(")")
    outer = {"negations": "Implies(left=", "boxes": "Box(inner=",
             "diamonds": "Diamond(inner=", "mixed": "Diamond(inner=Box(inner="}[name]
    assert text.startswith(outer) and "Atom(name='p')" in text


def test_vars_of_a_disagreement_is_its_json_payload(monkeypatch, tmp_path):
    d = Disagreement("K", "w", ("p",), "[]p", True, False)
    fields = {"submodel": "K", "world": "w", "gamma": ("p",), "formula": "[]p",
              "family_side": True, "flat_side": False}
    assert vars(d) == fields and list(vars(d)) == list(fields)
    monkeypatch.setattr(cli, "equivalence_report",
                        lambda *args, **kw: EquivalenceReport("mk", 1, (d,)))
    path = tmp_path / "one.km"
    path.write_text("model K\nworlds w\nend\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["equiv-report", "--json", "--model", str(path),
                         "--formula", "[]p"]) == 0
    assert json.loads(out.getvalue())["disagreements"] == [{**fields, "gamma": ["p"]}]


def test_importing_imk_leaves_dataclasses_and_inspect_unloaded():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import imk, imk.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_formula_hashes_follow_only_the_hash_seed():
    """One hash seed gives every run the same formula hashes, as it did
    when the dataclasses hashed their fields."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); from imk import parse; "
            "print([hash(parse(t)) for t in ('p', '_|_', '[]p -> q & ~r', '<>(p | T)')])")
    env = {**os.environ, "PYTHONHASHSEED": "3"}
    runs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env=env).stdout for _ in range(3)}
    assert len(runs) == 1
