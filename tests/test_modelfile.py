import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import imk.cli as cli
from imk import build_frame, build_prop_model, evaluate, general_model, lift, parse
from imk.general import HomogeneousModel
from imk.flatten import flatten
from imk.higher import HigherOrderModel, PolicyGapError, from_birelational
from imk.kripke import Frame, PropModel
from imk.modelfile import (ModelFileError, dump_birelational, dump_general,
                           dump_higher, dump_prop_model, loads)
from imk.search import SearchBounds, enumerate_models

from gen import random_layered_model
from test_properties import birelational_models, partial_models, prop_models

BIREL = """\
# three-world model
model B
worlds w w2 w3
le w w2
r w2 w3
val w :
val w2 :
val w3 :
end
"""

FAMILY = """\
model K
worlds m a e
le m a
le a e
val e : p
end
model K1
worlds m a e
le m a
le a e
val m : p
val a : p
val e : p q
end
reference K
succ K K1
"""

NESTED = """\
nmodel H level 1
model K1
worlds w1
val w1 :
end
model K2
worlds w1
val w1 : p
end
rel succ K1 K2
end
"""


class TestLoad:
    def test_birelational_block(self):
        m = loads(BIREL).as_birelational()
        assert m.frame.worlds == frozenset({"w", "w2", "w3"})
        assert ("w", "w2") in m.frame.le and ("w", "w") in m.frame.le
        assert m.r == frozenset({("w2", "w3")})

    def test_family_file(self):
        doc = loads(FAMILY)
        assert doc.reference == "K"
        g = doc.as_general()
        assert g.ids == ["K", "K1"]
        assert g.succ == frozenset({("K", "K1")})

    def test_nested_file(self):
        m = loads(NESTED).as_higher()
        assert m.level == 1
        assert [n for n, _ in m.objects] == ["K1", "K2"]
        assert m.relation("succ") == frozenset({("K1", "K2")})

    def test_prop_rejects_r_edges(self):
        with pytest.raises(ModelFileError, match="birelational"):
            loads(BIREL).as_prop_model()

    def test_comments_and_blank_lines(self):
        text = "# header\n\nmodel K\nworlds w # inline\nval w :\nend\n"
        assert loads(text).as_prop_model().frame.worlds == frozenset({"w"})


class TestDiagnostics:
    @pytest.mark.parametrize("text,fragment", [
        ("model K\nworlds w\nle w ghost\nend", "undeclared world"),
        ("model K\nworlds w\nval w p\nend", "val line"),
        ("model K\nworlds w\n", "missing its end"),
        ("model K\nworlds W\nend", "bad world id"),
        ("model K\nworlds w\nval w : P\nend", "bad atom 'P'"),
        ("bogus line\n", "unexpected"),
        ("model K\nworlds w\nend\nsucc K K2\n", "unknown model"),
        ("model K\nworlds w\nend\nmodel K\nworlds w\nend", "duplicate"),
    ])
    def test_errors(self, text, fragment):
        with pytest.raises(ModelFileError, match=fragment):
            loads(text)

    @pytest.mark.parametrize("text, message", [
        ("nmodel X level 2\nnmodel Y level 1\nmodel K\nworlds w\nend\nrel r K K\nend\n"
         "rel r Y Y\n", "line 1: nmodel 'X' is missing its end line"),
        ("nmodel X level 2\nnmodel Y level 1\nmodel K\nworlds w\nend\nrel r K K\n",
         "line 2: nmodel 'Y' is missing its end line"),
        ("nmodel X level 1\nmodel K\nworlds w\n", "line 2: model 'K' is missing its end line"),
    ], ids=["outer_holds_closed_inner", "inner", "model"])
    def test_unclosed_block_named_is_the_innermost(self, text, message):
        with pytest.raises(ModelFileError) as err:
            loads(text)
        assert str(err.value) == message

    def test_line_numbers(self):
        with pytest.raises(ModelFileError) as err:
            loads("model K\nworlds w\nle w ghost\nend")
        assert err.value.line == 4  # detected when the block closes

    def test_heredity_error_propagates(self):
        text = "model K\nworlds w v\nle w v\nval w : p\nval v :\nend"
        with pytest.raises(ValueError, match="heredity"):
            loads(text).as_prop_model()


class TestRoundTrip:
    def test_birelational(self):
        m = loads(BIREL).as_birelational()
        assert loads(dump_birelational(m, "B")).as_birelational() == m

    def test_general_with_reference(self):
        doc = loads(FAMILY)
        g = doc.as_general()
        text = dump_general(g, reference=doc.reference)
        doc2 = loads(text)
        assert doc2.as_general() == g and doc2.reference == "K"

    def test_higher(self):
        m = loads(NESTED).as_higher()
        assert loads(dump_higher(m, "H")).as_higher() == m

    def test_empty_relations(self):
        two = NESTED.replace("rel succ K1 K2\n", "rel succ K1 K2\nrel next\n")
        m = loads(two).as_higher()
        assert m.relations == (("next", frozenset()), ("succ", frozenset({("K1", "K2")})))
        assert dump_higher(m, "H") == two.replace("rel succ K1 K2\nrel next\n",
                                                   "rel next\nrel succ K1 K2\n")
        with pytest.raises(PolicyGapError):
            evaluate(m, ["K1", "w1"], parse("[]p"))
        alone = loads(NESTED.replace("rel succ K1 K2", "rel succ")).as_higher()
        assert alone.relations == (("succ", frozenset()),)
        assert evaluate(alone, ["K1", "w1"], parse("[]p")) is True
        for bad in ("rel", "rel succ K1", "rel succ K1 K2 K1"):
            with pytest.raises(ModelFileError, match="rel line looks like"):
                loads(NESTED.replace("rel succ K1 K2", bad))

    def test_lifted_model_round_trips(self):
        point = build_frame({"w1"}, set())
        h = HomogeneousModel(general_model(
            {"K1": build_prop_model(point, {}),
             "K2": build_prop_model(point, {"w1": {"p"}})},
            {("K1", "K2")}))
        m = lift(h)
        assert loads(dump_higher(m)).as_higher() == m

    def test_level_zero_relations_round_trip(self):
        """A level-0 object keeps every relation, an empty r or one named s
        too, as rel lines in its block; a plain one keeps its plain block."""
        point = from_birelational(build_frame({"w"}, ()), frozenset(), frozenset())
        extra = HigherOrderModel(0, (("w", None), ("v", None)),
                                 (("le", frozenset({("w", "w"), ("v", "v")})),
                                  ("s", frozenset({("w", "v")}))), frozenset({("v", "p")}))
        for bottom in (point, extra):
            m = HigherOrderModel(1, (("K", bottom),), (("succ", frozenset({("K", "K")})),))
            text = dump_higher(m)
            assert "rel" in text.split("model K\n")[1].split("end")[0]
            assert loads(text).as_higher() == m and dump_higher(loads(text).as_higher()) == text
        assert "rel r\n" in dump_higher(HigherOrderModel(1, (("K", point),),
                                                           (("succ", frozenset()),)))
        assert dump_higher(loads(NESTED).as_higher()) == NESTED

    def test_r_line_object_keeps_the_readers_prop(self):
        """A level-0 object with r lines gets the model the reader built and
        checked as its prop, equal to the one its pairs would build."""
        block = "model K{}\nworlds w1 w2\nle w1 w2\nr w{} w2\nval w2 : p\nend\n"
        text = "nmodel H level 1\n" + block.format(1, 1) + block.format(2, 2) + \
            "rel succ K1 K2\nrel succ K2 K1\nend\n"
        m = loads(text).as_higher()
        fresh = HigherOrderModel(1, tuple((k, from_birelational(
            build_frame(c.object_names(), c.relation("le")), c.relation("r"), c.val))
            for k, c in m.objects), m.relations)
        assert fresh == m
        for (_, child), (_, other) in zip(m.objects, fresh.objects):
            assert "prop" in vars(child) and "prop" not in vars(other)
            assert child.prop == PropModel(Frame(frozenset(child.object_names()),
                                                 child.relation("le")), child.val)
        for f in ("p", "[]p", "<>p", "~p -> <>p", "[](p -> <>p)"):
            for path in [()] + [(k,) for k in ("K1", "K2")] + \
                    [(k, w) for k in ("K1", "K2") for w in ("w1", "w2")]:
                assert evaluate(m, path, parse(f)) == evaluate(fresh, path, parse(f))

    def test_level_zero_alone_is_refused(self):
        with pytest.raises(ValueError, match="level 1 and above"):
            dump_higher(from_birelational(build_frame({"w"}, ()), frozenset(), frozenset()))

    def test_rel_lines_in_model_blocks(self):
        with_rel = NESTED.replace("worlds w1\nval w1 :\n", "worlds w1\nval w1 :\nrel le w1 w1\n", 1)
        assert dict(loads(with_rel).as_higher().objects)["K1"].relations == \
            (("le", frozenset({("w1", "w1")})),)
        for bad, message in ((with_rel.replace("rel le w1 w1", "rel le w1 w1\nle w1 w1"),
                              "no le or r lines"),
                             (with_rel.replace("rel le w1 w1", "rel le w1 w9"), "not an object"),
                             (with_rel.replace("rel le w1 w1", "rel le W w1"), "bad world id"),
                             (BIREL.replace("end", "rel le w w\nend"), "unexpected 'rel'")):
            with pytest.raises(ModelFileError, match=message):
                loads(bad).as_higher() if "nmodel" in bad else loads(bad)

    def test_enumerated_models_round_trip(self):
        for m in enumerate_models(SearchBounds("prop", 2, 2)):
            assert loads(dump_prop_model(m)).as_prop_model() == m

    def test_serialization_is_canonical(self):
        m1 = loads(BIREL).as_birelational()
        m2 = loads(dump_birelational(m1, "B")).as_birelational()
        assert dump_birelational(m1, "B") == dump_birelational(m2, "B")


class TestFlatWorldNames:
    def test_flat_model_serializes_with_mangled_names(self):
        g = loads(FAMILY).as_general()
        text = dump_birelational(flatten(g), "Flat")
        assert "m__K" in text and "e__K1" in text
        reparsed = loads(text).as_birelational()
        assert len(reparsed.frame.worlds) == 6


# Words a corrupted model file may carry: every keyword, ids good and bad.
TOKENS = ("model", "nmodel", "worlds", "le", "r", "val", ":", "end", "succ",
          "reference", "rel", "level", "0", "1", "K", "K1", "w1", "w9", "W", "#", "")


def _model_text(m) -> str:
    if hasattr(m, "level"):
        return dump_higher(m)
    if hasattr(m, "r"):
        return dump_birelational(m)
    if hasattr(m, "general"):
        return dump_general(m.general, m.reference)
    return dump_prop_model(m)


def _vary_bottoms(m, rng: random.Random):
    """m with each level-0 object given, at random, an empty relation r, an
    extra relation s, or neither."""
    if m.level > 0:
        return HigherOrderModel(m.level, tuple((k, _vary_bottoms(c, rng)) for k, c in m.objects),
                                m.relations)
    names = m.object_names()
    extra = rng.choice([(), (("r", frozenset()),), (("s", frozenset(
        (a, b) for a in names for b in names if rng.random() < 0.4)),)])
    return HigherOrderModel(0, m.objects, m.relations + extra, m.val)


def _layered(seed: int, level: int, relations: int, vary: bool):
    m = random_layered_model(random.Random(seed), level, max_objects=2 + (level == 1),
                             relations=relations)
    return _vary_bottoms(m, random.Random(seed)) if vary else m


def layered_models():
    """Level-1 and level-2 models with one or two top relations, whose
    level-0 objects may carry an empty or an extra relation."""
    return st.builds(_layered, st.integers(0, 2 ** 16), st.integers(1, 2), st.integers(1, 2),
                     st.booleans())


@st.composite
def model_texts(draw):
    """The file of a small prop, birelational, family or layered model, with
    up to three lines dropped, repeated, or with one word replaced or added."""
    model = draw(st.one_of(prop_models(4), birelational_models(4), partial_models(),
                           layered_models()))
    lines = _model_text(model).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "repeat", "word")))
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            words = lines[i].split(" ")
            j = draw(st.integers(0, len(words)))
            words[j:j + 1] = [draw(st.sampled_from(TOKENS))]
            lines[i] = " ".join(words)
        if not lines:
            lines = [""]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.km"


class TestLoaderFuzz:
    @given(prop_models(4))
    def test_prop_round_trip(self, m):
        assert loads(dump_prop_model(m)).as_prop_model() == m

    @given(birelational_models(4))
    def test_birelational_round_trip(self, m):
        assert loads(dump_birelational(m)).as_birelational() == m

    @given(partial_models())
    def test_family_round_trip(self, m):
        doc = loads(dump_general(m.general, m.reference))
        assert doc.as_general() == m.general and doc.reference == m.reference

    @given(layered_models())
    def test_layered_round_trip(self, m):
        text = dump_higher(m)
        assert loads(text).as_higher() == m and dump_higher(loads(text).as_higher()) == text

    @pytest.mark.parametrize("level", [1, 2])
    def test_layered_seeds_round_trip(self, level):
        """Seeds 0-199: relations with no pairs among them."""
        empty = 0
        for seed in range(200):
            m = random_layered_model(random.Random(seed), level, relations=2)
            assert loads(dump_higher(m)).as_higher() == m
            empty += any(not pairs for _, pairs in m.relations)
        assert empty

    @given(model_texts(), st.sampled_from(["p", "p | ~p", "[]p -> <>q"]),
           st.sampled_from([[], ["--logic", "prop"], ["--logic", "ik"],
                            ["--logic", "mk"], ["--logic", "homogeneous"]]))
    @settings(max_examples=300, deadline=None)
    def test_check_answers_or_rejects(self, fuzz_path, text, formula, logic):
        """Generated or corrupted text: an answer (0) or an input error (1),
        never an internal error (2)."""
        fuzz_path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["check", "--model", str(fuzz_path), "--formula", formula] + logic)
        assert rc in (0, 1), err.getvalue()

    @given(model_texts(), st.sampled_from([
        ["frame-check"], ["frame-check", "--json"], ["classify"], ["flatten"],
        ["flatten", "--json"], ["equiv-report", "--formula", "p;[]p -> <>q"],
        ["equiv-report", "--formula", "<>p", "--gamma", "q", "--logic", "mk"]]))
    @settings(max_examples=300, deadline=None)
    def test_subcommands_answer_or_reject(self, fuzz_path, text, argv):
        """The other model-reading subcommands on the same texts: 0 or 1,
        never 2."""
        fuzz_path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--model", str(fuzz_path)])
        assert rc in (0, 1), err.getvalue()
