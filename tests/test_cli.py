import contextlib
import json
import sys
import time
from math import comb

import pytest
from hypothesis import given, strategies as st

import random

import imk.cli as cli
from gen import (formula_pool, homogeneous_corpus, partial_corpus, random_birelational,
                 random_frame, random_valuation)
from imk import (BirelationalModel, classify, entails, entails_homogeneous, entails_ik,
                 entails_mk, entails_partial, flatten, is_unirelational)
from imk.cli import UsageError, main
from imk.formulas import ParseError, complexity, parse, render
from imk.kripke import HeredityError, PropModel
from imk.modelfile import (ModelFileError, dump_birelational, dump_general, dump_higher,
                           dump_prop_model, load_path)

THREE_WORLD = """\
model B
worlds w w2 w3
le w w2
r w2 w3
val w :
val w2 :
val w3 :
end
"""

TIMELINE = """\
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
model K2
worlds a e
le a e
val a : p
val e : p q
end
reference K
succ K K1
succ K K2
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


# H1 and H2 each link A to B; up links H1 to H2.  p fails only at H1:A:w1.
TWO_LEVEL = """\
nmodel H level 2
nmodel H1 level 1
model A
worlds w1
end
model B
worlds w1
val w1 : p
end
rel acc A B
end
nmodel H2 level 1
model A
worlds w1
val w1 : p
end
model B
worlds w1
val w1 : p
end
rel acc A B
end
rel up H1 H2
end
"""

# K declares b before a.  []p fails at K:b (L:b lacks p) and errs at K:a
# (L has no a), so K is decided by b, its first world in declared order.
DECLARED_ORDER = """\
nmodel H level 1
model K
worlds b a
rel le b b
rel le a a
end
model L
worlds b
rel le b b
end
rel succ K L
end
"""


@pytest.fixture
def three_world(tmp_path):
    path = tmp_path / "threeworld.km"
    path.write_text(THREE_WORLD)
    return str(path)


@pytest.fixture
def timeline(tmp_path):
    path = tmp_path / "timeline.km"
    path.write_text(TIMELINE)
    return str(path)


class TestParseCommand:
    def test_canonical_form(self, capsys):
        assert main(["parse", "--formula", "[](p|~p)&~[]p-><>~p"]) == 0
        assert capsys.readouterr().out.strip() == "[](p | ~p) & ~[]p -> <>~p"

    def test_json(self, capsys):
        assert main(["parse", "--formula", "~p", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"formula": "~p", "complexity": 2,
                        "ast": {"type": "implies",
                                "left": {"type": "atom", "name": "p"},
                                "right": {"type": "bottom"}}}

    def test_syntax_error_is_exit_1(self, capsys):
        assert main(["parse", "--formula", "p &"]) == 1
        assert "position" in capsys.readouterr().err

    def test_deep_formula(self, capsys):
        for text in ["~" * 3000 + "p", "[]<>" * 1500 + "p", " -> ".join(["p"] * 3000)]:
            assert main(["parse", "--formula", text]) == 0
            assert capsys.readouterr().out == text + "\n"

    @pytest.mark.parametrize("text", ["p", "~" * 400 + "p", "[]<>" * 200 + "p",
                                      " -> ".join(["p"] * 400), "(p | q) & ~[](q -> <>_|_)"],
                             ids=["atom", "not", "box_dia", "implies", "mixed"])
    def test_json_is_the_standard_encoding(self, capsys, text):
        f = parse(text)
        payload = {"formula": render(f), "complexity": complexity(f), "ast": cli._ast_json(f)}
        assert main(["parse", "--json", "--formula", text]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_json_deep_formula(self):
        sink = _Sink()
        with contextlib.redirect_stdout(sink):
            assert main(["parse", "--json", "--formula", "~" * 3000 + "p"]) == 0
        assert sink.head.startswith('{\n  "ast": {\n    "left": {') and sink.tail.endswith("}\n")

    @pytest.mark.parametrize("depth", [998, 1500, 3000])
    def test_json_past_1000_levels_reads_back(self, capsys, depth):
        """998 negations make 1,000 levels, the deepest the text still shares
        with the standard encoding; deeper levels are compact."""
        f = parse("~" * depth + "p")
        payload = {"formula": render(f), "complexity": complexity(f), "ast": cli._ast_json(f)}
        assert main(["parse", "--json", "--formula", "~" * depth + "p"]) == 0
        out, limit = capsys.readouterr().out, sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2 * depth)  # for json.loads, == and json.dumps
        try:
            assert json.loads(out) == payload
            if depth <= 998:
                assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        finally:
            sys.setrecursionlimit(limit)

    def test_json_is_linear_in_depth(self):
        sink, start = _Sink(), time.perf_counter()
        with contextlib.redirect_stdout(sink):
            assert main(["parse", "--json", "--formula", "~" * 50_000 + "p"]) == 0
        assert time.perf_counter() - start < 5 and sink.size < 20_000_000
        assert sink.tail.endswith('~p"\n}\n')


class _Sink:
    """A stdout that keeps only the first and the last 100 characters, and
    counts the rest."""
    head = tail = ""
    size = 0

    def write(self, text):
        self.size += len(text)
        if len(self.head) < 100:
            self.head = (self.head + text)[:100]
        self.tail = (self.tail + text[-100:])[-100:]
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)

    def flush(self):
        pass


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@given(_json_values)
def test_json_chunks_match_the_standard_encoder(value):
    assert "".join(cli._json_chunks(value)) == json.dumps(value, indent=2, sort_keys=True)


class TestParserReuse:
    def test_one_parser_per_process(self, monkeypatch, capsys):
        assert main(["parse", "--formula", "p"]) == 0
        monkeypatch.setattr(cli, "build_parser", None)  # main must not build again
        assert main(["parse", "--formula", "q"]) == 0
        assert main(["parse", "--formula", "p", "--bogus"]) == 1
        assert main(["classify"]) == 1
        assert capsys.readouterr().out == "p\nq\n"

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"],
                                      ["countermodel", "--help"]])
    def test_help_is_that_of_a_fresh_parser(self, capsys, argv):
        main(["parse", "--formula", "p"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        first, second = capsys.readouterr().out.split("usage: imk")[1:]
        assert first == second


class TestCheckCommand:
    def test_per_world_verdicts(self, three_world, capsys):
        assert main(["check", "--model", three_world, "--logic", "ik",
                     "--formula", "~[]_|_"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["w: true", "w2: true", "w3: false"]

    def test_at_flag(self, three_world, capsys):
        assert main(["check", "--model", three_world, "--logic", "ik",
                     "--formula", "(~[]_|_)-><>T", "--at", "w"]) == 0
        assert capsys.readouterr().out.strip() == "w: false"

    def test_gamma(self, three_world, capsys):
        assert main(["check", "--model", three_world, "--logic", "ik",
                     "--formula", "q", "--gamma", "p;p->q", "--at", "w"]) == 0
        assert capsys.readouterr().out.strip() == "w: true"

    def test_family_cells(self, timeline, capsys):
        assert main(["check", "--model", timeline, "--formula", "[]q",
                     "--at", "e:K"]) == 0
        assert capsys.readouterr().out.strip() == "K:e: true"

    def test_mk_refuses_weak_model(self, three_world, capsys):
        assert main(["check", "--model", three_world, "--logic", "mk",
                     "--formula", "[]p"]) == 1
        assert "strong" in capsys.readouterr().err

    def test_nested_model(self, tmp_path, capsys):
        path = tmp_path / "nested.km"
        path.write_text(NESTED)
        assert main(["check", "--model", str(path), "--formula", "<>p",
                     "--at", "w1:K1"]) == 0
        assert capsys.readouterr().out.strip() == "K1:w1: true"

    def test_nmodel_paths_above_level_one(self, tmp_path, capsys):
        # --at names the world first and the top object last
        path = tmp_path / "two.km"
        path.write_text(TWO_LEVEL)
        for at, f, line in (("w1:A:H1", "p", "H1:A:w1: false"),
                            ("w1:A:H1", "[]p", "H1:A:w1: true"),
                            ("w1:B:H2", "<>p", "H2:B:w1: false"),
                            ("A:H2", "p", "H2:A: true"),
                            ("H1", "p", "H1: false")):
            assert main(["check", "--model", str(path), "--formula", f, "--at", at]) == 0
            assert capsys.readouterr().out.strip() == line
        assert main(["check", "--model", str(path), "--formula", "p", "--at", "w1:A:H1",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "verdicts": [{"at": "H1:A:w1", "value": False}]}
        assert main(["check", "--model", str(path), "--formula", "p", "--at", "w1:A"]) == 1
        assert "no object or world at path ('A', 'w1')" in capsys.readouterr().err
        assert main(["check", "--model", str(path), "--formula", "p"]) == 1
        assert "use --at" in capsys.readouterr().err

    def test_nmodel_nested_3000_levels(self, tmp_path, capsys):
        """Nesting depth costs no recursion, in the reader, the kernel,
        dump_higher or is_unirelational."""
        depth = 3000
        lines = [f"nmodel N{i} level {i}" for i in range(depth, 0, -1)]
        lines += ["model K", "worlds w", "val w : p", "end", "rel r K K", "end"]
        lines += [f"rel r N{i} N{i}\nend" for i in range(1, depth)]
        path = tmp_path / "deep.km"
        path.write_text("\n".join(lines) + "\n")
        model = load_path(path).as_higher()
        assert dump_higher(model, f"N{depth}") == path.read_text()
        assert is_unirelational(model)
        at = "w:K:" + ":".join(f"N{i}" for i in range(1, depth))
        for where, f, value in ((at, "p", "true"), (at, "[]p & <>~~p", "true"),
                                (at, "<>~p", "false"), (f"N{depth - 1}", "[]p", "true")):
            assert main(["check", "--model", str(path), "--formula", f, "--at", where]) == 0
            label = ":".join(reversed(where.split(":")))
            assert capsys.readouterr().out == f"{label}: {value}\n"

    def test_short_nmodel_path_reads_declared_order(self, tmp_path, capsys):
        path = tmp_path / "declared.km"
        path.write_text(DECLARED_ORDER)
        assert main(["check", "--model", str(path), "--formula", "[]p", "--at", "K"]) == 0
        assert capsys.readouterr().out.strip() == "K: false"
        assert main(["check", "--model", str(path), "--formula", "[]p", "--at", "a:K"]) == 1
        assert "shifts to a path the model lacks" in capsys.readouterr().err

    def test_deep_formula(self, tmp_path, capsys):
        # In the chain p holds only at the later world, so ~p holds nowhere
        # and every even number of negations holds everywhere.  The nested
        # members have one world each, where ~~p is p.
        chain = tmp_path / "chain.km"
        chain.write_text("model K\nworlds w w2\nle w w2\nval w2 : p\nend\n")
        nested = tmp_path / "nested.km"
        nested.write_text(NESTED)
        cases = [(chain, ["--logic", "prop"],
                  {3000: ["w: true", "w2: true"], 2999: ["w: false", "w2: false"]}),
                 (nested, [],
                  {3000: ["K1:w1: false", "K2:w1: true"],
                   2999: ["K1:w1: true", "K2:w1: false"]})]
        for path, extra, verdicts in cases:
            for depth, lines in verdicts.items():
                assert main(["check", "--model", str(path), "--formula",
                             "~" * depth + "p"] + extra) == 0
                assert capsys.readouterr().out.splitlines() == lines

    def test_missing_model_file(self, capsys):
        assert main(["check", "--model", "/nonexistent.km",
                     "--formula", "p"]) == 1

    def test_submodel_address_needs_family(self, three_world, capsys):
        assert main(["check", "--model", three_world, "--logic", "ik",
                     "--formula", "p", "--at", "w:K"]) == 1
        assert "family" in capsys.readouterr().err

    def test_point_logic_rejected_on_family(self, timeline, capsys):
        assert main(["check", "--model", timeline, "--logic", "ik",
                     "--formula", "p"]) == 1
        assert "single-model" in capsys.readouterr().err


def _seeded_files(tmp_path) -> list[tuple[str, str]]:
    """(logic, path) for seeded files of every kind that check reads: prop
    models, random birelational models and flat images of partial and
    homogeneous families under IK and MK, and the families themselves."""
    rng = random.Random(41)
    out = []
    for i, (pm, hm) in enumerate(zip(partial_corpus(6, seed=43), homogeneous_corpus(6, seed=47))):
        frame = random_frame(rng, 4)
        prop = PropModel(frame, random_valuation(rng, frame, ["p1", "p2"]))
        bm = random_birelational(rng, 4, 0.3)
        while classify(bm) != "birelational":  # MK refuses these, IK reads them
            bm = random_birelational(rng, 4, 0.3)
        bm = BirelationalModel(bm.frame, bm.r, random_valuation(rng, bm.frame, ["p1", "p2"]))
        texts = [("prop", dump_prop_model(prop)), ("ik", dump_birelational(bm)),
                 ("ik", dump_birelational(flatten(pm.general))),
                 ("ik", dump_birelational(flatten(hm.general))),
                 ("mk", dump_birelational(flatten(hm.general))),
                 ("partial", dump_general(pm.general, reference="K1")),
                 ("homogeneous", dump_general(hm.general))]
        for j, (logic, text) in enumerate(texts):
            path = tmp_path / f"{i}-{j}.km"
            path.write_text(text)
            out.append((logic, str(path)))
    return out


def _point_calls(logic: str, path: str, gamma, f) -> list[tuple[str, bool]]:
    """(label, verdict) from one entails* call per point of the file."""
    doc = load_path(path)
    if logic == "prop":
        m = doc.as_prop_model()
        return [(w, entails(m, w, gamma, f)) for w in m.frame.sorted_worlds()]
    if logic in ("ik", "mk"):
        m, ent = doc.as_birelational(), entails_ik if logic == "ik" else entails_mk
        return [(w, ent(m, w, gamma, f)) for w in m.frame.sorted_worlds()]
    g = doc.as_general()
    m, ent = (cli.as_partial(g, "K1"), entails_partial) if logic == "partial" \
        else (cli.as_homogeneous(g), entails_homogeneous)
    return [(f"{k}:{w}", ent(m, k, w, gamma, f)) for k, w in g.cells()]


class TestCheckAgainstPointCalls:
    """check reads one mask per query; its verdicts are those of one point
    call per point."""

    def test_verdicts(self, tmp_path, capsys):
        modal = formula_pool(8, 3, ["p1", "p2"], seed=53)
        plain = formula_pool(8, 3, ["p1", "p2"], seed=59, modal=False)
        checked = 0
        for logic, path in _seeded_files(tmp_path):
            pool = plain if logic == "prop" else modal
            for i, f in enumerate(pool):
                gamma = [pool[(i + 3 * j + 1) % len(pool)] for j in range(i % 3)]
                argv = ["check", "--json", "--model", path, "--logic", logic,
                        "--formula", render(f)]
                if gamma:
                    argv += ["--gamma", ";".join(map(render, gamma))]
                assert main(argv) == 0
                verdicts = json.loads(capsys.readouterr().out)["verdicts"]
                got = [(v["at"], v["value"]) for v in verdicts]
                assert got == _point_calls(logic, path, gamma, f), argv
                checked += len(got)
        assert checked > 1000

    def test_unknown_world_before_class(self, tmp_path, capsys):
        path = tmp_path / "none.km"
        path.write_text("model K\nworlds a b\nle a b\nr a a\nval a :\nval b :\nend\n")
        argv = ["check", "--model", str(path), "--logic", "ik", "--formula", "p"]
        assert main(argv + ["--at", "nowhere"]) == 1
        assert capsys.readouterr().err == "error: --at names an unknown world 'nowhere'\n"
        assert main(argv + ["--at", "a"]) == 1
        assert "classifies as 'none'" in capsys.readouterr().err

    def test_premises_are_read_first(self, tmp_path, capsys):
        path = tmp_path / "prop.km"
        path.write_text("model K\nworlds a\nval a : p\nend\n")
        assert main(["check", "--model", str(path), "--gamma", "[]p", "--formula", "<>q"]) == 1
        assert capsys.readouterr().err == "error: propositional models have no clause for Box\n"


class TestFrameCheck:
    def test_reports(self, three_world, capsys):
        assert main(["frame-check", "--model", three_world]) == 0
        out = capsys.readouterr().out
        assert "F1: holds unique" in out
        assert "F3: fails violations ('w', 'w2', 'w3')" in out
        assert "class: birelational" in out

    def test_json(self, three_world, capsys):
        assert main(["frame-check", "--model", three_world, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["class"] == "birelational"
        f3 = next(r for r in data["reports"] if r["condition"] == "F3")
        assert f3["holds"] is False and f3["violations"] == [["w", "w2", "w3"]]


    def test_json_on_long_chain(self, tmp_path, capsys):
        n = 40
        worlds = [f"w{i}" for i in range(n)]
        lines = ["model C", "worlds " + " ".join(worlds)]
        lines += [f"le {a} {b}" for a, b in zip(worlds, worlds[1:])]
        lines += [f"r {worlds[i]} {worlds[j]}" for i in range(n) for j in range(i, n)]
        path = tmp_path / "chain.km"
        path.write_text("\n".join(lines + ["end", ""]))
        assert main(["frame-check", "--json", "--model", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["class"] == "none"
        assert [(r["holds"], r["unique"], r["violations"]) for r in data["reports"]] == \
            [(True, False, [])] * 4
        wide, narrow = sum(k * k for k in range(1, n)), comb(n + 2, 3) - n
        assert [len(r["nonunique"]) for r in data["reports"]] == [wide, narrow, narrow, wide]
        assert data["reports"][0]["nonunique"][0] == ["w0", "w0", "w0"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_each_law_is_walked_once(self, three_world, monkeypatch, capsys, json_flag):
        """The class comes from the four reports, not from a second walk."""
        import imk.birelational
        walked, original = [], imk.birelational._failures

        def failures(m, c, unique):
            walked.append(c)
            return original(m, c, unique)

        monkeypatch.setattr(imk.birelational, "_failures", failures)
        assert main(["frame-check", "--model", three_world] + json_flag) == 0
        assert "birelational" in capsys.readouterr().out
        assert walked == ["F1", "F2", "F3", "F4"]


class TestClassify:
    def test_word(self, three_world, capsys):
        assert main(["classify", "--model", three_world]) == 0
        assert capsys.readouterr().out.strip() == "birelational"


class TestFlattenAndEquiv:
    def test_flatten_then_check_agrees(self, timeline, tmp_path, capsys):
        flat = str(tmp_path / "flat.km")
        assert main(["flatten", "--model", timeline, "-o", flat]) == 0
        capsys.readouterr()
        assert main(["check", "--model", timeline, "--formula", "[]q",
                     "--at", "e:K"]) == 0
        family_verdict = capsys.readouterr().out.strip().split()[-1]
        assert main(["check", "--model", flat, "--logic", "ik",
                     "--formula", "[]q", "--at", "e__K"]) == 0
        flat_verdict = capsys.readouterr().out.strip().split()[-1]
        assert family_verdict == flat_verdict == "true"

    def test_equiv_report(self, timeline, capsys):
        assert main(["equiv-report", "--model", timeline,
                     "--formula", "[]q;<>p;(~[]_|_)-><>T"]) == 0
        out = capsys.readouterr().out
        assert "disagreements: 0" in out and "logic: ik" in out

    def test_equiv_report_needs_formulas(self, timeline, capsys):
        assert main(["equiv-report", "--model", timeline]) == 1


HOMOG = """\
model K1
worlds w1
val w1 :
end
model K2
worlds w1
val w1 : p
end
succ K1 K2
"""


class TestFamilyClassSelection:
    @pytest.fixture
    def homog(self, tmp_path):
        path = tmp_path / "homog.km"
        path.write_text(HOMOG)
        return str(path)

    def test_inferred_homogeneous(self, homog, capsys):
        assert main(["check", "--model", homog, "--formula", "<>p"]) == 0
        assert capsys.readouterr().out.splitlines() == \
            ["K1:w1: true", "K2:w1: false"]

    @pytest.mark.parametrize("text", [HOMOG, TIMELINE], ids=["homogeneous", "partial"])
    def test_inferred_class_builds_one_family(self, text, tmp_path, monkeypatch, capsys):
        import imk.modelfile
        built, original = [], imk.modelfile.general_model

        def general_model(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(imk.modelfile, "general_model", general_model)
        path = tmp_path / "family.km"
        path.write_text(text)
        assert main(["check", "--model", str(path), "--formula", "[]p -> <>p"]) == 0
        assert capsys.readouterr().out and len(built) == 1

    @pytest.mark.parametrize("extra", [["--as", "homogeneous"],
                                       ["--as", "partial"],
                                       ["--logic", "classicalK"]])
    def test_explicit_class_selection(self, homog, capsys, extra):
        assert main(["check", "--model", homog, "--formula", "<>p"] + extra) == 0
        assert "K1:w1: true" in capsys.readouterr().out

    def test_equiv_report_with_gamma(self, homog, capsys):
        assert main(["equiv-report", "--model", homog,
                     "--formula", "<>p;[]p", "--gamma", "p"]) == 0
        out = capsys.readouterr().out
        assert "logic: mk" in out and "disagreements: 0" in out


class TestCountermodelCommand:
    def test_found(self, capsys, tmp_path):
        out_path = str(tmp_path / "cm.km")
        assert main(["countermodel", "--formula", "p|~p", "--logic", "prop",
                     "--max-worlds", "2", "--max-atoms", "1",
                     "-o", out_path]) == 0
        out = capsys.readouterr().out
        assert "countermodel found at w1" in out
        assert "model K" in open(out_path).read()

    def test_not_found_is_reported_as_bounded(self, capsys):
        assert main(["countermodel", "--formula", "p->p", "--logic", "prop",
                     "--max-worlds", "2", "--max-atoms", "1"]) == 0
        assert "no countermodel found within bounds" in capsys.readouterr().out

    def test_unsatisfiable_premise_hides_the_goal(self, capsys):
        argv = ["countermodel", "--logic", "prop", "--formula", "[]p"]
        assert main(argv + ["--gamma", "_|_"]) == 0
        assert capsys.readouterr().out == \
            "no countermodel found within bounds (144 models examined)\n"
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: propositional models have no clause for Box\n"

    def test_json(self, capsys):
        assert main(["countermodel", "--formula", "p|~p", "--logic", "prop",
                     "--max-worlds", "2", "--max-atoms", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True and data["locus"] == [None, "w1"]


class TestEnumerateCommand:
    def test_count_line(self, capsys):
        assert main(["enumerate", "--logic", "prop", "--max-worlds", "1",
                     "--max-atoms", "1"]) == 0
        assert "# enumerated 2 models" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["enumerate", "--logic", "prop", "--max-worlds", "1",
                     "--max-atoms", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 2 and len(data["models"]) == 2


class TestEntryPoint:
    def test_module_invocation(self):
        import os
        import subprocess
        import sys
        from pathlib import Path
        # the child imports the same imk as this test, installed or not
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "imk.cli", "parse", "--formula", "~p"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "~p"


class TestHeredityReport:
    """The heredity error names the least violating world, atom and later
    world, so its text does not follow the hash seed."""
    TEXT = "model K\nworlds a b c d\nle a b\nle a c\nle a d\nval a : p q\nend\n"

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_stderr_does_not_depend_on_the_hash_seed(self, seed, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path
        path = tmp_path / "hered.km"
        path.write_text(self.TEXT)
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "imk.cli", "check", "--model", str(path), "--formula", "p"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr == ("error: heredity violated: atom 'p' holds at 'a' "
                               "but not at later world 'b'\n")


class TestRowsStayRows:
    """Queries that read only the up rows and their transpose leave le
    unspelled on the loaded frame."""

    @pytest.mark.parametrize("argv,r", [
        (["check", "--formula", "p | ~p", "--logic", "prop"], False),
        (["check", "--formula", "[]p -> <>p", "--logic", "ik"], True),
        (["classify"], True),
        (["frame-check", "--json"], True),
    ])
    def test_le_is_never_spelled(self, argv, r, tmp_path, monkeypatch, capsys):
        import imk.modelfile
        built, original = [], imk.modelfile.build_frame

        def build_frame(worlds, gens):
            built.append(original(worlds, gens))
            return built[-1]

        monkeypatch.setattr(imk.modelfile, "build_frame", build_frame)
        worlds = [f"w{i}" for i in range(60)]
        lines = ["model C", "worlds " + " ".join(worlds)]
        lines += [f"le {a} {b}" for a, b in zip(worlds, worlds[1:])]
        lines += [f"r {w} {w}" for w in worlds] if r else []
        lines += [f"val {w} : p" for w in worlds[30:]]
        path = tmp_path / "chain.km"
        path.write_text("\n".join(lines + ["end", ""]))
        assert main(argv + ["--model", str(path)]) == 0
        assert capsys.readouterr().out
        assert len(built) == 1 and "compiled" in built[0].__dict__
        assert "le" not in built[0].__dict__

    @pytest.mark.parametrize("argv", [
        ["check", "--formula", "[]p -> <>p", "--logic", "partial"],
        ["check", "--formula", "[]p -> <>p", "--logic", "homogeneous"],
        ["flatten"],
    ])
    def test_family_checks_leave_le_unspelled(self, argv, tmp_path, monkeypatch, capsys):
        """Partial copies, one shared frame, the cell rows and the flat frame
        all come from the members' rows."""
        import imk.modelfile
        built, original = [], imk.modelfile.build_frame

        def build_frame(worlds, gens):
            built.append(original(worlds, gens))
            return built[-1]

        monkeypatch.setattr(imk.modelfile, "build_frame", build_frame)
        worlds = [f"w{i}" for i in range(60)]
        lines = []
        for name, start in (("K1", 30), ("K2", 20)):
            lines += [f"model {name}", "worlds " + " ".join(worlds)]
            lines += [f"le {a} {b}" for a, b in zip(worlds, worlds[1:])]
            lines += [f"val {w} : p" for w in worlds[start:]] + ["end"]
        path = tmp_path / "chains.km"
        path.write_text("\n".join(lines + ["succ K1 K2", "succ K2 K1", ""]))
        assert main(argv + ["--model", str(path)]) == 0
        assert capsys.readouterr().out
        assert len(built) == 2
        assert all("le" not in frame.__dict__ for frame in built)


class TestExitCodes:
    def test_relation_endpoint_names_the_least_pair(self, tmp_path, capsys):
        path = tmp_path / "layered.km"
        path.write_text("nmodel H level 1\nmodel K\nworlds a\nval a :\nend\n"
                        "rel succ K X\nrel succ Y K\nrel succ K Z\nend\n")
        assert main(["check", "--model", str(path), "--formula", "p"]) == 1
        assert capsys.readouterr().err == ("error: line 1: nmodel 'H': relation 'succ' "
                                           "endpoint 'K' or 'X' is not an object\n")

    def test_usage_error(self, capsys):
        assert main(["countermodel", "--formula", "p", "--logic", "nope"]) == 1

    def test_missing_required(self, capsys):
        assert main(["parse"]) == 1

    def test_internal_error_is_exit_2(self, monkeypatch, capsys):
        def boom(_):
            raise RuntimeError("wires crossed")
        monkeypatch.setattr(cli, "_cmd_parse", boom)
        assert main(["parse", "--formula", "p"]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_stray_value_error_is_exit_2(self, monkeypatch, capsys):
        def boom(_):
            raise ValueError("wires crossed")
        monkeypatch.setattr(cli, "_cmd_parse", boom)
        assert main(["parse", "--formula", "p"]) == 2
        assert "internal error: ValueError" in capsys.readouterr().err

    def test_search_bounds_are_usage_errors(self, capsys):
        assert main(["countermodel", "--formula", "p", "--logic", "prop",
                     "--max-worlds", "5"]) == 1
        assert "capped" in capsys.readouterr().err

    def test_non_utf8_model_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.km"
        path.write_bytes("model K\nworlds w\nend\n# caf\xe9\n".encode("latin-1"))
        assert main(["check", "--model", str(path), "--formula", "p"]) == 1
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("text, extra, error", [
        (THREE_WORLD, ["--formula", "(p & -> q"], ParseError),
        (THREE_WORLD, ["--formula", "p", "--at", "nowhere"], UsageError),
        ("model K\nworlds w1 w2\nle w1 zz\nend\n", ["--formula", "p"],
         ModelFileError),
        ("model K\nworlds w1 w2\nle w1 w2\nval w1 : p\nend\n",
         ["--formula", "p"], HeredityError),
    ], ids=["syntax", "unknown_at", "undeclared", "heredity"])
    def test_input_errors_are_exit_1(self, tmp_path, monkeypatch, capsys,
                                     text, extra, error):
        path = tmp_path / "m.km"
        path.write_text(text)
        seen = []
        check = cli._cmd_check

        def spy(args):
            try:
                return check(args)
            except Exception as exc:
                seen.append(type(exc))
                raise
        monkeypatch.setattr(cli, "_cmd_check", spy)
        assert main(["check", "--model", str(path)] + extra) == 1
        assert seen == [error]
        assert capsys.readouterr().err.startswith("error:")
