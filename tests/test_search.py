import itertools

import pytest

from gen import formula_pool, naive_countermodel, naive_model_texts
from imk import (SearchBounds, as_homogeneous, classify, enumerate_models,
                 find_countermodel, forces, forces_homogeneous, forces_ik, parse)
from imk.general import HomogeneousModel, PartialModel
from imk.kripke import PropModel, UnsupportedConnectiveError
from imk.modelfile import loads
from imk.search import serialize_model


class TestBounds:
    def test_rejects_unknown_logic(self):
        with pytest.raises(ValueError):
            SearchBounds("fuzzy")

    def test_rejects_zero_bounds(self):
        with pytest.raises(ValueError):
            SearchBounds("prop", max_worlds=0)

    def test_rejects_unenumerable_world_counts(self):
        with pytest.raises(ValueError):
            SearchBounds("prop", max_worlds=5)


class TestEnumerate:
    def test_single_world_single_atom(self):
        models = list(enumerate_models(SearchBounds("prop", 1, 1)))
        assert len(models) == 2  # the one atom present or absent

    def test_prop_models_are_validated(self):
        for m in enumerate_models(SearchBounds("prop", 2, 1)):
            assert isinstance(m, PropModel)  # construction enforces heredity

    def test_mk_filter_contract(self):
        count = 0
        for m in enumerate_models(SearchBounds("mk", 2, 1)):
            assert classify(m) in ("strong", "excessive")
            count += 1
        assert count > 0

    def test_ik_filter_contract(self):
        for m in enumerate_models(SearchBounds("ik", 2, 1)):
            assert classify(m) != "none"

    def test_no_duplicate_canonical_serializations(self):
        for logic in ("prop", "ik", "homogeneous"):
            b = SearchBounds(logic, 2, 1, max_submodels=2)
            texts = [serialize_model(m) for m in enumerate_models(b)]
            assert len(texts) == len(set(texts))

    def test_deterministic_across_runs(self):
        b = SearchBounds("ik", 2, 1)
        first = [serialize_model(m) for m in enumerate_models(b)]
        second = [serialize_model(m) for m in enumerate_models(b)]
        assert first == second

    def test_family_counts_by_hand(self):
        # one world, one atom: 2 valuations per member, succ free over members
        b = SearchBounds("homogeneous", 1, 1, max_submodels=2)
        models = list(enumerate_models(b))
        assert len(models) == 2 * 2 + 4 * 16
        assert all(isinstance(m, HomogeneousModel) for m in models)

    def test_partial_members_are_partial_copies(self):
        b = SearchBounds("partial", 2, 1, max_submodels=2)
        for m in enumerate_models(b):
            assert isinstance(m, PartialModel)
            assert m.reference == "K1"

    def test_classicalK_is_singleton_frame(self):
        b = SearchBounds("classicalK", 3, 1, max_submodels=2)
        for m in enumerate_models(b):
            assert len(m.frame.worlds) == 1

    def test_rooted_flag_filters(self):
        full = list(enumerate_models(SearchBounds("homogeneous", 2, 1)))
        rooted = list(enumerate_models(SearchBounds("homogeneous", 2, 1,
                                                    rooted=True)))
        assert 0 < len(rooted) < len(full)
        for m in rooted:
            assert any(m.frame.above(w) == m.frame.worlds
                       for w in m.frame.worlds)


EXPECTED_EM_MODEL = """\
model K
worlds w1 w2
le w1 w2
val w1 :
val w2 : p
end
"""


class TestFindCountermodel:
    def test_excluded_middle(self):
        out = find_countermodel(parse("p | ~p"), [], SearchBounds("prop", 2, 1))
        assert out.found
        assert out.locus == (None, "w1")
        assert out.model == EXPECTED_EM_MODEL

    def test_found_model_refails_after_reparse(self):
        f = parse("p | ~p")
        out = find_countermodel(f, [], SearchBounds("prop", 2, 1))
        m = loads(out.model).as_prop_model()
        assert not forces(m, out.locus[1], f)

    def test_ik_separation_formula(self):
        f = parse("(~[]_|_) -> <>T")
        out = find_countermodel(f, [], SearchBounds("ik", 3, 1))
        assert out.found
        m = loads(out.model).as_birelational()
        assert not forces_ik(m, out.locus[1], f)

    def test_mk_separation_formula_not_found_small(self):
        f = parse("(~[]_|_) -> <>T")
        out = find_countermodel(f, [], SearchBounds("mk", 2, 1))
        assert not out.found and out.model is None and out.locus is None

    def test_gamma_constrains_the_witness(self):
        out = find_countermodel(parse("q"), [parse("p")],
                                SearchBounds("prop", 2, 2))
        assert out.found
        m = loads(out.model).as_prop_model()
        k, w = out.locus
        assert forces(m, w, parse("p")) and not forces(m, w, parse("q"))

    def test_locus_is_the_lowest_failing_point(self):
        # no one-member family has a cell that sees both p and ~p, so the
        # first countermodel has every cell seeing both: the goal fails at both
        f = parse("~(<>p & <>~p & []<>p & []<>~p)")
        out = find_countermodel(f, [], SearchBounds("classicalK", 1, 1, 2))
        h = as_homogeneous(loads(out.model).as_general())
        assert [forces_homogeneous(h, k, w, f) for k, w in h.general.cells()] == [False, False]
        assert out.locus == ("K1", "w1")

    def test_reproducible(self):
        f = parse("p | ~p")
        a = find_countermodel(f, [], SearchBounds("prop", 2, 1))
        b = find_countermodel(f, [], SearchBounds("prop", 2, 1))
        assert (a.found, a.model, a.locus, a.models_examined) == \
            (b.found, b.model, b.locus, b.models_examined)

    def test_partial_class_search(self):
        # box without any alternatives is vacuously true, so box-bottom has no
        # countermodel with an empty succ but gains one once succ can be full
        out = find_countermodel(parse("[]_|_"), [],
                                SearchBounds("partial", 1, 1, max_submodels=2))
        assert out.found
        k, w = out.locus
        assert k is not None

    def test_homogeneous_class_search(self):
        out = find_countermodel(parse("[]p1 -> p1"), [],
                                SearchBounds("homogeneous", 1, 1,
                                             max_submodels=2))
        assert out.found


class TestAgainstNaiveSearch:
    """find_countermodel against naive_countermodel: the point-by-point loop
    over from-scratch model texts, with the clause-by-clause oracles."""

    @pytest.mark.parametrize("logic, bounds", [
        ("prop", (3, 1)), ("prop", (2, 2)), ("ik", (2, 2)), ("mk", (2, 2)),
        ("partial", (2, 1, 2)), ("homogeneous", (2, 1, 2)), ("classicalK", (1, 2, 2))],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_same_outcome(self, logic, bounds):
        pool = formula_pool(24, 3, ["p1", "p2"], seed=len(logic) + sum(bounds),
                            modal=logic != "prop")
        found = 0
        for i, f in enumerate(pool):
            gamma = [pool[(i + 5 * j + 1) % len(pool)] for j in range(i % 3)]
            out = find_countermodel(f, gamma, SearchBounds(logic, *bounds))
            want = naive_countermodel(f, gamma, logic, *bounds)
            assert (out.found, out.model, out.locus, out.models_examined) == want, (f, gamma)
            found += out.found
        assert 0 < found < len(pool)


class TestLazyPremises:
    """A premise is read only while some point forces the ones before it,
    and the goal only if some point forces them all: on propositional
    models a box there raises only once it is read."""

    def test_unsatisfiable_premise_hides_the_goal(self):
        out = find_countermodel(parse("[]p"), [parse("_|_")], SearchBounds("prop", 2, 1))
        assert not out.found and out.models_examined == 14

    def test_goal_is_read_without_premises(self):
        with pytest.raises(UnsupportedConnectiveError):
            find_countermodel(parse("[]p"), [], SearchBounds("prop", 2, 1))

    def test_premises_in_order(self):
        b = SearchBounds("prop", 2, 1)
        out = find_countermodel(parse("q"), [parse("_|_"), parse("[]q")], b)
        assert not out.found
        with pytest.raises(UnsupportedConnectiveError):
            find_countermodel(parse("q"), [parse("p"), parse("[]q")], b)


class TestAgainstNaiveEnumeration:
    """The whole text stream of enumerate_models + serialize_model, in order,
    against enumeration and serialization written from scratch."""

    @pytest.mark.parametrize("logic, worlds, atoms, members", [
        ("prop", 3, 1, 1), ("prop", 2, 2, 1), ("ik", 3, 1, 1), ("mk", 3, 1, 1),
        ("partial", 2, 1, 3), ("partial", 3, 1, 2), ("homogeneous", 3, 1, 2),
        ("classicalK", 1, 2, 2), ("prop", 4, 1, 1), ("partial", 4, 1, 1)])
    def test_same_stream(self, logic, worlds, atoms, members):
        b = SearchBounds(logic, worlds, atoms, members)
        alphabet = [f"p{i}" for i in range(1, atoms + 1)]
        ours = (serialize_model(m) for m in enumerate_models(b))
        naive = naive_model_texts(logic, worlds, alphabet, members)
        count = 0
        for count, (text, want) in enumerate(itertools.zip_longest(ours, naive), 1):
            assert text == want, f"model {count} differs"
        assert count > 0


class TestCompileOnce:
    def test_search_walks_the_goal_once(self, walks):
        f = parse("(~[]_|_) -> <>T")
        out = find_countermodel(f, [], SearchBounds("mk", 3, 1))
        assert out.models_examined == 4778
        assert len(walks) == 1 and walks[0] is f

    def test_premises_are_walked_once_each(self, walks):
        f, g = parse("<>p -> []p"), parse("p | ~p")
        out = find_countermodel(f, [g], SearchBounds("mk", 3, 1))
        assert out.found and out.models_examined > 1
        assert len(walks) == 2 and {id(x) for x in walks} == {id(f), id(g)}
