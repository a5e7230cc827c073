import random
from dataclasses import FrozenInstanceError

import pytest

from imk import (BOTTOM, build_frame, build_prop_model, entails, forces,
                 general_model, is_partial_copy, model_valid, parse,
                 upward_restrict, validate_homogeneous, HeredityError,
                 ModelError, UnknownWorldError)
from imk.kripke import Frame, PropModel, UnsupportedConnectiveError, closure
from imk.search import SearchBounds, enumerate_models

from gen import formula_pool, naive_closure, naive_forces, random_generators


@pytest.fixture
def chain():
    return build_frame({"m", "a", "e"}, {("m", "a"), ("a", "e")})


@pytest.fixture
def two_chain_model():
    frame = build_frame({"w", "w2"}, {("w", "w2")})
    return build_prop_model(frame, {"w2": {"p"}})


class TestBuildFrame:
    def test_singleton_reflexive(self):
        fr = build_frame({"w"}, set())
        assert fr.le == frozenset({("w", "w")})

    def test_three_chain_closure(self, chain):
        assert len(chain.le) == 6
        assert ("m", "e") in chain.le

    def test_symmetric_generators_close_to_total(self):
        fr = build_frame({"w", "w2"}, {("w", "w2"), ("w2", "w")})
        assert len(fr.le) == 4

    def test_empty_worlds_rejected(self):
        with pytest.raises(ModelError):
            build_frame(set(), set())

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(ModelError):
            build_frame({"w"}, {("w", "ghost")})

    def test_stored_relation_must_be_closed(self):
        with pytest.raises(ModelError):
            Frame(frozenset({"a", "b"}), frozenset({("a", "b")}))

    def test_long_chain(self):
        n = 400
        worlds = [f"w{i}" for i in range(n)]
        fr = build_frame(worlds, zip(worlds, worlds[1:]))
        assert len(fr.le) == n * (n + 1) // 2
        m = build_prop_model(fr, {w: {"p"} for w in worlds[n // 2:]})
        assert forces(m, "w0", parse("~~p"))
        assert not forces(m, "w0", parse("p | ~p"))
        assert forces(m, worlds[n // 2], parse("p | ~p"))
        with pytest.raises(HeredityError):
            build_prop_model(fr, {"w0": {"p"}})


class TestRowBuiltFrames:
    """build_frame keeps the closed rows and spells le out only when read;
    Frame(worlds, le) starts from the pairs.  Both must be one frame."""

    @pytest.fixture
    def generator_sets(self):
        rng = random.Random(29)
        out = []
        for _ in range(150):
            worlds = [f"w{i}" for i in range(1, rng.randint(1, 6) + 1)]
            out.append((worlds, random_generators(rng, worlds)))
        return out

    def test_equal_to_the_pair_built_frame(self, generator_sets):
        for worlds, gens in generator_sets:
            rows = build_frame(worlds, gens)
            frame = Frame(frozenset(worlds), closure(worlds, gens))
            assert rows.compiled == frame.compiled
            assert rows.down == frame.down
            for w in worlds:
                assert rows.above(w) == frame.above(w)
            assert "le" not in rows.__dict__  # none of the above spelled it
            assert rows == frame and frame == rows
            assert hash(rows) == hash(frame)
            assert rows.le == frame.le == naive_closure(worlds, gens)

    def test_down_is_the_converse_of_le(self, generator_sets):
        for worlds, gens in generator_sets:
            frame = build_frame(worlds, gens)
            index, _ = frame.compiled
            assert {(a, b) for a in worlds for b in worlds
                    if frame.down[index[b]] >> index[a] & 1} == frame.le

    def test_homogeneous_family_mixes_both_kinds(self, chain):
        copy = Frame(chain.worlds, frozenset(chain.le))
        g = general_model({"K1": build_prop_model(chain, {}),
                           "K2": build_prop_model(copy, {"e": {"p"}})}, {("K1", "K2")})
        assert validate_homogeneous(g)

    def test_frames_are_immutable(self, chain):
        with pytest.raises(FrozenInstanceError):
            chain.worlds = frozenset()
        with pytest.raises(FrozenInstanceError):
            del chain.le


class TestBuildPropModel:
    def test_growing_valuation_ok(self):
        fr = build_frame({"w", "w2"}, {("w", "w2")})
        build_prop_model(fr, {"w": set(), "w2": {"p"}})

    def test_heredity_violation_reports_witness(self):
        fr = build_frame({"w", "w2"}, {("w", "w2")})
        with pytest.raises(HeredityError) as err:
            build_prop_model(fr, {"w": {"p"}, "w2": set()})
        assert err.value.witness == ("w", "w2", "p")

    def test_heredity_witness_is_the_least_by_name(self):
        # every atom of a fails at every later world: the report names the
        # least of each, whatever the set order
        fr = build_frame("abcd", {("a", "b"), ("a", "c"), ("a", "d")})
        with pytest.raises(HeredityError) as err:
            build_prop_model(fr, {"a": {"q", "p"}})
        assert err.value.witness == ("a", "b", "p")

    def test_timeline_member(self, chain):
        build_prop_model(chain, {"m": {"p"}, "a": {"p"}, "e": {"p", "q"}})

    def test_missing_worlds_default_empty(self, chain):
        m = build_prop_model(chain, {})
        assert m.atoms("m") == frozenset()


class TestForces:
    def test_atom_in_singleton(self):
        m = build_prop_model(build_frame({"w"}, set()), {"w": {"p"}})
        assert forces(m, "w", parse("p"))

    def test_excluded_middle_fails_below(self, two_chain_model):
        assert not forces(two_chain_model, "w", parse("p | ~p"))

    def test_excluded_middle_holds_above(self, two_chain_model):
        assert forces(two_chain_model, "w2", parse("p | ~p"))

    def test_unknown_world(self, two_chain_model):
        with pytest.raises(UnknownWorldError):
            forces(two_chain_model, "ghost", parse("p"))

    def test_no_modal_clause(self, two_chain_model):
        with pytest.raises(UnsupportedConnectiveError):
            forces(two_chain_model, "w", parse("[]p"))

    def test_agrees_with_direct_clause_oracle(self):
        pool = formula_pool(25, 3, ["p1"], seed=3, modal=False)
        for m in enumerate_models(SearchBounds("prop", 3, 1)):
            for f in pool:
                for w in m.frame.sorted_worlds():
                    assert forces(m, w, f) == naive_forces(m, w, f)


class TestEntails:
    def test_semantic_modus_ponens(self, two_chain_model):
        gamma = [parse("p -> q"), parse("p")]
        for w in two_chain_model.frame.worlds:
            assert entails(two_chain_model, w, gamma, parse("q"))

    def test_empty_gamma_reduces_to_forces(self):
        m = build_prop_model(build_frame({"w"}, set()), {"w": {"p"}})
        assert entails(m, "w", [], parse("p"))

    def test_failing_premise_entailment(self, two_chain_model):
        assert not entails(two_chain_model, "w", [parse("p")], parse("q"))

    def test_empty_gamma_agrees_with_forces_everywhere(self, two_chain_model):
        for f in formula_pool(15, 2, ["p"], seed=5, modal=False):
            for w in two_chain_model.frame.worlds:
                assert entails(two_chain_model, w, [], f) == \
                    forces(two_chain_model, w, f)


class TestModelValid:
    def test_identity_implication(self, two_chain_model):
        assert model_valid(two_chain_model, [], parse("p -> p"))

    def test_excluded_middle_fails(self, two_chain_model):
        assert not model_valid(two_chain_model, [], parse("p | ~p"))

    def test_top(self, two_chain_model):
        assert model_valid(two_chain_model, [], parse("_|_ -> _|_"))


class TestPartialCopy:
    def test_frame_copies_itself(self, chain):
        assert is_partial_copy(chain, chain)

    def test_dropping_the_past_is_a_copy(self, chain):
        short = build_frame({"a", "e"}, {("a", "e")})
        assert is_partial_copy(short, chain)

    def test_dropping_the_future_is_not(self, chain):
        assert not is_partial_copy(build_frame({"m"}, set()), chain)

    def test_extra_worlds_are_not_a_copy(self, chain):
        other = build_frame({"m", "x"}, set())
        assert not is_partial_copy(other, chain)

    def test_order_must_be_the_restriction(self):
        two = build_frame({"a", "e"}, {("a", "e")})
        discrete = build_frame({"a", "e"}, set())
        assert not is_partial_copy(discrete, two)

    def test_each_reference_gets_its_own_verdict(self, chain):
        # the verdict is kept on the candidate, once per reference frame
        short = build_frame({"a", "e"}, {("a", "e")})
        reversed_chain = build_frame({"m", "a", "e"}, {("e", "a"), ("a", "m")})
        for _ in range(2):
            assert is_partial_copy(short, chain)
            assert not is_partial_copy(short, reversed_chain)
            assert is_partial_copy(short, short)


class TestUpwardRestrict:
    def test_chain_at_middle(self, chain):
        fr = upward_restrict(chain, "a")
        assert fr.worlds == frozenset({"a", "e"})
        assert ("a", "e") in fr.le

    def test_at_maximal_world(self, chain):
        assert upward_restrict(chain, "e").worlds == frozenset({"e"})

    def test_at_root_is_identity(self, chain):
        assert upward_restrict(chain, "m") == chain

    def test_unknown_world(self, chain):
        with pytest.raises(UnknownWorldError):
            upward_restrict(chain, "zz")

    def test_always_a_partial_copy_of_source(self):
        for m in enumerate_models(SearchBounds("prop", 3, 1)):
            for w in m.frame.sorted_worlds():
                assert is_partial_copy(upward_restrict(m.frame, w), m.frame)


class TestInvariants:
    def test_propositional_monotonicity_small_sweep(self):
        pool = formula_pool(20, 3, ["p1"], seed=7, modal=False)
        for m in enumerate_models(SearchBounds("prop", 3, 1)):
            for f in pool:
                for a, b in m.frame.le:
                    if forces(m, a, f):
                        assert forces(m, b, f)

    def test_bottom_false_everywhere(self):
        for m in enumerate_models(SearchBounds("prop", 3, 1)):
            for w in m.frame.worlds:
                assert not forces(m, w, BOTTOM)
