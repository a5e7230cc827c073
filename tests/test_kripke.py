import random
from dataclasses import FrozenInstanceError

import pytest

from imk import (BOTTOM, build_frame, build_prop_model, entails, forces,
                 general_model, is_partial_copy, model_valid, parse,
                 upward_restrict, validate_homogeneous, HeredityError,
                 HigherOrderModel, ModelError, UnknownWorldError, modular_mk_evaluate)
from imk.birelational import BirelationalModel
from imk.kripke import (Frame, PropModel, UnsupportedConnectiveError, sub_frame,
                        world_key)
from imk.search import SearchBounds, enumerate_models

from gen import (formula_pool, naive_closure, naive_forces, naive_frame_error,
                 pair_partial_copy, pair_sub_frame, random_generators, random_order)


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
    """build_frame closes its generator pairs and Frame(worlds, le) the pairs
    it checks, each in one pass when made, and both spell le out only when
    read.  Both must be one frame."""

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
            frame = Frame(frozenset(worlds), naive_closure(worlds, gens))
            assert rows.compiled == frame.compiled
            for w in worlds:
                assert rows.above(w) == frame.above(w)
            assert "le" not in rows.__dict__  # none of the above spelled it
            assert rows == frame and frame == rows
            assert hash(rows) == hash(frame)
            assert rows.le == frame.le == naive_closure(worlds, gens)

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


class TestOneNumbering:
    """Every frame numbers its worlds in world_key order, however it was
    made: bit i of each row is sorted_worlds()[i]."""

    @pytest.fixture
    def frames(self):
        rng = random.Random(31)
        out = []
        for _ in range(120):
            # w1..w12 sort as strings (w10 before w2); tuples sort field by field
            n = rng.randint(1, 12)
            worlds = rng.choice([[f"w{i}" for i in range(1, n + 1)],
                                 [(f"w{i % 3}", f"K{i}") for i in range(n)]])
            gens = random_generators(rng, worlds)
            closed = naive_closure(worlds, gens)
            out += [(worlds, closed, build_frame(worlds, gens)),
                    (worlds, closed, Frame(frozenset(worlds), closed))]
        return out

    def test_bit_i_is_the_ith_sorted_world(self, frames):
        for worlds, closed, frame in frames:
            index, up = frame.compiled
            names = sorted(worlds, key=world_key)
            assert list(index) == names == frame.sorted_worlds()
            assert list(index.values()) == list(range(len(names)))
            assert {(names[i], names[j]) for i, row in enumerate(up)
                    for j in range(len(names)) if row >> j & 1} == closed

    def test_frames_over_one_world_set_line_up(self, frames):
        """Equal frames have equal rows, and compare and hash on them."""
        for (_, closed, rows), (_, _, pairs) in zip(frames[::2], frames[1::2]):
            assert rows.compiled == pairs.compiled and rows == pairs
            assert hash(rows) == hash(pairs)
            assert rows.le == pairs.le == closed

    def test_partial_copy_matches_the_pair_definition(self):
        """Candidates: subsets with the restricted order (upward closed or
        not), subsets with another order, and sets with a world the
        reference lacks."""
        rng = random.Random(37)
        seen = {True: 0, False: 0}
        for _ in range(400):
            worlds = [f"w{i}" for i in range(1, rng.randint(1, 6) + 1)]
            ref = Frame(frozenset(worlds), naive_closure(worlds, random_generators(rng, worlds)))
            kept = {w for w in worlds if rng.random() < 0.6} or {worlds[0]}
            if rng.random() < 0.2:
                kept.add("x9")
            kept = sorted(kept)
            for cand in (random_order(rng, kept), pair_sub_frame(ref, kept)
                         if set(kept) <= ref.worlds else random_order(rng, kept)):
                verdict = is_partial_copy(cand, ref)
                assert verdict == pair_partial_copy(cand, ref)
                assert is_partial_copy(cand, ref) == verdict  # the kept verdict
                seen[verdict] += 1
        assert min(seen.values()) > 50

    def test_sub_frame_matches_the_pair_restriction(self):
        rng = random.Random(41)
        for _ in range(300):
            worlds = [f"w{i}" for i in range(1, rng.randint(1, 7) + 1)]
            frame = build_frame(worlds, random_generators(rng, worlds))
            kept = frozenset(w for w in worlds if rng.random() < 0.6) or frozenset(worlds)
            sub = sub_frame(frame, kept)
            assert "le" not in frame.__dict__  # the rows were enough
            want = pair_sub_frame(frame, kept)
            assert sub == want and sub.compiled == want.compiled and sub.le == want.le

    def test_sub_frame_reports_what_is_wrong(self, chain):
        with pytest.raises(ModelError, match="at least one world"):
            sub_frame(chain, frozenset())
        with pytest.raises(ModelError, match="not reflexive at 'b'"):
            sub_frame(chain, frozenset({"m", "b", "c"}))


class TestLeastOffender:
    """Errors name the least offending world or pair, whatever the set
    order, so that the report does not depend on the hash seed."""

    @pytest.mark.parametrize("build, message", [
        (lambda: Frame(frozenset("abcd"), frozenset({("a", "a")})),
         "le is not reflexive at 'b'"),
        (lambda: Frame(frozenset("a"), frozenset({("a", "z"), ("y", "a"), ("a", "x")})),
         "le endpoint 'a' or 'x' is not a world"),
        (lambda: Frame(frozenset("abcd"), frozenset(
            {(w, w) for w in "abcd"} | {("a", "b"), ("b", "c"), ("b", "d"), ("c", "d")})),
         "le is not transitive: 'a' 'b' 'c'"),
        (lambda: Frame(frozenset("abc"), frozenset(
            {("a", "a"), ("b", "b"), ("a", "b"), ("b", "c")})),
         "le is not reflexive at 'c'"),
        (lambda: PropModel(build_frame("a", ()), frozenset({("z", "p"), ("x", "p"), ("y", "q")})),
         "unknown world 'x'"),
        (lambda: BirelationalModel(build_frame("a", ()),
                                   frozenset({("a", "z"), ("a", "x"), ("a", "y")}), frozenset()),
         "r endpoint 'a' or 'x' is not a world"),
        (lambda: general_model({"K": build_prop_model(build_frame("a", ()), {})},
                               {("K", "X"), ("Y", "K"), ("K", "Z")}),
         "succ endpoint 'K' or 'X' is not a declared submodel"),
        (lambda: HigherOrderModel(0, (("w", None),), (("le", frozenset({("w", "w")})),),
                                  frozenset({("w", "p"), ("ghost", "q")})),
         "unknown world 'ghost'"),
        (lambda: build_frame({"a"}, {("a", "x"), ("a", "y"), ("z", "a"), ("a", "w")}),
         "le generator ('a', 'w') has an endpoint outside the world set"),
        (lambda: build_frame({"a"}, (p for p in [("a", "x"), ("z", "a"), ("a", "w")])),
         "le generator ('a', 'w') has an endpoint outside the world set"),
        (lambda: BirelationalModel(build_frame("a", ()), frozenset({("a", "z"), ("y", "a")}),
                                   frozenset({("ghost", "p")})),
         "r endpoint 'a' or 'z' is not a world"),
        (lambda: HigherOrderModel(0, (("w", None),), (("le", frozenset(
            {("w", "w"), ("w", "z"), ("y", "w"), ("w", "x")})),)),
         "relation 'le' endpoint 'w' or 'x' is not an object"),
        (lambda: modular_mk_evaluate(
            {"K": build_prop_model(build_frame("a", ()), {})},
            {("K", "X"), ("Y", "K"), ("K", "W"), ("Z", "Z")}, "K", "a", parse("p")),
         "succ endpoint 'K' or 'W' is not a family member"),
        (lambda: HigherOrderModel(0, (("w", None),), (("le", frozenset({("w", "w")})),),
                                  frozenset({("w", "p"), ("z", "q"), ("y", "p"), ("x", "r")})),
         "unknown world 'x'"),
    ], ids=["reflexive", "le_endpoint", "transitive", "reflexive_first", "val_world",
            "r_endpoint", "succ_endpoint", "level0_val_world", "generators_set",
            "generators_iterator", "r_before_val", "relation_endpoint",
            "modular_succ_endpoint", "level0_val_worlds"])
    def test_exact_message(self, build, message):
        with pytest.raises(ModelError) as info:
            build()
        assert str(info.value) == message

    def test_frame_errors_match_the_pair_walk(self):
        """Frame(worlds, le) closes the pairs and reports transitivity at the
        least row that grew; the pair walk reports it at the least world
        with a direct failure.  Pair sets over up to 5 worlds, dense enough
        that about half close, some with an endpoint outside the worlds."""
        rng = random.Random(59)
        seen: dict = {}
        for _ in range(2000):
            worlds = frozenset(rng.sample("abcde", rng.randint(1, 5)))
            ends = sorted(worlds) + ["z"] * (rng.random() < 0.1)
            le = {(w, w) for w in worlds if rng.random() < 0.97}
            le |= {(a, b) for a in ends for b in ends if rng.random() < 0.3}
            want = naive_frame_error(worlds, le)
            try:
                Frame(worlds, frozenset(le))
                got = None
            except ModelError as exc:
                got = str(exc)
            assert got == want, (worlds, le)
            kind = want and next(k for k in ("endpoint", "reflexive", "transitive") if k in want)
            seen[kind] = seen.get(kind, 0) + 1
        assert min(seen.values()) > 100 and len(seen) == 4

    def test_messages_under_other_hash_seeds(self):
        import os
        import subprocess
        import sys
        from pathlib import Path
        import imk
        script = ("from imk.kripke import Frame, build_frame\n"
                  "for le in [{('a', 'a')}, {('a', 'z'), ('y', 'a'), ('a', 'x')}]:\n"
                  "    try:\n"
                  "        Frame(frozenset('abcdefgh'), frozenset(le))\n"
                  "    except ValueError as exc:\n"
                  "        print(exc)\n"
                  "try:\n"
                  "    build_frame({'a'}, {('a', 'x'), ('a', 'y'), ('z', 'a'), ('a', 'w')})\n"
                  "except ValueError as exc:\n"
                  "    print(exc)\n")
        src = str(Path(imk.__file__).parents[1])
        outs = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)).stdout
                for seed in ("0", "1", "2", "3")}
        assert outs == {"le is not reflexive at 'b'\nle endpoint 'a' or 'x' is not a world\n"
                        "le generator ('a', 'w') has an endpoint outside the world set\n"}


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
