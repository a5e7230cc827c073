import random
from math import comb

import pytest

from imk import (BirelationalModel, build_frame, check_condition, classify,
                 entails_ik, entails_mk, forces_ik, forces_mk, parse,
                 valid_ik, valid_mk)
from imk.birelational import CONDITIONS, NotBirelationalError, NotStrongError, class_of
from imk.formulas import modal_free
from imk.search import SearchBounds, enumerate_models

from gen import (formula_pool, naive_class, naive_condition, naive_ik_forces,
                 naive_mk_forces, random_birelational)

SEP1 = parse("(~[]_|_) -> <>T")
SEP2 = parse("([](p|~p) & ~[]p) -> <>~p")


@pytest.fixture
def three_world_model():
    # w <= w2 and w2 R w3, nothing else beyond the closure of <=
    frame = build_frame({"w", "w2", "w3"}, {("w", "w2")})
    return BirelationalModel(frame, frozenset({("w2", "w3")}), frozenset())


@pytest.fixture
def empty_r_model():
    frame = build_frame({"w", "w2"}, {("w", "w2")})
    return BirelationalModel(frame, frozenset(), frozenset())


class TestCheckCondition:
    def test_f1_f2_hold_uniquely(self, three_world_model):
        for c in ("F1", "F2"):
            rep = check_condition(three_world_model, c)
            assert rep.holds and rep.unique

    def test_f3_fails_with_witnessing_triple(self, three_world_model):
        rep = check_condition(three_world_model, "F3")
        assert not rep.holds
        assert rep.violations == (("w", "w2", "w3"),)

    def test_empty_r_vacuous(self, empty_r_model):
        for c in ("F1", "F2", "F3", "F4"):
            rep = check_condition(empty_r_model, c)
            assert rep.holds and rep.unique and not rep.violations

    def test_unknown_condition(self, three_world_model):
        with pytest.raises(ValueError):
            check_condition(three_world_model, "F5")

    def test_dangling_r_endpoint_rejected(self):
        frame = build_frame({"w"}, set())
        with pytest.raises(ValueError):
            BirelationalModel(frame, frozenset({("w", "ghost")}), frozenset())

    def test_agrees_with_triple_sweep_oracle(self):
        import itertools
        frames = [build_frame({"w1", "w2"}, gens) for gens in
                  (set(), {("w1", "w2")}, {("w1", "w2"), ("w2", "w1")})]
        frames.append(build_frame({"w1", "w2", "w3"}, {("w1", "w2")}))
        frames.append(build_frame({"w1", "w2", "w3"},
                                  {("w1", "w2"), ("w2", "w3")}))
        for frame in frames:
            worlds = sorted(frame.worlds)
            pairs = [(a, b) for a in worlds for b in worlds]
            rng_bits = itertools.islice(
                itertools.product((0, 1), repeat=len(pairs)), 0, None, 3)
            for bits in rng_bits:
                r = frozenset(p for p, keep in zip(pairs, bits) if keep)
                m = BirelationalModel(frame, r, frozenset())
                for c in ("F1", "F2", "F3", "F4"):
                    assert_matches_sweep(m, c)

    @pytest.mark.parametrize("density", [0.15, 0.5, 0.85], ids=["sparse", "half", "dense"])
    def test_random_models_field_by_field(self, density):
        rng = random.Random(31 + int(100 * density))
        for _ in range(400):
            m = random_birelational(rng, 6, density)
            for c in ("F1", "F2", "F3", "F4"):
                assert_matches_sweep(m, c)
            for require_unique in (True, False):
                assert classify(m, require_unique) == naive_class(m, require_unique)

    @pytest.mark.parametrize("density", [0.15, 0.5, 0.85], ids=["sparse", "half", "dense"])
    def test_class_of_the_reports_is_classify(self, density):
        rng = random.Random(37 + int(100 * density))
        seen = set()
        for _ in range(400):
            m = random_birelational(rng, 6, density)
            cls = class_of([check_condition(m, c) for c in CONDITIONS])
            assert cls == classify(m)
            seen.add(cls)
        assert len(seen) > 1


def assert_matches_sweep(m, c):
    """check_condition against the triple sweep: both flags, both triple sets,
    each triple once and in repr order."""
    rep = check_condition(m, c)
    holds, unique, violations, nonunique = naive_condition(m, c)
    assert (rep.condition, rep.holds, rep.unique) == (c, holds, unique)
    assert rep.violations == tuple(sorted(violations, key=repr))
    assert rep.nonunique == tuple(sorted(nonunique, key=repr))


class TestClassify:
    def test_three_world_model_is_birelational_only(self, three_world_model):
        assert classify(three_world_model) == "birelational"

    def test_empty_r_is_excessive(self, empty_r_model):
        assert classify(empty_r_model) == "excessive"

    def test_agrees_with_exhaustive_reports(self):
        rank = {"none": 0, "birelational": 1, "strong": 2, "excessive": 3}
        count = 0
        for frame in [build_frame({"w1"}, set()),
                      build_frame({"w1", "w2"}, {("w1", "w2")}),
                      build_frame({"w1", "w2"}, set())]:
            worlds = sorted(frame.worlds)
            import itertools
            pairs = [(a, b) for a in worlds for b in worlds]
            for bits in itertools.product((0, 1), repeat=len(pairs)):
                r = frozenset(p for p, keep in zip(pairs, bits) if keep)
                m = BirelationalModel(frame, r, frozenset())
                reps = {c: check_condition(m, c) for c in ("F1", "F2", "F3", "F4")}
                if not (reps["F1"].unique and reps["F2"].unique):
                    expected = "none"
                elif not reps["F3"].unique:
                    expected = "birelational"
                elif not reps["F4"].unique:
                    expected = "strong"
                else:
                    expected = "excessive"
                assert classify(m) == expected
                count += 1
        assert count == 2 + 16 + 16


def chain(n: int, r_is_le: bool) -> BirelationalModel:
    """w0 <= w1 <= ... with r the identity or r = le."""
    worlds = [f"w{i}" for i in range(n)]
    frame = build_frame(worlds, zip(worlds, worlds[1:]))
    r = frame.le if r_is_le else frozenset((w, w) for w in worlds)
    return BirelationalModel(frame, r, frozenset())


class TestLargeModels:
    def test_long_chain_identity_r(self):
        m = chain(200, r_is_le=False)
        assert classify(m) == classify(m, require_unique=False) == "excessive"
        for c in ("F1", "F2", "F3", "F4"):
            rep = check_condition(m, c)
            assert rep.holds and rep.unique and not rep.violations and not rep.nonunique

    def test_chain_with_r_equal_to_le(self):
        n = 40
        m = chain(n, r_is_le=True)
        assert classify(m) == "none"
        assert classify(m, require_unique=False) == "excessive"
        reps = [check_condition(m, c) for c in ("F1", "F2", "F3", "F4")]
        assert all(rep.holds and not rep.unique and not rep.violations for rep in reps)
        # counted by hand: F1's (w, w2, j) has two witnesses or more when w2
        # and j lie below the top world, and F4 mirrors it; F2 and F3 take
        # every x <= y <= z except the n triples with x = z
        wide, narrow = sum(k * k for k in range(1, n)), comb(n + 2, 3) - n
        assert [len(rep.nonunique) for rep in reps] == [wide, narrow, narrow, wide]
        assert ("w0", "w1", "w2") in reps[1].nonunique
        assert ("w0", "w0", "w0") not in reps[1].nonunique


@pytest.fixture
def nonunique_model():
    # F1 holds but the witness for (w, w2, j) is not unique: j1 and j2 both work
    frame = build_frame({"w", "w2", "j", "j1", "j2"},
                        {("w", "w2"), ("j", "j1"), ("j", "j2")})
    r = frozenset({("w", "j"), ("w2", "j1"), ("w2", "j2")})
    return BirelationalModel(frame, r, frozenset())


class TestWitnessUniqueness:
    def test_strict_by_default(self, nonunique_model):
        assert classify(nonunique_model) == "none"
        with pytest.raises(NotBirelationalError):
            forces_ik(nonunique_model, "w", parse("p"))

    def test_configurable_relaxation(self, nonunique_model):
        assert classify(nonunique_model, require_unique=False) != "none"
        assert forces_ik(nonunique_model, "w", parse("~p"),
                         require_unique=False)

    def test_nonunique_triples_reported(self, nonunique_model):
        rep = check_condition(nonunique_model, "F1")
        assert rep.holds and not rep.unique
        assert ("w", "w2", "j") in rep.nonunique


class TestForcesIK:
    def test_not_box_bottom(self, three_world_model):
        assert forces_ik(three_world_model, "w", parse("~[]_|_"))

    def test_diamond_top_fails(self, three_world_model):
        assert not forces_ik(three_world_model, "w", parse("<>T"))
        assert not forces_ik(three_world_model, "w", SEP1)

    def test_second_separation_formula(self, three_world_model):
        assert not forces_ik(three_world_model, "w", SEP2)

    def test_agrees_with_direct_clause_oracle(self):
        pool = formula_pool(20, 3, ["p1"], seed=21)
        for m in enumerate_models(SearchBounds("ik", 2, 1)):
            for f in pool:
                for w in m.frame.sorted_worlds():
                    assert forces_ik(m, w, f) == naive_ik_forces(m, w, f)


class TestForcesMK:
    def test_reflexive_singleton(self):
        frame = build_frame({"w"}, set())
        m = BirelationalModel(frame, frozenset({("w", "w")}),
                              frozenset({("w", "p")}))
        assert forces_mk(m, "w", parse("[]p"))
        assert forces_mk(m, "w", parse("p"))

    def test_empty_r_box_bottom(self, empty_r_model):
        for w in empty_r_model.frame.worlds:
            assert forces_mk(empty_r_model, w, parse("[]_|_"))

    def test_refuses_non_strong_models(self, three_world_model):
        with pytest.raises(NotStrongError):
            forces_mk(three_world_model, "w", parse("[]p"))

    def test_agrees_with_direct_clause_oracle(self):
        pool = formula_pool(20, 3, ["p1"], seed=22)
        for m in enumerate_models(SearchBounds("mk", 2, 1)):
            for f in pool:
                for w in m.frame.sorted_worlds():
                    assert forces_mk(m, w, f) == naive_mk_forces(m, w, f)


class TestEntailsAndValid:
    def test_identity_valid_everywhere(self, three_world_model, empty_r_model):
        f = parse("p -> p")
        assert valid_ik(three_world_model, [], f)
        assert valid_mk(empty_r_model, [], f)

    def test_separation_formula_invalid_ik(self, three_world_model):
        assert not valid_ik(three_world_model, [], SEP1)

    def test_box_distributes_over_and_on_strong_models(self):
        f = parse("[](p1 & p2) -> ([]p1 & []p2)")
        for m in enumerate_models(SearchBounds("mk", 2, 2)):
            assert valid_mk(m, [], f)

    def test_entails_with_gamma(self, three_world_model):
        gamma = [parse("p -> q"), parse("p")]
        for w in three_world_model.frame.worlds:
            assert entails_ik(three_world_model, w, gamma, parse("q"))
            assert entails_ik(three_world_model, w, [], parse("p")) == \
                forces_ik(three_world_model, w, parse("p"))

    def test_entails_mk_empty_gamma(self, empty_r_model):
        assert entails_mk(empty_r_model, "w", [], parse("[]_|_"))


class TestInvariants:
    def test_ik_monotonicity_small_sweep(self):
        pool = formula_pool(15, 3, ["p1"], seed=23)
        for m in enumerate_models(SearchBounds("ik", 2, 1)):
            for f in pool:
                for a, b in m.frame.le:
                    if forces_ik(m, a, f):
                        assert forces_ik(m, b, f)

    def test_mk_monotonicity_small_sweep(self):
        pool = formula_pool(15, 3, ["p1"], seed=24)
        for m in enumerate_models(SearchBounds("mk", 2, 1)):
            for f in pool:
                for a, b in m.frame.le:
                    if forces_mk(m, a, f):
                        assert forces_mk(m, b, f)

    def test_box_free_agreement_on_strong_models(self):
        pool = [f for f in formula_pool(40, 3, ["p1"], seed=25)
                if modal_free(f)] + [parse("<>p1"), parse("<><>p1"),
                                     parse("p1 -> <>p1")]
        from imk.formulas import Box, subformulas
        pool = [f for f in pool
                if not any(isinstance(g, Box) for g in subformulas(f))]
        for m in enumerate_models(SearchBounds("mk", 2, 1)):
            for f in pool:
                for w in m.frame.worlds:
                    assert forces_ik(m, w, f) == forces_mk(m, w, f)

    def test_classify_deterministic(self, three_world_model):
        assert classify(three_world_model) == classify(three_world_model)
