import random

import pytest

from imk import (FlatWorld, build_frame, build_prop_model, classify,
                 equivalence_report, flatten, forces_ik, forces_mk,
                 forces_partial, forces_homogeneous, general_model, parse,
                 verify_flatten_class)
from imk.general import HomogeneousModel, InvalidModelClassError
from imk.kripke import points
from imk.search import SearchBounds, enumerate_models

from gen import (formula_pool, homogeneous_corpus, pair_flat_frame, partial_corpus,
                 random_same_carrier_family)


def timeline(succ=(("K", "K1"), ("K", "K2"))):
    chain = build_frame({"m", "a", "e"}, {("m", "a"), ("a", "e")})
    short = build_frame({"a", "e"}, {("a", "e")})
    return general_model({
        "K": build_prop_model(chain, {"e": {"p"}}),
        "K1": build_prop_model(chain, {"m": {"p"}, "a": {"p"}, "e": {"p", "q"}}),
        "K2": build_prop_model(short, {"a": {"p"}, "e": {"p", "q"}}),
    }, set(succ))


class TestFlatten:
    def test_single_member_is_a_copy_with_empty_r(self):
        prop = build_prop_model(build_frame({"w", "w2"}, {("w", "w2")}),
                                {"w2": {"p"}})
        flat = flatten(general_model({"K": prop}))
        assert flat.frame.worlds == frozenset(
            {FlatWorld("w", "K"), FlatWorld("w2", "K")})
        assert (FlatWorld("w", "K"), FlatWorld("w2", "K")) in flat.frame.le
        assert flat.r == frozenset()
        assert (FlatWorld("w2", "K"), "p") in flat.val

    def test_timeline_counts(self):
        flat = flatten(timeline())
        assert len(flat.frame.worlds) == 8   # 3 + 3 + 2 member worlds
        assert len(flat.r) == 5              # 3 shared worlds with K1, 2 with K2

    def test_two_member_singleton_frame(self):
        point = build_frame({"w1"}, set())
        g = general_model({
            "K1": build_prop_model(point, {}),
            "K2": build_prop_model(point, {"w1": {"p"}}),
        }, {("K1", "K2")})
        flat = flatten(g)
        assert len(flat.frame.worlds) == 2
        assert flat.r == frozenset({(FlatWorld("w1", "K1"), FlatWorld("w1", "K2"))})
        assert all(a == b for a, b in flat.frame.le)

    def test_world_count_is_sum_of_members(self):
        for m in partial_corpus(20, seed=61):
            flat = flatten(m.general)
            assert len(flat.frame.worlds) == sum(
                len(sm.frame.worlds) for _, sm in m.general.submodels)

    def test_order_stays_within_members_and_r_within_worlds(self):
        for m in partial_corpus(20, seed=62):
            flat = flatten(m.general)
            for a, b in flat.frame.le:
                assert a.submodel == b.submodel
            for a, b in flat.r:
                assert a.world == b.world

    def test_frame_matches_the_pair_built_frame(self):
        """The flat frame comes from the member rows: (world, member) pairs
        numbered by world, then member, with each member's order inside."""
        rng = random.Random(83)
        families = [m.general for m in partial_corpus(60, seed=83)]
        families += [random_same_carrier_family(rng) for _ in range(60)]
        for g in families:
            frame = flatten(g).frame
            want = pair_flat_frame(g)
            assert frame == want and frame.compiled == want.compiled
            assert frame.le == want.le
            assert frame.sorted_worlds() == sorted(frame.worlds)
        g = timeline()  # members made by build_frame: flatten reads their rows only
        flatten(g)
        assert all("le" not in m.frame.__dict__ for _, m in g.submodels)


class TestVerifyFlattenClass:
    def test_partial_input_gives_birelational(self):
        reports = verify_flatten_class(timeline())
        for rep in reports[:2]:
            assert rep.holds and rep.unique

    def test_homogeneous_input_gives_excessive(self):
        for h in homogeneous_corpus(15, seed=63):
            assert classify(flatten(h.general)) == "excessive"
            for rep in verify_flatten_class(h.general):
                assert rep.holds and rep.unique

    def test_single_member_vacuous(self):
        prop = build_prop_model(build_frame({"w"}, set()), {})
        for rep in verify_flatten_class(general_model({"K": prop})):
            assert rep.holds and rep.unique

    def test_every_partial_flatten_is_birelational(self):
        for m in partial_corpus(30, seed=64):
            assert classify(flatten(m.general)) != "none"


class TestEquivalenceReport:
    def test_timeline_separation_formulas(self):
        formulas = [parse("(~[]_|_) -> <>T"),
                    parse("([](p|~p) & ~[]p) -> <>~p"),
                    parse("[]q"), parse("<>p")]
        rep = equivalence_report(timeline(), formulas)
        assert rep.logic == "ik"
        assert rep.ok and rep.cases == 8 * len(formulas)

    def test_homogeneous_against_mk(self):
        pool = formula_pool(10, 3, ["p1", "p2"], seed=65)
        for h in homogeneous_corpus(10, seed=65):
            rep = equivalence_report(h.general, pool)
            assert rep.logic == "mk" and rep.ok

    def test_single_member_propositional(self):
        prop = build_prop_model(build_frame({"w", "w2"}, {("w", "w2")}),
                                {"w2": {"p"}})
        pool = formula_pool(10, 3, ["p"], seed=66, modal=False)
        rep = equivalence_report(general_model({"K": prop}), pool)
        assert rep.ok

    def test_with_premises(self):
        gammas = [(), (parse("p"),), (parse("p"), parse("p -> q"))]
        rep = equivalence_report(timeline(), [parse("q"), parse("<>p")], gammas)
        assert rep.ok

    def test_invalid_class_rejected(self):
        g = general_model({
            "K1": build_prop_model(build_frame({"a"}, set()), {}),
            "K2": build_prop_model(build_frame({"b"}, set()), {}),
        })
        with pytest.raises(InvalidModelClassError):
            equivalence_report(g, [parse("p")])

    def test_mk_requested_on_non_homogeneous_rejected(self):
        with pytest.raises(InvalidModelClassError):
            equivalence_report(timeline(), [parse("p")], logic="mk")


class TestModelLevelAgreement:
    def test_partial_validity_matches_ik_validity_on_image(self):
        from imk import valid_ik, valid_in_model
        pool = formula_pool(10, 2, ["p1", "p2"], seed=69)
        gammas = [(), (parse("p1"),)]
        for m in partial_corpus(15, seed=69):
            flat = flatten(m.general)
            for gset in gammas:
                for f in pool:
                    assert valid_in_model(m, gset, f) == valid_ik(flat, gset, f)

    def test_homogeneous_validity_matches_mk_validity_on_image(self):
        from imk import valid_in_model, valid_mk
        pool = formula_pool(10, 2, ["p1", "p2"], seed=70)
        for h in homogeneous_corpus(15, seed=70):
            flat = flatten(h.general)
            for f in pool:
                assert valid_in_model(h, [], f) == valid_mk(flat, [], f)


class TestPointwiseAgreement:
    def test_partial_vs_ik_on_sample(self):
        pool = formula_pool(12, 3, ["p1", "p2"], seed=67)
        for m in partial_corpus(25, seed=67):
            flat = flatten(m.general)
            for k, w in m.general.cells():
                for f in pool:
                    assert forces_partial(m, k, w, f) == \
                        forces_ik(flat, FlatWorld(w, k), f)

    def test_homogeneous_vs_mk_on_sample(self):
        pool = formula_pool(12, 3, ["p1", "p2"], seed=68)
        for h in homogeneous_corpus(25, seed=68):
            flat = flatten(h.general)
            for k, w in h.general.cells():
                for f in pool:
                    assert forces_homogeneous(h, k, w, f) == \
                        forces_mk(flat, FlatWorld(w, k), f)


class TestKernelRows:
    """The paper's equivalence for every formula at once: a family's cell
    kernel, renumbered through FlatWorld, is the flat model's IK kernel
    (partial families) or MK kernel (homogeneous ones).  Forcing reads
    nothing but up, rel, ik and the atom masks, so equal rows make every
    formula and every premise set agree at every cell."""

    def test_cell_rows_are_the_flat_rows(self):
        families = partial_corpus(300, seed=89) + homogeneous_corpus(300, seed=89)
        for logic in ("partial", "homogeneous"):
            families += enumerate_models(SearchBounds(logic, 2, 1, max_submodels=2))
        for m in families:
            mk = isinstance(m, HomogeneousModel)
            flat = flatten(m.general)
            kernel, want = m.kernel, flat.mk_kernel if mk else flat.ik_kernel
            at = flat.frame.compiled[0]
            to = [at[FlatWorld(w, k)] for k, w in kernel.index]  # cell number -> flat number

            def moved(mask):
                return sum(1 << to[i] for i in points(mask))

            def rows(cell_rows):
                out = [0] * len(cell_rows)
                for i, row in enumerate(cell_rows):
                    out[to[i]] = moved(row)
                return out

            assert kernel.ik == want.ik == (not mk)
            assert rows(kernel.up) == list(want.up)
            assert rows(kernel.rel) == list(want.rel)
            assert {a: moved(mask) for a, mask in kernel.atoms.items()} == dict(want.atoms)
