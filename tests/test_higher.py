import random

import pytest

from imk import (HigherOrderModel, HomogeneousModel, build_frame,
                 build_prop_model, evaluate, forces, forces_homogeneous,
                 from_birelational, general_model, is_unirelational, lift,
                 model_valid, parse, wrap_prop_model)
from imk.higher import BadPathError, PolicyGapError
from imk.kripke import ModelError

from gen import (classical_k_forces, formula_pool, homogeneous_corpus,
                 random_homogeneous_model)


@pytest.fixture
def two_chain():
    frame = build_frame({"w", "w2"}, {("w", "w2")})
    return build_prop_model(frame, {"w2": {"p"}})


class TestPredicates:
    def test_wrapped_prop_model_is_unirelational(self, two_chain):
        assert is_unirelational(wrap_prop_model(two_chain))

    def test_two_relations_are_not(self, two_chain):
        m = from_birelational(two_chain.frame, frozenset({("w", "w")}),
                              two_chain.val)
        assert not is_unirelational(m)

    def test_lift_is_unirelational(self):
        for h in homogeneous_corpus(10, seed=71):
            assert is_unirelational(lift(h))


class TestConstruction:
    def test_levels_are_strict(self, two_chain):
        zero = wrap_prop_model(two_chain)
        with pytest.raises(ModelError):
            HigherOrderModel(2, (("K", zero),), (("rel", frozenset()),))

    def test_relations_never_empty(self, two_chain):
        with pytest.raises(ModelError):
            HigherOrderModel(0, (("w", None),), ())

    def test_level0_objects_are_bare(self, two_chain):
        zero = wrap_prop_model(two_chain)
        with pytest.raises(ModelError):
            HigherOrderModel(0, (("K", zero),), (("le", frozenset()),))


class TestEvaluateLevel0:
    def test_matches_plain_forcing(self, two_chain):
        m = wrap_prop_model(two_chain)
        for f in formula_pool(20, 3, ["p"], seed=72, modal=False):
            for w in ("w", "w2"):
                assert evaluate(m, [w], f) == forces(two_chain, w, f)

    def test_modal_formula_is_a_policy_gap(self, two_chain):
        with pytest.raises(PolicyGapError):
            evaluate(wrap_prop_model(two_chain), ["w"], parse("[]p"))

    def test_bad_world(self, two_chain):
        with pytest.raises(BadPathError):
            evaluate(wrap_prop_model(two_chain), ["ghost"], parse("p"))


class TestLift:
    def test_singleton_member_object_truth_is_model_validity(self, two_chain):
        h = HomogeneousModel(general_model({"K": two_chain}))
        m = lift(h)
        for f in formula_pool(20, 3, ["p"], seed=73, modal=False):
            assert evaluate(m, ["K"], f) == model_valid(two_chain, [], f)

    def test_agrees_with_homogeneous_forcing(self):
        pool = formula_pool(12, 3, ["p1", "p2"], seed=74)
        for h in homogeneous_corpus(15, seed=74):
            m = lift(h)
            for k, w in h.general.cells():
                for f in pool:
                    assert evaluate(m, [k, w], f) == \
                        forces_homogeneous(h, k, w, f)

    def test_classical_degeneration(self):
        point = build_frame({"w1"}, set())
        pool = formula_pool(15, 3, ["p1"], seed=75)
        vals = {"K1": frozenset(), "K2": frozenset({"p1"})}
        succ = {("K1", "K2"), ("K2", "K2")}
        h = HomogeneousModel(general_model(
            {k: build_prop_model(point, {"w1": v}) for k, v in vals.items()}, succ))
        m = lift(h)
        for k in vals:
            for f in pool:
                assert evaluate(m, [k, "w1"], f) == \
                    classical_k_forces(vals, succ, k, f)


class TestAxioms:
    def test_t_axiom_under_reflexive_succ(self):
        rng = random.Random(9)
        f = parse("[]p1 -> p1")
        for _ in range(15):
            h = random_homogeneous_model(rng)
            refl = HomogeneousModel(general_model(
                dict(h.general.submodels),
                set(h.general.succ) | {(k, k) for k in h.general.ids}))
            m = lift(refl)
            for k, w in refl.general.cells():
                assert evaluate(m, [k, w], f)

    def test_four_axiom_under_transitive_succ(self):
        rng = random.Random(10)
        f = parse("[]p1 -> [][]p1")
        for _ in range(15):
            h = random_homogeneous_model(rng)
            succ = set(h.general.succ)
            changed = True
            while changed:
                changed = False
                for a, b in list(succ):
                    for c, d in list(succ):
                        if b == c and (a, d) not in succ:
                            succ.add((a, d))
                            changed = True
            trans = HomogeneousModel(general_model(dict(h.general.submodels), succ))
            m = lift(trans)
            for k, w in trans.general.cells():
                assert evaluate(m, [k, w], f)


class TestLevelsAboveOne:
    def _two_level(self):
        frame = build_frame({"w1"}, set())
        mk_member = lambda atoms: wrap_prop_model(
            build_prop_model(frame, {"w1": atoms}))
        inner1 = HigherOrderModel(1, (("A", mk_member(set())),
                                      ("B", mk_member({"p"}))),
                                  (("acc", frozenset({("A", "B")})),))
        inner2 = HigherOrderModel(1, (("A", mk_member({"p"})),
                                      ("B", mk_member({"p"}))),
                                  (("acc", frozenset({("A", "B")})),))
        return HigherOrderModel(2, (("H1", inner1), ("H2", inner2)),
                                (("up", frozenset({("H1", "H2")})),))

    def test_box_reads_the_top_relation(self):
        m = self._two_level()
        # p fails at H1.A but holds at H2.A, the only up-alternative of H1
        assert not evaluate(m, ["H1", "A", "w1"], parse("p"))
        assert evaluate(m, ["H1", "A", "w1"], parse("[]p"))
        assert evaluate(m, ["H1", "A", "w1"], parse("<>p"))
        # H2 has no up-successor: box is vacuous, diamond empty
        assert evaluate(m, ["H2", "A", "w1"], parse("[]_|_"))
        assert not evaluate(m, ["H2", "A", "w1"], parse("<>p"))

    def test_lift_rule_closes_short_paths(self):
        m = self._two_level()
        assert evaluate(m, ["H2"], parse("p"))
        assert not evaluate(m, ["H1"], parse("p"))

    def test_path_too_long(self):
        m = self._two_level()
        with pytest.raises(BadPathError):
            evaluate(m, ["H1", "A", "w1", "w1"], parse("p"))
