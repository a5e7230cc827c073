import os
import random
import subprocess
import sys

import pytest

import imk

from imk import (HigherOrderModel, HomogeneousModel, build_frame,
                 build_prop_model, evaluate, forces, forces_homogeneous,
                 from_birelational, general_model, is_unirelational, lift,
                 model_valid, parse, wrap_prop_model)
from imk.higher import BadPathError, PolicyGapError
from imk.kripke import HeredityError, ModelError

from gen import (classical_k_forces, formula_pool, homogeneous_corpus,
                 layered_points, naive_higher_eval, random_homogeneous_model,
                 random_layered_model, shuffled_declared_order, with_lower_relations)


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

    def test_malformed_bottom_raises_at_first_evaluate(self, two_chain):
        # p at w but not at the later w2: B's valuation is not hereditary
        bad = HigherOrderModel(0, (("w", None), ("w2", None)),
                               (("le", two_chain.frame.le),),
                               frozenset({("w", "p")}))
        m = HigherOrderModel(1, (("A", wrap_prop_model(two_chain)), ("B", bad)),
                             (("succ", frozenset()),))
        with pytest.raises(HeredityError):
            evaluate(m, ["A", "w"], parse("p"))


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


def _two_level():
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


class TestLevelsAboveOne:
    def test_box_reads_the_top_relation(self):
        m = _two_level()
        # p fails at H1.A but holds at H2.A, the only up-alternative of H1
        assert not evaluate(m, ["H1", "A", "w1"], parse("p"))
        assert evaluate(m, ["H1", "A", "w1"], parse("[]p"))
        assert evaluate(m, ["H1", "A", "w1"], parse("<>p"))
        # H2 has no up-successor: box is vacuous, diamond empty
        assert evaluate(m, ["H2", "A", "w1"], parse("[]_|_"))
        assert not evaluate(m, ["H2", "A", "w1"], parse("<>p"))

    def test_lift_rule_closes_short_paths(self):
        m = _two_level()
        assert evaluate(m, ["H2"], parse("p"))
        assert not evaluate(m, ["H1"], parse("p"))

    def test_path_too_long(self):
        m = _two_level()
        with pytest.raises(BadPathError):
            evaluate(m, ["H1", "A", "w1", "w1"], parse("p"))


def _outcome(m, path, f):
    try:
        return evaluate(m, path, f)
    except (BadPathError, PolicyGapError) as exc:
        return type(exc).__name__


def _paths(m) -> list[tuple]:
    """Every path of m, full or short, sorted."""
    return sorted({p[:k] for p in layered_points(m) for k in range(len(p) + 1)})


class TestAgainstOracle:
    POOL = formula_pool(12, 3, ["p1", "p2"], seed=81)

    def _agree(self, m):
        for path in _paths(m) + [("ghost",), layered_points(m)[0] + ("w1",)]:
            for f in self.POOL:
                assert _outcome(m, path, f) == naive_higher_eval(m, path, f), \
                    (path, f)

    def test_lifted_homogeneous(self):
        for h in homogeneous_corpus(10, seed=82):
            self._agree(lift(h))

    def test_level1_with_dangling_shifts(self):
        rng = random.Random(83)
        for _ in range(25):
            self._agree(random_layered_model(rng, 1))

    def test_two_relation_top(self):
        rng = random.Random(84)
        for _ in range(10):
            self._agree(random_layered_model(rng, 1, relations=2))

    def test_level0(self, two_chain):
        self._agree(wrap_prop_model(two_chain))
        self._agree(from_birelational(two_chain.frame,
                                      frozenset({("w", "w2")}), two_chain.val))
        rng = random.Random(85)
        for _ in range(5):
            self._agree(random_layered_model(rng, 0))

    def test_level2(self):
        self._agree(_two_level())
        rng = random.Random(86)
        for _ in range(5):
            self._agree(random_layered_model(rng, 2, max_objects=2))

    def test_shuffled_declared_order(self):
        # cells are numbered in sorted order within a member, yet a short
        # path is decided by its first point in declared order
        rng, shuffle = random.Random(87), random.Random(88)
        for i in range(30):
            m = random_layered_model(rng, i % 3, max_objects=2)
            self._agree(shuffled_declared_order(m, shuffle))


class TestLowerRelations:
    """Only the top relation and the level-0 le are read under the two
    rules: the relations in between may be anything."""
    POOL = formula_pool(12, 3, ["p1", "p2"], seed=89)

    @pytest.mark.parametrize("full", [True, False])
    def test_are_never_read(self, full):
        rng, changed = random.Random(90), 0
        for i in range(20):
            m = random_layered_model(rng, 2 + i % 2)
            other = with_lower_relations(m, full)
            changed += other != m
            for path in _paths(m):
                for f in self.POOL:
                    assert _outcome(other, path, f) == _outcome(m, path, f), (path, f)
        assert changed


# A{w} and B{w} force nothing; C has only v, so A's shift to C dangles.
# Whether []p at A:w first meets B (False) or C (an error) must not decide
# the answer.
HASH_PROBE = """
from imk import (HigherOrderModel, build_frame, build_prop_model, evaluate,
                 parse, wrap_prop_model)
member = lambda w: wrap_prop_model(build_prop_model(build_frame({w}, ()), {}))
m = HigherOrderModel(1, (("A", member("w")), ("B", member("w")),
                         ("C", member("v"))),
                     (("succ", frozenset({("A", "B"), ("A", "C")})),))
for at, text in ((["A", "w"], "[]p"), (["A", "w"], "<>~p"),
                 (["A", "w"], "q & []p"), (["B", "w"], "[]p")):
    try:
        print(evaluate(m, at, parse(text)))
    except Exception as exc:
        print(type(exc).__name__)
"""


class TestDeterminism:
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_answers_do_not_depend_on_the_hash_seed(self, seed):
        src = os.path.dirname(os.path.dirname(imk.__file__))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", HASH_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["BadPathError", "BadPathError",
                                       "False", "True"]
