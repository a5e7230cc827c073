import random

import pytest

from imk import (HomogeneousModel, as_homogeneous, as_partial,
                 build_frame, build_prop_model, entails_homogeneous,
                 entails_partial, forces, forces_homogeneous, forces_partial,
                 general_model, model_valid, modular_mk_evaluate, parse,
                 valid_at_submodel, valid_in_model, validate_homogeneous,
                 validate_partial)
from imk.formulas import BOTTOM, Box, subformulas
from imk.general import (CLASSICAL_POINT, CarrierMismatchError, GeneralModel,
                         InvalidModelClassError, UnknownSubmodelError,
                         classical_member)
from imk.kripke import ModelError, UnknownWorldError

from gen import (classical_k_forces, formula_pool, homogeneous_corpus,
                 naive_family_entails, naive_homogeneous_forces,
                 naive_partial_forces, naive_same_world_forces, pair_homogeneous,
                 pair_partial_links, partial_corpus, random_homogeneous_model,
                 random_same_carrier_family)


def relation_masks(index, pairs):
    """Row i holds bit j for every pair (a, b) with index[a] == i, index[b] == j."""
    rows = [0] * len(index)
    for a, b in pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def timeline_family(succ):
    chain = build_frame({"m", "a", "e"}, {("m", "a"), ("a", "e")})
    short = build_frame({"a", "e"}, {("a", "e")})
    members = {
        "K": build_prop_model(chain, {"e": {"p"}}),
        "K1": build_prop_model(chain, {"m": {"p"}, "a": {"p"}, "e": {"p", "q"}}),
        "K2": build_prop_model(short, {"a": {"p"}, "e": {"p", "q"}}),
    }
    return general_model(members, succ)


class TestValidatePartial:
    def test_timeline_reference(self):
        ref = validate_partial(timeline_family(set()))
        assert ref in ("K", "K1")

    def test_single_submodel(self):
        g = general_model({"K": build_prop_model(build_frame({"w"}, set()), {})})
        assert validate_partial(g) == "K"

    def test_incomparable_world_sets(self):
        g = general_model({
            "K1": build_prop_model(build_frame({"a"}, set()), {}),
            "K2": build_prop_model(build_frame({"b"}, set()), {}),
        })
        assert validate_partial(g) is None
        with pytest.raises(InvalidModelClassError):
            as_partial(g)


class TestValidateHomogeneous:
    def test_shared_chain(self):
        chain = build_frame({"m", "a", "e"}, {("m", "a"), ("a", "e")})
        g = general_model({
            "K": build_prop_model(chain, {"e": {"p"}}),
            "K1": build_prop_model(chain, {"m": {"p"}, "a": {"p"}, "e": {"p", "q"}}),
        })
        assert validate_homogeneous(g)

    def test_timeline_is_not_homogeneous(self):
        assert not validate_homogeneous(timeline_family(set()))
        with pytest.raises(InvalidModelClassError):
            as_homogeneous(timeline_family(set()))

    def test_singleton_family(self):
        g = general_model({"K": build_prop_model(build_frame({"w"}, set()), {})})
        assert validate_homogeneous(g)


class TestForcesPartial:
    def test_diamond_through_alternative(self):
        m = as_partial(timeline_family({("K", "K1")}))
        assert forces_partial(m, "K", "m", parse("<>p"))

    def test_box_without_self_access(self):
        m = as_partial(timeline_family({("K", "K1"), ("K", "K2")}))
        assert forces_partial(m, "K", "e", parse("[]q"))

    def test_box_with_self_access(self):
        m = as_partial(timeline_family({("K", "K1"), ("K", "K2"), ("K", "K")}))
        assert not forces_partial(m, "K", "e", parse("[]q"))

    def test_unknown_cell(self):
        m = as_partial(timeline_family(set()))
        with pytest.raises(UnknownSubmodelError):
            forces_partial(m, "K9", "m", parse("p"))
        with pytest.raises(UnknownWorldError):
            forces_partial(m, "K2", "m", parse("p"))  # K2 dropped the morning


class TestForcesHomogeneous:
    def test_diamond(self):
        chain = build_frame({"m", "a", "e"}, {("m", "a"), ("a", "e")})
        g = general_model({
            "K": build_prop_model(chain, {"e": {"p"}}),
            "K1": build_prop_model(chain, {"m": {"p"}, "a": {"p"}, "e": {"p", "q"}}),
        }, {("K", "K1")})
        assert forces_homogeneous(as_homogeneous(g), "K", "e", parse("<>q"))

    def test_empty_succ_box_bottom(self):
        for h in homogeneous_corpus(10, seed=77):
            empty = HomogeneousModel(general_model(dict(h.general.submodels)))
            for k, w in empty.general.cells():
                assert forces_homogeneous(empty, k, w, parse("[]_|_"))

    def test_reflexive_gives_t_axiom(self):
        rng = random.Random(5)
        f = parse("[]p1 -> p1")
        for _ in range(20):
            h = random_homogeneous_model(rng)
            refl = HomogeneousModel(general_model(
                dict(h.general.submodels),
                set(h.general.succ) | {(k, k) for k in h.general.ids}))
            for k, w in refl.general.cells():
                assert forces_homogeneous(refl, k, w, f)


class TestEntailsAndValidity:
    def test_identity_valid_in_partial_models(self):
        f = parse("p1 -> p1")
        for m in partial_corpus(15, seed=31):
            assert valid_in_model(m, [], f)

    def test_diamond_p_not_model_valid_on_timeline(self):
        m = as_partial(timeline_family({("K", "K1")}))
        assert not valid_in_model(m, [], parse("<>p"))
        # K1 has no alternative, so diamond fails at each of its worlds
        assert not valid_at_submodel(m, "K1", [], parse("<>p"))

    def test_single_member_empty_succ_matches_plain_model(self):
        prop = build_prop_model(build_frame({"w", "w2"}, {("w", "w2")}),
                                {"w2": {"p"}})
        m = as_partial(general_model({"K": prop}))
        for f in formula_pool(20, 3, ["p"], seed=33, modal=False):
            assert valid_in_model(m, [], f) == model_valid(prop, [], f)

    def test_validity_looks_up_at_most_one_member(self, monkeypatch):
        """valid_in_model reads the whole carrier and valid_at_submodel its
        one member, however many members the family has."""
        prop = build_prop_model(build_frame({"w", "w2"}, {("w", "w2")}), {"w2": {"p"}})
        ids = [f"K{i}" for i in range(40)]
        g = general_model(dict.fromkeys(ids, prop), set(zip(ids, ids[1:])))
        models = [as_homogeneous(g), as_partial(g, "K0")]
        for m in models:
            m.kernel
        calls, lookup = [], GeneralModel.submodel
        monkeypatch.setattr(GeneralModel, "submodel",
                            lambda self, k: calls.append(k) or lookup(self, k))
        f = parse("p -> p")
        for m in models:
            calls.clear()
            assert valid_in_model(m, [], f) and calls == []
            assert valid_at_submodel(m, "K7", [], f) and calls == ["K7"]
            assert not valid_in_model(m, [], parse("p")) and calls == ["K7"]

    def test_entails_gamma_within_member(self):
        m = as_partial(timeline_family(set()))
        gamma = [parse("p -> q"), parse("p")]
        for k, w in m.general.cells():
            assert entails_partial(m, k, w, gamma, parse("q"))

    def test_entails_homogeneous_empty_gamma(self):
        for h in homogeneous_corpus(5, seed=41):
            f = parse("<>p1")
            for k, w in h.general.cells():
                assert entails_homogeneous(h, k, w, [], f) == \
                    forces_homogeneous(h, k, w, f)


class TestAgainstOracles:
    """Family forcing and entailment against the recursive clauses in gen."""

    def test_partial_forcing(self):
        pool = formula_pool(25, 3, ["p1", "p2"], seed=61)
        for m in partial_corpus(40, seed=61):
            for k, w in m.general.cells():
                for f in pool:
                    assert forces_partial(m, k, w, f) == \
                        naive_partial_forces(m, k, w, f)

    def test_homogeneous_forcing(self):
        pool = formula_pool(25, 3, ["p1", "p2"], seed=62)
        for h in homogeneous_corpus(40, seed=62):
            for k, w in h.general.cells():
                for f in pool:
                    assert forces_homogeneous(h, k, w, f) == \
                        naive_homogeneous_forces(h, k, w, f)

    def test_entailment(self):
        pool = formula_pool(10, 2, ["p1", "p2"], seed=63)
        gammas = [[], pool[:1], pool[1:3]]
        for m, ent, oracle in (
                *((m, entails_partial, naive_partial_forces)
                  for m in partial_corpus(15, seed=63)),
                *((h, entails_homogeneous, naive_homogeneous_forces)
                  for h in homogeneous_corpus(15, seed=63))):
            for k, w in m.general.cells():
                for gamma in gammas:
                    for f in pool:
                        assert ent(m, k, w, gamma, f) == \
                            naive_family_entails(oracle, m, k, w, gamma, f)


class TestCompileOnce:
    def test_pool_is_walked_once_per_formula(self, walks):
        # BOTTOM is a shared constant that other tests may have walked already
        pool = [f for f in formula_pool(31, 3, ["p1", "p2"], seed=21) if f is not BOTTOM]
        assert len(pool) == 30
        # formula_pool hashes every formula it draws, and a formula hashes on
        # its program; the duplicates it drops are walked too
        drawn = len(walks)
        for h in homogeneous_corpus(100):
            for k, w in h.general.cells():
                for f in pool:
                    forces_homogeneous(h, k, w, f)
        assert len(walks) == drawn
        ids = {id(f) for f in pool}
        assert sorted(id(f) for f in walks if id(f) in ids) == sorted(ids)


class TestCellRows:
    """Family kernels number cells in g.cells() order, and build their rows
    from the member and reference rows; the pair definitions are oracles."""

    def test_bit_order_is_cells(self):
        for m in partial_corpus(60, seed=71) + homogeneous_corpus(60, seed=71):
            index = m.kernel.index
            assert list(index) == m.general.cells()
            assert list(index.values()) == list(range(len(index)))

    def test_partial_rows_match_the_pair_links(self):
        for m in partial_corpus(150, seed=73):
            box, dia = pair_partial_links(m)
            kernel = m.kernel
            assert kernel.box == relation_masks(kernel.index, box)
            assert kernel.dia == relation_masks(kernel.index, dia)

    def test_partial_rows_do_not_read_le(self):
        for m in partial_corpus(40, seed=79):
            g = general_model({k: build_prop_model(build_frame(sm.frame.worlds, sm.frame.le),
                                                   {w: sm.atoms(w) for w in sm.worlds})
                               for k, sm in m.general.submodels}, m.general.succ)
            rebuilt = as_partial(g, m.reference)
            assert rebuilt.kernel.box == m.kernel.box
            assert all("le" not in sm.frame.__dict__ for _, sm in g.submodels)

    def test_homogeneous_rows_link_the_same_world(self):
        for h in homogeneous_corpus(100, seed=75):
            g = h.general
            links = [((k, w), (k2, w)) for k, k2 in g.succ
                     for w in g.submodel(k).worlds]
            want = relation_masks(h.kernel.index, links)
            assert h.kernel.box == want and h.kernel.dia == want

    def test_validate_homogeneous_matches_the_pair_sets(self):
        rng = random.Random(77)
        families = [random_same_carrier_family(rng) for _ in range(150)]
        families += [h.general for h in homogeneous_corpus(50, seed=77)]
        families += [m.general for m in partial_corpus(50, seed=77)]
        verdicts = [validate_homogeneous(g) for g in families]
        assert verdicts == [pair_homogeneous(g) for g in families]
        assert 40 < sum(verdicts) < len(families) - 40


ONE_WORLD = build_prop_model(build_frame({"w"}, set()), {})
OTHER_WORLD = build_prop_model(build_frame({"v"}, set()), {})
TWO_WORLDS = build_prop_model(build_frame({"w", "v"}, set()), {})


class TestModularClauses:
    def test_classical_diamond(self):
        family = {"V1": classical_member(()), "V2": classical_member({"p"})}
        assert modular_mk_evaluate(family, {("V1", "V2")}, "V1", CLASSICAL_POINT,
                                   parse("<>p"))

    def test_classical_empty_succ_box(self):
        family = {"V1": classical_member(()), "V2": classical_member({"p"})}
        for k in family:
            assert modular_mk_evaluate(family, set(), k, CLASSICAL_POINT, parse("[]p"))

    def test_classical_member_is_one_point(self):
        m = classical_member({"p", "q"})
        assert m.worlds == {CLASSICAL_POINT}
        assert m.atoms(CLASSICAL_POINT) == {"p", "q"}

    def test_intuitionistic_base_matches_homogeneous_forcing(self):
        pool = formula_pool(15, 3, ["p1", "p2"], seed=43)
        for h in homogeneous_corpus(10, seed=43):
            family = dict(h.general.submodels)
            for k, w in h.general.cells():
                for f in pool:
                    assert modular_mk_evaluate(family, h.general.succ, k, w, f) == \
                        forces_homogeneous(h, k, w, f)

    def test_members_with_different_orders(self):
        """One world set, a different order in each member: the MK clauses
        read the same world in the alternatives, -> reads the member's own
        order.  succ is also passed as a generator, read once."""
        rng = random.Random(45)
        pool = formula_pool(20, 3, ["p1", "p2"], seed=45)
        families = [random_same_carrier_family(rng) for _ in range(40)]
        orders = {frozenset(m.frame.le for _, m in g.submodels) for g in families}
        assert any(len(les) > 1 for les in orders)
        for g in families:
            family = dict(g.submodels)
            for k, w in g.cells():
                for f in pool:
                    assert modular_mk_evaluate(family, (pair for pair in g.succ),
                                               k, w, f) == \
                        naive_same_world_forces(g, k, w, f)

    def test_classical_base_matches_classical_k_oracle(self):
        import itertools
        pool = formula_pool(12, 3, ["p1"], seed=44)
        subsets = [frozenset(), frozenset({"p1"})]
        for m in (1, 2):
            ids = [f"K{i}" for i in range(1, m + 1)]
            pairs = [(a, b) for a in ids for b in ids]
            for choice in itertools.product(subsets, repeat=m):
                valuations = dict(zip(ids, choice))
                family = {k: classical_member(v) for k, v in valuations.items()}
                for bits in itertools.product((0, 1), repeat=len(pairs)):
                    succ = {p for p, keep in zip(pairs, bits) if keep}
                    for k in ids:
                        for f in pool:
                            assert modular_mk_evaluate(
                                family, succ, k, CLASSICAL_POINT, f) == \
                                classical_k_forces(valuations, succ, k, f)

    def test_deep_formula_classical_base(self):
        """~ nested 3,000 deep: no recursion, and no hash of the formula."""
        f = parse("~" * 3000 + "p")
        family = {"V1": classical_member(()), "V2": classical_member({"p"})}
        for succ in (set(), {("V1", "V2")}):
            for k in family:
                assert modular_mk_evaluate(
                    family, succ, k, CLASSICAL_POINT, f) == (k == "V2")
        assert modular_mk_evaluate(family, {("V1", "V2")}, "V1", CLASSICAL_POINT,
                                   parse("<>" + "~" * 2999 + "p")) is False

    def test_deep_formula_intuitionistic_base(self):
        """An even run of negations is ~~p: it holds at w, whose later world v
        forces p, though p itself does not hold at w."""
        frame = build_frame({"w", "v"}, {("w", "v")})
        family = {"K1": build_prop_model(frame, {"v": {"p"}}),
                  "K2": build_prop_model(frame, {})}
        for depth, want in ((3000, True), (2999, False)):
            f = parse("~" * depth + "p")
            assert modular_mk_evaluate(family, set(), "K1", "w", f) is want
        f = parse("[]" + "~" * 3000 + "p")
        for succ, want in (({("K2", "K1")}, True), ({("K2", "K2")}, False)):
            assert modular_mk_evaluate(family, succ, "K2", "w", f) is want

    @pytest.mark.parametrize("family, succ, k, w, error, message", [
        ({}, set(), "K1", "w", ModelError, "empty family"),
        ({"K1": TWO_WORLDS, "K2": OTHER_WORLD}, set(), "K1", "w", CarrierMismatchError,
         "member 'K2' has carrier {'v'}, expected {'v', 'w'}"),
        ({"K1": ONE_WORLD, "K2": TWO_WORLDS}, set(), "K1", "w", CarrierMismatchError,
         "member 'K2' has carrier {'v', 'w'}, expected {'w'}"),
        ({"K1": ONE_WORLD}, {("K1", "K9")}, "K1", "w", ModelError,
         "succ endpoint 'K1' or 'K9' is not a family member"),
        ({"K1": ONE_WORLD}, {("K9", "K1"), ("K1", "K8"), ("K1", "K9")}, "K1", "w", ModelError,
         "succ endpoint 'K1' or 'K8' is not a family member"),
        ({"K1": ONE_WORLD}, set(), "K9", "w", UnknownSubmodelError,
         "unknown submodel 'K9'"),
        ({"K1": ONE_WORLD}, set(), "K1", "v", UnknownWorldError, "unknown world 'v'"),
    ], ids=["empty", "carrier", "carrier_two", "succ", "succ_least", "member", "world"])
    def test_input_errors(self, family, succ, k, w, error, message):
        with pytest.raises(error) as info:
            modular_mk_evaluate(family, succ, k, w, parse("p"))
        assert type(info.value) is error
        assert str(info.value) == message


class TestInvariants:
    def test_monotonicity_partial(self):
        pool = formula_pool(12, 3, ["p1", "p2"], seed=51)
        for m in partial_corpus(25, seed=51):
            for k, sm in m.general.submodels:
                for f in pool:
                    for a, b in sm.frame.le:
                        if forces_partial(m, k, a, f):
                            assert forces_partial(m, k, b, f)

    def test_monotonicity_homogeneous(self):
        pool = formula_pool(12, 3, ["p1", "p2"], seed=52)
        for h in homogeneous_corpus(25, seed=52):
            for k, sm in h.general.submodels:
                for f in pool:
                    for a, b in sm.frame.le:
                        if forces_homogeneous(h, k, a, f):
                            assert forces_homogeneous(h, k, b, f)

    def test_homogeneous_is_partial_and_diamonds_agree(self):
        box_free = [f for f in formula_pool(40, 3, ["p1", "p2"], seed=53)
                    if not any(isinstance(g, Box) for g in subformulas(f))]
        for h in homogeneous_corpus(15, seed=53):
            ref = validate_partial(h.general)
            assert ref is not None
            m = as_partial(h.general, ref)
            for k, w in h.general.cells():
                for f in box_free:
                    assert forces_partial(m, k, w, f) == \
                        forces_homogeneous(h, k, w, f)

    def test_classical_degeneration_sample(self):
        point = build_frame({"w1"}, set())
        pool = formula_pool(20, 3, ["p1", "p2"], seed=54)
        rng = random.Random(54)
        for _ in range(40):
            ids = [f"K{i}" for i in range(1, rng.randint(1, 3) + 1)]
            vals = {k: frozenset(a for a in ("p1", "p2") if rng.random() < 0.5)
                    for k in ids}
            succ = {(a, b) for a in ids for b in ids if rng.random() < 0.4}
            h = HomogeneousModel(general_model(
                {k: build_prop_model(point, {"w1": vals[k]}) for k in ids}, succ))
            for k in ids:
                for f in pool:
                    assert forces_homogeneous(h, k, "w1", f) == \
                        classical_k_forces(vals, succ, k, f)
