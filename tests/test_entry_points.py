"""Every public forcing entry point on the same model objects, interleaved.

Each model gets one shuffled list of calls (forcing, entailment and
validity, over every semantics it admits) and every answer, or the error
and its message, is checked against the independent oracles of gen.py.
The shuffles mix the entry points, so an answer never depends on which
call reached a model's kernels first.  Pinned alongside: a model below a
semantics' class raises on every call, the require_unique flags are kept
apart, box, diamond and -> nodes with one mask keep their own entries, and
a lift reuses its members."""

import random
import re

import pytest

from imk import (PropModel, as_homogeneous, build_frame, build_prop_model, classify,
                 entails, entails_homogeneous, entails_ik, entails_mk, entails_partial,
                 evaluate, flatten, forces, forces_homogeneous, forces_ik, forces_mk,
                 forces_partial, general_model, lift, model_valid, parse, valid_at_submodel,
                 valid_ik, valid_in_model, valid_mk)
from imk.birelational import BirelationalModel, NotBirelationalError, NotStrongError
from imk.higher import HigherOrderModel
from imk.kripke import Frame
from imk.modelfile import dump_higher, loads

from gen import (formula_pool, homogeneous_corpus, layered_points, naive_class,
                 naive_family_entails, naive_forces, naive_higher_eval,
                 naive_homogeneous_forces, naive_ik_forces, naive_mk_forces,
                 naive_partial_forces, partial_corpus, random_birelational, random_frame,
                 random_valuation)

ATOMS = ["p1", "p2"]
PROP_POOL = formula_pool(8, 3, ATOMS, seed=71, modal=False)
MODAL_POOL = formula_pool(10, 3, ATOMS, seed=72)
GAMMAS = [(), (MODAL_POOL[0],), (MODAL_POOL[1], MODAL_POOL[2])]
PROP_GAMMAS = [(), (PROP_POOL[0],), (PROP_POOL[1], PROP_POOL[2])]

MESSAGES = {"strong": "MK forcing requires F3 (a strong model)",
            "birelational": "IK forcing requires F1 and F2"}


def _entails(forces_at, le, w, gamma, f) -> bool:
    """Empty gamma: forcing at w; otherwise every later world that forces all
    of gamma forces f."""
    if not gamma:
        return forces_at(w, f)
    return all(forces_at(v, f) for a, v in le
               if a == w and all(forces_at(v, g) for g in gamma))


def _run(calls: list, seed: int) -> None:
    """Make the calls in a seeded shuffled order.  Each is (thunk, expected):
    a bool, or (error type, text its message holds)."""
    calls = list(calls)
    random.Random(seed).shuffle(calls)
    for call, want in calls:
        if isinstance(want, bool):
            assert call() is want
        else:
            with pytest.raises(want[0]) as info:
                call()
            assert type(info.value) is want[0] and want[1] in str(info.value)


def _birelational_calls(m: BirelationalModel, pool=MODAL_POOL, gammas=GAMMAS) -> list:
    """forces/entails/valid under IK and MK, with both flags, against the
    oracles; a model below a semantics' class expects its error on every
    call."""
    calls = []
    worlds = m.frame.sorted_worlds()
    for unique in (True, False):
        cls = naive_class(m, unique)
        for logic, rank, naive, fns in (
                ("ik", "birelational", naive_ik_forces, (forces_ik, entails_ik, valid_ik)),
                ("mk", "strong", naive_mk_forces, (forces_mk, entails_mk, valid_mk))):
            f_, e_, v_ = fns
            admitted = cls in ("birelational", "strong", "excessive") if logic == "ik" \
                else cls in ("strong", "excessive")
            error = None if admitted else (
                NotBirelationalError if logic == "ik" else NotStrongError,
                f"model classifies as {cls!r}; {MESSAGES[rank]}")
            at = lambda w, f, naive=naive: naive(m, w, f)
            for f in pool:
                for w in worlds:
                    calls.append((lambda w=w, f=f, f_=f_, u=unique: f_(m, w, f, require_unique=u),
                                  error or at(w, f)))
                for gamma in gammas:
                    for w in worlds:
                        calls.append((lambda w=w, f=f, g=gamma, e_=e_, u=unique:
                                      e_(m, w, g, f, require_unique=u),
                                      error or _entails(at, m.frame.le, w, gamma, f)))
                    calls.append((lambda f=f, g=gamma, v_=v_, u=unique:
                                  v_(m, g, f, require_unique=u),
                                  error or all(_entails(at, m.frame.le, w, gamma, f)
                                               for w in worlds)))
    return calls


def _family_calls(m, forces_fn, entails_fn, naive) -> list:
    """A partial or homogeneous family's forcing, entailment and validity."""
    calls = []
    members = dict(m.general.submodels)
    for f in MODAL_POOL:
        for k, w in m.general.cells():
            calls.append((lambda k=k, w=w, f=f: forces_fn(m, k, w, f), naive(m, k, w, f)))
        for gamma in GAMMAS:
            want = {(k, w): naive_family_entails(naive, m, k, w, gamma, f)
                    for k, w in m.general.cells()}
            for (k, w), value in want.items():
                calls.append((lambda k=k, w=w, g=gamma, f=f: entails_fn(m, k, w, g, f), value))
            for k in members:
                calls.append((lambda k=k, g=gamma, f=f: valid_at_submodel(m, k, g, f),
                              all(v for (k2, _), v in want.items() if k2 == k)))
            calls.append((lambda g=gamma, f=f: valid_in_model(m, g, f), all(want.values())))
    return calls


class TestInterleaved:
    def test_prop_models(self):
        rng = random.Random(73)
        for seed in range(12):
            frame = random_frame(rng, 4)
            m = PropModel(frame, random_valuation(rng, frame, ATOMS))
            at = lambda w, f: naive_forces(m, w, f)
            calls = []
            for f in PROP_POOL:
                for w in frame.sorted_worlds():
                    calls.append((lambda w=w, f=f: forces(m, w, f), at(w, f)))
                for gamma in PROP_GAMMAS:
                    want = [_entails(at, frame.le, w, gamma, f) for w in frame.sorted_worlds()]
                    for w, value in zip(frame.sorted_worlds(), want):
                        calls.append((lambda w=w, g=gamma, f=f: entails(m, w, g, f), value))
                    calls.append((lambda g=gamma, f=f: model_valid(m, g, f), all(want)))
            _run(calls, seed)

    def test_birelational_models_of_every_class(self):
        """Random models of all four classes, under both flags; the calls of
        the four (logic, flag) pairs come in one shuffle."""
        rng = random.Random(74)
        seen = set()
        for seed in range(30):
            bare = random_birelational(rng, 3, rng.choice((0.3, 0.5)))
            m = BirelationalModel(bare.frame, bare.r, random_valuation(rng, bare.frame, ATOMS))
            seen.add((classify(m, True), classify(m, False)))
            _run(_birelational_calls(m, MODAL_POOL[:5], GAMMAS[:2]), seed)
        assert {cls for pair in seen for cls in pair} >= {"none", "birelational", "strong"}
        assert any(a != b for a, b in seen)

    def test_families_and_their_views(self):
        """A family, its flat image and its lift, each call on the same
        objects, the three views of one family in one shuffle."""
        for seed, h in enumerate(homogeneous_corpus(6, seed=75)):
            flat, lifted = flatten(h.general), lift(h)
            calls = _family_calls(h, forces_homogeneous, entails_homogeneous,
                                  naive_homogeneous_forces)
            calls += _birelational_calls(flat, MODAL_POOL[:4], GAMMAS[:2])
            calls += [(lambda p=p, f=f: evaluate(lifted, p, f), naive_higher_eval(lifted, p, f))
                      for f in MODAL_POOL for p in layered_points(lifted)]
            _run(calls, seed)
        for seed, m in enumerate(partial_corpus(6, seed=76)):
            flat = flatten(m.general)
            calls = _family_calls(m, forces_partial, entails_partial, naive_partial_forces)
            calls += _birelational_calls(flat, MODAL_POOL[:4], GAMMAS[:2])
            _run(calls, seed)


class TestAdmittedKernels:
    def test_not_strong_raises_on_every_call(self):
        """A birelational model that is not strong: forces_mk raises each
        time, before and after forces_ik answered, and forces_ik still
        answers after."""
        rng = random.Random(77)
        m = None
        while m is None or naive_class(m) != "birelational":
            bare = random_birelational(rng, 3, 0.4)
            m = BirelationalModel(bare.frame, bare.r, random_valuation(rng, bare.frame, ATOMS))
        w, f = m.frame.sorted_worlds()[0], parse("[]p1 -> <>p2")
        message = re.escape("model classifies as 'birelational'; " + MESSAGES["strong"])
        for _ in range(3):
            with pytest.raises(NotStrongError, match=message):
                forces_mk(m, w, f)
            assert forces_ik(m, w, f) is naive_ik_forces(m, w, f)
            for call in (lambda: entails_mk(m, w, (f,), f), lambda: valid_mk(m, (), f)):
                with pytest.raises(NotStrongError, match=message):
                    call()

    def test_flags_kept_apart(self):
        """Non-unique witnesses: 'strong' without the uniqueness requirement,
        'none' with it.  Each flag keeps its own answer or error, in either
        order."""
        frame = build_frame(["w1", "w2"], [("w1", "w2")])
        m = BirelationalModel(frame, frozenset({("w1", "w2"), ("w2", "w2")}),
                              frozenset({("w2", "p1")}))
        assert (naive_class(m, True), naive_class(m, False)) == ("none", "strong")
        f = parse("[]p1 & <>p1")
        for _ in range(2):
            for logic, fn, naive in (("ik", forces_ik, naive_ik_forces),
                                     ("mk", forces_mk, naive_mk_forces)):
                assert fn(m, "w1", f, require_unique=False) is naive(m, "w1", f) is True
                error = NotStrongError if logic == "mk" else NotBirelationalError
                with pytest.raises(error, match="model classifies as 'none'"):
                    fn(m, "w1", f, require_unique=True)
        assert (classify(m, True), classify(m, False)) == ("none", "strong")

    def test_modal_and_implication_nodes_with_one_mask(self):
        """[]p, <>p and ~p read the same mask, the extension of p; so does
        p entailing _|_.  Each keeps its own answer, in every order."""
        frame = build_frame(["a", "b", "c"], [])
        m = BirelationalModel(frame, frozenset({("a", "b"), ("c", "b"), ("c", "c")}),
                              frozenset({("b", "p")}))
        assert classify(m) == "excessive"
        box, dia, neg = parse("[]p"), parse("<>p"), parse("~p")
        calls = [(lambda fn=fn, w=w, f=f: fn(m, w, f), naive(m, w, f))
                 for fn, naive in ((forces_ik, naive_ik_forces), (forces_mk, naive_mk_forces))
                 for f in (box, dia, neg) for w in "abc"]
        calls += [(lambda fn=fn, w=w: fn(m, w, (parse("p"),), parse("_|_")),
                   naive_mk_forces(m, w, neg)) for fn in (entails_ik, entails_mk) for w in "abc"]
        answers = {w: (naive_mk_forces(m, w, box), naive_mk_forces(m, w, dia),
                       naive_mk_forces(m, w, neg)) for w in "abc"}
        assert len(set(answers.values())) > 1 and any(len(set(a)) > 1 for a in answers.values())
        for seed in range(6):
            m = BirelationalModel(m.frame, m.r, m.val)  # fresh kernels for each order
            _run(calls, seed)
        formulas = [box, dia, neg]
        for seed in range(6):  # one homogeneous family: box and diamond read one relation
            g = general_model({"A": build_prop_model(frame, {"b": ["p"]}),
                               "B": build_prop_model(frame, {"b": ["p"], "c": ["p"]})},
                              [("A", "B"), ("B", "A"), ("B", "B")])
            h = as_homogeneous(g)
            random.Random(seed).shuffle(formulas)
            for f in formulas:
                for k, w in g.cells():
                    assert forces_homogeneous(h, k, w, f) is naive_homogeneous_forces(h, k, w, f)


class TestLiftReusesMembers:
    def test_level0_props_are_the_members(self):
        for h in homogeneous_corpus(8, seed=78):
            for (k, member), (k2, obj) in zip(h.general.submodels, lift(h).objects):
                assert k == k2 and obj.prop is member
                fresh = PropModel(Frame(frozenset(obj.object_names()), obj.relation("le")),
                                  obj.val)
                assert obj.prop == fresh

    def test_dump_unchanged(self):
        """dump_higher of a lift equals the dump of the same model built
        without the members' props, and a hand-written file."""
        frame = build_frame(["u", "v"], [("u", "v")])
        h = as_homogeneous(general_model(
            {"A": build_prop_model(frame, {"v": ["p"]}),
             "B": build_prop_model(frame, {"u": ["p"], "v": ["p", "q"]})},
            [("A", "B"), ("B", "B")]))
        assert dump_higher(lift(h)) == (
            "nmodel H level 1\n"
            "model A\nworlds u v\nle u v\nval u :\nval v : p\nend\n"
            "model B\nworlds u v\nle u v\nval u : p\nval v : p q\nend\n"
            "rel succ A B\nrel succ B B\nend\n")
        for h in [h, *homogeneous_corpus(8, seed=79)]:
            lifted = lift(h)
            bare = HigherOrderModel(1, tuple(
                (k, HigherOrderModel(0, tuple((w, None) for w in m.frame.sorted_worlds()),
                                     (("le", m.frame.le),), m.val))
                for k, m in h.general.submodels), (("succ", h.general.succ),))
            assert lifted == bare and dump_higher(lifted) == dump_higher(bare)
            assert loads(dump_higher(lifted)).as_higher() == lifted
