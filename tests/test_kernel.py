"""The shared forcing path of kripke.Kernel.

Point forcing and entailment, with and without premises, and validity on
every semantics against the independent oracles of gen.py; the errors of
the point checks; the per-formula memo; and the order of build_frame
against a set-based closure."""

import random

import pytest

from imk import (BirelationalModel, UnknownWorldError, build_frame, build_prop_model, classify,
                 entails, entails_homogeneous, entails_ik, entails_mk,
                 entails_partial, evaluate, flatten, forces, forces_homogeneous,
                 forces_ik, forces_mk, forces_partial, lift, model_valid, parse,
                 valid_at_submodel, valid_ik, valid_in_model, valid_mk)
from imk.birelational import NotBirelationalError, NotStrongError
from imk.general import InvalidModelClassError, UnknownSubmodelError
from imk.higher import BadPathError
from imk.kripke import PropModel

from gen import (formula_pool, homogeneous_corpus, layered_points,
                 naive_closure, naive_family_entails, naive_forces,
                 naive_higher_eval, naive_homogeneous_forces, naive_ik_forces,
                 naive_mk_forces, naive_partial_forces, partial_corpus,
                 random_birelational, random_frame, random_valuation)

ATOMS = ["p1", "p2"]
PROP_POOL = formula_pool(16, 3, ATOMS, seed=91, modal=False)
MODAL_POOL = formula_pool(16, 3, ATOMS, seed=92)


def _gammas(pool):
    """No premises, one premise, two premises."""
    return [(), [pool[1]], (pool[2], pool[3])]


def _naive_entails(forces_at, le, w, gamma, f) -> bool:
    """Empty gamma: forcing at w; otherwise every later world forcing all of
    gamma forces f."""
    if not gamma:
        return forces_at(w, f)
    return all(forces_at(v, f) for a, v in le
               if a == w and all(forces_at(v, g) for g in gamma))


def _prop_models(count: int, seed: int) -> list[PropModel]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        frame = random_frame(rng, 4)
        out.append(PropModel(frame, random_valuation(rng, frame, ATOMS)))
    return out


def _birelational(count: int, seed: int, rank: str) -> list[BirelationalModel]:
    """Models of at least the given class: random ones with a valuation, and
    the flattened images of families."""
    rng = random.Random(seed)
    ok = {"birelational": ("birelational", "strong", "excessive"),
          "strong": ("strong", "excessive")}[rank]
    out = []
    while len(out) < count:
        m = random_birelational(rng, 4, rng.choice([0.2, 0.35, 0.5]))
        m = BirelationalModel(m.frame, m.r, random_valuation(rng, m.frame, ATOMS))
        if classify(m) in ok:
            out.append(m)
    families = partial_corpus(8, seed) if rank == "birelational" else \
        homogeneous_corpus(8, seed)
    return out + [flatten(m.general) for m in families]


class TestPropositional:
    def test_forces_and_entails(self):
        for m in _prop_models(60, 1):
            at = lambda w, g: naive_forces(m, w, g)
            for f in PROP_POOL:
                for w in m.frame.worlds:
                    assert forces(m, w, f) == naive_forces(m, w, f)
                    for gamma in _gammas(PROP_POOL):
                        want = _naive_entails(at, m.frame.le, w, gamma, f)
                        assert entails(m, w, gamma, f) == want
                        assert entails(m, w, iter(gamma), f) == want

    def test_model_valid(self):
        for m in _prop_models(60, 2):
            at = lambda w, g: naive_forces(m, w, g)
            for f in PROP_POOL:
                for gamma in _gammas(PROP_POOL):
                    assert model_valid(m, gamma, f) == all(
                        _naive_entails(at, m.frame.le, w, gamma, f)
                        for w in m.frame.worlds)


@pytest.mark.parametrize("logic", ["ik", "mk"])
class TestBirelational:
    SEMANTICS = {"ik": ("birelational", forces_ik, entails_ik, valid_ik, naive_ik_forces),
                 "mk": ("strong", forces_mk, entails_mk, valid_mk, naive_mk_forces)}

    def test_forces_entails_valid(self, logic):
        rank, force, entail, valid, naive = self.SEMANTICS[logic]
        for m in _birelational(40, 3, rank):
            at = lambda w, g: naive(m, w, g)
            for f in MODAL_POOL:
                for gamma in _gammas(MODAL_POOL):
                    want = {w: _naive_entails(at, m.frame.le, w, gamma, f)
                            for w in m.frame.worlds}
                    for w in m.frame.worlds:
                        assert entail(m, w, gamma, f) == want[w]
                        if not gamma:
                            assert force(m, w, f) == want[w]
                    assert valid(m, gamma, f) == all(want.values())


@pytest.mark.parametrize("kind", ["partial", "homogeneous"])
class TestFamilies:
    SEMANTICS = {"partial": (partial_corpus, forces_partial, entails_partial,
                             naive_partial_forces),
                 "homogeneous": (homogeneous_corpus, forces_homogeneous,
                                 entails_homogeneous, naive_homogeneous_forces)}

    def test_forces_entails_valid(self, kind):
        corpus, force, entail, naive = self.SEMANTICS[kind]
        for m in corpus(30, seed=94):
            for f in MODAL_POOL:
                for gamma in _gammas(MODAL_POOL):
                    want = {(k, w): naive_family_entails(naive, m, k, w, gamma, f)
                            for k, w in m.general.cells()}
                    for (k, w), v in want.items():
                        assert entail(m, k, w, gamma, f) == v
                        if not gamma:
                            assert force(m, k, w, f) == v
                    for k in m.general.ids:
                        assert valid_at_submodel(m, k, gamma, f) == all(
                            v for (k2, _), v in want.items() if k2 == k)
                    assert valid_in_model(m, gamma, f) == all(want.values())


class TestLayered:
    def test_evaluate_on_lifted_families(self):
        for h in homogeneous_corpus(10, seed=95):
            m = lift(h)
            for f in MODAL_POOL:
                for p in layered_points(m):
                    assert evaluate(m, p, f) == naive_higher_eval(m, p, f)


@pytest.fixture
def prop():
    return build_prop_model(build_frame({"w", "v"}, {("w", "v")}), {"v": {"p"}})


@pytest.fixture
def birel():
    """An excessive model and one that is birelational but not strong."""
    frame = build_frame({"w", "v"}, {("w", "v")})
    strong = BirelationalModel(frame, frozenset({("w", "w"), ("v", "v")}), frozenset())
    weak = BirelationalModel(build_frame({"a", "b", "c"}, {("a", "b")}),
                             frozenset({("b", "c")}), frozenset())
    assert classify(strong) == "excessive" and classify(weak) == "birelational"
    return strong, weak


class TestErrors:
    """Each point check raises the same type and message, whichever of
    forces_*, entails_* or valid_* asks."""
    F = parse("p")

    def _raises(self, call, exc, message):
        with pytest.raises(exc) as info:
            call()
        assert type(info.value) is exc and str(info.value) == message

    def test_unknown_world_propositional(self, prop):
        for call in (lambda: forces(prop, "ghost", self.F),
                     lambda: entails(prop, "ghost", [self.F], self.F)):
            self._raises(call, UnknownWorldError, "unknown world 'ghost'")

    def test_unknown_world_birelational(self, birel):
        m = birel[0]
        for call in (lambda: forces_ik(m, "ghost", self.F),
                     lambda: forces_mk(m, "ghost", self.F),
                     lambda: entails_ik(m, "ghost", [self.F], self.F),
                     lambda: entails_mk(m, "ghost", (), self.F)):
            self._raises(call, UnknownWorldError, "unknown world 'ghost'")

    def test_wrong_class_birelational(self, birel):
        weak = birel[1]
        none = BirelationalModel(build_frame({"a", "b"}, {("a", "b")}),
                                 frozenset({("a", "a")}), frozenset())
        assert classify(none) == "none"
        ik = "model classifies as 'none'; IK forcing requires F1 and F2"
        mk = "model classifies as {!r}; MK forcing requires F3 (a strong model)"
        # the class is checked before the world
        for call in (lambda: forces_ik(none, "ghost", self.F),
                     lambda: entails_ik(none, "a", [self.F], self.F),
                     lambda: valid_ik(none, [], self.F)):
            self._raises(call, NotBirelationalError, ik)
        for m, cls in ((none, "none"), (weak, "birelational")):
            for call in (lambda: forces_mk(m, "ghost", self.F),
                         lambda: entails_mk(m, "a", [self.F], self.F),
                         lambda: valid_mk(m, [], self.F)):
                self._raises(call, NotStrongError, mk.format(cls))

    @pytest.mark.parametrize("kind", ["partial", "homogeneous"])
    def test_unknown_cells(self, kind):
        force, entail = {"partial": (forces_partial, entails_partial),
                         "homogeneous": (forces_homogeneous, entails_homogeneous)}[kind]
        corpus = partial_corpus if kind == "partial" else homogeneous_corpus
        m = corpus(1, seed=96)[0]
        k, w = m.general.cells()[0]
        # an unknown member is reported before an unknown world
        for call in (lambda: force(m, "K9", w, self.F),
                     lambda: force(m, "K9", "ghost", self.F),
                     lambda: entail(m, "K9", w, [self.F], self.F),
                     lambda: valid_at_submodel(m, "K9", [], self.F)):
            self._raises(call, UnknownSubmodelError, "unknown submodel 'K9'")
        for call in (lambda: force(m, k, "ghost", self.F),
                     lambda: entail(m, k, "ghost", (), self.F)):
            self._raises(call, UnknownWorldError, "unknown world 'ghost'")

    def test_wrong_class_families(self, birel, prop):
        for m, name in ((birel[0], "BirelationalModel"), (prop, "PropModel")):
            message = f"expected a PartialModel or HomogeneousModel, got {name}"
            self._raises(lambda: valid_at_submodel(m, "K1", [], self.F),
                         InvalidModelClassError, message)

    def test_bad_path(self):
        m = lift(homogeneous_corpus(1, seed=97)[0])
        self._raises(lambda: evaluate(m, ["ghost"], self.F), BadPathError,
                     "no object or world at path ('ghost',)")


class TestMemo:
    def test_reused_id_is_not_a_hit(self, prop):
        """A formula's extension is kept under its id, with the formula
        itself: a later formula that gets the same id is evaluated afresh."""
        kernel = prop.kernel
        old, new = parse("p"), parse("~p")
        assert forces(prop, "v", old)
        kernel._roots[id(new)] = kernel._roots[id(old)]  # as if new took old's id
        assert not forces(prop, "v", new)
        assert forces(prop, "w", new) == naive_forces(prop, "w", new)

    def test_fresh_formulas_in_a_loop(self, prop):
        """Formulas built and dropped one after another, so that ids repeat."""
        for i in range(200):
            f = parse("~" * (i % 3) + "p")
            assert forces(prop, "v", f) == naive_forces(prop, "v", f)

    def test_layered_memo(self):
        h = homogeneous_corpus(1, seed=98)[0]
        m = lift(h)
        kernel = m.kernel
        old, new = parse("_|_"), parse("_|_ -> _|_")
        p = layered_points(m)[0]
        assert evaluate(m, p, old) is False
        kernel._forcing[id(new)] = kernel._forcing[id(old)]
        assert evaluate(m, p, new) is True


class TestClosure:
    """build_frame's order against a set-based closure of its pairs."""

    def test_random_generators(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 9)
            worlds = [f"w{i}" for i in range(n)]
            pairs = [(rng.choice(worlds), rng.choice(worlds))
                     for _ in range(rng.randint(0, 2 * n))]
            assert build_frame(worlds, pairs).le == naive_closure(worlds, pairs)

    def test_long_chains(self):
        rng = random.Random(100)
        worlds = [f"w{i}" for i in range(200)]
        chain = list(zip(worlds, worlds[1:]))
        rng.shuffle(chain)
        for pairs in (chain, chain + [(worlds[-1], worlds[0])],
                      chain[::2] + [(rng.choice(worlds), rng.choice(worlds))
                                    for _ in range(50)]):
            assert build_frame(iter(worlds), iter(pairs)).le == naive_closure(worlds, pairs)
        assert len(build_frame(worlds, chain).le) == 200 * 201 // 2
