"""Scale guards.

A 2,000-world timeline goes through the CLI in linear work.  A chain, and
a total preorder of random clusters, each with identity r, are read from
model files by ``imk classify``, ``imk frame-check --json`` and
``imk check --logic ik|mk``.  Identity r meets F1-F4 with unique witnesses
on every preorder, so both models are excessive, and box and diamond then
read a world's own atoms: ``[]p`` holds exactly where ``p`` does.  Each
query must finish within a generous bound: closure and F1-F4 run in one
pass over the components of the generators, where quadratic work took
seconds per query on these models.

A layered kernel costs about what its family's cell kernel does, whatever
the member count: lifting a 400-member family with a full succ (160,000
pairs) reads each pair's prefixes from one grouping by top object, where
scanning every prefix per pair cost over ten times the family kernel.
"""

import json
import random
import time

import pytest

from imk import as_homogeneous, build_frame, build_prop_model, general_model, lift
from imk.cli import main

N = 2000
BOUND_S = 2.0  # per query


def _model_text(blocks: bool, seed: int) -> tuple[str, set]:
    """A chain of N worlds in shuffled order, or with blocks a total preorder
    of clusters of 1-3 worlds; p holds on the clusters that start in the top
    half.  Returns the file and the worlds where p holds."""
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(N)]
    rng.shuffle(worlds)
    le, top, prev, i = [], set(), None, 0
    while i < N:
        block = worlds[i:i + (rng.randint(1, 3) if blocks else 1)]
        le += [(a, b) for a in block for b in block if a != b]
        if prev:
            le.append((prev, block[0]))
        if i >= N // 2:
            top.update(block)
        prev, i = block[-1], i + len(block)
    lines = ["model T", "worlds " + " ".join(sorted(worlds))]
    lines += [f"le {a} {b}" for a, b in le] + [f"r {w} {w}" for w in sorted(worlds)]
    lines += [f"val {w} : p" for w in sorted(top)] + ["end"]
    return "\n".join(lines) + "\n", top


@pytest.mark.parametrize("blocks", [False, True], ids=["chain", "clusters"])
def test_two_thousand_worlds(tmp_path, capsys, blocks):
    text, top = _model_text(blocks, seed=18)
    path = tmp_path / "timeline.km"
    path.write_text(text)

    def run(*argv: str) -> str:
        start = time.perf_counter()
        assert main([*argv, "--model", str(path)]) == 0
        took = time.perf_counter() - start
        assert took < BOUND_S, f"{argv[0]} took {took:.2f} s on {N} worlds"
        return capsys.readouterr().out

    assert run("classify").strip() == "excessive"
    data = json.loads(run("frame-check", "--json"))
    assert data["class"] == "excessive"
    assert [(r["condition"], r["holds"], r["unique"], r["violations"], r["nonunique"])
            for r in data["reports"]] == [(c, True, True, [], []) for c in ("F1", "F2", "F3", "F4")]
    for logic in ("ik", "mk"):
        out = run("check", "--logic", logic, "--formula", "[]p")
        verdicts = dict(line.split(": ") for line in out.strip().split("\n"))
        assert verdicts == {w: "true" if w in top else "false" for w in verdicts}
        assert len(verdicts) == N
        out = run("check", "--logic", logic, "--formula", "(p -> []p) & (<>p -> p)")
        assert set(out.strip().replace(": ", " ").split()[1::2]) == {"true"}


def test_layered_kernel_of_a_dense_family():
    frame = build_frame({"a", "b"}, {("a", "b")})
    members = {f"K{i:03d}": build_prop_model(frame, {"b": {"p"}} if i % 2 else {"a": {"q"}, "b": {"q"}})
               for i in range(400)}
    g = general_model(members, {(a, b) for a in members for b in members})

    def best(kernel_of, model):  # fastest of three fresh builds
        took = []
        for _ in range(3):
            m = model()
            start = time.perf_counter()
            kernel = kernel_of(m)
            took.append(time.perf_counter() - start)
        return kernel, min(took)

    h, h_s = best(lambda m: m.kernel, lambda: as_homogeneous(g))
    layered, layered_s = best(lambda m: m.kernel, lambda: lift(as_homogeneous(g)))
    assert list(layered.index) == [((k,), w) for k, w in h.index]
    assert (layered.up, layered.rel, layered.atoms) == (h.up, h.rel, h.atoms)
    assert layered_s < 8 * h_s, f"layered {layered_s:.2f} s against {h_s:.2f} s"
