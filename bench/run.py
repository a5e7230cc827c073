"""imk benchmark: one workload per call, every pass in a fresh interpreter.

    python3 bench/run.py --workload sweep|search|cli|all --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the ``src/imk`` next to this
directory.  With ``--trace 0`` the passes run with tracing off until
``--seconds`` have gone by (at least one), and the end-to-end metrics are
medians over the passes (latency percentiles over all queries of all
passes).  With ``--trace 1`` one untraced pass, one traced pass and, for
search and cli, one replay pass run, and the per-layer metrics come from
the spans.  Human-readable lines go first; the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit code 0 when the benchmark ran (wrong answers show as
``"correct": false``), 2 when it could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep", "search", "cli")
REPLAYS = ("search", "cli")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

perf = time.perf_counter


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = perf() + DEADLINE_S

    def child(self, workload: str, mode: str, hash_seed: int = 0) -> dict:
        """One fresh interpreter; set-up time counts from before it starts.

        The i-th pass of every run gets PYTHONHASHSEED=i: set iteration
        order, and with it imk's closure loop, changes with the hash seed, so
        every run and every commit averages over the same hash seeds."""
        left = self.deadline - perf()
        if left <= 0:
            raise BenchError("out of time before the run finished")
        WORK.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=WORK)
        start = perf()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), workload, str(self.seed), mode,
                 workdir], cwd=ROOT, capture_output=True, text=True, timeout=left,
                env={**os.environ, "PYTHONHASHSEED": str(hash_seed)})
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} pass did not finish in time")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{workload} {mode} pass failed:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().split("\n")[-1])
        out["setup_s"] = out["ready"] - start
        out["took"] = perf() - start
        return out


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# What one verdict, one model and one query are in each workload.
UNITS_OF_WORK = {
    "sweep": ("(point, formula) forcing answers", "models built and checked",
              "one model checked against its pool"),
    "search": ("models decided by find_countermodel",
               "models examined by find plus models enumerated and serialized",
               "one model of the enumerate+serialize stream"),
    "cli": ("per-cell verdicts printed by check", "model files read",
            "one cli.main(argv) call"),
}


def end_to_end(workload: str, runner: Runner, seconds: float) -> tuple[dict, dict, list]:
    passes = []
    start = perf()
    while not passes or (perf() - start < seconds
                         and perf() + 2 * passes[-1]["took"] < runner.deadline):
        passes.append(runner.child(workload, "plain", len(passes)))
    setups = [p["setup_s"] for p in passes]
    digests = {p["digest"] for p in passes}
    while len(setups) < SETUP_SAMPLES:
        extra = runner.child(workload, "setup", len(setups))
        setups.append(extra["setup_s"])
        digests.add(extra["digest"])
    lat = sorted(x for p in passes for x in p["lat"])
    med = lambda key: statistics.median(key(p) for p in passes)
    verdict, model, query = UNITS_OF_WORK[workload]
    n = len(passes)
    metrics = {
        "setup_s": (statistics.median(setups), f"{len(setups)} set-ups"),
        "wall_s": (med(lambda p: p["wall"]), f"{n} passes"),
        "verdicts_per_s": (med(lambda p: p["verdicts"] / p["wall"]),
                           f"{n} passes of {passes[0]['verdicts']} {verdict}"),
        "models_per_s": (med(lambda p: p["models"] / p["wall"]),
                         f"{n} passes of {passes[0]['models']} {model}"),
        "query_p50_ms": (percentile(lat, 0.5) * 1e3, f"{len(lat)} queries: {query}"),
        "query_p90_ms": (percentile(lat, 0.9) * 1e3,
                         f"{len(lat)} queries, {len(lat) - math.ceil(0.9 * len(lat))} above"),
        "peak_rss_mb": (med(lambda p: p["rss_mb"]), f"{n} passes"),
    }
    totals = summarize(passes)
    totals["correct"] = totals["correct"] and len(digests) == 1
    if len(digests) != 1:
        print(f"{workload}: the same seed gave different inputs: {sorted(digests)}")
    print(f"{workload}: seed {runner.seed}, inputs {digests.pop()}")
    return metrics, totals, passes


def summarize(passes) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"correct": all(p["wrong"] == 0 for p in passes),
            "attempted": attempted, "failed": failed}


def per_layer(workload: str, runner: Runner) -> tuple[dict, dict]:
    plain = runner.child(workload, "plain")
    traced = runner.child(workload, "traced")
    replay = runner.child(workload, "replay") if workload in REPLAYS else {}
    spans = [traced["layers"]] + ([replay["layers"]] if replay else [])
    calls = lambda name: sum(s["calls"].get(name, 0) for s in spans)
    self_s = lambda name: sum(s["self_s"].get(name, 0.0) for s in spans)
    count = lambda name: sum(s["counts"].get(name, 0) for s in spans)
    replay_enum = replay["layers"]["self_s"].get("search.enumerate", 0.0) if replay else 0.0
    candidates = count("search.candidates")
    values = {
        "formulas.parse_calls": calls("formulas.parse"),
        "formulas.parse_s": self_s("formulas.parse"),
        "formulas.nodes": count("formulas.nodes"),
        "modelfile.load_calls": calls("modelfile.load"),
        "modelfile.load_s": self_s("modelfile.load"),
        "modelfile.bytes_read": count("modelfile.bytes_read"),
        "modelfile.dump_calls": calls("modelfile.dump"),
        "modelfile.dump_s": self_s("modelfile.dump"),
        "modelfile.bytes_written": count("modelfile.bytes_written"),
        "kripke.build_calls": calls("kripke.build"),
        "kripke.build_s": self_s("kripke.build"),
        "kripke.le_pairs": count("kripke.le_pairs"),
        "kripke.forces_calls": calls("kripke.forces"),
        "kripke.forces_s": self_s("kripke.forces"),
        "birelational.classify_calls": calls("birelational.classify"),
        "birelational.classify_s": self_s("birelational.classify"),
        "birelational.check_condition_s": self_s("birelational.check_condition"),
        "birelational.forces_ik_calls": calls("birelational.forces_ik"),
        "birelational.forces_ik_s": self_s("birelational.forces_ik"),
        "birelational.forces_mk_calls": calls("birelational.forces_mk"),
        "birelational.forces_mk_s": self_s("birelational.forces_mk"),
        "general.build_s": self_s("general.build"),
        "general.forces_partial_calls": calls("general.forces_partial"),
        "general.forces_partial_s": self_s("general.forces_partial"),
        "general.forces_homogeneous_calls": calls("general.forces_homogeneous"),
        "general.forces_homogeneous_s": self_s("general.forces_homogeneous"),
        "flatten.calls": calls("flatten.flatten"),
        "flatten.flatten_s": self_s("flatten.flatten"),
        "flatten.flat_worlds": count("flatten.flat_worlds"),
        "higher.lift_s": self_s("higher.lift"),
        "higher.evaluate_calls": calls("higher.evaluate"),
        "higher.evaluate_s": self_s("higher.evaluate"),
        "search.find_s": self_s("search.find"),
        "search.models_examined": count("search.models_examined"),
        "search.enumerate_s": self_s("search.enumerate"),
        "search.check_s": self_s("search.find") - replay_enum,
        "search.candidates": candidates,
        "search.yield_ratio": count("search.yielded") / candidates if candidates else 0.0,
        "cli.queries": calls("cli.main"),
        "cli.main_s": self_s("cli.main"),
        "cli.self_s": self_s("cli.main") - count("cli.replay_s"),
        "cli.exit_1": count("cli.exit_1"),
        "cli.exit_2": count("cli.exit_2"),
        "trace.overhead_frac": traced["wall"] / plain["wall"] - 1,
    }
    totals = summarize([plain, traced])
    totals["correct"] = totals["correct"] and plain["digest"] == traced["digest"]
    print(f"{workload}: seed {runner.seed}, inputs {plain['digest']}, "
          f"untraced wall {plain['wall']:.4f} s, traced wall {traced['wall']:.4f} s")
    return values, totals


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")


def run_workload(workload: str, args, spec: dict) -> tuple[dict, dict]:
    runner = Runner(args.seed)
    if args.trace:
        values, totals = per_layer(workload, runner)
        notes = {}
        listed = spec["per_layer"]
    else:
        found, totals, _ = end_to_end(workload, runner, args.seconds)
        values = {k: v for k, (v, _) in found.items()}
        notes = {k: note for k, (_, note) in found.items()}
        listed = spec["end_to_end"]
    if {m["name"] for m in listed} != set(values):
        raise BenchError("metrics measured differ from those BENCHMARK.json lists")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{workload:6s} {m['name']:34s} {values[m['name']]:>14.6g} {m['unit']:6s} "
              f"{notes.get(m['name'], '')}")
    frac = totals["failed"] / totals["attempted"]
    print(f"{workload:6s} {'failed_frac':34s} {frac:>14.6g} ratio  "
          f"{totals['failed']} of {totals['attempted']} operations")
    return metrics, totals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "imk" / "__init__.py").is_file():
            raise BenchError(f"no imk sources at {ROOT / 'src' / 'imk'}")
        spec = load_spec()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, totals = {}, {"correct": True, "attempted": 0, "failed": 0}
        for name in names:
            found, sums = run_workload(name, args, spec)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
            totals = {"correct": totals["correct"] and sums["correct"],
                      "attempted": totals["attempted"] + sums["attempted"],
                      "failed": totals["failed"] + sums["failed"]}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({**totals, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
