"""The wellscape benchmark: time to delta_c and CLI certify/IO cycles.

Run from the root of a checkout, one workload per process:

    python3 bench/bench.py --workload bisect_v1_256 --seed 1 --seconds 30 --trace 0

The workloads and the metrics, with their units and bounds, are listed in
BENCHMARK.json; bench/workloads.py says why each workload is there.

--trace 0 reports the end-to-end metrics: setup_s (median over several
set-ups, each in a fresh process but one), solve_cpu_s (median per op),
work_per_cpu_s (median per op of work units per CPU second) and
peak_rss_mb.
Times are CPU seconds of the whole process, all threads.  On the shared
two-core virtual machine the benchmark was defined on, the hypervisor took
bursts of several seconds for other guests ("steal"); these lengthened a
critical_delta call's wall time by up to a third while its CPU time moved
by a few percent.  Each op's wall time is kept in the report.
--trace 1 reports the per-layer metrics: it runs each op once plainly and
once traced (the difference is trace.overhead_frac), times the grid
operator applies standalone, and writes the spans to .bench_out/.

Every op's answer is checked.  Standard output ends with one JSON line
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
answers, the machine facts and every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 4     # set-ups timed in fresh processes, besides the run's own
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
APPLY_REPS = 60

# (module, attribute, layer): each layer is wrapped where its callers look it up
PATCHES = [
    ("wellscape.landscape", "energy_gradient", "energy.gradient"),
    ("wellscape.landscape", "energy_smoothed", "energy.smoothed"),
    ("wellscape.landscape", "energy", "energy.sharp"),
    ("wellscape.cli", "energy", "energy.sharp"),
    ("wellscape.landscape", "b_geometry", "energy.b_geometry"),
    ("wellscape.energy", "b_geometry", "energy.b_geometry"),
    ("wellscape.bounds", "b_geometry", "energy.b_geometry"),
    ("wellscape.cli", "b_geometry", "energy.b_geometry"),
    ("wellscape.landscape", "minimize", "landscape.minimize"),
    ("wellscape.landscape", "random_admissible", "landscape.random_admissible"),
    ("wellscape.cli", "random_admissible", "landscape.random_admissible"),
    ("wellscape.landscape", "branched_seed", "constructions.branched_seed"),
    ("wellscape.constructions", "branched_seed", "constructions.branched_seed"),
    ("wellscape.cli", "write_field", "grid.write_field"),
    ("wellscape.cli", "read_field", "grid.read_field"),
    ("wellscape.bounds", "lemma1_check", "bounds.checks"),
    ("wellscape.bounds", "poincare_check", "bounds.checks"),
    ("wellscape.bounds", "wopper_check", "bounds.checks"),
    ("wellscape.bounds", "killerinterp_check", "bounds.checks"),
    ("wellscape.bounds", "obstacle_qp_oracle", "bounds.obstacle_qp"),
    ("wellscape.cli", "run", "cli.run"),
]


def _file_bytes(args, _):
    return {"bytes": os.path.getsize(args[0])}


def stage_stops(trace: list[dict], cfg) -> list[str]:
    """Why each continuation stage of a minimize ended: gtol, cap or stalled."""
    stages = defaultdict(list)
    for rec in trace:
        stages[rec["stage"]].append(rec)
    stops = []
    for recs in stages.values():
        if recs[-1]["grad_norm"] <= cfg.gtol:
            stops.append("gtol")
        elif len(recs) == cfg.max_iters:
            stops.append("cap")
        else:
            stops.append("stalled")   # backtracking found no decrease
    return stops


def _minimize_note(args, res):
    from wellscape import MinimizeConfig
    cfg = args[2] if len(args) > 2 and args[2] is not None else MinimizeConfig()
    return {"delta": args[1].delta, "iters": len(res.trace),
            "stops": stage_stops(res.trace, cfg),
            "backtrack_failures": res.backtrack_failures}


NOTES = {"landscape.minimize": _minimize_note,
         "grid.write_field": _file_bytes, "grid.read_field": _file_bytes}


# ---------------------------------------------------------------------------
# running ops

def timed_setup(workload, seed) -> float:
    """CPU seconds of one set-up: imports, grid, operator caches, warm-up."""
    cpu0 = process_time()
    workload.setup(seed, str(OUT))
    return process_time() - cpu0


def setup_in_child(args) -> float:
    out = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
                          "--setup-only"],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_op(workload, k, runner=None) -> dict:
    """One op, timed; runner(k, fn) -> (answer, wall) runs it under a tracer.

    "cpu_s" is the CPU time of the whole process (all threads, user and
    system) over the op; "wall" its wall time, which on a shared virtual
    machine also holds the seconds the hypervisor ran other guests.
    """
    rec = {"k": k}
    gc.collect()   # no cyclic garbage of earlier ops left to raise this op's peak RSS
    cpu0 = process_time()
    t0 = perf_counter()
    try:
        if runner is None:
            rec["answer"] = workload.op(k)
            rec["wall"] = perf_counter() - t0
        else:
            rec["answer"], rec["wall"] = runner(k, lambda: workload.op(k))
    except Exception:
        rec["wall"] = perf_counter() - t0
        rec["error"] = traceback.format_exc()
    rec["cpu_s"] = process_time() - cpu0
    return rec


def evaluate(workload, rec) -> None:
    """Fill in the op's facts and failed checks, outside its timer."""
    if "error" not in rec:
        try:
            rec["facts"] = workload.facts(rec["k"], rec["answer"])
            rec["failed"] = workload.check(rec["answer"], rec["facts"])
        except Exception:
            rec["error"] = traceback.format_exc()
    if "error" in rec:
        rec["facts"] = {"units": 0}
        rec["failed"] = {part: ["raised: " + rec["error"].strip().splitlines()[-1]]
                         for part in workload.parts}
    del rec["answer"]


def run_for(seconds, one_op) -> list[dict]:
    """Ops 0, 1, ... until seconds have passed; at least one."""
    records = []
    t_start = perf_counter()
    k = 0
    while not records or perf_counter() - t_start < seconds:
        records.extend(one_op(k))
        k += 1
    return records


# ---------------------------------------------------------------------------
# metrics

def untraced_metrics(setups, records, peak_rss_mb) -> dict:
    return {"setup_s": statistics.median(setups),
            "solve_cpu_s": statistics.median(r["cpu_s"] for r in records),
            "work_per_cpu_s": statistics.median(r["facts"]["units"] / r["cpu_s"]
                                                for r in records),
            "peak_rss_mb": peak_rss_mb}


def apply_times(n: int, seed: int) -> dict:
    """p50 wall per public operator apply on an n x n grid, in microseconds."""
    import numpy as np
    from wellscape import d_x, d_xx, d_xy, d_y, d_yy, make_grid, random_admissible
    from workloads import op_seed
    u = random_admissible(make_grid(1.0, n, n), np.random.default_rng(op_seed(seed, 0)))

    def p50_us(fns):
        samples = []
        for _ in range(APPLY_REPS):
            t0 = perf_counter()
            for fn in fns:
                fn(u)
            samples.append((perf_counter() - t0) / len(fns))
        return statistics.median(samples) * 1e6

    return {"grid.apply_y_us": p50_us((d_y, d_yy)),
            "grid.apply_x_us": p50_us((d_x, d_xx)),
            "grid.apply_xy_us": p50_us((d_xy,))}


def layer_metrics(tracer, plain, traced, workers) -> tuple[dict, dict]:
    """Per-layer metrics, per traced op; and the self-time accounting."""
    from spans import self_times
    n_ops = len(traced)
    shares = self_times(tracer.spans)
    by_layer = defaultdict(list)
    for s in tracer.spans:
        by_layer[s.name].append(s)

    def calls(layer):
        return len(by_layer[layer]) / n_ops

    def self_s(layer):
        return sum(shares[s.sid] for s in by_layer[layer]) / n_ops

    def p50_us(layer):
        durations = [s.t1 - s.t0 for s in by_layer[layer]]
        return statistics.median(durations) * 1e6 if durations else 0.0

    def io(layer):
        busy = sum(s.t1 - s.t0 for s in by_layer[layer])
        size = sum(tracer.notes.get(s.sid, {}).get("bytes", 0) for s in by_layer[layer])
        return busy / n_ops, (size / 1e6 / busy if busy > 0 else 0.0)

    def total(key):
        return sum(r["facts"].get(key, 0) for r in traced)

    minimizes = [(s, tracer.notes[s.sid]) for s in by_layer["landscape.minimize"]
                 if s.sid in tracer.notes]   # a call that raised left no note
    stops = [stop for _, note in minimizes for stop in note["stops"]]
    predicates = defaultdict(list)   # (op, delta) -> the portfolio's minimize spans
    for s, note in minimizes:
        predicates[(s.op, note["delta"])].append(s)
    predicate_wall = sum(max(s.t1 for s in group) - min(s.t0 for s in group)
                         for group in predicates.values())
    busy = sum(s.t1 - s.t0 for s, _ in minimizes)
    write_s, write_rate = io("grid.write_field")
    read_s, read_rate = io("grid.read_field")

    metrics = {
        "energy.gradient.calls": calls("energy.gradient"),
        "energy.gradient.self_s": self_s("energy.gradient"),
        "energy.gradient.p50_us": p50_us("energy.gradient"),
        "energy.smoothed.calls": calls("energy.smoothed"),
        "energy.smoothed.self_s": self_s("energy.smoothed"),
        "energy.smoothed.p50_us": p50_us("energy.smoothed"),
        "energy.sharp.calls": calls("energy.sharp"),
        "energy.sharp.self_s": self_s("energy.sharp"),
        "energy.b_geometry.calls": calls("energy.b_geometry"),
        "energy.b_geometry.self_s": self_s("energy.b_geometry"),
        "energy.b_geometry.p50_us": p50_us("energy.b_geometry"),
        "landscape.minimize.calls": calls("landscape.minimize"),
        "landscape.minimize.self_s": self_s("landscape.minimize"),
        "landscape.iters": sum(note["iters"] for _, note in minimizes) / n_ops,
        "landscape.evals_per_iter": (calls("energy.smoothed") / calls("energy.gradient")
                                     if by_layer["energy.gradient"] else 0.0),
        "landscape.cap_stop_frac": stops.count("cap") / len(stops) if stops else 0.0,
        "landscape.backtrack_failures": sum(note["backtrack_failures"]
                                            for _, note in minimizes) / n_ops,
        "landscape.predicate.calls": total("predicate_calls") / n_ops,
        "landscape.pool_busy_frac": (busy / (workers * predicate_wall)
                                     if predicate_wall > 0 else 0.0),
        "landscape.predicate_inversions": total("predicate_inversions") / n_ops,
        "landscape.portfolio_size": max((r["facts"].get("portfolio_size", 0)
                                         for r in traced), default=0),
        "landscape.random_admissible.self_s": self_s("landscape.random_admissible"),
        "grid.write_field.s": write_s,
        "grid.write_field.mb_per_s": write_rate,
        "grid.read_field.s": read_s,
        "grid.read_field.mb_per_s": read_rate,
        "constructions.branched_seed.self_s": self_s("constructions.branched_seed"),
        "bounds.checks.calls": calls("bounds.checks"),
        "bounds.checks.self_s": self_s("bounds.checks"),
        "bounds.obstacle_qp.self_s": self_s("bounds.obstacle_qp"),
        "cli.run.self_s": self_s("cli.run"),
        "cli.artifact_bytes": total("artifact_bytes") / n_ops,
        "trace.overhead_frac": (sum(r["cpu_s"] for r in traced)
                                / sum(r["cpu_s"] for r in plain) - 1.0),
    }
    traced_wall = sum(r["wall"] for r in traced)
    accounting = {"self_sum_s": sum(shares.values()) / n_ops,
                  "traced_op_s": traced_wall / n_ops,
                  "plain_op_s": sum(r["wall"] for r in plain) / n_ops,
                  "op_self_s": self_s("op"),
                  "stage_stops": {k: stops.count(k) for k in ("cap", "gtol", "stalled")}}
    return metrics, accounting


# ---------------------------------------------------------------------------
# facts and output

def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:   # no procfs: the pinned environment variables stand
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def pool_workers(records) -> int:
    """Workers of critical_delta's predicate pool at threads=0 (1: no pool)."""
    portfolio = max((r["facts"].get("portfolio_size", 0) for r in records), default=0)
    return min(portfolio, os.cpu_count() or 1) if portfolio else 1


def machine_facts(workers: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "pool_workers": workers,
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wellscape" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'wellscape'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:   # before numpy loads: pool workers x BLAS threads <= nproc
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        print(repr(timed_setup(workload, args.seed)))
        return 0

    spec = load_spec()
    if args.trace:
        setups = [timed_setup(workload, args.seed)]
        from spans import Tracer
        tracer = Tracer()

        def traced_runner(k, fn):
            for module, attr, layer in PATCHES:
                tracer.patch(module, attr, layer, NOTES.get(layer))
            try:
                return tracer.run_op(k, fn)
            finally:
                tracer.restore()

        pairs = run_for(args.seconds, lambda k: [run_op(workload, k),
                                                 run_op(workload, k, traced_runner)])
        for rec in pairs:
            evaluate(workload, rec)
        plain, traced = pairs[0::2], pairs[1::2]
        workers = pool_workers(pairs)
        metrics, accounting = layer_metrics(tracer, plain, traced, workers)
        metrics.update(apply_times(workload.apply_n, args.seed))
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
        records = pairs
        metric_units = spec["per_layer"]
    else:
        setups = [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
        setups.append(timed_setup(workload, args.seed))
        records = run_for(args.seconds, lambda k: [run_op(workload, k)])
        # peak RSS of set-up and ops, before the answer checks allocate their own
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rec in records:
            evaluate(workload, rec)
        workers = pool_workers(records)
        metrics = untraced_metrics(setups, records, peak)
        accounting = None
        metric_units = spec["end_to_end"]
    if set(metrics) != set(metric_units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(metric_units))} "
                           "do not match BENCHMARK.json")

    attempted = sum(len(r["failed"]) for r in records)
    failed = sum(1 for r in records for why in r["failed"].values() if why)
    correct = failed == 0
    if accounting is not None and abs(accounting["self_sum_s"] - accounting["traced_op_s"]) \
            > 1e-6 * accounting["traced_op_s"]:
        print("trace accounting: self times do not add up to the traced op wall",
              file=sys.stderr)
        correct = False

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "samples": len(records), "unit": workload.unit,
              "setup_samples_s": setups, "machine": machine_facts(workers),
              "ops": records, "accounting": accounting,
              "fail_frac": failed / attempted}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print("report " + json.dumps(report, default=str))
    for rec in records:
        if "error" in rec:
            print(f"op {rec['k']} raised:\n{rec['error']}", file=sys.stderr)
        for part, why in rec["failed"].items():
            for reason in why:
                print(f"FAILED op {rec['k']} {part}: {reason}")
    print(f"{len(records)} ops, work counted in {workload.unit}; median wall per op "
          f"{statistics.median(r['wall'] for r in records):.6g} s")
    if accounting is not None:
        print(f"layer self times add up to {accounting['self_sum_s']:.6g} s per traced op "
              f"(traced wall {accounting['traced_op_s']:.6g} s, untraced "
              f"{accounting['plain_op_s']:.6g} s); stage stops {accounting['stage_stops']}")
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:>16.6g} {metric_units[name]}")
    print(f"{'fail_frac':40s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": metric_units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
