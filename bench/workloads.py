"""The benchmark's workloads.

Each workload sets up once per process (imports, grid and operator-cache
build, one warm-up call), then runs ops until the run's time is used up.
An op is the unit that solve_cpu_s times.  Every op's answer is checked after
its timer stops; an exception, a nonzero CLI exit or a failed check marks
the op's parts failed.  Input sizes are fixed here; only the run length is
set from outside, and every random input is drawn from the workload seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random

# the descent schedule of the acceptance criteria
ACCEPTANCE_CFG = dict(max_iters=60, w_init=0.2, w_factor=0.25, w_floor=0.04)


def op_seed(seed: int, k: int) -> int:
    """The library seed for op k of a run started with --seed seed."""
    return random.Random(seed * 1_000_003 + k).randrange(2**31)


def predicate_inversions(evaluations) -> int:
    """Pairs (lower delta beats E(0), higher delta does not) of a bisection."""
    ordered = sorted(evaluations, key=lambda e: e.delta)
    return sum(1 for i, lo in enumerate(ordered) for hi in ordered[i + 1:]
               if lo.beats and not hi.beats)


class Bisect:
    """critical_delta on an n x n grid of [0,1] x [0,1]."""

    parts = ("critical_delta",)
    unit = "descents"

    def __init__(self, epsilon, n, variant, tol_rel, reference):
        self.epsilon, self.n, self.variant = epsilon, n, variant
        self.tol_rel = tol_rel
        self.apply_n = n   # grid of the standalone operator-apply timings
        # (delta_lo, delta_hi) when the benchmark was defined; an answer must
        # overlap it, i.e. keep its midpoint within the bisection tolerance
        self.reference = reference

    def setup(self, seed, work_dir):
        from wellscape import (EnergyParams, MinimizeConfig, energy,
                               energy_gradient, energy_smoothed, make_grid,
                               multistart_portfolio)
        self.seed = seed
        self.cfg = MinimizeConfig(**ACCEPTANCE_CFG)
        self.grid = make_grid(1.0, self.n, self.n)
        starts = dict(multistart_portfolio(self.epsilon, self.grid, seed=op_seed(seed, 0)))
        start = starts.get("branched", starts["zero"])
        p = EnergyParams(self.epsilon, self.reference[1], self.variant,
                         smooth_w=self.cfg.w_init)
        energy_smoothed(start, p)
        energy_gradient(start, p)
        energy(start, p)

    def op(self, k):
        from wellscape import landscape
        return landscape.critical_delta(self.epsilon, 1.0, self.variant, self.grid,
                                        self.cfg, tol_rel=self.tol_rel,
                                        seed=op_seed(self.seed, k))

    def facts(self, k, res):
        from wellscape import multistart_portfolio
        portfolio = len(multistart_portfolio(self.epsilon, self.grid, seed=op_seed(self.seed, k)))
        return {"units": portfolio * len(res.evaluations),
                "portfolio_size": portfolio,
                "predicate_calls": len(res.evaluations),
                "predicate_inversions": predicate_inversions(res.evaluations),
                "delta_lo": res.delta_lo, "delta_hi": res.delta_hi,
                "midpoint": res.midpoint,
                "winners": [e.winner for e in res.evaluations]}

    def check(self, res, facts):
        failed = []
        if res.delta_hi / res.delta_lo > 1.0 + self.tol_rel:
            failed.append("bracket wider than tol_rel")
        ref_lo, ref_hi = self.reference
        if res.delta_hi < ref_lo or res.delta_lo > ref_hi:
            failed.append("bracket misses the reference bracket")
        if facts["predicate_inversions"]:
            failed.append("predicate not monotone in delta")
        if facts["portfolio_size"] < 5:
            failed.append("portfolio shrank below 5 starts")
        return {"critical_delta": failed}


class CertifyIO:
    """One in-process wellscape.cli.run cycle of four commands."""

    parts = ("construct-branched", "energy", "verify-inequalities", "obstacle-1d")
    unit = "CLI commands"
    epsilon = 1e-3
    energy_delta = 0.05
    apply_n = 256

    def setup(self, seed, work_dir):
        from wellscape import cli
        self.seed = seed
        self.dir = os.path.join(work_dir, "certify")
        os.makedirs(self.dir, exist_ok=True)
        field_path = os.path.join(self.dir, "construct-branched", "field.wsf1")
        configs = {
            "construct-branched": {"grid": {"L": 1.0, "nx": 1024, "ny": 1024},
                                   "construction": {"epsilon": self.epsilon}},
            "energy": {"input": {"field": field_path},
                       "energy": {"epsilon": self.epsilon, "delta": self.energy_delta,
                                  "variant": 3}},
            "verify-inequalities": {"grid": {"L": 1.0, "nx": 256, "ny": 256},
                                    "energy": {"epsilon": 0.01}, "n_random": 20},
            "obstacle-1d": {},
        }
        self.configs = {}
        for command, body in configs.items():
            path = os.path.join(self.dir, f"{command}.json")
            with open(path, "w") as fh:
                json.dump({"schema": 1, "command": command, **body}, fh)
            self.configs[command] = path
        self._reference = None
        if cli.run(self.configs["obstacle-1d"], self._out("warmup")) != 0:
            raise RuntimeError("warm-up obstacle-1d run failed")

    def _out(self, command):
        return os.path.join(self.dir, command)

    def op(self, k):
        from wellscape import cli
        s = op_seed(self.seed, k)
        return {command: cli.run(path, self._out(command), seed=s)
                for command, path in self.configs.items()}

    def _expected(self):
        """The constructed field and breakdowns, computed in memory once."""
        if self._reference is None:
            from wellscape import (BranchedSpec, EnergyParams, branched_seed,
                                   energy, make_grid, read_field)
            field = branched_seed(BranchedSpec.from_epsilon(self.epsilon, 1.0),
                                  make_grid(1.0, 1024, 1024))
            path = os.path.join(self._out("construct-branched"), "field.wsf1")
            back = read_field(path)
            self._reference = {
                "field_identical": bool((back.values == field.values).all()),
                "field_sha256": _sha256(path),
                "construct": energy(field, EnergyParams(self.epsilon, 0.0, 3)).to_json_dict(),
                "energy": energy(field, EnergyParams(self.epsilon, self.energy_delta,
                                                     3)).to_json_dict(),
            }
        return self._reference

    def check(self, codes, facts):
        failed = {c: ([] if code == 0 else [f"exit status {code}"])
                  for c, code in codes.items()}
        if codes["construct-branched"] == 0:
            ref = self._expected()
            out = self._out("construct-branched")
            same = _sha256(os.path.join(out, "field.wsf1")) == ref["field_sha256"]
            if not (ref["field_identical"] and same):
                failed["construct-branched"].append("WSF1 read-back differs from the field")
            if _load(out, "breakdown.json") != ref["construct"]:
                failed["construct-branched"].append("breakdown.json differs from energy()")
            energy_out = self._out("energy")
            if codes["energy"] == 0 and _load(energy_out, "breakdown.json") != ref["energy"]:
                failed["energy"].append("breakdown.json differs from energy()")
        if codes["verify-inequalities"] == 0:
            with open(os.path.join(self._out("verify-inequalities"), "reports.csv")) as fh:
                rows = list(csv.DictReader(fh))
            if not rows or any(r["holds"] != "True" for r in rows):
                failed["verify-inequalities"].append("a reports.csv row does not hold")
        if codes["obstacle-1d"] == 0:
            results = _load(self._out("obstacle-1d"), "obstacle.json")["results"]
            if any(r["rel_err"] >= 0.01 for r in results):
                failed["obstacle-1d"].append("obstacle rel_err >= 1%")
        return failed

    def facts(self, k, codes):
        total = 0
        for command in self.configs:
            out = self._out(command)
            manifest = os.path.join(out, "manifest.json")
            if os.path.exists(manifest):
                names = _load(out, "manifest.json")["artifacts"] + ["manifest.json"]
                total += sum(os.path.getsize(os.path.join(out, n)) for n in names)
        return {"units": len(codes), "artifact_bytes": total}


def _load(directory, name):
    with open(os.path.join(directory, name)) as fh:
        return json.load(fh)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# Why each workload is in the benchmark:
WORKLOADS = {
    # The criterion-1 unit and the headline row: time to delta_c at 256^2.
    # Descent dominates it (energy_gradient and energy_smoothed take most of
    # a minimize, sharp energy a few percent), and the two-worker predicate
    # pool helps at this size.
    "bisect_v1_256": Bisect(0.01, 256, 1, 0.25,
                            (0.14678226921598164, 0.16991041644712798)),
    # The only workload where the WSF1 writer and reader, the bounds
    # checkers, constructions and the CLI's atomic artifact writes do the
    # work, with writes (a ~22 MB field) beside reads.  verify-inequalities
    # also runs sharp energy, b_geometry and random_admissible with no
    # descent around them, so a faster B-geometry shows here and descent
    # changes should not.
    "certify_io": CertifyIO(),
}
