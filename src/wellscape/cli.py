"""Config-driven batch front end.

One JSON config (schema 1) fully determines a run; with a fixed seed the
artifact bytes are reproducible.  Outputs are written atomically (temp file
+ rename) into the --out directory and listed in manifest.json together
with the config hash.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from contextlib import suppress
from dataclasses import replace

import numpy as np

from . import bounds as bnd
from . import constructions as cons
# b_geometry is not called here, but bench/ wraps it under this name
from .energy import (EmptyB, EnergyParams, TauOne, _cell_center_uy,  # noqa: F401
                     b_geometry, energy)
from .grid import ScalarField, make_grid, read_field, write_field, zero_field
from .landscape import (BracketNotFound, Diverged, MinimizeConfig,
                        critical_delta, local_minimality_probe, minimize,
                        random_admissible, scaling_sweep)


class ConfigError(ValueError):
    pass


def _atomic_write(out_dir: str, name: str, writer) -> str:
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            writer(fh)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return name


def _write_json(out_dir: str, name: str, payload) -> str:
    return _atomic_write(out_dir, name,
                         lambda fh: json.dump(payload, fh, indent=2, sort_keys=True))


def _write_field_artifact(out_dir: str, name: str, field: ScalarField) -> str:
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
    os.close(fd)
    try:
        write_field(tmp, field)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return name


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _grid_from(cfg: dict):
    g = _require(cfg, "grid")
    try:
        return make_grid(float(g["L"]), int(g["nx"]), int(g["ny"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad grid section: {exc}") from exc


def _params_from(cfg: dict) -> EnergyParams:
    e = _require(cfg, "energy")
    try:
        return EnergyParams(float(e["epsilon"]), float(e.get("delta", 0.0)),
                            int(e.get("variant", 1)))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad energy section: {exc}") from exc


def _mincfg_from(cfg: dict) -> MinimizeConfig:
    m = cfg.get("minimize", {})
    return MinimizeConfig(
        max_iters=int(m.get("max_iters", 150)),
        w_init=float(m.get("w_init", 0.3)),
        w_factor=float(m.get("w_factor", 0.5)),
        w_floor=(float(m["w_floor"]) if "w_floor" in m else None),
        gtol=float(m.get("gtol", 1e-9)),
    )


def _read_field_from(path) -> ScalarField:
    try:
        return read_field(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field {path!r}: {exc}") from exc


def _build_start(cfg: dict, grid, seed: int) -> ScalarField:
    start = cfg.get("start", {"type": "zero"})
    kind = start.get("type", "zero")
    if kind == "zero":
        return zero_field(grid)
    if kind == "branched":
        eps = float(start.get("epsilon", _params_from(cfg).epsilon))
        return cons.branched_seed(cons.BranchedSpec.from_epsilon(eps, grid.L), grid)
    if kind == "random":
        rng = np.random.default_rng(seed)
        return random_admissible(grid, rng, amplitude=float(start.get("amplitude", 0.1)))
    if kind == "file":
        return _read_field_from(_require(start, "path"))
    raise ConfigError(f"unknown start type {kind!r}")


# ---------------------------------------------------------------------------
# subcommands; each returns the artifact list

def _cmd_construct(cfg, out_dir, seed):
    command = cfg["command"]
    grid = _grid_from(cfg)
    c = cfg.get("construction", {})
    if command == "construct-branched":
        eps = float(_require(c, "epsilon"))
        spec = cons.BranchedSpec.from_epsilon(eps, grid.L)
        fld = cons.branched_seed(spec, grid)
        p = EnergyParams(eps, float(c.get("delta", 0.0)), int(c.get("variant", 3)))
    elif command == "construct-bump":
        spec = cons.BumpSpec(float(_require(c, "a")), float(_require(c, "delta_x")),
                             float(_require(c, "lambda")), grid.L)
        fld = cons.nucleation_bump(spec, grid)
        p = EnergyParams(float(c.get("epsilon", 0.1)), float(c.get("delta", 0.0)),
                         int(c.get("variant", 1)))
    else:
        spec = cons.PotentialSpec(int(_require(c, "j")), grid.L,
                                  nR=int(c.get("nR", 4096)))
        fld = cons.potential_seed(spec, grid)
        p = EnergyParams(float(c.get("epsilon", 0.1)), float(c.get("delta", 0.0)),
                         int(c.get("variant", 3)))
    artifacts = [
        _write_field_artifact(out_dir, "field.wsf1", fld),
        _write_json(out_dir, "spec.json", spec.to_json_dict()),
        _write_json(out_dir, "breakdown.json", energy(fld, p).to_json_dict()),
    ]
    return artifacts


def _cmd_energy(cfg, out_dir, seed):
    inp = _require(cfg, "input")
    fld = _read_field_from(_require(inp, "field"))
    p = _params_from(cfg)
    return [_write_json(out_dir, "breakdown.json", energy(fld, p).to_json_dict())]


def _cmd_minimize(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    p = _params_from(cfg)
    start = _build_start(cfg, grid, seed)
    res = minimize(start, p, _mincfg_from(cfg))

    def dump_trace(fh):
        for rec in res.trace:
            fh.write(json.dumps(rec) + "\n")

    return [
        _write_field_artifact(out_dir, "final.wsf1", res.field),
        _write_json(out_dir, "breakdown.json", res.breakdown.to_json_dict()),
        _atomic_write(out_dir, "trace.jsonl", dump_trace),
    ]


def _eval_rows(result):
    for rec in result.evaluations:
        yield [repr(rec.delta), repr(rec.best_energy), repr(rec.reference),
               rec.winner, rec.beats]


def _cmd_critical_delta(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    p = _params_from(cfg)
    res = critical_delta(p.epsilon, grid.L, p.variant, grid, _mincfg_from(cfg),
                         tol_rel=float(cfg.get("tol_rel", 0.25)), seed=seed)
    payload = {"epsilon": res.epsilon, "L": res.L, "variant": res.variant,
               "delta_lo": res.delta_lo, "delta_hi": res.delta_hi,
               "midpoint": res.midpoint,
               "grid": {"L": grid.L, "nx": grid.nx, "ny": grid.ny}}

    def dump_evals(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["delta", "best_energy", "reference", "winner", "beats"])
        w.writerows(_eval_rows(res))

    return [_write_json(out_dir, "result.json", payload),
            _atomic_write(out_dir, "evaluations.csv", dump_evals)]


def _cmd_sweep_delta(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    sweep = _require(cfg, "sweep")
    eps_list = [float(e) for e in _require(sweep, "epsilons")]
    variant = int(sweep.get("variant", 1))
    fit, results = scaling_sweep(eps_list, grid.L, variant, grid,
                                 _mincfg_from(cfg),
                                 tol_rel=float(cfg.get("tol_rel", 0.25)),
                                 seed=seed)

    def dump_sweep(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epsilon", "L", "variant", "delta_lo", "delta_hi",
                    "energy_best", "area_B_best"])
        for r in results:
            final = next(rec for rec in reversed(r.evaluations)
                         if rec.delta == r.delta_hi)  # endpoint where a start won
            w.writerow([repr(r.epsilon), repr(r.L), r.variant, repr(r.delta_lo),
                        repr(r.delta_hi), repr(final.best_energy),
                        repr(final.area_b_best)])

    payload = {"slope": fit.slope, "constant": fit.constant,
               "residual_rms": fit.residual_rms,
               "samples": [list(s) for s in fit.samples]}
    return [_atomic_write(out_dir, "sweep.csv", dump_sweep),
            _write_json(out_dir, "scaling.json", payload)]


def _cmd_verify(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    p = _params_from(cfg)
    n_random = int(cfg.get("n_random", 20))
    rng = np.random.default_rng(seed)
    fields = []
    try:
        fields.append(("branched", cons.branched_seed(
            cons.BranchedSpec.from_epsilon(p.epsilon, grid.L), grid)))
    except cons.ResolutionTooCoarse:
        pass
    for i in range(n_random):
        w = random_admissible(grid, rng)
        uy_max = float(np.abs(_cell_center_uy(w)).max())
        if uy_max > 0:
            w = w.with_values(w.values * (1.5 / uy_max))
        fields.append((f"random{i}", w))

    # a field outside a checker's domain gets no row from that checker
    reports = []
    for name, fld in fields:
        with suppress(EmptyB, TauOne):
            rep = bnd.lemma1_check(fld)
            reports.append(replace(rep, context=f"{name};{rep.context}"))
        reports.append(replace(bnd.poincare_check(fld), context=name))
        rep = bnd.wopper_check(fld, p.epsilon)
        reports.append(replace(rep, context=f"{name};{rep.context}"))
        with suppress(EmptyB):
            reports.append(replace(bnd.killerinterp_check(fld, 1e30), context=name))

    artifacts = [_atomic_write(out_dir, "reports.csv",
                               lambda fh: bnd.reports_to_csv(reports, fh))]
    failed = [f"{r.check} ({r.context})" for r in reports if not r.holds]
    if failed:
        raise bnd.InequalityViolated(
            f"{len(failed)} of {len(reports)} checks failed: " + "; ".join(failed))
    return artifacts


def _cmd_probe(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    p = _params_from(cfg)
    probe = cfg.get("probe", {})
    n = int(probe.get("n_samples", 1000))
    cal = bnd.load_calibration()
    r_cal, _ = bnd.theorem2_bounds(p.epsilon, p.delta, grid.L,
                                   C=bnd.calibration_value("local_min_r_C", cal))
    _, s_cal = bnd.theorem2_bounds(p.epsilon, p.delta, grid.L,
                                   C=bnd.calibration_value("local_min_s_C", cal))
    rep_n = local_minimality_probe(p, grid, n, norm_cap=0.99 * r_cal, seed=seed)
    rep_a = local_minimality_probe(p, grid, n, area_cap=s_cal, seed=seed + 1)
    payload = {
        "norm_probe": {"cap": rep_n.cap, "n_samples": rep_n.n_samples,
                       "eligible": rep_n.eligible, "violations": rep_n.violations},
        "area_probe": {"cap": rep_a.cap, "n_samples": rep_a.n_samples,
                       "eligible": rep_a.eligible, "violations": rep_a.violations},
    }
    return [_write_json(out_dir, "probe.json", payload)]


def _cmd_obstacle(cfg, out_dir, seed):
    section = cfg.get("obstacle", {})
    pairs = section.get("pairs", [[0.0, 1.0], [0.0, 0.5], [0.2, 0.9]])
    n = int(section.get("n", 512))
    rows = []
    for y1, y2 in pairs:
        sol = bnd.obstacle_min_1d(float(y1), float(y2))
        qp_value, _, _ = bnd.obstacle_qp_oracle(float(y1), float(y2), n)
        rows.append({"y1": y1, "y2": y2, "analytic": sol.value, "qp": qp_value,
                     "rel_err": abs(qp_value - sol.value) / sol.value})
    return [_write_json(out_dir, "obstacle.json", {"n": n, "results": rows})]


_COMMANDS = {
    "construct-branched": _cmd_construct,
    "construct-bump": _cmd_construct,
    "construct-potential": _cmd_construct,
    "energy": _cmd_energy,
    "minimize": _cmd_minimize,
    "critical-delta": _cmd_critical_delta,
    "sweep-delta": _cmd_sweep_delta,
    "verify-inequalities": _cmd_verify,
    "probe-local-min": _cmd_probe,
    "obstacle-1d": _cmd_obstacle,
}


def run(config_path: str, out_dir: str = ".", seed: int | None = None) -> int:
    """Dispatch a config file; returns the process exit status."""
    try:
        with open(config_path, "rb") as fh:
            raw = fh.read()
        cfg = json.loads(raw)
        if cfg.get("schema") != 1:
            raise ConfigError(f"unsupported schema {cfg.get('schema')!r}")
        command = _require(cfg, "command")
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        run_seed = int(seed if seed is not None else cfg.get("seed", 0))
    except (OSError, json.JSONDecodeError, ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        artifacts = _COMMANDS[command](cfg, out_dir, run_seed)
    except (ConfigError, cons.ResolutionTooCoarse) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (Diverged, BracketNotFound, bnd.InequalityViolated) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    manifest = {
        "schema": 1,
        "command": command,
        "seed": run_seed,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "artifacts": sorted(artifacts),
    }
    _write_json(out_dir, "manifest.json", manifest)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wellscape",
        description="Batch runner for well-depth microstructure experiments.")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    args = parser.parse_args(argv)
    return run(args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
