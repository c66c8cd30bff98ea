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
import secrets
import sys
from contextlib import suppress
from dataclasses import replace

import numpy as np

from . import bounds as bnd
from . import constructions as cons
# b_geometry is not called here, but bench/ wraps it under this name
from .energy import (EmptyB, EnergyParams, NotAdmissible, TauOne,  # noqa: F401
                     b_geometry, energy, scale_to_uy_peak)
# bench/ wraps write_field under this name too: call it as a global, at write time
from .grid import ScalarField, make_grid, read_field, write_field, zero_field
from .landscape import (BracketNotFound, Diverged, MinimizeConfig,
                        critical_delta, local_minimality_probe, minimize,
                        random_admissible, scaling_sweep, sweep_epsilons)


class ConfigError(ValueError):
    pass


def _atomic_write(out_dir: str, name: str, writer) -> str:
    """Write out_dir/name through a temp file and a rename: writer(path)
    fills the temp file, and a writer that raises leaves no file behind.
    The temp file is made under a fresh name with mode 0666 less the umask,
    as open() would make the artifact itself."""
    os.makedirs(out_dir, exist_ok=True)
    tmp = os.path.join(out_dir, f".{name}.{secrets.token_hex(8)}")
    os.close(os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
    try:
        writer(tmp)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return name


def _write_text(out_dir: str, name: str, dump) -> str:
    """A text artifact: dump(fh) writes it to the open file."""
    def writer(path):
        with open(path, "w", newline="\n") as fh:
            dump(fh)
    return _atomic_write(out_dir, name, writer)


def _write_json(out_dir: str, name: str, payload) -> str:
    return _write_text(out_dir, name,
                       lambda fh: json.dump(payload, fh, indent=2, sort_keys=True))


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


_REQUIRED = object()


def _scalar(section: dict, key: str, cast, default=_REQUIRED):
    """cast(section[key]), or default when the key is missing; a missing key
    without a default, or a value cast rejects, is a ConfigError."""
    if key not in section and default is not _REQUIRED:
        return default
    raw = _require(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key!r} ({raw!r}): {exc}") from exc


def _int(value) -> int:
    """A JSON integer; a bool, a string or a number with a fraction is not."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise TypeError("must be an integer")
    return int(value)


def _float(value) -> float:
    """A finite JSON number; a bool, a string, Infinity, NaN or a literal
    that overflows to inf (1e999) is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("must be a number")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _count(value) -> int:
    """A non-negative JSON integer."""
    if _int(value) < 0:
        raise ValueError("must be non-negative")
    return int(value)


def _positive(value) -> float:
    value = _float(value)
    if not value > 0.0:
        raise ValueError("must be positive")
    return value


def _section(cfg: dict, key: str, default: dict | None = None) -> dict:
    """The JSON object under key; a missing key gives default, or is an error
    when there is none."""
    section = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(section, dict):
        raise ConfigError(f"{key!r} must be a JSON object, "
                          f"got {type(section).__name__}: {section!r}")
    return section


def _built(what: str, build, *args, **kwargs):
    """build(*args, **kwargs) for a constructor that raises ValueError only
    for inputs out of its range; that error is a ConfigError about what."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _grid_from(cfg: dict):
    g = _section(cfg, "grid")
    L, nx, ny = _scalar(g, "L", _float), _scalar(g, "nx", _int), _scalar(g, "ny", _int)
    return _built("grid section", make_grid, L, nx, ny)


def _params_from(cfg: dict) -> EnergyParams:
    e = _section(cfg, "energy")
    eps, delta = _scalar(e, "epsilon", _float), _scalar(e, "delta", _float, 0.0)
    return _built("energy section", EnergyParams, eps, delta, _scalar(e, "variant", _int, 1))


_MINCFG_TYPES = {"max_iters": _int, "w_init": _float, "w_factor": _float,
                 "w_floor": _float, "gtol": _float}


def _mincfg_from(cfg: dict) -> MinimizeConfig:
    """MinimizeConfig from the keys the config gives; the dataclass holds the defaults."""
    m = _section(cfg, "minimize", {})
    settings = {key: _scalar(m, key, cast) for key, cast in _MINCFG_TYPES.items()
                if key in m}
    return _built("minimize section", MinimizeConfig, **settings)


def _read_field_from(path) -> ScalarField:
    try:
        return read_field(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field {path!r}: {exc}") from exc


def _build_start(cfg: dict, grid, seed: int) -> ScalarField:
    start = _section(cfg, "start", {"type": "zero"})
    kind = start.get("type", "zero")
    if kind == "zero":
        return zero_field(grid)
    if kind == "branched":
        eps = _scalar(start, "epsilon", _float, _params_from(cfg).epsilon)
        spec = _built("start section", cons.BranchedSpec.from_epsilon, eps, grid.L)
        return cons.branched_seed(spec, grid)
    if kind == "random":
        rng = np.random.default_rng(seed)
        return random_admissible(grid, rng, amplitude=_scalar(start, "amplitude", _float, 0.1))
    if kind == "file":
        fld = _read_field_from(_scalar(start, "path", os.fspath))
        if fld.grid != grid:
            raise ConfigError(f"start field is on {fld.grid}, the config's grid is {grid}")
        return fld
    raise ConfigError(f"unknown start type {kind!r}")


# ---------------------------------------------------------------------------
# subcommands; each returns the artifact list

def _cmd_construct(cfg, out_dir, seed):
    command = cfg["command"]
    grid = _grid_from(cfg)
    c = _section(cfg, "construction", {})
    delta = _scalar(c, "delta", _float, 0.0)
    if command == "construct-branched":
        eps, variant = _scalar(c, "epsilon", _float), 3
        spec = _built("construction", cons.BranchedSpec.from_epsilon, eps, grid.L)
        build = cons.branched_seed
    elif command == "construct-bump":
        eps, variant = _scalar(c, "epsilon", _float, 0.1), 1
        spec = _built("construction", cons.BumpSpec, _scalar(c, "a", _float),
                      _scalar(c, "delta_x", _float), _scalar(c, "lambda", _float), grid.L)
        build = cons.nucleation_bump
    else:
        eps, variant = _scalar(c, "epsilon", _float, 0.1), 3
        spec = _built("construction", cons.PotentialSpec, _scalar(c, "j", _int), grid.L)
        build = cons.potential_seed
    p = _built("construction", EnergyParams, eps, delta, _scalar(c, "variant", _int, variant))
    fld = build(spec, grid)
    return [
        _atomic_write(out_dir, "field.wsf1", lambda path: write_field(path, fld)),
        _write_json(out_dir, "spec.json", spec.to_json_dict()),
        _write_json(out_dir, "breakdown.json", energy(fld, p).to_json_dict()),
    ]


def _cmd_energy(cfg, out_dir, seed):
    inp = _section(cfg, "input")
    fld = _read_field_from(_scalar(inp, "field", os.fspath))
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
        _atomic_write(out_dir, "final.wsf1", lambda path: write_field(path, res.field)),
        _write_json(out_dir, "breakdown.json", res.breakdown.to_json_dict()),
        _write_text(out_dir, "trace.jsonl", dump_trace),
    ]


def _eval_rows(result):
    for rec in result.evaluations:
        yield [repr(rec.delta), repr(rec.best_energy), repr(rec.reference),
               rec.winner, rec.beats, repr(rec.certificate)]


def _cmd_critical_delta(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    p = _params_from(cfg)
    res = critical_delta(p.epsilon, grid.L, p.variant, grid, _mincfg_from(cfg),
                         tol_rel=_scalar(cfg, "tol_rel", _positive, 0.25), seed=seed)
    payload = {"epsilon": res.epsilon, "L": res.L, "variant": res.variant,
               "delta_lo": res.delta_lo, "delta_hi": res.delta_hi,
               "midpoint": res.midpoint,
               "certificate_start": res.certificate_start,
               "certificate_delta": res.certificate_delta,
               "inversions": res.inversions,
               "grid": {"L": grid.L, "nx": grid.nx, "ny": grid.ny}}

    def dump_evals(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["delta", "best_energy", "reference", "winner", "beats", "certificate"])
        w.writerows(_eval_rows(res))

    return [_write_json(out_dir, "result.json", payload),
            _write_text(out_dir, "evaluations.csv", dump_evals)]


def _cmd_sweep_delta(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    sweep = _section(cfg, "sweep")
    eps_list = _scalar(sweep, "epsilons", lambda v: sweep_epsilons([_float(e) for e in v]))
    variant = _built("sweep section", EnergyParams, eps_list[0], 0.0,
                     _scalar(sweep, "variant", _int, 1)).variant
    fit, results = scaling_sweep(eps_list, variant, grid, _mincfg_from(cfg),
                                 tol_rel=_scalar(cfg, "tol_rel", _positive, 0.25),
                                 seed=seed)

    def dump_sweep(fh):
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epsilon", "L", "variant", "delta_lo", "delta_hi",
                    "energy_best", "area_B_best"])
        for r in results:
            # the certifying field, which beats E(0) at delta_hi
            final = energy(r.certificate_field, EnergyParams(r.epsilon, r.delta_hi, variant))
            w.writerow([repr(r.epsilon), repr(r.L), r.variant, repr(r.delta_lo),
                        repr(r.delta_hi), repr(final.total), repr(final.area_B)])

    payload = {"slope": fit.slope, "constant": fit.constant,
               "residual_rms": fit.residual_rms,
               "samples": [list(s) for s in fit.samples]}
    return [_write_text(out_dir, "sweep.csv", dump_sweep),
            _write_json(out_dir, "scaling.json", payload)]


def _cmd_verify(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    p = _params_from(cfg)
    n_random = _scalar(cfg, "n_random", _count, 20)
    rng = np.random.default_rng(seed)

    def fields():
        # one at a time: each field is checked, then dropped, before the next
        with suppress(cons.ResolutionTooCoarse):
            yield "branched", cons.branched_seed(
                cons.BranchedSpec.from_epsilon(p.epsilon, grid.L), grid)
        for i in range(n_random):
            yield f"random{i}", scale_to_uy_peak(random_admissible(grid, rng), 1.5)

    # a field outside a checker's domain gets no row from that checker
    reports = []
    for name, fld in fields():
        with suppress(EmptyB, TauOne):
            rep = bnd.lemma1_check(fld)
            reports.append(replace(rep, context=f"{name};{rep.context}"))
        reports.append(replace(bnd.poincare_check(fld), context=name))
        rep = bnd.wopper_check(fld, p.epsilon)
        reports.append(replace(rep, context=f"{name};{rep.context}"))
        with suppress(EmptyB):
            reports.append(replace(bnd.killerinterp_check(fld, 1e30), context=name))

    artifacts = [_write_text(out_dir, "reports.csv",
                             lambda fh: bnd.reports_to_csv(reports, fh))]
    failed = [f"{r.check} ({r.context})" for r in reports if not r.holds]
    if failed:
        raise bnd.InequalityViolated(
            f"{len(failed)} of {len(reports)} checks failed: " + "; ".join(failed))
    return artifacts


def _cmd_probe(cfg, out_dir, seed):
    grid = _grid_from(cfg)
    p = _params_from(cfg)
    probe = _section(cfg, "probe", {})
    n = _scalar(probe, "n_samples", _count, 1000)
    r_cal, _ = _built("energy section", bnd.theorem2_bounds, p.epsilon, p.delta, grid.L,
                      C=bnd.calibration_value("local_min_r_C"))
    _, s_cal = bnd.theorem2_bounds(p.epsilon, p.delta, grid.L,
                                   C=bnd.calibration_value("local_min_s_C"))
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
    section = _section(cfg, "obstacle", {})
    pairs = _scalar(section, "pairs", lambda v: [(_float(a), _float(b)) for a, b in v],
                    [(0.0, 1.0), (0.0, 0.5), (0.2, 0.9)])
    n = _scalar(section, "n", _int, 512)
    rows = []
    for y1, y2 in pairs:
        analytic = _built("obstacle section", bnd.obstacle_min_1d, y1, y2)
        qp_value, _, _ = _built("obstacle section", bnd.obstacle_qp_oracle, y1, y2, n)
        rows.append({"y1": y1, "y2": y2, "analytic": analytic, "qp": qp_value,
                     "rel_err": abs(qp_value - analytic) / analytic})
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
        if not isinstance(cfg, dict):
            raise ConfigError(f"a config is a JSON object, got {type(cfg).__name__}")
        if cfg.get("schema") != 1:
            raise ConfigError(f"unsupported schema {cfg.get('schema')!r}")
        command = _require(cfg, "command")
        if command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        run_seed = _scalar(cfg if seed is None else {"seed": seed}, "seed", _count, 0)
    except (OSError, json.JSONDecodeError, ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        artifacts = _COMMANDS[command](cfg, out_dir, run_seed)
    except (ConfigError, cons.ResolutionTooCoarse, bnd.GridTooCoarse, NotAdmissible) as exc:
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
