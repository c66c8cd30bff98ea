import ast
import hashlib
import json
import math
import os
from pathlib import Path
import re
import stat

import numpy as np
import pytest

from wellscape import EnergyParams, PotentialSpec, cli, energy, potential_seed
from wellscape.grid import ScalarField, make_grid, read_field, write_field, zero_field
from wellscape.landscape import PortfolioShrunk

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wellscape"


def _run(tmp_path, cfg, name="cfg.json", seed=None, out="out"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / out
    code = cli.run(str(path), str(out_dir), seed=seed)
    return code, out_dir


def _digest(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        out[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    return out


def test_construct_branched_roundtrip(tmp_path):
    cfg = {"schema": 1, "command": "construct-branched", "seed": 0,
           "grid": {"L": 1.0, "nx": 128, "ny": 128},
           "construction": {"epsilon": 0.02}}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["schema"] == 1
    assert sorted(manifest["artifacts"]) == ["breakdown.json", "field.wsf1", "spec.json"]
    for name in manifest["artifacts"]:
        assert (out_dir / name).exists()
    fld = read_field(out_dir / "field.wsf1")
    assert fld.grid.nx == 128
    assert np.abs(fld.values[0, :]).max() == 0.0
    spec = json.loads((out_dir / "spec.json").read_text())
    assert spec["N"] >= 1
    breakdown = json.loads((out_dir / "breakdown.json").read_text())
    assert set(breakdown) == {"surface", "elastic", "well", "total", "area_B", "area_A"}


def test_construct_potential_artifacts(tmp_path):
    cfg = {"schema": 1, "command": "construct-potential",
           "grid": {"L": 1.5, "nx": 96, "ny": 64}, "construction": {"j": 5}}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 0
    spec = json.loads((out_dir / "spec.json").read_text())
    assert set(spec) == {"j", "L", "k", "A_j", "alpha_j"}
    seed = potential_seed(PotentialSpec(5, 1.5), make_grid(1.5, 96, 64))
    np.testing.assert_array_equal(read_field(out_dir / "field.wsf1").values, seed.values)
    breakdown = json.loads((out_dir / "breakdown.json").read_text())
    assert breakdown == energy(seed, EnergyParams(0.1, 0.0, 3)).to_json_dict()


def test_construct_potential_takes_the_last_index(tmp_path):
    # 2^1023 is the largest power of two a float holds; j = 1024 is a config
    # error (OUT_OF_RANGE)
    cfg = {"schema": 1, "command": "construct-potential",
           "grid": {"L": 1.0, "nx": 32, "ny": 32}, "construction": {"j": 1023}}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 0
    assert json.loads((out_dir / "spec.json").read_text())["j"] == 1023


def test_energy_command_on_dumped_field(tmp_path):
    cfg = {"schema": 1, "command": "construct-bump",
           "grid": {"L": 1.0, "nx": 128, "ny": 128},
           "construction": {"a": 0.08, "delta_x": 0.2, "lambda": 2.0}}
    code, out_dir = _run(tmp_path, cfg, name="c1.json", out="out1")
    assert code == 0
    cfg2 = {"schema": 1, "command": "energy",
            "input": {"field": str(out_dir / "field.wsf1")},
            "energy": {"epsilon": 0.1, "delta": 0.3, "variant": 1}}
    code2, out2 = _run(tmp_path, cfg2, name="c2.json", out="out2")
    assert code2 == 0
    br = json.loads((out2 / "breakdown.json").read_text())
    assert br["total"] == pytest.approx(br["surface"] + br["elastic"] + br["well"])


def test_reproducible_bytes(tmp_path):
    cfg = {"schema": 1, "command": "minimize", "seed": 7,
           "grid": {"L": 1.0, "nx": 48, "ny": 48},
           "energy": {"epsilon": 0.1, "delta": 0.5, "variant": 1},
           "start": {"type": "random", "amplitude": 0.5},
           "minimize": {"max_iters": 25, "w_init": 0.2, "w_factor": 0.25,
                        "w_floor": 0.05}}
    _, out_a = _run(tmp_path, cfg, name="a.json", out="a")
    _, out_b = _run(tmp_path, cfg, name="b.json", out="b")
    assert _digest(out_a) == _digest(out_b)


def test_critical_delta_reproducible_bytes(tmp_path):
    cfg = {"schema": 1, "command": "critical-delta", "seed": 3, "tol_rel": 0.5,
           "grid": {"L": 1.0, "nx": 32, "ny": 32},
           "energy": {"epsilon": 0.1, "variant": 1},
           "minimize": {"max_iters": 20, "w_init": 0.2, "w_factor": 0.25,
                        "w_floor": 0.08}}
    code, out_a = _run(tmp_path, cfg, name="a.json", out="a")
    assert code == 0
    _, out_b = _run(tmp_path, cfg, name="b.json", out="b")
    assert _digest(out_a) == _digest(out_b)
    result = json.loads((out_a / "result.json").read_text())
    assert {"certificate_start", "certificate_delta", "inversions"} <= set(result)
    assert result["certificate_start"] and result["inversions"] == 0
    lines = (out_a / "evaluations.csv").read_text().strip().split("\n")
    assert lines[0] == "delta,best_energy,reference,winner,beats,certificate"
    assert len(lines) > 1


def test_minimize_artifacts(tmp_path):
    cfg = {"schema": 1, "command": "minimize", "seed": 1,
           "grid": {"L": 1.0, "nx": 48, "ny": 48},
           "energy": {"epsilon": 0.1, "delta": 0.2, "variant": 1},
           "start": {"type": "zero"},
           "minimize": {"max_iters": 10, "w_floor": 0.05}}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 0
    trace_lines = (out_dir / "trace.jsonl").read_text().strip().split("\n")
    rec = json.loads(trace_lines[0])
    assert set(rec) == {"stage", "iter", "smoothed_energy", "grad_norm"}


def test_obstacle_command(tmp_path):
    cfg = {"schema": 1, "command": "obstacle-1d",
           "obstacle": {"pairs": [[0.0, 1.0], [0.0, 0.5]], "n": 256}}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 0
    payload = json.loads((out_dir / "obstacle.json").read_text())
    assert payload["results"][0]["analytic"] == pytest.approx(4.0)
    assert payload["results"][0]["rel_err"] < 0.05


def test_verify_inequalities_all_hold(tmp_path):
    cfg = {"schema": 1, "command": "verify-inequalities", "seed": 0,
           "grid": {"L": 1.0, "nx": 96, "ny": 96},
           "energy": {"epsilon": 0.02, "variant": 1},
           "n_random": 6}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 0
    lines = (out_dir / "reports.csv").read_text().strip().split("\n")
    assert lines[0] == "check,context,lhs,rhs,slack,holds"
    assert len(lines) > 5
    assert all(line.endswith("True") for line in lines[1:])


@pytest.mark.parametrize("L, n, tolerance", [(1.0, 8, "-0.25"), (1.0, 10, "0"),
                                             (4.0, 32, "-0.25"), (1.0, 11, None)])
def test_verify_inequalities_needs_a_positive_grid_tolerance(tmp_path, capsys, L, n, tolerance):
    # where 1 - 10 max(hx, hy) <= 0 every lhs >= 0 would pass, so the run is
    # refused and writes no report; 11 cells at L = 1 (1/11) still report
    cfg = {"schema": 1, "command": "verify-inequalities", "seed": 0,
           "grid": {"L": L, "nx": n, "ny": n}, "energy": {"epsilon": 0.1}, "n_random": 2}
    code, out_dir = _run(tmp_path, cfg)
    err = capsys.readouterr().err
    if tolerance is None:
        assert code == 0, err
        assert (out_dir / "reports.csv").read_text().startswith("check,context,lhs,rhs")
    else:
        assert code == 2, err
        assert err.startswith("config error:") and f"grid tolerance {tolerance} <= 0" in err, err
        assert not (out_dir / "reports.csv").exists()


def test_probe_command(tmp_path):
    cfg = {"schema": 1, "command": "probe-local-min", "seed": 0,
           "grid": {"L": 1.0, "nx": 48, "ny": 48},
           "energy": {"epsilon": 0.05, "delta": 0.5, "variant": 1},
           "probe": {"n_samples": 25}}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 0
    payload = json.loads((out_dir / "probe.json").read_text())
    assert payload["norm_probe"]["violations"] == 0
    assert payload["area_probe"]["violations"] == 0


def test_sweep_delta_csv_columns(tmp_path):
    cfg = {"schema": 1, "command": "sweep-delta", "seed": 0, "tol_rel": 0.75,
           "grid": {"L": 1.0, "nx": 48, "ny": 48},
           "sweep": {"epsilons": [0.004, 0.01, 0.03, 0.09], "variant": 1},
           "minimize": {"max_iters": 25, "w_init": 0.2, "w_factor": 0.25,
                        "w_floor": 0.06}}
    with pytest.warns(PortfolioShrunk) as shrunk:
        code, out_dir = _run(tmp_path, cfg)
    # the 48^2 grid cannot hold the branched seed below eps = 0.09
    named = {float(re.search(r"epsilon=(\S+) on the 48x48 grid", str(w.message)).group(1))
             for w in shrunk}
    assert named == {0.004, 0.01, 0.03}
    assert code == 0
    lines = (out_dir / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "epsilon,L,variant,delta_lo,delta_hi,energy_best,area_B_best"
    assert len(lines) == 5
    row = lines[1].split(",")
    assert float(row[3]) < float(row[4])
    assert float(row[6]) > 0.0  # the winning state at delta_hi has transformed area
    scaling = json.loads((out_dir / "scaling.json").read_text())
    assert abs(scaling["slope"] - 1.0) < 0.5


def test_no_orphan_artifacts(tmp_path):
    cfg = {"schema": 1, "command": "construct-branched", "seed": 0,
           "grid": {"L": 1.0, "nx": 128, "ny": 128},
           "construction": {"epsilon": 0.02}}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert sorted(os.listdir(out_dir)) == sorted(manifest["artifacts"] + ["manifest.json"])


def test_failing_writer_leaves_no_temp_file(tmp_path, monkeypatch):
    # a field writer that fails halfway, and a JSON payload json.dump cannot
    # finish: each raises out of the write, and no .name.* temp file stays
    def half_written(path, field):
        with open(path, "w") as fh:
            fh.write("WSF1 nx=8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_field", half_written)
    cfg = {"schema": 1, "command": "construct-branched",
           "grid": {"L": 1.0, "nx": 32, "ny": 32}, "construction": {"epsilon": 0.1}}
    with pytest.raises(OSError, match="disk full"):
        _run(tmp_path, cfg)
    assert os.listdir(tmp_path / "out") == []
    with pytest.raises(TypeError):
        cli._write_json(str(tmp_path / "out"), "spec.json", {"a": 1, "b": object()})
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_follow_the_umask(tmp_path, umask, mode):
    cfg = {"schema": 1, "command": "construct-branched",
           "grid": {"L": 1.0, "nx": 32, "ny": 32}, "construction": {"epsilon": 0.1}}
    old = os.umask(umask)
    try:
        code, out_dir = _run(tmp_path, cfg)
    finally:
        os.umask(old)
    assert code == 0
    modes = {name: stat.S_IMODE(os.stat(out_dir / name).st_mode)
             for name in os.listdir(out_dir)}
    assert len(modes) == 4 and set(modes.values()) == {mode}, modes


def test_no_module_reads_the_environment():
    # one JSON config determines a run: no module of the package reads
    # os.environ or os.getenv, so no setting outside the config reaches an artifact
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"environ", "getenv"}:
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_config_errors(tmp_path):
    code, _ = _run(tmp_path, {"schema": 2, "command": "energy"})
    assert code == 2
    code, _ = _run(tmp_path, {"schema": 1, "command": "no-such"}, name="x.json")
    assert code == 2
    code, _ = _run(tmp_path, {"schema": 1, "command": "energy"}, name="y.json")
    assert code == 2  # missing input section
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.run(str(bad), str(tmp_path / "z")) == 2


GRID16 = {"L": 1.0, "nx": 16, "ny": 16}
# a config, or a section that a command reads, which is not a JSON object
NOT_OBJECTS = {
    "top level": [1, 2],
    "start": {"command": "minimize", "grid": GRID16, "energy": {"epsilon": 0.1},
              "start": "zero"},
    "sweep": {"command": "sweep-delta", "grid": GRID16, "sweep": ["epsilons"]},
    "construction": {"command": "construct-branched", "grid": GRID16,
                     "construction": ["epsilon", 0.02]},
    "input": {"command": "energy", "input": "field.wsf1", "energy": {"epsilon": 0.1}},
    "energy": {"command": "verify-inequalities", "grid": GRID16, "energy": 0.02},
    "grid": {"command": "critical-delta", "grid": [1.0, 16, 16],
             "energy": {"epsilon": 0.05}},
    "minimize": {"command": "minimize", "grid": GRID16, "energy": {"epsilon": 0.1},
                 "minimize": "x"},
    "probe": {"command": "probe-local-min", "grid": GRID16,
              "energy": {"epsilon": 0.05, "delta": 0.5}, "probe": 25},
    "obstacle": {"command": "obstacle-1d", "obstacle": [[0.0, 1.0]]},
}


@pytest.mark.parametrize("where", sorted(NOT_OBJECTS))
def test_non_object_sections_are_config_errors(tmp_path, capsys, where):
    cfg = NOT_OBJECTS[where]
    if isinstance(cfg, dict):
        cfg = {"schema": 1, **cfg}
    code, out_dir = _run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error") and "JSON object" in err, err
    if where != "top level":
        assert repr(where) in err, err
    assert not out_dir.exists()


# (config, the key the error names): a scalar of the wrong type or out of
# range, one for each command that reads one, and each way an epsilon list
# cannot make a sweep
BAD_SCALARS = {
    "tol_rel list": ({"command": "critical-delta", "grid": GRID16,
                      "energy": {"epsilon": 0.05}, "tol_rel": [1]}, "tol_rel"),
    "tol_rel zero": ({"command": "critical-delta", "grid": GRID16,
                      "energy": {"epsilon": 0.05}, "tol_rel": 0}, "tol_rel"),
    # written as Infinity, which json.load reads as inf, as it does 1e999
    "tol_rel inf": ({"command": "critical-delta", "grid": GRID16,
                     "energy": {"epsilon": 0.05}, "tol_rel": math.inf}, "tol_rel"),
    "epsilon inf": ({"command": "critical-delta", "grid": GRID16,
                     "energy": {"epsilon": math.inf}}, "epsilon"),
    "sweep epsilons": ({"command": "sweep-delta", "grid": GRID16,
                        "sweep": {"epsilons": 5}}, "epsilons"),
    "sweep too few": ({"command": "sweep-delta", "grid": GRID16,
                       "sweep": {"epsilons": [0.001, 0.01, 0.1]}}, "epsilons"),
    "sweep too narrow": ({"command": "sweep-delta", "grid": GRID16,
                          "sweep": {"epsilons": [0.01, 0.02, 0.05, 0.19]}}, "epsilons"),
    "sweep non-positive": ({"command": "sweep-delta", "grid": GRID16,
                            "sweep": {"epsilons": [0.0, 0.01, 0.1, 1.0]}}, "epsilons"),
    "probe n_samples": ({"command": "probe-local-min", "grid": GRID16,
                         "energy": {"epsilon": 0.05, "delta": 0.5},
                         "probe": {"n_samples": "many"}}, "n_samples"),
    "seed": ({"command": "obstacle-1d", "seed": [1]}, "seed"),
    "seed 3.7": ({"command": "obstacle-1d", "seed": 3.7}, "seed"),
    "seed true": ({"command": "obstacle-1d", "seed": True}, "seed"),
    "nx 16.9": ({"command": "construct-branched", "grid": {"L": 1.0, "nx": 16.9, "ny": 16},
                 "construction": {"epsilon": 0.1}}, "nx"),
    "variant true": ({"command": "minimize", "grid": GRID16,
                      "energy": {"epsilon": 0.1, "variant": True},
                      "start": {"type": "zero"}}, "variant"),
    "tol_rel true": ({"command": "critical-delta", "grid": GRID16,
                      "energy": {"epsilon": 0.05}, "tol_rel": True}, "tol_rel"),
    "delta string": ({"command": "minimize", "grid": GRID16,
                      "energy": {"epsilon": 0.1, "delta": "0.3"},
                      "start": {"type": "zero"}}, "delta"),
    "construct-branched": ({"command": "construct-branched", "grid": GRID16,
                            "construction": {"epsilon": "small"}}, "epsilon"),
    "construct-bump": ({"command": "construct-bump", "grid": GRID16,
                        "construction": {"a": 0.08, "delta_x": 0.2, "lambda": [2]}},
                       "lambda"),
    "construct-potential": ({"command": "construct-potential", "grid": GRID16,
                             "construction": {"j": "two"}}, "j"),
    "energy": ({"command": "energy", "input": {"field": ["f.wsf1"]},
                "energy": {"epsilon": 0.1}}, "field"),
    "minimize": ({"command": "minimize", "grid": GRID16, "energy": {"epsilon": 0.1},
                  "start": {"type": "random", "amplitude": "big"}}, "amplitude"),
    "verify-inequalities": ({"command": "verify-inequalities", "grid": GRID16,
                             "energy": {"epsilon": 0.02}, "n_random": [20]}, "n_random"),
    "obstacle-1d": ({"command": "obstacle-1d", "obstacle": {"pairs": 5}}, "pairs"),
}


@pytest.mark.parametrize("where", sorted(BAD_SCALARS))
def test_bad_scalars_are_config_errors(tmp_path, capsys, where):
    cfg, key = BAD_SCALARS[where]
    code, out_dir = _run(tmp_path, {"schema": 1, **cfg})
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error") and repr(key) in err, err
    assert not out_dir.exists()


GRID32 = {"L": 1.0, "nx": 32, "ny": 32}
# well-typed values out of the range of what a command builds from them
OUT_OF_RANGE = {
    "branched epsilon -1": {"command": "construct-branched", "grid": GRID32,
                            "construction": {"epsilon": -1}},
    "bump lambda 0.5": {"command": "construct-bump", "grid": GRID32,
                        "construction": {"a": 0.08, "delta_x": 0.2, "lambda": 0.5}},
    "potential j 0": {"command": "construct-potential", "grid": GRID32,
                      "construction": {"j": 0}},
    "potential j 1024": {"command": "construct-potential", "grid": GRID32,
                         "construction": {"j": 1024}},
    # h^2 overflows, 1/h^2 overflows, h^2 underflows to 0
    **{f"verify L {L:g}": {"command": "verify-inequalities", "grid": {**GRID16, "L": L},
                           "energy": {"epsilon": 0.1}, "n_random": 1}
       for L in (1e160, 1e-160, 1e-300)},
    "branched L 1e300": {"command": "construct-branched",
                         "grid": {"L": 1e300, "nx": 64, "ny": 64},
                         "construction": {"epsilon": 0.1}},
    "probe without delta": {"command": "probe-local-min", "grid": GRID32,
                            "energy": {"epsilon": 0.05}},
    "obstacle y2 < y1": {"command": "obstacle-1d", "obstacle": {"pairs": [[0.5, 0.2]]}},
    "obstacle n 0": {"command": "obstacle-1d", "obstacle": {"n": 0}},
    "obstacle n 1": {"command": "obstacle-1d", "obstacle": {"n": 1}},
    "obstacle n -3": {"command": "obstacle-1d", "obstacle": {"n": -3}},
    "verify n_random -1": {"command": "verify-inequalities", "grid": GRID32,
                           "energy": {"epsilon": 0.1}, "n_random": -1},
    "probe n_samples -1": {"command": "probe-local-min", "grid": GRID32,
                           "energy": {"epsilon": 0.05, "delta": 0.5},
                           "probe": {"n_samples": -1}},
    "minimize max_iters -1": {"command": "minimize", "grid": GRID32,
                              "energy": {"epsilon": 0.1}, "minimize": {"max_iters": -1}},
    "sweep variant 4": {"command": "sweep-delta", "grid": GRID32,
                        "sweep": {"epsilons": [0.01, 0.03, 0.1, 0.3], "variant": 4}},
}


@pytest.mark.parametrize("where", sorted(OUT_OF_RANGE))
def test_out_of_range_values_are_config_errors(tmp_path, capsys, where):
    code, out_dir = _run(tmp_path, {"schema": 1, **OUT_OF_RANGE[where]})
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error:"), err
    assert not (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("cfg_seed, seed", [(-3, None), (0, -5)])
def test_negative_seed_is_config_error(tmp_path, capsys, cfg_seed, seed):
    # "seed" in the config, and the --seed override
    cfg = {"schema": 1, "command": "verify-inequalities", "seed": cfg_seed,
           "grid": GRID16, "energy": {"epsilon": 0.1}, "n_random": 1}
    code, out_dir = _run(tmp_path, cfg, seed=seed)
    err = capsys.readouterr().err
    assert code == 2, err
    bad = cfg_seed if seed is None else seed
    assert err == f"config error: bad 'seed' ({bad}): must be non-negative\n"
    assert not out_dir.exists()


def test_unreadable_field_is_config_error(tmp_path, capsys):
    # a missing file, a file that is not WSF1, a header without L, a header
    # token without '=' and a header with no values, both as the energy
    # command's input and as minimize's start
    (tmp_path / "text.wsf1").write_text("hello\n")
    (tmp_path / "no_l.wsf1").write_text("WSF1 nx=8 ny=8\n" + "0 " * 8 + "\n")
    (tmp_path / "junk.wsf1").write_text("WSF1 nx=8 ny=8 L=1 junk\n" + "0 " * 8 + "\n")
    (tmp_path / "empty.wsf1").write_text("WSF1 nx=8 ny=8 L=1\n")
    for name, reason in (("missing.wsf1", "No such file"), ("text.wsf1", "not a WSF1"),
                         ("no_l.wsf1", "lacks L"), ("junk.wsf1", "without '=': 'junk'"),
                         ("empty.wsf1", "has a header but no values")):
        path = str(tmp_path / name)
        for cfg in ({"schema": 1, "command": "energy", "input": {"field": path},
                     "energy": {"epsilon": 0.1}},
                    {"schema": 1, "command": "minimize",
                     "grid": {"L": 1.0, "nx": 8, "ny": 8}, "energy": {"epsilon": 0.1},
                     "start": {"type": "file", "path": path}}):
            code, _ = _run(tmp_path, cfg)
            err = capsys.readouterr().err
            assert code == 2, (name, cfg["command"])
            assert err.startswith("config error") and reason in err, err


def test_bad_minimize_settings_are_config_errors(tmp_path, monkeypatch, capsys):
    # w_factor >= 1 would make the continuation schedule loop forever; the
    # stand-in descent fails the test instead of hanging if a setting slips by
    def descent_reached(*args, **kwargs):
        raise AssertionError("bad minimize settings reached the descent")

    monkeypatch.setattr(cli, "minimize", descent_reached)
    for section, reason in (({"w_factor": 1.0}, "w_factor"), ({"max_iters": "ten"}, "ten")):
        cfg = {"schema": 1, "command": "minimize",
               "grid": {"L": 1.0, "nx": 16, "ny": 16}, "energy": {"epsilon": 0.1},
               "minimize": section}
        code, _ = _run(tmp_path, cfg)
        err = capsys.readouterr().err
        assert code == 2, section
        assert err.startswith("config error") and reason in err, err


def test_file_start_on_another_grid_is_config_error(tmp_path, capsys):
    write_field(tmp_path / "f16.wsf1", zero_field(make_grid(1.0, 16, 16)))
    cfg = {"schema": 1, "command": "minimize",
           "grid": {"L": 1.0, "nx": 24, "ny": 24}, "energy": {"epsilon": 0.1},
           "start": {"type": "file", "path": str(tmp_path / "f16.wsf1")}}
    code, out_dir = _run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error")
    assert "nx=16, ny=16" in err and "nx=24, ny=24" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["energy", "minimize"])
def test_dirichlet_violation_is_config_error(tmp_path, capsys, command):
    # a field file of ones breaks u(0, .) = 0: the energy command's input and
    # minimize's start are both checked
    g = make_grid(1.0, 16, 16)
    path = str(tmp_path / "ones.wsf1")
    write_field(path, ScalarField(g, np.ones((g.nx + 1, g.ny))))
    cfg = {"schema": 1, "command": command, "energy": {"epsilon": 0.1},
           **({"input": {"field": path}} if command == "energy" else
              {"grid": {"L": 1.0, "nx": 16, "ny": 16},
               "start": {"type": "file", "path": path}})}
    code, out_dir = _run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("config error: Dirichlet violation at x=0"), err
    assert not out_dir.exists()


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    from wellscape.landscape import BracketNotFound

    def explode(cfg, out_dir, seed):
        raise BracketNotFound("no flip")

    monkeypatch.setitem(cli._COMMANDS, "critical-delta", explode)
    cfg = {"schema": 1, "command": "critical-delta",
           "grid": {"L": 1.0, "nx": 16, "ny": 16},
           "energy": {"epsilon": 0.05, "variant": 1}}
    code, _ = _run(tmp_path, cfg)
    assert code == 3


def test_verify_inequalities_violation_exit_code(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from wellscape import bounds
    poincare = bounds.poincare_check
    monkeypatch.setattr(bounds, "poincare_check",
                        lambda u: replace(poincare(u), holds=False))
    cfg = {"schema": 1, "command": "verify-inequalities", "seed": 0,
           "grid": {"L": 1.0, "nx": 32, "ny": 32},
           "energy": {"epsilon": 0.02, "variant": 1}, "n_random": 2}
    code, out_dir = _run(tmp_path, cfg)
    assert code == 3
    assert (out_dir / "reports.csv").exists()
    err = capsys.readouterr().err
    assert "2 of" in err and "checks failed: poincare (random0); poincare (random1)" in err


def test_main_entry(tmp_path):
    cfg = {"schema": 1, "command": "obstacle-1d", "obstacle": {"n": 128}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "o")]) == 0
