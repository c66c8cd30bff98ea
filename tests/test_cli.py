import hashlib
import json
import os
import re

import numpy as np
import pytest

from wellscape import cli
from wellscape.grid import read_field
from wellscape.landscape import PortfolioShrunk


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


def test_calibration_env_override(tmp_path, monkeypatch):
    from wellscape import bounds
    alt = tmp_path / "alt.json"
    alt.write_text(json.dumps({"killerinterp_C": 123.0}))
    monkeypatch.setenv("WELLSCAPE_CALIBRATION", str(alt))
    bounds._load_calibration_file.cache_clear()
    try:
        assert bounds.calibration_value("killerinterp_C") == 123.0
    finally:
        monkeypatch.delenv("WELLSCAPE_CALIBRATION")
        bounds._load_calibration_file.cache_clear()


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


def test_unreadable_field_is_config_error(tmp_path, capsys):
    # a missing file, a file that is not WSF1 and a header without L, both
    # as the energy command's input and as minimize's start
    (tmp_path / "text.wsf1").write_text("hello\n")
    (tmp_path / "no_l.wsf1").write_text("WSF1 nx=8 ny=8\n" + "0 " * 8 + "\n")
    for name, reason in (("missing.wsf1", "No such file"), ("text.wsf1", "not a WSF1"),
                         ("no_l.wsf1", "lacks L")):
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
