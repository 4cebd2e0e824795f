import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinband.cli import (load_bundle, main, parse_config, read_matrix_csv,
                          read_series_csv, save_bundle, write_matrix_csv)
from spinband.errors import ParseError, ValidationError

SK_MODEL = {"coeffs_sq": [0.125], "beta": 1.0, "q_star": 1.0, "q_o": 0.5,
            "E_star": 0.625, "G_star": 1.25}

SOLVE_FILES = {"metadata.json", "R.csv", "C.csv", "series.csv",
               "invariants.json"}
ROOT = Path(__file__).resolve().parents[1]


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=1))
    return p


def solve_cfg(grid=None, constraint=None, command=None, **blocks):
    payload = {"model": dict(SK_MODEL),
               "grid": grid or {"T": 1.0, "h": 0.02}}
    if constraint:
        payload["constraint"] = constraint
    if command:
        payload["command"] = command
    payload.update(blocks)
    return payload


def test_solve_hard_run(tmp_path):
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "out"
    assert main(["solve-hard", "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == SOLVE_FILES
    invariants = json.loads((out / "invariants.json").read_text())
    assert invariants["passed"] is True
    assert invariants["response_bound_excess"] <= invariants["response_bound_tol"]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "solve-hard"
    assert meta["constraint"] == "hard"
    assert meta["config"]["model"]["beta"] == 1.0
    # triplet layout: strictly lower-triangular storage for R
    lines = (out / "R.csv").read_text().splitlines()
    assert lines[0] == "i,j,value"
    assert all(int(l.split(",")[1]) <= int(l.split(",")[0]) for l in lines[1:])


def test_artifacts_roundtrip_bitwise(tmp_path):
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "out"
    main(["solve-hard", "--config", str(cfg), "--out", str(out)])
    bundle, meta = load_bundle(out)
    assert meta["command"] == "solve-hard"
    again = tmp_path / "again"
    again.mkdir()
    save_bundle(bundle, again)
    for name in ("R.csv", "C.csv", "series.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name
    # the 17-digit dump reproduces every float64 exactly
    from spinband.volterra import solve_hard
    direct = solve_hard(bundle.params, bundle.nu, bundle.grid)
    assert np.array_equal(bundle.R, direct.R)
    assert np.array_equal(bundle.C, direct.C)
    assert np.array_equal(bundle.q, direct.q)


def test_load_bundle_rejects_a_malformed_config_echo(tmp_path):
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "out"
    main(["solve-hard", "--config", str(cfg), "--out", str(out)])
    meta = json.loads((out / "metadata.json").read_text())
    del meta["config"]["model"]["beta"]
    (out / "metadata.json").write_text(json.dumps(meta))
    with pytest.raises(ParseError, match="model.beta"):
        load_bundle(out)


def test_rerun_from_metadata_echo(tmp_path):
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out1 = tmp_path / "one"
    main(["solve-hard", "--config", str(cfg), "--out", str(out1)])
    echo = json.loads((out1 / "metadata.json").read_text())["config"]
    cfg2 = write_cfg(tmp_path, "echo.json", echo)
    out2 = tmp_path / "two"
    assert main(["solve-hard", "--config", str(cfg2), "--out", str(out2)]) == 0
    for name in ("R.csv", "C.csv", "series.csv", "invariants.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_compare_against_closed_form(tmp_path):
    cfg = write_cfg(tmp_path, "cmp.json", solve_cfg())
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["against"] == "sk"
    assert report["passed"] is True
    assert all(gap <= report["tol"] for gap in report["gaps"].values())
    assert report["audit"]["passed"] is True

    tight = write_cfg(tmp_path, "tight.json",
                      solve_cfg(compare={"tol": 1e-12}))
    assert main(["compare", "--config", str(tight), "--out",
                 str(tmp_path / "t2")]) == 2


def test_compare_soft_against_hard(tmp_path):
    payload = solve_cfg(constraint={"kind": "soft", "L": 1000.0, "k": 1},
                        compare={"against": "soft", "tol": 0.05})
    cfg = write_cfg(tmp_path, "soft.json", payload)
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["against"] == "soft"
    assert report["passed"] is True


def test_report_reaudits_a_run(tmp_path):
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "out"
    main(["solve-hard", "--config", str(cfg), "--out", str(out)])
    rep_cfg = write_cfg(tmp_path, "rep.json", {"report": {"source": str(out)}})
    rep_out = tmp_path / "rep"
    assert main(["report", "--config", str(rep_cfg), "--out", str(rep_out)]) == 0
    report = json.loads((rep_out / "report.json").read_text())
    assert report["source_command"] == "solve-hard"
    assert report["audit"]["passed"] is True


def test_fdt_constants(tmp_path):
    payload = {"model": {"coeffs_sq": [0.0, 0.125], "beta": 0.3,
                         "q_star": 1.0},
               "grid": {"T": 35.0, "h": 0.005},
               "fdt": {"gamma": 0.5}}
    cfg = write_cfg(tmp_path, "fdt.json", payload)
    out = tmp_path / "out"
    assert main(["fdt", "--config", str(cfg), "--out", str(out)]) == 0
    con = json.loads((out / "constants.json").read_text())
    assert abs(con["beta_c"] - math.sqrt(8.0 / 3.0)) <= 1e-6
    assert con["D_inf"] == 0.0
    assert abs(con["mu_infty"] - 0.5675) <= 1e-12
    assert con["kappa1_closed"] == 0.75 and con["kappa2_closed"] == 2.0
    quad = con["kappa_quadrature"]
    assert abs(quad[0] - 0.75) <= 1e-4 and abs(quad[1] - 2.0) <= 1e-4
    series = read_series_csv(out / "series.csv")
    assert series["D"][0] == 1.0 and series["Dprime"][0] == -0.5

    # low temperature on a coarse lag grid: the march diverges and the run
    # must fail instead of writing inf/NaN
    hot = write_cfg(tmp_path, "hot.json", {
        "model": {"coeffs_sq": [0.0, 0.125], "beta": 10.0, "q_star": 1.0},
        "grid": {"T": 20.0, "h": 0.1}, "fdt": {"gamma": 0.5}})
    out3 = tmp_path / "hot"
    with np.errstate(all="ignore"):
        assert main(["fdt", "--config", str(hot), "--out", str(out3)]) == 1
    assert not (out3 / "series.csv").exists()

    short = write_cfg(tmp_path, "short.json",
                      {**payload, "grid": {"T": 5.0, "h": 0.005}})
    out2 = tmp_path / "short"
    assert main(["fdt", "--config", str(short), "--out", str(out2)]) == 0
    con2 = json.loads((out2 / "constants.json").read_text())
    assert con2["kappa_quadrature"] is None
    assert "NotConverged" in con2["kappa_note"]


def test_sk_closed_form_run(tmp_path):
    cfg = write_cfg(tmp_path, "sk.json", solve_cfg())
    out = tmp_path / "out"
    assert main(["sk", "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "metadata.json", "R.csv", "C.csv", "series.csv", "constants.json"}
    con = json.loads((out / "constants.json").read_text())
    assert con["y"] == 0.5
    assert con["alpha_sq"] == 0.5
    assert con["mu_infty"] == 1.25
    assert con["H_infty"] == 0.375
    assert con["E_star"] == 0.625
    assert con["superposition"]["linear_gap"] <= 1e-8

    bad = solve_cfg()
    bad["model"] = {**SK_MODEL, "coeffs_sq": [0.0, 0.125], "E_star": 0.2,
                    "G_star": 0.6}
    cfg2 = write_cfg(tmp_path, "bad.json", bad)
    assert main(["sk", "--config", str(cfg2), "--out",
                 str(tmp_path / "b")]) == 1


def test_simulate_run(tmp_path):
    payload = solve_cfg(grid={"T": 0.5, "h": 0.05},
                        constraint={"kind": "soft", "L": 100.0, "k": 1},
                        sim={"N": 32, "dt": 0.002, "seed": 7, "replicas": 4})
    cfg = write_cfg(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "metadata.json", "snapshots.csv", "per_replica.csv", "C_N.csv",
        "chi_N.csv", "report.json"}
    report = json.loads((out / "report.json").read_text())
    assert report["error_functional"] <= 1.5
    assert len(report["per_replica"]) == 4
    snaps = read_series_csv(out / "snapshots.csv")
    assert snaps["t"].size == 11
    assert abs(snaps["q_N"][0] - 0.5) <= 1e-12
    C = read_matrix_csv(out / "C_N.csv", 10)
    assert abs(C[0, 0] - 1.0) <= 1e-12


def test_seed_override_is_echoed_and_deterministic(tmp_path):
    payload = solve_cfg(grid={"T": 0.5, "h": 0.05},
                        constraint={"kind": "soft", "L": 100.0, "k": 1},
                        sim={"N": 16, "dt": 0.005, "seed": 7, "replicas": 2})
    cfg = write_cfg(tmp_path, "sim.json", payload)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["simulate", "--config", str(cfg), "--out", str(a),
                 "--seed", "123"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b),
                 "--seed", "123"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(c)]) == 0
    meta = json.loads((a / "metadata.json").read_text())
    assert meta["config"]["sim"]["seed"] == 123
    assert (a / "snapshots.csv").read_bytes() == (b / "snapshots.csv").read_bytes()
    assert (a / "snapshots.csv").read_bytes() != (c / "snapshots.csv").read_bytes()


def test_error_exits(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"model": [1,,]}')
    assert main(["solve-hard", "--config", str(broken),
                 "--out", str(tmp_path / "x")]) == 1
    assert "ParseError" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, "cmd.json", solve_cfg(command="solve-soft"))
    assert main(["solve-hard", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 1
    assert "!=" in capsys.readouterr().err

    pure_bad = solve_cfg()
    pure_bad["model"] = {"coeffs_sq": [0.0, 0.125], "beta": 0.3,
                         "q_star": 1.0, "q_o": 0.5, "E_star": 0.2,
                         "G_star": 1.0}
    cfg2 = write_cfg(tmp_path, "pure.json", pure_bad)
    assert main(["solve-hard", "--config", str(cfg2),
                 "--out", str(tmp_path / "x")]) == 1
    assert "model block rejected: PureInconsistent" in capsys.readouterr().err

    soft_missing = write_cfg(tmp_path, "sm.json", solve_cfg())
    assert main(["solve-soft", "--config", str(soft_missing),
                 "--out", str(tmp_path / "x")]) == 1

    nogrid = solve_cfg()
    del nogrid["grid"]
    cfg3 = write_cfg(tmp_path, "ng.json", nogrid)
    assert main(["solve-hard", "--config", str(cfg3),
                 "--out", str(tmp_path / "x")]) == 1

    blow = {"model": {"coeffs_sq": [0.0, 0.125], "beta": 8.0, "q_star": 1.0},
            "constraint": {"kind": "soft", "L": 0.001, "k": 1},
            "sim": {"N": 8, "dt": 0.01, "T": 2.0, "seed": 2, "replicas": 2}}
    cfg4 = write_cfg(tmp_path, "blow.json", blow)
    assert main(["simulate", "--config", str(cfg4),
                 "--out", str(tmp_path / "x")]) == 1
    assert "Blowup" in capsys.readouterr().err


def test_parse_config_details(tmp_path):
    cfg = write_cfg(tmp_path, "ok.json", solve_cfg())
    rc = parse_config(cfg, command="solve-hard", seed=9)
    assert rc.command == "solve-hard"
    assert rc.raw["sim"]["seed"] == 9            # folded into the echo
    assert rc.grid.n == 50
    assert rc.params.E_star == 0.625
    with pytest.raises(ParseError):
        parse_config(tmp_path / "missing.json", command="solve-hard")
    with pytest.raises(ValidationError):
        parse_config(write_cfg(tmp_path, "neg.json", solve_cfg(
            grid={"T": 1.0, "h": 0.3})), command="solve-hard")


def test_matrix_csv_guards(tmp_path):
    bad = tmp_path / "m.csv"
    bad.write_text("a,b,c\n0,0,1.0\n")
    with pytest.raises(ParseError):
        read_matrix_csv(bad, 1)
    M = np.array([[1.0, 0.25], [0.25, 2.0]])
    write_matrix_csv(tmp_path / "sym.csv", M)
    back = read_matrix_csv(tmp_path / "sym.csv", 1, symmetric=True)
    assert np.array_equal(back, M)


def test_threads_flag_sets_environment(tmp_path):
    saved = {v: os.environ.get(v) for v in
             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        cfg = write_cfg(tmp_path, "run.json", solve_cfg())
        assert main(["solve-hard", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--threads", "2"]) == 0
        for var in saved:
            assert os.environ[var] == "2"
    finally:
        for var, val in saved.items():
            if val is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = val


def test_console_script(tmp_path):
    """``python -m spinband`` in a fresh interpreter, where --threads can
    still take effect because nothing on the way to it loads numpy."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "spinband", "solve-hard", "--config", str(cfg),
         "--out", str(out), "--threads", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "invariants.json").exists()
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, spinband.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert probe.stdout.strip() == "False", probe.stderr
    # the installed console script points at the same entry point
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'spinband = "spinband.cli:main"' in pyproject
