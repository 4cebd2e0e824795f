import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinband
from spinband.cli import (load_bundle, main, parse_config, read_matrix_csv,
                          read_series_csv, read_two_time, save_bundle,
                          write_matrix_csv, write_series_csv)
from spinband.errors import ParseError, ValidationError

SK_MODEL = {"coeffs_sq": [0.125], "beta": 1.0, "q_star": 1.0, "q_o": 0.5,
            "E_star": 0.625, "G_star": 1.25}

SOLVE_FILES = {"metadata.json", "RC.npy", "series.csv", "invariants.json"}
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
    assert invariants["response_bound_ratio"] <= 1 + invariants["tol"]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "solve-hard"
    assert meta["constraint"] == "hard"
    assert meta["config"]["model"]["beta"] == 1.0
    # one float64 .npy, row i = R[i, 0..i] then C[i, i..n]: both diagonals
    RC = np.load(out / "RC.npy", allow_pickle=False)
    assert RC.dtype == np.float64 and RC.shape == (51, 52)
    rows = np.arange(51)
    assert (RC[rows, rows] == 1.0).all() and (RC[rows, rows + 1] == 1.0).all()


def test_solve_records_phase_timings(tmp_path):
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "out"
    assert main(["solve-hard", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    timings = meta["timings"]
    assert set(timings) == {"solve_s", "audit_s", "write_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert sum(timings.values()) <= meta["wall_time_s"] + 0.01


def test_artifacts_roundtrip_bitwise(tmp_path):
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "out"
    main(["solve-hard", "--config", str(cfg), "--out", str(out)])
    bundle, meta = load_bundle(out)
    assert meta["command"] == "solve-hard"
    again = tmp_path / "again"
    again.mkdir()
    save_bundle(bundle, again)
    for name in ("RC.npy", "series.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name
    # .npy and the 17-digit series dump reproduce every float64 exactly
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
    for name in ("RC.npy", "series.csv", "invariants.json"):
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


@pytest.mark.parametrize("command", ["compare", "sk"])
def test_a_bad_sk_model_is_rejected_before_any_march(tmp_path, capsys,
                                                     monkeypatch, command):
    """G* <= 1 has no stable well for the closed form: parse_config raises
    ValidationError, so compare exits 1 without running the general march."""
    import spinband.sk
    import spinband.volterra

    def never(*args, **kwargs):
        raise AssertionError("a march ran")

    for module, name in ((spinband.volterra, "solve_hard"),
                         (spinband.sk, "solve_two_time")):
        monkeypatch.setattr(module, name, never)
    payload = solve_cfg()
    payload["model"] = {**SK_MODEL, "G_star": 0.9, "E_star": 0.45}
    cfg = write_cfg(tmp_path, "bad.json", payload)
    with pytest.raises(ValidationError, match="G_star > 1"):
        parse_config(cfg, command=command)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError: sk model rejected"), err


@pytest.mark.parametrize("against, error, message", [
    ("hard", ParseError, "must be sk|soft"),
    ("soft", ValidationError, "needs a soft constraint")])
def test_a_bad_compare_block_is_rejected_at_parse_time(tmp_path, against,
                                                       error, message):
    """An unknown 'against', or 'soft' with the hard constraint, raises
    before any march."""
    cfg = write_cfg(tmp_path, "cmp.json", solve_cfg(compare={"against": against}))
    with pytest.raises(error, match=message):
        parse_config(cfg, command="compare")


@pytest.mark.parametrize("module, name, error", [
    ("volterra", "solve_hard", "NotConverged"),
    ("sk", "solve_two_time", "StepUnstable")])
def test_compare_exits_1_when_either_march_raises(tmp_path, capsys, monkeypatch,
                                                  module, name, error):
    """The oracle runs on a worker thread beside the general march; when
    either raises, compare prints its error line, writes no report and
    leaves no thread behind."""
    import threading

    import spinband.errors
    mod = importlib.import_module(f"spinband.{module}")

    def fail(*args, **kwargs):
        raise getattr(spinband.errors, error)("injected")

    monkeypatch.setattr(mod, name, fail)
    cfg = write_cfg(tmp_path, "cmp.json", solve_cfg())
    threads = threading.active_count()
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {error}: injected\n"
    assert threading.active_count() == threads
    assert not (tmp_path / "x" / "report.json").exists()


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


def test_report_takes_the_constraint_from_the_config_echo(tmp_path):
    """A solve-soft run re-audits as soft with no 'constraint' key in its
    metadata.json: the report's audit is the run's own invariants.json."""
    cfg = write_cfg(tmp_path, "run.json", solve_cfg(
        constraint={"kind": "soft", "L": 100.0, "k": 1}))
    out = tmp_path / "out"
    assert main(["solve-soft", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta.pop("constraint") == "soft"
    (out / "metadata.json").write_text(json.dumps(meta))
    rep_cfg = write_cfg(tmp_path, "rep.json", {"report": {"source": str(out)}})
    rep_out = tmp_path / "rep"
    assert main(["report", "--config", str(rep_cfg), "--out", str(rep_out)]) == 0
    audit = json.loads((rep_out / "report.json").read_text())["audit"]
    assert audit == json.loads((out / "invariants.json").read_text())
    assert audit["c_excess"] is None


def test_report_rejects_a_run_that_is_not_a_solve(tmp_path, capsys):
    sk = tmp_path / "sk"
    assert main(["sk", "--config", str(write_cfg(tmp_path, "sk.json", solve_cfg())),
                 "--out", str(sk)]) == 0
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(write_cfg(tmp_path, "sim.json", solve_cfg(
        grid={"T": 0.1, "h": 0.05}, constraint={"kind": "soft", "L": 100.0, "k": 1},
        sim={"N": 16, "dt": 0.002, "seed": 1, "replicas": 2}))), "--out", str(sim)]) == 0
    capsys.readouterr()
    for src, missing in ((sk, "'Hhat' column"), (sim, "no series.csv")):
        rep_cfg = write_cfg(tmp_path, "rep.json", {"report": {"source": str(src)}})
        rep_out = tmp_path / f"rep_{src.name}"
        assert main(["report", "--config", str(rep_cfg), "--out", str(rep_out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ") and missing in err, err
        assert not (rep_out / "report.json").exists()


def _truncate_100_bytes(path):
    path.write_bytes(path.read_bytes()[:-100])
    return "21244 bytes, the header's (51, 52) float64 array needs 21344"


def _resave_unpacked(path):
    np.save(path, read_two_time(path)[1])  # the old layout: full (n+1, n+1) C
    return "expected a C-order float64 (n + 1, n + 2) triangle pack, got float64 (51, 51)"


def _resave_as_float32(path):
    np.save(path, np.load(path).astype(np.float32))
    return "triangle pack, got float32 (51, 52)"


def _resave_as_object(path):
    np.save(path, np.load(path).astype(object))
    return "triangle pack, got object (51, 52)"


def _nan_in_the_r_part(path):
    RC = np.load(path)
    RC[7, 3] = np.nan
    np.save(path, RC)
    return "non-finite value nan at R(7, 3)"


def _nan_in_the_c_part(path):
    RC = np.load(path)
    RC[3, 7] = np.nan  # row 3 holds C[3, 3..50] from column 4 on
    np.save(path, RC)
    return "non-finite value nan at C(3, 6)"


def _pack_for_another_grid(path):
    R, C = read_two_time(path)
    from spinband.cli import _write_two_time
    _write_two_time(path.parent, R[:41, :41], C[:41, :41])
    return "41 rows, the grid needs n + 1 = 51"


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    return "50 rows"


def _shorten_a_row(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[10] = lines[10].rsplit(",", 1)[0] + "\n"
    path.write_text("".join(lines))
    return "line 11: expected 6 comma-separated numbers"


def _inf_in_a_row(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[10] = lines[10].rsplit(",", 1)[0] + ",inf\n"
    path.write_text("".join(lines))
    return "line 11: non-finite value in"


@pytest.mark.parametrize("name, damage", [
    ("RC.npy", _truncate_100_bytes), ("RC.npy", _resave_unpacked),
    ("RC.npy", _resave_as_float32), ("RC.npy", _resave_as_object),
    ("RC.npy", _nan_in_the_r_part), ("RC.npy", _nan_in_the_c_part),
    ("RC.npy", _pack_for_another_grid), ("series.csv", _shorten_a_row),
    ("series.csv", _drop_last_line), ("series.csv", _inf_in_a_row)])
def test_report_rejects_a_damaged_file(tmp_path, capsys, name, damage):
    out = tmp_path / "out"
    assert main(["solve-hard", "--config", str(write_cfg(tmp_path, "run.json", solve_cfg())),
                 "--out", str(out)]) == 0
    expected = damage(out / name)
    capsys.readouterr()
    rep_cfg = write_cfg(tmp_path, "rep.json", {"report": {"source": str(out)}})
    rep_out = tmp_path / "rep"
    assert main(["report", "--config", str(rep_cfg), "--out", str(rep_out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out / name}: "), err
    assert expected in err, err
    assert not (rep_out / "report.json").exists()


def test_report_rejects_a_run_with_the_old_matrix_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve-hard", "--config", str(write_cfg(tmp_path, "run.json", solve_cfg())),
                 "--out", str(out)]) == 0
    R, C = read_two_time(out / "RC.npy")
    np.save(out / "R.npy", R)
    np.save(out / "C.npy", C)
    (out / "RC.npy").unlink()
    capsys.readouterr()
    rep_cfg = write_cfg(tmp_path, "rep.json", {"report": {"source": str(out)}})
    assert main(["report", "--config", str(rep_cfg), "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out}: no RC.npy"), err


@pytest.mark.parametrize("command, constraint", [
    ("solve-hard", None), ("solve-soft", {"kind": "soft", "L": 100.0, "k": 1}),
    ("sk", None)])
def test_rc_npy_round_trips_bitwise(tmp_path, command, constraint):
    """read_two_time returns the solver's R and C bit for bit."""
    from spinband.sk import solve_two_time
    from spinband.volterra import solve_hard, solve_soft
    cfg = write_cfg(tmp_path, "run.json", solve_cfg(constraint=constraint))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    rc = parse_config(cfg, command=command)
    if command == "sk":
        direct = solve_two_time(rc.sk, rc.grid)
    else:
        solve = solve_hard if command == "solve-hard" else solve_soft
        direct = solve(rc.params, rc.nu, rc.grid)
    R, C = read_two_time(out / "RC.npy")
    assert R.tobytes() == direct.R.tobytes()
    assert C.tobytes() == direct.C.tobytes()


@pytest.mark.parametrize("matrix, s, t, value, message", [
    ("R", 3, 5, 0.5, r"R\(3, 5\) = 0.5 lies above the diagonal"),
    ("R", 3, 5, -0.0, r"R\(3, 5\) = -0.0 lies above the diagonal"),
    ("C", 7, 2, 0.25, r"C\(2, 7\) = .* but C\(7, 2\) = 0.25")])
def test_rc_writer_refuses_what_the_pack_would_drop(tmp_path, matrix, s, t,
                                                    value, message):
    """The pack keeps R for t <= s and C for t >= s only, so the writer
    refuses (and leaves no RC.npy) when the dropped half is not exactly
    R's zeros or C's mirror, signed zeros included."""
    from spinband.cli import _write_two_time
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "out"
    assert main(["solve-hard", "--config", str(cfg), "--out", str(out)]) == 0
    bundle, _ = load_bundle(out)
    arrays = {"R": bundle.R.copy(), "C": bundle.C.copy()}
    arrays[matrix][s, t] = value
    (out / "RC.npy").unlink()
    with pytest.raises(ValidationError, match=message):
        _write_two_time(out, arrays["R"], arrays["C"])
    assert not (out / "RC.npy").exists()


def test_save_bundle_streams_its_matrices(tmp_path):
    """save_bundle at n = 400 allocates less than a quarter of one (n+1)^2
    float64 array: RC.npy is written in row blocks, never assembled."""
    import tracemalloc
    from spinband.volterra import solve_hard
    rc = parse_config(write_cfg(tmp_path, "run.json", solve_cfg(grid={"T": 4.0, "h": 0.01})),
                      command="solve-hard")
    bundle = solve_hard(rc.params, rc.nu, rc.grid)
    assert bundle.grid.n == 400
    tracemalloc.start()
    try:
        save_bundle(bundle, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 401 ** 2 / 4, peak
    R, C = read_two_time(tmp_path / "RC.npy")
    assert R.tobytes() == bundle.R.tobytes() and C.tobytes() == bundle.C.tobytes()


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
        "metadata.json", "RC.npy", "series.csv", "constants.json"}
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


def test_sk_gauge_audit_runs_at_late_times(tmp_path):
    """At T = 20 an undamped gauge reference grows like e^{2t} past the
    march's blow-up guard; the G = 1 reference stays bounded."""
    cfg = write_cfg(tmp_path, "sk.json", solve_cfg(grid={"T": 20.0, "h": 0.05}))
    out = tmp_path / "out"
    assert main(["sk", "--config", str(cfg), "--out", str(out)]) == 0
    gaps = json.loads((out / "constants.json").read_text())["superposition"]
    assert gaps["gauge_gap"] <= 1e-3
    assert gaps["linear_gap"] <= 1e-8


def test_simulate_run(tmp_path):
    payload = solve_cfg(grid={"T": 0.5, "h": 0.05},
                        constraint={"kind": "soft", "L": 100.0, "k": 1},
                        sim={"N": 32, "dt": 0.002, "seed": 7, "replicas": 4})
    cfg = write_cfg(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "metadata.json", "snapshots.csv", "per_replica.csv", "C_N.npy",
        "chi_N.npy", "report.json"}
    report = json.loads((out / "report.json").read_text())
    assert report["error_functional"] <= 1.5
    assert len(report["per_replica"]) == 4
    snaps = read_series_csv(out / "snapshots.csv")
    assert snaps["t"].size == 11
    assert abs(snaps["q_N"][0] - 0.5) <= 1e-12
    C = np.load(out / "C_N.npy")
    assert abs(C[0, 0] - 1.0) <= 1e-12


@pytest.mark.parametrize("model, grid", [
    (SK_MODEL, {"T": 0.2, "h": 0.02}),
    ({"coeffs_sq": [0.0, 0.125], "beta": 1.0, "q_star": 1.0, "q_o": 0.5,
      "E_star": 0.2, "G_star": 0.6}, None),
], ids=["p2-grid", "p3-no-grid"])
def test_simulate_matrices_are_the_in_process_observables(tmp_path, model, grid):
    """C_N.npy and chi_N.npy hold, byte for byte, the replica-averaged C and
    chi of the same run recomputed in-process: C-order float64 (S, S)
    arrays, with C bitwise symmetric."""
    from spinband.simulate import (SimConfig, condition_disorder,
                                   empirical_observables, run_langevin,
                                   sample_disorder)
    sim = {"N": 12, "dt": 0.005, "T": 0.2, "seed": 4, "disorder_seed": 9,
           "replicas": 3, "snap_stride": 4}
    payload = {"model": model, "constraint": {"kind": "soft", "L": 100.0, "k": 1},
               "sim": sim, **({"grid": grid} if grid else {})}
    cfg_path = write_cfg(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = parse_config(cfg_path, "simulate")
    J = condition_disorder(sample_disorder(12, cfg.nu, 9), cfg.params)
    traj = run_langevin(J, cfg.params, SimConfig(N=12, dt=0.005, T=0.2, seed=4,
                                                 replicas=3, snap_stride=4))
    emp = empirical_observables(traj)
    S = traj.times.size
    assert S == 11
    for name, want in (("C_N.npy", emp.C_avg), ("chi_N.npy", emp.chi_avg)):
        with open(out / name, "rb") as f:
            assert np.lib.format.read_magic(f) == (1, 0)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
        assert (shape, fortran, dtype) == ((S, S), False, np.float64)
        assert np.load(out / name).tobytes() == want.tobytes()
    C = np.load(out / "C_N.npy")
    assert np.array_equal(C.view(np.uint64), C.T.view(np.uint64))


def test_simulate_refuses_oversize_snapshots_before_sampling(tmp_path, capsys,
                                                            monkeypatch):
    """Snapshots and observables over the 2 GiB budget exit 1 with
    SizeOverflow before any disorder is drawn: the simulate-p2 benchmark
    config without its grid block (stride 1, 4001 snapshots, 2.51 GB)."""
    import spinband.simulate

    def never(*args, **kwargs):
        raise AssertionError("sample_disorder ran")

    monkeypatch.setattr(spinband.simulate, "sample_disorder", never)
    payload = {"model": dict(SK_MODEL),
               "constraint": {"kind": "soft", "L": 100.0, "k": 1},
               "sim": {"N": 400, "dt": 5e-4, "T": 2.0, "seed": 1, "replicas": 8}}
    cfg = write_cfg(tmp_path, "sim.json", payload)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SizeOverflow: ") and "2510003344 bytes" in err


def test_simulate_records_phase_timings(tmp_path):
    payload = solve_cfg(grid={"T": 0.2, "h": 0.05},
                        constraint={"kind": "soft", "L": 100.0, "k": 1},
                        sim={"N": 16, "dt": 0.005, "seed": 7, "replicas": 2})
    cfg = write_cfg(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    timings = meta["timings"]
    assert set(timings) == {"disorder_s", "langevin_s", "observables_s",
                            "limit_s", "write_s"}
    assert all(v >= 0.0 for v in timings.values())
    assert sum(timings.values()) <= meta["wall_time_s"] + 0.01


def test_runs_record_their_peak_rss(tmp_path, monkeypatch):
    """Every run's metadata.json carries the process's VmHWM in MiB, and it
    covers the couplings: fresh pure p = 3 simulate processes at N = 200
    and N = 8 differ by at least 0.9 of the N = 200 store.  Null without
    procfs."""
    import spinband.cli as cli
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def simulate_peak(N):
        payload = {"model": {"coeffs_sq": [0.0, 0.125], "beta": 1.0, "q_star": 1.0,
                             "q_o": 0.5, "E_star": 0.2, "G_star": 0.6},
                   "constraint": {"kind": "soft", "L": 100.0, "k": 1},
                   "sim": {"N": N, "dt": 0.005, "T": 0.01, "seed": 7, "replicas": 2}}
        cfg = write_cfg(tmp_path, f"sim{N}.json", payload)
        out = tmp_path / f"sim{N}"
        proc = subprocess.run(
            [sys.executable, "-m", "spinband", "simulate", "--config", str(cfg),
             "--out", str(out), "--threads", "1"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads((out / "metadata.json").read_text())["peak_rss_mb"]

    store_mib = 8 * 200 * 200 * (200 // 2 + 1) / 2 ** 20
    assert simulate_peak(200) - simulate_peak(8) >= 0.9 * store_mib
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    peak = json.loads((out / "metadata.json").read_text())["peak_rss_mb"]
    assert isinstance(peak, float) and peak > 0
    monkeypatch.setattr(cli, "_PROC_STATUS", tmp_path / "no-such-file")
    assert main(["solve-hard", "--config", str(cfg), "--out",
                 str(tmp_path / "solve")]) == 0
    meta = json.loads((tmp_path / "solve" / "metadata.json").read_text())
    assert "peak_rss_mb" in meta and meta["peak_rss_mb"] is None


_SOFT = {"kind": "soft", "L": 100.0, "k": 1}
_RUN_CONFIGS = {
    "solve-hard": solve_cfg(),
    "solve-soft": solve_cfg(constraint=_SOFT),
    "fdt": solve_cfg(fdt={"gamma": 0.5}),
    "sk": solve_cfg(),
    "simulate": solve_cfg(grid={"T": 0.2, "h": 0.05}, constraint=_SOFT,
                          sim={"N": 16, "dt": 0.005, "seed": 7, "replicas": 2}),
    "compare": solve_cfg(),
    "report": None,  # a solve-hard run directory, made in the test
}
META_KEYS = {"command", "config", "package_version", "numpy_version",
             "python_version", "wall_time_s", "peak_rss_mb"}


@pytest.mark.parametrize("command", list(_RUN_CONFIGS))
def test_every_command_writes_metadata_once(tmp_path, monkeypatch, command):
    """Each command's run writes metadata.json exactly once, with the
    common keys, and its wall time covers the recorded phase timings."""
    import spinband.cli as cli
    payload = _RUN_CONFIGS[command]
    if payload is None:
        source = tmp_path / "source"
        assert main(["solve-hard", "--config", str(write_cfg(tmp_path, "s.json",
                     solve_cfg())), "--out", str(source)]) == 0
        payload = {"report": {"source": str(source)}}
    cfg = write_cfg(tmp_path, "run.json", payload)
    writes = []
    write_json = cli._write_json

    def record(path, obj):
        writes.append(path.name)
        write_json(path, obj)

    monkeypatch.setattr(cli, "_write_json", record)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert writes.count("metadata.json") == 1
    meta = json.loads((out / "metadata.json").read_text())
    assert META_KEYS <= set(meta)
    assert meta["command"] == command
    assert meta["config"] == json.loads(cfg.read_text())
    assert sum(meta.get("timings", {}).values()) <= meta["wall_time_s"] + 0.01


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
    assert "solve-soft needs a soft 'constraint' block" in capsys.readouterr().err
    soft = write_cfg(tmp_path, "soft.json", solve_cfg(
        constraint={"kind": "soft", "L": 100.0, "k": 1}))
    assert main(["solve-hard", "--config", str(soft),
                 "--out", str(tmp_path / "x")]) == 1
    assert "solve-hard needs a hard 'constraint' block" in capsys.readouterr().err
    top_level = write_cfg(tmp_path, "top.json", {"source": str(tmp_path / "x")})
    assert main(["report", "--config", str(top_level),
                 "--out", str(tmp_path / "y")]) == 1
    assert "report needs 'report.source'" in capsys.readouterr().err

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


_SIM = {"N": 16, "dt": 0.005, "seed": 7, "replicas": 2}


@pytest.mark.parametrize("grid, sim", [
    ({"T": 1.0, "h": 0}, None),
    ({"T": 1.0, "h": "x"}, None),
    ({"T": math.nan, "h": 0.02}, None),
    ({"T": 1e300, "h": 1e-300}, None),
    (None, {**_SIM, "N": "x"}),
    (None, {**_SIM, "replicas": 0}),
    (None, {**_SIM, "snap_stride": 0}),
    (None, {**_SIM, "seed": -1}),
], ids=["grid.h=0", "grid.h=x", "grid.T=nan", "T/h-overflows", "sim.N=x",
        "sim.replicas=0", "sim.snap_stride=0", "sim.seed=-1"])
def test_malformed_grid_and_sim_values_exit_1(tmp_path, capsys, grid, sim):
    """A grid or sim value that is not a usable number is an error line
    naming a ParseError, ValidationError or GridMismatch, not a traceback."""
    if sim is None:
        command, payload = "solve-hard", solve_cfg(grid=grid)
    else:
        command = "simulate"
        payload = solve_cfg(grid={"T": 0.2, "h": 0.05},
                            constraint={"kind": "soft", "L": 100.0, "k": 1},
                            sim=sim)
    cfg = write_cfg(tmp_path, "bad.json", payload)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: (ParseError|ValidationError|GridMismatch): ", err), err


@pytest.mark.parametrize("command, block, key, value", [
    ("fdt", "fdt", "gamma", "abc"),
    ("fdt", "fdt", "gamma", None),
    ("compare", "compare", "tol", "abc"),
    ("compare", "compare", "tol", math.inf),
    ("solve-soft", "constraint", "k", 1.5),
    ("simulate", "sim", "N", 16.5),
    ("simulate", "sim", "replicas", 2.5),
    ("simulate", "sim", "seed", 1.5),
    ("simulate", "sim", "snap_stride", "2"),
    ("simulate", "sim", "disorder_seed", 3.5),
], ids=["fdt.gamma=abc", "fdt.gamma=null", "compare.tol=abc", "compare.tol=inf",
        "constraint.k=1.5", "sim.N=16.5", "sim.replicas=2.5", "sim.seed=1.5",
        "sim.snap_stride='2'", "sim.disorder_seed=3.5"])
def test_unusable_numbers_are_parse_errors(tmp_path, capsys, command, block,
                                           key, value):
    """A number field that is not a finite number, or an integer field that
    is not integral, exits 1 with a ParseError naming the field, and no
    artifact is written."""
    payload = json.loads(json.dumps(_RUN_CONFIGS[command]))
    payload.setdefault(block, {})[key] = value
    cfg = write_cfg(tmp_path, "bad.json", payload)
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: field '{block}.{key}' must be"), err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


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
    # full storage reads back as is; a repeated entry is rejected
    A = np.array([[1.0, -0.5], [0.25, 2.0]])
    write_matrix_csv(tmp_path / "full.csv", A)
    assert np.array_equal(read_matrix_csv(tmp_path / "full.csv", 1), A)
    bad.write_text("i,j,value\n0,0,1.0\n1,0,2.0\n1,0,2.0\n")
    with pytest.raises(ParseError, match="once, read 3 lines"):
        read_matrix_csv(bad, 1)


def test_writers_match_the_per_entry_format(tmp_path):
    """The row-at-a-time writers give the bytes of formatting entry by
    entry with %.17g: signed zeros, a subnormal, +-1e308 and integer
    columns, whether held as floats, int64 or Python ints."""
    M = np.array([[0.0, -0.0, 5e-324, 1e308, 3.0],
                  [-1e308, 1.0 / 3.0, -2.5e-310, 7.0, -4.0],
                  [math.pi, -0.1, 1e-300, 2.0 ** 60, 0.0]])
    write_matrix_csv(tmp_path / "m.csv", M)
    want = "i,j,value\n" + "".join(f"{i},{j},{'%.17g' % v}\n"
                                   for i, row in enumerate(M)
                                   for j, v in enumerate(row))
    assert (tmp_path / "m.csv").read_text() == want
    columns = (np.arange(3), [7, -8, 2 ** 40], *M.T)
    names = [f"c{k}" for k in range(len(columns))]
    write_series_csv(tmp_path / "s.csv", names, columns)
    want = ",".join(names) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in zip(*columns))
    assert (tmp_path / "s.csv").read_text() == want


def test_series_writer_refuses_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        write_series_csv(tmp_path / "s.csv", ("a", "b"),
                         (np.arange(3.0), np.arange(2.0)))


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


def test_traced_layers_and_exports_resolve():
    """Every function perfbench/tracer.py wraps exists in its spinband
    module, and every package-root re-export resolves: a rename that misses
    either breaks traced benchmark runs or `spinband.<name>` silently."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # importing the tracer has no side effects
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"spinband.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for name, layer in spinband._EXPORTS.items():
        module = importlib.import_module(f"spinband.{layer}")
        assert hasattr(module, name), f"{layer}.{name}"
        assert getattr(spinband, name) is getattr(module, name)


@pytest.mark.parametrize("sim", [
    {"N": 16, "dt": 0.003, "seed": 7, "replicas": 2},           # stride 3 dt = 0.009
    {"N": 16, "dt": 0.005, "T": 0.6, "seed": 7, "replicas": 2},  # past the grid's T
], ids=["off-grid-stride", "past-grid-T"])
def test_simulate_rejects_off_grid_snapshots_before_sampling(tmp_path, capsys,
                                                             monkeypatch, sim):
    """Snapshots that miss the limit grid exit 1 before any disorder is drawn."""
    import spinband.simulate

    def never(*args, **kwargs):
        raise AssertionError("sample_disorder ran")

    monkeypatch.setattr(spinband.simulate, "sample_disorder", never)
    payload = solve_cfg(grid={"T": 0.27, "h": 0.01},
                        constraint={"kind": "soft", "L": 100.0, "k": 1}, sim=sim)
    cfg = write_cfg(tmp_path, "sim.json", payload)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "GridMismatch" in capsys.readouterr().err


def test_readme_names_every_audit_and_diagnostic_key(tmp_path):
    """The README's Artifacts section names, in backticks, every file a
    solve-hard and an sk run write, every key of a solve run's
    invariants.json and the diagnostic keys of its metadata.json, so a
    renamed or added file or key cannot go undocumented."""
    cfg = write_cfg(tmp_path, "run.json", solve_cfg(grid={"T": 0.2, "h": 0.02}))
    out, sk = tmp_path / "out", tmp_path / "sk"
    assert main(["solve-hard", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["sk", "--config", str(cfg), "--out", str(sk)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    diagnostics = ("pc_gap", "peak_rss_mb", "timings")
    assert all(k in meta for k in diagnostics)
    keys = {*json.loads((out / "invariants.json").read_text()), *diagnostics,
            *meta["timings"], *(p.name for d in (out, sk) for p in d.iterdir())}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Artifacts", 1)[1].split("\n## ", 1)[0]
    missing = sorted(k for k in keys if f"`{k}`" not in section)
    assert not missing, missing
