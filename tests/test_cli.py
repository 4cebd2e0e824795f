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
                          read_series_csv, read_triangle, save_bundle,
                          write_matrix_csv, write_series_csv)
from spinband.errors import GridMismatch, ParseError, ValidationError

SK_MODEL = {"coeffs_sq": [0.125], "beta": 1.0, "q_star": 1.0, "q_o": 0.5,
            "E_star": 0.625, "G_star": 1.25}
P3_MODEL = {"coeffs_sq": [0.0, 0.125], "beta": 1.0, "q_star": 1.0, "q_o": 0.5,
            "E_star": 0.2, "G_star": 0.6}

SOLVE_FILES = {"metadata.json", "R.npy", "C.npy", "series.csv", "invariants.json"}
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
    # R and C each a 1-D float64 .npy of M(s, 0..s), row by row; row s
    # ends at its diagonal, entry s (s + 3) / 2
    rows = np.arange(51)
    for name in ("R.npy", "C.npy"):
        tri = np.load(out / name, allow_pickle=False)
        assert tri.dtype == np.float64 and tri.shape == (51 * 52 // 2,)
        assert (tri[rows * (rows + 3) // 2] == 1.0).all()


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
    for name in ("R.npy", "C.npy", "series.csv"):
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
    # the echo is read under the config's number rule: a string is no number
    meta["config"]["model"]["beta"] = "1.0"
    (out / "metadata.json").write_text(json.dumps(meta))
    with pytest.raises(ParseError, match="field 'model.beta' must be a finite number"):
        load_bundle(out)


def test_rerun_from_metadata_echo(tmp_path):
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    out1 = tmp_path / "one"
    main(["solve-hard", "--config", str(cfg), "--out", str(out1)])
    echo = json.loads((out1 / "metadata.json").read_text())["config"]
    cfg2 = write_cfg(tmp_path, "echo.json", echo)
    out2 = tmp_path / "two"
    assert main(["solve-hard", "--config", str(cfg2), "--out", str(out2)]) == 0
    for name in ("R.npy", "C.npy", "series.csv", "invariants.json"):
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
    assert err.startswith("error: ValidationError: needs G_star > 1 for a stable well"), err


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


@pytest.mark.parametrize("data, message", [
    (b"{not json", "line 1 column 2: Expecting property name"),
    (b"[1, 2]", "top level must be a JSON object"),
    (b"\xff{}", "not UTF-8 text"),
], ids=["not-json", "not-an-object", "not-utf-8"])
def test_report_rejects_a_damaged_metadata_json(tmp_path, capsys, data, message):
    """A source run whose metadata.json is not a JSON object exits 1 with a
    ParseError naming the file, as a damaged config does, not a traceback."""
    out = tmp_path / "out"
    main(["solve-hard", "--config", str(write_cfg(tmp_path, "run.json", solve_cfg())),
          "--out", str(out)])
    (out / "metadata.json").write_bytes(data)
    capsys.readouterr()
    rep_cfg = write_cfg(tmp_path, "rep.json", {"report": {"source": str(out)}})
    assert main(["report", "--config", str(rep_cfg), "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out / 'metadata.json'}: {message}"), err
    assert not (tmp_path / "rep" / "report.json").exists()


@pytest.mark.parametrize("which", ["config", "metadata"])
def test_a_directory_in_place_of_a_json_file_is_a_parse_error(tmp_path, capsys, which):
    """--config naming a directory, or a source run whose metadata.json is a
    directory, exits 1 with a ParseError naming it, not a traceback."""
    out = tmp_path / "out"
    main(["solve-hard", "--config", str(write_cfg(tmp_path, "run.json", solve_cfg())),
          "--out", str(out)])
    if which == "config":
        cfg, bad = tmp_path / "cfg.json", tmp_path / "cfg.json"
        cfg.mkdir()
    else:
        bad = out / "metadata.json"
        bad.unlink()
        bad.mkdir()
        cfg = write_cfg(tmp_path, "rep.json", {"report": {"source": str(out)}})
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {bad}: not readable: "), err
    assert "Traceback" not in err
    assert not (tmp_path / "rep" / "report.json").exists()


def _triangle_for_another_grid(path):
    from spinband.cli import _write_triangle
    _write_triangle(path, read_triangle(path, False)[:41, :41], False)
    return "41 rows, the grid needs n + 1 = 51"


def _r_diagonal_one_ulp_high(path):
    tri = np.load(path)
    tri[3 * 4 // 2 + 3] = np.nextafter(1.0, 2.0)  # R(3, 3): row 3 starts at entry 6
    np.save(path, tri)
    return "R(3, 3) = 1.0000000000000002, but a solve writes 1"


def _c_diagonal_one_ulp_low(path):
    tri = np.load(path)
    tri[3 * 4 // 2 + 3] = np.nextafter(1.0, 0.0)  # C(3, 3) = K(3), 1 on the sphere
    np.save(path, tri)
    return "C(3, 3) = 0.9999999999999999, but a solve writes 1"


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    return "50 rows"


def _shorten_a_row(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[10] = lines[10].rsplit(",", 1)[0] + "\n"
    path.write_text("".join(lines))
    return "line 11: expected 5 comma-separated numbers"


def _inf_in_a_row(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[10] = lines[10].rsplit(",", 1)[0] + ",inf\n"
    path.write_text("".join(lines))
    return "line 11: non-finite value in"


@pytest.mark.parametrize("name, damage", [
    ("R.npy", _triangle_for_another_grid), ("R.npy", _r_diagonal_one_ulp_high),
    ("C.npy", _c_diagonal_one_ulp_low), ("series.csv", _shorten_a_row),
    ("series.csv", _drop_last_line), ("series.csv", _inf_in_a_row)])
def test_report_rejects_a_damaged_file(tmp_path, capsys, name, damage):
    """A damaged solve directory is rejected naming the file: a series.csv
    line that does not parse or is missing, and load_bundle's checks past
    read_triangle's (tested on each triangle file below), the grid's row
    count and the unit diagonals a solve writes."""
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


@pytest.mark.parametrize("constraint", [None, {"kind": "soft", "L": 100.0, "k": 1}],
                         ids=["hard", "soft"])
def test_a_series_with_the_old_k_column_loads_bitwise(tmp_path, constraint):
    """K is read from C's diagonal. A series.csv in the older
    t,q,K,mu,H,Hhat layout (K the diagonal, as every solve wrote it) loads
    to the same bits, its K column ignored."""
    cfg = write_cfg(tmp_path, "run.json", solve_cfg(constraint=constraint))
    out = tmp_path / "out"
    command = "solve-soft" if constraint else "solve-hard"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert read_series_csv(out / "series.csv").keys() == {"t", "q", "mu", "H", "Hhat"}
    new, _ = load_bundle(out)
    assert np.array_equal(new.K, np.diag(new.C))
    assert (new.K != 1.0).any() == bool(constraint)  # 1 bit for bit on the sphere
    write_series_csv(out / "series.csv", ("t", "q", "K", "mu", "H", "Hhat"),
                     (new.grid.times(), new.q, new.K, new.mu, new.H, new.Hhat))
    old, _ = load_bundle(out)
    for name in ("R", "C", "q", "K", "mu", "H", "Hhat"):
        assert getattr(old, name).tobytes() == getattr(new, name).tobytes(), name


def test_report_rejects_a_run_with_the_old_matrix_files(tmp_path, capsys):
    """No reader is kept for the older layouts: a run holding the full
    (n + 1, n + 1) R.npy and C.npy is rejected by R.npy's header, and one
    holding only the (n + 1, n + 2) RC.npy pack by its missing R.npy."""
    out = tmp_path / "out"
    assert main(["solve-hard", "--config", str(write_cfg(tmp_path, "run.json", solve_cfg())),
                 "--out", str(out)]) == 0
    R, C = read_triangle(out / "R.npy", False), read_triangle(out / "C.npy", True)
    rep_cfg = write_cfg(tmp_path, "rep.json", {"report": {"source": str(out)}})
    np.save(out / "R.npy", R)
    np.save(out / "C.npy", C)
    capsys.readouterr()
    assert main(["report", "--config", str(rep_cfg), "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out / 'R.npy'}: expected a C-order float64 "
                          "(S (S + 1) / 2,) lower triangle, got float64 (51, 51)"), err
    # row i of the pack: R(i, 0..i), then C(i, i..n)
    np.save(out / "RC.npy", [np.concatenate([R[i, :i + 1], C[i, i:]]) for i in range(51)])
    (out / "R.npy").unlink()
    (out / "C.npy").unlink()
    assert main(["report", "--config", str(rep_cfg), "--out", str(tmp_path / "rep")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out}: no R.npy"), err


# --------------------------------------------------------------------------
# two-time storage: R.npy and C.npy (solve, sk) and C_N.npy (simulate), one
# lower-triangle layout through _write_triangle and read_triangle
# --------------------------------------------------------------------------

TRIANGLES = [("R.npy", False), ("C.npy", True), ("C_N.npy", True)]


def _two_time(symmetric):
    """An 11 x 11 test matrix: a symmetric C, or an R that is zero above the
    diagonal."""
    x = np.random.default_rng(5).standard_normal(11)
    return np.add.outer(x, x) if symmetric else np.tril(np.subtract.outer(x, x) + 1.0)


@pytest.mark.parametrize("command, constraint", [
    ("solve-hard", None), ("solve-soft", {"kind": "soft", "L": 100.0, "k": 1}),
    ("sk", None)])
def test_two_time_files_round_trip_bitwise(tmp_path, command, constraint):
    """R.npy and C.npy hold the solver's R and C on t <= s, row by row, and
    read_triangle returns both bit for bit.  (simulate's C_N.npy:
    test_simulate_matrices_are_the_in_process_observables.)"""
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
    lower = np.tril_indices(rc.grid.n + 1)
    for name, M in (("R", direct.R), ("C", direct.C)):
        assert np.load(out / f"{name}.npy").tobytes() == M[lower].tobytes()
        assert read_triangle(out / f"{name}.npy", name == "C").tobytes() == M.tobytes()


def _above_the_diagonal(value):
    def damage(M):
        M[3, 5] = value
        return M
    return damage


def _through_a_row_builder(M):
    """R as the sk command passes it, a callable that builds row blocks."""
    M[3, 5] = 0.5
    return lambda r: M[r].copy()


def _asymmetric(M):
    M[7, 2] = 0.25
    return M


@pytest.mark.parametrize("name, symmetric, damage, message", [
    ("R.npy", False, _above_the_diagonal(0.5), r"R\(3, 5\) = 0.5 lies above the diagonal"),
    ("R.npy", False, _above_the_diagonal(-0.0), r"R\(3, 5\) = -0.0 lies above the diagonal"),
    ("R.npy", False, _through_a_row_builder, r"R\(3, 5\) = 0.5 lies above the diagonal"),
    ("C.npy", True, _asymmetric, r"C\(2, 7\) = .* but C\(7, 2\) = 0.25"),
    ("C_N.npy", True, _asymmetric, r"C\(2, 7\) = .* but C\(7, 2\) = 0.25")],
    ids=["R-above", "R-negative-zero-above", "R-row-builder", "C-asymmetric",
         "C_N-asymmetric"])
def test_triangle_writer_refuses_what_the_reader_cannot_restore(tmp_path, name, symmetric,
                                                               damage, message):
    """The file keeps t <= s only, so the writer refuses, bit for bit, an R
    that is not zero above the diagonal (-0.0 included, and R read through
    a row builder) and a C that is not its own mirror, and leaves no file,
    also where a good one stood."""
    from spinband.cli import _write_triangle
    path = tmp_path / name
    _write_triangle(path, _two_time(symmetric), symmetric)
    with pytest.raises(ValidationError, match=message):
        _write_triangle(path, damage(_two_time(symmetric)), symmetric)
    assert not path.exists()


def _truncated(path):
    path.write_bytes(path.read_bytes()[:-100])
    return "556 bytes, the header's (66,) float64 array needs 656"


def _as_float32(path):
    np.save(path, np.load(path).astype(np.float32))
    return "lower triangle, got float32 (66,)"


def _as_object(path):
    np.save(path, np.load(path).astype(object))
    return "lower triangle, got object (66,)"


def _as_the_full_square(path):
    np.save(path, read_triangle(path, path.name != "R.npy"))  # the layout before
    return "expected a C-order float64 (S (S + 1) / 2,) lower triangle, got float64 (11, 11)"


def _one_entry_short(path):
    np.save(path, np.load(path)[:-1])
    return "lower triangle, got float64 (65,)"


def _nan_entry(path):
    tri = np.load(path)
    tri[7 * 8 // 2 + 3] = np.nan  # row 7 starts at entry 7 * 8 / 2
    np.save(path, tri)
    return f"non-finite value nan at {'R' if path.name == 'R.npy' else 'C'}(7, 3)"


@pytest.mark.parametrize("damage", [_truncated, _as_float32, _as_object,
                                    _as_the_full_square, _one_entry_short, _nan_entry])
@pytest.mark.parametrize("name, symmetric", TRIANGLES, ids=[n for n, _ in TRIANGLES])
def test_triangle_reader_rejects_a_damaged_file(tmp_path, name, symmetric, damage):
    """read_triangle returns what the writer stored bit for bit, and rejects
    with a ParseError naming the file another dtype or layout (the full
    square of older runs among them), a length that is not S (S + 1) / 2, a
    size the header does not give, and a non-finite entry by its (s, t)."""
    from spinband.cli import _write_triangle
    path = tmp_path / name
    M = _two_time(symmetric)
    _write_triangle(path, M, symmetric)
    assert read_triangle(path, symmetric).tobytes() == M.tobytes()
    message = damage(path)
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        read_triangle(path, symmetric)
    assert str(info.value).startswith(f"{path}: ")


def test_compare_against_sk_holds_three_square_arrays(tmp_path):
    """compare against sk holds the general R and C and the oracle's C, and
    reads the oracle's R by row block: traced peak below 3.6 (n+1)^2 floats
    at n = 400."""
    import tracemalloc
    from spinband.cli import _run_compare
    configs = {}
    for name, T in (("warm", 0.1), ("run", 4.0)):
        path = write_cfg(tmp_path, f"{name}.json", solve_cfg(grid={"T": T, "h": 0.01}))
        configs[name] = parse_config(path, command="compare")
        (tmp_path / name).mkdir()
    _run_compare(configs["warm"], tmp_path / "warm")  # lazy imports
    assert configs["run"].grid.n == 400
    tracemalloc.start()
    try:
        passed, _ = _run_compare(configs["run"], tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert passed
    assert peak <= 3.6 * 8 * 401 ** 2, peak


def test_save_bundle_streams_its_matrices(tmp_path):
    """save_bundle at n = 400 allocates less than a quarter of one (n+1)^2
    float64 array: R.npy and C.npy are written in row blocks, never
    assembled."""
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
    assert read_triangle(tmp_path / "R.npy", False).tobytes() == bundle.R.tobytes()
    assert read_triangle(tmp_path / "C.npy", True).tobytes() == bundle.C.tobytes()


def test_fdt_constants(tmp_path):
    payload = {"model": {"coeffs_sq": [0.0, 0.125], "beta": 0.3,
                         "q_star": 1.0},
               "grid": {"T": 35.0, "h": 0.005},
               "fdt": {"gamma": 0.5}}
    cfg = write_cfg(tmp_path, "fdt.json", payload)
    out = tmp_path / "out"
    assert main(["fdt", "--config", str(cfg), "--out", str(out)]) == 0
    con = json.loads((out / "constants.json").read_text())
    assert set(con) == {"gamma", "mu_infty", "D_inf", "I", "kappa1_closed",
                        "kappa2_closed", "beta_c", "kappa_quadrature"}
    assert abs(con["beta_c"] - math.sqrt(8.0 / 3.0)) <= 1e-6
    assert con["D_inf"] == 0.0
    assert abs(con["mu_infty"] - 0.5675) <= 1e-12
    assert con["kappa1_closed"] == 0.75 and con["kappa2_closed"] == 2.0
    quad = con["kappa_quadrature"]
    assert len(quad) == 2 and abs(quad[0] - 0.75) <= 1e-4 and abs(quad[1] - 2.0) <= 1e-4
    series = read_series_csv(out / "series.csv")
    assert list(series) == ["tau", "D", "R_fdt"]
    assert series["D"][0] == 1.0 and series["R_fdt"][0] == 1.0

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
        "metadata.json", "R.npy", "C.npy", "series.csv", "constants.json"}
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


def test_sk_in_the_delocalized_phase_writes_null_asymptotics(tmp_path):
    """At beta <= y there is no localized limit: the run still writes every
    file and exits 0, with the asymptotic constants null and a note naming
    the NoBranch."""
    cfg = write_cfg(tmp_path, "sk.json", {**solve_cfg(), "model": {**SK_MODEL, "beta": 0.3}})
    out = tmp_path / "out"
    assert main(["sk", "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "metadata.json", "R.npy", "C.npy", "series.csv", "constants.json"}
    con = json.loads((out / "constants.json").read_text())
    assert con["y"] == 0.5
    assert con["alpha_sq"] is None and con["mu_infty"] is None and con["H_infty"] is None
    assert con["asymptotics_note"] == "NoBranch: beta = 0.3 <= y = 0.5"
    assert con["superposition"]["linear_gap"] <= 1e-8


def test_fdt_zero_mixture_notes_the_missing_beta_c(tmp_path):
    cfg = write_cfg(tmp_path, "fdt.json", {
        "model": {"coeffs_sq": [0.0], "beta": 1.0, "q_star": 1.0},
        "grid": {"T": 1.0, "h": 0.01}})
    out = tmp_path / "out"
    assert main(["fdt", "--config", str(cfg), "--out", str(out)]) == 0
    con = json.loads((out / "constants.json").read_text())
    assert con["beta_c"] is None
    assert con["beta_c_note"] == ("ValidationError: zero mixture has no finite "
                                  "critical temperature")


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
    C = read_triangle(out / "C_N.npy", True)
    assert C.shape == (11, 11)
    assert abs(C[0, 0] - 1.0) <= 1e-12


@pytest.mark.parametrize("model, grid", [
    (SK_MODEL, {"T": 0.2, "h": 0.02}),
    (P3_MODEL, None),
], ids=["p2-grid", "p3-no-grid"])
def test_simulate_matrices_are_the_in_process_observables(tmp_path, model, grid):
    """C_N.npy and chi_N.npy hold, byte for byte, the replica-averaged C and
    chi of the same run recomputed in-process: C's lower triangle row by
    row, an (S (S + 1) / 2,) C-order float64 array that read_triangle
    mirrors, and chi as an (S, S) one."""
    from spinband.model import SimConfig
    from spinband.simulate import (condition_disorder, empirical_observables,
                                   run_langevin, sample_disorder)
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
    for name, size in (("C_N.npy", (S * (S + 1) // 2,)), ("chi_N.npy", (S, S))):
        with open(out / name, "rb") as f:
            assert np.lib.format.read_magic(f) == (1, 0)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
        assert (shape, fortran, dtype) == (size, False, np.float64)
    assert np.load(out / "C_N.npy").tobytes() == emp.C_avg[np.tril_indices(S)].tobytes()
    assert read_triangle(out / "C_N.npy", True).tobytes() == emp.C_avg.tobytes()
    assert np.load(out / "chi_N.npy").tobytes() == emp.chi_avg.tobytes()


@pytest.mark.parametrize("S", [11, 45])
@pytest.mark.parametrize("model", [SK_MODEL, P3_MODEL], ids=["p2", "p3"])
def test_c_n_diagonal_is_the_mean_radius(tmp_path, model, S):
    """snapshots.csv stores no K_N, because C_N.npy's diagonal is the
    replica mean of the run's radii |x|^2/N bit for bit: at 11 snapshots
    (one row tile) and at 45 (a second, partial tile).  per_replica.csv
    keeps each replica's K_N."""
    from spinband.model import SimConfig
    from spinband.simulate import condition_disorder, run_langevin, sample_disorder
    sim = {"N": 40, "dt": 0.005, "T": 0.005 * (S - 1), "seed": 4, "disorder_seed": 9,
           "replicas": 3, "snap_stride": 1}
    cfg_path = write_cfg(tmp_path, "sim.json", {
        "model": model, "constraint": {"kind": "soft", "L": 100.0, "k": 1}, "sim": sim})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    cfg = parse_config(cfg_path, "simulate")
    J = condition_disorder(sample_disorder(40, cfg.nu, 9), cfg.params)
    traj = run_langevin(J, cfg.params, SimConfig(**{k: v for k, v in sim.items()
                                                    if k != "disorder_seed"}))
    assert traj.times.size == S
    K_N = np.diag(read_triangle(out / "C_N.npy", True))
    assert K_N.tobytes() == traj.K.mean(axis=1).tobytes()
    assert list(read_series_csv(out / "snapshots.csv")) == ["t", "q_N", "H_N"]
    assert read_series_csv(out / "per_replica.csv")["K_N"].tobytes() == traj.K.T.tobytes()


def test_c_n_pack_streams_at_3001_snapshots(tmp_path):
    """Writing the C_N of 3001 snapshots (a T = 30 run at h = 0.01) and
    reading it back allocate at most one _PACK_ROWS row block beyond the
    input and the returned square, and the file holds half the square."""
    import tracemalloc
    from spinband.cli import _PACK_ROWS, _write_triangle
    S, path = 3001, tmp_path / "C_N.npy"
    x = np.random.default_rng(3).standard_normal(S)
    C = np.add.outer(x, x)
    tracemalloc.start()
    try:
        _write_triangle(path, C, True)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_triangle(path, True)
        read_peak = tracemalloc.get_traced_memory()[1] - back.nbytes
    finally:
        tracemalloc.stop()
    block = 8 * _PACK_ROWS * S
    assert write_peak <= block and read_peak <= block, (write_peak, read_peak, block)
    assert back.tobytes() == C.tobytes()
    assert path.stat().st_size == 128 + 8 * S * (S + 1) // 2  # 36 MB, the square 72


def test_simulate_refuses_oversize_snapshots_before_sampling(tmp_path, capsys,
                                                            monkeypatch):
    """Snapshots and observables over the 2 GiB budget exit 1 with
    SizeOverflow before any disorder is drawn or the run directory is made:
    the simulate-p2 benchmark config without its grid block and at T = 6
    (stride 1, 12001 snapshots, 2.97 GB)."""
    import spinband.simulate

    def never(*args, **kwargs):
        raise AssertionError("sample_disorder ran")

    monkeypatch.setattr(spinband.simulate, "sample_disorder", never)
    payload = {"model": dict(SK_MODEL),
               "constraint": {"kind": "soft", "L": 100.0, "k": 1},
               "sim": {"N": 400, "dt": 5e-4, "T": 6.0, "seed": 1, "replicas": 8}}
    cfg = write_cfg(tmp_path, "sim.json", payload)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: SizeOverflow: ") and "2967991312 bytes" in err
    assert not (tmp_path / "x").exists()


def test_simulate_records_phase_timings(tmp_path):
    """The limit solve and the error calls are timed apart."""
    payload = solve_cfg(grid={"T": 0.2, "h": 0.05},
                        constraint={"kind": "soft", "L": 100.0, "k": 1},
                        sim={"N": 16, "dt": 0.005, "seed": 7, "replicas": 2})
    cfg = write_cfg(tmp_path, "sim.json", payload)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(json.loads((out / "report.json").read_text())["per_replica"]) == 2
    meta = json.loads((out / "metadata.json").read_text())
    timings = meta["timings"]
    assert set(timings) == {"disorder_s", "langevin_s", "observables_s",
                            "limit_s", "error_s", "write_s"}
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
    assert ("error: ValidationError: pure order 3: G=1.0 inconsistent with m E / q*^2"
            in capsys.readouterr().err)

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
    assert "error: StepUnstable: radial blow-up after step" in capsys.readouterr().err


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
    (None, {**_SIM, "dt": 5e-324}),
], ids=["grid.h=0", "grid.h=x", "grid.T=nan", "T/h-overflows", "sim.N=x",
        "sim.replicas=0", "sim.snap_stride=0", "sim.seed=-1", "sim.T/dt-overflows"])
def test_malformed_grid_and_sim_values_exit_1(tmp_path, capsys, grid, sim):
    """A grid or sim value that is not a usable number is an error line
    naming a ParseError, ValidationError or GridMismatch, not a traceback,
    and it is found before the run directory is made."""
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
    assert not (tmp_path / "x").exists()


_FLOAT_FIELDS = {"model.beta": "solve-hard", "model.q_o": "solve-hard",
                 "model.coeffs_sq[0]": "solve-hard", "constraint.L": "solve-soft",
                 "grid.h": "solve-hard", "sim.dt": "simulate", "sim.T": "simulate"}
_NOT_NUMBERS = {"'1'": "1", "true": True, "null": None, "NaN": math.nan,
                "Infinity": math.inf, "-Infinity": -math.inf}


@pytest.mark.parametrize("command, field, value", [
    ("fdt", "fdt.gamma", "abc"),
    ("fdt", "fdt.gamma", None),
    ("compare", "compare.tol", "abc"),
    ("compare", "compare.tol", math.inf),
    ("solve-soft", "constraint.k", 1.5),
    ("simulate", "sim.N", 16.5),
    ("simulate", "sim.replicas", 2.5),
    ("simulate", "sim.seed", 1.5),
    ("simulate", "sim.snap_stride", "2"),
    ("simulate", "sim.disorder_seed", 3.5),
    *((command, field, value) for field, command in _FLOAT_FIELDS.items()
      for value in _NOT_NUMBERS.values()),
], ids=["fdt.gamma=abc", "fdt.gamma=null", "compare.tol=abc", "compare.tol=inf",
        "constraint.k=1.5", "sim.N=16.5", "sim.replicas=2.5", "sim.seed=1.5",
        "sim.snap_stride='2'", "sim.disorder_seed=3.5",
        *(f"{field}={name}" for field in _FLOAT_FIELDS for name in _NOT_NUMBERS)])
def test_unusable_numbers_are_parse_errors(tmp_path, capsys, command, field, value):
    """A number field that is not a finite number (a string, a boolean,
    null, NaN or an infinity), or an integer field that is not integral,
    exits 1 with a ParseError naming the field, and no run directory is
    made."""
    payload = json.loads(json.dumps(_RUN_CONFIGS[command]))
    block, key = field.split(".")
    if key.endswith("]"):  # a list entry, key[i]
        key, i = key[:-1].split("[")
        payload[block][key][int(i)] = value
    else:
        payload.setdefault(block, {})[key] = value
    cfg = write_cfg(tmp_path, "bad.json", payload)
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: field '{field}' must be"), err
    assert "Traceback" not in err
    assert not out.exists()


def test_parsing_a_simulate_config_does_not_import_simulate(tmp_path):
    """parse_config builds a simulate run's SimConfig without loading
    spinband.simulate, which a config's set-up time would then pay for."""
    cfg = write_cfg(tmp_path, "sim.json", _RUN_CONFIGS["simulate"])
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, spinband.cli as cli; "
         "rc = cli.parse_config(sys.argv[1], command='simulate'); "
         "print(type(rc.sim).__name__, rc.sim.snap_stride, "
         "'spinband.simulate' in sys.modules)", str(cfg)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert probe.stdout.split() == ["SimConfig", "10", "False"], probe.stderr


@pytest.mark.parametrize("argv", [
    ["bogus", "--config", "c.json", "--out", "o"],
    ["solve-hard", "--out", "o"],
    ["solve-hard", "--config", "c.json", "--out", "o", "--threads", "0"],
    ["solve-hard", "--config", "c.json", "--out", "o", "--threads", "-1"],
    ["solve-hard", "--config", "c.json", "--out", "o", "--threads", "x"],
], ids=["unknown-command", "no-config", "threads=0", "threads=-1", "threads=x"])
def test_usage_errors_exit_1(tmp_path, capsys, monkeypatch, argv):
    """A command-line usage error exits 1 with an error line, as every
    other error does (2 is reserved for a failed gate), and sets no thread
    variable."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(var, "7")
    monkeypatch.chdir(tmp_path)
    write_cfg(tmp_path, "c.json", solve_cfg())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseError: ") and err.count("\n") == 1, err
    assert os.environ["OMP_NUM_THREADS"] == os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_is_a_parse_error(tmp_path, capsys,
                                                         monkeypatch, under):
    """--out naming an existing file, or a path under one, exits 1 with a
    ParseError naming it, not a traceback, before any march runs."""
    import spinband.volterra

    def never(*args, **kwargs):
        raise AssertionError("a march ran")

    monkeypatch.setattr(spinband.volterra, "solve_hard", never)
    cfg = write_cfg(tmp_path, "c.json", solve_cfg())
    out = tmp_path / "taken" / "out" if under else tmp_path / "taken"
    (tmp_path / "taken").write_text("not a directory\n")
    assert main(["solve-hard", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert (tmp_path / "taken").read_text() == "not a directory\n"


@pytest.mark.parametrize("name", ["R.npy", "series.csv", "metadata.json"])
def test_an_artifact_that_cannot_be_written_is_a_parse_error(tmp_path, capsys, name):
    """A directory where solve-hard writes R.npy (_write_triangle),
    series.csv (write_series_csv) or metadata.json (_write_json) exits 1
    with a ParseError naming that path, not a traceback."""
    cfg = write_cfg(tmp_path, "c.json", solve_cfg())
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    assert main(["solve-hard", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ParseError: {out / name}: not writable: "), err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert "usage: spinband" in capsys.readouterr().out


def test_parse_config_details(tmp_path):
    cfg = write_cfg(tmp_path, "ok.json", solve_cfg())
    rc = parse_config(cfg, command="solve-hard", seed=9)
    assert rc.command == "solve-hard"
    assert rc.raw["sim"]["seed"] == 9            # folded into the echo
    assert rc.grid.n == 50
    assert rc.params.E_star == 0.625
    with pytest.raises(ParseError):
        parse_config(tmp_path / "missing.json", command="solve-hard")
    with pytest.raises(GridMismatch, match=r"time 1.0 is not on the grid \(h=0.3, n=3\)"):
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
    # the submodules are the API: the package root serves no name of its own
    probe = subprocess.run(
        [sys.executable, "-c", "import spinband; "
         "print([n for n in dir(spinband) if not n.startswith('_')])"],
        capture_output=True, text=True, env=env)
    assert probe.stdout.strip() == "[]", probe.stderr
    # the installed console script points at the same entry point
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert 'spinband = "spinband.cli:main"' in pyproject


def test_traced_layers_resolve():
    """Every function perfbench/tracer.py wraps exists in its spinband
    module: a rename that misses one breaks traced benchmark runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # importing the tracer has no side effects
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"spinband.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("sim", [
    {"N": 16, "dt": 0.003, "seed": 7, "replicas": 2},           # stride 3 dt = 0.009
    {"N": 16, "dt": 0.005, "T": 0.6, "seed": 7, "replicas": 2},  # past the grid's T
], ids=["off-grid-stride", "past-grid-T"])
def test_simulate_rejects_off_grid_snapshots_before_sampling(tmp_path, capsys,
                                                             monkeypatch, sim):
    """Snapshots that miss the limit grid exit 1 before any disorder is drawn
    and before the run directory is made."""
    import spinband.simulate

    def never(*args, **kwargs):
        raise AssertionError("sample_disorder ran")

    monkeypatch.setattr(spinband.simulate, "sample_disorder", never)
    payload = solve_cfg(grid={"T": 0.27, "h": 0.01},
                        constraint={"kind": "soft", "L": 100.0, "k": 1}, sim=sim)
    cfg = write_cfg(tmp_path, "sim.json", payload)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "GridMismatch" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_readme_names_every_audit_and_diagnostic_key(tmp_path):
    """The README's Artifacts section names, in backticks, every file a
    solve-hard, sk, fdt and simulate run write, every column of their CSV
    files, every key of a solve run's invariants.json and the diagnostic
    keys of its metadata.json, so a renamed or added file, column or key
    cannot go undocumented."""
    grid = {"T": 0.2, "h": 0.02}
    cfg = write_cfg(tmp_path, "run.json", solve_cfg(grid=grid))
    sim = write_cfg(tmp_path, "sim.json", solve_cfg(
        grid=grid, constraint={"kind": "soft", "L": 100.0, "k": 1},
        sim={"N": 8, "dt": 0.002, "seed": 1, "replicas": 2}))
    out = tmp_path / "solve-hard"
    dirs = [out, *(tmp_path / c for c in ("sk", "fdt", "simulate"))]
    for d in dirs:
        assert main([d.name, "--config", str(sim if d.name == "simulate" else cfg),
                     "--out", str(d)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    diagnostics = ("pc_gap", "peak_rss_mb", "timings")
    assert all(k in meta for k in diagnostics)
    files = [p for d in dirs for p in d.iterdir()]
    keys = {*json.loads((out / "invariants.json").read_text()), *diagnostics,
            *meta["timings"], *(p.name for p in files),
            *(col for p in files if p.suffix == ".csv" for col in read_series_csv(p))}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Artifacts", 1)[1].split("\n## ", 1)[0]
    missing = sorted(k for k in keys if f"`{k}`" not in section)
    assert not missing, missing


def test_readme_python_examples_run(tmp_path, monkeypatch):
    """Every ```python block of the README runs, in order and in one
    namespace, from a directory where a small solve-hard run wrote the
    `rundir` and a small simulate run the `simdir` that the reload
    examples read."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        flags=re.DOTALL)
    assert len(blocks) >= 6
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, "run.json", solve_cfg())
    assert main(["solve-hard", "--config", str(cfg), "--out", "rundir"]) == 0
    sim = write_cfg(tmp_path, "sim.json", solve_cfg(
        grid={"T": 0.1, "h": 0.02}, constraint={"kind": "soft", "L": 100.0, "k": 1},
        sim={"N": 8, "dt": 0.002, "seed": 1, "replicas": 2}))
    assert main(["simulate", "--config", str(sim), "--out", "simdir"]) == 0
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
