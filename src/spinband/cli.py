"""Command-line front end: config parsing, run orchestration, artifacts.

Commands:

* ``solve-hard`` / ``solve-soft`` -- two-time solve; writes four files
  (metadata.json, RC.npy, series.csv, invariants.json).
* ``fdt``       -- lag-grid solve plus the derived constants.
* ``sk``        -- two-body closed-form solve; writes metadata.json, RC.npy,
  series.csv and constants.json.
* ``simulate``  -- conditioned finite-N Langevin runs; writes metadata.json,
  snapshots.csv, per_replica.csv, C_N.npy and chi_N.npy (the replica-averaged
  empirical C and chi, float64 (S, S) arrays for S snapshots, read back with
  np.load) and, with a grid block, report.json.
* ``compare``   -- two solves on one grid, sup-norm gap report.
* ``report``    -- reload a finished run directory and re-audit it.

``run`` writes every metadata.json (a command body writes the rest) and
returns 0, or 2 when an audit/tolerance gate failed; any error exits 1.

The config file is JSON (layout documented in the README).  ``--seed``
overrides the sim block's seed; ``--threads`` caps BLAS/OpenMP thread counts
and must take effect before numpy loads, which is why every compute-module
import in this file is local to the function that needs it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ParseError, SizeOverflow, SpinbandError, ValidationError

COMMANDS = ("solve-hard", "solve-soft", "fdt", "sk", "simulate",
            "compare", "report")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_PROC_STATUS = Path("/proc/self/status")  # Linux per-process counters
_PACK_ROWS = 64  # RC.npy rows written or read per block


# --------------------------------------------------------------------------
# config
# --------------------------------------------------------------------------

@dataclass
class RunConfig:
    command: str
    raw: dict                 # effective config echo (seed override applied)
    nu: Any = None            # MixingFunction
    params: Any = None        # resolved ModelParams
    grid: Any = None          # TwoTimeGrid or None
    sk: Any = None            # SkParams for sk and for compare against sk
    sim: dict | None = None
    gamma: float | None = None  # fdt.gamma, for fdt
    tol: float | None = None    # compare.tol, for compare
    source: str | None = None


def _need(block: dict, path: str, key: str):
    if key not in block:
        raise ParseError(f"field '{path}.{key}' is missing")
    return block[key]


def _number(value, name: str, kind: type):
    """A finite JSON number as ``kind``, int (no fractional part) or float."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max \
            and not (kind is int and value % 1):
        return kind(value)
    raise ParseError(f"field '{name}' must be "
                     f"{'an integer' if kind is int else 'a finite number'}, got {value!r}")


def _block(raw: dict, name: str) -> dict:
    b = raw.get(name)
    if b is None:
        return {}
    if not isinstance(b, dict):
        raise ParseError(f"field '{name}' must be an object")
    return b


def _model_from_config(raw: dict):
    """(nu, resolved ModelParams, grid or None) from a config dict."""
    from .model import Confinement, MixingFunction, ModelParams, validate
    from .volterra import TwoTimeGrid

    model = _block(raw, "model")
    if not model:
        raise ParseError("field 'model' is missing")
    coeffs = _need(model, "model", "coeffs_sq")
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        raise ParseError("'model.coeffs_sq' must be a non-empty list")

    cons = _block(raw, "constraint")
    kind = cons.get("kind", "hard")
    try:
        nu = MixingFunction(tuple(float(c) for c in coeffs))
        if kind == "hard":
            confinement = Confinement.hard()
        elif kind == "soft":
            confinement = Confinement.soft(
                float(_need(cons, "constraint", "L")),
                _number(cons.get("k", 1), "constraint.k", int),
                None if cons.get("phi") is None else float(cons["phi"]))
        else:
            raise ParseError(f"'constraint.kind' must be hard|soft, got '{kind}'")
        params = validate(ModelParams(
            beta=float(_need(model, "model", "beta")),
            q_star=float(_need(model, "model", "q_star")),
            q_o=float(model.get("q_o", 0.0)),
            E_star=float(model.get("E_star", 0.0)),
            G_star=float(model.get("G_star", 0.0)),
            confinement=confinement,
        ), nu)
    except (ParseError, ValidationError):
        raise
    except SpinbandError as e:
        # surface module rejections (pure-model inconsistency etc.) uniformly
        raise ValidationError(f"model block rejected: {type(e).__name__}: {e}") from e
    except (TypeError, ValueError) as e:
        raise ParseError(f"model/constraint block malformed: {e}") from None

    grid = None
    g = _block(raw, "grid")
    if g:
        try:
            grid = TwoTimeGrid.from_T(float(_need(g, "grid", "T")),
                                      float(_need(g, "grid", "h")))
        except SpinbandError as e:
            raise ValidationError(f"grid block rejected: {e}") from e
        except (TypeError, ValueError) as e:
            raise ParseError(f"grid block malformed: {e}") from None
    return nu, params, grid


def parse_config(path: str | Path, command: str | None = None,
                 seed: int | None = None) -> RunConfig:
    """Read and validate a JSON run config.

    ``command`` (from the CLI) must agree with the config's own command key
    when both are present.  ``seed`` overrides the sim block and is folded
    into the echoed config so that re-running from the echo reproduces the
    run exactly.
    """
    p = Path(path)
    if not p.exists():
        raise ParseError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{p}: line {e.lineno} column {e.colno}: {e.msg}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{p}: top level must be a JSON object")

    cfg_cmd = raw.get("command")
    if command is None:
        command = cfg_cmd
    if command is None:
        raise ParseError("no command given (CLI argument or 'command' key)")
    if cfg_cmd is not None and cfg_cmd != command:
        raise ParseError(f"config command '{cfg_cmd}' != requested '{command}'")
    if command not in COMMANDS:
        raise ParseError(f"unknown command '{command}'")

    if seed is not None:
        raw.setdefault("sim", {})["seed"] = int(seed)

    if command == "report":
        source = _block(raw, "report").get("source")
        if not source:
            raise ParseError("report needs 'report.source' (a run directory)")
        return RunConfig(command=command, raw=raw, source=str(source))

    nu, params, grid = _model_from_config(raw)
    kind = params.confinement.kind

    needs_grid = command in ("solve-hard", "solve-soft", "fdt", "sk", "compare")
    if needs_grid and grid is None:
        raise ParseError(f"command '{command}' needs a 'grid' block")
    # a solve run's bundle takes its constraint from the config echo
    if command in ("solve-hard", "solve-soft") and command != f"solve-{kind}":
        raise ParseError(f"{command} needs a {command.removeprefix('solve-')} "
                         "'constraint' block")

    sim = _block(raw, "sim") or None
    if command == "simulate":
        if sim is None:
            raise ParseError("command 'simulate' needs a 'sim' block")
        for key in ("N", "dt"):
            _need(sim, "sim", key)
        if kind != "soft":
            raise ParseError("simulate needs a soft 'constraint' block")

    compare = _block(raw, "compare")
    against = compare.get("against", "sk")
    if command == "compare" and against not in ("sk", "soft"):
        raise ParseError(f"'compare.against' must be sk|soft, got '{against}'")
    if command == "compare" and against == "soft" and kind != "soft":
        raise ValidationError("compare against=soft needs a soft constraint")
    sk = None  # for compare: set iff against is sk
    if command == "sk" or (command == "compare" and against == "sk"):
        from .sk import SkParams
        if nu.coeffs_sq != (0.125,):
            raise ValidationError(
                "the closed form covers the two-body mixing r^2/8 only "
                "(coeffs_sq == [0.125])")
        try:  # rejected here, not after a general march in compare
            sk = SkParams(beta=params.beta, G_star=params.G_star,
                          q_star=params.q_star, q_o=params.q_o)
        except SpinbandError as e:
            raise ValidationError(f"sk model rejected: {e}") from e

    return RunConfig(command=command, raw=raw, nu=nu, params=params, grid=grid,
                     sk=sk, sim=sim,
                     gamma=(_number(_block(raw, "fdt").get("gamma", 0.5), "fdt.gamma",
                                    float) if command == "fdt" else None),
                     tol=(_number(compare.get("tol", 5e-3), "compare.tol", float)
                          if command == "compare" else None))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

_FMT = "%.17g"  # 17 significant digits round-trip every float64


def write_matrix_csv(path: Path, M) -> None:
    """Triplet dump of every entry: header then one 'i,j,value' row each.

    Each matrix row is one %-format of a template holding its lines.  No
    command writes one (simulate stores its matrices as .npy); it and
    read_matrix_csv stay while perfbench/tracer.py wraps them."""
    import numpy as np
    M = np.asarray(M)
    cells = ["", *(f",{j},{_FMT}\n" for j in range(M.shape[-1]))]
    with open(path, "w") as f:
        f.write("i,j,value\n")
        for i, row in enumerate(M):
            f.write(str(i).join(cells) % tuple(row.tolist()))


def read_matrix_csv(path: Path, n: int):
    """An (n+1, n+1) array from an 'i,j,value' dump holding each entry once."""
    import numpy as np
    cols = read_series_csv(path)
    if list(cols) != ["i", "j", "value"]:
        raise ParseError(f"{path}: expected 'i,j,value' header")
    i, j = cols["i"], cols["j"]
    outside = (i < 0) | (i > n) | (j < 0) | (j > n) | (i % 1 != 0) | (j % 1 != 0)
    if outside.any():
        k = int(outside.argmax())
        raise ParseError(f"{path}: entry ({i[k]:g}, {j[k]:g}) is not an index in 0..{n}")
    flat = (i * (n + 1) + j).astype(np.intp)
    if (np.bincount(flat, minlength=(n + 1) ** 2) != 1).any():
        raise ParseError(f"{path}: expected each of the {(n + 1) ** 2} entries once, "
                         f"read {flat.size} lines")
    M = np.empty((n + 1, n + 1))
    M.flat[flat] = cols["value"]
    return M


def write_series_csv(path: Path, names, columns) -> None:
    """One header line, then one line per row of the equal-length columns,
    each one %-format (numpy scalars format as the floats they hold)."""
    line = ",".join([_FMT] * len(columns)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for row in zip(*columns, strict=True):
            f.write(line % row)


def read_series_csv(path: Path) -> dict:
    """Columns of a CSV dump of numbers, by header name.

    Parsed by np.loadtxt (exact for the %.17g dump; blank lines are
    skipped).  A line that is not one finite number per column (np.loadtxt
    parses nan and inf) raises ParseError naming the file and the line.
    """
    import numpy as np
    with open(path) as f:
        names = f.readline().rstrip("\n").split(",")
        try:
            rows = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            rows = None
    if rows is not None and rows.size == 0:
        rows = rows.reshape(0, len(names))
    if rows is None or rows.shape[1] != len(names) or not np.isfinite(rows).all():
        _raise_at_first_bad_line(path, len(names))
    return {name: rows[:, k].copy() for k, name in enumerate(names)}


def _raise_at_first_bad_line(path: Path, width: int):
    """ParseError naming the first line of a dump that np.loadtxt rejected."""
    with open(path) as f:
        for lineno, line in enumerate(itertools.islice(f, 1, None), 2):
            if not line.strip():
                continue  # np.loadtxt skips blank lines
            try:
                values = [float(v) for v in line.split(",")]
            except ValueError:
                values = []
            if len(values) != width:
                raise ParseError(f"{path}: line {lineno}: expected {width} "
                                 f"comma-separated numbers, got {line.rstrip()!r}")
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}: line {lineno}: non-finite value "
                                 f"in {line.rstrip()!r}")
    raise ParseError(f"{path}: expected {width} comma-separated numbers per line")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _meta(cfg: RunConfig, wall: float, extra: dict) -> dict:
    import numpy as np
    from . import __version__
    return {
        "command": cfg.command,
        "config": cfg.raw,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_time_s": round(wall, 3),
        "peak_rss_mb": _peak_rss_mb(),
        **extra,
    }


def _peak_rss_mb() -> float | None:
    """This process's peak resident set (VmHWM) in MiB; None without procfs."""
    try:
        with _PROC_STATUS.open() as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024.0, 2)
    except OSError:
        pass
    return None


def _write_two_time(out: Path, R, C) -> None:
    """RC.npy: R and C packed on the triangle t <= s, streamed in row blocks.

    A float64 array of shape (n+1, n+2) in numpy's .npy format whose row i
    holds R[i, 0..i] followed by C[i, i..n], so both diagonals are stored.
    R must be exactly zero above the diagonal and C exactly symmetric (bit
    for bit), or ValidationError names the first entry that would be lost
    and no RC.npy is left behind.  No (n+1)^2 temporary is built.
    """
    import numpy as np
    R = np.asarray(R, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    m = R.shape[0]
    if R.shape != (m, m) or C.shape != (m, m):
        raise ValidationError(f"R {R.shape} and C {C.shape} must be one square shape")
    Rbits, Cbits = R.view(np.uint64), C.view(np.uint64)  # -0.0 and NaN exactly
    path = out / "RC.npy"
    try:
        with open(path, "wb") as f:
            np.lib.format.write_array_header_1_0(f, {
                "descr": np.lib.format.dtype_to_descr(R.dtype),
                "fortran_order": False, "shape": (m, m + 1)})
            buf = np.empty((min(_PACK_ROWS, m), m + 1))
            for b in range(0, m, _PACK_ROWS):
                e = min(b + _PACK_ROWS, m)
                for k, i in enumerate(range(b, e)):
                    if Rbits[i, i + 1:].any():
                        j = i + 1 + int(Rbits[i, i + 1:].argmax())
                        raise ValidationError(
                            f"R({i}, {j}) = {float(R[i, j])!r} lies above the diagonal")
                    buf[k, :i + 1] = R[i, :i + 1]
                    buf[k, i + 1:] = C[i, i:]
                # rows b..e-1 left of column e against their mirror, in square
                # tiles: a transposed operand is buffered, so keep it small
                for c in range(0, e, _PACK_ROWS):
                    bad = Cbits[b:e, c:c + _PACK_ROWS] != Cbits[c:c + _PACK_ROWS, b:e].T
                    if bad.any():
                        k, j = np.argwhere(bad)[0]
                        s, t = b + k, c + j
                        raise ValidationError(f"C({s}, {t}) = {float(C[s, t])!r} but "
                                              f"C({t}, {s}) = {float(C[t, s])!r}")
                f.write(buf[:e - b].data)
    except ValidationError:
        path.unlink()
        raise


def read_two_time(path: str | Path):
    """(R, C) from an RC.npy written by a solve or sk run, or ParseError.

    Checks the header (float64, C order, shape (m, m+1)) and the file size
    before reading, then unpacks block by block: R with zeros above the
    diagonal, C mirrored.  A non-finite entry is rejected with its matrix
    and (s, t) index.
    """
    import numpy as np
    fmt = np.lib.format
    path = Path(path)
    try:
        with open(path, "rb") as f:
            try:  # np.save writes a 2-D array's header as version 1.0
                version = fmt.read_magic(f)
                if version != (1, 0):
                    raise ValueError(f".npy version {version}, expected (1, 0)")
                shape, fortran, dtype = fmt.read_array_header_1_0(f)
            except ValueError as e:
                raise ParseError(f"{path}: not a readable .npy header: {e}") from None
            m = shape[0] if len(shape) == 2 else -1
            if dtype != np.float64 or fortran or shape != (m, m + 1):
                raise ParseError(
                    f"{path}: expected a C-order float64 (n + 1, n + 2) "
                    f"triangle pack, got {dtype} {shape}"
                    + (" in Fortran order" if fortran else ""))
            size, need = os.fstat(f.fileno()).st_size, f.tell() + 8 * m * (m + 1)
            if size != need:
                raise ParseError(f"{path}: {size} bytes, the header's {shape} "
                                 f"float64 array needs {need}")
            R, C = np.zeros((m, m)), np.empty((m, m))
            for b in range(0, m, _PACK_ROWS):
                e = min(b + _PACK_ROWS, m)
                blk = np.fromfile(f, dtype=np.float64, count=(e - b) * (m + 1))
                blk = blk.reshape(e - b, m + 1)
                if not np.isfinite(blk).all():
                    k, j = np.argwhere(~np.isfinite(blk))[0]
                    s = b + k
                    where = f"R({s}, {j})" if j <= s else f"C({s}, {j - 1})"
                    raise ParseError(f"{path}: non-finite value {blk[k, j]} at {where}")
                for k, i in enumerate(range(b, e)):
                    R[i, :i + 1] = blk[k, :i + 1]
                    C[i, i:] = blk[k, i + 1:]
                    C[i, b:i] = C[b:i, i]
                C[b:e, :b] = C[:b, b:e].T
    except OSError as e:
        raise ParseError(f"{path}: not readable: {e}") from None
    return R, C


def save_bundle(bundle, out: Path) -> None:
    """Write RC.npy (R and C on the triangle) and series.csv for a bundle."""
    _write_two_time(out, bundle.R, bundle.C)
    write_series_csv(out / "series.csv", ("t", "q", "K", "mu", "H", "Hhat"),
                     (bundle.grid.times(), bundle.q, bundle.K, bundle.mu,
                      bundle.H, bundle.Hhat))


def load_bundle(rundir: str | Path):
    """Rebuild a TwoTimeBundle (and its metadata) from a solve run directory.

    Raises ParseError naming the first missing file or series column, so a
    directory written by another command is rejected cleanly, and naming the
    file for a damaged line, a short series or an RC.npy that read_two_time
    rejects or that does not match the grid.
    """
    from .volterra import TwoTimeBundle

    rundir = Path(rundir)
    for name in ("metadata.json", "series.csv", "RC.npy"):
        if not (rundir / name).exists():
            raise ParseError(f"{rundir}: no {name} (not a solve-hard/solve-soft run)")
    meta = json.loads((rundir / "metadata.json").read_text())
    nu, params, grid = _model_from_config(_block(meta, "config"))
    if grid is None:
        raise ParseError(f"{rundir / 'metadata.json'}: the config echo has no 'grid' block")
    series = read_series_csv(rundir / "series.csv")
    for col in ("q", "K", "mu", "H", "Hhat"):
        if col not in series:
            raise ParseError(f"{rundir / 'series.csv'}: no '{col}' column")
    if series["q"].shape[0] != grid.n + 1:
        raise ParseError(f"{rundir / 'series.csv'}: {series['q'].shape[0]} rows, "
                         f"the grid needs n + 1 = {grid.n + 1}")
    R, C = read_two_time(rundir / "RC.npy")
    if R.shape[0] != grid.n + 1:
        raise ParseError(f"{rundir / 'RC.npy'}: {R.shape[0]} rows, "
                         f"the grid needs n + 1 = {grid.n + 1}")
    bundle = TwoTimeBundle(
        grid=grid, R=R, C=C,
        q=series["q"], K=series["K"], mu=series["mu"],
        H=series["H"], Hhat=series["Hhat"],
        pc_gap=float(_need(meta, "metadata", "pc_gap")), params=params, nu=nu)
    return bundle, meta


# --------------------------------------------------------------------------
# command bodies
# --------------------------------------------------------------------------

def _run_solve(cfg: RunConfig, out: Path):
    from .volterra import check_bundle, solve_hard, solve_soft

    t0 = time.monotonic()
    bundle = (solve_hard if cfg.params.confinement.is_hard
              else solve_soft)(cfg.params, cfg.nu, cfg.grid)
    t1 = time.monotonic()
    audit = check_bundle(bundle).as_dict()
    t2 = time.monotonic()
    save_bundle(bundle, out)
    _write_json(out / "invariants.json", audit)
    t3 = time.monotonic()
    return audit["passed"], {
        "constraint": bundle.constraint,
        "pc_gap": bundle.pc_gap,
        "timings": {"solve_s": round(t1 - t0, 3), "audit_s": round(t2 - t1, 3),
                    "write_s": round(t3 - t2, 3)},
    }


def _run_fdt(cfg: RunConfig, out: Path):
    from . import fdt as _fdt

    sol = _fdt.solve_fdt(cfg.gamma, cfg.params.beta, cfg.nu, cfg.grid)
    write_series_csv(out / "series.csv", ("tau", "D", "Dprime", "R_fdt"),
                     (cfg.grid.times(), sol.D, sol.Dprime, sol.R_fdt))
    constants = {
        "gamma": cfg.gamma,
        "mu_infty": sol.mu,
        "D_inf": sol.D_inf,
        "I": sol.I,
        "kappa1_closed": sol.kappa1,
        "kappa2_closed": sol.kappa2,
        "kappa3_closed": sol.kappa3,
    }
    try:
        constants["beta_c"] = _fdt.beta_c(cfg.nu)
    except SpinbandError as e:
        constants["beta_c"] = None
        constants["beta_c_note"] = f"{type(e).__name__}: {e}"
    try:
        kq = _fdt.kappa_values(sol, cfg.nu)
        constants["kappa_quadrature"] = list(kq.quad)
    except SpinbandError as e:
        constants["kappa_quadrature"] = None
        constants["kappa_note"] = f"{type(e).__name__}: {e}"
    _write_json(out / "constants.json", constants)
    return True, {}


def _run_sk(cfg: RunConfig, out: Path):
    import numpy as np
    from .sk import (resolvent_root, sk_asymptotics, solve_two_time,
                     superposition_gap)

    pars = cfg.sk
    sol = solve_two_time(pars, cfg.grid)
    _write_two_time(out, sol.R, sol.C)
    ones = np.ones(cfg.grid.n + 1)
    write_series_csv(out / "series.csv", ("t", "q", "K", "mu", "H"),
                     (cfg.grid.times(), sol.q, ones, sol.mu, sol.H))
    y = resolvent_root(pars.G_star)
    alpha_sq, _, mu_inf, h_inf = sk_asymptotics(pars, cfg.grid)
    constants = {
        "y": y,
        "alpha_sq": alpha_sq,
        "mu_infty": mu_inf,
        "H_infty": h_inf,
        "E_star": 0.5 * pars.G_star * pars.q_star ** 2,
        "superposition": superposition_gap(pars, cfg.grid),
    }
    _write_json(out / "constants.json", constants)
    return True, {}


def _run_simulate(cfg: RunConfig, out: Path):
    import numpy as np
    from .simulate import (_BUDGET, SimConfig, _snapshot_bytes,
                           condition_disorder, empirical_observables,
                           error_functional, limit_at_snapshots, run_langevin,
                           sample_disorder)
    from .volterra import solve_soft

    t0 = time.monotonic()
    try:  # every sim value is checked before any work is done
        N = _number(cfg.sim["N"], "sim.N", int)
        dt = float(cfg.sim["dt"])
        T = float(cfg.sim.get("T", cfg.grid.T if cfg.grid else 0.0))
        if T <= 0:
            raise ValidationError("simulate needs sim.T (or a grid block)")
        seed = _number(cfg.sim.get("seed", 0), "sim.seed", int)
        stride = cfg.sim.get("snap_stride")
        if stride is None:
            stride = int(round(cfg.grid.h / dt)) if cfg.grid and dt > 0 else 1
        scfg = SimConfig(N=N, dt=dt, T=T, seed=seed,
                         replicas=_number(cfg.sim.get("replicas", SimConfig.replicas),
                                          "sim.replicas", int),
                         snap_stride=_number(stride, "sim.snap_stride", int))
        disorder_seed = _number(cfg.sim.get("disorder_seed", seed), "sim.disorder_seed", int)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"sim block malformed: {e}") from None
    need = _snapshot_bytes(scfg)
    if need > _BUDGET:
        raise SizeOverflow(f"snapshots and observables need {need} bytes "
                           f"> budget {_BUDGET}")
    if disorder_seed < 0:
        raise ValidationError("sim.disorder_seed must be nonnegative")
    if cfg.grid is not None:  # checked before the run, not after it
        cfg.grid.index_of(scfg.times())
    # conditioned in place: the run holds one copy of the couplings
    J = condition_disorder(sample_disorder(N, cfg.nu, disorder_seed), cfg.params)
    t1 = time.monotonic()
    traj = run_langevin(J, cfg.params, scfg)
    t2 = time.monotonic()
    emp = empirical_observables(traj)
    t3 = time.monotonic()
    extra = {}
    if cfg.grid is not None:
        limit = limit_at_snapshots(emp.times, solve_soft(cfg.params, cfg.nu, cfg.grid))
        err = error_functional(emp, limit)
        per = error_functional(emp, limit, per_replica=True)
        extra["error_functional"] = err
    t4 = time.monotonic()

    K_avg = traj.K.mean(axis=1)
    write_series_csv(out / "snapshots.csv", ("t", "q_N", "H_N", "K_N"),
                     (traj.times, emp.q_avg, emp.H_avg, K_avg))
    reps, snaps = emp.q.shape  # replica-major rows
    write_series_csv(out / "per_replica.csv", ("replica", "t", "q_N", "H_N", "K_N"),
                     (np.repeat(np.arange(reps), snaps), np.tile(traj.times, reps),
                      emp.q.ravel(), emp.H.ravel(), traj.K.T.ravel()))
    np.save(out / "C_N.npy", emp.C_avg)
    np.save(out / "chi_N.npy", emp.chi_avg)
    if cfg.grid is not None:
        _write_json(out / "report.json", {
            "error_functional": err,
            "per_replica": [float(v) for v in per],
            "grid": {"T": cfg.grid.T, "h": cfg.grid.h},
        })
    t5 = time.monotonic()
    extra["timings"] = {
        "disorder_s": round(t1 - t0, 3), "langevin_s": round(t2 - t1, 3),
        "observables_s": round(t3 - t2, 3), "limit_s": round(t4 - t3, 3),
        "write_s": round(t5 - t4, 3)}
    return True, extra


def _run_compare(cfg: RunConfig, out: Path):
    from concurrent.futures import ThreadPoolExecutor

    from .sk import solve_two_time
    from .volterra import check_bundle, compare_bundles, solve_hard, solve_soft

    if cfg.sk is not None:
        # the oracle makes no BLAS call, so it marches on a worker thread
        # while this thread's march keeps its BLAS calls and their bits;
        # leaving the block joins the worker, also when either side raises
        with ThreadPoolExecutor(1) as pool:
            oracle = pool.submit(solve_two_time, cfg.sk, cfg.grid)
            a = (solve_soft if not cfg.params.confinement.is_hard
                 else solve_hard)(cfg.params, cfg.nu, cfg.grid)
            b = oracle.result()
        del oracle  # it holds b as well
    else:  # against soft: two BLAS marches, one after the other
        a = solve_hard(cfg.params, cfg.nu, cfg.grid)  # swaps in the hard constraint
        b = solve_soft(cfg.params, cfg.nu, cfg.grid)
    report = compare_bundles(a, b, cfg.tol)
    del b  # two (n+1)^2 arrays fewer under the audit's temporaries
    report["against"] = "sk" if cfg.sk is not None else "soft"
    report["audit"] = check_bundle(a).as_dict()
    _write_json(out / "report.json", report)
    return report["passed"], {}


def _run_report(cfg: RunConfig, out: Path):
    from .volterra import check_bundle

    bundle, meta = load_bundle(cfg.source)
    audit = check_bundle(bundle).as_dict()
    _write_json(out / "report.json", {
        "source": str(cfg.source),
        "source_command": meta.get("command"),
        "audit": audit,
    })
    return audit["passed"], {}


_DISPATCH = {
    "solve-hard": _run_solve,
    "solve-soft": _run_solve,
    "fdt": _run_fdt,
    "sk": _run_sk,
    "simulate": _run_simulate,
    "compare": _run_compare,
    "report": _run_report,
}


def run(cfg: RunConfig, out: str | Path) -> int:
    """Execute a parsed config into ``out``; 0, or 2 when a gate failed."""
    t0 = time.monotonic()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    passed, extra = _DISPATCH[cfg.command](cfg, out)
    _write_json(out / "metadata.json", _meta(cfg, time.monotonic() - t0, extra))
    return 0 if passed else 2


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="spinband",
        description="Two-time dynamics near a conditioned critical point: "
                    "solvers, closed forms, and a finite-N simulator.")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True, help="JSON run config")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=None,
                    help="override the sim block's seed")
    ap.add_argument("--threads", type=int, default=None,
                    help="cap BLAS/OpenMP thread counts (set before numpy loads)")
    args = ap.parse_args(argv)

    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    try:
        cfg = parse_config(args.config, command=args.command, seed=args.seed)
        return run(cfg, args.out)
    except SpinbandError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
