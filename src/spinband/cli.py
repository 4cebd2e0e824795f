"""Command-line front end: config parsing, run orchestration, artifacts.

Commands:

* ``solve-hard`` / ``solve-soft`` -- two-time solve; writes five files
  (metadata.json, R.npy, C.npy, series.csv, invariants.json).
* ``fdt``       -- lag-grid solve plus the derived constants.
* ``sk``        -- two-body closed-form solve; writes metadata.json, R.npy,
  C.npy, series.csv and constants.json.
* ``simulate``  -- conditioned finite-N Langevin runs; writes metadata.json,
  snapshots.csv, per_replica.csv, C_N.npy and chi_N.npy (the replica-averaged
  empirical C and chi for S snapshots; chi as a float64 (S, S) array, read
  back with np.load) and, with a grid block, report.json.  The mean radius
  K_N is C_N's diagonal, so only per_replica.csv stores K_N.
* ``compare``   -- two solves on one grid, sup-norm gap report.
* ``report``    -- reload a finished run directory and re-audit it.

Every two-time matrix (R.npy, C.npy, C_N.npy) is stored once, as its lower
triangle t <= s row by row: R is zero above the diagonal and C symmetric.
``_write_triangle`` writes that layout and ``read_triangle`` reads it back
bit for bit.

``parse_config`` makes every config value a typed value under one number
rule (``_number``) and runs every check, so a rejected config leaves no run
directory.  ``run`` writes every metadata.json (a command body writes the
rest) and returns 0, or 2 when an audit/tolerance gate failed; any error,
a usage error included, exits 1.

The config file is JSON (layout documented in the README).  ``--seed``
overrides the sim block's seed; ``--threads`` caps BLAS/OpenMP thread counts
and must take effect before numpy loads, which is why every compute-module
import in this file is local to the function that needs it.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import NoBranch, ParseError, SpinbandError, ValidationError

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_PROC_STATUS = Path("/proc/self/status")  # Linux per-process counters
_PACK_ROWS = 64  # rows of a two-time matrix written or read per block


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
    sim: Any = None           # SimConfig, for simulate
    disorder_seed: int | None = None  # sim.disorder_seed, for simulate
    gamma: float | None = None  # fdt.gamma, for fdt
    tol: float | None = None    # compare.tol, for compare
    source: str | None = None


def _number(value, name: str, kind: type = float):
    """A finite JSON number as ``kind``, int (no fractional part) or float:
    the number rule of every config field (not a string, a boolean or null)."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max \
            and not (kind is int and value % 1):
        return kind(value)
    raise ParseError(f"field '{name}' must be "
                     f"{'an integer' if kind is int else 'a finite number'}, got {value!r}")


def _field(block: dict, path: str, key: str, kind: type = float, default=None):
    """``block[key]`` under the number rule, or ``default`` when the key is
    absent (a ParseError when there is no default)."""
    if default is None and key not in block:
        raise ParseError(f"field '{path}.{key}' is missing")
    return _number(block.get(key, default), f"{path}.{key}", kind)


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
    coeffs = model.get("coeffs_sq")
    if not isinstance(coeffs, list) or not coeffs:
        raise ParseError("'model.coeffs_sq' must be a non-empty list")
    coeffs = [_number(c, f"model.coeffs_sq[{i}]") for i, c in enumerate(coeffs)]

    cons = _block(raw, "constraint")
    kind = cons.get("kind", "hard")
    if kind == "hard":
        confinement = Confinement.hard()
    elif kind == "soft":
        confinement = Confinement.soft(
            _field(cons, "constraint", "L"), _field(cons, "constraint", "k", int, 1),
            _field(cons, "constraint", "phi") if "phi" in cons else None)
    else:
        raise ParseError(f"'constraint.kind' must be hard|soft, got '{kind}'")
    params = ModelParams(
        beta=_field(model, "model", "beta"), q_star=_field(model, "model", "q_star"),
        q_o=_field(model, "model", "q_o", default=0.0),
        E_star=_field(model, "model", "E_star", default=0.0),
        G_star=_field(model, "model", "G_star", default=0.0), confinement=confinement)
    nu = MixingFunction(coeffs)
    params = validate(params, nu)

    g = _block(raw, "grid")
    if not g:
        return nu, params, None
    return nu, params, TwoTimeGrid.from_T(_field(g, "grid", "T"), _field(g, "grid", "h"))


def _sim_from_config(sim: dict, grid):
    """(SimConfig, disorder seed) from a sim block.  T defaults to the
    grid's horizon and snap_stride to h/dt; with a grid, every snapshot
    time must lie on it (GridMismatch)."""
    from .model import SimConfig

    N, dt = _field(sim, "sim", "N", int), _field(sim, "sim", "dt")
    T = _field(sim, "sim", "T", default=None if grid is None else grid.T)
    seed = _field(sim, "sim", "seed", int, 0)
    ratio = grid.h / dt if grid is not None and dt > 0 else 1.0
    scfg = SimConfig(
        N=N, dt=dt, T=T, seed=seed,
        replicas=_field(sim, "sim", "replicas", int, SimConfig.replicas),
        snap_stride=_field(sim, "sim", "snap_stride", int,
                           round(ratio) if ratio < math.inf else 1))
    disorder_seed = _field(sim, "sim", "disorder_seed", int, seed)
    if disorder_seed < 0:
        raise ValidationError("sim.disorder_seed must be nonnegative")
    if grid is not None:  # checked before the run, not after it
        grid.index_of(scfg.times())
    return scfg, disorder_seed


def _read_json_object(path: Path) -> dict:
    """The JSON object in a file, or ParseError naming the file: a file that
    cannot be read (such as a directory), a syntax error with its line and
    column, non-UTF-8 bytes, or a non-object top level."""
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None
    except OSError as e:
        raise ParseError(f"{path}: not readable: {e}") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return raw


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
    raw = _read_json_object(p)

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
        raw["sim"] = {**_block(raw, "sim"), "seed": int(seed)}

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

    sim = disorder_seed = None
    if command == "simulate":
        if kind != "soft":
            raise ParseError("simulate needs a soft 'constraint' block")
        sim, disorder_seed = _sim_from_config(_block(raw, "sim"), grid)

    compare = _block(raw, "compare")
    against = compare.get("against", "sk")
    if command == "compare" and against not in ("sk", "soft"):
        raise ParseError(f"'compare.against' must be sk|soft, got '{against}'")
    if command == "compare" and against == "soft" and kind != "soft":
        raise ValidationError("compare against=soft needs a soft constraint")
    sk = None  # for compare: set iff against is sk
    if command == "sk" or (command == "compare" and against == "sk"):
        from .sk import SkParams, sk_mixing
        if nu.coeffs_sq != sk_mixing().coeffs_sq:
            raise ValidationError(
                "the closed form covers the two-body mixing r^2/8 only "
                "(coeffs_sq == [0.125])")
        # rejected here, not after a general march in compare
        sk = SkParams(beta=params.beta, G_star=params.G_star,
                      q_star=params.q_star, q_o=params.q_o)

    return RunConfig(command=command, raw=raw, nu=nu, params=params, grid=grid,
                     sk=sk, sim=sim, disorder_seed=disorder_seed,
                     gamma=(_field(_block(raw, "fdt"), "fdt", "gamma", default=0.5)
                            if command == "fdt" else None),
                     tol=(_field(compare, "compare", "tol", default=5e-3)
                          if command == "compare" else None))


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

_FMT = "%.17g"  # 17 significant digits round-trip every float64


@contextlib.contextmanager
def _writing(path: Path, mode: str = "w"):
    """The artifact file ``path`` opened for writing.  An OSError from
    opening or writing it (a directory in its place, a full disk) becomes
    a ParseError naming it."""
    try:
        with open(path, mode) as f:
            yield f
    except OSError as e:
        raise ParseError(f"{path}: not writable: {e}") from None


def write_matrix_csv(path: Path, M) -> None:
    """Triplet dump of every entry: header then one 'i,j,value' row each.

    Each matrix row is one %-format of a template holding its lines.  No
    command writes one (simulate stores its matrices as .npy); it and
    read_matrix_csv stay while perfbench/tracer.py wraps them."""
    import numpy as np
    M = np.asarray(M)
    cells = ["", *(f",{j},{_FMT}\n" for j in range(M.shape[-1]))]
    with _writing(path) as f:
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
    with _writing(path) as f:
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
    with _writing(path) as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


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


def _blocks(S: int):
    """(b, e, lo, hi) for each block of _PACK_ROWS rows b..e-1 of an S-row
    lower triangle: stored row by row, those rows are entries lo..hi-1."""
    for b in range(0, S, _PACK_ROWS):
        e = min(b + _PACK_ROWS, S)
        yield b, e, b * (b + 1) // 2, e * (e + 1) // 2


def _check_mirror(C, b: int, e: int) -> None:
    """Rows b..e-1 of C left of column e against their mirror, bit for bit
    (-0.0 and NaN exactly), or ValidationError naming the first pair that
    differs.  Square tiles: a transposed operand is buffered, so keep it
    small."""
    import numpy as np
    bits = C.view(np.uint64)
    for c in range(0, e, _PACK_ROWS):
        bad = bits[b:e, c:c + _PACK_ROWS] != bits[c:c + _PACK_ROWS, b:e].T
        if bad.any():
            k, j = np.argwhere(bad)[0]
            s, t = b + k, c + j
            raise ValidationError(f"C({s}, {t}) = {float(C[s, t])!r} but "
                                  f"C({t}, {s}) = {float(C[t, s])!r}")


def _write_triangle(path: Path, M, symmetric: bool) -> None:
    """An (S, S) two-time matrix stored once: its entries M(s, t) for
    t <= s, row by row, as a C-order float64 .npy of shape (S (S + 1) / 2,).

    M is an array, or (for R) a callable that builds the rows of a slice,
    such as sk.SkSolution.R_rows.  It is read and written one block of
    _PACK_ROWS rows at a time, so no S x S temporary is built.  The half
    left out must be what read_triangle restores, bit for bit: the mirror
    for a ``symmetric`` M (C), else zeros (R).  Otherwise ValidationError
    names the first entry that would be lost and no file is left behind.
    """
    import numpy as np

    from .volterra import _row_block
    M = M if callable(M) else np.asarray(M, dtype=np.float64)
    S = _row_block(M, slice(0, 0)).shape[-1]
    if not callable(M) and M.shape != (S, S):
        raise ValidationError(f"{path.name}: {M.shape} is not a square shape")
    try:
        with _writing(path, "wb") as f:
            np.lib.format.write_array_header_1_0(f, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                "fortran_order": False, "shape": (S * (S + 1) // 2,)})
            for b, e, _, _ in _blocks(S):
                rows = _row_block(M, slice(b, e))
                if symmetric:
                    _check_mirror(M, b, e)
                bits = rows.view(np.uint64)
                for k, s in enumerate(range(b, e)):
                    if not symmetric and bits[k, s + 1:].any():
                        t = s + 1 + int(bits[k, s + 1:].argmax())
                        raise ValidationError(
                            f"R({s}, {t}) = {float(rows[k, t])!r} lies above the diagonal")
                # one write per block, not one per row; the block's buffer is
                # made after its checks, so their temporaries are gone
                f.write(np.concatenate([row[:s + 1] for s, row in enumerate(rows, b)]))
    except ValidationError:
        path.unlink()
        raise


def _square_rows(shape):
    """S for the (S (S + 1) / 2,) lower triangle of an (S, S) array, else None."""
    if len(shape) != 1 or shape[0] < 0:
        return None
    S = (math.isqrt(8 * shape[0] + 1) - 1) // 2
    return S if S * (S + 1) // 2 == shape[0] else None


def read_triangle(path: str | Path, symmetric: bool):
    """The (S, S) matrix of an R.npy, C.npy or C_N.npy, bit for bit, or
    ParseError naming the file.

    The file holds M(s, t) for t <= s, row by row (see _write_triangle).
    The header (float64, C order, shape (S (S + 1) / 2,)) and the file size
    are checked before anything is allocated, then the rows are read block
    by block: a ``symmetric`` M (C, C_N) is mirrored, any other (R) is zero
    above the diagonal.  A non-finite entry is rejected with its (s, t).
    """
    import numpy as np
    fmt = np.lib.format
    path = Path(path)
    try:
        with open(path, "rb") as f:
            try:  # np.save writes a 1-D or 2-D array's header as version 1.0
                version = fmt.read_magic(f)
                if version != (1, 0):
                    raise ValueError(f".npy version {version}, expected (1, 0)")
                shape, fortran, dtype = fmt.read_array_header_1_0(f)
            except ValueError as e:
                raise ParseError(f"{path}: not a readable .npy header: {e}") from None
            S = None if dtype != np.float64 or fortran else _square_rows(shape)
            if S is None:
                raise ParseError(
                    f"{path}: expected a C-order float64 (S (S + 1) / 2,) lower "
                    f"triangle, got {dtype} {shape}" + (" in Fortran order" if fortran else ""))
            size, need = os.fstat(f.fileno()).st_size, f.tell() + 8 * shape[0]
            if size != need:
                raise ParseError(f"{path}: {size} bytes, the header's {shape} "
                                 f"float64 array needs {need}")
            M = np.empty((S, S)) if symmetric else np.zeros((S, S))
            buf = np.empty(max((hi - lo for _, _, lo, hi in _blocks(S)), default=0))
            for b, e, lo, hi in _blocks(S):
                blk = buf[:hi - lo]
                f.readinto(blk)
                # min and max carry a NaN: no temporary the size of the block
                if not (math.isfinite(blk.min()) and math.isfinite(blk.max())):
                    i = lo + int(np.argmax(~np.isfinite(blk)))
                    s = (math.isqrt(8 * i + 1) - 1) // 2
                    raise ParseError(f"{path}: non-finite value {blk[i - lo]} at "
                                     f"{'C' if symmetric else 'R'}({s}, {i - s * (s + 1) // 2})")
                for s in range(b, e):
                    o = s * (s + 1) // 2 - lo  # row s starts at entry s (s + 1) / 2
                    M[s, :s + 1] = blk[o:o + s + 1]
                    if symmetric:
                        M[b:s, s] = M[s, b:s]
                if symmetric:
                    M[:b, b:e] = M[b:e, :b].T
    except OSError as e:
        raise ParseError(f"{path}: not readable: {e}") from None
    return M


def save_bundle(bundle, out: Path) -> None:
    """Write R.npy and C.npy (each its lower triangle, so K = C(s, s) too)
    and series.csv for a bundle."""
    _write_triangle(out / "R.npy", bundle.R, False)
    _write_triangle(out / "C.npy", bundle.C, True)
    write_series_csv(out / "series.csv", ("t", "q", "mu", "H", "Hhat"),
                     (bundle.grid.times(), bundle.q, bundle.mu, bundle.H,
                      bundle.Hhat))


def load_bundle(rundir: str | Path):
    """Rebuild a TwoTimeBundle (and its metadata) from a solve run directory.

    K is C's diagonal; a series.csv column the bundle does not read (the
    K of older runs) is ignored.  Raises ParseError naming the first
    missing file or series column, so a directory written by another
    command is rejected cleanly, and naming the file for a metadata.json
    that holds no JSON object, a damaged line, a short series, or an
    R.npy or C.npy that read_triangle rejects, that does not match the
    grid, or whose diagonal R(s,s) (and C(s,s) on the hard sphere) is not
    the 1 that every solve writes, bit for bit.
    """
    import numpy as np
    from .volterra import TwoTimeBundle

    rundir = Path(rundir)
    for name in ("metadata.json", "series.csv", "R.npy", "C.npy"):
        if not (rundir / name).exists():
            raise ParseError(f"{rundir}: no {name} (not a solve-hard/solve-soft run)")
    meta = _read_json_object(rundir / "metadata.json")
    nu, params, grid = _model_from_config(_block(meta, "config"))
    if grid is None:
        raise ParseError(f"{rundir / 'metadata.json'}: the config echo has no 'grid' block")
    series = read_series_csv(rundir / "series.csv")
    for col in ("q", "mu", "H", "Hhat"):
        if col not in series:
            raise ParseError(f"{rundir / 'series.csv'}: no '{col}' column")
    if series["q"].shape[0] != grid.n + 1:
        raise ParseError(f"{rundir / 'series.csv'}: {series['q'].shape[0]} rows, "
                         f"the grid needs n + 1 = {grid.n + 1}")
    R = read_triangle(rundir / "R.npy", False)
    C = read_triangle(rundir / "C.npy", True)
    # R(s, s) is 1, and on the hard sphere |x|^2 = N: K = C(s, s) is 1
    for name, M, unit in (("R", R, True), ("C", C, params.confinement.is_hard)):
        path = rundir / f"{name}.npy"
        if M.shape[0] != grid.n + 1:
            raise ParseError(f"{path}: {M.shape[0]} rows, "
                             f"the grid needs n + 1 = {grid.n + 1}")
        ok = np.diag(M) == 1.0
        if unit and not ok.all():
            s = int(np.argmin(ok))
            raise ParseError(f"{path}: {name}({s}, {s}) = {float(M[s, s])}, "
                             "but a solve writes 1")
    bundle = TwoTimeBundle(
        grid=grid, R=R, C=C,
        q=series["q"], mu=series["mu"],
        H=series["H"], Hhat=series["Hhat"],
        pc_gap=_field(meta, "metadata", "pc_gap"), params=params, nu=nu)
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
    audit = check_bundle(bundle)
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
    write_series_csv(out / "series.csv", ("tau", "D", "R_fdt"),
                     (cfg.grid.times(), sol.D, sol.R_fdt))
    constants = {
        "gamma": cfg.gamma,
        "mu_infty": sol.mu,
        "D_inf": sol.D_inf,
        "I": sol.I,
        "kappa1_closed": sol.kappa1,
        "kappa2_closed": sol.kappa2,
    }
    try:
        constants["beta_c"] = _fdt.beta_c(cfg.nu)
    except SpinbandError as e:
        constants["beta_c"] = None
        constants["beta_c_note"] = f"{type(e).__name__}: {e}"
    try:
        constants["kappa_quadrature"] = list(_fdt.kappa_values(sol, cfg.nu))
    except SpinbandError as e:
        constants["kappa_quadrature"] = None
        constants["kappa_note"] = f"{type(e).__name__}: {e}"
    _write_json(out / "constants.json", constants)
    return True, {}


def _run_sk(cfg: RunConfig, out: Path):
    from .sk import (resolvent_root, sk_asymptotics, solve_two_time,
                     superposition_gap)

    pars = cfg.sk
    sol = solve_two_time(pars, cfg.grid)
    _write_triangle(out / "R.npy", sol.R_rows, False)
    _write_triangle(out / "C.npy", sol.C, True)
    write_series_csv(out / "series.csv", ("t", "q", "mu", "H"),
                     (cfg.grid.times(), sol.q, sol.mu, sol.H))
    del sol  # the superposition audit holds three (n+1)^2 marches of its own
    constants = {
        "y": resolvent_root(pars.G_star),
        "E_star": pars.E_star,
        "superposition": superposition_gap(pars, cfg.grid),
    }
    try:  # the delocalized phase (beta <= y) has no localized limit
        (constants["alpha_sq"], _, constants["mu_infty"],
         constants["H_infty"]) = sk_asymptotics(pars)
    except NoBranch as e:
        constants.update(alpha_sq=None, mu_infty=None, H_infty=None,
                         asymptotics_note=f"{type(e).__name__}: {e}")
    _write_json(out / "constants.json", constants)
    return True, {}


def _run_simulate(cfg: RunConfig, out: Path):
    import numpy as np
    from .simulate import (condition_disorder, empirical_observables,
                           error_functional, limit_at_snapshots, run_langevin,
                           sample_disorder)
    from .volterra import solve_soft

    t0 = time.monotonic()
    # conditioned in place: the run holds one copy of the couplings
    J = condition_disorder(sample_disorder(cfg.sim.N, cfg.nu, cfg.disorder_seed),
                           cfg.params)
    t1 = time.monotonic()
    traj = run_langevin(J, cfg.params, cfg.sim)
    del J  # the couplings are not read again
    t2 = time.monotonic()
    # the limit first: the observables' one pass takes each replica's C and
    # chi gaps to it
    limit = None
    if cfg.grid is not None:
        limit = limit_at_snapshots(traj.times, solve_soft(cfg.params, cfg.nu, cfg.grid))
    t3 = time.monotonic()
    emp = empirical_observables(traj, limit)
    t4 = time.monotonic()
    extra = {}
    if limit is not None:
        err = error_functional(emp)
        per = error_functional(emp, per_replica=True)
        extra["error_functional"] = err
    t5 = time.monotonic()

    write_series_csv(out / "snapshots.csv", ("t", "q_N", "H_N"),
                     (traj.times, emp.q_avg, emp.H_avg))
    reps, snaps = emp.q.shape  # replica-major rows
    write_series_csv(out / "per_replica.csv", ("replica", "t", "q_N", "H_N", "K_N"),
                     (np.repeat(np.arange(reps), snaps), np.tile(traj.times, reps),
                      emp.q.ravel(), emp.H.ravel(), traj.K.T.ravel()))
    _write_triangle(out / "C_N.npy", emp.C_avg, True)
    with _writing(out / "chi_N.npy", "wb") as f:
        np.save(f, emp.chi_avg)
    if cfg.grid is not None:
        _write_json(out / "report.json", {
            "error_functional": err,
            "per_replica": [float(v) for v in per],
            "grid": {"T": cfg.grid.T, "h": cfg.grid.h},
        })
    t6 = time.monotonic()
    extra["timings"] = {
        "disorder_s": round(t1 - t0, 3), "langevin_s": round(t2 - t1, 3),
        "limit_s": round(t3 - t2, 3), "observables_s": round(t4 - t3, 3),
        "error_s": round(t5 - t4, 3), "write_s": round(t6 - t5, 3)}
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
    del b  # one (n+1)^2 array (C) fewer under the audit's temporaries
    report["against"] = "sk" if cfg.sk is not None else "soft"
    report["audit"] = check_bundle(a)
    _write_json(out / "report.json", report)
    return report["passed"], {}


def _run_report(cfg: RunConfig, out: Path):
    from .volterra import check_bundle

    bundle, meta = load_bundle(cfg.source)
    audit = check_bundle(bundle)
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
COMMANDS = tuple(_DISPATCH)


def run(cfg: RunConfig, out: str | Path) -> int:
    """Execute a parsed config into ``out``; 0, or 2 when a gate failed."""
    t0 = time.monotonic()
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file, or a path under one
        raise ParseError(f"{out}: not a usable output directory: {e}") from None
    passed, extra = _DISPATCH[cfg.command](cfg, out)
    _write_json(out / "metadata.json", _meta(cfg, time.monotonic() - t0, extra))
    return 0 if passed else 2


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 like any other error
        raise ParseError(message)


def main(argv=None) -> int:
    ap = _ArgumentParser(
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
    try:
        args = ap.parse_args(argv)
        if args.threads is not None:
            if args.threads < 1:
                raise ParseError(f"argument --threads: must be at least 1, "
                                 f"got {args.threads}")
            for var in _THREAD_VARS:
                os.environ[var] = str(args.threads)
        cfg = parse_config(args.config, command=args.command, seed=args.seed)
        return run(cfg, args.out)
    except SpinbandError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
