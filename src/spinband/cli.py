"""Command-line front end: config parsing, run orchestration, CSV artifacts.

Commands:

* ``solve-hard`` / ``solve-soft`` -- two-time solve; writes five files
  (metadata.json, R.csv, C.csv, series.csv, invariants.json).
* ``fdt``       -- lag-grid solve plus the derived constants.
* ``sk``        -- two-body closed-form solve on the same artifact layout.
* ``simulate``  -- conditioned finite-N Langevin runs with snapshot dumps.
* ``compare``   -- two solves on one grid, sup-norm gap report.
* ``report``    -- reload a finished run directory and re-audit it.

Exit codes: 0 success, 2 an audit/tolerance gate failed, 1 any error.

The config file is JSON (layout documented in the README).  ``--seed``
overrides the sim block's seed; ``--threads`` caps BLAS/OpenMP thread counts
and must take effect before numpy loads, which is why every compute-module
import in this file is local to the function that needs it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import (GridMismatch, ParseError, SpinbandError, ValidationError)

COMMANDS = ("solve-hard", "solve-soft", "fdt", "sk", "simulate",
            "compare", "report")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


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
    sim: dict | None = None
    fdt: dict = field(default_factory=dict)
    compare: dict = field(default_factory=dict)
    source: str | None = None


def _need(block: dict, path: str, key: str):
    if key not in block:
        raise ParseError(f"field '{path}.{key}' is missing")
    return block[key]


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
                int(cons.get("k", 1)),
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

    source = _block(raw, "report").get("source") or raw.get("source")
    if command == "report":
        if not source:
            raise ParseError("report needs 'report.source' (a run directory)")
        return RunConfig(command=command, raw=raw, source=str(source))

    nu, params, grid = _model_from_config(raw)
    soft = not params.confinement.is_hard

    needs_grid = command in ("solve-hard", "solve-soft", "fdt", "sk", "compare")
    if needs_grid and grid is None:
        raise ParseError(f"command '{command}' needs a 'grid' block")
    if command == "solve-soft" and not soft:
        raise ParseError("solve-soft needs a soft 'constraint' block")

    sim = _block(raw, "sim") or None
    if command == "simulate":
        if sim is None:
            raise ParseError("command 'simulate' needs a 'sim' block")
        for key in ("N", "dt"):
            _need(sim, "sim", key)
        if not soft:
            raise ParseError("simulate needs a soft 'constraint' block")

    if command in ("sk", "compare") and _block(raw, "compare").get("against", "sk") == "sk":
        if nu.coeffs_sq != (0.125,):
            raise ValidationError(
                "the closed form covers the two-body mixing r^2/8 only "
                "(coeffs_sq == [0.125])")

    return RunConfig(command=command, raw=raw, nu=nu, params=params, grid=grid,
                     sim=sim, fdt=_block(raw, "fdt"), compare=_block(raw, "compare"),
                     source=source)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % x


def write_matrix_csv(path: Path, M, lower: bool = True) -> None:
    """Triplet dump: header then one 'i,j,value' row per stored entry.

    ``lower`` keeps j <= i only (enough for the symmetric C and the causal
    R); full storage is used for the empirical response, which is neither.
    """
    n = M.shape[0]
    with open(path, "w") as f:
        f.write("i,j,value\n")
        for i in range(n):
            row = M[i]
            jmax = i + 1 if lower else M.shape[1]
            f.write("".join(f"{i},{j},{_fmt(row[j])}\n" for j in range(jmax)))


def read_matrix_csv(path: Path, n: int, symmetric: bool = False):
    """Rebuild an (n+1, n+1) array from a triplet dump."""
    import numpy as np
    M = np.zeros((n + 1, n + 1))
    with open(path) as f:
        header = f.readline()
        if header.strip() != "i,j,value":
            raise ParseError(f"{path}: expected 'i,j,value' header")
        for line in f:
            si, sj, sv = line.rstrip("\n").split(",")
            M[int(si), int(sj)] = float(sv)
    if symmetric:
        iu = np.triu_indices(n + 1, k=1)
        M[iu] = M.T[iu]
    return M


def write_series_csv(path: Path, names, columns) -> None:
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for row in zip(*columns):
            f.write(",".join(_fmt(v) for v in row) + "\n")


def read_series_csv(path: Path) -> dict:
    import numpy as np
    with open(path) as f:
        names = f.readline().rstrip("\n").split(",")
        rows = [[float(v) for v in line.rstrip("\n").split(",")] for line in f]
    data = np.asarray(rows)
    return {name: data[:, k].copy() for k, name in enumerate(names)}


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _meta(cfg: RunConfig, wall: float, extra: dict | None = None) -> dict:
    import numpy as np
    from . import __version__
    meta = {
        "command": cfg.command,
        "config": cfg.raw,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "wall_time_s": round(wall, 3),
    }
    if extra:
        meta.update(extra)
    return meta


def save_bundle(bundle, out: Path) -> None:
    """Write R.csv, C.csv and series.csv for a solved bundle."""
    write_matrix_csv(out / "R.csv", bundle.R)
    write_matrix_csv(out / "C.csv", bundle.C)
    write_series_csv(out / "series.csv", ("t", "q", "K", "mu", "H", "Hhat"),
                     (bundle.grid.times(), bundle.q, bundle.K, bundle.mu,
                      bundle.H, bundle.Hhat))


def load_bundle(rundir: str | Path):
    """Rebuild a TwoTimeBundle (and its metadata) from a run directory."""
    from .volterra import TwoTimeBundle

    rundir = Path(rundir)
    meta_path = rundir / "metadata.json"
    if not meta_path.exists():
        raise ParseError(f"{rundir}: no metadata.json (not a run directory?)")
    meta = json.loads(meta_path.read_text())
    nu, params, grid = _model_from_config(_block(meta, "config"))
    if grid is None:
        raise ParseError(f"{meta_path}: the config echo has no 'grid' block")
    series = read_series_csv(rundir / "series.csv")
    R = read_matrix_csv(rundir / "R.csv", grid.n)
    C = read_matrix_csv(rundir / "C.csv", grid.n, symmetric=True)
    bundle = TwoTimeBundle(
        grid=grid, constraint=meta.get("constraint", "hard"),
        R=R, C=C, q=series["q"], K=series["K"], mu=series["mu"],
        H=series["H"], Hhat=series["Hhat"],
        diag_residual=meta.get("diag_residual"), params=params, nu=nu)
    return bundle, meta


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------

def compare_bundles(a, b, tol: float) -> dict:
    """Sup-norm gaps of (R, C, q, mu, H) between two solves on one grid."""
    import numpy as np
    if a.grid.n != b.grid.n or a.grid.h != b.grid.h:
        raise GridMismatch(f"grids differ: (h={a.grid.h}, n={a.grid.n}) vs "
                           f"(h={b.grid.h}, n={b.grid.n})")
    gaps = {name: float(np.abs(getattr(a, name) - getattr(b, name)).max())
            for name in ("R", "C", "q", "mu", "H")}
    passed = {name: gap <= tol for name, gap in gaps.items()}
    return {"tol": tol, "gaps": gaps, "pass": passed,
            "passed": all(passed.values())}


def _audit_dict(bundle) -> dict:
    from .volterra import check_bundle, response_integral_bound
    audit = check_bundle(bundle)
    excess = response_integral_bound(bundle)
    bound_tol = 2.0 * bundle.grid.h
    d = audit.as_dict()
    d["response_bound_excess"] = excess
    d["response_bound_tol"] = bound_tol
    d["passed"] = bool(d["passed"] and excess <= bound_tol)
    return d


# --------------------------------------------------------------------------
# command bodies
# --------------------------------------------------------------------------

def _run_solve(cfg: RunConfig, out: Path) -> int:
    from .volterra import solve_hard, solve_soft

    t0 = time.monotonic()
    if cfg.command == "solve-hard":
        bundle = solve_hard(cfg.params, cfg.nu, cfg.grid)
    else:
        bundle = solve_soft(cfg.params, cfg.nu, cfg.grid)
    save_bundle(bundle, out)
    audit = _audit_dict(bundle)
    _write_json(out / "invariants.json", audit)
    _write_json(out / "metadata.json", _meta(cfg, time.monotonic() - t0, {
        "constraint": bundle.constraint,
        "diag_residual": bundle.diag_residual,
    }))
    return 0 if audit["passed"] else 2


def _run_fdt(cfg: RunConfig, out: Path) -> int:
    from . import fdt as _fdt

    t0 = time.monotonic()
    gamma = float(cfg.fdt.get("gamma", 0.5))
    sol = _fdt.solve_fdt(gamma, cfg.params.beta, cfg.nu, cfg.grid)
    write_series_csv(out / "series.csv", ("tau", "D", "Dprime", "R_fdt"),
                     (cfg.grid.times(), sol.D, sol.Dprime, sol.R_fdt))
    constants = {
        "gamma": gamma,
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
    _write_json(out / "metadata.json", _meta(cfg, time.monotonic() - t0))
    return 0


def _sk_params(cfg: RunConfig):
    from .sk import SkParams
    p = cfg.params
    return SkParams(beta=p.beta, G_star=p.G_star, q_star=p.q_star, q_o=p.q_o)


def _run_sk(cfg: RunConfig, out: Path) -> int:
    import numpy as np
    from .sk import (resolvent_root, sk_asymptotics, solve_two_time,
                     superposition_gap)

    t0 = time.monotonic()
    pars = _sk_params(cfg)
    sol = solve_two_time(pars, cfg.grid)
    write_matrix_csv(out / "R.csv", sol.R)
    write_matrix_csv(out / "C.csv", sol.C)
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
    _write_json(out / "metadata.json", _meta(cfg, time.monotonic() - t0))
    return 0


def _run_simulate(cfg: RunConfig, out: Path) -> int:
    from .simulate import (SimConfig, condition_disorder, empirical_observables,
                           error_functional, run_langevin, sample_disorder,
                           star_point)
    from .volterra import solve_soft

    t0 = time.monotonic()
    sim = dict(cfg.sim)
    N = int(sim["N"])
    dt = float(sim["dt"])
    T = float(sim.get("T", cfg.grid.h * cfg.grid.n if cfg.grid else 0.0))
    if T <= 0:
        raise ValidationError("simulate needs sim.T (or a grid block)")
    seed = int(sim.get("seed", 0))
    stride = sim.get("snap_stride")
    if stride is None:
        stride = int(round(cfg.grid.h / dt)) if cfg.grid else 1
    scfg = SimConfig(N=N, dt=dt, T=T, seed=seed,
                     replicas=int(sim.get("replicas", 4)),
                     snap_stride=int(stride),
                     confinement=cfg.params.confinement)
    J = condition_disorder(
        sample_disorder(N, cfg.nu, int(sim.get("disorder_seed", seed))),
        cfg.params, cfg.nu)
    traj = run_langevin(J, cfg.params, scfg)
    emp = empirical_observables(traj, star_point(N, cfg.params.q_star), J)

    K_avg = traj.K.mean(axis=1)
    write_series_csv(out / "snapshots.csv", ("t", "q_N", "H_N", "K_N"),
                     (traj.times, emp.q_avg, emp.H_avg, K_avg))
    with open(out / "per_replica.csv", "w") as f:
        f.write("replica,t,q_N,H_N,K_N\n")
        for r in range(scfg.replicas):
            for k, t in enumerate(traj.times):
                f.write(f"{r},{_fmt(t)},{_fmt(emp.q[r, k])},"
                        f"{_fmt(emp.H[r, k])},{_fmt(traj.K[k, r])}\n")
    write_matrix_csv(out / "C_N.csv", emp.C_avg, lower=False)
    write_matrix_csv(out / "chi_N.csv", emp.chi_avg, lower=False)

    extra = {}
    if cfg.grid is not None:
        limit = solve_soft(cfg.params, cfg.nu, cfg.grid)
        err = error_functional(emp, limit)
        per = error_functional(emp, limit, per_replica=True)
        extra["error_functional"] = err
        _write_json(out / "report.json", {
            "error_functional": err,
            "per_replica": [float(v) for v in per],
            "grid": {"T": cfg.grid.h * cfg.grid.n, "h": cfg.grid.h},
        })
    _write_json(out / "metadata.json", _meta(cfg, time.monotonic() - t0, extra))
    return 0


def _run_compare(cfg: RunConfig, out: Path) -> int:
    from .sk import solve_two_time
    from .volterra import solve_hard, solve_soft

    t0 = time.monotonic()
    tol = float(cfg.compare.get("tol", 5e-3))
    against = cfg.compare.get("against", "sk")
    if against == "sk":
        a = (solve_soft if not cfg.params.confinement.is_hard
             else solve_hard)(cfg.params, cfg.nu, cfg.grid)
        b = solve_two_time(_sk_params(cfg), cfg.grid)
    elif against == "soft":
        if cfg.params.confinement.is_hard:
            raise ValidationError("compare against=soft needs a soft constraint")
        a = solve_hard(cfg.params, cfg.nu, cfg.grid)  # swaps in the hard constraint
        b = solve_soft(cfg.params, cfg.nu, cfg.grid)
    else:
        raise ParseError(f"'compare.against' must be sk|soft, got '{against}'")
    report = compare_bundles(a, b, tol)
    report["against"] = against
    report["audit"] = _audit_dict(a)
    _write_json(out / "report.json", report)
    _write_json(out / "metadata.json", _meta(cfg, time.monotonic() - t0))
    return 0 if report["passed"] else 2


def _run_report(cfg: RunConfig, out: Path) -> int:
    t0 = time.monotonic()
    bundle, meta = load_bundle(cfg.source)
    audit = _audit_dict(bundle)
    _write_json(out / "report.json", {
        "source": str(cfg.source),
        "source_command": meta.get("command"),
        "audit": audit,
    })
    _write_json(out / "metadata.json", _meta(cfg, time.monotonic() - t0))
    return 0 if audit["passed"] else 2


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
    """Execute a parsed config, writing artifacts into ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return _DISPATCH[cfg.command](cfg, out)


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
