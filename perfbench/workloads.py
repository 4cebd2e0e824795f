"""The benchmark's workloads: one `spinband <command>` run each.

A workload turns a seed into a config, says how much work one invocation
does, and checks an invocation's output directory.  Checks read arrays back
through `spinband.cli.load_bundle` or the JSON reports, never the CSV bytes,
so that a change of artifact format keeps them valid.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SK_MODEL = {"coeffs_sq": [0.125], "beta": 1.0, "q_star": 1.0, "q_o": 0.5,
            "E_star": 0.625, "G_star": 1.25}
MIXED_MODEL = {"coeffs_sq": [0.0625, 0.0625], "beta": 1.0, "q_star": 0.9,
               "q_o": 0.5, "E_star": 0.3, "G_star": 0.8}
P3_MODEL = {"coeffs_sq": [0.0, 0.125], "beta": 0.3, "q_star": 0.9, "q_o": 0.5,
            "E_star": 0.2, "G_star": 3.0 * 0.2 / 0.81}
SOFT = {"kind": "soft", "L": 100.0, "k": 1}

# finite-N gates of tests/test_acceptance.py::test_07
SIM_GATES = {"simulate-p3": 0.3, "simulate-p2": 0.2}


class CheckFailed(Exception):
    """An invocation's output does not meet the workload's check."""


def _json(path: Path) -> dict:
    if not path.exists():
        raise CheckFailed(f"{path.name} is missing")
    return json.loads(path.read_text())


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def disorder_seed(seed: int) -> int:
    """The simulate workloads' disorder seed, derived from the workload seed."""
    return int(hashlib.sha256(f"disorder:{seed}".encode()).hexdigest()[:8], 16)


def solve_config(T: float, h: float) -> dict:
    return {"command": "solve-hard", "model": MIXED_MODEL,
            "constraint": {"kind": "hard"}, "grid": {"T": T, "h": h}}


def _grid_rows(cfg: dict) -> int:
    g = cfg["grid"]
    return int(round(g["T"] / g["h"]))


def _replica_steps(cfg: dict) -> int:
    s = cfg["sim"]
    return s["replicas"] * int(round(s["T"] / s["dt"]))


def load_arrays(rundir: Path) -> dict:
    """The solved arrays of a run directory, reloaded through the program."""
    from spinband.cli import load_bundle
    bundle, _ = load_bundle(rundir)
    return {name: getattr(bundle, name)
            for name in ("R", "C", "q", "K", "mu", "H", "Hhat")}


def same_arrays(a: dict, b: dict) -> bool:
    """Bitwise equality: same keys, shapes, dtypes and bytes."""
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].dtype == b[k].dtype
        and a[k].tobytes() == b[k].tobytes() for k in a)


# --------------------------------------------------------------------------
# per-command checks: return (values for the record, a fingerprint that must
# repeat exactly across invocations at one thread count; solve runs are
# compared array by array through load_bundle instead)
# --------------------------------------------------------------------------

def check_solve(out: Path, cfg: dict):
    inv = _json(out / "invariants.json")
    _require(inv.get("passed") is True, "invariants.json audit did not pass")
    _json(out / "metadata.json")
    return {}, None


def check_report(out: Path, cfg: dict):
    rep = _json(out / "report.json")
    audit = rep.get("audit", {})
    _require(audit.get("passed") is True, "report.json audit did not pass")
    # the re-audit of reloaded arrays must reproduce the solve's own audit
    source = _json(Path(cfg["report"]["source"]) / "invariants.json")
    _require(audit == source, "re-audit differs from the solve's invariants.json")
    return {}, audit


def check_compare(out: Path, cfg: dict):
    rep = _json(out / "report.json")
    gaps = rep.get("gaps", {})
    _require(set(gaps) == {"R", "C", "q", "mu", "H"}, "report.json gaps incomplete")
    gap = max(gaps.values())
    tol = cfg["compare"]["tol"]
    _require(math.isfinite(gap) and gap <= tol, f"oracle_gap {gap:g} > tol {tol:g}")
    _require(rep.get("passed") is True, "report.json did not pass")
    _require(rep.get("audit", {}).get("passed") is True, "audit did not pass")
    return {"oracle_gap": gap}, rep


def check_simulate(out: Path, cfg: dict, gate: float):
    rep = _json(out / "report.json")
    err = rep.get("error_functional")
    per = rep.get("per_replica", [])
    _require(isinstance(err, float) and math.isfinite(err), "error_functional not finite")
    _require(len(per) == cfg["sim"]["replicas"]
             and all(math.isfinite(v) for v in per), "per_replica errors malformed")
    _require(err <= gate, f"sim_error {err:g} > gate {gate:g}")
    _json(out / "metadata.json")
    return {"sim_error": err}, rep


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int, bool, Path], dict]   # (seed, smoke, workdir) -> config
    work: Callable[[dict], int]                 # grid rows or replica-steps of
                                                # the config (of prep, if given)
    work_unit: str
    check: Callable[[Path, dict], tuple]
    seeded: bool                                # does the seed reach the program?
    arrays: bool = False                        # compare reloaded arrays across repeats
    prep: Callable[[bool], dict] | None = None  # (smoke) -> solve run it reads


def _solve_mixed(seed, smoke, work=None):
    return solve_config(*((1.0, 0.05) if smoke else (10.0, 0.01)))


def _report_mixed(seed, smoke, work):
    return {"command": "report", "report": {"source": str(work / "source")}}


def _compare_sk(seed, smoke, work):
    T, h = (1.0, 0.05) if smoke else (10.0, 0.01)
    return {"command": "compare", "model": SK_MODEL,
            "constraint": {"kind": "hard"}, "grid": {"T": T, "h": h},
            "compare": {"against": "sk", "tol": 5e-3}}


def _simulate(model, N, T, smoke_N, smoke_T):
    def config(seed, smoke, work):
        n, t = (smoke_N, smoke_T) if smoke else (N, T)
        return {"command": "simulate", "model": model, "constraint": SOFT,
                "grid": {"T": t, "h": 0.01},
                "sim": {"N": n, "dt": 5e-4, "T": t, "replicas": 8,
                        "seed": seed, "disorder_seed": disorder_seed(seed)}}
    return config


WORKLOADS = {w.name: w for w in (
    Workload("solve-mixed",
             "solve-hard", _solve_mixed, _grid_rows, "rows", check_solve,
             seeded=False, arrays=True),
    Workload("report-mixed",
             "report", _report_mixed, _grid_rows, "rows", check_report,
             seeded=False, prep=lambda smoke: _solve_mixed(0, smoke)),
    Workload("compare-sk",
             "compare", _compare_sk, _grid_rows, "rows", check_compare,
             seeded=False),
    Workload("simulate-p3",
             "simulate", _simulate(P3_MODEL, 160, 0.5, 12, 0.05),
             _replica_steps, "replica-steps",
             lambda out, cfg: check_simulate(out, cfg, SIM_GATES["simulate-p3"]),
             seeded=True),
    Workload("simulate-p2",
             "simulate", _simulate(SK_MODEL, 400, 2.0, 40, 0.1),
             _replica_steps, "replica-steps",
             lambda out, cfg: check_simulate(out, cfg, SIM_GATES["simulate-p2"]),
             seeded=True),
)}
