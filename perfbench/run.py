"""Benchmark of the spinband command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root.  Each workload invocation is a real
`spinband <command>` run in a fresh child process with `--threads` equal to
the number of usable cores; invocations run one after another from this one
process (a closed loop with one client) until `--seconds` is used up.
Every invocation's output is checked.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics of a separate
traced run (perfbench/tracer.py) with `--trace 1`.  The line before it is
the full record (samples, checked values, provenance), also written under
`.perfbench_work/results/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, load_arrays, same_arrays  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_SC_LEVEL3_CACHE_SIZE = 194   # glibc sysconf name, not exported by Python

# the `spinband` console script, spelled out so no install step is needed
CLI = "import sys; from spinband.cli import main; sys.exit(main())"
SETUP = ("import sys, numpy, spinband.cli as cli; "
         "cli.parse_config(sys.argv[1], command=sys.argv[2])")

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "artifact_mb": "MB", "work_per_s": "1/s"}
PER_LAYER = {
    "cli.parse_s": "s", "cli.write_s": "s", "cli.write_mb": "MB",
    "cli.read_s": "s", "volterra.march_s": "s", "volterra.rows": "count",
    "volterra.rows_per_s": "1/s", "volterra.state_mb": "MB",
    "volterra.check_s": "s", "volterra.bound_s": "s",
    "volterra.march_thread_speedup": "ratio", "sk.solve_s": "s",
    "sk.rows_per_s": "1/s", "simulate.disorder_s": "s",
    "simulate.disorder_mb": "MB", "simulate.langevin_s": "s",
    "simulate.grad_calls": "count", "simulate.grad_s": "s",
    "simulate.grad_gflops": "GFLOP/s", "simulate.grad_thread_speedup": "ratio",
    "simulate.step_overhead_s": "s", "simulate.observables_s": "s",
    "simulate.error_s": "s", "cli.self_s": "s", "volterra.self_s": "s",
    "sk.self_s": "s", "simulate.self_s": "s", "unattributed_s": "s",
    "traced_wall_s": "s", "trace_overhead_s": "s",
}


class Child:
    """Outcome of one child process: wall time from start to exit, rusage."""

    def __init__(self, argv, env, log: Path):
        t0 = time.perf_counter()
        with open(log, "w") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        self.wall = time.perf_counter() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0   # ru_maxrss is in KiB on Linux
        self.log = log


def child_env(threads: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if threads is not None:
        env.update({var: str(threads) for var in THREAD_VARS})
    return env


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout, read from .git without leaving it (or None)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_sha256():
    """Hash of the program's sources, which identifies a non-git checkout."""
    h = hashlib.sha256()
    for p in sorted((SRC / "spinband").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def provenance(seed: int, w) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, ValueError):
        blas = None
    try:
        llc = os.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (ValueError, OSError):
        llc = None
    return {
        "nproc": NPROC,
        "blas_threads": NPROC,
        "blas_threads_baseline": 1,
        "blas_build": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "llc_bytes": llc if llc and llc > 0 else None,
        "seed": seed,
        "seed_reaches_program": w.seeded,
        "seed_note": ("--seed is passed to simulate; disorder_seed is derived "
                      "from it" if w.seeded else
                      "deterministic solve: the seed does not affect the inputs"),
    }


# --------------------------------------------------------------------------
# one workload run
# --------------------------------------------------------------------------

class WorkloadRun:
    def __init__(self, name: str, seed: int, smoke: bool, tag: str):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.dir = WORK / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg = self.w.config(seed, smoke, self.dir)
        self.cfg_path = self.dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg, indent=2))
        prep = self.w.prep(smoke) if self.w.prep else None
        self.work = self.w.work(prep or self.cfg)
        self.count = 0
        self.failures = []
        self.values = {}
        self.first = {}    # thread count -> (first output's name, fingerprint)
        self.last = {}     # thread count -> (latest output directory, fingerprint)
        if prep:
            path = self.dir / "prep.json"
            path.write_text(json.dumps(prep))
            c = self.spawn(["-c", CLI, prep["command"], "--config", str(path),
                            "--out", str(self.dir / "source"),
                            "--threads", str(NPROC)], None, "prep")
            if c.rc != 0:
                raise RuntimeError(f"preparing {name} failed: {c.log.read_text()[-800:]}")

    def spawn(self, args, threads, label) -> Child:
        return Child([sys.executable] + args, child_env(threads),
                     self.dir / f"{label}.stderr")

    def setup_time(self) -> float:
        """Wall time of one set-up child: import, parse the config, exit."""
        return self.spawn(["-c", SETUP, str(self.cfg_path), self.w.command],
                          NPROC, "setup").wall

    def invoke(self, threads: int, traced: bool):
        """Run the workload's command once and check its output."""
        self.count += 1
        out = self.dir / f"out{self.count}"
        args = [self.w.command, "--config", str(self.cfg_path), "--out", str(out),
                "--threads", str(threads)]
        if self.w.seeded:
            args += ["--seed", str(self.seed)]
        spans = self.dir / f"spans{self.count}.json"
        if traced:
            child = self.spawn([str(HERE / "tracer.py"), str(spans)] + args,
                               threads, f"run{self.count}")
        else:
            child = self.spawn(["-c", CLI] + args, None, f"run{self.count}")
        child.bytes = dir_bytes(out) if out.exists() else 0
        child.spans = None
        try:
            if child.rc != 0:
                raise CheckFailed(f"exit code {child.rc}: "
                                  f"{child.log.read_text().strip()[-400:]}")
            values, child.fingerprint = self.w.check(out, self.cfg)
            for k, v in values.items():
                self.values.setdefault(k, []).append(v)
            if traced:
                child.spans = json.loads(spans.read_text())
        except (CheckFailed, OSError, ValueError) as e:
            self.failures.append(f"invocation {self.count}: {e}")
            return child
        if threads not in self.first:
            # reload the first output now and delete it, so that no large
            # directory is left to be written back to disk during timing
            self.first[threads] = (out.name, load_arrays(out) if self.w.arrays
                                   else child.fingerprint)
            shutil.rmtree(out)
        else:
            if threads in self.last:
                shutil.rmtree(self.last[threads][0])
            self.last[threads] = (out, child.fingerprint)
        return child

    def check_repeats(self):
        """Outputs at one thread count must repeat bitwise."""
        for threads, (out, fp) in self.last.items():
            first, fp0 = self.first[threads]
            same = (same_arrays(fp0, load_arrays(out)) if self.w.arrays
                    else fp == fp0)
            if not same:
                self.failures.append(
                    f"{out.name} differs from {first} at {threads} threads")

    def loop(self, seconds: float, step):
        """Call step() until the next call would overrun `seconds`."""
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            s = time.perf_counter()
            step()
            longest = max(longest, time.perf_counter() - s)
            if time.perf_counter() - t0 + longest > seconds:
                break

    def result(self, metrics: dict, record: dict) -> dict:
        self.check_repeats()
        failed = min(len(self.failures), self.count)
        record.update({
            "workload": self.w.name,
            "config": self.cfg,
            "work": {"value": self.work, "unit": self.w.work_unit},
            "checked": self.values,
            "failures": self.failures,
            "fail_frac": failed / max(self.count, 1),
        })
        return {"correct": not self.failures, "attempted": self.count,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, v, u in metrics}}


def run_untraced(r: WorkloadRun, seconds: float):
    r.setup_time()                  # warm-up: not timed
    setup = [r.setup_time() for _ in range(SETUP_REPS)]
    r.invoke(NPROC, traced=False)   # warm-up: checked, not timed
    runs = []

    def step():
        # set-up is sampled across the whole window, not in one burst
        setup.append(r.setup_time())
        runs.append(r.invoke(NPROC, traced=False))

    r.loop(seconds, step)
    run_s = median([c.wall for c in runs])
    values = {
        "run_s": run_s,
        "setup_s": median(setup),
        "cpu_s": median([c.cpu for c in runs]),
        "peak_rss_mb": median([c.rss_mb for c in runs]),
        "artifact_mb": median([c.bytes for c in runs]) / 1e6,
        "work_per_s": r.work / run_s,
    }
    record = {
        "samples": {"run_s": len(runs), "setup_s": len(setup)},
        "run_s_samples": [c.wall for c in runs],
        "setup_s_samples": setup,
        "run_s_quartiles": (statistics.quantiles([c.wall for c in runs], n=4)
                            if len(runs) > 1 else None),
        # work_per_s under its workload-specific name
        ("replica_steps_per_s" if r.w.seeded else "rows_per_s"): values["work_per_s"],
    }
    if r.w.name == "report-mixed":
        record["reload_s"] = run_s
    for key in ("oracle_gap", "sim_error"):
        if key in r.values:
            record[key] = median(r.values[key])
    return [(k, v, END_TO_END[k]) for k, v in values.items()], record


def run_traced(r: WorkloadRun, seconds: float):
    plain, full, single = [], [], []

    def step():
        plain.append(r.invoke(NPROC, traced=False))
        full.append(r.invoke(NPROC, traced=True))
        single.append(r.invoke(1, traced=True))

    r.loop(seconds, step)
    layers = [layer_metrics(c.spans) for c in full if c.spans]
    base = [layer_metrics(c.spans) for c in single if c.spans]

    def med(rows, key):
        return median([m[key] for m in rows])

    values = {k: med(layers, k) for k in layers[0]} if layers else {}

    def speedup(key):
        fast = med(layers, key) if layers else 0.0
        return med(base, key) / fast if base and fast > 0 else 0.0

    values["volterra.march_thread_speedup"] = speedup("volterra.march_s")
    values["simulate.grad_thread_speedup"] = speedup("simulate.grad_s")
    values["trace_overhead_s"] = (median([c.wall for c in full])
                                  - median([c.wall for c in plain]))
    record = {
        "samples": {"traced": len(layers), "single_thread": len(base),
                    "untraced": len(plain)},
        "unattributed_share": (values.get("unattributed_s", 0.0)
                               / values["traced_wall_s"]
                               if values.get("traced_wall_s") else None),
        "single_thread_layers": {k: med(base, k) for k in base[0]} if base else {},
    }
    return [(k, values.get(k, 0.0), u) for k, u in PER_LAYER.items()], record


def run_workload(name, seed, seconds, trace, smoke=False) -> dict:
    tag = f"{'smoke-' if smoke else ''}{name}-s{seed}-t{trace}"
    r = WorkloadRun(name, seed, smoke, tag)
    metrics, record = (run_traced if trace else run_untraced)(r, seconds)
    result = r.result(metrics, record)
    record["provenance"] = provenance(seed, r.w)
    record["trace"] = trace
    record["seconds"] = seconds
    record["result"] = result
    shutil.rmtree(r.dir, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return result


def smoke(seed: int, seconds: float) -> int:
    """Run every workload tiny in both modes; check names, units, outputs."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(name, seed, seconds, trace, smoke=True)
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics {got} != {want[trace]}")
            if not res["correct"]:
                problems.append(f"{name} trace={trace}: output check failed")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(f"smoke: {'FAILED' if problems else 'ok'}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every workload, both modes; assert the "
                         "metrics match BENCHMARK.json")
    args = ap.parse_args(argv)
    if not (SRC / "spinband" / "cli.py").is_file():
        print(f"error: the spinband sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed, args.seconds or 1.0)
    if args.workload is None:
        ap.error("--workload is required (or --smoke)")
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload != "all":
        run_workload(args.workload, args.seed, seconds, args.trace)
        return 0
    results = {name: run_workload(name, args.seed, seconds, args.trace)
               for name in WORKLOADS}
    path = WORK / f"bench-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(results, indent=2))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "results": str(path.relative_to(ROOT))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
