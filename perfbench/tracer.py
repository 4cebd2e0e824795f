"""Traced run of the spinband CLI, and the layer metrics read from its spans.

Run as a script, it imports the spinband modules, replaces the public
functions listed in LAYERS with timing wrappers in each module's namespace,
and calls `spinband.cli.main` in-process:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json <spinband args...>

The CLI imports its compute functions from the module namespaces at call
time, so the wrapped versions are the ones that run and spans nest as the
program calls them (a gradient span inside `simulate.run_langevin`, a CSV
write inside `cli.save_bundle`).  Nothing under `src/` is edited.  Spans
stay in memory and are written to SPANS.json when the run ends; the exit
code is the CLI's.  Thread counts must be set in the environment, because
numpy is loaded before the CLI's own `--threads` handling runs.

Importing this module has no side effects: run.py imports it for
`layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

LAYERS = {
    "cli": ("parse_config", "save_bundle", "write_matrix_csv",
            "write_series_csv", "load_bundle", "read_matrix_csv",
            "read_series_csv"),
    "volterra": ("solve_hard", "solve_soft", "check_bundle",
                 "response_integral_bound"),
    "sk": ("solve_two_time",),
    "simulate": ("sample_disorder", "condition_disorder", "run_langevin",
                 "hamiltonian_and_grad_batch", "empirical_observables",
                 "error_functional"),
}


def _grad_flops(args, kwargs, result):
    """Flops of one dense contraction chain: sum over k=2..p of 2 N^k R."""
    J, X = args[0], args[1]
    R, N = X.shape
    return sum(2 * N ** k * R for p in J.active_orders() for k in range(2, p + 1))


def _solve_size(args, kwargs, result):
    """Grid rows n and computed bytes of the stored R and C."""
    return [result.grid.n, result.R.nbytes + result.C.nbytes]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _tensor_bytes(args, kwargs, result):
    return sum(a.nbytes for a in result.tensors.values())


# counts recorded at the same boundaries as the spans
COUNTERS = {
    "hamiltonian_and_grad_batch": _grad_flops,
    "solve_hard": _solve_size,
    "solve_soft": _solve_size,
    "solve_two_time": _solve_size,
    "write_matrix_csv": _file_bytes,
    "write_series_csv": _file_bytes,
    "sample_disorder": _tensor_bytes,
}


class Recorder:
    """In-memory span store: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result
        return traced

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "count": c}
                for n, s, e, p, c in self.spans]


def install(rec: Recorder):
    """Wrap every LAYERS function in its module; return the CLI's main."""
    import importlib
    for layer, names in LAYERS.items():
        mod = importlib.import_module(f"spinband.{layer}")
        for name in names:
            setattr(mod, name, rec.wrap(f"{layer}.{name}", getattr(mod, name),
                                        COUNTERS.get(name)))
    return rec.wrap("main", importlib.import_module("spinband.cli").main)


# --------------------------------------------------------------------------
# analysis (in run.py)
# --------------------------------------------------------------------------

def _dur(s):
    return s["end"] - s["start"]


def _under(spans, s, names):
    """Whether span `s` has an ancestor whose name is in `names`."""
    p = s["parent"]
    while p is not None:
        if spans[p]["name"] in names:
            return True
        p = spans[p]["parent"]
    return False


def _busy(spans, names):
    """Summed time of the named spans, not counting one nested in another."""
    names = set(names)
    return sum(_dur(s) for s in spans
               if s["name"] in names and not _under(spans, s, names))


def _nested_in(spans, child, ancestor):
    """Summed time of `child` spans that have an `ancestor` span above them."""
    return sum(_dur(s) for s in spans
               if s["name"] == child and _under(spans, s, {ancestor}))


def _counts(spans, name):
    return [s["count"] for s in spans if s["name"] == name]


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced run (seconds, bytes in MB, counts).

    A layer's self time is the time of its spans minus the part their child
    spans cover.  `unattributed_s` is the part of the root span (the whole
    `cli.main` call) that no layer span covers.
    """
    children = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _dur(s)
    root = next(i for i, s in enumerate(spans) if s["parent"] is None)
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        if i != root:
            self_s[s["name"].split(".")[0]] += _dur(s) - children[i]

    solves = [c for n in ("volterra.solve_hard", "volterra.solve_soft")
              for c in _counts(spans, n)]
    sk_rows = sum(c[0] for c in _counts(spans, "sk.solve_two_time"))
    march_s = _busy(spans, ["volterra.solve_hard", "volterra.solve_soft"])
    sk_s = _busy(spans, ["sk.solve_two_time"])
    grad = "simulate.hamiltonian_and_grad_batch"
    grad_s = _busy(spans, [grad])
    langevin_s = _busy(spans, ["simulate.run_langevin"])
    c = "cli."
    m = {
        "cli.parse_s": _busy(spans, [c + "parse_config"]),
        "cli.write_s": _busy(spans, [c + "save_bundle", c + "write_matrix_csv",
                                     c + "write_series_csv"]),
        "cli.write_mb": sum(_counts(spans, c + "write_matrix_csv")
                            + _counts(spans, c + "write_series_csv")) / 1e6,
        "cli.read_s": _busy(spans, [c + "load_bundle", c + "read_matrix_csv",
                                    c + "read_series_csv"]),
        "volterra.march_s": march_s,
        "volterra.rows": sum(n for n, _ in solves),
        "volterra.rows_per_s": _ratio(sum(n for n, _ in solves), march_s),
        "volterra.state_mb": max((b for _, b in solves), default=0) / 1e6,
        "volterra.check_s": _busy(spans, ["volterra.check_bundle"]),
        "volterra.bound_s": _busy(spans, ["volterra.response_integral_bound"]),
        "sk.solve_s": sk_s,
        "sk.rows_per_s": _ratio(sk_rows, sk_s),
        "simulate.disorder_s": _busy(spans, ["simulate.sample_disorder",
                                             "simulate.condition_disorder"]),
        "simulate.disorder_mb": sum(_counts(spans, "simulate.sample_disorder")) / 1e6,
        "simulate.langevin_s": langevin_s,
        "simulate.grad_calls": len(_counts(spans, grad)),
        "simulate.grad_s": grad_s,
        "simulate.grad_gflops": _ratio(sum(_counts(spans, grad)), grad_s) / 1e9,
        "simulate.step_overhead_s": langevin_s - _nested_in(
            spans, grad, "simulate.run_langevin"),
        "simulate.observables_s": _busy(spans, ["simulate.empirical_observables"]),
        "simulate.error_s": _busy(spans, ["simulate.error_functional"]),
        "unattributed_s": _dur(spans[root]) - children[root],
        "traced_wall_s": _dur(spans[root]),
    }
    m.update({f"{layer}.self_s": v for layer, v in self_s.items()})
    return m


def main(argv) -> int:
    out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    cli_main = install(rec)
    try:
        rc = cli_main(cli_args)
    finally:
        with open(out, "w") as f:
            json.dump(rec.records(), f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
