"""Two-time dynamics of spherical mixed p-spin models near a conditioned
critical point: memory-kernel solvers, lag-domain analysis, the two-body
closed form, and a finite-N conditioned Langevin simulator.

Submodules and the most-used names are importable lazily from the package
root, so that the command-line front end can configure thread environment
variables before numpy is first loaded.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "cli", "errors", "fdt", "model", "simulate", "sk", "volterra",
})

# convenience re-exports: name -> defining submodule
_EXPORTS = {
    "MixingFunction": "model",
    "Confinement": "model",
    "ModelParams": "model",
    "DriftPolynomial": "model",
    "vstar_build": "model",
    "canonical_phi": "model",
    "validate": "model",
    "TwoTimeGrid": "volterra",
    "TwoTimeBundle": "volterra",
    "solve_hard": "volterra",
    "solve_soft": "volterra",
    "check_bundle": "volterra",
    "response_integral_bound": "volterra",
    "soft_hard_gap": "volterra",
    "solve_fdt": "fdt",
    "solve_D": "fdt",
    "d_infty": "fdt",
    "d_star": "fdt",
    "beta_c": "fdt",
    "aging_constants": "fdt",
    "kappa_values": "fdt",
    "localized_no_aging": "fdt",
    "SkParams": "sk",
    "solve_two_time": "sk",
    "semicircle_mgf": "sk",
    "damped_mgf": "sk",
    "resolvent_root": "sk",
    "sk_asymptotics": "sk",
    "Disorder": "simulate",
    "SimConfig": "simulate",
    "sample_disorder": "simulate",
    "condition_disorder": "simulate",
    "run_langevin": "simulate",
    "empirical_observables": "simulate",
    "limit_at_snapshots": "simulate",
    "error_functional": "simulate",
    "conditional_hessian_spectrum": "simulate",
    "SpinbandError": "errors",
}

__all__ = sorted(_SUBMODULES | set(_EXPORTS) | {"__version__"})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
