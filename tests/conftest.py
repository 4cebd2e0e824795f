import math
import warnings

import numpy as np
import pytest

from spinband.model import (Confinement, MixingFunction, ModelParams, validate,
                            vstar_build)
from spinband.simulate import hamiltonian_and_grad_batch
from spinband.sk import damped_mgf, resolvent_root

# A failing @given test makes hypothesis import its patch writer, whose
# libcst import warns; under filterwarnings = error that warning would end
# the session before the falsifying example is printed, so import it here.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def sk_mixing():
    """Two-body mixing r^2 / 8."""
    return MixingFunction((0.125,))


@pytest.fixture(scope="session")
def pure3_mixing():
    """Pure three-body mixing r^3 / 8."""
    return MixingFunction((0.0, 0.125))


@pytest.fixture(scope="session")
def mixed_mixing():
    """A genuinely mixed (2, 3) model."""
    return MixingFunction((0.0625, 0.0625))


@pytest.fixture(scope="session")
def sk_params(sk_mixing):
    """The standard two-body reference point used throughout the suite."""
    return validate(ModelParams(beta=1.0, q_star=1.0, q_o=0.5,
                                E_star=0.625, G_star=1.25,
                                confinement=Confinement.hard()),
                    sk_mixing)


@pytest.fixture(scope="session")
def plateau_identity():
    """(gamma + 2 beta^2 nu'(d)) (1 - d) - 1/2 of aging constants `con`:
    zero when d_inf is on the boundary of the gamma plateau."""
    def residual(con, beta, nu):
        return (con.gamma + 2.0 * beta ** 2 * nu.nu(con.d_inf, 1)) * (1.0 - con.d_inf) - 0.5
    return residual


@pytest.fixture(scope="session")
def no_aging_identities():
    """(stationarity, plateau) identity residuals of a localized report,
    recomputed from its alpha and gamma: mu = gamma + 2 beta^2 nu'(1) and
    the closed-form kappas at the plateau alpha^2 in the stationarity
    identity (divided by q_star), and
    (gamma + 2 beta^2 nu'(alpha q*)^2 / nu'(q*^2)) (1 - alpha^2) - 1/2."""
    def residuals(rep, params, nu):
        beta, qs, a = params.beta, params.q_star, rep.alpha
        b2, a2, x = beta * beta, a * a, a * qs
        v = vstar_build(nu, qs, params.E_star, params.G_star)
        denom = nu.nu(qs * qs, 1)
        mu = rep.gamma + 2.0 * b2 * nu.nu(1.0, 1)
        k1, k2 = 2.0 * (nu.nu(1.0, 1) - nu.nu(a2, 1)), 2.0 * (1.0 - a2)
        stationarity = mu * a - (beta * qs * v.derivative(x)
                                 - b2 * qs * nu.nu(x, 2) * nu.nu(x, 1) * k2 / denom
                                 + b2 * a * k1)
        plateau = (rep.gamma + 2.0 * b2 * nu.nu(x, 1) ** 2 / denom) * (1.0 - a2) - 0.5
        return stationarity, plateau
    return residuals


@pytest.fixture(scope="session")
def hamiltonian_and_grad():
    """(H_J(x), grad H_J(x)) of one state x, as row 0 of the batch kernel."""
    def one(J, x):
        H, g = hamiltonian_and_grad_batch(J, x[None, :])
        return float(H[0]), g[0]
    return one


@pytest.fixture(scope="session")
def integrated_response():
    """chi(s, t) = int_0^{min(s,t)} R(s, u) du on the whole grid, by trapezoid:
    the reference simulate.limit_at_snapshots reads at its snapshot rows."""
    def chi(R, h):
        cum = np.zeros(R.shape)
        cum[:, 1:] = np.cumsum(0.5 * h * (R[:, 1:] + R[:, :-1]), axis=-1)
        rows = np.arange(R.shape[0])[:, None]
        return cum[rows, np.minimum(rows.T, rows)]
    return chi


def _mgf_tail_integral(tau, beta, G):
    """int_tau^infty L_G(u) du for each tau (scalar or array in any order).

    Gauss-Legendre panels of width <= 2 up to the cutoff U where the
    exponential tail bound e^{-beta(G-1)U}/(beta(G-1)) drops below 1e-12
    (valid since L(u) <= e^{beta u}).  Requires G > 1.
    """
    if G <= 1.0:
        raise ValueError("tail integral needs G > 1")
    rate = beta * (G - 1.0)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    order = np.argsort(taus, kind="stable")
    ts = taus[order]
    U = max(float(ts[-1]) + 1.0, math.log(1.0 / (1e-12 * rate)) / rate)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    # segment boundaries: the taus themselves plus a uniform fill up to U
    bounds = np.unique(np.concatenate([ts, np.linspace(float(ts[0]), U,
                                                       int((U - ts[0]) / 2.0) + 2)]))
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    pts = mids[:, None] + half[:, None] * nodes[None, :]
    seg = (half * (damped_mgf(pts, beta, G) @ weights))
    suffix = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    vals = np.empty_like(ts)
    vals[order] = np.interp(ts, bounds, suffix)  # exact at the tau entries of bounds
    return float(vals[0]) if np.isscalar(tau) or np.asarray(tau).ndim == 0 else vals


@pytest.fixture(scope="session")
def mgf_tail_integral():
    """Oracle int_tau^infty L_G(u) du of the damped semicircle kernel."""
    return _mgf_tail_integral


@pytest.fixture(scope="session")
def stationary_covariance():
    """Oracle for the two-body stationary kernel, localized regime only:
    Gamma(tau) = (1/c) int_tau^infty L_G(u) du with c = 2 (1 - y/beta),
    the translation-invariant limit of M(t + tau, t)."""
    def gamma(tau, params):
        c = 2.0 * (1.0 - resolvent_root(params.G_star) / params.beta)
        return _mgf_tail_integral(tau, params.beta, params.G_star) / c
    return gamma
