"""Closed-form two-body (m = 2) case, used as the analytic oracle.

For the quadratic mixture nu(x) = x^2/8 the two-time system linearizes:
with Lambda(s) = sqrt(q_o^2 + M(s)) one has

    q(s)      = q_star q_o / Lambda(s),
    R(s, t)   = Lambda(t)/Lambda(s) * L_G(s - t),
    C(s, t)   = M(s, t) / (Lambda(s) Lambda(t)) + q(s) q(t) / q_star^2,

where L(theta) = (2/pi) int_{-1}^{1} e^{beta theta x} sqrt(1 - x^2) dx is the
semicircle moment generating function, L_G(theta) = e^{-beta G theta} L(theta)
its damped version, and the symmetric kernel M solves the linear system

    d_s M(s,t) = -beta G M(s,t)
                 + (beta^2/4) [ int_0^s L_G(s-u) M(u,t) du
                              + int_0^t L_G(t-u) M(u,s) du ],      s > t,
    M'(t)      = q_o^2 + (1 - 2 beta G) M(t)
                 + beta^2 int_0^t L_G(t-u) M(t,u) du,    M(t,t) = M(t),

started from M(0) = q_star^2 - q_o^2.  Everything downstream (mu, H, the
localized overlap alpha, the lag correlation) follows in closed form, giving
independent targets for the general solver and the FDT analysis.

The march (march_covariance) is a trapezoid predictor-corrector whose
memory term is a convolution in the first time argument.  The rows that
are final before a step are summed against the kernel once per step, not
once per right-hand side, and the march makes no BLAS call, so its bits do
not depend on the BLAS thread count or on the thread it runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Delocalized, DomainError, StepUnstable
from .volterra import _GAP_ROWS, TwoTimeGrid, _cumtrapz, _trapz_dot

__all__ = [
    "SkParams",
    "sk_mixing",
    "semicircle_mgf",
    "damped_mgf",
    "resolvent_root",
    "mgf_tail_integral",
    "march_covariance",
    "SkSolution",
    "solve_two_time",
    "superposition_gap",
    "stationary_covariance",
    "sk_asymptotics",
    "energy_from_mu",
    "fdt_consistency",
    "FdtMatchReport",
]


def sk_mixing():
    """The quadratic mixture nu(x) = x^2/8 this module solves exactly."""
    from .model import MixingFunction
    return MixingFunction((0.125,))


@dataclass(frozen=True)
class SkParams:
    """Two-body model parameters; the energy is slaved: E = G q_star^2 / 2."""

    beta: float
    G_star: float
    q_star: float = 1.0
    q_o: float = 0.5

    def __post_init__(self):
        if not self.beta > 0:
            raise DomainError("beta must be positive")
        if not self.G_star > 1:
            raise DomainError("needs G_star > 1 for a stable well")
        if not 0 < self.q_star <= 1:
            raise DomainError("q_star must lie in (0, 1]")
        if abs(self.q_o) > self.q_star:
            raise DomainError("|q_o| cannot exceed q_star")

    @property
    def E_star(self) -> float:
        return 0.5 * self.G_star * self.q_star ** 2


# ---------------------------------------------------------------------------
# semicircle moment generating function
# ---------------------------------------------------------------------------

_SERIES_CUT = 20.0
_TAIL_TOL = 1e-12  # mgf_tail_integral truncation: bound on the dropped tail


def _mgf_series(z):
    """sum_k (z^2/4)^k / (k! (k+1)!), all-positive and stable for z <= 20."""
    x = 0.25 * np.square(z)
    acc = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, 48):
        term = term * x / (k * (k + 1.0))
        acc += term
    return acc


def _mgf_asym_factor(z):
    """Series S(z) with 2 I_1(z)/z = e^z sqrt(2/pi) z^{-3/2} S(z), z > 20."""
    s = np.ones_like(z)
    t = np.ones_like(z)
    for k in range(1, 21):
        t = t * (2 * k - 3) * (2 * k + 1) / (8.0 * k * z)
        s += t
    return s


def semicircle_mgf(theta, beta: float = 1.0):
    """L(theta) = (2/pi) int_{-1}^1 e^{beta theta x} sqrt(1-x^2) dx.

    Evaluated as 2 I_1(z)/z at z = beta theta: an all-positive power series
    up to z = 20 and the large-argument expansion beyond.  Accepts scalars or
    arrays; theta must be >= 0.  Grows like e^z, so it overflows to inf for
    beta*theta beyond ~700 -- use damped_mgf for large arguments.
    """
    return damped_mgf(theta, beta, 0.0)


def damped_mgf(theta, beta: float, G: float):
    """L_G(theta) = e^{-beta G theta} L(theta), overflow-safe for G >= 1.

    The exponent is combined before exponentiating, so only the net rate
    -beta (G - 1) theta enters for the large-argument branch.
    """
    th = np.asarray(theta, dtype=float)
    z = beta * th
    if np.any(z < 0):
        raise DomainError("theta must be nonnegative")
    small = z <= _SERIES_CUT
    out = np.where(small,
                   _mgf_series(np.where(small, z, 0.0))
                   * np.exp(-beta * G * np.where(small, th, 0.0)),
                   0.0)
    if not np.all(small):
        zb = np.where(small, _SERIES_CUT + 1.0, z)
        big = (np.exp(zb * (1.0 - G)) * math.sqrt(2.0 / math.pi)
               * zb ** -1.5 * _mgf_asym_factor(zb))
        out = np.where(small, out, big)
    return float(out) if np.isscalar(theta) or th.ndim == 0 else out


def resolvent_root(G: float) -> float:
    """Smaller root y of 1 - 2 G y + y^2 = 0, i.e. y = G - sqrt(G^2 - 1).

    Computed as 1/(G + sqrt(G^2-1)) to stay accurate for large G.
    Raises DomainError for G < 1.
    """
    if G < 1.0:
        raise DomainError(f"needs G >= 1, got {G}")
    return 1.0 / (G + math.sqrt(G * G - 1.0))


def mgf_tail_integral(tau, beta: float, G: float):
    """int_tau^infty L_G(u) du for each tau (scalar or ascending array).

    Gauss-Legendre panels of width <= 2 up to the cutoff U where the
    exponential tail bound e^{-beta(G-1)U}/(beta(G-1)) drops below 1e-12
    (valid since L(u) <= e^{beta u}).  Requires G > 1.
    """
    if G <= 1.0:
        raise DomainError("tail integral needs G > 1")
    rate = beta * (G - 1.0)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(np.diff(taus) < 0):
        order = np.argsort(taus, kind="stable")
    else:
        order = None
    ts = taus[order] if order is not None else taus
    U = max(float(ts[-1]) + 1.0, math.log(1.0 / (_TAIL_TOL * rate)) / rate)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    # segment boundaries: the taus themselves plus a uniform fill up to U
    bounds = np.unique(np.concatenate([ts, np.linspace(float(ts[0]), U,
                                                       int((U - ts[0]) / 2.0) + 2)]))
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    pts = mids[:, None] + half[:, None] * nodes[None, :]
    seg = (half * (damped_mgf(pts, beta, G) @ weights))
    suffix = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    vals = np.interp(ts, bounds, suffix)  # exact at the tau entries of bounds
    if order is not None:
        inv = np.empty_like(order)
        inv[order] = np.arange(order.size)
        vals = vals[inv]
    return float(vals[0]) if np.isscalar(tau) or np.asarray(tau).ndim == 0 else vals


# ---------------------------------------------------------------------------
# two-time march of the symmetric kernel M
# ---------------------------------------------------------------------------

def _prefix_conv(kernel: np.ndarray, col: np.ndarray) -> np.ndarray:
    """First len entries of the full linear convolution kernel * col."""
    m = kernel.size
    if m <= 512:
        return np.convolve(kernel, col)[:m]
    size = 1 << (2 * m - 1).bit_length()
    fk = np.fft.rfft(kernel, size)
    fc = np.fft.rfft(col, size)
    return np.fft.irfft(fk * fc, size)[:m]


def march_covariance(beta: float, G: float, m0: float, qo_sq: float,
                     grid: TwoTimeGrid, blowup: float = 1e12):
    """Predictor-corrector march of the linear M system; returns M.

    ``m0`` is M(0,0) and ``qo_sq`` the constant source in the diagonal ODE.
    The equations are linear in (m0, qo_sq), and the discrete scheme
    preserves that linearity exactly, which the superposition audit uses.

    Row r's memory sum sum_{j<=r} L_G(r-j) M[j, :r+1] is needed twice, on
    the predicted and on the corrected row r.  Rows j < r are final by
    then, so their share is summed once per step and only the row-r terms
    are added per call; the sums are taken in the same order either way.
    """
    h, n = grid.h, grid.n
    b2 = beta * beta
    lg = damped_mgf(grid.times(), beta, G)
    M = np.zeros((n + 1, n + 1))
    M[0, 0] = m0

    def rhs(r, old):
        # old = sum_{j<r} lg[r-j] M[j, :r], and the j = r term has lg[0] = 1;
        # on the strided column einsum sums j in order, as the row sums do
        t1 = np.empty(r + 1)
        np.add(old, M[r, :r], out=t1[:r])
        t1[r] = np.einsum("j,j->", lg[r::-1], M[: r + 1, r])
        t1 *= h
        t1 -= 0.5 * h * (lg[r] * M[0, : r + 1] + M[r, : r + 1])
        col = M[: r + 1, r]
        t2 = h * (_prefix_conv(lg[: r + 1], col)
                  - 0.5 * (lg[: r + 1] * col[0] + col))
        f_off = -beta * G * M[r, : r + 1] + 0.25 * b2 * (t1 + t2)
        f_diag = qo_sq + (1.0 - 2.0 * beta * G) * M[r, r] + b2 * t1[r]
        return f_off, f_diag

    old = lg[:0]
    for i in range(n):
        f1, f1d = rhs(i, old)
        # rows j <= i are final: their share of row i + 1's sum serves both
        # the predicted row here and the corrected one at the next step.
        # einsum (no optimize) sums over j in order, ten times faster than
        # matmul's unblocked loop for the reversed view, and with no BLAS
        # call it stays thread-independent
        old = np.einsum("j,ji->i", lg[i + 1:0:-1], M[: i + 1, : i + 1])
        M[i + 1, : i + 1] = M[i, : i + 1] + h * f1[: i + 1]
        M[i + 1, i + 1] = M[i, i] + h * f1d
        M[: i + 2, i + 1] = M[i + 1, : i + 2]
        f2, f2d = rhs(i + 1, old)
        M[i + 1, : i + 1] = M[i, : i + 1] + 0.5 * h * (f1[: i + 1] + f2[: i + 1])
        M[i + 1, i + 1] = M[i, i] + 0.5 * h * (f1d + f2d)
        M[: i + 2, i + 1] = M[i + 1, : i + 2]
        mx = abs(M[i + 1, i + 1])
        if not math.isfinite(mx) or mx > blowup:
            raise StepUnstable(f"kernel march blew up at step {i + 1}: {mx:g}")
    return M


@dataclass
class SkSolution:
    grid: TwoTimeGrid
    params: SkParams
    q: np.ndarray
    R: np.ndarray
    C: np.ndarray
    mu: np.ndarray
    H: np.ndarray


def solve_two_time(params: SkParams, grid: TwoTimeGrid) -> SkSolution:
    """March M and assemble q, R, C, mu, H by the closed formulas; C is
    written over M row by row, since row r of M is read only at step r."""
    beta, G, qs = params.beta, params.G_star, params.q_star
    qs2 = qs * qs
    qo2 = params.q_o ** 2
    n = grid.n
    C = march_covariance(beta, G, qs2 - qo2, qo2, grid)
    lam = np.sqrt(qo2 + C.diagonal())
    q = qs * params.q_o / lam
    lg = damped_mgf(grid.times(), beta, G)
    h = grid.h
    R = np.zeros((n + 1, n + 1))
    cbar = np.empty(n + 1)  # row r of Cbar = M/(Lambda Lambda^T)
    mu = np.empty(n + 1)
    for r in range(n + 1):
        R[r, : r + 1] = lg[r::-1] * (lam[: r + 1] / lam[r])
        np.divide(C[r], lam[r] * lam, out=cbar)
        np.add(cbar, q[r] * q / qs2, out=C[r])
        mu[r] = 0.5 + 0.5 * beta * beta * _trapz_dot(h, R[r, : r + 1] * cbar[: r + 1]) \
            + beta * G * qo2 / (lam[r] * lam[r])
    H = energy_from_mu(mu, beta)
    for arr in (q, R, C, mu, H):
        arr.setflags(write=False)
    return SkSolution(grid=grid, params=params, q=q, R=R, C=C, mu=mu, H=H)


def superposition_gap(params: SkParams, grid: TwoTimeGrid) -> dict:
    """Decompose M into its two elementary solutions and measure the gaps.

    ``linear_gap``: sup |M - [(q*^2-q_o^2) M_hom + q_o^2 M_src]| where both
    components run with the same damped kernel (M_hom: M(0)=1 no source,
    M_src: M(0)=0 unit source).  The scheme is linear, so this gap is pure
    rounding noise.

    ``gauge_gap``: sup |M_hom - e^{-beta (G-1)(s+t)} M_1| with M_1 the
    sourceless solution at G = 1, which stays bounded where the undamped
    (G = 0) one grows like e^{2 beta t} past the march's blow-up guard.  The
    continuum identity is exact for any reference G, but the discrete time
    stepping does not commute with the exponential tilt, so this gap is an
    O(h^2) convergence diagnostic, not an identity.
    """
    beta, G, qs = params.beta, params.G_star, params.q_star
    qo2 = params.q_o ** 2
    t = grid.times()
    rows = [slice(b, b + _GAP_ROWS) for b in range(0, grid.n + 1, _GAP_ROWS)]
    # at most three (n+1)^2 marches are live, and the gaps are taken by
    # row block: ref is dropped before full and src are marched
    hom = march_covariance(beta, G, 1.0, 0.0, grid)
    ref = march_covariance(beta, 1.0, 1.0, 0.0, grid)
    rate = -beta * (G - 1.0)
    gauge = np.max([np.abs(hom[r] - np.exp(rate * (t[r, None] + t)) * ref[r])
                    .max() for r in rows])
    del ref
    full = march_covariance(beta, G, qs * qs - qo2, qo2, grid)
    src = march_covariance(beta, G, 0.0, 1.0, grid)
    lin = []
    for r in rows:
        d = (qs * qs - qo2) * hom[r]
        d += qo2 * src[r]
        lin.append(np.abs(np.subtract(full[r], d, out=d), out=d).max())
    lin = np.max(lin)
    return {"linear_gap": float(lin), "gauge_gap": float(gauge)}


# ---------------------------------------------------------------------------
# stationary regime and long-time limits
# ---------------------------------------------------------------------------

def stationary_covariance(tau, params: SkParams):
    """Gamma(tau) = (1/c) int_tau^infty L_G(u) du with c = 2 (1 - y/beta).

    The translation-invariant limit of M(t+tau, t); only exists in the
    localized regime beta > y (raises Delocalized otherwise).
    """
    y = resolvent_root(params.G_star)
    if params.beta <= y:
        raise Delocalized(f"beta = {params.beta:g} <= y = {y:g}")
    c = 2.0 * (1.0 - y / params.beta)
    return mgf_tail_integral(tau, params.beta, params.G_star) / c


def sk_asymptotics(params: SkParams, grid: TwoTimeGrid | None = None):
    """(alpha_sq, C_fdt array on the lag grid, mu_inf, H_inf).

    alpha^2 = 1 - y/beta, C_fdt(tau) = 1 - (1/2) int_0^tau L_G(u) du,
    mu -> beta G, H -> G/2 - 1/(4 beta).  Raises Delocalized if beta <= y.
    """
    y = resolvent_root(params.G_star)
    if params.beta <= y:
        raise Delocalized(f"beta = {params.beta:g} <= y = {y:g}")
    if grid is None:
        grid = TwoTimeGrid(0.005, 2000)
    alpha_sq = 1.0 - y / params.beta
    lg = damped_mgf(grid.times(), params.beta, params.G_star)
    c_fdt = 1.0 - 0.5 * _cumtrapz(lg, grid.h)
    mu_inf = params.beta * params.G_star
    h_inf = 0.5 * params.G_star - 0.25 / params.beta
    return alpha_sq, c_fdt, mu_inf, h_inf


def energy_from_mu(mu, beta: float):
    """H = mu/(2 beta) - 1/(4 beta); works elementwise on arrays."""
    return mu / (2.0 * beta) - 0.25 / beta


@dataclass
class FdtMatchReport:
    gap: float
    gamma: float
    mu_inf: float
    phi_one: float
    grid: TwoTimeGrid = field(repr=False, default=None)


def fdt_consistency(params: SkParams, grid: TwoTimeGrid | None = None) -> FdtMatchReport:
    """Compare the closed-form lag correlation against the generic lag march.

    C_fdt equals D(tau) of the convolution equation with the affine
    phi(x) = beta G + (beta^2/2)(x - 1), i.e. gamma = beta G - beta^2 / 2
    for the quadratic mixture.  Returns the sup gap on the grid plus the
    phi(1) = beta G check (which is also mu_inf).
    """
    from . import fdt as _fdt
    if grid is None:
        grid = TwoTimeGrid(0.005, 2000)
    gamma = params.beta * params.G_star - 0.5 * params.beta ** 2
    D, _ = _fdt.solve_D(gamma, params.beta, sk_mixing(), grid)
    _, c_fdt, mu_inf, _ = sk_asymptotics(params, grid)
    nu = sk_mixing()
    phi_one = gamma + 2.0 * params.beta ** 2 * nu.nu(1.0, 1)
    return FdtMatchReport(gap=float(np.abs(D - c_fdt).max()), gamma=gamma,
                          mu_inf=mu_inf, phi_one=phi_one, grid=grid)
