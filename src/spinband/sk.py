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

solve_two_time holds C (written over M in the kernel's buffer), Lambda and
L_G, and no R: SkSolution.R_rows builds R's rows from the two vectors one
row block at a time, and SkSolution.R builds the full (n+1)^2 array on
access, so a caller that walks R by block holds one square array.

The march (march_covariance) is a trapezoid predictor-corrector whose
memory term is a convolution in the first time argument.  The rows that
are final before a step are summed against the kernel once per step, not
once per right-hand side, and the march makes no BLAS call, so its bits do
not depend on the BLAS thread count or on the thread it runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBranch, StepUnstable, ValidationError
from .volterra import TwoTimeGrid, _cumtrapz, _sup_gap, _trapz_dot

__all__ = [
    "SkParams",
    "sk_mixing",
    "damped_mgf",
    "resolvent_root",
    "march_covariance",
    "SkSolution",
    "solve_two_time",
    "superposition_gap",
    "sk_asymptotics",
    "energy_from_mu",
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
            raise ValidationError("beta must be positive")
        if not self.G_star > 1:
            raise ValidationError("needs G_star > 1 for a stable well")
        if not 0 < self.q_star <= 1:
            raise ValidationError("q_star must lie in (0, 1]")
        if abs(self.q_o) > self.q_star:
            raise ValidationError("|q_o| cannot exceed q_star")

    @property
    def E_star(self) -> float:
        return 0.5 * self.G_star * self.q_star ** 2


# ---------------------------------------------------------------------------
# semicircle moment generating function
# ---------------------------------------------------------------------------

_SERIES_CUT = 20.0
_LAG_GRID = TwoTimeGrid(0.005, 2000)  # lag grid of the FDT closed forms
_BLOWUP = 1e12  # largest |M(s, s)| the kernel march may reach


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


def damped_mgf(theta, beta: float, G: float):
    """L_G(theta) = e^{-beta G theta} L(theta), overflow-safe for G >= 1.

    L(theta) is evaluated as 2 I_1(z)/z at z = beta theta: an all-positive
    power series up to z = 20 and the large-argument expansion beyond.  The
    exponent is combined before exponentiating, so only the net rate
    -beta (G - 1) theta enters for the large-argument branch; G = 0 gives L,
    which overflows to inf beyond z ~ 700.  theta (scalar or array) is >= 0.
    """
    th = np.asarray(theta, dtype=float)
    z = beta * th
    if np.any(z < 0):
        raise ValidationError("theta must be nonnegative")
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
    Raises ValidationError for G < 1.
    """
    if G < 1.0:
        raise ValidationError(f"needs G >= 1, got {G}")
    return 1.0 / (G + math.sqrt(G * G - 1.0))


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
                     grid: TwoTimeGrid):
    """Predictor-corrector march of the linear M system; returns M.

    ``m0`` is M(0,0) and ``qo_sq`` the constant source in the diagonal ODE.
    StepUnstable once a diagonal entry is non-finite or above _BLOWUP.
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
        if not math.isfinite(mx) or mx > _BLOWUP:
            raise StepUnstable(f"kernel march blew up at step {i + 1}: {mx:g}")
    return M


@dataclass
class SkSolution:
    """The closed-form two-body solution on a grid.  R is not stored, since
    R(s, t) = L_G(s - t) Lambda(t) / Lambda(s) restates ``lg`` and ``lam``:
    ``R_rows`` builds the rows of a slice, ``R`` the full array per access."""

    grid: TwoTimeGrid
    params: SkParams
    q: np.ndarray
    C: np.ndarray
    mu: np.ndarray
    H: np.ndarray
    lam: np.ndarray  # Lambda(s) = sqrt(q_o^2 + M(s))
    lg: np.ndarray   # L_G(t_i), the damped kernel on the grid

    def R_rows(self, r: slice) -> np.ndarray:
        """Rows r of R, zero above the diagonal, each row built by the
        expression solve_two_time uses for mu, so every entry keeps its bits."""
        rows = range(*r.indices(self.grid.n + 1))
        out = np.zeros((len(rows), self.grid.n + 1))
        for k, i in enumerate(rows):
            out[k, : i + 1] = _response_row(self.lg, self.lam, i)
        return out

    @property
    def R(self) -> np.ndarray:
        return self.R_rows(slice(None))


def _response_row(lg: np.ndarray, lam: np.ndarray, r: int) -> np.ndarray:
    """R(t_r, t_j) for j = 0..r."""
    return lg[r::-1] * (lam[: r + 1] / lam[r])


def solve_two_time(params: SkParams, grid: TwoTimeGrid) -> SkSolution:
    """March M and assemble q, C, mu, H by the closed formulas.

    C is written over M row by row, since row r of M is read only at step
    r, so the solve holds one (n+1)^2 array.  R is not stored: each row is
    built once here for mu, and again per row block by SkSolution.R_rows
    (the ``R`` property builds the full array on access).
    """
    beta, G, qs = params.beta, params.G_star, params.q_star
    qs2 = qs * qs
    qo2 = params.q_o ** 2
    n = grid.n
    C = march_covariance(beta, G, qs2 - qo2, qo2, grid)
    lam = np.sqrt(qo2 + C.diagonal())
    q = qs * params.q_o / lam
    lg = damped_mgf(grid.times(), beta, G)
    h = grid.h
    cbar = np.empty(n + 1)  # row r of Cbar = M/(Lambda Lambda^T)
    mu = np.empty(n + 1)
    for r in range(n + 1):
        np.divide(C[r], lam[r] * lam, out=cbar)
        np.add(cbar, q[r] * q / qs2, out=C[r])
        mu[r] = 0.5 + 0.5 * beta * beta * _trapz_dot(
            h, _response_row(lg, lam, r) * cbar[: r + 1]) \
            + beta * G * qo2 / (lam[r] * lam[r])
    H = energy_from_mu(mu, beta)
    for arr in (q, C, mu, H, lam, lg):
        arr.setflags(write=False)
    return SkSolution(grid=grid, params=params, q=q, C=C, mu=mu, H=H,
                      lam=lam, lg=lg)


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
    m = grid.n + 1
    # at most three (n+1)^2 marches are live, and the gaps are taken by
    # row block: ref is dropped before full and src are marched
    hom = march_covariance(beta, G, 1.0, 0.0, grid)
    ref = march_covariance(beta, 1.0, 1.0, 0.0, grid)
    rate = -beta * (G - 1.0)
    gauge = _sup_gap(hom, lambda r: np.exp(rate * (t[r, None] + t)) * ref[r], m)
    del ref
    full = march_covariance(beta, G, qs * qs - qo2, qo2, grid)
    src = march_covariance(beta, G, 0.0, 1.0, grid)

    def superposed(r):
        d = (qs * qs - qo2) * hom[r]
        d += qo2 * src[r]
        return d

    lin = _sup_gap(full, superposed, m)
    return {"linear_gap": float(lin), "gauge_gap": float(gauge)}


# ---------------------------------------------------------------------------
# stationary regime and long-time limits
# ---------------------------------------------------------------------------

def sk_asymptotics(params: SkParams):
    """(alpha_sq, C_fdt array on the lag grid _LAG_GRID, mu_inf, H_inf).

    alpha^2 = 1 - y/beta, C_fdt(tau) = 1 - (1/2) int_0^tau L_G(u) du,
    mu -> beta G, H -> G/2 - 1/(4 beta).  Raises NoBranch if beta <= y.
    """
    y = resolvent_root(params.G_star)
    if params.beta <= y:
        raise NoBranch(f"beta = {params.beta:g} <= y = {y:g}")
    alpha_sq = 1.0 - y / params.beta
    lg = damped_mgf(_LAG_GRID.times(), params.beta, params.G_star)
    c_fdt = 1.0 - 0.5 * _cumtrapz(lg, _LAG_GRID.h)
    mu_inf = params.beta * params.G_star
    h_inf = 0.5 * params.G_star - 0.25 / params.beta
    return alpha_sq, c_fdt, mu_inf, h_inf


def energy_from_mu(mu, beta: float):
    """H = mu/(2 beta) - 1/(4 beta); works elementwise on arrays."""
    return mu / (2.0 * beta) - 0.25 / beta
