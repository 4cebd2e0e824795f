"""Fluctuation-dissipation analysis of the long-time dynamics.

In the time-translation-invariant regime the correlation approaches a
function D(tau) of the time lag with response R = -2 dD/dtau, and D solves
the convolution equation

    D'(s) = - int_0^s phi(D(v)) D'(s - v) dv - 1/2,     D(0) = 1,

with phi(x) = gamma + 2 beta^2 nu'(x).  The plateau D_inf, the constant
gamma, the critical temperature, and the integrated-response constants
kappa_1..kappa_3 feed the fixed-point analysis of where the special-direction
overlap q(s) can converge, and the localized (no-aging) branch that exists
for steep enough conditioned gradients G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BelowCritical, NoBranch, NotBracketed, NotConverged, Unstable, ValidationError
from .model import MixingFunction, ModelParams, vstar_build
from .volterra import TwoTimeGrid, _trapz_dot

__all__ = [
    "FdtSolution",
    "solve_D",
    "solve_fdt",
    "d_infty",
    "beta_c",
    "d_star",
    "AgingConstants",
    "aging_constants",
    "KappaValues",
    "kappa_values",
    "alpha_fixed_points",
    "no_aging_selfconsistent",
    "NoAgingReport",
    "localized_no_aging",
]

_N_SCAN = 10001  # sign-change scan points of the level-set and root searches
_XTOL = 1e-10  # bisection width that ends the level-set search
_TAIL_TOL = 1e-6  # kappa_values: how close D(T) must be to the plateau


# ---------------------------------------------------------------------------
# convolution Volterra march
# ---------------------------------------------------------------------------

def solve_D(gamma: float, beta: float, nu: MixingFunction, grid: TwoTimeGrid):
    """March D and D' on the lag grid; returns (D, Dprime).

    Predictor/corrector with trapezoid memory: each step solves the mildly
    implicit endpoint terms (the v=0 and v=s trapezoid ends involve the new
    D', D) by fixed-point iteration, which contracts at rate ~ h phi(1)/2.
    Raises NotConverged when a step's iteration does not settle.
    """
    h, n = grid.h, grid.n
    b2 = beta * beta

    def phi(x):
        return gamma + 2.0 * b2 * nu.nu(x, 1)

    D = np.empty(n + 1)
    Dp = np.empty(n + 1)
    D[0] = 1.0
    Dp[0] = -0.5
    phis = np.empty(n + 1)
    phis[0] = phi(1.0)
    for i in range(1, n + 1):
        # fixed part of the convolution: interior nodes v = 1..i-1
        if i >= 2:
            s_mid = float(phis[1:i] @ Dp[i - 1:0:-1])
        else:
            s_mid = 0.0
        d_cur = D[i - 1] + h * Dp[i - 1]
        e_cur = Dp[i - 1]
        for _ in range(40):
            conv = h * s_mid + 0.5 * h * (phis[0] * e_cur + phi(d_cur) * Dp[0])
            e_new = -conv - 0.5
            d_new = D[i - 1] + 0.5 * h * (Dp[i - 1] + e_new)
            if abs(e_new - e_cur) <= 1e-15 * max(1.0, abs(e_new)):
                e_cur, d_cur = e_new, d_new
                break
            e_cur, d_cur = e_new, d_new
        else:  # also reached when the iterate is inf/NaN
            raise NotConverged(f"lag step {i}: no fixed point in 40 iterations")
        D[i] = d_cur
        Dp[i] = e_cur
        phis[i] = phi(d_cur)
    return D, Dp


@dataclass
class FdtSolution:
    """Lag-domain solution plus its derived constants.

    ``D_inf`` is None when the plateau set is empty (gamma < 1/2 and the
    landscape never compensates); then I and the closed-form kappas are
    None as well.
    """

    grid: TwoTimeGrid
    gamma: float
    beta: float
    D: np.ndarray
    Dprime: np.ndarray
    R_fdt: np.ndarray
    mu: float
    D_inf: float | None
    I: float | None
    kappa1: float | None
    kappa2: float | None
    kappa3: float | None


def solve_fdt(gamma: float, beta: float, nu: MixingFunction,
              grid: TwoTimeGrid) -> FdtSolution:
    """solve_D plus the plateau/constants bookkeeping in one call."""
    D, Dp = solve_D(gamma, beta, nu, grid)
    dinf = d_infty(gamma, beta, nu)
    mu = gamma + 2.0 * beta * beta * nu.nu(1.0, 1)
    if dinf is None:
        i_const = k1 = k2 = k3 = None
    else:
        i_const = gamma - 0.5 + 2.0 * beta * beta * dinf * nu.nu(dinf, 1)
        k1, k2, k3 = _plateau_kappas(dinf, nu)
    sol = FdtSolution(grid=grid, gamma=gamma, beta=beta, D=D, Dprime=Dp,
                      R_fdt=-2.0 * Dp, mu=mu, D_inf=dinf, I=i_const,
                      kappa1=k1, kappa2=k2, kappa3=k3)
    for arr in (sol.D, sol.Dprime, sol.R_fdt):
        arr.setflags(write=False)
    return sol


def _plateau_kappas(d, nu: MixingFunction):
    """Closed-form (kappa1, kappa2, kappa3) on the plateau d (scalar or array):
    2 (nu'(1) - nu'(d)), 2 (1 - d) and 0."""
    return (2.0 * (nu.nu(1.0, 1) - nu.nu(d, 1)), 2.0 * (1.0 - d), 0.0)


# ---------------------------------------------------------------------------
# plateau / critical-temperature scans
# ---------------------------------------------------------------------------

def _sup_level_set(f):
    """sup{x in [0,1] : f(x) >= 0} by dense scan + boundary bisection.

    Returns None when no scanned point satisfies f >= 0.  f must be
    vectorized over numpy arrays.
    """
    xs = np.linspace(0.0, 1.0, _N_SCAN)
    vals = f(xs)
    inside = np.flatnonzero(vals >= 0.0)
    if inside.size == 0:
        return None
    k = inside[-1]
    if k == _N_SCAN - 1:
        return 1.0
    lo, hi = xs[k], xs[k + 1]
    for _ in range(200):
        if hi - lo <= _XTOL:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return float(lo)


def d_infty(gamma: float, beta: float, nu: MixingFunction) -> float | None:
    """Plateau sup{x in [0,1] : (gamma + 2 beta^2 nu'(x)) (1 - x) >= 1/2}.

    None when the set is empty (only possible for gamma < 1/2).
    """
    b2 = beta * beta

    # expanded form: avoids (1/2 + small)(1 - small) - 1/2 cancellation,
    # which otherwise loses the sign of the excess for x near 0
    def f(x):
        return (gamma - 0.5) + 2.0 * b2 * nu.nu(x, 1) * (1.0 - x) - gamma * x

    return _sup_level_set(f)


def d_star(beta: float, nu: MixingFunction) -> float | None:
    """sup{x in [0,1] : 4 beta^2 nu''(x) (1-x)^2 >= 1}; None if empty."""
    b2 = beta * beta

    def f(x):
        return 4.0 * b2 * nu.g(x) - 1.0

    return _sup_level_set(f)


def beta_c(nu: MixingFunction) -> float:
    """Critical inverse temperature: sup{beta : the gamma = 1/2 plateau is 0}.

    (1/2 + 2 beta^2 nu'(x))(1 - x) >= 1/2 at some x in (0, 1) iff beta^2 >=
    x / (4 nu'(x) (1 - x)) there, so beta_c^2 is the smaller of that ratio's
    x -> 0 limit 1/(4 nu''(0)) and its minimum over four 4001-point scans,
    each zoomed around the last argmin.  NotBracketed for the zero mixture.
    """
    if nu.is_zero():
        raise NotBracketed("zero mixture has no finite critical temperature")
    d2 = nu.nu(0.0, 2)
    best = 1.0 / (4.0 * d2) if d2 > 0.0 else math.inf
    lo, hi = 0.0, 1.0
    for _ in range(4):
        xs = np.linspace(lo, hi, 4001)[1:]  # x = 0 is the limit above
        with np.errstate(divide="ignore", over="ignore"):  # +inf at x = 1
            vals = xs / (4.0 * nu.nu(xs, 1) * (1.0 - xs))
        j = int(np.argmin(vals))
        best = min(best, float(vals[j]))
        span = (hi - lo) / 4000.0
        lo, hi = max(0.0, xs[j] - 2 * span), min(1.0, xs[j] + 2 * span)
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# aging constants and integrated-response bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class AgingConstants:
    gamma: float
    d_inf: float
    i_const: float
    boundary_residual: float
    gamma_above_half: bool  # the aging regime's expected sign; reported, not enforced


def aging_constants(beta: float, nu: MixingFunction) -> AgingConstants:
    """Aging-branch constants above beta_c.

    D_inf = sup{x : 4 beta^2 nu''(x)(1-x)^2 >= 1},
    gamma = 2 beta^2 [nu''(D_inf)(1 - D_inf) - nu'(D_inf)],
    I     = gamma - 1/2 + 2 beta^2 D_inf nu'(D_inf).

    ``boundary_residual`` is (gamma + 2 b^2 nu'(D_inf))(1 - D_inf) - 1/2,
    which vanishes identically when D_inf sits on the 4 b^2 g = 1 boundary.
    Raises BelowCritical for beta <= beta_c.
    """
    bc = beta_c(nu)
    if beta <= bc:
        raise BelowCritical(f"beta = {beta} <= beta_c = {bc}")
    dinf = d_star(beta, nu)
    if dinf is None:
        raise BelowCritical(f"no positive plateau at beta = {beta}")
    b2 = beta * beta
    gamma = 2.0 * b2 * (nu.nu(dinf, 2) * (1.0 - dinf) - nu.nu(dinf, 1))
    i_const = gamma - 0.5 + 2.0 * b2 * dinf * nu.nu(dinf, 1)
    resid = (gamma + 2.0 * b2 * nu.nu(dinf, 1)) * (1.0 - dinf) - 0.5
    if dinf < 1.0 - 1e-9 and abs(resid) > 1e-8:
        raise NotConverged(f"plateau boundary identity off by {resid:g}")
    return AgingConstants(gamma, dinf, i_const, resid, gamma > 0.5)


@dataclass
class KappaValues:
    quad: tuple
    closed: tuple

    def max_gap(self) -> float:
        return max(abs(a - b) for a, b in zip(self.quad, self.closed))


def kappa_values(sol: FdtSolution, nu: MixingFunction) -> KappaValues:
    """Integrated response constants, by grid quadrature and in closed form.

    kappa1 = int R nu''(D), kappa2 = int R, kappa3 = 0 in the lag regime;
    closed forms 2(nu'(1) - nu'(D_inf)) and 2(1 - D_inf).  Raises
    NotConverged unless |D(T) - D_inf| <= 1e-6; the quadrature is only
    meaningful once the lag window has reached the plateau.
    """
    if sol.D_inf is None:
        raise NotConverged("no plateau value to converge to")
    if abs(sol.D[-1] - sol.D_inf) > _TAIL_TOL:
        raise NotConverged(
            f"|D(T) - D_inf| = {abs(sol.D[-1] - sol.D_inf):g} > {_TAIL_TOL:g}")
    h = sol.grid.h
    k1 = _trapz_dot(h, sol.R_fdt * nu.nu(sol.D, 2))
    k2 = _trapz_dot(h, sol.R_fdt)
    return KappaValues(quad=(k1, k2, 0.0),
                       closed=(sol.kappa1, sol.kappa2, sol.kappa3))


# ---------------------------------------------------------------------------
# fixed points of the overlap limit
# ---------------------------------------------------------------------------

def alpha_fixed_points(params: ModelParams, nu: MixingFunction, mu, kappas) -> list:
    """Roots alpha in [-1, 1] of the stationarity identity for q(s) -> alpha q_star.

    The identity (with D = nu'(q_star^2)):

      mu alpha q* = beta q*^2 v'(alpha q*)
                    - beta^2 q*^2 nu''(alpha q*) nu'(alpha q*) kappa2 / D
                    + beta^2 alpha q* kappa1.

    ``mu`` and ``kappas`` may be numbers (a fixed working point) or callables
    of alpha (self-consistent substitution, see no_aging_selfconsistent);
    callables must accept a numpy array of alphas as well as a scalar.
    Found by a sign-change scan on 10001 points, evaluated as one array,
    plus bisection of each bracket down to adjacent floats; exact grid
    zeros are kept as roots.  Raises ValidationError when the identity is
    degenerate (numerically zero over the whole scan) or when mu <= 0.
    """
    beta = params.beta
    qs = params.q_star
    qs2 = qs * qs
    b2 = beta * beta
    v = vstar_build(nu, qs, params.E_star, params.G_star)
    denom = nu.nu(qs2, 1)
    if denom <= 0:
        raise ValidationError("needs nu'(q_star^2) > 0")

    mu_fn = mu if callable(mu) else (lambda a: mu)
    kap_fn = kappas if callable(kappas) else (lambda a: kappas)
    if not mu_fn(0.0) > 0.0:
        raise ValidationError("mu must be positive")

    def resid(a):
        k1, k2, _ = kap_fn(a)
        x = a * qs
        return (mu_fn(a) * x
                - (beta * qs2 * v.derivative(x)
                   - b2 * qs2 * nu.nu(x, 2) * nu.nu(x, 1) * k2 / denom
                   + b2 * x * k1))

    xs = np.linspace(-1.0, 1.0, _N_SCAN)
    vals = resid(xs)
    scale = float(abs(vals).max())
    ref = max(1.0, abs(mu_fn(0.0)) * qs)
    if scale <= 1e-12 * ref:
        raise ValidationError("identity degenerate: residual vanishes on [-1, 1]")

    roots = [float(xs[j]) for j in np.flatnonzero(vals == 0.0)]
    sgn = np.sign(vals)
    for j in np.flatnonzero((sgn[:-1] * sgn[1:]) < 0.0):
        lo, hi = float(xs[j]), float(xs[j + 1])
        flo = vals[j]
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            fm = resid(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(mid)
    roots.sort()
    out = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-8:
            out.append(r)
    return out


def _no_aging_gamma(alpha, beta: float, q_star: float, v, nu: MixingFunction,
                    denom: float):
    """gamma(alpha) from the stationary energy identity (scalar or array)."""
    b2 = beta * beta
    a2 = alpha * alpha
    x = alpha * q_star
    return (0.5 + beta * x * v.derivative(x)
            - 2.0 * b2 * nu.psi(x) * nu.nu(x, 1) * (1.0 - a2) / denom
            - 2.0 * b2 * a2 * nu.nu(a2, 1))


def no_aging_selfconsistent(params: ModelParams, nu: MixingFunction):
    """(mu_fn, kappas_fn) closing the localized candidate at each alpha.

    Along the no-aging candidate the plateau is alpha^2, the kappas take
    their closed forms there, and gamma(alpha) follows from the stationary
    energy identity; mu = phi(1) = gamma + 2 beta^2 nu'(1).  Feeding these
    into alpha_fixed_points turns the identity into a genuine root problem
    whose nonzero solutions are the localized overlaps.
    """
    beta = params.beta
    qs = params.q_star
    b2 = beta * beta
    v = vstar_build(nu, qs, params.E_star, params.G_star)
    denom = nu.nu(qs * qs, 1)
    nup1 = nu.nu(1.0, 1)

    def mu_fn(a):
        return _no_aging_gamma(a, beta, qs, v, nu, denom) + 2.0 * b2 * nup1

    def kappas_fn(a):
        return _plateau_kappas(a * a, nu)

    return mu_fn, kappas_fn


# ---------------------------------------------------------------------------
# localized (no-aging) branch
# ---------------------------------------------------------------------------

@dataclass
class NoAgingReport:
    case: str            # "pure" | "mixed"
    y: float
    alpha: float
    alpha_sq: float      # also the plateau of the lag correlation
    gamma: float
    h_inf: float
    residuals: tuple     # stationarity / plateau identity residuals
    beta_plus: float | None = None       # pure case: branch threshold in beta
    tap_ok: bool | None = None           # mixed case: stability inequality
    g_alpha_residual: float | None = None  # mixed case: G identity residual

    @property
    def residual_max(self) -> float:
        return max(abs(r) for r in self.residuals)


def localized_no_aging(params: ModelParams, nu: MixingFunction) -> NoAgingReport:
    """Analyze the localized branch where q(s) -> alpha q_star without aging.

    Requires a steep conditioned gradient: G_star > 2 sqrt(nu''(q_star^2))
    (raises Unstable at or below the threshold, where the conditioned point
    stops being a stable well).

    alpha is the largest root of alpha_fixed_points with the self-consistent
    substitution of no_aging_selfconsistent, for every mixture; raises
    NoBranch when that root is not positive.

    Diagnostics, not used to find alpha: y, the smaller root of
    G_star = sqrt(nu''(q_star^2)) (y + 1/y).  Pure mixture: beta_plus =
    y / (2 sqrt(g(1 - 2/m))), the threshold above which the branch exists;
    there alpha^2 is the plateau d_star(beta / y).  Mixed mixture with
    q_star < 1: the residual of the G identity
    G = 2 beta nu''(q*^2)(1 - q*^2) + 1 / (2 beta (1 - q*^2)), on which
    alpha = q_star, and the stability inequality
    1/beta > 2 sqrt(nu''(q*^2)) (1 - q*^2).

    Always reported: gamma (from the energy identity), the stationarity and
    plateau identity residuals at (alpha, gamma), and the stationary limit
    of the energy's memory integral,
    H_inf = v(alpha q*) + 2 beta [nu(1) - nu(alpha^2)
                                  - (1 - alpha^2) nu'(alpha q*)^2 / nu'(q*^2)],
    which is v(alpha q*) + 2 beta theta(alpha^2) only where
    nu'(alpha^2) nu'(q*^2) = nu'(alpha q*)^2 (pure mixtures, alpha = q*).
    """
    beta = params.beta
    qs = params.q_star
    qs2 = qs * qs
    G = params.G_star
    b2 = beta * beta
    nu2_qs2 = nu.nu(qs2, 2)
    if nu2_qs2 <= 0:
        raise Unstable("needs nu''(q_star^2) > 0")
    thr = 2.0 * math.sqrt(nu2_qs2)
    if G <= thr:
        raise Unstable(f"G_star = {G:g} <= 2 sqrt(nu''(q*^2)) = {thr:g}")
    alpha = max(alpha_fixed_points(params, nu, *no_aging_selfconsistent(params, nu)),
                default=0.0)
    if alpha <= 0.0:
        raise NoBranch(f"largest self-consistent root is {alpha:g}")
    ghat = G / math.sqrt(nu2_qs2)
    y = 0.5 * (ghat - math.sqrt(ghat * ghat - 4.0))

    beta_plus = None
    tap_ok = None
    g_alpha_residual = None
    if nu.is_pure():
        case = "pure"
        beta_plus = y / (2.0 * math.sqrt(nu.g(1.0 - 2.0 / nu.pure_order())))
    else:
        case = "mixed"
        if qs2 < 1.0:
            g_alpha_residual = G - (2.0 * beta * nu2_qs2 * (1.0 - qs2)
                                    + 1.0 / (2.0 * beta * (1.0 - qs2)))
            tap_ok = 1.0 / beta > thr * (1.0 - qs2)

    a2 = alpha * alpha
    v = vstar_build(nu, qs, params.E_star, params.G_star)
    denom = nu.nu(qs2, 1)
    x = alpha * qs
    gamma = _no_aging_gamma(alpha, beta, qs, v, nu, denom)
    r1 = gamma * alpha - (beta * qs * v.derivative(x)
                          - 2.0 * b2 * qs * nu.nu(x, 2) * nu.nu(x, 1) * (1.0 - a2) / denom
                          - 2.0 * b2 * alpha * nu.nu(a2, 1))
    w = nu.nu(x, 1) ** 2 / denom  # nu'(alpha q*)^2 / nu'(q*^2)
    r3_left = (gamma + 2.0 * b2 * w) * (1.0 - a2) - 0.5
    h_inf = v.value(x) + 2.0 * beta * (nu.nu(1.0) - nu.nu(a2) - (1.0 - a2) * w)
    return NoAgingReport(case=case, y=y, alpha=alpha, alpha_sq=a2,
                         gamma=gamma, h_inf=h_inf,
                         residuals=(r1, r3_left),
                         beta_plus=beta_plus, tap_ok=tap_ok,
                         g_alpha_residual=g_alpha_residual)
