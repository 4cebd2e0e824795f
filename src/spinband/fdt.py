"""Fluctuation-dissipation analysis of the long-time dynamics.

In the time-translation-invariant regime the correlation approaches a
function D(tau) of the time lag with response R = -2 dD/dtau, and D solves
the convolution equation

    D'(s) = - int_0^s phi(D(v)) D'(s - v) dv - 1/2,     D(0) = 1,

with phi(x) = gamma + 2 beta^2 nu'(x).  The plateau D_inf, the constant
gamma, the critical temperature, and the integrated-response constants
kappa_1, kappa_2 feed the fixed-point analysis of where the special-direction
overlap q(s) can converge, and the localized (no-aging) branch that exists
for steep enough conditioned gradients G.  The plateaus and the overlap
roots come from one sign-change search (_roots), which bisects down to
adjacent floats; beta_c is a minimisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBranch, NotConverged, ValidationError
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
    "kappa_values",
    "alpha_fixed_points",
    "no_aging_selfconsistent",
    "NoAgingReport",
    "localized_no_aging",
]

_N_SCAN = 10001  # scan points of the sign-change search (_roots)
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

    ``R_fdt`` is the response -2 D' (solve_D returns D' itself).
    ``D_inf`` is None when the plateau set is empty (gamma < 1/2 and the
    landscape never compensates); then I and the closed-form kappas are
    None as well.
    """

    grid: TwoTimeGrid
    gamma: float
    beta: float
    D: np.ndarray
    R_fdt: np.ndarray
    mu: float
    D_inf: float | None
    I: float | None
    kappa1: float | None
    kappa2: float | None


def solve_fdt(gamma: float, beta: float, nu: MixingFunction,
              grid: TwoTimeGrid) -> FdtSolution:
    """solve_D plus the plateau/constants bookkeeping in one call."""
    D, Dp = solve_D(gamma, beta, nu, grid)
    dinf = d_infty(gamma, beta, nu)
    mu = gamma + 2.0 * beta * beta * nu.nu(1.0, 1)
    if dinf is None:
        i_const = k1 = k2 = None
    else:
        i_const = gamma - 0.5 + 2.0 * beta * beta * dinf * nu.nu(dinf, 1)
        k1, k2 = _plateau_kappas(dinf, nu)
    sol = FdtSolution(grid=grid, gamma=gamma, beta=beta, D=D, R_fdt=-2.0 * Dp,
                      mu=mu, D_inf=dinf, I=i_const, kappa1=k1, kappa2=k2)
    for arr in (sol.D, sol.R_fdt):
        arr.setflags(write=False)
    return sol


def _plateau_kappas(d, nu: MixingFunction):
    """Closed-form (kappa1, kappa2) on the plateau d (scalar or array):
    2 (nu'(1) - nu'(d)) and 2 (1 - d)."""
    return 2.0 * (nu.nu(1.0, 1) - nu.nu(d, 1)), 2.0 * (1.0 - d)


# ---------------------------------------------------------------------------
# plateau / critical-temperature scans
# ---------------------------------------------------------------------------

def _roots(f, lo: float, hi: float):
    """(sorted roots, scan values) of f on [lo, hi].

    A _N_SCAN-point scan, evaluated as one array, keeps its exact zeros; each
    scan interval whose ends have strictly opposite signs is bisected down
    to adjacent floats (f = 0 counting as positive), and its root is the end
    with the left scan point's sign.  f must accept arrays and scalars.
    """
    xs = np.linspace(lo, hi, _N_SCAN)
    vals = f(xs)
    sgn = np.sign(vals)
    roots = [float(x) for x in xs[vals == 0.0]]
    for j in np.flatnonzero(sgn[:-1] * sgn[1:] < 0.0):
        a, b = float(xs[j]), float(xs[j + 1])
        while a < (mid := 0.5 * (a + b)) < b:
            if (f(mid) < 0.0) == (sgn[j] < 0.0):
                a = mid
            else:
                b = mid
        roots.append(a)
    return sorted(roots), vals


def _sup_level_set(f):
    """sup{x in [0,1] : f(x) >= 0}: the last float x with f(x) >= 0 before
    f turns negative (or an exact scan zero followed by f < 0), 1.0 when
    f(1) >= 0, and None when no scan point has f >= 0."""
    roots, vals = _roots(f, 0.0, 1.0)
    return 1.0 if vals[-1] >= 0.0 else max(roots, default=None)


def _rescaled(nu: MixingFunction):
    """(nu / 4^h, h) with the largest coefficient of nu / 4^h in [1/2, 2).

    Scaling by a power of two is exact, so beta^2 nu(x) equals
    (2^h beta)^2 (nu / 4^h)(x) bit for bit wherever neither side leaves the
    normal range; the rescaled form keeps beta_c^2 and beta^2 nu' finite for
    coefficients down to the subnormals, where beta_c^2 exceeds the float range.
    """
    h = math.frexp(max(nu.coeffs_sq))[1] // 2
    return MixingFunction(tuple(math.ldexp(c, -2 * h) for c in nu.coeffs_sq)), h


def d_infty(gamma: float, beta: float, nu: MixingFunction) -> float | None:
    """Plateau sup{x in [0,1] : (gamma + 2 beta^2 nu'(x)) (1 - x) >= 1/2}.

    None when the set is empty (only possible for gamma < 1/2).
    """
    nu, h = _rescaled(nu)
    beta = math.ldexp(beta, h)
    b2 = beta * beta

    # expanded form: avoids (1/2 + small)(1 - small) - 1/2 cancellation,
    # which otherwise loses the sign of the excess for x near 0
    def f(x):
        return (gamma - 0.5) + 2.0 * b2 * nu.nu(x, 1) * (1.0 - x) - gamma * x

    return _sup_level_set(f)


def d_star(beta: float, nu: MixingFunction) -> float | None:
    """sup{x in [0,1] : 4 beta^2 nu''(x) (1-x)^2 >= 1}; None if empty."""
    nu, h = _rescaled(nu)
    beta = math.ldexp(beta, h)
    b2 = beta * beta

    def f(x):
        return 4.0 * b2 * nu.g(x) - 1.0

    return _sup_level_set(f)


def beta_c(nu: MixingFunction) -> float:
    """Critical inverse temperature: sup{beta : the gamma = 1/2 plateau is 0}.

    (1/2 + 2 beta^2 nu'(x))(1 - x) >= 1/2 at some x in (0, 1) iff beta^2 >=
    x / (4 nu'(x) (1 - x)) there, so beta_c^2 is the smaller of that ratio's
    x -> 0 limit 1/(4 nu''(0)) and its minimum over four 4001-point scans,
    each zoomed around the last argmin, taken on the rescaled mixture.
    ValidationError for the zero mixture.
    """
    if nu.is_zero():
        raise ValidationError("zero mixture has no finite critical temperature")
    nu, h = _rescaled(nu)
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
    return math.ldexp(math.sqrt(best), -h)


# ---------------------------------------------------------------------------
# aging constants and integrated-response bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class AgingConstants:
    gamma: float
    d_inf: float
    i_const: float


def aging_constants(beta: float, nu: MixingFunction) -> AgingConstants:
    """Aging-branch constants above beta_c.

    D_inf = sup{x : 4 beta^2 nu''(x)(1-x)^2 >= 1},
    gamma = 2 beta^2 [nu''(D_inf)(1 - D_inf) - nu'(D_inf)],
    I     = gamma - 1/2 + 2 beta^2 D_inf nu'(D_inf).

    With this gamma, (gamma + 2 beta^2 nu'(D_inf))(1 - D_inf) equals
    2 beta^2 g(D_inf), g(x) = nu''(x)(1-x)^2, so D_inf is on the gamma
    plateau's boundary (value 1/2) exactly as far as d_star's last float
    with 4 beta^2 g >= 1 is on 4 beta^2 g = 1.
    Raises NoBranch for beta <= beta_c.
    """
    bc = beta_c(nu)
    if beta <= bc:
        raise NoBranch(f"beta = {beta} <= beta_c = {bc}")
    dinf = d_star(beta, nu)
    if dinf is None:
        raise NoBranch(f"no positive plateau at beta = {beta}")
    b2 = beta * beta
    gamma = 2.0 * b2 * (nu.nu(dinf, 2) * (1.0 - dinf) - nu.nu(dinf, 1))
    i_const = gamma - 0.5 + 2.0 * b2 * dinf * nu.nu(dinf, 1)
    return AgingConstants(gamma, dinf, i_const)


def kappa_values(sol: FdtSolution, nu: MixingFunction) -> tuple:
    """Integrated response constants (kappa1, kappa2) by grid quadrature.

    kappa1 = int R nu''(D) and kappa2 = int R over the lag window; their
    closed forms 2(nu'(1) - nu'(D_inf)) and 2(1 - D_inf) are sol.kappa1 and
    sol.kappa2.  Raises NotConverged unless |D(T) - D_inf| <= 1e-6; the
    quadrature is only meaningful once the lag window has reached the plateau.
    """
    if sol.D_inf is None:
        raise NotConverged("no plateau value to converge to")
    if abs(sol.D[-1] - sol.D_inf) > _TAIL_TOL:
        raise NotConverged(
            f"|D(T) - D_inf| = {abs(sol.D[-1] - sol.D_inf):g} > {_TAIL_TOL:g}")
    h = sol.grid.h
    return _trapz_dot(h, sol.R_fdt * nu.nu(sol.D, 2)), _trapz_dot(h, sol.R_fdt)


# ---------------------------------------------------------------------------
# fixed points of the overlap limit
# ---------------------------------------------------------------------------

def alpha_fixed_points(params: ModelParams, nu: MixingFunction, mu, kappas) -> list:
    """Roots alpha in [-1, 1] of the stationarity identity for q(s) -> alpha q_star.

    The identity (with D = nu'(q_star^2)):

      mu alpha q* = beta q*^2 v'(alpha q*)
                    - beta^2 q*^2 nu''(alpha q*) nu'(alpha q*) kappa2 / D
                    + beta^2 alpha q* kappa1.

    ``mu`` and ``kappas`` = (kappa1, kappa2) may be fixed (a working point) or callables
    of alpha (self-consistent substitution, see no_aging_selfconsistent);
    callables must accept a numpy array of alphas as well as a scalar.
    Found by _roots on [-1, 1]; roots within 1e-8 of each other count once.
    Raises ValidationError when the identity is degenerate (numerically
    zero over the whole scan) or when mu <= 0.
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
        k1, k2 = kap_fn(a)
        x = a * qs
        return (mu_fn(a) * x
                - (beta * qs2 * v.derivative(x)
                   - b2 * qs2 * nu.nu(x, 2) * nu.nu(x, 1) * k2 / denom
                   + b2 * x * k1))

    roots, vals = _roots(resid, -1.0, 1.0)
    if float(abs(vals).max()) <= 1e-12 * max(1.0, abs(mu_fn(0.0)) * qs):
        raise ValidationError("identity degenerate: residual vanishes on [-1, 1]")
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
    beta_plus: float | None = None       # pure case: branch threshold in beta
    tap_ok: bool | None = None           # mixed case: stability inequality
    g_alpha_residual: float | None = None  # mixed case: G identity residual


def localized_no_aging(params: ModelParams, nu: MixingFunction) -> NoAgingReport:
    """Analyze the localized branch where q(s) -> alpha q_star without aging.

    Requires a steep conditioned gradient: G_star > 2 sqrt(nu''(q_star^2))
    (raises NoBranch at or below the threshold, where the conditioned point
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

    Always reported: gamma (from the energy identity) and the stationary
    limit of the energy's memory integral,
    H_inf = v(alpha q*) + 2 beta [nu(1) - nu(alpha^2)
                                  - (1 - alpha^2) nu'(alpha q*)^2 / nu'(q*^2)],
    which is v(alpha q*) + 2 beta theta(alpha^2) only where
    nu'(alpha^2) nu'(q*^2) = nu'(alpha q*)^2 (pure mixtures, alpha = q*).
    """
    beta = params.beta
    qs = params.q_star
    qs2 = qs * qs
    G = params.G_star
    nu2_qs2 = nu.nu(qs2, 2)
    if nu2_qs2 <= 0:
        raise NoBranch("needs nu''(q_star^2) > 0")
    thr = 2.0 * math.sqrt(nu2_qs2)
    if G <= thr:
        raise NoBranch(f"G_star = {G:g} <= 2 sqrt(nu''(q*^2)) = {thr:g}")
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
    w = nu.nu(x, 1) ** 2 / denom  # nu'(alpha q*)^2 / nu'(q*^2)
    h_inf = v.value(x) + 2.0 * beta * (nu.nu(1.0) - nu.nu(a2) - (1.0 - a2) * w)
    return NoAgingReport(case=case, y=y, alpha=alpha, alpha_sq=a2,
                         gamma=_no_aging_gamma(alpha, beta, qs, v, nu, denom),
                         h_inf=h_inf, beta_plus=beta_plus, tap_ok=tap_ok,
                         g_alpha_residual=g_alpha_residual)
