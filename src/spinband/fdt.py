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
    "aging_kappa_update",
    "alpha_fixed_points",
    "no_aging_selfconsistent",
    "NoAgingReport",
    "localized_no_aging",
]


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
    None as well.  ``alpha`` records the overlap limit the solution was
    built for (0 unless produced by the localized branch analysis).
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
    alpha: float = 0.0


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
        k1 = 2.0 * (nu.nu(1.0, 1) - nu.nu(dinf, 1))
        k2 = 2.0 * (1.0 - dinf)
        k3 = 0.0
    sol = FdtSolution(grid=grid, gamma=gamma, beta=beta, D=D, Dprime=Dp,
                      R_fdt=-2.0 * Dp, mu=mu, D_inf=dinf, I=i_const,
                      kappa1=k1, kappa2=k2, kappa3=k3)
    for arr in (sol.D, sol.Dprime, sol.R_fdt):
        arr.setflags(write=False)
    return sol


# ---------------------------------------------------------------------------
# plateau / critical-temperature scans
# ---------------------------------------------------------------------------

def _sup_level_set(f, n_scan: int, xtol: float):
    """sup{x in [0,1] : f(x) >= 0} by dense scan + boundary bisection.

    Returns None when no scanned point satisfies f >= 0.  f must be
    vectorized over numpy arrays.
    """
    xs = np.linspace(0.0, 1.0, n_scan)
    vals = f(xs)
    inside = np.flatnonzero(vals >= 0.0)
    if inside.size == 0:
        return None
    k = inside[-1]
    if k == n_scan - 1:
        return 1.0
    lo, hi = xs[k], xs[k + 1]
    for _ in range(200):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return float(lo)


def d_infty(gamma: float, beta: float, nu: MixingFunction,
            n_scan: int = 10001, xtol: float = 1e-10) -> float | None:
    """Plateau sup{x in [0,1] : (gamma + 2 beta^2 nu'(x)) (1 - x) >= 1/2}.

    None when the set is empty (only possible for gamma < 1/2).
    """
    b2 = beta * beta

    # expanded form: avoids (1/2 + small)(1 - small) - 1/2 cancellation,
    # which otherwise loses the sign of the excess for x near 0
    def f(x):
        return (gamma - 0.5) + 2.0 * b2 * nu.nu(x, 1) * (1.0 - x) - gamma * x

    return _sup_level_set(f, n_scan, xtol)


def d_star(beta: float, nu: MixingFunction,
           n_scan: int = 10001, xtol: float = 1e-10) -> float | None:
    """sup{x in [0,1] : 4 beta^2 nu''(x) (1-x)^2 >= 1}; None if empty."""
    b2 = beta * beta

    def f(x):
        return 4.0 * b2 * nu.g(x) - 1.0

    return _sup_level_set(f, n_scan, xtol)


def _gamma_half_excess(beta: float, nu: MixingFunction) -> float:
    """max over x in (0,1] of (1/2 + 2 b^2 nu'(x))(1-x) - 1/2, refined locally."""
    b2 = beta * beta

    def f(x):  # cancellation-free excess, exact 0 at x = 0
        return 2.0 * b2 * nu.nu(x, 1) * (1.0 - x) - 0.5 * x

    lo, hi, best = 0.0, 1.0, -np.inf
    for _ in range(4):  # three successive zooms around the scanned argmax
        xs = np.linspace(lo, hi, 4001)[1:]  # exclude x = 0: always exactly 0 there
        vals = f(xs)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        span = (hi - lo) / 4000.0
        lo, hi = max(0.0, xs[j] - 2 * span), min(1.0, xs[j] + 2 * span)
    return best


def beta_c(nu: MixingFunction, hi: float = 100.0, tol: float = 1e-8) -> float:
    """Critical inverse temperature: sup{beta : the gamma = 1/2 plateau is 0}.

    Operationally: smallest beta at which (1/2 + 2 beta^2 nu'(x))(1 - x) >= 1/2
    admits a solution x > 0, found by bisection on beta in (0, hi].
    Raises NotBracketed when even beta = hi keeps the plateau at zero.
    """
    if nu.is_zero():
        raise NotBracketed("zero mixture has no finite critical temperature")
    if _gamma_half_excess(hi, nu) < 0.0:
        raise NotBracketed(f"no positive plateau up to beta = {hi}")
    lo = 0.0
    hi_b = hi
    while hi_b - lo > tol:
        mid = 0.5 * (lo + hi_b)
        if _gamma_half_excess(mid, nu) >= 0.0:
            hi_b = mid
        else:
            lo = mid
    return 0.5 * (lo + hi_b)


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


def kappa_values(sol: FdtSolution, nu: MixingFunction,
                 tail_tol: float = 1e-6) -> KappaValues:
    """Integrated response constants, by grid quadrature and in closed form.

    kappa1 = int R nu''(D), kappa2 = int R, kappa3 = 0 in the lag regime;
    closed forms 2(nu'(1) - nu'(D_inf)) and 2(1 - D_inf).  Raises
    NotConverged unless |D(T) - D_inf| <= tail_tol; the quadrature is only
    meaningful once the lag window has reached the plateau.
    """
    if sol.D_inf is None:
        raise NotConverged("no plateau value to converge to")
    if abs(sol.D[-1] - sol.D_inf) > tail_tol:
        raise NotConverged(
            f"|D(T) - D_inf| = {abs(sol.D[-1] - sol.D_inf):g} > {tail_tol:g}")
    h = sol.grid.h
    k1 = _trapz_dot(h, sol.R_fdt * nu.nu(sol.D, 2))
    k2 = _trapz_dot(h, sol.R_fdt)
    return KappaValues(
        quad=(k1, k2, 0.0),
        closed=(2.0 * (nu.nu(1.0, 1) - nu.nu(sol.D_inf, 1)),
                2.0 * (1.0 - sol.D_inf), 0.0),
    )


def aging_kappa_update(kappas, A: float, d_inf: float, alpha: float,
                       nu: MixingFunction):
    """Add the aging-window contribution with weight A to (kappa1..kappa3)."""
    k1, k2, k3 = kappas
    a2 = alpha * alpha
    return (
        k1 + A * (nu.nu(d_inf, 1) - nu.nu(a2, 1)),
        k2 + A * (d_inf - a2),
        k3 + A * (d_inf * nu.nu(d_inf, 1) - a2 * nu.nu(a2, 1)),
    )


# ---------------------------------------------------------------------------
# fixed points of the overlap limit
# ---------------------------------------------------------------------------

def alpha_fixed_points(params: ModelParams, nu: MixingFunction, mu, kappas,
                       n_scan: int = 10001, xtol: float = 1e-10) -> list:
    """Roots alpha in [-1, 1] of the stationarity identity for q(s) -> alpha q_star.

    The identity (with D = nu'(q_star^2)):

      mu alpha q* = beta q*^2 v'(alpha q*)
                    - beta^2 q*^2 nu''(alpha q*) nu'(alpha q*) kappa2 / D
                    + beta^2 alpha q* kappa1.

    ``mu`` and ``kappas`` may be numbers (a fixed working point) or callables
    of alpha (self-consistent substitution, see no_aging_selfconsistent).
    Found by sign-change scan on n_scan points plus bisection to xtol; exact
    grid zeros are kept as roots.  Raises ValidationError when the identity
    is degenerate (numerically zero over the whole scan) or when mu <= 0.
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

    xs = np.linspace(-1.0, 1.0, n_scan)
    vals = np.array([resid(a) for a in xs])
    scale = float(abs(vals).max())
    ref = max(1.0, abs(mu_fn(0.0)) * qs)
    if scale <= 1e-12 * ref:
        raise ValidationError("identity degenerate: residual vanishes on [-1, 1]")

    roots = [float(xs[j]) for j in np.flatnonzero(vals == 0.0)]
    sgn = np.sign(vals)
    for j in np.flatnonzero((sgn[:-1] * sgn[1:]) < 0.0):
        lo, hi = xs[j], xs[j + 1]
        flo = vals[j]
        for _ in range(200):
            if hi - lo <= xtol:
                break
            mid = 0.5 * (lo + hi)
            fm = resid(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    roots.sort()
    out = []
    for r in roots:
        if not out or abs(r - out[-1]) > 1e-8:
            out.append(r)
    return out


def _no_aging_gamma(alpha: float, a2: float, beta: float, q_star: float,
                    v, nu: MixingFunction, denom: float) -> float:
    """gamma(alpha) from the stationary energy identity; a2 = alpha^2 is
    passed in so a caller holding the exact plateau value keeps its bits."""
    b2 = beta * beta
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
        return _no_aging_gamma(a, a * a, beta, qs, v, nu, denom) + 2.0 * b2 * nup1

    def kappas_fn(a):
        a2 = a * a
        return (2.0 * (nup1 - nu.nu(a2, 1)), 2.0 * (1.0 - a2), 0.0)

    return mu_fn, kappas_fn


# ---------------------------------------------------------------------------
# localized (no-aging) branch
# ---------------------------------------------------------------------------

@dataclass
class NoAgingReport:
    case: str            # "pure" | "mixed"
    y: float
    alpha: float
    alpha_sq: float
    d_inf: float
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
    stops being a stable well).  y solves G_star = sqrt(nu''(q_star^2))
    (y + 1/y), taking the smaller root.

    Pure mixture: the branch exists for beta > beta_plus =
    y / (2 sqrt(g(1 - 2/m))), with alpha^2 the larger root of
    4 beta^2 g(x) = y^2 -- equivalently the plateau of the dynamics at
    effective inverse temperature beta / y.  Raises NoBranch otherwise.

    Mixed mixture: the candidate sits at alpha = q_star; the report carries
    the residual of the G identity
    G = 2 beta nu''(q*^2)(1 - q*^2) + 1 / (2 beta (1 - q*^2)) and the
    stability inequality 1/beta > 2 sqrt(nu''(q*^2)) (1 - q*^2).

    Always reported: gamma (from the energy identity), the stationarity and
    plateau identity residuals at (alpha, gamma), and
    H_inf = v(alpha q*) + 2 beta theta(alpha^2).
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
    ghat = G / math.sqrt(nu2_qs2)
    y = 0.5 * (ghat - math.sqrt(ghat * ghat - 4.0))

    beta_plus = None
    tap_ok = None
    g_alpha_residual = None
    if nu.is_pure():
        case = "pure"
        m = nu.pure_order()
        am2 = 1.0 - 2.0 / m
        beta_plus = y / (2.0 * math.sqrt(nu.g(am2)))
        if beta <= beta_plus:
            raise NoBranch(f"beta = {beta:g} <= beta_plus = {beta_plus:g}")
        a2 = d_star(beta / y, nu)
        if a2 is None or a2 <= 0.0:
            raise NoBranch("no positive plateau at effective beta / y")
        alpha = math.sqrt(a2)
    else:
        case = "mixed"
        alpha = qs
        a2 = qs2
        if a2 >= 1.0:
            raise NoBranch("mixed branch needs q_star < 1")
        g_alpha_residual = G - (2.0 * beta * nu.nu(a2, 2) * (1.0 - a2)
                                + 1.0 / (2.0 * beta * (1.0 - a2)))
        tap_ok = 1.0 / beta > 2.0 * math.sqrt(nu.nu(a2, 2)) * (1.0 - a2)

    v = vstar_build(nu, qs, params.E_star, params.G_star)
    denom = nu.nu(qs2, 1)
    x = alpha * qs
    gamma = _no_aging_gamma(alpha, a2, beta, qs, v, nu, denom)
    r1 = gamma * alpha - (beta * qs * v.derivative(x)
                          - 2.0 * b2 * qs * nu.nu(x, 2) * nu.nu(x, 1) * (1.0 - a2) / denom
                          - 2.0 * b2 * alpha * nu.nu(a2, 1))
    bracket = 2.0 * b2 * (nu.nu(a2, 1) * denom - nu.nu(x, 1) ** 2) / denom
    r3_left = (gamma + 2.0 * b2 * nu.nu(a2, 1)) * (1.0 - a2) - 0.5 - bracket * (1.0 - a2)
    r3_zero = bracket * (1.0 - a2)
    h_inf = v.value(x) + 2.0 * beta * nu.theta(a2)
    return NoAgingReport(case=case, y=y, alpha=alpha, alpha_sq=a2, d_inf=a2,
                         gamma=gamma, h_inf=h_inf,
                         residuals=(r1, r3_left, r3_zero),
                         beta_plus=beta_plus, tap_ok=tap_ok,
                         g_alpha_residual=g_alpha_residual)
