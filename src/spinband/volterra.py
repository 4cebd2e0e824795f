"""Deterministic two-time solver for the limiting response/correlation system.

The limit of the conditioned Langevin dynamics closes over five unknowns on
the triangle 0 <= t <= s <= T: the response R(s, t), the correlation C(s, t),
the special-direction overlap q(s), the squared-norm K(s) (== 1 under the
hard constraint, where the Lagrange multiplier mu(s) takes over), and the
intensive energy along the trajectory H(s).  With psi(r) = r nu''(r) + nu'(r)
and D = nu'(q_star^2), the equations marched here are

  d_s R(s,t) = -mu(s) R(s,t) + beta^2 int_t^s R(u,t) R(s,u) nu''(C(s,u)) du
  d_s C(s,t) = -mu(s) C(s,t)
               + beta^2 int_0^s R(s,u) [nu''(C(s,u)) C(u,t)
                                        - q(t) nu'(q(u)) nu''(q(s)) / D] du
               + beta^2 int_0^t R(t,u) [nu'(C(s,u)) - nu'(q(s)) nu'(q(u)) / D] du
               + beta q(t) v'(q(s))
  d_s q(s)   = -mu(s) q(s)
               + beta^2 int_0^s R(s,u) [q(u) nu''(C(s,u))
                                        - q_star^2 nu'(q(u)) nu''(q(s)) / D] du
               + beta q_star^2 v'(q(s))
  hard:  mu(s) = 1/2 + beta^2 int_0^s R(s,u) [psi(C(s,u)) - psi(q(s)) nu'(q(u)) / D] du
                 + beta q(s) v'(q(s)),                  K(s) = 1
  soft:  mu(s) = f'(K(s)),
         d_s K(s) = 1 - 2 f'(K(s)) K(s)
                    + 2 beta^2 int_0^s R(s,u) [psi(C(s,u)) - psi(q(s)) nu'(q(u)) / D] du
                    + 2 beta q(s) v'(q(s))
  energy: H(s) = v(q(s)) + beta int_0^s R(s,u) [nu'(C(s,u))
                                                - nu'(q(s)) nu'(q(u)) / D] du

with R(s,s) = 1, C(0,0) = K(0) = 1, q(0) = q_o.  For the all-zero mixture the
three subtraction terms vanish identically and D is never needed; the solver
then reduces to exponential relaxation at rate 1/2 (tested).

Scheme: row-by-row march in s; explicit Euler predictor plus one trapezoid
corrector pass per row, trapezoid quadrature for all memory integrals.  The
soft K equation is the one stiff scalar (relaxation rate ~ 4L), so its
-2 f'(K) K term is treated implicitly (scalar Newton) inside the same
predictor/corrector pattern; everything else stays explicit.  R and C are
kept as full (n+1)^2 arrays -- the upper triangle of R is structurally zero
and C mirrors its lower triangle -- so each row update is a handful of BLAS
matrix-vector products and the whole solve costs O(n^3) flops, O(n^2) memory.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, PhiNonpositive, StepUnstable
from .model import (
    Confinement,
    MixingFunction,
    ModelParams,
    f_prime,
    validate,
    vstar_build,
)

__all__ = [
    "TwoTimeGrid",
    "TwoTimeBundle",
    "InvariantReport",
    "solve_hard",
    "solve_soft",
    "integrated_response",
    "response_integral_bound",
    "check_bundle",
    "soft_hard_gap",
]


@dataclass(frozen=True)
class TwoTimeGrid:
    """Uniform grid t_i = i h, i = 0..n."""

    h: float
    n: int

    def __post_init__(self):
        if not (self.h > 0 and self.n >= 0):
            raise GridMismatch("need h > 0 and n >= 0")

    @property
    def T(self) -> float:
        return self.h * self.n

    @staticmethod
    def from_T(T: float, h: float) -> "TwoTimeGrid":
        n = int(round(T / h))
        if abs(n * h - T) > 1e-9 * max(1.0, T):
            raise GridMismatch(f"T={T} is not an integer multiple of h={h}")
        return TwoTimeGrid(h, n)

    def times(self) -> np.ndarray:
        return self.h * np.arange(self.n + 1)

    def index_of(self, t: float) -> int:
        i = int(round(t / self.h))
        if not (0 <= i <= self.n) or abs(i * self.h - t) > 1e-9 * max(1.0, self.T):
            raise GridMismatch(f"time {t} is not on the grid")
        return i


@dataclass
class TwoTimeBundle:
    """Solved two-time data on a grid.

    R and C are (n+1, n+1) arrays; R(s,t) lives in the lower triangle with
    R[i, i] = 1 and zeros above the diagonal, C is symmetric with
    C[i, i] = K[i].  ``diag_residual`` is the hard-constraint diagnostic:
    the largest drift of the *unenforced* diagonal marched alongside
    (None for soft runs, where K itself is the diagonal).  The arrays are
    made read-only on construction.
    """

    grid: TwoTimeGrid
    constraint: str  # "hard" | "soft"
    R: np.ndarray
    C: np.ndarray
    q: np.ndarray
    K: np.ndarray
    mu: np.ndarray
    H: np.ndarray
    Hhat: np.ndarray
    diag_residual: float | None
    params: ModelParams
    nu: MixingFunction

    def __post_init__(self):
        for arr in (self.R, self.C, self.q, self.K, self.mu, self.H, self.Hhat):
            arr.setflags(write=False)

    def cbar(self) -> np.ndarray:
        """Recentred correlation C(s,t) - q(s) q(t) / q_star^2."""
        qs = self.params.q_star
        return self.C - np.outer(self.q, self.q) / (qs * qs)


def _trapz_dot(h: float, f: np.ndarray) -> float:
    """Trapezoid rule over equally spaced samples f[0..r]."""
    if f.shape[0] < 2:
        return 0.0
    return h * (f.sum() - 0.5 * (f[0] + f[-1]))


def _cumtrapz(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid along the last axis, starting from 0."""
    seg = np.cumsum(0.5 * h * (f[..., 1:] + f[..., :-1]), axis=-1)
    return np.concatenate([np.zeros(f.shape[:-1] + (1,)), seg], axis=-1)


def integrated_response(R: np.ndarray, h: float) -> np.ndarray:
    """chi(s,t) = int_0^{min(s,t)} R(s,u) du on the grid, by trapezoid."""
    rows = np.arange(R.shape[0])[:, None]
    return _cumtrapz(R, h)[rows, np.minimum(rows.T, rows)]


class _March:
    """Workspace for one solve; see the module docstring for the scheme."""

    def __init__(self, params, nu, grid, hard, blowup, conditioned=True):
        self.params = validate(params, nu)
        self.nu = nu
        self.grid = grid
        self.hard = hard
        self.blowup = blowup
        # corr = 0 reverts to the classical (unconditioned) mixed p-spin
        # system: zero drift polynomial and no cross-memory corrections.
        self.corr = 1.0 if conditioned else 0.0
        if conditioned:
            self.v = vstar_build(nu, params.q_star, params.E_star, params.G_star)
        else:
            self.v = vstar_build(nu, params.q_star, 0.0, 0.0)
        self.beta = self.params.beta
        self.b2 = self.beta * self.beta
        self.qs2 = self.params.q_star ** 2
        d = nu.nu(self.qs2, 1)
        self.denom = d if d > 0.0 else 1.0  # zero mixture: numerators vanish too

        n = grid.n
        self.R = np.zeros((n + 1, n + 1))
        self.C = np.zeros((n + 1, n + 1))
        self.q = np.zeros(n + 1)
        self.K = np.ones(n + 1)
        self.mu = np.zeros(n + 1)
        self.Kpde = np.ones(n + 1)  # hard: diagonal marched without enforcement

        self.R[0, 0] = 1.0
        self.C[0, 0] = 1.0
        self.q[0] = self.params.q_o
        self.mu[0] = self._mu_row(0) if hard else f_prime(self.params, 1.0)

    # -- row-local quantities -------------------------------------------------

    def _zint(self, r: int, f=None) -> float:
        """int_0^s R(s,u) [f(C(s,u)) - f(q(s)) nu'(q(u))/D] du at s = t_r,
        with f = psi unless given (the energy uses f = nu')."""
        f = self.nu.psi if f is None else f
        Rrow = self.R[r, :r + 1]
        Crow = self.C[r, :r + 1]
        integ = Rrow * (f(Crow)
                        - self.corr * f(self.q[r])
                        * self.nu.nu(self.q[:r + 1], 1) / self.denom)
        return _trapz_dot(self.grid.h, integ)

    def _mu_row(self, r: int) -> float:
        return (0.5 + self.b2 * self._zint(r)
                + self.beta * self.q[r] * self.v.derivative(self.q[r]))

    def _row_rhs(self, r: int, mu_r: float):
        """RHS of the R/C/q equations for all columns j = 0..r at row s = t_r."""
        h = self.grid.h
        Rrow = self.R[r, :r + 1]
        Crow = self.C[r, :r + 1]
        qr = self.q[r]
        qvec = self.q[:r + 1]

        nu1C = self.nu.nu(Crow, 1)
        nu2C = self.nu.nu(Crow, 2)
        nu1q = self.nu.nu(qvec, 1)
        nu2_qr = self.nu.nu(qr, 2)
        nu1_qr = self.nu.nu(qr, 1)
        v1_qr = self.v.derivative(qr)

        a = Rrow * nu2C                       # R(s,u) nu''(C(s,u))
        d = nu1C - self.corr * nu1_qr * nu1q / self.denom

        Rblk = self.R[:r + 1, :r + 1]
        Cblk = self.C[:r + 1, :r + 1]

        # int_t^s R(u,t) R(s,u) nu''(C(s,u)) du  (upper-triangle zeros truncate at u >= t)
        IR = h * (a @ Rblk)
        IR -= 0.5 * h * a                # endpoint u = t (R(t,t) = 1)
        IR -= 0.5 * h * a[-1] * self.R[r, :r + 1]      # endpoint u = s
        F_R = -mu_r * self.R[r, :r + 1] + self.b2 * IR

        # int_0^s R(s,u) [nu''(C) C(u,t) - q(t) nu'(q(u)) nu''(q(s))/D] du
        T1 = h * (a @ Cblk) - 0.5 * h * (a[0] * self.C[0, :r + 1]
                                         + a[-1] * self.C[r, :r + 1])
        Iq = _trapz_dot(h, Rrow * nu1q)
        # int_0^t R(t,u) [nu'(C(s,u)) - nu'(q(s)) nu'(q(u))/D] du
        T2 = h * (self.R[:r + 1, :r + 1] @ d)
        T2 -= 0.5 * h * self.R[:r + 1, 0] * d[0]
        T2 -= 0.5 * h * d
        qcol = self.q[: r + 1]
        F_C = (-mu_r * self.C[r, :r + 1]
               + self.b2 * (T1 - self.corr * qcol * (nu2_qr / self.denom) * Iq)
               + self.b2 * T2
               + self.beta * qcol * v1_qr)

        F_q = (-mu_r * qr
               + self.b2 * (_trapz_dot(h, a * qvec)
                            - self.corr * self.qs2 * (nu2_qr / self.denom) * Iq)
               + self.beta * self.qs2 * v1_qr)
        return F_R, F_C, F_q

    # -- soft K step ----------------------------------------------------------

    def _k_solve(self, target_fn, guess):
        """Newton solve of kappa - target_fn(kappa) = 0 (semi-implicit K update)."""
        p = self.params
        conf = p.confinement
        kk = 2 * conf.k - 1
        kappa = guess
        for _ in range(50):
            fp = 2.0 * conf.L * (kappa - 1.0) + 0.5 * conf.phi * kappa ** kk
            dfp = 2.0 * conf.L + 0.5 * conf.phi * kk * kappa ** (kk - 1)
            g = kappa - target_fn(fp * kappa)
            dg = 1.0 + target_fn.slope * (dfp * kappa + fp)
            step = g / dg
            kappa -= step
            if abs(step) <= 1e-14 * max(1.0, abs(kappa)):
                break
        return kappa

    # -- the march ------------------------------------------------------------

    def run(self) -> TwoTimeBundle:
        n, h = self.grid.n, self.grid.h
        p = self.params
        for i in range(n):
            mu_i = self.mu[i]
            FR_i, FC_i, Fq_i = self._row_rhs(i, mu_i)
            if not self.hard:
                S_i = 2.0 * self.b2 * self._zint(i) + \
                    2.0 * self.beta * self.q[i] * self.v.derivative(self.q[i])

            # predictor row i+1
            self.R[i + 1, :i + 1] = self.R[i, :i + 1] + h * FR_i
            self.R[i + 1, i + 1] = 1.0
            self.C[i + 1, :i + 1] = self.C[i, :i + 1] + h * FC_i
            self.q[i + 1] = self.q[i] + h * Fq_i
            if self.hard:
                k_pred = 1.0
            else:
                base = self.K[i] + h * (1.0 + S_i)

                def tgt(fk):  # K* = K_i + h (1 - 2 f'(K*) K* + S_i)
                    return base - 2.0 * h * fk
                tgt.slope = 2.0 * h
                k_pred = self._k_solve(tgt, self.K[i])
            self.C[i + 1, i + 1] = k_pred
            self.C[: i + 1, i + 1] = self.C[i + 1, :i + 1]

            if self.hard:
                mu_pred = self._mu_row(i + 1)
            else:
                mu_pred = f_prime(p, k_pred)
            FR_p, FC_p, Fq_p = self._row_rhs(i + 1, mu_pred)

            # corrector
            self.R[i + 1, :i + 1] = self.R[i, :i + 1] + 0.5 * h * (FR_i + FR_p[: i + 1])
            self.R[i + 1, i + 1] = 1.0
            self.C[i + 1, :i + 1] = self.C[i, :i + 1] + 0.5 * h * (FC_i + FC_p[: i + 1])
            self.q[i + 1] = self.q[i] + 0.5 * h * (Fq_i + Fq_p)
            if self.hard:
                self.K[i + 1] = 1.0
                # diagnostic: diagonal marched without enforcement,
                # d/ds C(s,s) = 1 + 2 * (RHS of the C equation at t = s)
                self.Kpde[i + 1] = self.Kpde[i] + 0.5 * h * (
                    (1.0 + 2.0 * FC_i[i]) + (1.0 + 2.0 * FC_p[i + 1]))
            else:
                S_p = 2.0 * self.b2 * self._zint(i + 1) + \
                    2.0 * self.beta * self.q[i + 1] * self.v.derivative(self.q[i + 1])
                fk_i = f_prime(p, self.K[i])
                base = self.K[i] + 0.5 * h * (
                    (1.0 - 2.0 * fk_i * self.K[i] + S_i) + (1.0 + S_p))

                def tgt(fk):
                    return base - h * fk
                tgt.slope = h
                self.K[i + 1] = self._k_solve(tgt, k_pred)
            self.C[i + 1, i + 1] = self.K[i + 1]
            self.C[: i + 1, i + 1] = self.C[i + 1, :i + 1]
            self.mu[i + 1] = self._mu_row(i + 1) if self.hard else f_prime(p, self.K[i + 1])

            worst = max(abs(self.C[i + 1, : i + 2]).max(),
                        abs(self.R[i + 1, : i + 2]).max(),
                        abs(self.q[i + 1]), abs(self.K[i + 1]))
            if not np.isfinite(worst) or worst > self.blowup:
                raise StepUnstable(f"row {i + 1} (s={h * (i + 1):g}): |value| = {worst:g}")

        # energy along the trajectory
        def nu1(x):
            return self.nu.nu(x, 1)

        Hhat = np.zeros(n + 1)
        for r in range(n + 1):
            Hhat[r] = self.beta * self._zint(r, nu1)
        H = Hhat + self.v.value(self.q)

        diag_res = float(abs(self.Kpde - 1.0).max()) if self.hard else None
        return TwoTimeBundle(
            grid=self.grid,
            constraint="hard" if self.hard else "soft",
            R=self.R, C=self.C, q=self.q, K=self.K, mu=self.mu,
            H=H, Hhat=Hhat, diag_residual=diag_res,
            params=self.params, nu=self.nu,
        )


def solve_hard(params: ModelParams, nu: MixingFunction, grid: TwoTimeGrid,
               blowup: float = 1e6, conditioned: bool = True) -> TwoTimeBundle:
    """March the hard-constraint system (K == 1, closed-form multiplier mu).

    ``conditioned`` False removes the critical-point drift and the
    cross-memory corrections, reverting to the classical unconditioned
    mixed p-spin equations.
    """
    if not params.confinement.is_hard:
        params = dataclasses.replace(params, confinement=Confinement.hard())
    return _March(params, nu, grid, hard=True, blowup=blowup,
                  conditioned=conditioned).run()


def solve_soft(params: ModelParams, nu: MixingFunction, grid: TwoTimeGrid,
               blowup: float = 1e6, conditioned: bool = True) -> TwoTimeBundle:
    """March the soft-confinement system (K evolves, mu(s) = f'(K(s)))."""
    if params.confinement.is_hard:
        raise GridMismatch("solve_soft needs a soft confinement in params")
    return _March(params, nu, grid, hard=False, blowup=blowup,
                  conditioned=conditioned).run()


def response_integral_bound(bundle: TwoTimeBundle, row_stride: int | None = None) -> float:
    """Largest violation of |int_{t1}^{t2} R(s,u) du|^2 <= t2 - t1.

    Returns max over sampled rows s and all pairs t1 <= t2 <= s of
    (trapezoid integral)^2 - (t2 - t1); a negative return means the bound
    holds everywhere sampled.  Rows are subsampled (default: about 128 rows
    plus the final one) since the exact all-pairs scan is quadratic per row.
    """
    n, h = bundle.grid.n, bundle.grid.h
    if row_stride is None:
        row_stride = max(1, n // 128)
    rows = sorted(set(range(0, n + 1, row_stride)) | {n})
    worst = -np.inf
    for r in rows:
        cum = _cumtrapz(bundle.R[r, : r + 1], h)
        diff = cum[None, :] - cum[:, None]          # [j1, j2] = int_{t1}^{t2}
        tgap = h * (np.arange(r + 1)[None, :] - np.arange(r + 1)[:, None])
        # in place: on the last row these (n+1)^2 arrays set the peak memory
        diff *= diff
        diff -= tgap
        worst = max(worst, float(np.triu(diff).max()))
    return worst


@dataclass
class InvariantReport:
    """Structural audit of a bundle; see check_bundle."""

    diag_R: float
    diag_C: float
    q_excess: float
    c_excess: float | None
    psd_min_eig: float
    diag_residual: float | None
    tol: float

    @property
    def passed(self) -> bool:
        ok = (self.diag_R <= self.tol and self.diag_C <= self.tol
              and self.q_excess <= self.tol
              and self.psd_min_eig >= -self.tol)
        if self.c_excess is not None:
            ok = ok and self.c_excess <= self.tol
        return ok

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("diag_R", "diag_C", "q_excess", "c_excess",
                 "psd_min_eig", "diag_residual", "tol", "passed")}


def check_bundle(bundle: TwoTimeBundle, tol: float = 1e-8,
                 subgrid: int = 21) -> InvariantReport:
    """Audit the structural invariants of a solved bundle.

    Checks R and C diagonals, |q| <= q_star + tol, |C| <= 1 + tol under the
    hard constraint, and positive semi-definiteness of the recentred
    correlation on an evenly spaced ``subgrid`` of times (min eigenvalue of
    the Gram matrix >= -tol).
    """
    n = bundle.grid.n
    qs = bundle.params.q_star
    diag_R = float(abs(np.diag(bundle.R) - 1.0).max())
    diag_C = float(abs(np.diag(bundle.C) - bundle.K).max())
    q_excess = float(abs(bundle.q).max() - qs)
    c_excess = None
    if bundle.constraint == "hard":
        c_excess = float(abs(bundle.C).max() - 1.0)
    idx = np.unique(np.round(np.linspace(0, n, min(subgrid, n + 1))).astype(int))
    gram = bundle.cbar()[np.ix_(idx, idx)]
    gram = 0.5 * (gram + gram.T)
    psd_min = float(np.linalg.eigvalsh(gram)[0])
    return InvariantReport(diag_R, diag_C, q_excess, c_excess, psd_min,
                           bundle.diag_residual, tol)


def soft_hard_gap(params: ModelParams, nu: MixingFunction, grid: TwoTimeGrid,
                  L_list) -> list:
    """Compare soft runs against the hard limit for each stiffness L.

    Uses the canonical phi throughout and k from params (or 1).  Raises
    PhiNonpositive when the canonical phi is <= 0, in which case the
    large-L normalization breaks down and no comparison is defined.

    Returns one record per L with sup|K - 1| and sup-norm gaps on R, C, q.
    """
    from .model import canonical_phi

    resolved = validate(params, nu)
    phi = canonical_phi(resolved, nu)
    if phi <= 0:
        raise PhiNonpositive(f"canonical phi = {phi:g} <= 0")
    k = params.confinement.k if (not params.confinement.is_hard
                                 and params.confinement.k) else 1
    hard = solve_hard(params, nu, grid)
    out = []
    for L in L_list:
        soft_params = dataclasses.replace(
            params, confinement=Confinement.soft(L, k, phi))
        soft = solve_soft(soft_params, nu, grid)
        out.append({
            "L": float(L),
            "k_gap": float(abs(soft.K - 1.0).max()),
            "R_gap": float(abs(soft.R - hard.R).max()),
            "C_gap": float(abs(soft.C - hard.C).max()),
            "q_gap": float(abs(soft.q - hard.q).max()),
        })
    return out
