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

from .errors import GridMismatch, NotConverged, PhiNonpositive, StepUnstable
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
    "compare_bundles",
    "soft_hard_gap",
]

_BLOWUP = 1e6  # largest |value| a march row may reach before StepUnstable
_AUDIT_TOL = 1e-8  # check_bundle tolerance
_AUDIT_TIMES = 21  # check_bundle's Gram matrix size
_BOUND_ROWS = 128  # response_integral_bound samples about this many rows
_BOUND_BLOCK = 64  # ... and scans this many t1 values of a row at once
_GAP_ROWS = 64  # _sup_gap differences this many rows at a time


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
        if not (0.0 <= T < np.inf and 0.0 < h < np.inf):  # NaN fails too
            raise GridMismatch(f"need finite T >= 0 and h > 0, got T={T}, h={h}")
        steps = T / h
        if steps == np.inf:
            raise GridMismatch(f"T={T} over h={h} overflows the step count")
        n = int(round(steps))
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
    C[i, i] = K[i].  ``pc_gap`` is the march's local error monitor, for
    both constraints: the largest |corrected - predicted| entry over the
    R, C and q of every row, which falls as h^2.  ``constraint`` is the
    kind of ``params.confinement``, "hard" or "soft".  The arrays are made
    read-only on construction.
    """

    grid: TwoTimeGrid
    R: np.ndarray
    C: np.ndarray
    q: np.ndarray
    K: np.ndarray
    mu: np.ndarray
    H: np.ndarray
    Hhat: np.ndarray
    pc_gap: float
    params: ModelParams
    nu: MixingFunction

    def __post_init__(self):
        for arr in (self.R, self.C, self.q, self.K, self.mu, self.H, self.Hhat):
            arr.setflags(write=False)

    @property
    def constraint(self) -> str:
        return self.params.confinement.kind


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

    def __init__(self, params, nu, grid, conditioned=True):
        self.params = validate(params, nu)
        self.nu = nu
        self.grid = grid
        self.hard = self.params.confinement.is_hard
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
        self.R = np.eye(n + 1)  # R(s,s) = 1; rows only ever write u < s
        self.C = np.zeros((n + 1, n + 1))
        self.q = np.zeros(n + 1)
        self.K = np.ones(n + 1)
        self.mu = np.zeros(n + 1)
        self.Hhat = np.zeros(n + 1)  # Hhat[0] = 0: an empty memory integral
        # nu'(q(u)) for the written u, and nu', nu'', psi of the last written
        # row of C: each write refreshes exactly what it wrote
        self.nu1q = np.zeros(n + 1)
        self.nu1C = np.zeros(n + 1)
        self.nu2C = np.zeros(n + 1)
        self.psiC = np.zeros(n + 1)

        self._set_q(0, self.params.q_o)
        self._set_diag(0, 1.0)
        self.mu[0] = self._mu(0)

    # -- row-local quantities -------------------------------------------------

    def _set_q(self, r: int, value: float) -> None:
        """q[r] = value, with nu'(q_r), nu''(q_r), psi(q_r) and v'(q_r)."""
        self.q[r] = qr = value
        self.nu1q[r] = self.nu1_qr = self.nu.nu(qr, 1)
        self.nu2_qr = self.nu.nu(qr, 2)
        self.psi_qr = qr * self.nu2_qr + self.nu1_qr
        self.v1_qr = self.v.derivative(qr)

    def _refresh(self, r: int, j) -> None:
        """nu', nu'' and psi of C[r, j] (j an index or a slice)."""
        c = self.C[r, j]
        self.nu1C[j] = nu1 = self.nu.nu(c, 1)
        self.nu2C[j] = nu2 = self.nu.nu(c, 2)
        self.psiC[j] = c * nu2 + nu1

    def _zint(self, r: int, fC: np.ndarray, f_qr: float) -> float:
        """int_0^s R(s,u) [f(C(s,u)) - f(q(s)) nu'(q(u))/D] du at s = t_r,
        from f on row r of C and f(q_r): f = psi, or nu' for the energy."""
        integ = self.R[r, :r + 1] * (fC[:r + 1] - self.corr * f_qr
                                     * self.nu1q[:r + 1] / self.denom)
        return _trapz_dot(self.grid.h, integ)

    def _drive(self, r: int) -> float:
        """beta^2 int R [psi(C) - psi(q) nu'(q)/D] + beta q v'(q) at s = t_r,
        doubled: the memory and drift part of the soft K equation."""
        return 2.0 * self.b2 * self._zint(r, self.psiC, self.psi_qr) + \
            2.0 * self.beta * self.q[r] * self.v1_qr

    def _mu(self, r: int) -> float:
        """Hard: the closed-form multiplier; soft: f'(K[r])."""
        if not self.hard:
            return f_prime(self.params, self.K[r])
        return (0.5 + self.b2 * self._zint(r, self.psiC, self.psi_qr)
                + self.beta * self.q[r] * self.v1_qr)

    def _row_rhs(self, r: int, mu_r: float):
        """RHS of the R/C/q equations for all columns j = 0..r at row s = t_r."""
        h = self.grid.h
        Rrow = self.R[r, :r + 1]
        Crow = self.C[r, :r + 1]
        qr = self.q[r]
        qvec = self.q[:r + 1]
        nu1q = self.nu1q[:r + 1]

        a = Rrow * self.nu2C[:r + 1]          # R(s,u) nu''(C(s,u))
        d = self.nu1C[:r + 1] - self.corr * self.nu1_qr * nu1q / self.denom

        Rblk = self.R[:r + 1, :r + 1]
        Cblk = self.C[:r + 1, :r + 1]

        # int_t^s R(u,t) R(s,u) nu''(C(s,u)) du  (upper-triangle zeros truncate at u >= t)
        IR = h * (a @ Rblk)
        IR -= 0.5 * h * a                # endpoint u = t (R(t,t) = 1)
        IR -= 0.5 * h * a[-1] * Rrow     # endpoint u = s
        F_R = -mu_r * Rrow + self.b2 * IR

        # int_0^s R(s,u) [nu''(C) C(u,t) - q(t) nu'(q(u)) nu''(q(s))/D] du
        T1 = h * (a @ Cblk) - 0.5 * h * (a[0] * self.C[0, :r + 1] + a[-1] * Crow)
        Iq = _trapz_dot(h, Rrow * nu1q)
        # int_0^t R(t,u) [nu'(C(s,u)) - nu'(q(s)) nu'(q(u))/D] du
        T2 = h * (Rblk @ d)
        T2 -= 0.5 * h * self.R[:r + 1, 0] * d[0]
        T2 -= 0.5 * h * d
        F_C = (-mu_r * Crow
               + self.b2 * (T1 - self.corr * qvec * (self.nu2_qr / self.denom) * Iq)
               + self.b2 * T2
               + self.beta * qvec * self.v1_qr)

        F_q = (-mu_r * qr
               + self.b2 * (_trapz_dot(h, a * qvec)
                            - self.corr * self.qs2 * (self.nu2_qr / self.denom) * Iq)
               + self.beta * self.qs2 * self.v1_qr)
        return F_R, F_C, F_q

    # -- one row step ---------------------------------------------------------

    def _advance(self, i: int, scale: float, FR, FC, Fq) -> None:
        """Row i+1 off the diagonal, and q[i+1], from row i plus scale * F."""
        self.R[i + 1, :i + 1] = self.R[i, :i + 1] + scale * FR
        self.C[i + 1, :i + 1] = self.C[i, :i + 1] + scale * FC
        self._refresh(i + 1, slice(0, i + 1))
        self._set_q(i + 1, self.q[i] + scale * Fq)

    def _set_diag(self, r: int, k: float) -> None:
        """K[r] = C[r, r] = k, and C's column r mirrors its row r."""
        self.K[r] = k
        self.C[r, r] = k
        self.C[:r, r] = self.C[r, :r]
        self._refresh(r, r)

    def _k_solve(self, base: float, c: float, guess: float) -> float:
        """Newton solve of kappa = base - c f'(kappa) kappa (implicit K update)."""
        conf = self.params.confinement
        kk = 2 * conf.k - 1
        kappa = guess
        for _ in range(50):
            fp = 2.0 * conf.L * (kappa - 1.0) + 0.5 * conf.phi * kappa ** kk
            dfp = 2.0 * conf.L + 0.5 * conf.phi * kk * kappa ** (kk - 1)
            g = kappa - (base - c * (fp * kappa))
            dg = 1.0 + c * (dfp * kappa + fp)
            step = g / dg
            kappa -= step
            if abs(step) <= 1e-14 * max(1.0, abs(kappa)):
                return kappa
        raise NotConverged(f"soft K Newton: 50 steps, last step {step:g}")

    # -- the march ------------------------------------------------------------

    def run(self) -> TwoTimeBundle:
        n, h = self.grid.n, self.grid.h
        K = self.K
        pc_gap = 0.0
        for i in range(n):
            FR_i, FC_i, Fq_i = self._row_rhs(i, self.mu[i])
            # Euler predictor; soft: K* = K_i + h (1 - 2 f'(K*) K* + S_i)
            if self.hard:
                k = 1.0
            else:
                S_i = self._drive(i)
                k = self._k_solve(K[i] + h * (1.0 + S_i), 2.0 * h, K[i])
            self._advance(i, h, FR_i, FC_i, Fq_i)
            self._set_diag(i + 1, k)
            FR_p, FC_p, Fq_p = self._row_rhs(i + 1, self._mu(i + 1))

            # trapezoid corrector: it moves row i+1 by h/2 (F_p - F_i)
            self._advance(i, 0.5 * h, FR_i + FR_p[:i + 1], FC_i + FC_p[:i + 1],
                          Fq_i + Fq_p)
            pc_gap = max(pc_gap, 0.5 * h * max(
                np.abs(FR_p[:i + 1] - FR_i).max(),
                np.abs(FC_p[:i + 1] - FC_i).max(), abs(Fq_p - Fq_i)))
            if not self.hard:
                fk_i = f_prime(self.params, K[i])
                base = K[i] + 0.5 * h * (
                    (1.0 - 2.0 * fk_i * K[i] + S_i) + (1.0 + self._drive(i + 1)))
                k = self._k_solve(base, h, k)
            self._set_diag(i + 1, k)
            self.mu[i + 1] = self._mu(i + 1)

            worst = max(abs(self.C[i + 1, : i + 2]).max(),
                        abs(self.R[i + 1, : i + 2]).max(),
                        abs(self.q[i + 1]), abs(K[i + 1]))
            if not np.isfinite(worst) or worst > _BLOWUP:
                raise StepUnstable(f"row {i + 1} (s={h * (i + 1):g}): |value| = {worst:g}")
            # row i+1 is final: later rows only write C right of its diagonal
            self.Hhat[i + 1] = self.beta * self._zint(i + 1, self.nu1C, self.nu1_qr)

        return TwoTimeBundle(
            grid=self.grid,
            R=self.R, C=self.C, q=self.q, K=K, mu=self.mu,
            H=self.Hhat + self.v.value(self.q), Hhat=self.Hhat,
            pc_gap=float(pc_gap), params=self.params, nu=self.nu,
        )


def solve_hard(params: ModelParams, nu: MixingFunction, grid: TwoTimeGrid,
               conditioned: bool = True) -> TwoTimeBundle:
    """March the hard-constraint system (K == 1, closed-form multiplier mu).

    ``conditioned`` False removes the critical-point drift and the
    cross-memory corrections, reverting to the classical unconditioned
    mixed p-spin equations.
    """
    if not params.confinement.is_hard:
        params = dataclasses.replace(params, confinement=Confinement.hard())
    return _March(params, nu, grid, conditioned=conditioned).run()


def solve_soft(params: ModelParams, nu: MixingFunction, grid: TwoTimeGrid,
               conditioned: bool = True) -> TwoTimeBundle:
    """March the soft-confinement system (K evolves, mu(s) = f'(K(s)))."""
    if params.confinement.is_hard:
        raise GridMismatch("solve_soft needs a soft confinement in params")
    return _March(params, nu, grid, conditioned=conditioned).run()


def response_integral_bound(bundle: TwoTimeBundle) -> float:
    """Normalised response bound: the bound holds when the return is <= 1.

    Returns the max over sampled rows s (about 128 rows plus the final one)
    and over all pairs t1 < t2 <= s of |int_{t1}^{t2} R(s,u) du|^2 / (t2 - t1),
    the integral by trapezoid.  The pairs of a row are scanned in blocks of
    _BOUND_BLOCK t1 values against a strided view of 1 / (t2 - t1), so no
    (n+1)^2 array is built.  A NaN in a sampled row makes the return NaN.
    """
    from numpy.lib.stride_tricks import sliding_window_view

    n, h = bundle.grid.n, bundle.grid.h
    rows = sorted(set(range(0, n + 1, max(1, n // _BOUND_ROWS))) | {n})
    lag = np.zeros(2 * n + 1)                   # lag[n + k] = 1 / (k h), 0 for k <= 0
    lag[n + 1:] = 1.0 / (h * np.arange(1, n + 1))
    inv_gap = sliding_window_view(lag, n + 1)[::-1]     # [j1, j2] = lag[n + j2 - j1]
    block_max = [0.0]
    for r in rows:
        cum = _cumtrapz(bundle.R[r, : r + 1], h)
        for b in range(0, r, _BOUND_BLOCK):
            e = min(b + _BOUND_BLOCK, r)
            ratio = cum[None, b + 1:] - cum[b:e, None]  # [j1, j2] = int_{t1}^{t2}
            ratio *= ratio
            ratio *= inv_gap[b:e, b + 1:r + 1]
            block_max.append(ratio.max())
    return float(np.max(block_max))


@dataclass
class InvariantReport:
    """Structural audit of a bundle; see check_bundle."""

    diag_R: float
    diag_C: float
    q_excess: float
    c_excess: float | None
    psd_min_eig: float
    response_bound_ratio: float
    tol: float

    @property
    def passed(self) -> bool:
        ok = (self.diag_R <= self.tol and self.diag_C <= self.tol
              and self.q_excess <= self.tol
              and self.psd_min_eig >= -self.tol
              and self.response_bound_ratio <= 1.0 + self.tol)  # NaN fails
        if self.c_excess is not None:
            ok = ok and self.c_excess <= self.tol
        return ok

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("diag_R", "diag_C", "q_excess", "c_excess",
                 "psd_min_eig", "response_bound_ratio", "tol", "passed")}


def check_bundle(bundle: TwoTimeBundle) -> InvariantReport:
    """Audit a solved bundle; the report's ``passed`` is the whole gate.

    Checks R and C diagonals, |q| <= q_star + tol, |C| <= 1 + tol under the
    hard constraint, positive semi-definiteness of the recentred
    correlation on 21 evenly spaced times (min eigenvalue of the Gram
    matrix >= -tol), and response_integral_bound <= 1 + tol (a NaN ratio
    fails), with tol = 1e-8.
    """
    n = bundle.grid.n
    qs = bundle.params.q_star
    diag_R = float(abs(np.diag(bundle.R) - 1.0).max())
    diag_C = float(abs(np.diag(bundle.C) - bundle.K).max())
    q_excess = float(abs(bundle.q).max() - qs)
    c_excess = None
    if bundle.constraint == "hard":
        c_excess = float(max(bundle.C.max(), -bundle.C.min()) - 1.0)
    idx = np.unique(np.round(np.linspace(0, n, min(_AUDIT_TIMES, n + 1))).astype(int))
    q = bundle.q[idx]
    gram = bundle.C[np.ix_(idx, idx)] - np.outer(q, q) / (qs * qs)
    gram = 0.5 * (gram + gram.T)
    psd_min = float(np.linalg.eigvalsh(gram)[0])
    return InvariantReport(diag_R, diag_C, q_excess, c_excess, psd_min,
                           response_integral_bound(bundle), _AUDIT_TOL)


def _sup_gap(x: np.ndarray, y: np.ndarray) -> float:
    """max |x - y| over arrays of one shape, _GAP_ROWS rows at a time, so no
    full difference array is built.  A NaN in either makes the return NaN."""
    block_max = [0.0]
    for b in range(0, x.shape[0], _GAP_ROWS):
        d = x[b:b + _GAP_ROWS] - y[b:b + _GAP_ROWS]
        block_max.append(np.abs(d, out=d).max())
    return float(np.max(block_max))


def compare_bundles(a, b, tol: float) -> dict:
    """Sup-norm gaps of (R, C, q, mu, H) between two solves on one grid.

    ``a`` and ``b`` are bundles or anything with those arrays and a grid,
    such as an sk.SkSolution.  Returns the gaps, each gap's pass flag
    (gap <= tol) and ``passed``, their conjunction.
    """
    if a.grid.n != b.grid.n or a.grid.h != b.grid.h:
        raise GridMismatch(f"grids differ: (h={a.grid.h}, n={a.grid.n}) vs "
                           f"(h={b.grid.h}, n={b.grid.n})")
    gaps = {name: _sup_gap(getattr(a, name), getattr(b, name))
            for name in ("R", "C", "q", "mu", "H")}
    passed = {name: gap <= tol for name, gap in gaps.items()}
    return {"tol": tol, "gaps": gaps, "pass": passed,
            "passed": all(passed.values())}


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
            "R_gap": _sup_gap(soft.R, hard.R),
            "C_gap": _sup_gap(soft.C, hard.C),
            "q_gap": _sup_gap(soft.q, hard.q),
        })
    return out
