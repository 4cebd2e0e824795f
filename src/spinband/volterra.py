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
full (n+1)^2 arrays stacked in one (2, n+1, n+1) array -- the upper triangle
of R is structurally zero and C mirrors its lower triangle.  Each pass
evaluates row s once, against the trapezoid weights times R(s,.): one product
with them gives every memory integral behind mu, H and the soft drive, and two
BLAS matrix-vector products (over the stacked [R; C] block, and over R) give
the R and C right-hand sides with the endpoint halves folded in.  The solve
costs O(n^3) flops and O(n^2) memory.
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

    def trapezoid(self, r: int) -> np.ndarray:
        """Trapezoid weights over t_0..t_r: h, halved at both ends; 0 for r = 0."""
        w = np.full(r + 1, self.h)
        w[0] = w[r] = 0.5 * self.h if r else 0.0
        return w

    def index_of(self, t):
        """Index (an int) of a time, or index array of an array of times, within
        1e-9 max(1, T) of the grid; else GridMismatch names the first miss."""
        t = np.asarray(t, dtype=float)
        k = np.rint(t / self.h)
        on = (0 <= k) & (k <= self.n) & (np.abs(k * self.h - t) <= 1e-9 * max(1.0, self.T))
        if not on.all():
            raise GridMismatch(f"time {float(t[~on][0])} is not on the grid")
        return int(k) if k.ndim == 0 else k.astype(np.intp)


@dataclass
class TwoTimeBundle:
    """Solved two-time data on a grid.

    R and C are (n+1, n+1) arrays; R(s,t) lives in the lower triangle with
    R[i, i] = 1 and zeros above the diagonal, C is symmetric with
    C[i, i] = K[i].  ``pc_gap`` is the march's local error monitor, for
    both constraints: the largest |corrected - predicted| entry over the
    R, C and q of every row, which falls as h^2.  ``constraint`` is the
    kind of ``params.confinement``, "hard" or "soft".  The arrays are made
    read-only on construction; from solve_hard and solve_soft, R and C are
    read-only views into one stacked (2, n+1, n+1) array.
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
        # Horner coefficients, top power first, of nu'', nu'/r and v' (as in model)
        c, v = nu.coeffs_sq, self.v.coeffs
        self.horner = [(c[p - 2] * (p * (p - 1)), c[p - 2] * p)
                       for p in range(nu.m, 1, -1)]
        self.horner_cols = list(np.array(self.horner)[:, :, None])
        self.dv = [p * v[p] for p in range(len(v) - 1, 0, -1)]

        n = grid.n
        self.RC = np.zeros((2, n + 1, n + 1))
        self.R, self.C = self.RC
        np.fill_diagonal(self.R, 1.0)  # R(s,s) = 1; rows only ever write u < s
        self.q = np.zeros(n + 1)
        self.K = np.ones(n + 1)
        self.mu = np.zeros(n + 1)
        self.Hhat = np.zeros(n + 1)
        # nu'', nu', psi of the last written row of C and nu'(q) of the written q;
        # each write refreshes what it wrote.  G = W[1:] feeds the memory integrals.
        self.W = np.zeros((4, n + 1))
        self.one = self._nu_at(1.0)  # the hard diagonal, C(s,s) = 1
        self._set_q(0, self.params.q_o)
        self._set_diag(0, 1.0)

    # -- row-local quantities -------------------------------------------------

    def _nu_at(self, x: float):
        """nu''(x), nu'(x) and psi(x) of a float, rounded as MixingFunction.nu."""
        nu2 = nu1 = 0.0
        for a2, a1 in self.horner:
            nu2, nu1 = nu2 * x + a2, nu1 * x + a1
        nu1 *= x
        return nu2, nu1, x * nu2 + nu1

    def _set_q(self, r: int, value: float) -> None:
        """q[r] = value, with nu'(q_r), nu''(q_r), psi(q_r) and v'(q_r)."""
        self.q[r] = qr = float(value)
        self.nu2_qr, self.nu1_qr, self.psi_qr = self._nu_at(qr)
        self.W[3, r] = self.nu1_qr
        v1 = 0.0
        for a in self.dv:
            v1 = v1 * qr + a
        self.v1_qr = v1

    def _refresh(self, r: int) -> None:
        """nu'', nu', psi of C[r, :r] into W: one in-place pass, rounded as model."""
        c, d, psi = self.C[r, :r], self.W[:2, :r], self.W[2, :r]
        d.fill(0.0)
        for a in self.horner_cols:
            d *= c
            d += a
        d[1] *= c
        np.multiply(c, d[0], out=psi)
        psi += d[1]

    def _memory(self, r: int):
        """Row s = t_r's weights wR = h R(s,.), halved at u = 0 and u = s, and from
        G @ wR: Iq = int R(s,u) nu'(q(u)) du, mu, Hhat and the soft drive."""
        wR = self.grid.trapezoid(r)
        wR *= self.R[r, :r + 1]
        I1, Ipsi, Iq = self.W[1:, :r + 1] @ wR
        sub = self.corr * Iq / self.denom
        memory = self.b2 * (Ipsi - self.psi_qr * sub)
        drift = self.beta * self.q[r] * self.v1_qr
        mu = 0.5 + memory + drift if self.hard else f_prime(self.params, self.K[r])
        return wR, Iq, mu, self.beta * (I1 - self.nu1_qr * sub), 2.0 * (memory + drift)

    def _row(self, r: int):
        """Evaluate row s = t_r once: mu, Hhat, the soft drive, the stacked
        right-hand side F = [F_R; F_C] over columns 0..r, and F_q."""
        m, h = r + 1, self.grid.h
        wR, Iq, mu, hhat, drive = self._memory(r)
        nu2 = self.W[0, :m]
        wa = wR * nu2
        # [int_t^s R(u,t) a(u) du; int_0^s a(u) C(u,t) du], a = R(s,.) nu''(C(s,.)):
        # R(u,t) = 0 for u < t starts the R integral at u = t: halve it there (t > 0)
        F = wa @ self.RC[:, :m, :m]
        F[0, 1:] -= 0.5 * h * (self.R[r, 1:m] * nu2[1:])
        # + int_0^t R(t,u) d(u) du, d = nu'(C(s,u)) - nu'(q(s)) nu'(q(u)) / D
        d = self.W[1, :m] - (self.corr * self.nu1_qr / self.denom) * self.W[3, :m]
        wd = h * d
        wd[0] *= 0.5
        F[1] += self.R[:m, :m] @ wd
        F[1] -= 0.5 * h * d
        F *= self.b2
        F -= mu * self.RC[:, r, :m]
        kq = self.b2 * self.corr * self.nu2_qr / self.denom * Iq
        F[1] += (self.beta * self.v1_qr - kq) * self.q[:m]
        Fq = (-mu * self.q[r] + self.b2 * (wa @ self.q[:m]) - self.qs2 * kq
              + self.beta * self.qs2 * self.v1_qr)
        return mu, hhat, drive, F, Fq

    # -- one row step ---------------------------------------------------------

    def _advance(self, i: int, scale: float, F, Fq) -> None:
        """Rows i+1 of R and C off the diagonal, and q[i+1]: row i + scale F."""
        self.RC[:, i + 1, :i + 1] = self.RC[:, i, :i + 1] + scale * F
        self._refresh(i + 1)
        self._set_q(i + 1, self.q[i] + scale * Fq)

    def _set_diag(self, r: int, k: float) -> None:
        """K[r] = C[r, r] = k, and C's column r mirrors its row r."""
        self.K[r] = k
        self.C[r, r] = k
        self.C[:r, r] = self.C[r, :r]
        self.W[:3, r] = self.one if self.hard else self._nu_at(k)

    def _k_solve(self, base: float, c: float, guess: float) -> float:
        """Newton solve of kappa = base - c f'(kappa) kappa (implicit K update)."""
        conf = self.params.confinement
        kk = 2 * conf.k - 1
        kappa = guess
        for _ in range(50):
            fp = f_prime(self.params, kappa)
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
        K, q = self.K, self.q
        pc_gap = 0.0
        self.mu[0], self.Hhat[0], S_i, F_i, Fq_i = self._row(0)  # Hhat[0] = 0
        for i in range(n):
            # Euler predictor; soft: K* = K_i + h (1 - 2 f'(K*) K* + S_i)
            if self.hard:
                k = 1.0
            else:
                k = self._k_solve(K[i] + h * (1.0 + S_i), 2.0 * h, K[i])
            self._advance(i, h, F_i, Fq_i)
            self._set_diag(i + 1, k)
            F_p, Fq_p = self._row(i + 1)[3:]
            F_p = F_p[:, :i + 1]

            # trapezoid corrector: it moves row i+1 by h/2 (F_p - F_i)
            self._advance(i, 0.5 * h, F_i + F_p, Fq_i + Fq_p)
            pc_gap = max(pc_gap, 0.5 * h * max(np.abs(F_p - F_i).max(),
                                               abs(Fq_p - Fq_i)))
            if not self.hard:
                base = K[i] + 0.5 * h * ((1.0 - 2.0 * self.mu[i] * K[i] + S_i)
                                         + (1.0 + self._memory(i + 1)[4]))
                k = self._k_solve(base, h, k)
            self._set_diag(i + 1, k)
            # row i+1 is final: later rows only write C right of its diagonal
            self.mu[i + 1], self.Hhat[i + 1], S_i, F_i, Fq_i = self._row(i + 1)

            sizes = abs(self.RC[:, i + 1, :i + 2]).max(), abs(q[i + 1]), abs(K[i + 1])
            if not all(size <= _BLOWUP for size in sizes):  # a NaN fails this too
                raise StepUnstable(f"row {i + 1} (s={h * (i + 1):g}): "
                                   f"|value| = {np.max(sizes):g}")

        return TwoTimeBundle(
            grid=self.grid,
            R=self.R, C=self.C, q=q, K=K, mu=self.mu,
            H=self.Hhat + self.v.value(q), Hhat=self.Hhat,
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
