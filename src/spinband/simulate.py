"""Finite-N Langevin dynamics with disorder conditioned at a critical point.

The Hamiltonian is H_J(x) = sum_p b_p sum_{i1<=...<=ip} J_{i1..ip} x_{i1}..x_{ip}
with independent centered Gaussian couplings whose variance carries the
multiplicity correction N^{1-p} p!/prod(l_k!).  The disorder is conditioned on
the critical-point event at x_star = (sqrt(N) q_star, 0, ..., 0):

    H_J(x_star) = -N E_star,   grad H_J(x_star) = -G_star x_star,

which, thanks to the axis alignment, reduces to one 2-constraint Gaussian
update on the all-ones couplings {J^(p)_{1..1}} plus an independent rank-one
update per tangential coordinate on {J^(p)_{1..1,i}}.  Trajectories follow
the Euler-Maruyama discretization of

    dx_t = -f'(|x_t|^2/N) x_t dt - beta grad H_J(x_t) dt + dB_t,

and the empirical covariance, integrated response, special-direction overlap
and energy density are compared against the deterministic two-time limit
through the capped error functional
|C_N-C| ^ 1 + |chi_N-chi| ^ 1 + |q_N-q| ^ 1 + |H_N-H| ^ 1 (sup norms).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import (Blowup, GridMismatch, HardConstraint, RankDeficient,
                     SizeOverflow, ValidationError)
from .model import (Confinement, MixingFunction, ModelParams, f_prime,
                    validate, vstar_build)
from .volterra import TwoTimeBundle, integrated_response

__all__ = [
    "Disorder",
    "SimConfig",
    "Trajectory",
    "EmpiricalBundle",
    "star_point",
    "sample_disorder",
    "condition_disorder",
    "hamiltonian_and_grad",
    "hamiltonian_and_grad_batch",
    "sample_initial",
    "run_langevin",
    "empirical_observables",
    "error_functional",
    "conditional_hessian_spectrum",
]

_DEFAULT_BUDGET = 2 << 30  # bytes of dense coefficient storage


def _multiplicity(idx: tuple) -> int:
    """Number of distinct permutations of an index tuple: p!/prod l_k!."""
    f = 1
    for c in Counter(idx).values():
        f *= math.factorial(c)
    return math.factorial(len(idx)) // f


@dataclass
class Disorder:
    """Dense symmetric coefficient store.

    ``tensors[p]`` holds A^(p) with A[any permutation of i1..ip] =
    J_{sorted tuple} / multiplicity, so contractions against x^{tensor p}
    reproduce the sorted-tuple sum exactly, and J itself is recovered by
    ``coupling``.
    """

    N: int
    coeffs_sq: tuple
    tensors: dict
    conditioned: bool = False

    def active_orders(self):
        return sorted(self.tensors)

    def weight(self, p: int) -> float:
        return math.sqrt(self.coeffs_sq[p - 2])

    def coupling(self, p: int, idx: tuple) -> float:
        """The raw coupling J^(p) at a (not necessarily sorted) index tuple."""
        t = tuple(sorted(idx))
        return float(self.tensors[p][t]) * _multiplicity(t)

    def copy(self) -> "Disorder":
        return Disorder(self.N, self.coeffs_sq,
                        {p: a.copy() for p, a in self.tensors.items()},
                        self.conditioned)


def star_point(N: int, q_star: float) -> np.ndarray:
    """The conditioned critical point x_star = (sqrt(N) q_star, 0, ..., 0)."""
    x = np.zeros(N)
    x[0] = math.sqrt(N) * q_star
    return x


def sample_disorder(N: int, nu: MixingFunction, seed,
                    budget: int = _DEFAULT_BUDGET) -> Disorder:
    """Draw unconditioned disorder for every order with positive weight.

    Sampling an i.i.d. N(0, N^{1-p}) tensor and averaging its index
    permutations yields exactly the sorted-tuple law with the multiplicity
    variance correction (per-orbit variance N^{1-p}/mult for A, hence
    N^{1-p} * mult for J).
    """
    if N < 2:
        raise ValidationError("need N >= 2")
    active = list(nu.active_orders)
    need = sum(8 * N ** p for p in active)
    if need > budget:
        raise SizeOverflow(f"dense store needs {need} bytes > budget {budget}")
    rng = np.random.default_rng(seed)
    tensors = {}
    for p in active:
        if p > 4:
            raise SizeOverflow(f"dense storage supports p <= 4, got {p}")
        std = N ** ((1 - p) / 2.0)
        b = rng.standard_normal((N,) * p) * std
        a = np.zeros_like(b)
        for perm in permutations(range(p)):
            a += b.transpose(perm)
        a /= math.factorial(p)
        tensors[p] = a
    return Disorder(N=N, coeffs_sq=nu.coeffs_sq, tensors=tensors)


def _ones_tuple_slices(p: int):
    """Index expressions selecting A at tuples with one free index, rest 0."""
    out = []
    for pos in range(p):
        idx = [0] * p
        idx[pos] = slice(1, None)
        out.append(tuple(idx))
    return out


def condition_disorder(J: Disorder, params: ModelParams, nu: MixingFunction,
                       tangential_only: bool = False) -> Disorder:
    """Exact Gaussian conditioning on the critical-point event at x_star.

    Returns a new Disorder; the input is left untouched.  With
    ``tangential_only`` just the gradient components i >= 2 are pinned to
    zero (the value/radial pair is left unconditioned) -- that variant is
    what the conditional-covariance identity E[H(x)H(y)] = N Upsilon_N
    refers to.
    """
    N = J.N
    qs = params.q_star
    root = math.sqrt(N) * qs
    active = J.active_orders()
    if not active:
        if params.E_star != 0.0 or params.G_star != 0.0:
            raise ValidationError("zero mixture cannot match nonzero (E, G)")
        return J.copy()
    # fail fast on inconsistent pure data; also used below via its inner form
    vstar_build(nu, qs, params.E_star, params.G_star)
    out = J.copy()
    bp = {p: J.weight(p) for p in active}
    var = {p: float(N) ** (1 - p) for p in active}

    if not tangential_only:
        a_E = np.array([bp[p] * root ** p for p in active])
        a_G = np.array([p * bp[p] * root ** (p - 1) for p in active])
        u = np.array([out.coupling(p, (0,) * p) for p in active])
        vdiag = np.array([var[p] for p in active])
        w_tgt = np.array([-N * params.E_star, -root * params.G_star])
        if len(active) == 1:
            p = active[0]
            u_new = np.array([w_tgt[0] / a_E[0]])
            out.tensors[p][(0,) * p] = u_new[0]  # multiplicity 1
        else:
            A = np.vstack([a_E, a_G])
            S = (A * vdiag) @ A.T
            det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
            if abs(det) <= 1e-14 * max(abs(S[0, 0] * S[1, 1]), 1e-300):
                raise RankDeficient("constraint covariance is singular")
            gap = A @ u - w_tgt
            lam = np.linalg.solve(S, gap)
            u_new = u - vdiag * (A.T @ lam)
            for k, p in enumerate(active):
                out.tensors[p][(0,) * p] = u_new[k]

    # tangential block: for each i >= 2 the constraint
    # sum_p b_p root^{p-1} J^(p)_{1..1,i} = 0, with Var(J) = p N^{1-p}
    a_T = {p: bp[p] * root ** (p - 1) for p in active}
    denom = sum(var[p] * p * a_T[p] ** 2 for p in active)
    if denom <= 0:
        raise RankDeficient("tangential constraint has zero variance")
    g_cur = np.zeros(N - 1)
    for p in active:
        g_cur += a_T[p] * p * out.tensors[p][(0,) * (p - 1) + (slice(1, None),)]
    for p in active:
        j_vec = p * out.tensors[p][(0,) * (p - 1) + (slice(1, None),)]
        j_new = j_vec - (var[p] * p * a_T[p] / denom) * g_cur
        a_val = j_new / p
        for sl in _ones_tuple_slices(p):
            out.tensors[p][sl] = a_val
    out.conditioned = True
    return out


def hamiltonian_and_grad(J: Disorder, x: np.ndarray):
    """(H_J(x), grad H_J(x)) by dense symmetric contraction."""
    H, g = hamiltonian_and_grad_batch(J, x[None, :])
    return float(H[0]), g[0]


def hamiltonian_and_grad_batch(J: Disorder, X: np.ndarray):
    """Vectorized over rows of X: returns (H values (R,), gradients (R, N)).

    For the symmetrized tensor A the order-p piece is <A, x^tensor p> with
    gradient p * (A contracted p-1 times against x).
    """
    X = np.asarray(X, dtype=float)
    R, N = X.shape
    H = np.zeros(R)
    grad = np.zeros((R, N))
    for p in J.active_orders():
        b = J.weight(p)
        A = J.tensors[p]
        if p == 2:
            V = X @ A
        elif p == 3:
            W = (A.reshape(N * N, N) @ X.T).reshape(N, N, R)
            V = np.einsum("ijr,rj->ri", W, X)
        else:  # p == 4
            W = (A.reshape(N ** 3, N) @ X.T).reshape(N, N, N, R)
            W2 = np.einsum("ijkr,rk->ijr", W, X)
            V = np.einsum("ijr,rj->ri", W2, X)
        H += b * np.einsum("ri,ri->r", V, X)
        grad += (b * p) * V
    return H, grad


def sample_initial(N: int, q_star: float, q_o: float, seed) -> np.ndarray:
    """Uniform draw from the band {x on the sphere of radius sqrt(N) :
    <x, x_star>/N = q_o}: the first coordinate is pinned, the rest uniform
    on the residual sphere."""
    return _initial_from_rng(np.random.default_rng(seed), N, q_star, q_o)


def _initial_from_rng(rng, N, q_star, q_o):
    if abs(q_o) > q_star:
        raise ValidationError("|q_o| cannot exceed q_star")
    x = np.empty(N)
    x[0] = math.sqrt(N) * q_o / q_star
    rad2 = N * (1.0 - (q_o / q_star) ** 2)
    g = rng.standard_normal(N - 1)
    nrm = float(g @ g)
    if rad2 <= 0.0 or nrm == 0.0:
        x[1:] = 0.0
        return x
    x[1:] = g * math.sqrt(rad2 / nrm)
    return x


@dataclass(frozen=True)
class SimConfig:
    N: int
    dt: float
    T: float
    seed: int
    replicas: int = 8
    snap_stride: int = 1
    confinement: Confinement | None = None  # None = take it from the params

    def __post_init__(self):
        if self.N < 2:
            raise ValidationError("need N >= 2")
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
            raise ValidationError("T must be an integer multiple of dt")
        if round(steps) % self.snap_stride != 0:
            raise ValidationError("snapshot stride must divide the step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class Trajectory:
    times: np.ndarray        # (S+1,)
    X: np.ndarray            # (S+1, R, N) snapshots of the state
    B: np.ndarray            # (S+1, R, N) accumulated Brownian increments
    K: np.ndarray            # (S+1, R)    radial observable |x|^2/N
    config: SimConfig
    params: ModelParams


def run_langevin(J: Disorder, params: ModelParams, config: SimConfig,
                 noise: np.ndarray | None = None) -> Trajectory:
    """Euler-Maruyama integration with per-replica generators.

    Replica r draws its own stream seeded by (config.seed, r); the initial
    point is drawn from the same stream before stepping, so two runs with
    equal seeds share noise realizations exactly.

    ``noise``, when given, must hold the Brownian increments for every step,
    shape (n_steps, replicas, N); the per-replica generators then only supply
    the initial points.  This is what makes step-size refinement studies on a
    single fixed Brownian path possible: sum fine increments pairwise to get
    the coarse ones.
    """
    conf = config.confinement if config.confinement is not None else params.confinement
    if conf.kind != "soft":
        raise HardConstraint("finite-N runs need a soft confinement")
    prm = validate(ModelParams(beta=params.beta, q_star=params.q_star,
                               q_o=params.q_o, E_star=params.E_star,
                               G_star=params.G_star, confinement=conf),
                   MixingFunction(J.coeffs_sq))
    N, R = config.N, config.replicas
    if J.N != N:
        raise ValidationError("disorder size does not match config.N")
    dt = config.dt
    sq = math.sqrt(dt)
    if noise is not None and noise.shape != (config.n_steps, R, N):
        raise ValidationError(f"noise must have shape {(config.n_steps, R, N)}")
    rngs = [np.random.default_rng((config.seed, r)) for r in range(R)]
    X = np.stack([_initial_from_rng(rngs[r], N, prm.q_star, prm.q_o)
                  for r in range(R)])
    B = np.zeros((R, N))
    n_snap = config.n_steps // config.snap_stride
    times = np.arange(n_snap + 1) * (config.snap_stride * dt)
    Xs = np.empty((n_snap + 1, R, N))
    Bs = np.empty((n_snap + 1, R, N))
    Ks = np.empty((n_snap + 1, R))
    Xs[0], Bs[0] = X, B
    Ks[0] = np.einsum("ri,ri->r", X, X) / N
    beta = prm.beta
    for step in range(1, config.n_steps + 1):
        K = np.einsum("ri,ri->r", X, X) / N
        if not np.all(np.isfinite(K)) or K.max() > 1e6:
            raise Blowup(f"radial blow-up at step {step}: K = {K.max():g}")
        _, grad = hamiltonian_and_grad_batch(J, X)
        drift = -f_prime(prm, K)[:, None] * X - beta * grad
        if noise is None:
            inc = np.stack([rngs[r].standard_normal(N) for r in range(R)]) * sq
        else:
            inc = noise[step - 1]
        X = X + dt * drift + inc
        B = B + inc
        if step % config.snap_stride == 0:
            k = step // config.snap_stride
            Xs[k], Bs[k] = X, B
            Ks[k] = np.einsum("ri,ri->r", X, X) / N
    return Trajectory(times=times, X=Xs, B=Bs, K=Ks, config=config, params=prm)


@dataclass
class EmpiricalBundle:
    times: np.ndarray
    C: np.ndarray       # (R, S+1, S+1) per replica
    chi: np.ndarray     # (R, S+1, S+1)
    q: np.ndarray       # (R, S+1)
    H: np.ndarray       # (R, S+1)
    C_avg: np.ndarray
    chi_avg: np.ndarray
    q_avg: np.ndarray
    H_avg: np.ndarray


def empirical_observables(traj: Trajectory, sigma: np.ndarray,
                          J: Disorder) -> EmpiricalBundle:
    """C_N, chi_N, q_N, H_N per replica plus their replica averages."""
    S1, R, N = traj.X.shape
    C = np.einsum("sri,tri->rst", traj.X, traj.X) / N
    chi = np.einsum("sri,tri->rst", traj.X, traj.B) / N
    q = np.einsum("sri,i->rs", traj.X, sigma) / N
    H = np.empty((R, S1))
    for s in range(S1):
        hv, _ = hamiltonian_and_grad_batch(J, traj.X[s])
        H[:, s] = -hv / N
    return EmpiricalBundle(times=traj.times, C=C, chi=chi, q=q, H=H,
                           C_avg=C.mean(axis=0), chi_avg=chi.mean(axis=0),
                           q_avg=q.mean(axis=0), H_avg=H.mean(axis=0))


def _snap_indices(times: np.ndarray, limit: TwoTimeBundle) -> np.ndarray:
    h = limit.grid.h
    idx = np.rint(times / h).astype(int)
    if np.any(idx < 0) or np.any(idx > limit.grid.n) or \
            np.any(np.abs(idx * h - times) > 1e-9):
        raise GridMismatch("snapshot times do not sit on the limit grid")
    return idx


def error_functional(emp: EmpiricalBundle, limit: TwoTimeBundle,
                     per_replica: bool = False):
    """Capped sup-norm discrepancy between empirical and limiting dynamics.

    Replica-averaged by default (the error of the averaged observables);
    with ``per_replica`` an array of one value per replica is returned.
    """
    idx = _snap_indices(emp.times, limit)
    Cl = limit.C[np.ix_(idx, idx)]
    chil = integrated_response(limit.R, limit.grid.h)[np.ix_(idx, idx)]
    ql = limit.q[idx]
    Hl = limit.H[idx]

    def err(Ce, chie, qe, He):
        return (min(np.abs(Ce - Cl).max(), 1.0)
                + min(np.abs(chie - chil).max(), 1.0)
                + min(np.abs(qe - ql).max(), 1.0)
                + min(np.abs(He - Hl).max(), 1.0))

    if per_replica:
        return np.array([err(emp.C[r], emp.chi[r], emp.q[r], emp.H[r])
                         for r in range(emp.C.shape[0])])
    return err(emp.C_avg, emp.chi_avg, emp.q_avg, emp.H_avg)


def conditional_hessian_spectrum(N: int, nu: MixingFunction, q_star: float,
                                 G_star: float, seed) -> np.ndarray:
    """Sorted eigenvalues of the conditioned tangential Hessian model.

    An (N-1)-dimensional GOE (Var 1/(N-1) off-diagonal, 2/(N-1) diagonal),
    scaled by sqrt(nu''(q_star^2) (N-1)/N) and shifted by G_star; positive
    definite with high probability iff G_star exceeds 2 sqrt(nu''(q_star^2)).
    """
    rng = np.random.default_rng(seed)
    n = N - 1
    B = rng.standard_normal((n, n))
    S = (B + B.T) / math.sqrt(2.0 * n)
    scale = math.sqrt(nu.nu(q_star * q_star, 2) * n / N)
    return np.sort(G_star + scale * np.linalg.eigvalsh(S))
