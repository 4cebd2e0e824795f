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
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (Blowup, HardConstraint, RankDeficient, SizeOverflow,
                     ValidationError)
from .model import MixingFunction, ModelParams, f_prime, validate, vstar_build
from .volterra import TwoTimeBundle, _cumtrapz

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
    "limit_at_snapshots",
    "error_functional",
    "conditional_hessian_spectrum",
]

_BUDGET = 2 << 30  # bytes of couplings while sampling, and of snapshots
_NOISE_BLOCK = 32  # steps of Brownian increments drawn per generator call
_ROW_BLOCK = 1 << 14  # most store entries ranked per block while sampling
_OBS_BLOCK = 32  # snapshot rows of C per einsum in empirical_observables


def _multiplicity(idx: tuple) -> int:
    """Number of distinct permutations of an index tuple: p!/prod l_k!."""
    f = 1
    for c in Counter(idx).values():
        f *= math.factorial(c)
    return math.factorial(len(idx)) // f


@dataclass
class Disorder:
    """The couplings, stored as the gradient kernel reads them.

    A^(p) is the symmetric tensor with A[any permutation of t] = J_t/mult(t)
    for each sorted index tuple t, so contractions against x^{tensor p}
    reproduce the sorted-tuple sum, and J itself is recovered by
    ``coupling``.  ``tensors[2]`` is A^(2), dense.  For p >= 3,
    ``tensors[p]`` is A^(p)'s cyclic-pair store: one row per first p-2
    indices (flattened), one column per pair (j, d), j = 0..N-1,
    d = 0..N//2, holding A[..., j, (j+d) mod N].  A is symmetric in its
    last two indices, so the pair at cyclic distance N-d is the one at d
    read from the other end, and the store holds about half of A's N^p
    entries; at even N the columns at d = N//2 hold each such pair twice,
    once from each end.  ``folds`` holds the kernel's workspace per (R, N),
    built on first use, so a run builds it once; kernel calls on one
    Disorder share it, so they must not run at the same time in different
    threads.
    """

    N: int
    coeffs_sq: tuple
    tensors: dict
    conditioned: bool = False
    folds: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def active_orders(self):
        return sorted(self.tensors)

    def weight(self, p: int) -> float:
        return math.sqrt(self.coeffs_sq[p - 2])

    def coupling(self, p: int, idx: tuple) -> float:
        """The raw coupling J^(p) at a (not necessarily sorted) index tuple."""
        if len(idx) != p or not all(0 <= i < self.N for i in idx):
            raise ValidationError(f"need {p} indices in 0..{self.N - 1}")
        at = _position(self.N, np.array(idx)[:, None])
        return float(self.tensors[p].flat[at[0]]) * _multiplicity(idx)

    def copy(self) -> "Disorder":
        return Disorder(self.N, self.coeffs_sq,
                        {p: a.copy() for p, a in self.tensors.items()},
                        self.conditioned)

    def fold(self, X: np.ndarray) -> "_Fold":
        """The kernel's workspace for X's shape, loaded with X."""
        if X.shape not in self.folds:
            self.folds[X.shape] = _Fold(*X.shape)
        fold = self.folds[X.shape]
        fold.load(X)
        return fold


def _position(N: int, idx: np.ndarray) -> np.ndarray:
    """Flat positions in ``tensors[p]`` of A at the index tuples idx, shape
    (p, n).  For p >= 3 a tuple (..., j, k) with (k - j) mod N > N//2 is
    read as (..., k, j), the same entry of A, which the store holds."""
    p = idx.shape[0]
    if p == 2:
        return idx[0] * N + idx[1]
    *head, j, k = idx
    D = N // 2
    d = (k - j) % N
    j, d = np.where(d <= D, j, k), np.minimum(d, N - d)
    return (np.ravel_multi_index(head, (N,) * (p - 2)) * N + j) * (D + 1) + d


def star_point(N: int, q_star: float) -> np.ndarray:
    """The conditioned critical point x_star = (sqrt(N) q_star, 0, ..., 0)."""
    x = np.zeros(N)
    x[0] = math.sqrt(N) * q_star
    return x


def _coupling_bytes(N: int, orders) -> int:
    """Bytes sampling holds at its peak: every order's store, plus the
    largest draw (N^2 values at p = 2, one per sorted tuple for p >= 3)."""
    stores = sum(N * N if p == 2 else N ** (p - 1) * (N // 2 + 1)
                 for p in orders)
    draw = max((N * N if p == 2 else math.comb(N + p - 1, p) for p in orders),
               default=0)
    return 8 * (stores + draw)


def _snapshot_bytes(config: SimConfig) -> int:
    """Bytes a run's snapshots and observables hold: the X and B snapshots
    (S x R x N each) and C and chi per replica plus their averages
    ((R + 1) x S x S each), for S snapshots of R replicas."""
    S, R = config.n_steps // config.snap_stride + 1, config.replicas
    return 8 * (2 * S * R * config.N + 2 * (R + 1) * S * S)


def sample_disorder(N: int, nu: MixingFunction, seed) -> Disorder:
    """Draw unconditioned disorder for every order with positive weight.

    The orders draw from one generator, ascending.  Order 2 scales an
    i.i.d. N x N draw by N^{-1/2} and stores (b + b^T)/2.  Each order
    p >= 3 takes one N(0, 1) draw per sorted index tuple t, in colex order
    (rank sum_m C(t_m + m, m + 1)), scales it by sqrt(N^{1-p}/mult(t)) and
    gathers it into the store position of every permutation of t.  That is
    the law of the permutation mean of an i.i.d. N(0, N^{1-p}) tensor: the
    sorted-tuple law with the multiplicity variance correction (variance
    N^{1-p}/mult for A, hence N^{1-p} mult for J).  Raises SizeOverflow
    when the stores and the largest draw together need more than 2 GiB:
    that is the coupling peak of a whole run.
    """
    if N < 2:
        raise ValidationError("need N >= 2")
    active = list(nu.active_orders)
    need = _coupling_bytes(N, active)
    if need > _BUDGET:
        raise SizeOverflow(f"couplings need {need} bytes > budget {_BUDGET}")
    rng = np.random.default_rng(seed)
    tensors = {}
    for p in active:
        if p == 2:
            b = rng.standard_normal((N, N))
            b *= N ** ((1 - p) / 2.0)
            tensors[p] = b + b.T
            tensors[p] /= 2
        else:
            tensors[p] = _sample_store(rng, N, p)
    return Disorder(N=N, coeffs_sq=nu.coeffs_sq, tensors=tensors)


def _sample_store(rng, N: int, p: int) -> np.ndarray:
    """The cyclic-pair store of an order-p >= 3 draw (see sample_disorder).

    Each block of store rows sorts its entries' index tuples by
    compare-exchanges (np.minimum/np.maximum): the row's p-2 indices are
    sorted once, then the column's pair (lo, hi) is inserted, lo and then
    hi moving down past every larger index.  The sorted tuple t gives the
    rank sum_a C(t_a + a, a + 1), and its runs of equal indices give
    prod l_k! for mult(t) = p!/prod l_k!: the a-th copy of an index
    multiplies by a.
    """
    w = rng.standard_normal(math.comb(N + p - 1, p))
    D = N // 2
    K = N * (D + 1)
    j = np.arange(K) // (D + 1)
    k = (j + np.arange(K) % (D + 1)) % N
    lo, hi = np.minimum(j, k), np.maximum(j, k)
    # rank term of index v at sorted place a, C(v + a, a + 1), at a N + v
    T = np.array([math.comb(v + a, a + 1) for a in range(p) for v in range(N)])
    S = np.empty((N ** (p - 2), K))
    step = max(1, _ROW_BLOCK // K)
    for i in range(0, S.shape[0], step):
        rows = np.arange(i, min(i + step, S.shape[0]))
        head = np.sort(np.unravel_index(rows, (N,) * (p - 2)), axis=0)
        t = [*head[:, :, None], lo, hi]
        for m in (p - 2, p - 1):  # insert lo, then hi
            for a in range(m - 1, -1, -1):
                t[a], t[a + 1] = np.minimum(t[a], t[a + 1]), np.maximum(t[a], t[a + 1])
        rank = sum(T[a * N + v] for a, v in enumerate(t))
        run = ties = 1
        for a in range(1, p):
            run = run * (t[a] == t[a - 1]) + 1
            ties = ties * run
        mult = math.factorial(p) / ties
        np.multiply(w[rank], np.sqrt(N ** (1 - p) / mult),
                    out=S[i:i + rows.size])
    return S


def condition_disorder(J: Disorder, params: ModelParams,
                       tangential_only: bool = False) -> Disorder:
    """Exact Gaussian conditioning on the critical-point event at x_star.

    The mixture is J's own (``J.coeffs_sq``).  Conditions J in place and
    returns it: only the lines through index (0, ..., 0) change, so a
    caller that drops the unconditioned draw holds one copy of the
    couplings, not two.  A caller that still needs the unconditioned draw
    passes ``J.copy()``.  With ``tangential_only`` just the gradient
    components i >= 2 are pinned to zero (the value/radial pair is left
    unconditioned) -- that variant is what the conditional-covariance
    identity E[H(x)H(y)] = N Upsilon_N refers to.
    """
    N = J.N
    qs = params.q_star
    root = math.sqrt(N) * qs
    active = J.active_orders()
    if not active:
        if params.E_star != 0.0 or params.G_star != 0.0:
            raise ValidationError("zero mixture cannot match nonzero (E, G)")
        return J
    # fail fast on inconsistent pure data
    vstar_build(MixingFunction(J.coeffs_sq), qs, params.E_star, params.G_star)
    bp = {p: J.weight(p) for p in active}
    var = {p: float(N) ** (1 - p) for p in active}

    if not tangential_only:
        a_E = np.array([bp[p] * root ** p for p in active])
        a_G = np.array([p * bp[p] * root ** (p - 1) for p in active])
        # J at (0, ..., 0) is A there (multiplicity 1), the first entry
        # of either layout
        u = np.array([J.tensors[p].flat[0] for p in active])
        vdiag = np.array([var[p] for p in active])
        w_tgt = np.array([-N * params.E_star, -root * params.G_star])
        if len(active) == 1:
            u_new = np.array([w_tgt[0] / a_E[0]])
        else:
            A = np.vstack([a_E, a_G])
            S = (A * vdiag) @ A.T
            det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
            if abs(det) <= 1e-14 * max(abs(S[0, 0] * S[1, 1]), 1e-300):
                raise RankDeficient("constraint covariance is singular")
            gap = A @ u - w_tgt
            lam = np.linalg.solve(S, gap)
            u_new = u - vdiag * (A.T @ lam)
        for p, value in zip(active, u_new):
            J.tensors[p].flat[0] = value

    # tangential block: for each i >= 2 the constraint
    # sum_p b_p root^{p-1} J^(p)_{1..1,i} = 0, with Var(J) = p N^{1-p}
    a_T = {p: bp[p] * root ** (p - 1) for p in active}
    denom = sum(var[p] * p * a_T[p] ** 2 for p in active)
    if denom <= 0:
        raise RankDeficient("tangential constraint has zero variance")
    # row m: positions of A at (0, ..., 0, i, 0, ..., 0), i = 1..N-1 at place m
    lines = {}
    for p in active:
        idx = np.zeros((p, p, N - 1), dtype=int)
        idx[np.arange(p), np.arange(p)] = np.arange(1, N)
        lines[p] = _position(N, idx.reshape(p, -1)).reshape(p, N - 1)
    g_cur = np.zeros(N - 1)
    for p in active:
        g_cur += a_T[p] * p * J.tensors[p].flat[lines[p][-1]]
    for p in active:
        j_vec = p * J.tensors[p].flat[lines[p][-1]]
        j_new = j_vec - (var[p] * p * a_T[p] / denom) * g_cur
        a_val = j_new / p
        for at in lines[p]:
            J.tensors[p].flat[at] = a_val
    J.conditioned = True
    return J


class _Fold:
    """Folds the left product Y = L @ S back into the gradient.

    With L = x^{tensor (p-2)} (X itself for p = 3) and S the pair store,
    Y[r, (j, d)] = U[j, (j+d) mod N] for the symmetric U = A contracted
    p-2 times against x, and the kernel needs V_m = sum_k U[m, k] x_k.
    With D = N//2 and E = N - D - 1, row m of V reads its pairs at
    distance d = 0..D from Y's row m, and those at distance N - e,
    e = 1..E, from row m - e, column e: each part is one einsum over
    strided views.  The product is written into a buffer with E wrap rows
    above it, which take a copy of its last E rows, and X into one that
    carries its cyclic ends, so no view needs a modulus.
    """

    def __init__(self, R: int, N: int):
        D, E = N // 2, N - N // 2 - 1
        W = D + 1
        self.E = E
        buf = np.empty((R, (E + N) * W))
        self.xs = np.empty((R, E + N + D))  # x_{N-E..N-1}, x, x_{0..D-1}
        f = buf.itemsize
        self.Y = buf[:, E * W:]
        self.wrap, self.tail = buf[:, :E * W], buf[:, N * W:]
        bs, xs = buf.strides[0], self.xs.strides[0]
        self.near = (self.Y.reshape(R, N, W),
                     as_strided(self.xs[:, E:], (R, N, W), (xs, f, f)))
        # column e' + 1 of row E + m - e' - 1: a step of W - 1 back per e'
        self.far = (as_strided(buf[:, (E - 1) * W + 1:], (R, N, E),
                               (bs, W * f, -D * f)),
                    as_strided(self.xs[:, E - 1:], (R, N, E), (xs, f, -f))
                    ) if E else None

    def load(self, X: np.ndarray) -> None:
        N, E = X.shape[1], self.E
        self.xs[:, E:E + N] = X
        self.xs[:, :E] = X[:, N - E:]
        self.xs[:, E + N:] = X[:, :N // 2]

    def __call__(self, L: np.ndarray, S: np.ndarray) -> np.ndarray:
        """V = (L @ S) folded, shape (R, N)."""
        np.matmul(L, S, out=self.Y)
        V = np.einsum("rmd,rmd->rm", *self.near)
        if self.far is not None:
            self.wrap[...] = self.tail
            V += np.einsum("rme,rme->rm", *self.far)
        return V


def hamiltonian_and_grad(J: Disorder, x: np.ndarray):
    """(H_J(x), grad H_J(x)) through the cyclic-pair kernel."""
    H, g = hamiltonian_and_grad_batch(J, x[None, :])
    return float(H[0]), g[0]


def hamiltonian_and_grad_batch(J: Disorder, X: np.ndarray):
    """Vectorized over rows of X: returns (H values (R,), gradients (R, N)).

    For the symmetric tensor A the order-p piece is <A, x^tensor p> with
    gradient p * V, V = A contracted p-1 times against x.  The order-2
    piece is one product X @ A.  For p >= 3 the left product of
    x^{tensor (p-2)} (one row per row of X) against the cyclic-pair store
    contracts A's first p-2 indices, and _Fold contracts the last one from
    the pairs it holds, in J's workspace for X's shape.  J's couplings
    are only read.
    """
    X = np.asarray(X, dtype=float)
    R, N = X.shape
    H = np.zeros(R)
    grad = np.zeros((R, N))
    for p in J.active_orders():
        b = J.weight(p)
        if p == 2:
            V = X @ J.tensors[p]
        else:
            L = X
            for _ in range(p - 3):
                L = (L[:, :, None] * X[:, None, :]).reshape(R, -1)
            V = J.fold(X)(L, J.tensors[p])
        H += b * np.einsum("ri,ri->r", V, X)
        V *= b * p
        grad += V
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
    replicas: int = 4
    snap_stride: int = 1

    def __post_init__(self):
        if self.N < 2:
            raise ValidationError("need N >= 2")
        if not 0 < self.dt < math.inf:
            raise ValidationError("dt must be positive and finite")
        if not 0 < self.T < math.inf:
            raise ValidationError("T must be positive and finite")
        if self.replicas < 1 or self.snap_stride < 1:
            raise ValidationError("need replicas >= 1 and snap_stride >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)):
            raise ValidationError("T must be an integer multiple of dt")
        if round(steps) % self.snap_stride != 0:
            raise ValidationError("snapshot stride must divide the step count")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def times(self) -> np.ndarray:  # the snapshot times, 0 through T
        return np.arange(self.n_steps // self.snap_stride + 1) * (self.snap_stride * self.dt)


@dataclass
class Trajectory:
    times: np.ndarray        # (S+1,)
    X: np.ndarray            # (S+1, R, N) snapshots of the state
    B: np.ndarray            # (S+1, R, N) accumulated Brownian increments
    K: np.ndarray            # (S+1, R)    radial observable |x|^2/N
    H: np.ndarray            # (S+1, R)    energy density -H_J(x)/N
    config: SimConfig
    params: ModelParams


def run_langevin(J: Disorder, params: ModelParams, config: SimConfig,
                 noise: np.ndarray | None = None) -> Trajectory:
    """Euler-Maruyama integration with per-replica generators.

    Replica r draws its own stream seeded by (config.seed, r); the initial
    point is drawn from the same stream before stepping, so two runs with
    equal seeds share noise realizations exactly.  Increments are drawn in
    blocks of _NOISE_BLOCK steps per replica, equal to one draw per step,
    each straight into the replica's row of one preallocated buffer.  X and
    B are updated in place.

    ``noise``, when given, must hold the Brownian increments for every step,
    shape (n_steps, replicas, N); the per-replica generators then only supply
    the initial points.  This is what makes step-size refinement studies on a
    single fixed Brownian path possible: sum fine increments pairwise to get
    the coarse ones.

    H comes from the run's own gradient calls, n_steps + 1 of them.  J's
    couplings are only read: the kernel contracts its stores as they are.
    """
    if params.confinement.kind != "soft":
        raise HardConstraint("finite-N runs need a soft confinement")
    prm = validate(params, MixingFunction(J.coeffs_sq))
    N, R = config.N, config.replicas
    if J.N != N:
        raise ValidationError("disorder size does not match config.N")
    dt = config.dt
    if noise is not None and noise.shape != (config.n_steps, R, N):
        raise ValidationError(f"noise must have shape {(config.n_steps, R, N)}")
    rngs = [np.random.default_rng((config.seed, r)) for r in range(R)]
    X = np.stack([_initial_from_rng(rngs[r], N, prm.q_star, prm.q_o)
                  for r in range(R)])
    B = np.zeros((R, N))
    times = config.times()
    Xs = np.empty((times.size, R, N))
    Bs = np.empty((times.size, R, N))
    Ks = np.empty((times.size, R))
    Hs = np.empty((times.size, R))
    beta = prm.beta
    if noise is None:
        block = np.empty((R, _NOISE_BLOCK, N))
        incs = block.transpose(1, 0, 2)  # step-major, as ``noise`` is
    drift = np.empty((R, N))
    for step in range(config.n_steps + 1):
        K = np.einsum("ri,ri->r", X, X) / N
        if not K.max() <= 1e6:  # a NaN fails the comparison too
            raise Blowup(f"radial blow-up after step {step}: "
                         f"K = {K.max():g}")
        Hv, grad = hamiltonian_and_grad_batch(J, X)
        if step % config.snap_stride == 0:
            k = step // config.snap_stride
            Xs[k], Bs[k], Ks[k], Hs[k] = X, B, K, -Hv / N
        if step == config.n_steps:
            break
        j = step % _NOISE_BLOCK
        if j == 0:
            if noise is None:
                for g, out in zip(rngs, block):
                    g.standard_normal(out=out)
                block *= math.sqrt(dt)
            else:
                incs = noise[step:step + _NOISE_BLOCK]
        # X + dt (-f'(K) X - beta grad) + dB, rounded in that order
        np.multiply(-f_prime(prm, K)[:, None], X, out=drift)
        grad *= beta
        drift -= grad
        drift *= dt
        X += drift
        X += incs[j]
        B += incs[j]
    return Trajectory(times=times, X=Xs, B=Bs, K=Ks, H=Hs, config=config,
                      params=prm)


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


def empirical_observables(traj: Trajectory) -> EmpiricalBundle:
    """C_N, chi_N, q_N, H_N per replica plus their replica averages; q_N is
    the overlap with the run's conditioning point x_star."""
    N = traj.X.shape[2]
    C, chi = _replica_products(traj.X, traj.B)
    C /= N
    chi /= N
    sigma = star_point(N, traj.params.q_star)
    q = np.einsum("sri,i->rs", traj.X, sigma) / N
    H = traj.H.T.copy()  # row-major, so H.mean(axis=0) sums replicas in order
    return EmpiricalBundle(times=traj.times, C=C, chi=chi, q=q, H=H,
                           C_avg=C.mean(axis=0), chi_avg=chi.mean(axis=0),
                           q_avg=q.mean(axis=0), H_avg=H.mean(axis=0))


def _replica_products(X: np.ndarray, B: np.ndarray):
    """Per replica r, C[r] = X_r X_r^T and chi[r] = X_r B_r^T over snapshots.

    Each replica's X and B are copied out once, contiguous, and every
    product is a two-operand einsum over them: no BLAS, so the bytes do not
    depend on the thread count.  C is symmetric bitwise (each entry sums
    the same products in the same order), so only its lower triangle is
    computed, _OBS_BLOCK rows at a time, and each block is mirrored.  Both
    keep the replica axis innermost, as the three-operand einsum
    "sri,tri->rst" lays its result out, so their replica means sum in the
    order that einsum's result does.
    """
    S, R, N = X.shape
    C = np.empty((S, S, R)).transpose(2, 0, 1)
    chi = np.empty((S, S, R)).transpose(2, 0, 1)
    x, b = np.empty((S, N)), np.empty((S, N))
    for r in range(R):
        x[...], b[...] = X[:, r], B[:, r]
        # fresh contiguous results, copied in: an einsum into a strided
        # out= sums in another order
        chi[r] = np.einsum("si,ti->st", x, b)
        for lo in range(0, S, _OBS_BLOCK):
            hi = min(lo + _OBS_BLOCK, S)
            rows = np.einsum("si,ti->st", x[lo:hi], x[:hi])
            C[r, lo:hi, :hi] = rows
            C[r, :hi, lo:hi] = rows.T
    return C, chi


def limit_at_snapshots(times: np.ndarray, limit: TwoTimeBundle):
    """(C, chi, q, H) of a limit solve at the snapshot times.

    chi(s, t) = int_0^{min(s,t)} R(s, u) du is the cumulative trapezoid of
    the snapshot rows of R only, read at min(s, t), with the bits of
    integrated_response and no (n+1)^2 temporary.
    """
    idx = limit.grid.index_of(times)
    cum = _cumtrapz(limit.R[idx], limit.grid.h)
    chi = np.empty((idx.size, idx.size))
    for a, i in enumerate(idx):
        np.take(cum[a], np.minimum(idx, i), out=chi[a])
    return limit.C[np.ix_(idx, idx)], chi, limit.q[idx], limit.H[idx]


def error_functional(emp: EmpiricalBundle, limit, per_replica: bool = False):
    """Capped sup-norm discrepancy between empirical and limiting dynamics.

    Replica-averaged by default (the error of the averaged observables);
    with ``per_replica`` an array of one value per replica is returned.
    ``limit`` is the TwoTimeBundle of the limit solve, or the
    limit_at_snapshots(emp.times, bundle) tuple that a caller taking both
    forms builds once.
    """
    if isinstance(limit, TwoTimeBundle):
        limit = limit_at_snapshots(emp.times, limit)
    Cl, chil, ql, Hl = limit

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
