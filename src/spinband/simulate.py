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

from .errors import GridMismatch, SizeOverflow, StepUnstable, ValidationError
from .model import (_BUDGET, _OBS_BLOCK, MixingFunction, ModelParams,
                    SimConfig, f_prime, validate, vstar_build)
from .volterra import TwoTimeBundle, _cumtrapz

__all__ = [
    "Disorder",
    "Trajectory",
    "EmpiricalBundle",
    "star_point",
    "sample_disorder",
    "condition_disorder",
    "hamiltonian_and_grad_batch",
    "run_langevin",
    "empirical_observables",
    "limit_at_snapshots",
    "error_functional",
    "conditional_hessian_spectrum",
]

_NOISE_BLOCK = 32  # steps of Brownian increments drawn per generator call
_ROW_BLOCK = 1 << 14  # most store entries ranked per block while sampling


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
                        {p: a.copy() for p, a in self.tensors.items()})

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
    """Bytes a run's couplings need at their peak: every order's store,
    plus the larger of the largest draw while sampling (N^2 values at
    p = 2, one per sorted tuple for p >= 3) and, for a quadratic mixture,
    what run_langevin's eigenframe holds while eigh runs: Q and eigh's copy
    of A (N^2 each), two sets of N eigenvalues, and LAPACK dsyevd's
    workspace of 2N^2 + 6N + 1 floats and 5N + 3 integers."""
    stores = sum(N * N if p == 2 else N ** (p - 1) * (N // 2 + 1)
                 for p in orders)
    draw = max((N * N if p == 2 else math.comb(N + p - 1, p) for p in orders),
               default=0)
    frame = 4 * N * N + 13 * N + 4 if list(orders) == [2] else 0
    return 8 * (stores + max(draw, frame))


def sample_disorder(N: int, nu: MixingFunction, seed) -> Disorder:
    """Draw unconditioned disorder for every order with positive weight.

    The orders draw from one generator, ascending.  Order 2 scales an
    i.i.d. N x N draw by N^{-1/2} and stores (b + b^T)/2.  Each order
    p >= 3 takes one N(0, 1) draw per sorted index tuple t, in colex order
    (rank sum_m C(t_m + m, m + 1)), scales it by sqrt(N^{1-p}/mult(t)) and
    gathers it into the store position of every permutation of t.  That is
    the law of the permutation mean of an i.i.d. N(0, N^{1-p}) tensor: the
    sorted-tuple law with the multiplicity variance correction (variance
    N^{1-p}/mult for A, hence N^{1-p} mult for J).  Raises SizeOverflow,
    before drawing, when the couplings of a whole run need more than 2 GiB
    at their peak (see _coupling_bytes): the stores plus the largest draw,
    or for a quadratic mixture the store plus run_langevin's eigenframe.
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
                raise ValidationError("constraint covariance is singular")
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
        raise ValidationError("tangential constraint has zero variance")
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


def _initial_from_rng(rng, N, q_star, q_o):
    """Uniform draw from the band {x on the sphere of radius sqrt(N) :
    <x, x_star>/N = q_o}: the first coordinate is pinned, the rest uniform
    on the residual sphere, from the next N - 1 normals of ``rng``."""
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

    A quadratic mixture with beta > 0 steps in the eigenframe of its
    couplings: with A = Q diag(lam) Q^T (one eigh) the state is Y = X Q,
    the gradient is 2 b lam * Y and the energy b sum lam y^2, so no step
    multiplies by A.  Each block of increments is rotated into the frame by
    one product, B is summed from the increments as drawn, snapshot 0 is
    the drawn initial point, and the later X snapshots are rotated back
    after the run, K taken from them.  Any other run takes H and the
    gradient from hamiltonian_and_grad_batch, n_steps + 1 calls.  J's
    couplings are only read.
    """
    if params.confinement.kind != "soft":
        raise ValidationError("finite-N runs need a soft confinement")
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
    beta = prm.beta
    # at beta = 0 there is no landscape drift to diagonalise
    frame = beta > 0 and J.active_orders() == [2]
    if frame:
        lam, Q = np.linalg.eigh(J.tensors[2])
        lam *= J.weight(2)  # H = sum_i lam_i y_i^2
        # grad H = slope * y, mode by mode
        slope = 2 * lam
        X0, X = X, X @ Q
        rot = np.empty((R, _NOISE_BLOCK, N))
        rincs = rot.transpose(1, 0, 2)
        grad = np.empty((R, N))
    B = np.zeros((R, N))
    times = config.times()
    Xs = np.empty((times.size, R, N))
    Bs = np.empty((times.size, R, N))
    Ks = np.empty((times.size, R))
    Hs = np.empty((times.size, R))
    if noise is None:
        block = np.empty((R, _NOISE_BLOCK, N))
        incs = block.transpose(1, 0, 2)  # step-major, as ``noise`` is
    drift = np.empty((R, N))
    for step in range(config.n_steps + 1):
        K = np.einsum("ri,ri->r", X, X) / N
        if not K.max() <= 1e6:  # a NaN fails the comparison too
            raise StepUnstable(f"radial blow-up after step {step}: "
                               f"K = {K.max():g}")
        if frame:
            np.multiply(slope, X, out=grad)
        else:
            Hv, grad = hamiltonian_and_grad_batch(J, X)
        if step % config.snap_stride == 0:
            k = step // config.snap_stride
            if frame:
                Hv = np.einsum("ri,i,ri->r", X, lam, X)
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
            if frame and noise is None:
                np.matmul(block.reshape(-1, N), Q, out=rot.reshape(-1, N))
            elif frame:
                rincs[:len(incs)] = (incs.reshape(-1, N) @ Q).reshape(incs.shape)
        # X + dt (-f'(K) X - beta grad) + dB, rounded in that order
        np.multiply(-f_prime(prm, K)[:, None], X, out=drift)
        grad *= beta
        drift -= grad
        drift *= dt
        X += drift
        X += rincs[j] if frame else incs[j]
        B += incs[j]
    if frame:  # snapshot 0 is the drawn point, the rest are rotated back
        Xs[0] = X0
        for k, x in enumerate(Xs):
            if k:
                x[...] = x @ Q.T
            Ks[k] = np.einsum("ri,ri->r", x, x) / N
    return Trajectory(times=times, X=Xs, B=Bs, K=Ks, H=Hs, config=config,
                      params=prm)


@dataclass
class EmpiricalBundle:
    """Empirical observables of a run: q and H per replica (R, S+1), the
    replica means of C, chi, q and H, and, when built against a limit, that
    limit's (C, chi, q, H) at the snapshot times and each replica's (R, 2)
    sup gaps of C and chi to it."""

    times: np.ndarray
    q: np.ndarray       # (R, S+1)
    H: np.ndarray       # (R, S+1)
    C_avg: np.ndarray   # (S+1, S+1)
    chi_avg: np.ndarray
    q_avg: np.ndarray
    H_avg: np.ndarray
    limit: tuple | None = None
    gaps: np.ndarray | None = None


def empirical_observables(traj: Trajectory, limit=None) -> EmpiricalBundle:
    """q_N and H_N per replica plus the replica means of C_N, chi_N, q_N and
    H_N; q_N is the overlap with the run's conditioning point x_star.

    ``limit`` is the (C, chi, q, H) tuple of limit_at_snapshots at the
    run's snapshot times, or None.  With it, the pass that builds the means
    also takes each replica's sup gaps of C and chi to it, so no replica's
    C or chi is held; a C or chi not (S, S), or a q or H not (S,), for S
    snapshots raises GridMismatch."""
    X, B = traj.X, traj.B
    S, _, N = X.shape
    if limit is not None:
        for name, a, want in zip(("C", "chi", "q", "H"), limit,
                                 ((S, S), (S, S), (S,), (S,)), strict=True):
            if np.shape(a) != want:
                raise GridMismatch(f"limit {name} has shape {np.shape(a)}, "
                                   f"{S} snapshots need {want}")
    C_avg, chi_avg, gaps = _replica_means(X, B, None if limit is None else limit[:2])
    sigma = star_point(N, traj.params.q_star)
    q = np.einsum("sri,i->rs", X, sigma) / N
    H = traj.H.T.copy()  # row-major, so H.mean(axis=0) sums replicas in order
    return EmpiricalBundle(times=traj.times, q=q, H=H, C_avg=C_avg,
                           chi_avg=chi_avg, q_avg=q.mean(axis=0),
                           H_avg=H.mean(axis=0), limit=limit, gaps=gaps)


def _replica_means(X: np.ndarray, B: np.ndarray, against=None):
    """The replica means of C and chi, in one pass over tiles of _OBS_BLOCK
    snapshot rows, and with ``against`` = (C, chi) each replica's sup gaps
    of C and chi against those, shape (R, 2), else None.

    C[r] = X_r X_r^T / N and chi[r] = X_r B_r^T / N, X_r = X[:, r], are
    two-operand einsum rows on those strided views: no BLAS call, so the
    bytes do not depend on the thread count, and they are those of the
    einsum "sri,tri->rst" divided by N.  C is symmetric bitwise, so a tile
    of C holds its rows' lower triangle, and its mean is mirrored.  Each
    tile holds its rows of every replica in an (rows, S, R) buffer, replica
    axis innermost as that einsum lays its result out, so the mean over it
    sums replicas in that einsum's order.  An einsum writes a fresh contiguous result that is
    copied in: into a strided out= it would sum in another order.  Once a
    tile's means are taken, its buffers hold the differences to the limit.
    A tile of C holds columns up to its last row, so its gaps are taken
    against both the limit's rows and, through C's symmetry, its columns;
    the tiles together cover every entry.  A NaN gives a NaN gap."""
    S, R, N = X.shape
    C_avg, chi_avg = np.empty((S, S)), np.empty((S, S))
    tile = min(_OBS_BLOCK, S)
    C_tile, chi_tile = np.empty((tile, S, R)), np.empty((tile, S, R))
    gaps = None if against is None else np.zeros((R, 2))
    for lo in range(0, S, _OBS_BLOCK):
        hi = min(lo + _OBS_BLOCK, S)
        c, ch = C_tile[:hi - lo, :hi], chi_tile[:hi - lo]
        for r in range(R):
            x = X[:, r]
            c[..., r] = np.einsum("si,ti->st", x[lo:hi], x[:hi])
            ch[..., r] = np.einsum("si,ti->st", x[lo:hi], B[:, r])
        c /= N
        ch /= N
        rows = c.mean(axis=-1)
        C_avg[lo:hi, :hi] = rows
        C_avg[:hi, lo:hi] = rows.T
        ch.mean(axis=-1, out=chi_avg[lo:hi])
        if against is not None:  # the tiles are spent: differences go in them
            Cl, chil = against
            for col, a, ref, d in ((1, ch, chil[lo:hi], ch),
                                   (0, c, Cl[:hi, lo:hi].T, ch[:, :hi]),
                                   (0, c, Cl[lo:hi, :hi], c)):
                np.subtract(a, ref[..., None], out=d)
                g = np.abs(d, out=d).max(axis=(0, 1))
                np.maximum(gaps[:, col], g, out=gaps[:, col])
    return C_avg, chi_avg, gaps


def limit_at_snapshots(times: np.ndarray, limit: TwoTimeBundle):
    """(C, chi, q, H) of a limit solve at the snapshot times.

    chi(s, t) = int_0^{min(s,t)} R(s, u) du, the integrated response, is
    the cumulative trapezoid of the snapshot rows of R only, read at
    min(s, t), so no (n+1)^2 temporary is built.
    """
    idx = limit.grid.index_of(times)
    cum = _cumtrapz(limit.R[idx], limit.grid.h)
    chi = np.empty((idx.size, idx.size))
    for a, i in enumerate(idx):
        np.take(cum[a], np.minimum(idx, i), out=chi[a])
    return limit.C[np.ix_(idx, idx)], chi, limit.q[idx], limit.H[idx]


def error_functional(emp: EmpiricalBundle, per_replica: bool = False):
    """Capped sup-norm discrepancy between empirical and limiting dynamics.

    Against the limit the bundle was built with (see empirical_observables):
    replica-averaged by default (the error of the averaged observables);
    with ``per_replica`` an array of one value per replica, from the sup
    gaps of C and chi that the observables' pass took.  A bundle built
    without a limit raises ValidationError.
    """
    if emp.limit is None:
        raise ValidationError("the observables were built without a limit")
    Cl, chil, ql, Hl = emp.limit

    def sup(x, y):
        return np.abs(x - y).max()

    def capped(*gaps):
        return sum(min(g, 1.0) for g in gaps)

    if not per_replica:
        return capped(sup(emp.C_avg, Cl), sup(emp.chi_avg, chil),
                      sup(emp.q_avg, ql), sup(emp.H_avg, Hl))
    return np.array([capped(c, x, sup(emp.q[r], ql), sup(emp.H[r], Hl))
                     for r, (c, x) in enumerate(emp.gaps)])


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
