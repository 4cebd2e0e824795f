import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from spinband import model, simulate
from spinband.errors import (GridMismatch, SizeOverflow, SpinbandError,
                             StepUnstable, ValidationError)
from spinband.model import (Confinement, MixingFunction, ModelParams,
                            SimConfig, f_prime, validate)
from spinband.simulate import (Disorder, EmpiricalBundle, condition_disorder,
                               conditional_hessian_spectrum,
                               empirical_observables, error_functional,
                               hamiltonian_and_grad_batch, limit_at_snapshots,
                               run_langevin, sample_disorder, star_point)
from spinband.volterra import TwoTimeGrid, solve_soft

ROOT = Path(__file__).resolve().parents[1]


def soft_params(L=20.0, q_o=0.5):
    return ModelParams(beta=1.0, q_star=1.0, q_o=q_o, E_star=0.625,
                       G_star=1.25, confinement=Confinement.soft(L, 1))


def test_coupling_variance_law():
    """Sorted-tuple couplings carry variance multiplicity * N^(1-p)."""
    N = 5
    nu = MixingFunction((0.0625, 0.0625))
    draws = {(2, (0, 0)): [], (2, (0, 1)): [], (3, (0, 0, 1)): [],
             (3, (0, 1, 2)): []}
    for seed in range(5000):
        J = sample_disorder(N, nu, seed)
        for (p, idx), acc in draws.items():
            acc.append(J.coupling(p, idx))
    expect = {(2, (0, 0)): 1 / 5, (2, (0, 1)): 2 / 5,
              (3, (0, 0, 1)): 3 / 25, (3, (0, 1, 2)): 6 / 25}
    for key, acc in draws.items():
        v = np.var(np.array(acc))
        assert abs(v - expect[key]) <= 0.1 * expect[key], (key, v)
        assert abs(np.mean(np.array(acc))) <= 5.0 * math.sqrt(expect[key] / 5000)


def test_disorder_bookkeeping():
    nu = MixingFunction((0.0, 0.125))
    J = sample_disorder(6, nu, 0)
    assert J.active_orders() == [3]
    assert J.weight(3) == math.sqrt(0.125)
    # coupling is symmetric under index permutation
    assert J.coupling(3, (2, 0, 1)) == J.coupling(3, (0, 1, 2))
    dup = J.copy()
    dup.tensors[3][0, 0] = 99.0
    assert J.tensors[3][0, 0] != 99.0
    for bad in ((0, 1), (0, 1, 6), (0, -1, 2)):
        with pytest.raises(ValidationError):
            J.coupling(3, bad)


def _gathered_store(A):
    """The pair store of a dense tensor A, gathered: the reference layout."""
    N = A.shape[0]
    j = np.arange(N)[:, None]
    cols = (j * N + (j + np.arange(N // 2 + 1)) % N).ravel()
    return np.take(A.reshape(-1, N * N), cols, axis=1)


def _dense(J, p):
    """A^(p) as a dense N^p array: order 2 as stored; for p >= 3 the entry
    at last pair (j, k) is read from the mirror column (k, (j - k) mod N)
    where the store holds one, else from its own column (j, (k - j) mod N)."""
    A, N = J.tensors[p], J.N
    if p == 2:
        return A
    j, k = np.divmod(np.arange(N * N), N)
    W = N // 2 + 1
    d, m = (k - j) % N, (j - k) % N
    src = np.where(m < W, k * W + m, j * W + d)
    return np.take(A, src, axis=1).reshape((N,) * p)


def _reference_sample(N, nu, seed):
    """sample_disorder as a loop over sorted tuples: order 2 is (b + b^T)/2
    of the scaled N x N draw; each order p >= 3 takes one draw per sorted
    tuple t, in colex order, and writes it, times sqrt(N^{1-p}/mult(t)),
    at every permutation of t of a dense tensor, whose store it returns."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for p in nu.active_orders:
        if p == 2:
            b = rng.standard_normal((N, N)) * N ** -0.5
            tensors[p] = (b + b.T) / 2
            continue
        A = np.empty((N,) * p)
        for t in sorted(combinations_with_replacement(range(N), p),
                        key=lambda t: t[::-1]):
            mult = math.factorial(p) // math.prod(
                math.factorial(c) for c in Counter(t).values())
            value = rng.standard_normal() * math.sqrt(N ** (1 - p) / mult)
            for perm in permutations(t):
                A[perm] = value
        tensors[p] = _gathered_store(A)
    return tensors


def _digest(J):
    return {p: A.tobytes() for p, A in J.tensors.items()}


@pytest.mark.parametrize("N", [7, 8])
@pytest.mark.parametrize("p", [3, 4, 5])
def test_sampling_is_the_reference_loop(p, N):
    """Byte for byte at both parities of N; at p = 5, N = 8 the 512 store
    rows take two blocks of the sampler, the last one short."""
    nu = MixingFunction((0.0,) * (p - 2) + (0.125,))
    J = sample_disorder(N, nu, (p, N))
    assert J.tensors[p].tobytes() == _reference_sample(N, nu, (p, N))[p].tobytes()


@pytest.mark.parametrize("p", [3, 4, 5])
def test_sampled_tensors_are_exactly_symmetric(p):
    """Every swap of two adjacent indices of the dense rebuild leaves every
    bit in place, at both parities of N."""
    nu = MixingFunction((0.0,) * (p - 2) + (0.125,))
    for N in (2, 3, 8, 11):
        A = _dense(sample_disorder(N, nu, (p, N, 1)), p).view(np.int64)
        for k in range(p - 1):
            assert np.array_equal(A, A.swapaxes(k, k + 1)), (N, k)


def test_sampling_a_mixture_keeps_the_draw_order():
    """Orders 2, 3 and 4 draw from one generator in that order, and the
    order-2 tensor is (b + b^T)/2 of the first, scaled draw."""
    nu = MixingFunction((0.0625, 0.0625, 0.01))
    J = sample_disorder(9, nu, 9)
    ref = _reference_sample(9, nu, 9)
    assert sorted(ref) == J.active_orders() == [2, 3, 4]
    for p, A in ref.items():
        assert J.tensors[p].tobytes() == A.tobytes(), p


def test_hand_worked_quadratic(hamiltonian_and_grad):
    A = np.array([[1.0, 0.5], [0.5, 2.0]])
    J = Disorder(N=2, coeffs_sq=(0.25,), tensors={2: A.copy()})
    assert J.coupling(2, (0, 0)) == 1.0
    assert J.coupling(2, (0, 1)) == 1.0     # A times multiplicity 2
    x = np.array([1.0, 2.0])
    H, g = hamiltonian_and_grad(J, x)
    assert abs(H - 5.5) <= 1e-14            # 0.5 * x'Ax
    assert_allclose(g, [2.0, 4.5], rtol=0, atol=1e-14)
    H0, g0 = hamiltonian_and_grad(J, np.zeros(2))
    assert H0 == 0.0 and np.all(g0 == 0.0)


def test_gradient_matches_finite_differences(hamiltonian_and_grad):
    nu = MixingFunction((0.04, 0.03, 0.02))
    J = sample_disorder(6, nu, 7)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6)
    H, g = hamiltonian_and_grad(J, x)
    delta = 1e-5
    for i in range(6):
        e = np.zeros(6)
        e[i] = delta
        hp, _ = hamiltonian_and_grad(J, x + e)
        hm, _ = hamiltonian_and_grad(J, x - e)
        assert abs((hp - hm) / (2 * delta) - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
    X = rng.standard_normal((3, 6))
    Hb, Gb = hamiltonian_and_grad_batch(J, X)
    for r in range(3):
        hr, gr = hamiltonian_and_grad(J, X[r])
        assert abs(Hb[r] - hr) <= 1e-12 * max(1.0, abs(hr))
        assert np.abs(Gb[r] - gr).max() <= 1e-12


def test_energy_matches_the_sorted_tuple_sum():
    """Independent oracle: H_J(x) = sum_p b_p sum_{i1<=..<=ip} J x_i1..x_ip,
    for orders 2..4 and 2..5."""
    N = 5
    X = np.random.default_rng(2).standard_normal((4, N))
    for coeffs in ((0.04, 0.03, 0.02), (0.04, 0.03, 0.02, 0.01)):
        J = sample_disorder(N, MixingFunction(coeffs), 13)
        assert J.active_orders() == list(range(2, len(coeffs) + 2))
        Hb, _ = hamiltonian_and_grad_batch(J, X)
        for r, x in enumerate(X):
            expect = sum(J.weight(p) * J.coupling(p, idx) * math.prod(x[list(idx)])
                         for p in J.active_orders()
                         for idx in combinations_with_replacement(range(N), p))
            assert abs(Hb[r] - expect) <= 1e-12


mixtures = st.dictionaries(st.sampled_from([2, 3, 4]),
                           st.floats(min_value=0.01, max_value=1.0),
                           min_size=1, max_size=3)


def _mixing(weights: dict) -> MixingFunction:
    return MixingFunction(tuple(weights.get(p, 0.0)
                                for p in range(2, max(weights) + 1)))


def _einsum_oracle(J, X, absolute=False):
    """H and its gradient from the full dense tensors, one einsum per term.

    The gradient sums the derivative over every index position, so it does
    not lean on the symmetry of A.  With ``absolute`` every factor enters by
    absolute value: the scale against which rounding is measured.
    """
    letters = "abcdefgh"
    H = np.zeros(X.shape[0])
    G = np.zeros(X.shape)
    for p in J.active_orders():
        A, Y, b = _dense(J, p), X, J.weight(p)
        if absolute:
            A, Y = np.abs(A), np.abs(X)
        idx = letters[:p]
        H += b * np.einsum(f"{idx},{','.join('r' + c for c in idx)}->r",
                           A, *[Y] * p)
        for pos in range(p):
            rest = [c for k, c in enumerate(idx) if k != pos]
            G += b * np.einsum(
                f"{idx},{','.join('r' + c for c in rest)}->r{idx[pos]}",
                A, *[Y] * (p - 1))
    return H, G


def _assert_kernel_matches_the_oracle(J, X):
    """The kernel's H and gradient within 1e-12 of the oracle, relative to
    the absolute-value scale (per row for the gradient)."""
    H, G = hamiltonian_and_grad_batch(J, X)
    He, Ge = _einsum_oracle(J, X)
    Hs, Gs = _einsum_oracle(J, X, absolute=True)
    assert np.all(np.abs(H - He) <= 1e-12 * Hs)
    assert np.all(np.abs(G - Ge) <= 1e-12 * Gs.max(axis=1, keepdims=True))


@given(weights=mixtures, N=st.integers(min_value=2, max_value=13),
       R=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_kernel_matches_a_dense_einsum(weights, N, R, seed):
    """The cyclic-pair kernel against the dense tensors, both parities of N."""
    J = sample_disorder(N, _mixing(weights), seed)
    _assert_kernel_matches_the_oracle(
        J, np.random.default_rng(seed).standard_normal((R, N)))


@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_kernel_matches_a_dense_einsum_at_the_smallest_sizes(p, N):
    """Pure order p at N = 2, 3, 4: N = 2 has no pair read from an earlier
    row (E = 0), N = 3 one with a wrap, N = 4 an even N//2."""
    weights = [0.0] * (p - 1)
    weights[-1] = 1.0
    J = sample_disorder(N, MixingFunction(tuple(weights)), 10 * p + N)
    _assert_kernel_matches_the_oracle(
        J, np.random.default_rng(N).standard_normal((3, N)))


@given(weights=mixtures, N=st.integers(min_value=3, max_value=12),
       q_star=st.floats(min_value=0.3, max_value=1.0),
       E=st.floats(min_value=-1.0, max_value=1.0),
       G=st.floats(min_value=-3.0, max_value=3.0),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_conditioning_is_exact_for_random_mixtures(hamiltonian_and_grad, weights,
                                                   N, q_star, E, G, seed):
    """H(x*) = -N E* and grad H(x*) = -G* x* for any admissible mixture."""
    nu = _mixing(weights)
    if len(weights) == 1:  # a pure mixture admits one G* per E*
        G = next(iter(weights)) * E / q_star ** 2
    prm = ModelParams(beta=1.0, q_star=q_star, q_o=0.0, E_star=E, G_star=G,
                      confinement=Confinement.hard())
    try:
        prm = validate(prm, nu)
    except SpinbandError:
        assume(False)
    Jc = condition_disorder(sample_disorder(N, nu, seed), prm)
    sigma = star_point(N, q_star)
    H, g = hamiltonian_and_grad(Jc, sigma)
    assert abs(H + N * E) <= 1e-8 * N * max(abs(E), 1.0)
    assert np.linalg.norm(g + G * sigma) <= \
        1e-8 * max(np.linalg.norm(G * sigma), 1.0)


_SIMULATE_DIGEST = """
import hashlib, sys
import numpy as np
from spinband.model import Confinement, MixingFunction, ModelParams, SimConfig
from spinband.simulate import (condition_disorder, empirical_observables,
                               run_langevin, sample_disorder)
N = int(sys.argv[1])
nu = MixingFunction((0.0, 0.125))
prm = ModelParams(beta=0.3, q_star=0.9, q_o=0.5, E_star=0.2,
                  G_star=3.0 * 0.2 / 0.81, confinement=Confinement.soft(100.0, 1))
J = condition_disorder(sample_disorder(N, nu, 11), prm)
traj = run_langevin(J, prm, SimConfig(N=N, dt=5e-4, T=0.05, seed=3, replicas=8))
S = traj.times.size
rng = np.random.default_rng(0)
limit = (rng.random((S, S)), rng.random((S, S)), rng.random(S), rng.random(S))
emp = empirical_observables(traj, limit)
d = hashlib.sha256()
for name in ("X", "B", "K", "H"):
    d.update(getattr(traj, name).tobytes())
for a in (emp.C_avg, emp.chi_avg, emp.gaps):
    d.update(a.tobytes())
print(d.hexdigest())
"""


@pytest.mark.parametrize("N", [100, 160, 200])
def test_simulate_is_bitwise_independent_of_blas_threads(N):
    """A pure p = 3 run with 8 replicas and 100 steps, the replica means of
    its empirical C and chi, and each replica's sup gaps of C and chi to a
    fixed limit, give equal bytes under 1 and 2 OpenBLAS threads, at the
    simulate-p3 size N = 160 and at sizes on either side of it."""
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _SIMULATE_DIGEST, str(N)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def _band_point(N, q_star, q_o, seed):
    """Oracle for a replica's start: x_0 = sqrt(N) q_o/q*, and the first
    N - 1 normals of the replica's stream scaled onto the residual sphere
    of radius^2 N (1 - (q_o/q*)^2)."""
    g = np.random.default_rng(seed).standard_normal(N - 1)
    rad2 = N * (1.0 - (q_o / q_star) ** 2)
    return np.r_[math.sqrt(N) * q_o / q_star, g * math.sqrt(rad2 / float(g @ g))]


def test_initial_band_sampling():
    def draw(N, q_star, q_o):
        return simulate._initial_from_rng(np.random.default_rng(4), N, q_star, q_o)
    x = draw(50, 0.9, 0.45)
    assert abs(x @ x - 50.0) <= 1e-9
    sigma = star_point(50, 0.9)
    assert abs(x @ sigma / 50.0 - 0.45) <= 1e-12
    pinned = draw(50, 1.0, 1.0)
    assert_allclose(pinned, star_point(50, 1.0), rtol=0, atol=0)
    with pytest.raises(ValidationError):
        draw(50, 0.5, 0.6)


def test_conditioning_pins_the_critical_point(mixed_mixing, hamiltonian_and_grad):
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.0, E_star=0.3, G_star=0.8,
                      confinement=Confinement.hard())
    for N in (10, 50):
        sigma = star_point(N, prm.q_star)
        for seed in (0, 1, 2):
            J = sample_disorder(N, mixed_mixing, seed)
            Jc = condition_disorder(J.copy(), prm)
            H, g = hamiltonian_and_grad(Jc, sigma)
            assert abs(H + N * prm.E_star) / N <= 1e-10
            scale = np.linalg.norm(prm.G_star * sigma)
            assert np.linalg.norm(g + prm.G_star * sigma) / scale <= 1e-10
            # conditioning an already conditioned draw is a fixed point
            Jcc = condition_disorder(Jc.copy(), prm)
            for p in Jc.active_orders():
                assert np.abs(Jcc.tensors[p] - Jc.tensors[p]).max() <= 1e-12


@pytest.mark.parametrize("tangential_only", [False, True])
def test_conditioning_in_place_matches_the_copying_form(mixed_mixing,
                                                        tangential_only):
    """condition_disorder writes into its argument and returns it: a copy
    conditioned the same way gets the same bytes, the draw it was copied
    from keeps its own, and the block with every index >= 1 is untouched."""
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.0, E_star=0.3, G_star=0.8,
                      confinement=Confinement.hard())
    J = sample_disorder(40, mixed_mixing, 6)
    before = J.copy()
    Jc = condition_disorder(J.copy(), prm, tangential_only)
    assert _digest(J) == _digest(before)
    Ji = condition_disorder(J, prm, tangential_only)
    assert Ji is J
    assert _digest(J) == _digest(Jc)
    for p in J.active_orders():
        bulk = (slice(1, None),) * p
        assert np.array_equal(_dense(J, p)[bulk], _dense(before, p)[bulk])


def test_the_cli_disorder_chain_holds_one_store(pure3_mixing):
    """Sample and condition in place (the simulate CLI's order) at pure
    p = 3, N = 128: the traced peak stays within 1.5x the store's bytes
    (8.5 MB).  The draw vector adds 2.9 MB; a dense N^3 copy (16.8 MB) or a
    conditioned copy of the store would break that bound.  A first pass at
    N = 4 loads numpy's lazily imported modules, which would otherwise
    count towards the peak."""
    prm = validate(ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.2,
                               G_star=0.6, confinement=Confinement.soft(100.0, 1)),
                   pure3_mixing)

    def chain(N):
        return condition_disorder(sample_disorder(N, pure3_mixing, 1), prm)

    chain(4)
    N = 128
    tracemalloc.start()
    try:
        J = chain(N)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    store = J.tensors[3]
    assert store.shape == (N, N * (N // 2 + 1)) and store.flags.c_contiguous
    assert peak <= 1.5 * store.nbytes, peak / store.nbytes


@pytest.mark.parametrize("N", [2, 3, 8, 11])
def test_the_in_place_store_is_the_gathered_store(N):
    """Each p >= 3 store, orders 3 to 5, is byte for byte the pair store
    gathered from its own dense rebuild, at both parities of N, as sampled
    and as conditioned.  The rebuild reads the columns at d = N/2 of an
    even N through their mirrors, so the two copies of each such pair hold
    one float: conditioning writes both."""
    nu = MixingFunction((0.04, 0.03, 0.02, 0.01))
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.0, E_star=0.3, G_star=0.8,
                      confinement=Confinement.hard())
    J = sample_disorder(N, nu, N)
    for Jx in (J, condition_disorder(J.copy(), prm)):
        for p in (3, 4, 5):
            A = Jx.tensors[p]
            assert A.flags.c_contiguous
            assert A.tobytes() == _gathered_store(_dense(Jx, p)).tobytes(), p


def test_runs_and_kernel_calls_restore_the_couplings(mixed_mixing,
                                                     pure3_mixing):
    """Runs and kernel calls only read the couplings: J's stores are bit
    for bit what went in after a run, after a kernel call and after a run
    that blows up part way."""
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.3, E_star=0.3, G_star=0.8,
                      confinement=Confinement.soft(20.0, 1))
    J = condition_disorder(sample_disorder(13, mixed_mixing, 4), prm)
    before = _digest(J)
    run_langevin(J, prm, SimConfig(N=13, dt=0.01, T=0.1, seed=1, replicas=2))
    assert _digest(J) == before
    hamiltonian_and_grad_batch(J, np.ones((2, 13)))
    assert _digest(J) == before
    hot = ModelParams(beta=8.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.soft(0.001, 1))
    Jb = sample_disorder(8, pure3_mixing, 1)
    before = _digest(Jb)
    with pytest.raises(StepUnstable, match="radial blow-up after step [1-9]"):
        run_langevin(Jb, hot, SimConfig(N=8, dt=0.01, T=2.0, seed=2,
                                        replicas=2))
    assert _digest(Jb) == before


def test_couplings_near_the_float_limit_pack_and_restore():
    """Couplings of 1e308, whose doubling would overflow, give the dense
    contraction's result, and a kernel call leaves every store bit for bit
    as it was."""
    J = sample_disorder(12, MixingFunction((0.04, 0.03, 0.02)), 3)
    J.tensors[4][...] = 1e308
    before = _digest(J)
    X = np.random.default_rng(3).uniform(-1e-78, 1e-78, (2, 12))
    assert np.all(np.isfinite(_einsum_oracle(J, X, absolute=True)[1]))
    _assert_kernel_matches_the_oracle(J, X)
    assert _digest(J) == before


@pytest.mark.parametrize("coeffs, q_star, message", [
    ((1.0, 1e-16), 0.9, "constraint covariance is singular"),
    ((5e-324,), 0.5, "tangential constraint has zero variance"),  # underflows
], ids=["singular-covariance", "zero-tangential-variance"])
def test_conditioning_refuses_a_degenerate_system(coeffs, q_star, message):
    """A value/gradient system whose covariance is numerically singular, or
    a tangential constraint whose variance underflows, is a parameter
    error; zero targets leave vstar_build nothing to refuse first."""
    prm = ModelParams(beta=1.0, q_star=q_star, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.hard())
    J = sample_disorder(6, MixingFunction(coeffs), 1)
    with pytest.raises(ValidationError, match=message):
        condition_disorder(J, prm)


def test_conditioning_zero_targets(sk_mixing):
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.hard())
    J = sample_disorder(8, sk_mixing, 5)
    Jc = condition_disorder(J.copy(), prm)
    assert Jc.coupling(2, (0, 0)) == 0.0
    for i in range(1, 8):
        assert abs(Jc.coupling(2, (0, i))) <= 1e-15
    assert Jc.coupling(2, (3, 5)) == J.coupling(2, (3, 5))  # bulk untouched

    zero = MixingFunction((0.0,))
    Jz = sample_disorder(8, zero, 5)
    assert condition_disorder(Jz, prm).tensors == {}
    bad = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.3, G_star=0.9,
                      confinement=Confinement.hard())
    with pytest.raises(ValidationError):
        condition_disorder(Jz, bad)


def test_pinned_coupling_matches_conditional_mean(mixed_mixing):
    """Two active orders leave no residual randomness at the all-ones tuple,
    so the pinned coupling must equal the conditional-expectation formula."""
    qs, E, G = 0.9, 0.3, 0.8
    prm = ModelParams(beta=1.0, q_star=qs, q_o=0.0, E_star=E, G_star=G,
                      confinement=Confinement.hard())
    N = 12
    qs2 = qs * qs
    M = np.array([[qs2 * mixed_mixing.nu(qs2, 0), qs2 * mixed_mixing.nu(qs2, 1)],
                  [qs2 * mixed_mixing.nu(qs2, 1), mixed_mixing.psi(qs2)]])
    for seed in (0, 1):
        Jc = condition_disorder(sample_disorder(N, mixed_mixing, seed), prm)
        for p in (2, 3):
            vp = np.linalg.solve(M, np.array([qs2, float(p)]))
            expect = (-Jc.weight(p) * N ** (1 - p / 2.0) * qs ** p
                      * float(vp @ np.array([E, G])))
            assert abs(Jc.coupling(p, (0,) * p) - expect) <= 1e-12


def test_tangential_covariance_identity(mixed_mixing, hamiltonian_and_grad):
    """MC average of H(x)H(y)/N over tangentially pinned draws matches the
    conditional-covariance formula within 5e-2 relative."""
    N = 10
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.hard())
    rng = np.random.default_rng(5)
    u = rng.standard_normal(N)
    u[0] = 0.0
    u /= np.linalg.norm(u)
    e1 = np.zeros(N)
    e1[0] = 1.0
    x = math.sqrt(N) * (0.8 * e1 + 0.6 * u)
    y = math.sqrt(N) * (0.6 * e1 + 0.8 * u)
    overlap = float(x @ y) / N
    qx, qy = x[0] / math.sqrt(N), y[0] / math.sqrt(N)
    centered = overlap - qx * qy
    expect = (mixed_mixing.nu(overlap, 0)
              - centered * mixed_mixing.nu(qx, 1) * mixed_mixing.nu(qy, 1)
              / mixed_mixing.nu(1.0, 1))
    acc = np.empty(2000)
    for k in range(acc.size):
        J = sample_disorder(N, mixed_mixing, (18, k))
        Jt = condition_disorder(J, prm, tangential_only=True)
        hx, _ = hamiltonian_and_grad(Jt, x)
        hy, _ = hamiltonian_and_grad(Jt, y)
        acc[k] = hx * hy / N
    assert abs(acc.mean() - expect) <= 5e-2 * abs(expect)


def test_free_dynamics_ignore_the_disorder(sk_mixing):
    """beta = 0 decouples the landscape: trajectories are J-independent."""
    prm = ModelParams(beta=0.0, q_star=1.0, q_o=0.5, E_star=0.0, G_star=0.0,
                      confinement=Confinement.soft(20.0, 1))
    cfg = SimConfig(N=16, dt=0.01, T=0.3, seed=6, replicas=3)
    t1 = run_langevin(sample_disorder(16, sk_mixing, 7), prm, cfg)
    t2 = run_langevin(sample_disorder(16, sk_mixing, 8), prm, cfg)
    assert np.array_equal(t1.X, t2.X)
    assert np.array_equal(t1.K, t2.K)


def test_temperature_embedding_is_exact():
    """Folding beta into the coupling amplitudes (squared weights scale by
    beta^2, targets by beta) reproduces the run bitwise and doubles the
    energy observable, for power-of-two beta."""
    nu_a = MixingFunction((0.0625, 0.0625))
    nu_b = MixingFunction((0.25, 0.25))
    soft = Confinement.soft(20.0, 1)
    pa = ModelParams(beta=2.0, q_star=1.0, q_o=0.5, E_star=0.125,
                     G_star=0.25, confinement=soft)
    pb = ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.25,
                     G_star=0.5, confinement=soft)
    N = 30
    Ja = sample_disorder(N, nu_a, 11)
    Jb = Disorder(N, nu_b.coeffs_sq,
                  {p: a.copy() for p, a in Ja.tensors.items()})
    Jca = condition_disorder(Ja, pa)
    Jcb = condition_disorder(Jb, pb)
    for p in (2, 3):
        assert np.array_equal(Jca.tensors[p], Jcb.tensors[p])
    cfg = SimConfig(N=N, dt=0.01, T=0.2, seed=5, replicas=4)
    ta = run_langevin(Jca, pa, cfg)
    tb = run_langevin(Jcb, pb, cfg)
    assert np.array_equal(ta.X, tb.X)
    ea = empirical_observables(ta)
    eb = empirical_observables(tb)
    assert np.array_equal(2.0 * ea.H, eb.H)


def test_refinement_on_a_shared_brownian_path(sk_mixing):
    prm = soft_params()
    N, R = 16, 4
    J = condition_disorder(sample_disorder(N, sk_mixing, 3), prm)
    rng = np.random.default_rng(99)
    fine = rng.standard_normal((500, R, N)) * math.sqrt(1e-3)
    coarse = fine.reshape(250, 2, R, N).sum(axis=1)
    tf = run_langevin(J, prm, SimConfig(N=N, dt=1e-3, T=0.5, seed=12,
                                        replicas=R, snap_stride=50),
                      noise=fine)
    tc = run_langevin(J, prm, SimConfig(N=N, dt=2e-3, T=0.5, seed=12,
                                        replicas=R, snap_stride=25),
                      noise=coarse)
    assert np.array_equal(tf.times, tc.times)
    assert np.array_equal(tf.X[0], tc.X[0])             # same initial draw
    assert np.abs(tf.X - tc.X).max() <= 5 * 2e-3        # strong order-1 error
    assert np.allclose(tc.B[-1], coarse.sum(axis=0), atol=1e-12)
    with pytest.raises(ValidationError):
        run_langevin(J, prm, SimConfig(N=N, dt=1e-3, T=0.5, seed=12,
                                       replicas=R), noise=coarse)


def _replica_run(J, prm, seed, R, N=12):
    """80 steps: the noise blocks straddle snapshots and the last is partial."""
    return run_langevin(J, prm, SimConfig(N=N, dt=0.01, T=0.8, seed=seed,
                                          replicas=R, snap_stride=5))


def test_enlarging_replicas_keeps_existing_members(sk_mixing):
    prm = soft_params()
    J = condition_disorder(sample_disorder(12, sk_mixing, 3), prm)
    t3 = _replica_run(J, prm, 31, 3)
    t4 = _replica_run(J, prm, 31, 4)
    assert np.array_equal(t3.X[0], t4.X[0, :3])
    assert np.array_equal(t3.B, t4.B[:, :3])


def test_increments_are_the_per_replica_streams(sk_mixing):
    """B at each snapshot is the running sum of one N(0, dt) draw per step
    from the replica's (seed, r) generator, taken after the initial point."""
    prm = soft_params()
    N, R, seed = 12, 3, 31
    J = condition_disorder(sample_disorder(N, sk_mixing, 3), prm)
    traj = _replica_run(J, prm, seed, R, N)
    for r in range(R):
        assert np.array_equal(traj.X[0, r],
                              _band_point(N, prm.q_star, prm.q_o, (seed, r)))
        rng = np.random.default_rng((seed, r))
        rng.standard_normal(N - 1)          # the initial point's draw
        b = np.zeros(N)
        cfg = traj.config
        for step in range(1, cfg.n_steps + 1):
            b = b + rng.standard_normal(N) * math.sqrt(cfg.dt)
            if step % cfg.snap_stride == 0:
                assert np.array_equal(traj.B[step // cfg.snap_stride, r], b)


def test_recorded_energies_match_the_kernel(mixed_mixing, sk_mixing, monkeypatch):
    """Trajectory.H is the energy density -H_J/N of each snapshot.  A mixed
    run takes it from its own gradient calls, n_steps + 1 of them and none
    per snapshot, so it is the kernel's bit for bit.  A quadratic run makes
    no kernel call: its energies come from the eigenframe and agree with
    the kernel's to 1e-12 relative."""
    N = 10
    cfg = SimConfig(N=N, dt=0.01, T=0.2, seed=8, replicas=3, snap_stride=5)
    kernel = simulate.hamiltonian_and_grad_batch
    # G* = 2 E*/q*^2, as the pure p = 2 model needs
    for nu, G_star in ((mixed_mixing, 0.8), (sk_mixing, 0.6 / 0.81)):
        prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.3, E_star=0.3,
                          G_star=G_star, confinement=Confinement.soft(20.0, 1))
        J = condition_disorder(sample_disorder(N, nu, 4), prm)
        calls = []
        monkeypatch.setattr(simulate, "hamiltonian_and_grad_batch",
                            lambda J, X: calls.append(1) or kernel(J, X))
        traj = run_langevin(J, prm, cfg)
        monkeypatch.undo()
        quadratic = J.active_orders() == [2]
        assert len(calls) == (0 if quadratic else cfg.n_steps + 1)
        assert traj.H.shape == (traj.times.size, 3)
        want = np.array([-hamiltonian_and_grad_batch(J, x)[0] / N for x in traj.X])
        if quadratic:
            assert np.abs(traj.H - want).max() <= 1e-12 * np.abs(want).max()
        else:
            assert np.array_equal(traj.H, want)
        emp = empirical_observables(traj)
        assert np.array_equal(emp.H, traj.H.T)


def _allocating_run(J, prm, config, noise=None, frame=False):
    """run_langevin's step loop with a fresh array for every operation.

    By default it takes the dense kernel's allocating gradient sum (orders
    2 and 3): the reference a mixed run must match bitwise, and a tolerance
    oracle for a quadratic one.  With ``frame`` (a p = 2 disorder) it steps
    in the eigenframe Y = X Q of A = Q diag(lam) Q^T, as run_langevin does
    for a quadratic mixture at beta > 0: the reference such a run must
    match bitwise."""
    prm = validate(prm, MixingFunction(J.coeffs_sq))
    N, R, dt = config.N, config.replicas, config.dt
    rngs = [np.random.default_rng((config.seed, r)) for r in range(R)]
    X = np.stack([simulate._initial_from_rng(g, N, prm.q_star, prm.q_o)
                  for g in rngs])
    if frame:
        lam, Q = np.linalg.eigh(J.tensors[2])
        lam = lam * J.weight(2)
        X0, X = X, X @ Q
    B = np.zeros((R, N))
    Xs, Bs, Ks, Hs = [], [], [], []
    for step in range(config.n_steps + 1):
        K = np.einsum("ri,ri->r", X, X) / N
        if frame:
            H, grad = np.einsum("ri,i,ri->r", X, lam, X), (2 * lam) * X
        else:
            H, grad = np.zeros(R), np.zeros((R, N))
            for p in J.active_orders():
                b = J.weight(p)
                V = X @ J.tensors[2] if p == 2 else J.fold(X)(X, J.tensors[3])
                H += b * np.einsum("ri,ri->r", V, X)
                grad += (b * p) * V
        if step % config.snap_stride == 0:
            Xs.append(X), Bs.append(B), Ks.append(K), Hs.append(-H / N)
        if step == config.n_steps:
            break
        j = step % simulate._NOISE_BLOCK
        if j == 0:
            if noise is None:
                incs = np.stack([g.standard_normal((simulate._NOISE_BLOCK, N))
                                 for g in rngs], axis=1) * math.sqrt(dt)
            else:
                incs = noise[step:step + simulate._NOISE_BLOCK]
            if frame and noise is None:  # one product over replica-major rows
                rows = incs.transpose(1, 0, 2).reshape(-1, N) @ Q
                dY = rows.reshape(R, -1, N).transpose(1, 0, 2)
            elif frame:
                dY = (incs.reshape(-1, N) @ Q).reshape(incs.shape)
        drift = -f_prime(prm, K)[:, None] * X - prm.beta * grad
        X = X + dt * drift + (dY if frame else incs)[j]
        B = B + incs[j]
    if frame:
        Xs = [X0] + [y @ Q.T for y in Xs[1:]]
        Ks = [np.einsum("ri,ri->r", x, x) / N for x in Xs]
    return [np.array(a) for a in (Xs, Bs, Ks, Hs)]


@pytest.mark.parametrize("supplied", [False, True])
@pytest.mark.parametrize("weights", [(0.125,), (0.0625, 0.0625)])
def test_in_place_steps_match_the_allocating_loop(weights, supplied):
    """45 steps (the last noise block partial), snapshots every 5: X, B, K
    and H equal the allocating loop's bytes, with generator noise and with
    supplied increments, for the (2, 3) mixture and, against the loop in
    the eigenframe of A, at p = 2."""
    # G* = 2 E*/q*^2, as the pure p = 2 model needs
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.3, E_star=0.3,
                      G_star=0.6 / 0.81, confinement=Confinement.soft(20.0, 1))
    N, R = 12, 3
    J = condition_disorder(sample_disorder(N, MixingFunction(weights), 4), prm)
    cfg = SimConfig(N=N, dt=0.01, T=0.45, seed=8, replicas=R, snap_stride=5)
    assert cfg.n_steps == 45 and cfg.n_steps % simulate._NOISE_BLOCK
    noise = None
    if supplied:
        noise = np.random.default_rng(5).standard_normal((45, R, N)) * 0.1
    traj = run_langevin(J, prm, cfg, noise=noise)
    ref = _allocating_run(J, prm, cfg, noise, frame=len(weights) == 1)
    for name, want in zip(("X", "B", "K", "H"), ref):
        got = getattr(traj, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("supplied", [False, True])
def test_frame_run_matches_the_dense_loop(sk_mixing, supplied):
    """A p = 2 run steps in the eigenframe of its couplings.  At N = 40 with
    3 replicas over 200 steps its X, K and H agree with the dense-kernel
    loop to 1e-12 relative (sup norms), with generator noise and with
    supplied increments, and B, summed from the increments as drawn, is
    the loop's bit for bit."""
    prm = soft_params()
    N, R = 40, 3
    J = condition_disorder(sample_disorder(N, sk_mixing, 6), prm)
    cfg = SimConfig(N=N, dt=0.01, T=2.0, seed=9, replicas=R, snap_stride=10)
    assert cfg.n_steps == 200
    noise = None
    if supplied:
        noise = np.random.default_rng(2).standard_normal((200, R, N)) * 0.1
    traj = run_langevin(J, prm, cfg, noise=noise)
    X, B, K, H = _allocating_run(J, prm, cfg, noise)
    assert traj.B.tobytes() == B.tobytes()
    assert np.array_equal(traj.X[0], X[0])
    for name, want in (("X", X), ("K", K), ("H", H)):
        got = getattr(traj, name)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def _trajectory(S, R, N, seed):
    rng = np.random.default_rng(seed)
    cfg = SimConfig(N=N, dt=0.01, T=0.01 * (S - 1), seed=0, replicas=R)
    return simulate.Trajectory(
        times=np.arange(S) * 0.01, X=rng.standard_normal((S, R, N)),
        B=rng.standard_normal((S, R, N)).cumsum(axis=0),
        K=rng.random((S, R)), H=rng.standard_normal((S, R)), config=cfg,
        params=ModelParams(beta=1.0, q_star=0.9, q_o=0.3, E_star=0.3,
                           G_star=0.8, confinement=Confinement.soft(20.0, 1)))


def _replica_gaps(traj, limit):
    """Each replica's sup gaps of C and chi to ``limit``, shape (R, 2), from
    its whole C and chi: the einsum "sri,tri->rst" divided by N."""
    N = traj.X.shape[2]
    C = np.einsum("sri,tri->rst", traj.X, traj.X) / N
    chi = np.einsum("sri,tri->rst", traj.X, traj.B) / N
    return np.stack([np.abs(C - limit[0]).max(axis=(1, 2)),
                     np.abs(chi - limit[1]).max(axis=(1, 2))], axis=1)


def _random_limit(S, seed):
    rng = np.random.default_rng(seed)
    return rng.random((S, S)), rng.random((S, S)), rng.random(S), rng.random(S)


@pytest.mark.parametrize("R", [1, 8])
@pytest.mark.parametrize("S", [11, 201])
def test_observables_are_the_three_operand_einsum(S, R):
    """The replica means of C and chi have the bytes of the einsum
    "sri,tri->rst" over all snapshots at once (divided by N), and each
    replica's sup gaps of C and chi to a limit are those of that einsum's
    C and chi: 11 snapshots fit one row tile, 201 make six full tiles and a
    partial one."""
    N = 100
    traj = _trajectory(S, R, N, S * R)
    C = np.einsum("sri,tri->rst", traj.X, traj.X) / N
    chi = np.einsum("sri,tri->rst", traj.X, traj.B) / N
    limit = _random_limit(S, S + R)
    emp = empirical_observables(traj, limit)
    assert emp.C_avg.tobytes() == C.mean(axis=0).tobytes()
    assert emp.chi_avg.tobytes() == chi.mean(axis=0).tobytes()
    assert emp.gaps.tobytes() == _replica_gaps(traj, limit).tobytes()


def test_observables_and_errors_hold_no_per_replica_arrays():
    """At S = 201, R = 8, N = 400 the observables and both error calls peak
    under 3 MB of new allocations: the replica means (0.65 MB) and their two
    row tiles (0.82 MB), where every replica's C and chi (5.2 MB) would not
    fit."""
    S, R = 201, 8
    traj = _trajectory(S, R, 400, 3)
    limit = _random_limit(S, 4)
    tracemalloc.start()
    try:
        emp = empirical_observables(traj, limit)
        err = error_functional(emp)
        per = error_functional(emp, per_replica=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6, peak / 1e6
    assert math.isfinite(err) and per.shape == (R,)


@pytest.mark.parametrize("R", [1, 8])
@pytest.mark.parametrize("S", [11, 201])
def test_gaps_taken_in_the_pass_are_the_built_replicas_gaps(S, R):
    """The sup gaps the observables' pass takes, and the per-replica errors
    read from them, have the bytes of those from each replica's whole C and
    chi, against a limit that is not symmetric and has one entry of C or
    chi far off, above or below the diagonal, in the first, a middle or the
    last row tile; a NaN in a replica's snapshots gives that replica NaN."""
    N = 50
    traj = _trajectory(S, R, N, S + R)
    base = empirical_observables(traj)
    rng = np.random.default_rng(S * R)
    spikes = [(0, S - 1), (S - 1, 0), (S // 2, S - 1), (S - 1, S // 3)]
    for (a, b), target in product(spikes, (0, 1)):
        limit = (base.C_avg + 0.01 * rng.standard_normal((S, S)),
                 base.chi_avg + 0.01 * rng.standard_normal((S, S)),
                 base.q_avg, base.H_avg)
        limit[target][a, b] += 0.3
        emp = empirical_observables(traj, limit)
        assert emp.limit is limit
        assert emp.C_avg.tobytes() == base.C_avg.tobytes()
        assert emp.chi_avg.tobytes() == base.chi_avg.tobytes()
        gaps = _replica_gaps(traj, limit)
        assert emp.gaps.tobytes() == gaps.tobytes()
        assert gaps[:, target].max() >= 0.2
        want = np.array([sum(min(g, 1.0) for g in (
            c, x, np.abs(emp.q[r] - limit[2]).max(), np.abs(emp.H[r] - limit[3]).max()))
            for r, (c, x) in enumerate(gaps)])
        assert error_functional(emp, per_replica=True).tobytes() == want.tobytes()
    traj.X[S // 2, R - 1, 3] = np.nan
    emp = empirical_observables(traj, limit)
    values = error_functional(emp, per_replica=True)
    assert np.array_equal(np.isnan(values), np.arange(R) == R - 1)
    assert np.array_equal(np.isnan(emp.gaps), np.isnan(_replica_gaps(traj, limit)))


@pytest.mark.parametrize("bad", ["C", "chi", "q", "H"])
def test_a_limit_of_another_shape_is_a_grid_mismatch(bad):
    """A limit whose C or chi is not (S, S), or whose q or H is not (S,),
    for the run's S snapshots is refused, naming the array and both shapes,
    not read from a corner or broadcast."""
    S, R = 11, 3
    traj = _trajectory(S, R, 20, 5)
    k = ("C", "chi", "q", "H").index(bad)
    limit = list(_random_limit(S, 6))
    limit[k] = np.zeros((S + 3, S + 3) if k < 2 else (1,))
    want = (S, S) if k < 2 else (S,)
    with pytest.raises(GridMismatch, match=rf"limit {bad} has shape "
                       rf"{re.escape(str(limit[k].shape))}, 11 snapshots need "
                       rf"{re.escape(str(want))}"):
        empirical_observables(traj, tuple(limit))


def test_error_functional_needs_a_limit():
    """A bundle built without a limit has no error to report."""
    emp = empirical_observables(_trajectory(5, 2, 10, 1))
    assert emp.limit is None and emp.gaps is None
    with pytest.raises(ValidationError, match="without a limit"):
        error_functional(emp)


def test_blowup_guard_trips_on_a_nan_in_a_later_replica(sk_mixing):
    """A NaN increment in replica 2 of 4 makes its K NaN at the next step,
    and the guard, one reduction over all replicas, raises on it."""
    prm = soft_params()
    N, R = 12, 4
    J = condition_disorder(sample_disorder(N, sk_mixing, 3), prm)
    cfg = SimConfig(N=N, dt=0.01, T=0.2, seed=8, replicas=R)
    noise = np.random.default_rng(2).standard_normal((20, R, N)) * 0.1
    noise[6, 2, 5] = np.nan
    with pytest.raises(StepUnstable, match="radial blow-up after step 7"):
        run_langevin(J, prm, cfg, noise=noise)


def test_rotations_about_the_conditioning_axis(sk_mixing, hamiltonian_and_grad):
    """Conjugating the conditioned couplings by a rotation fixing the first
    axis preserves the pinning exactly and the empirical laws statistically."""
    prm = soft_params()
    N, R = 32, 32
    J = condition_disorder(sample_disorder(N, sk_mixing, 21), prm)
    block, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((N - 1,
                                                                      N - 1)))
    Q = np.eye(N)
    Q[1:, 1:] = block
    Jr = J.copy()
    Jr.tensors[2] = np.einsum("ij,ia,jb->ab", J.tensors[2], Q, Q)
    sigma = star_point(N, 1.0)
    H, g = hamiltonian_and_grad(Jr, sigma)
    assert abs(H + N * prm.E_star) / N <= 1e-12
    assert np.abs(g + prm.G_star * sigma).max() <= 1e-12
    cfg = SimConfig(N=N, dt=2e-3, T=1.0, seed=42, replicas=R, snap_stride=25)
    ea = empirical_observables(run_langevin(J, prm, cfg))
    eb = empirical_observables(run_langevin(Jr, prm, cfg))
    assert np.abs(ea.C_avg - eb.C_avg).max() <= 0.03
    assert np.abs(ea.q_avg - eb.q_avg).max() <= 0.04


def test_soft_confinement_controls_the_radius():
    zero = MixingFunction((0.0,))
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.soft(100.0, 1))
    J = sample_disorder(200, zero, 0)
    traj = run_langevin(J, prm, SimConfig(N=200, dt=1e-3, T=1.0, seed=3,
                                          replicas=4, snap_stride=100))
    assert traj.K.min() > 0.9 and traj.K.max() < 1.1


def test_empirical_identities(sk_mixing):
    prm = soft_params()
    N = 16
    J = condition_disorder(sample_disorder(N, sk_mixing, 3), prm)
    cfg = SimConfig(N=N, dt=0.01, T=0.2, seed=9, replicas=3, snap_stride=5)
    traj = run_langevin(J, prm, cfg)
    emp = empirical_observables(traj)
    S1 = traj.times.size
    assert emp.C_avg.shape == emp.chi_avg.shape == (S1, S1)
    assert np.abs(np.diag(emp.C_avg) - traj.K.mean(axis=1)).max() <= 1e-12
    assert np.all(emp.chi_avg[:, 0] == 0.0)             # B(0) = 0
    for r in range(3):
        assert abs(emp.q[r, 0] - prm.q_o) <= 1e-12
    assert_allclose(emp.H_avg, emp.H.mean(axis=0), rtol=0, atol=0)


def _bundle_from_limit(limit, times):
    """One replica equal to the limit at ``times``, and built against it."""
    snap = limit_at_snapshots(times, limit)
    C, chi, q, H = snap
    return EmpiricalBundle(times=times, q=q[None], H=H[None], C_avg=C,
                           chi_avg=chi, q_avg=q, H_avg=H, limit=snap,
                           gaps=np.zeros((1, 2)))


def test_error_functional_properties(sk_mixing):
    prm = soft_params(L=100.0)
    limit = solve_soft(prm, sk_mixing, TwoTimeGrid.from_T(0.5, 0.05))
    times = limit.grid.times()[::2]
    emp = _bundle_from_limit(limit, times)
    assert error_functional(emp) == 0.0
    assert_allclose(error_functional(emp, per_replica=True), [0.0])
    far = _bundle_from_limit(limit, times)
    far.C_avg = far.C_avg + 100.0
    far.q_avg = far.q_avg - 50.0
    capped = error_functional(far)
    assert 2.0 <= capped <= 4.0                     # each block saturates at 1
    with pytest.raises(GridMismatch):  # the limit is read on its own grid
        limit_at_snapshots(times + 0.013, limit)


_OBSERVABLES = ("C", "chi", "q", "H")


def _bundle_of(times, per, avg, limit):
    """An EmpiricalBundle against ``limit`` from per-replica and averaged
    (C, chi, q, H): per replica it keeps q and H, and the sup gaps of C
    and chi."""
    R = per[0].shape[0]
    gaps = np.stack([np.abs(per[k] - limit[k]).reshape(R, -1).max(axis=1)
                     for k in (0, 1)], axis=1)
    return EmpiricalBundle(times=times, q=per[2], H=per[3], limit=limit,
                           gaps=gaps,
                           **{f"{k}_avg": a for k, a in zip(_OBSERVABLES, avg)})


@given(data=st.data(), S=st.integers(min_value=1, max_value=6),
       R=st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_error_functional_is_capped_exact_and_keeps_nan(data, S, R):
    """Averaged and per replica: each sup-norm term is capped at 1, so the
    value lies in [0, 4]; it is exactly 0 on the limit tuple itself; a NaN
    in any empirical array gives NaN, never a capped 1.0."""
    shapes = ((S, S), (S, S), (S,), (S,))
    finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)

    def draw(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=finite))

    times = np.arange(S) * 0.1
    limit = tuple(draw(shape) for shape in shapes)
    per = [draw((R, *shape)) for shape in shapes]
    avg = [draw(shape) for shape in shapes]
    emp = _bundle_of(times, per, avg, limit)
    value = error_functional(emp)
    values = error_functional(emp, per_replica=True)
    assert 0.0 <= value <= 4.0
    assert values.shape == (R,) and np.all((0.0 <= values) & (values <= 4.0))

    stacked = [np.repeat(a[None], R, axis=0) for a in limit]
    exact = _bundle_of(times, stacked, limit, limit)
    assert error_functional(exact) == 0.0
    assert np.all(error_functional(exact, per_replica=True) == 0.0)
    far = _bundle_of(times, [a + 2.0 for a in stacked], [a + 2.0 for a in limit], limit)
    assert error_functional(far) == 4.0
    assert np.all(error_functional(far, per_replica=True) == 4.0)
    for k in range(4):  # one array off: its sup gap, capped at 1
        one = _bundle_of(times, [per[j] if j == k else stacked[j] for j in range(4)],
                         [avg[j] if j == k else limit[j] for j in range(4)], limit)
        gap = np.abs(avg[k] - limit[k]).max()
        gaps = np.abs(per[k] - limit[k]).reshape(R, -1).max(axis=1)
        assert error_functional(one) == min(gap, 1.0)
        assert np.array_equal(error_functional(one, per_replica=True),
                              np.minimum(gaps, 1.0))

    k = data.draw(st.integers(0, 3), label="array")
    i = data.draw(st.integers(0, limit[k].size - 1), label="entry")
    r = data.draw(st.integers(0, R - 1), label="replica")
    per[k][r].flat[i] = np.nan
    avg[k].flat[i] = np.nan
    emp = _bundle_of(times, per, avg, limit)
    assert math.isnan(error_functional(emp))
    values = error_functional(emp, per_replica=True)
    assert math.isnan(values[r])
    assert not np.isnan(np.delete(values, r)).any()


@pytest.mark.parametrize("idx", [
    np.arange(0, 11, 2), np.arange(11), np.array([0, 7, 3, 10, 3]), np.array([4])])
def test_limit_at_snapshots_reads_the_full_limit(sk_mixing, integrated_response, idx):
    """The snapshot rows' trapezoid read at min(s, t) has the bytes of the
    integrated response on the whole grid, also for unsorted snapshots."""
    limit = solve_soft(soft_params(L=100.0), sk_mixing, TwoTimeGrid.from_T(0.5, 0.05))
    C, chi, q, H = limit_at_snapshots(limit.grid.times()[idx], limit)
    full = integrated_response(limit.R, limit.grid.h)[np.ix_(idx, idx)]
    assert chi.tobytes() == full.tobytes()
    assert C.tobytes() == limit.C[np.ix_(idx, idx)].tobytes()
    assert q.tobytes() == limit.q[idx].tobytes()
    assert H.tobytes() == limit.H[idx].tobytes()


def test_simulation_tracks_the_limit(sk_mixing):
    prm = soft_params(L=100.0)
    N = 64
    J = condition_disorder(sample_disorder(N, sk_mixing, 1234), prm)
    cfg = SimConfig(N=N, dt=2e-3, T=0.5, seed=777, replicas=4, snap_stride=25)
    traj = run_langevin(J, prm, cfg)
    limit = solve_soft(prm, sk_mixing, TwoTimeGrid.from_T(0.5, 0.05))
    emp = empirical_observables(traj, limit_at_snapshots(traj.times, limit))
    err = error_functional(emp)
    per = error_functional(emp, per_replica=True)
    assert err <= 0.5
    assert per.shape == (4,) and per.max() <= 1.0


def test_hessian_spectrum_model(pure3_mixing):
    flat = conditional_hessian_spectrum(40, MixingFunction((0.0,)), 1.0,
                                        1.7, 0)
    assert flat.shape == (39,)
    assert np.all(flat == 1.7)
    thr = 2.0 * math.sqrt(pure3_mixing.nu(0.81, 2))
    for seed in range(10):
        stiff = conditional_hessian_spectrum(300, pure3_mixing, 0.9,
                                             1.1 * thr, seed)
        soft_ = conditional_hessian_spectrum(300, pure3_mixing, 0.9,
                                             0.9 * thr, seed)
        assert stiff[0] > 0.0
        assert soft_[0] < 0.0
    # semicircle edges at G +/- 2 sqrt(nu'')
    edge = conditional_hessian_spectrum(1000, MixingFunction((0.125,)), 1.0,
                                        3.0, 42)
    assert abs(edge[0] - 2.0) <= 0.1 and abs(edge[-1] - 4.0) <= 0.1


def test_resource_and_mode_guards(sk_mixing, pure3_mixing):
    # the store plus the draw vector: pure p = 3 fits the budget up to
    # N = 737, checked without sampling it
    assert simulate._coupling_bytes(737, [3]) <= simulate._BUDGET \
        < simulate._coupling_bytes(738, [3])
    with pytest.raises(SizeOverflow):
        sample_disorder(738, pure3_mixing, 0)
    # any order within the byte budget: p = 5 at N = 2
    J = sample_disorder(2, MixingFunction((0.0, 0.0, 0.0, 0.125)), 0)
    assert _dense(J, 5).shape == (2,) * 5
    with pytest.raises(ValidationError):
        sample_disorder(1, sk_mixing, 0)
    J = sample_disorder(8, sk_mixing, 1)
    hard = ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625,
                       G_star=1.25, confinement=Confinement.hard())
    with pytest.raises(ValidationError, match="finite-N runs need a soft confinement"):
        run_langevin(J, hard, SimConfig(N=8, dt=0.01, T=0.1, seed=0))
    with pytest.raises(ValidationError):
        run_langevin(J, soft_params(), SimConfig(N=10, dt=0.01, T=0.1, seed=0))
    with pytest.raises(ValidationError):
        SimConfig(N=8, dt=0.01, T=0.105, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(N=8, dt=0.01, T=0.1, seed=0, snap_stride=3)
    with pytest.raises(ValidationError):
        SimConfig(N=8, dt=-0.01, T=0.1, seed=0)
    with pytest.raises(ValidationError):  # T/dt overflows to inf
        SimConfig(N=8, dt=5e-324, T=0.1, seed=0)


def test_the_coupling_budget_counts_the_eigenframe(sk_mixing, monkeypatch):
    """A quadratic mixture's coupling peak is run_langevin's eigenframe: the
    store, Q, eigh's copy of A and LAPACK's workspace.  Its store and draw
    (2 N^2 floats) fit the budget up to N = 11585, the frame only up to
    N = 7325, so sample_disorder refuses N = 7326 before it draws."""
    budget = simulate._BUDGET
    assert 8 * 2 * 11585 ** 2 <= budget < 8 * 2 * 11586 ** 2
    assert simulate._coupling_bytes(7325, [2]) <= budget \
        < simulate._coupling_bytes(7326, [2])
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a: pytest.fail("sampled before the budget check"))
    with pytest.raises(SizeOverflow, match="couplings need"):
        sample_disorder(7326, sk_mixing, 0)


def test_snapshot_bytes_are_what_a_run_holds(sk_mixing):
    """_snapshot_bytes counts the X and B snapshots, the replica means of C
    and chi and the two row tiles the means are built in: the nbytes of
    those arrays in a small run, and at N = 400 with 8 replicas the budget
    holds 9985 snapshots but not 9986, checked without allocating them.
    SimConfig refuses a run over the budget with SizeOverflow."""
    cfg = SimConfig(N=12, dt=0.01, T=0.2, seed=3, replicas=3, snap_stride=4)
    J = condition_disorder(sample_disorder(12, sk_mixing, 5), soft_params())
    traj = run_langevin(J, soft_params(), cfg)
    emp = empirical_observables(traj)
    S = cfg.times().size
    tile = np.empty((min(simulate._OBS_BLOCK, S), S, 3))
    held = (traj.X, traj.B, emp.C_avg, emp.chi_avg, tile, tile)
    assert model._snapshot_bytes(12, 3, S) == sum(a.nbytes for a in held)

    assert model._snapshot_bytes(400, 8, 9985) <= model._BUDGET \
        < model._snapshot_bytes(400, 8, 9986)
    SimConfig(N=400, dt=1.0, T=9984.0, seed=0, replicas=8)  # 9985 snapshots
    with pytest.raises(SizeOverflow):
        SimConfig(N=400, dt=1.0, T=9985.0, seed=0, replicas=8)
    # the simulate-p2 benchmark config without its grid, stride 1: 1.47 GB
    # at T = 4, and 2.97 GB at T = 6
    SimConfig(N=400, dt=5e-4, T=4.0, seed=0, replicas=8)
    with pytest.raises(SizeOverflow, match="need 2967991312 bytes"):
        SimConfig(N=400, dt=5e-4, T=6.0, seed=0, replicas=8)


def test_radial_blowup_guard(pure3_mixing):
    prm = ModelParams(beta=8.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.soft(0.001, 1))
    J = sample_disorder(8, pure3_mixing, 1)
    with pytest.raises(StepUnstable, match="radial blow-up after step"):
        run_langevin(J, prm, SimConfig(N=8, dt=0.01, T=2.0, seed=2,
                                       replicas=2))
