import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinband.errors import NoBranch, StepUnstable, ValidationError
from spinband.fdt import solve_D
from spinband.sk import (_LAG_GRID, SkParams, _prefix_conv, damped_mgf,
                         energy_from_mu, march_covariance, resolvent_root, sk_asymptotics,
                         solve_two_time, superposition_gap)
from spinband.model import Confinement, ModelParams
from spinband.volterra import TwoTimeGrid, _cumtrapz, compare_bundles, solve_hard

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def ref():
    return SkParams(beta=1.0, G_star=1.25)


@pytest.fixture(scope="module")
def ref_solution(ref):
    return solve_two_time(ref, TwoTimeGrid.from_T(12.0, 0.02))


def _chebyshev_mgf(theta, beta, n=4000):
    """(2/pi) int_{-1}^1 e^{beta theta x} sqrt(1-x^2) dx by Gauss-Chebyshev."""
    k = np.arange(1, n + 1)
    x = np.cos(k * np.pi / (n + 1))
    w = (np.pi / (n + 1)) * np.sin(k * np.pi / (n + 1)) ** 2
    return (2.0 / np.pi) * float(w @ np.exp(beta * theta * x))


def test_mgf_against_quadrature_oracle():
    # spans both evaluation branches (series below z = 20, expansion above)
    for theta in (0.0, 0.5, 3.0, 10.0, 19.5, 20.5, 40.0, 100.0):
        exact = _chebyshev_mgf(theta, 1.0)
        assert abs(damped_mgf(theta, 1.0, 0.0) - exact) <= 1e-13 * exact
    arr = damped_mgf(np.array([1.0, 30.0]), 2.0, 0.0)
    assert_allclose(arr, [_chebyshev_mgf(1.0, 2.0), _chebyshev_mgf(30.0, 2.0)],
                    rtol=1e-13)
    with pytest.raises(ValidationError, match="theta must be nonnegative"):
        damped_mgf(-1.0, 1.0, 0.0)


def test_damped_mgf_is_overflow_safe():
    theta = 3.0
    plain = math.exp(-1.0 * 1.25 * theta) * damped_mgf(theta, 1.0, 0.0)
    assert abs(damped_mgf(theta, 1.0, 1.25) - plain) <= 1e-12 * plain
    # the undamped form overflows long before this; the damped one cannot
    big = damped_mgf(1e5, 1.0, 1.5)
    assert 0.0 < big < 1e-300 or big == 0.0
    with np.errstate(over="ignore"):
        assert damped_mgf(800.0, 1.0, 0.0) == np.inf


def test_resolvent_root():
    assert resolvent_root(1.25) == 0.5
    for G in (1.0, 1.7, 7.3, 1e8):
        y = resolvent_root(G)
        assert abs(1.0 - 2.0 * G * y + y * y) <= 1e-12
    with pytest.raises(ValidationError, match="needs G >= 1, got 0.99"):
        resolvent_root(0.99)


def test_tail_integral_and_y_identity(mgf_tail_integral):
    for beta, G in ((1.0, 1.25), (0.7, 2.0)):
        total = mgf_tail_integral(0.0, beta, G)
        assert abs(0.5 * beta * total - resolvent_root(G)) <= 1e-8
    taus = np.array([0.0, 0.5, 1.0, 3.0])
    vals = mgf_tail_integral(taus, 1.0, 1.25)
    u = np.linspace(0.0, 200.0, 400001)
    lg = damped_mgf(u, 1.0, 1.25)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (u[1] - u[0]) * (lg[1:] + lg[:-1]))])
    dense = cum[-1] - np.interp(taus, u, cum)
    assert np.abs(vals - dense).max() <= 1e-6
    # order-insensitive on unsorted input
    shuffled = mgf_tail_integral(taus[::-1].copy(), 1.0, 1.25)
    assert_allclose(shuffled, vals[::-1], rtol=0, atol=0)
    with pytest.raises(ValueError, match="tail integral needs G > 1"):
        mgf_tail_integral(0.0, 1.0, 1.0)


def test_parameter_guards():
    assert SkParams(beta=1.0, G_star=1.25).E_star == 0.625
    with pytest.raises(ValidationError, match="beta must be positive"):
        SkParams(beta=0.0, G_star=1.25)
    with pytest.raises(ValidationError, match="needs G_star > 1 for a stable well"):
        SkParams(beta=1.0, G_star=1.0)
    with pytest.raises(ValidationError, match=r"q_star must lie in \(0, 1\]"):
        SkParams(beta=1.0, G_star=1.25, q_star=1.5)
    with pytest.raises(ValidationError, match=r"\|q_o\| cannot exceed q_star"):
        SkParams(beta=1.0, G_star=1.25, q_star=0.5, q_o=0.6)


def _kernel(params, grid):
    qo2 = params.q_o ** 2
    return march_covariance(params.beta, params.G_star,
                            params.q_star ** 2 - qo2, qo2, grid)


def test_two_time_structure(ref, ref_solution):
    sol = ref_solution
    assert abs(sol.C[0, 0] - 1.0) <= 1e-12
    assert_allclose(np.diag(sol.R), 1.0, rtol=0, atol=0)
    assert sol.q[0] == ref.q_o
    M = _kernel(ref, sol.grid)
    assert np.array_equal(M, M.T)
    lam = np.sqrt(ref.q_o ** 2 + np.diag(M))
    assert_allclose(sol.q, ref.q_star * ref.q_o / lam, rtol=0, atol=0)
    assert_allclose(sol.C, M / np.outer(lam, lam)
                    + np.outer(sol.q, sol.q) / ref.q_star ** 2,
                    rtol=0, atol=1e-15)
    assert sol.mu[0] == 0.5 + ref.beta * ref.G_star * ref.q_o ** 2
    assert_allclose(sol.H, energy_from_mu(sol.mu, ref.beta), rtol=0, atol=0)
    # localized regime: the overlap settles near alpha = sqrt(1 - y/beta)
    assert abs(sol.q[-1] - math.sqrt(0.5)) <= 5e-3


def test_stationary_identity(ref, stationary_covariance):
    """The tail-integral profile solves the time-translation-invariant system."""
    beta, G = ref.beta, ref.G_star
    gamma0 = stationary_covariance(0.0, ref)
    y = resolvent_root(G)
    alpha_sq = 1.0 - y / beta
    assert abs(gamma0 - (1.0 / alpha_sq - 1.0)) <= 1e-12
    # 0 = 1 + (1 - 2 beta G) Gamma(0) + beta^2 int_0^infty L_G(u) Gamma(u) du
    nodes, weights = np.polynomial.legendre.leggauss(32)
    bounds = np.linspace(0.0, 80.0, 41)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    pts = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    integrand = damped_mgf(pts, beta, G) * stationary_covariance(pts, ref)
    integral = float(integrand.reshape(40, 32) @ weights @ half)
    resid = 1.0 + (1.0 - 2.0 * beta * G) * gamma0 + beta * beta * integral
    assert abs(resid) <= 1e-6


def test_kernel_becomes_stationary(ref, ref_solution, stationary_covariance):
    grid = ref_solution.grid
    M = _kernel(ref, grid)
    i0 = grid.index_of(10.0)
    qo2 = ref.q_o ** 2
    worst = max(abs(M[grid.index_of(10.0 + tau), i0] / qo2
                    - stationary_covariance(tau, ref))
                for tau in (0.0, 0.5, 1.0, 2.0))
    assert worst <= 5e-3


def test_superposition_of_elementary_solutions(ref):
    gaps = superposition_gap(ref, TwoTimeGrid.from_T(2.0, 0.02))
    assert gaps["linear_gap"] <= 1e-8          # exact for the discrete scheme
    assert gaps["gauge_gap"] <= 1e-3           # O(h^2) discretization diagnostic


def test_oracle_holds_one_square_array(ref):
    """C is built in the kernel's place and R is not stored, so the solve's
    traced peak stays below 1.25 (n+1)^2 floats: C, plus O(n) rows."""
    import tracemalloc
    solve_two_time(ref, TwoTimeGrid.from_T(0.1, 0.02))  # numpy's lazy imports
    grid = TwoTimeGrid(0.02, 400)
    tracemalloc.start()
    try:
        solve_two_time(ref, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (grid.n + 1) ** 2, peak


def test_response_rows_build_the_full_response(ref, ref_solution):
    """R_rows over any row slice gives the rows of the R property, bit for
    bit, and R(s, t) = L_G(s - t) Lambda(t) / Lambda(s) below the diagonal."""
    sol = ref_solution
    R = sol.R
    n = sol.grid.n
    for r in (slice(0, 1), slice(3, 70), slice(n - 5, n + 1), slice(n, None)):
        assert sol.R_rows(r).tobytes() == R[r].tobytes()
    assert np.array_equal(np.triu(R, 1), np.zeros_like(R))
    s, t = 200, 57
    assert_allclose(R[s, t], sol.lg[s - t] * sol.lam[t] / sol.lam[s], rtol=1e-15)


def test_superposition_audit_holds_three_square_arrays(ref):
    """The audit marches four kernels but keeps at most three, and takes
    its gaps by row block: traced peak below 3.5 (n+1)^2 floats."""
    import tracemalloc
    superposition_gap(ref, TwoTimeGrid.from_T(0.1, 0.02))  # lazy imports
    grid = TwoTimeGrid(0.02, 400)
    tracemalloc.start()
    try:
        superposition_gap(ref, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * (grid.n + 1) ** 2, peak


def test_sk_command_holds_three_square_arrays(tmp_path):
    """The sk command writes R.npy from the oracle's R row blocks and C.npy
    from its C, then drops the solution before the superposition audit marches: traced
    peak below 3.5 (n+1)^2 floats at n = 400."""
    import json
    import tracemalloc

    from spinband.cli import _run_sk, parse_config
    model = {"coeffs_sq": [0.125], "beta": 1.0, "q_star": 1.0, "q_o": 0.5,
             "E_star": 0.625, "G_star": 1.25}
    configs = {}
    for name, T in (("warm", 0.1), ("run", 4.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"model": model, "grid": {"T": T, "h": 0.01}}))
        configs[name] = parse_config(path, command="sk")
        (tmp_path / name).mkdir()
    _run_sk(configs["warm"], tmp_path / "warm")  # lazy imports
    assert configs["run"].grid.n == 400
    tracemalloc.start()
    try:
        _run_sk(configs["run"], tmp_path / "run")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * 401 ** 2, peak


def test_long_time_constants(ref):
    alpha_sq, c_fdt, mu_inf, h_inf = sk_asymptotics(ref)
    assert alpha_sq == 0.5
    assert mu_inf == 1.25
    assert h_inf == 0.375
    assert c_fdt[0] == 1.0
    assert np.all(np.diff(c_fdt) < 0.0)
    assert abs(c_fdt[-1] - alpha_sq) <= 1e-2   # plateau approached at T = 10
    with pytest.raises(NoBranch, match="beta = 0.3 <= y = 0.5"):
        sk_asymptotics(SkParams(beta=0.3, G_star=1.25))


def test_lag_profile_agrees_with_generic_fdt_solver(ref, sk_mixing):
    """C_fdt is D(tau) of the lag equation with the affine
    phi(x) = beta G + (beta^2/2)(x - 1), i.e. gamma = beta G - beta^2/2,
    and mu_inf = beta G is that phi at 1."""
    gamma = ref.beta * ref.G_star - 0.5 * ref.beta ** 2
    assert gamma == 0.75
    D, _ = solve_D(gamma, ref.beta, sk_mixing, _LAG_GRID)
    _, c_fdt, mu_inf, _ = sk_asymptotics(ref)
    phi_one = gamma + 2.0 * ref.beta ** 2 * sk_mixing.nu(1.0, 1)
    assert mu_inf == phi_one == 1.25
    assert np.abs(D - c_fdt).max() <= 5e-4


def test_energy_conversion():
    assert energy_from_mu(1.25, 1.0) == 0.375
    mus = np.array([0.5, 1.25])
    assert_allclose(energy_from_mu(mus, 1.0), [0.0, 0.375], rtol=0, atol=0)


def test_kernel_march_blowup_guard(ref):
    """A diagonal past _BLOWUP = 1e12, or a NaN one, stops the march."""
    for m0 in (1e13, math.nan):
        with pytest.raises(StepUnstable, match="blew up at step 1"):
            march_covariance(ref.beta, ref.G_star, m0, 0.25, TwoTimeGrid.from_T(1.0, 0.02))


def _two_sum_march(beta, G, m0, qo_sq, grid):
    """The kernel march with the full memory sum taken in every rhs call."""
    h, n = grid.h, grid.n
    b2 = beta * beta
    lg = damped_mgf(grid.times(), beta, G)
    M = np.zeros((n + 1, n + 1))
    M[0, 0] = m0

    def rhs(r):
        a = lg[r::-1]
        t1 = h * np.einsum("j,ji->i", a, M[: r + 1, : r + 1])
        t1 -= 0.5 * h * (a[0] * M[0, : r + 1] + M[r, : r + 1])
        col = M[: r + 1, r]
        t2 = h * (_prefix_conv(lg[: r + 1], col)
                  - 0.5 * (lg[: r + 1] * col[0] + col))
        f_off = -beta * G * M[r, : r + 1] + 0.25 * b2 * (t1 + t2)
        f_diag = qo_sq + (1.0 - 2.0 * beta * G) * M[r, r] + b2 * t1[r]
        return f_off, f_diag

    for i in range(n):
        f1, f1d = rhs(i)
        M[i + 1, : i + 1] = M[i, : i + 1] + h * f1[: i + 1]
        M[i + 1, i + 1] = M[i, i] + h * f1d
        M[: i + 2, i + 1] = M[i + 1, : i + 2]
        f2, f2d = rhs(i + 1)
        M[i + 1, : i + 1] = M[i, : i + 1] + 0.5 * h * (f1[: i + 1] + f2[: i + 1])
        M[i + 1, i + 1] = M[i, i] + 0.5 * h * (f1d + f2d)
        M[: i + 2, i + 1] = M[i + 1, : i + 2]
    return M


@pytest.mark.parametrize("G", [1.0, 1.25])
@pytest.mark.parametrize("n", [1, 2, 7, 600])
def test_frozen_row_sum_keeps_the_march_bits(n, G):
    """Summing the final rows once per step gives the bytes of the march
    that sums all rows in each rhs call; n = 600 crosses the FFT switch."""
    grid = TwoTimeGrid(0.01, n)
    M = march_covariance(1.0, G, 0.75, 0.25, grid)
    assert M.tobytes() == _two_sum_march(1.0, G, 0.75, 0.25, grid).tobytes()


def test_matches_general_solver(ref, sk_params, sk_mixing):
    """Closed-form quadratic solution vs the generic conditioned march."""
    grid = TwoTimeGrid.from_T(2.0, 0.02)
    general = solve_hard(sk_params, sk_mixing, grid)
    closed = solve_two_time(ref, grid)
    for name in ("R", "C", "q", "mu", "H"):
        gap = np.abs(getattr(general, name) - getattr(closed, name)).max()
        assert gap <= 2e-4, f"{name}: {gap}"


def _oracle_gap(params, sk_mixing, h):
    """max over (R, C, q, mu, H) of the sup gap between the hard march and
    the oracle at T = 3."""
    grid = TwoTimeGrid.from_T(3.0, h)
    general = solve_hard(
        ModelParams(beta=params.beta, q_star=params.q_star, q_o=params.q_o,
                    E_star=params.E_star, G_star=params.G_star,
                    confinement=Confinement.hard()), sk_mixing, grid)
    return max(compare_bundles(general, solve_two_time(params, grid), 0.0)["gaps"].values())


@settings(max_examples=24, deadline=None)
@given(beta=st.floats(0.3, 3.0), G_star=st.floats(1.05, 3.0),
       q_star=st.floats(0.3, 1.0), frac=st.floats(-1.0, 1.0))
def test_march_is_second_order_against_the_oracle(sk_mixing, beta, G_star,
                                                  q_star, frac):
    """Halving h cuts the march's gap to the oracle by at least 3.5 across the
    two-body box.  A second-order march reads 4.0-4.6 here; one whose q
    corrector takes the Euler slope reads about 2 wherever q_o != 0."""
    params = SkParams(beta=beta, G_star=G_star, q_star=q_star, q_o=frac * q_star)
    coarse = _oracle_gap(params, sk_mixing, 0.02)
    fine = _oracle_gap(params, sk_mixing, 0.01)
    assert coarse >= 3.5 * fine, (coarse, fine)


def _lag_gap(beta, G_star, sk_mixing, h):
    """Sup gap at T = 3 between solve_D on a lag grid of step h and the
    closed form C_fdt = 1 - (1/2) int_0^tau L_G, its integral the trapezoid
    on a grid 128 times finer than h = 0.02 (64 times finer than 0.01)."""
    fine = TwoTimeGrid.from_T(3.0, 0.02 / 128)
    c_fdt = 1.0 - 0.5 * _cumtrapz(damped_mgf(fine.times(), beta, G_star), fine.h)
    D, _ = solve_D(beta * G_star - 0.5 * beta ** 2, beta, sk_mixing,
                   TwoTimeGrid.from_T(3.0, h))
    return np.abs(D - c_fdt[::round(h / fine.h)]).max()


@settings(max_examples=12, deadline=None)
@given(beta=st.floats(0.3, 3.0), G_star=st.floats(1.05, 3.0))
def test_lag_solve_is_second_order_against_the_closed_form(sk_mixing, beta, G_star):
    """solve_D with gamma = beta G* - beta^2/2 is the two-body lag profile
    C_fdt, and halving h cuts its gap to the closed form by at least 3.5
    across the box: a second-order solve reads about 4.0 here."""
    coarse = _lag_gap(beta, G_star, sk_mixing, 0.02)
    fine = _lag_gap(beta, G_star, sk_mixing, 0.01)
    assert coarse >= 3.5 * fine, (coarse, fine)


_ORACLE_DIGEST = """
import hashlib
from spinband.sk import SkParams, solve_two_time
from spinband.volterra import TwoTimeGrid
sol = solve_two_time(SkParams(beta=1.0, G_star=1.25), TwoTimeGrid.from_T(10.0, 0.01))
d = hashlib.sha256()
for name in ("q", "R", "C", "mu", "H"):
    d.update(getattr(sol, name).tobytes())
print(d.hexdigest())
"""


def test_oracle_is_bitwise_independent_of_blas_threads():
    """The sk march makes no BLAS call, so 1 and 2 threads give equal bytes.

    Run at n = 1000, the compare-sk grid: on a 2-core host a BLAS matvec
    in the march gave equal bytes at both thread counts up to n = 600 and
    differed only from n = 800 on, so a small grid can miss the regression.
    """
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _ORACLE_DIGEST],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


_THREADED_DIGEST = _ORACLE_DIGEST + """
from concurrent.futures import ThreadPoolExecutor
from spinband.model import Confinement, MixingFunction, ModelParams
from spinband.volterra import solve_hard
mixed = ModelParams(beta=1.0, q_star=0.9, q_o=0.5, E_star=0.3, G_star=0.8,
                    confinement=Confinement.hard())
with ThreadPoolExecutor(1) as pool:
    oracle = pool.submit(solve_two_time, SkParams(beta=1.0, G_star=1.25),
                         TwoTimeGrid.from_T(10.0, 0.01))
    solve_hard(mixed, MixingFunction((0.0625, 0.0625)), TwoTimeGrid.from_T(10.0, 0.01))
    sol = oracle.result()
d = hashlib.sha256()
for name in ("q", "R", "C", "mu", "H"):
    d.update(getattr(sol, name).tobytes())
print(d.hexdigest())
"""


def test_oracle_on_a_worker_thread_keeps_its_bits():
    """compare runs the oracle on a worker thread while the general march
    makes its BLAS calls at 2 OpenBLAS threads; the oracle's bytes are the
    standalone ones."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "2"
    proc = subprocess.run([sys.executable, "-c", _THREADED_DIGEST],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    standalone, threaded = proc.stdout.split()
    assert threaded == standalone
