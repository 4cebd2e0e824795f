"""End-to-end acceptance checks, one test per headline guarantee.

Each test states a quantitative promise of the package at a fixed grid or
seed set and fails loudly if the implementation drifts.  They are slower
than the unit tests (a couple of minutes altogether) and deliberately
redundant with them: the unit suites localize breakage, this file decides
whether a build is acceptable.
"""

import dataclasses
import math

import numpy as np
import pytest

from spinband.fdt import (aging_constants, beta_c, kappa_values,
                          localized_no_aging, solve_fdt)
from spinband.model import Confinement, MixingFunction, ModelParams, SimConfig
from spinband.simulate import (condition_disorder,
                               conditional_hessian_spectrum,
                               empirical_observables, error_functional,
                               limit_at_snapshots, run_langevin,
                               sample_disorder, star_point)
from spinband.sk import (SkParams, damped_mgf, resolvent_root, sk_asymptotics,
                         solve_two_time, superposition_gap)
from spinband.volterra import (TwoTimeGrid, check_bundle,
                               response_integral_bound, soft_hard_gap,
                               solve_hard, solve_soft)

FIELDS = ("R", "C", "q", "mu", "H")


def _sup_gaps(a, b):
    return {f: float(np.abs(getattr(a, f) - getattr(b, f)).max())
            for f in FIELDS}


@pytest.fixture(scope="module")
def run1(sk_params, sk_mixing):
    """The two-body reference run on its production grid."""
    return solve_hard(sk_params, sk_mixing, TwoTimeGrid.from_T(10.0, 0.01))


def test_01_quadratic_oracle_equivalence(run1, sk_params, sk_mixing):
    ref = SkParams(beta=1.0, G_star=1.25)
    closed = solve_two_time(ref, run1.grid)
    gaps = _sup_gaps(run1, closed)
    assert max(gaps.values()) <= 5e-3, gaps

    fine_grid = TwoTimeGrid.from_T(10.0, 0.005)
    fine = _sup_gaps(solve_hard(sk_params, sk_mixing, fine_grid),
                     solve_two_time(ref, fine_grid))
    assert max(gaps.values()) / max(fine.values()) >= 1.8


def test_02_zero_overlap_reduction(sk_mixing):
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.625,
                      G_star=1.25, confinement=Confinement.hard())
    grid = TwoTimeGrid.from_T(5.0, 0.01)
    full = solve_hard(prm, sk_mixing, grid)
    ablated = solve_hard(prm, sk_mixing, grid, conditioned=False)
    assert np.abs(full.q).max() <= 1e-12
    assert np.abs(full.R - ablated.R).max() <= 1e-12
    assert np.abs(full.C - ablated.C).max() <= 1e-12


def test_03_high_temperature_lag_profile(pure3_mixing):
    prm = ModelParams(beta=0.3, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.hard())
    bundle = solve_hard(prm, pure3_mixing, TwoTimeGrid.from_T(30.0, 0.01))
    lag = solve_fdt(0.5, 0.3, pure3_mixing, TwoTimeGrid.from_T(5.0, 0.01))
    i0 = bundle.grid.index_of(20.0)
    rows = np.arange(i0, i0 + 501)
    c_gap = np.abs(bundle.C[rows, i0] - lag.D[:501]).max()
    r_gap = np.abs(bundle.R[rows, i0] - lag.R_fdt[:501]).max()
    assert c_gap <= 1e-2
    assert r_gap <= 2e-2
    phi_one = 0.5 + 2.0 * 0.3 ** 2 * pure3_mixing.nu(1.0, 1)
    assert abs(bundle.mu[bundle.grid.index_of(25.0)] - phi_one) <= 1e-3


def test_04_spherical_invariants(run1):
    n = run1.grid.n
    assert np.array_equal(np.diag(run1.C), np.ones(n + 1))   # enforced
    assert 0 < response_integral_bound(run1) <= 1 + 1e-8
    report = check_bundle(run1)
    assert report["psd_min_eig"] >= -1e-8
    assert np.abs(run1.q).max() <= run1.params.q_star + 1e-8
    assert report["passed"]


def test_05_soft_to_hard_convergence(sk_params, sk_mixing):
    prm = dataclasses.replace(sk_params, confinement=Confinement.soft(10.0, 1))
    recs = soft_hard_gap(prm, sk_mixing, TwoTimeGrid.from_T(2.0, 0.01),
                         (10.0, 100.0, 1000.0))
    k_gaps = [r["k_gap"] for r in recs]
    for lo, hi in zip(k_gaps[1:], k_gaps[:-1]):
        assert 5.0 <= hi / lo <= 20.0, k_gaps
    for field in ("R_gap", "C_gap", "q_gap"):
        vals = [r[field] for r in recs]
        assert vals[0] > vals[1] > vals[2], (field, vals)


def test_06_quadratic_analytic_identities(sk_params, sk_mixing,
                                          stationary_covariance, mgf_tail_integral):
    ref = SkParams(beta=1.0, G_star=1.25)
    beta, G = ref.beta, ref.G_star
    y = resolvent_root(G)
    assert abs(0.5 * beta * mgf_tail_integral(0.0, beta, G) - y) <= 1e-8

    # the stationary profile satisfies its own fixed-point equation
    gamma0 = stationary_covariance(0.0, ref)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    bounds = np.linspace(0.0, 80.0, 41)
    mids = 0.5 * (bounds[1:] + bounds[:-1])
    half = 0.5 * (bounds[1:] - bounds[:-1])
    pts = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    integrand = damped_mgf(pts, beta, G) * stationary_covariance(pts, ref)
    integral = float(integrand.reshape(40, 32) @ weights @ half)
    resid = 1.0 + (1.0 - 2.0 * beta * G) * gamma0 + beta * beta * integral
    assert abs(resid) <= 1e-6

    assert superposition_gap(ref, TwoTimeGrid.from_T(2.0, 0.02))[
        "linear_gap"] <= 1e-8

    alpha_sq, _, mu_inf, h_inf = sk_asymptotics(ref)
    assert alpha_sq == 0.5 and mu_inf == 1.25 and h_inf == 0.375

    late = solve_hard(sk_params, sk_mixing, TwoTimeGrid.from_T(30.0, 0.02))
    i_end = late.grid.index_of(30.0)
    assert abs(late.mu[i_end] - mu_inf) <= 2e-2
    assert abs(late.H[i_end] - h_inf) <= 2e-2
    assert abs(late.C[i_end, late.grid.index_of(10.0)] - alpha_sq) <= 2e-2


def _mc_error(params, nu, N, disorder_seed, sim_seed):
    J = condition_disorder(sample_disorder(N, nu, disorder_seed), params)
    cfg = SimConfig(N=N, dt=5e-4, T=2.0, seed=sim_seed, replicas=8,
                    snap_stride=20)
    traj = run_langevin(J, params, cfg)
    limit = solve_soft(params, nu, TwoTimeGrid.from_T(2.0, 0.01))
    emp = empirical_observables(traj, limit_at_snapshots(traj.times, limit))
    return error_functional(emp)


def test_07_finite_size_runs_track_the_limit(sk_mixing, pure3_mixing):
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625,
                      G_star=1.25, confinement=Confinement.soft(100.0, 1))
    err_400 = _mc_error(prm, sk_mixing, 400, 1234, 777)
    err_100 = _mc_error(prm, sk_mixing, 100, 1234, 777)
    assert err_400 <= 0.2, err_400
    assert err_400 < err_100

    prm3 = ModelParams(beta=0.3, q_star=0.9, q_o=0.5, E_star=0.2,
                       G_star=3.0 * 0.2 / 0.81,
                       confinement=Confinement.soft(100.0, 1))
    err_3 = _mc_error(prm3, pure3_mixing, 200, 99, 31)
    assert err_3 <= 0.3, err_3


def test_08_conditioning_exactness_and_mean(mixed_mixing, hamiltonian_and_grad):
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.0, E_star=0.3, G_star=0.8,
                      confinement=Confinement.hard())
    for N in (10, 100):
        sigma = star_point(N, prm.q_star)
        scale = np.linalg.norm(prm.G_star * sigma)
        for seed in range(50):
            Jc = condition_disorder(sample_disorder(N, mixed_mixing, seed), prm)
            H, g = hamiltonian_and_grad(Jc, sigma)
            assert abs(H + N * prm.E_star) / N <= 1e-8
            assert np.linalg.norm(g + prm.G_star * sigma) / scale <= 1e-8

    # with three active orders the all-ones couplings stay random after
    # conditioning; their sample mean must match the conditional mean
    mix = MixingFunction((0.05, 0.04, 0.03))
    N, draws = 10, 10_000
    qs2 = prm.q_star ** 2
    M = np.array([[qs2 * mix.nu(qs2, 0), qs2 * mix.nu(qs2, 1)],
                  [qs2 * mix.nu(qs2, 1), mix.psi(qs2)]])
    samples = {p: np.empty(draws) for p in (2, 3, 4)}
    for k in range(draws):
        Jc = condition_disorder(sample_disorder(N, mix, k), prm)
        for p in (2, 3, 4):
            samples[p][k] = Jc.coupling(p, (0,) * p)
    for p in (2, 3, 4):
        vp = np.linalg.solve(M, np.array([qs2, float(p)]))
        expect = (-Jc.weight(p) * N ** (1 - p / 2.0) * prm.q_star ** p
                  * float(vp @ np.array([prm.E_star, prm.G_star])))
        se = samples[p].std(ddof=1) / math.sqrt(draws)
        assert abs(samples[p].mean() - expect) <= 3.0 * se, p


def test_09_hessian_stability_threshold(pure3_mixing):
    root = math.sqrt(pure3_mixing.nu(0.81, 2))
    stiff = sum(conditional_hessian_spectrum(300, pure3_mixing, 0.9,
                                             2.2 * root, seed)[0] > 0.0
                for seed in range(100))
    soft = sum(conditional_hessian_spectrum(300, pure3_mixing, 0.9,
                                            1.8 * root, seed)[0] < 0.0
               for seed in range(100))
    assert stiff >= 95, stiff
    assert soft >= 95, soft


def test_10_fdt_constants(pure3_mixing, sk_params, sk_mixing, plateau_identity):
    sol = solve_fdt(0.5, 0.3, pure3_mixing, TwoTimeGrid.from_T(35.0, 0.005))
    k1, k2 = kappa_values(sol, pure3_mixing)
    assert max(abs(k1 - sol.kappa1), abs(k2 - sol.kappa2)) <= 1e-4

    beta = 1.5 * beta_c(pure3_mixing)
    con = aging_constants(beta, pure3_mixing)
    assert abs(plateau_identity(con, beta, pure3_mixing)) <= 1e-8

    rep = localized_no_aging(sk_params, sk_mixing)
    assert rep.beta_plus == rep.y


@pytest.mark.parametrize("coeffs_sq, q_star, E_star, G_star", [
    ((0.0, 0.125), 1.0, 2.0 / 3.0, 2.0),         # pure p = 3
    ((0.0625, 0.0625), 0.8, 0.3, 1.65169)],      # mixed, G_star on the G identity
    ids=["pure3", "mixed"])
def test_11_long_time_march_reaches_the_localized_branch(coeffs_sq, q_star,
                                                          E_star, G_star):
    """From q_o = 0.5 the march at T = 30 sits within 1e-3 of the no-aging
    limit: q / q_star -> alpha, mu -> phi(1) = gamma + 2 beta^2 nu'(1),
    H -> H_inf."""
    nu = MixingFunction(coeffs_sq)
    prm = ModelParams(beta=1.0, q_star=q_star, q_o=0.5, E_star=E_star,
                      G_star=G_star, confinement=Confinement.hard())
    b = solve_hard(prm, nu, TwoTimeGrid.from_T(30.0, 0.02))
    rep = localized_no_aging(b.params, nu)
    assert abs(b.q[-1] / q_star - rep.alpha) <= 1e-3
    assert abs(b.mu[-1] - (rep.gamma + 2.0 * prm.beta ** 2 * nu.nu(1.0, 1))) <= 1e-3
    assert abs(b.H[-1] - rep.h_inf) <= 1e-3


def test_12_long_time_march_on_the_fdt_branch(pure3_mixing):
    """From q_o = 0.3 (below the middle self-consistent root) the pure p = 3
    march at beta = 1 < beta_c relaxes to the FDT branch: mu -> phi(1) with
    gamma = 1/2, and q keeps falling (slowly: q(30) is about 5e-3)."""
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.3, E_star=2.0 / 3.0,
                      G_star=2.0, confinement=Confinement.hard())
    b = solve_hard(prm, pure3_mixing, TwoTimeGrid.from_T(30.0, 0.02))
    assert abs(b.mu[-1] - (0.5 + 2.0 * prm.beta ** 2 * pure3_mixing.nu(1.0, 1))) <= 1e-3
    late = b.q[b.grid.index_of(15.0):]
    assert late[-1] < late[0] < prm.q_o
    assert np.all(np.diff(late) < 0)


def test_13_long_time_march_off_the_g_identity():
    """Mixed model at G_star = 2.0, off the G identity: the march at T = 30
    sits within 1e-3 of the localized branch, whose alpha is the largest
    self-consistent no-aging root (about 0.872592, not q_star), of its
    mu = phi(1) and of its H_inf."""
    nu = MixingFunction((0.0625, 0.0625))
    prm = ModelParams(beta=1.0, q_star=0.8, q_o=0.5, E_star=0.3, G_star=2.0,
                      confinement=Confinement.hard())
    b = solve_hard(prm, nu, TwoTimeGrid.from_T(30.0, 0.02))
    rep = localized_no_aging(b.params, nu)
    assert abs(rep.alpha - 0.872592) <= 1e-5
    assert abs(b.q[-1] / prm.q_star - rep.alpha) <= 1e-3
    assert abs(b.mu[-1] - (rep.gamma + 2.0 * prm.beta ** 2 * nu.nu(1.0, 1))) <= 1e-3
    assert abs(b.H[-1] - rep.h_inf) <= 1e-3


@pytest.mark.parametrize("G_star, beta", [(2.0, 1.0), (2.0, 1.3), (2.5, 0.8)])
def test_14_h_inf_matches_the_extrapolated_march(G_star, beta,
                                                no_aging_identities):
    """Off the G identity the no-aging limit is exact: the Richardson value
    (4 X(h/2) - X(h)) / 3 of the T = 30 march at h = 0.04 and 0.02 sits
    within 2e-5 of H_inf and within 3e-5 of alpha and mu = phi(1), and
    every identity residual of the root vanishes."""
    nu = MixingFunction((0.0625, 0.0625))
    prm = ModelParams(beta=beta, q_star=0.8, q_o=0.5, E_star=0.3,
                      G_star=G_star, confinement=Confinement.hard())
    coarse, fine = (solve_hard(prm, nu, TwoTimeGrid.from_T(30.0, h))
                    for h in (0.04, 0.02))
    rep = localized_no_aging(fine.params, nu)

    def richardson(series):
        return (4.0 * series(fine) - series(coarse)) / 3.0

    assert max(map(abs, no_aging_identities(rep, fine.params, nu))) <= 1e-12
    assert abs(richardson(lambda b: b.H[-1]) - rep.h_inf) <= 2e-5
    assert abs(richardson(lambda b: b.q[-1]) / prm.q_star - rep.alpha) <= 3e-5
    mu_inf = rep.gamma + 2.0 * beta ** 2 * nu.nu(1.0, 1)
    assert abs(richardson(lambda b: b.mu[-1]) - mu_inf) <= 3e-5
