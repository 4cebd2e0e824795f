import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spinband.errors import GridMismatch, NotConverged, StepUnstable
from spinband.model import (Confinement, MixingFunction, ModelParams, f_prime,
                             vstar_build)
from spinband.volterra import (_BOUND_ROWS, TwoTimeGrid, _March, check_bundle,
                               integrated_response, response_integral_bound,
                               soft_hard_gap, solve_hard, solve_soft)


@pytest.fixture(scope="module")
def sk_hard_bundle(sk_params, sk_mixing):
    return solve_hard(sk_params, sk_mixing, TwoTimeGrid.from_T(2.0, 0.01))


def test_grid_construction():
    g = TwoTimeGrid.from_T(2.0, 0.01)
    assert g.n == 200
    assert g.h == 0.01
    t = g.times()
    assert t[0] == 0.0 and abs(t[-1] - 2.0) < 1e-12
    assert g.index_of(1.5) == 150
    with pytest.raises(GridMismatch):
        TwoTimeGrid.from_T(1.0, 0.3)
    with pytest.raises(GridMismatch):
        g.index_of(0.005)


def test_index_of_takes_an_array_of_times():
    """An array of times gives the index array; the first entry off the grid
    (between points, past T or NaN) is named in the GridMismatch."""
    g = TwoTimeGrid.from_T(2.0, 0.01)
    idx = g.index_of(np.array([0.0, 0.03, 1.5, 2.0]))
    assert idx.dtype == np.intp and idx.tolist() == [0, 3, 150, 200]
    assert g.index_of(np.arange(5) * 0.05).tolist() == [0, 5, 10, 15, 20]
    for times, named in (([0.5, 0.505, 0.515], "0.505"), ([1.0, 2.01], "2.01"),
                         ([0.1, math.nan], "nan")):
        with pytest.raises(GridMismatch, match=f"time {named} is not on the grid"):
            g.index_of(np.array(times))


def test_hard_run_structure(sk_hard_bundle, sk_params):
    b = sk_hard_bundle
    assert_allclose(np.diag(b.R), 1.0, rtol=0, atol=0)
    assert_allclose(np.diag(b.C), 1.0, rtol=0, atol=0)     # enforced
    assert np.abs(b.q).max() <= sk_params.q_star + 1e-8
    assert b.q[0] == sk_params.q_o
    # R vanishes above the diagonal (causality)
    assert np.triu(b.R, k=1).max() == 0.0
    # arrays come back frozen
    with pytest.raises(ValueError):
        b.C[0, 0] = 2.0


def test_energy_splits_into_memory_and_drift(sk_hard_bundle):
    b = sk_hard_bundle
    v = b.params  # resolved params carry the same conditioning data
    # H = Hhat + v*(q) pointwise; spot-check via the stored drift values
    from spinband.model import vstar_build
    poly = vstar_build(b.nu, v.q_star, v.E_star, v.G_star)
    assert_allclose(b.H, b.Hhat + poly.value(b.q), rtol=0, atol=1e-14)


def test_invariant_audit_passes(sk_hard_bundle):
    rep = check_bundle(sk_hard_bundle)
    assert rep.passed
    assert rep.psd_min_eig >= -1e-8
    assert rep.c_excess is not None and rep.c_excess <= 1e-8


def test_response_integral_bound(sk_hard_bundle):
    ratio = response_integral_bound(sk_hard_bundle)
    assert 0 < ratio <= 1 + 1e-8


def _naive_bound_ratio(b):
    """|int_{t1}^{t2} R(s,u) du|^2 / (t2 - t1) over every pair of every
    sampled row, each integral accumulated outward from its own t1."""
    n, h = b.grid.n, b.grid.h
    worst = 0.0
    for r in sorted(set(range(0, n + 1, max(1, n // _BOUND_ROWS))) | {n}):
        row = b.R[r, :r + 1]
        for j1 in range(r):
            integral = np.cumsum(0.5 * h * (row[j1:-1] + row[j1 + 1:]))
            worst = max(worst, (integral ** 2 / (h * np.arange(1, r - j1 + 1))).max())
    return worst


def test_response_bound_matches_a_naive_scan(sk_hard_bundle, mixed_mixing):
    """The blocked scan equals the pair-by-pair one, at n = 200 (every row
    sampled) and at n = 257 (every other row, partial last block)."""
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.5, E_star=0.3, G_star=0.8,
                      confinement=Confinement.hard())
    mixed = solve_hard(prm, mixed_mixing, TwoTimeGrid.from_T(2.57, 0.01))
    assert mixed.grid.n == 257
    for b in (sk_hard_bundle, mixed):
        assert_allclose(response_integral_bound(b), _naive_bound_ratio(b),
                        rtol=1e-12, atol=0)


def test_response_bound_fails_a_damaged_response(sk_hard_bundle):
    """Tripling R off the diagonal breaks the bound and fails the audit;
    a NaN in a sampled row makes the ratio NaN, which fails it too."""
    b = sk_hard_bundle
    R3 = 3.0 * b.R
    np.fill_diagonal(R3, 1.0)
    bad = check_bundle(dataclasses.replace(b, R=R3))
    assert bad.response_bound_ratio > 1.0
    assert not bad.passed
    assert check_bundle(b).passed is True
    Rnan = b.R.copy()
    Rnan[b.grid.n, 3] = np.nan
    nan = check_bundle(dataclasses.replace(b, R=Rnan))
    assert np.isnan(nan.response_bound_ratio)
    assert not nan.passed


def test_soft_solver_needs_soft_confinement(sk_params, sk_mixing):
    with pytest.raises(GridMismatch):
        solve_soft(sk_params, sk_mixing, TwoTimeGrid.from_T(1.0, 0.02))


def test_soft_radius_stays_near_one(sk_params, sk_mixing):
    prm = dataclasses.replace(sk_params, confinement=Confinement.soft(100.0, 1))
    b = solve_soft(prm, sk_mixing, TwoTimeGrid.from_T(2.0, 0.01))
    assert abs(b.K - 1.0).max() < 5e-3        # ~ B / (2 L)
    assert b.constraint == "soft"


def test_soft_hard_gap_decreases_in_stiffness(sk_params, sk_mixing):
    prm = dataclasses.replace(sk_params, confinement=Confinement.soft(10.0, 1))
    recs = soft_hard_gap(prm, sk_mixing, TwoTimeGrid.from_T(1.0, 0.02),
                         (10.0, 100.0))
    assert recs[0]["k_gap"] > recs[1]["k_gap"]
    assert recs[0]["C_gap"] > recs[1]["C_gap"]


def test_zero_start_reduces_to_unconditioned(sk_mixing):
    """q_o = 0 pins the overlap at zero and the conditioning terms inert."""
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.625,
                      G_star=1.25, confinement=Confinement.hard())
    grid = TwoTimeGrid.from_T(2.0, 0.02)
    a = solve_hard(prm, sk_mixing, grid)
    b = solve_hard(prm, sk_mixing, grid, conditioned=False)
    assert np.abs(a.q).max() <= 1e-12
    assert np.abs(a.R - b.R).max() <= 1e-12
    assert np.abs(a.C - b.C).max() <= 1e-12


def test_free_dynamics_matches_ornstein_uhlenbeck():
    """nu = 0 under the hard constraint: R(s,t) = e^{-(s-t)/2}, C = e^{-|s-t|/2},
    chi(s,t) = 2 (e^{-(s - min(s,t))/2} - e^{-s/2})."""
    zero = MixingFunction((0.0,))
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.hard())
    grid = TwoTimeGrid.from_T(2.0, 0.002)
    b = solve_hard(prm, zero, grid)
    t = grid.times()
    gap = t[:, None] - t[None, :]
    R_exact = np.where(gap >= 0, np.exp(-0.5 * gap), 0.0)
    C_exact = np.exp(-0.5 * np.abs(gap))
    assert np.abs(b.R - R_exact).max() < 1e-6
    assert np.abs(b.C - C_exact).max() < 1e-6
    s, m = t[:, None], np.minimum(t[:, None], t[None, :])
    chi_exact = 2.0 * (np.exp(-0.5 * (s - m)) - np.exp(-0.5 * s))
    assert np.abs(integrated_response(b.R, grid.h) - chi_exact).max() < 1e-6
    assert_allclose(b.mu, 0.5, rtol=0, atol=1e-12)


def test_blowup_guard_trips():
    # a wildly supercritical pure model at low temperature blows up in T=6
    nu = MixingFunction((0.0, 8.0))
    prm = ModelParams(beta=6.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.hard())
    with pytest.raises(StepUnstable):
        solve_hard(prm, nu, TwoTimeGrid.from_T(6.0, 0.05))


@pytest.mark.parametrize("where", ["R", "q", "K"])
def test_blowup_guard_trips_on_a_nan_in_any_one_value(mixed_mixing, where):
    """A NaN in only R's row, only q or only K of a finished row raises
    StepUnstable (Python's max drops a NaN that is not its first argument)."""
    class Poisoned(_March):
        def _row(self, r):
            out = super()._row(r)
            if r == 3:  # the corrector overwrites the predicted row's NaN
                arr, idx = {"R": (self.R, (3, 1)), "q": (self.q, 3),
                            "K": (self.K, 3)}[where]
                arr[idx] = np.nan
            return out

    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.5, E_star=0.3, G_star=0.8,
                      confinement=Confinement.hard())
    with pytest.raises(StepUnstable, match=r"row 3 .*nan"):
        Poisoned(prm, mixed_mixing, TwoTimeGrid.from_T(0.2, 0.02)).run()


def _reference_row(b, corr):
    """mu, Hhat, the soft drive, F_R, F_C and F_q of the last row s = t_n of a
    bundle, one loop per trapezoid integral, straight from the module
    docstring's equations (corr = 0: no subtraction terms and v = 0)."""
    nu, prm, h, s = b.nu, b.params, b.grid.h, b.grid.n
    R, C, q, beta, b2 = b.R, b.C, b.q, prm.beta, prm.beta ** 2
    v = vstar_build(nu, prm.q_star, corr * prm.E_star, corr * prm.G_star)
    D, qs2 = nu.nu(prm.q_star ** 2, 1), prm.q_star ** 2
    n1, n2, qs = (lambda x: nu.nu(x, 1)), (lambda x: nu.nu(x, 2)), q[s]
    vq = v.derivative(qs)

    def trap(lo, hi, f):
        return h * sum((0.5 if u in (lo, hi) else 1.0) * f(u)
                       for u in range(lo, hi + 1)) if hi > lo else 0.0

    def energy(row, u):  # R(row,u) [nu'(C(s,u)) - nu'(q(s)) nu'(q(u)) / D]
        return R[row, u] * (n1(C[s, u]) - corr * n1(qs) * n1(q[u]) / D)

    memory = trap(0, s, lambda u: R[s, u] * (nu.psi(C[s, u])
                                              - corr * nu.psi(qs) * n1(q[u]) / D))
    mu = (0.5 + b2 * memory + beta * qs * vq if b.constraint == "hard"
          else f_prime(prm, b.K[s]))
    FR = [-mu * R[s, t] + b2 * trap(t, s, lambda u: R[u, t] * R[s, u] * n2(C[s, u]))
          for t in range(s + 1)]
    FC = [-mu * C[s, t]
          + b2 * trap(0, s, lambda u: R[s, u] * (n2(C[s, u]) * C[u, t] - corr * q[t]
                                                 * n1(q[u]) * n2(qs) / D))
          + b2 * trap(0, t, lambda u: energy(t, u))
          + beta * q[t] * vq for t in range(s + 1)]
    Fq = (-mu * qs + b2 * trap(0, s, lambda u: R[s, u] * (
        q[u] * n2(C[s, u]) - corr * qs2 * n1(q[u]) * n2(qs) / D)) + beta * qs2 * vq)
    return (mu, beta * trap(0, s, lambda u: energy(s, u)),
            2.0 * (b2 * memory + beta * qs * vq), np.array([FR, FC]), Fq)


@given(pure=st.booleans(), hard=st.booleans(), conditioned=st.booleans(),
       beta=st.floats(0.2, 1.2), q_star=st.floats(0.8, 1.0),
       frac=st.floats(-1.0, 1.0), E=st.floats(-0.3, 0.3), G=st.floats(-0.5, 1.0),
       L=st.floats(10.0, 50.0), h=st.floats(0.01, 0.05))
@settings(max_examples=60, deadline=None)
def test_row_matches_a_looped_reference(pure, hard, conditioned, beta, q_star, frac,
                                        E, G, L, h):
    """The march's one weighted evaluation of its last row (n = 12) equals the
    looped trapezoid sums to 1e-13, and its nu'', nu', psi rows and nu'(q)
    are bitwise MixingFunction's."""
    nu = MixingFunction((0.0, 0.125) if pure else (0.0625, 0.0625))
    if pure:
        G = 3.0 * E / q_star ** 2
    conf = Confinement.hard() if hard else Confinement.soft(L, 1)
    prm = ModelParams(beta=beta, q_star=q_star, q_o=frac * q_star, E_star=E,
                      G_star=G, confinement=conf)
    march = _March(prm, nu, TwoTimeGrid(h, 12), conditioned=conditioned)
    b = march.run()
    got, want = march._row(12), _reference_row(b, 1.0 if conditioned else 0.0)
    for g, w in zip(got, want):
        assert_allclose(g, w, rtol=0, atol=1e-13)
    C, q = b.C[12], b.q
    assert_array_equal(march.W, [nu.nu(C, 2), nu.nu(C, 1), nu.psi(C), nu.nu(q, 1)])


def test_soft_k_newton_cap_raises(sk_mixing):
    """kappa = base - c f'(kappa) kappa: a root when one exists, and
    NotConverged once the 50 Newton steps run out (no real root, NaN base)."""
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625,
                      G_star=1.25, confinement=Confinement.soft(20.0, 1))
    march = _March(prm, sk_mixing, TwoTimeGrid.from_T(0.1, 0.05))
    phi = march.params.confinement.phi
    root = march._k_solve(1.0, 0.05, 2.0)
    fp = 2.0 * 20.0 * (root - 1.0) + 0.5 * phi * root
    assert abs(root - (1.0 - 0.05 * fp * root)) <= 1e-13

    # k = 1 makes the equation the quadratic c (2L + phi/2) kappa^2
    # + (1 - 2 c L) kappa - base = 0, which has no real root for this base
    base, c = -10.0, 0.05
    assert (1.0 - 2 * c * 20.0) ** 2 + 4 * c * (40.0 + 0.5 * phi) * base < 0
    with pytest.raises(NotConverged):
        march._k_solve(base, c, 1.0)
    with pytest.raises(NotConverged):
        march._k_solve(float("nan"), c, 1.0)


@pytest.fixture(scope="module")
def mixed_runs(mixed_mixing):
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.5, E_star=0.3, G_star=0.8,
                      confinement=Confinement.soft(100.0, 1))
    grid = TwoTimeGrid.from_T(2.0, 0.02)
    return solve_hard(prm, mixed_mixing, grid), solve_soft(prm, mixed_mixing, grid)


def test_march_keeps_C_symmetric(sk_hard_bundle, mixed_runs):
    for b in (sk_hard_bundle, *mixed_runs):
        assert np.array_equal(b.C, b.C.T), b.constraint


def test_pc_gap_falls_as_h_squared(sk_params, sk_mixing, mixed_runs):
    """The predictor-corrector gap is a local error estimate: on the sk
    oracle case (T = 2) it falls about 4x per halving of h and exceeds the
    sup gap to the closed form; it is positive and finite on hard and soft
    mixed runs."""
    from spinband.sk import SkParams, solve_two_time
    gaps = []
    for h in (0.02, 0.01, 0.005):
        grid = TwoTimeGrid.from_T(2.0, h)
        b = solve_hard(sk_params, sk_mixing, grid)
        oracle = solve_two_time(SkParams(beta=1.0, G_star=1.25), grid)
        assert b.pc_gap > max(np.abs(getattr(b, k) - getattr(oracle, k)).max()
                              for k in ("R", "C", "q"))
        gaps.append(b.pc_gap)
    assert all(coarse / fine >= 3.5 for coarse, fine in zip(gaps, gaps[1:])), gaps
    for b in mixed_runs:
        assert 0.0 < b.pc_gap < np.inf, b.constraint


def test_memory_energy_matches_an_independent_trapezoid(sk_hard_bundle, mixed_runs):
    """Hhat(s) = beta int_0^s R(s,u) [nu'(C(s,u)) - nu'(q(s)) nu'(q(u)) / D] du,
    recomputed from the stored R, C and q for every row at once."""
    for b in (sk_hard_bundle, *mixed_runs):
        h, n = b.grid.h, b.grid.n
        nu1q = b.nu.nu(b.q, 1)
        F = b.R * (b.nu.nu(b.C, 1)
                   - np.outer(nu1q, nu1q) / b.nu.nu(b.params.q_star ** 2, 1))
        F = np.tril(F)
        idx = np.arange(n + 1)
        Hhat = b.params.beta * h * (F.sum(axis=1) - 0.5 * (F[:, 0] + F[idx, idx]))
        Hhat[0] = 0.0
        assert_allclose(b.Hhat, Hhat, rtol=0, atol=1e-14)


def test_hard_multiplier_matches_an_independent_trapezoid(mixed_runs):
    """mu(s) = 1/2 + beta^2 int_0^s R(s,u) [psi(C(s,u)) - psi(q(s)) nu'(q(u)) / D] du
    + beta q(s) v'(q(s)), recomputed from the stored R, C and q for every row
    at once: the march's cached nu', nu'' and psi must be those of the
    final rows."""
    from spinband.model import vstar_build
    b = mixed_runs[0]
    prm, h, n = b.params, b.grid.h, b.grid.n
    nu1q = b.nu.nu(b.q, 1)
    F = b.R * (b.nu.psi(b.C)
               - np.outer(b.nu.psi(b.q), nu1q) / b.nu.nu(prm.q_star ** 2, 1))
    F = np.tril(F)
    idx = np.arange(n + 1)
    memory = h * (F.sum(axis=1) - 0.5 * (F[:, 0] + F[idx, idx]))
    memory[0] = 0.0
    v = vstar_build(b.nu, prm.q_star, prm.E_star, prm.G_star)
    mu = 0.5 + prm.beta ** 2 * memory + prm.beta * b.q * v.derivative(b.q)
    assert_allclose(b.mu, mu, rtol=0, atol=1e-14)
