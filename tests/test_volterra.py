import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinband.errors import GridMismatch, StepUnstable
from spinband.model import Confinement, MixingFunction, ModelParams
from spinband.volterra import (TwoTimeGrid, check_bundle, integrated_response,
                               response_integral_bound, soft_hard_gap,
                               solve_hard, solve_soft)


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


def test_hard_run_structure(sk_hard_bundle, sk_params):
    b = sk_hard_bundle
    assert_allclose(np.diag(b.R), 1.0, rtol=0, atol=0)
    assert_allclose(np.diag(b.C), 1.0, rtol=0, atol=0)     # enforced
    assert b.diag_residual is not None and b.diag_residual <= 1e-3
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
    excess = response_integral_bound(sk_hard_bundle)
    assert excess <= 2 * sk_hard_bundle.grid.h


def test_soft_solver_needs_soft_confinement(sk_params, sk_mixing):
    with pytest.raises(GridMismatch):
        solve_soft(sk_params, sk_mixing, TwoTimeGrid.from_T(1.0, 0.02))


def test_soft_radius_stays_near_one(sk_params, sk_mixing):
    prm = dataclasses.replace(sk_params, confinement=Confinement.soft(100.0, 1))
    b = solve_soft(prm, sk_mixing, TwoTimeGrid.from_T(2.0, 0.01))
    assert abs(b.K - 1.0).max() < 5e-3        # ~ B / (2 L)
    assert b.constraint == "soft"
    assert b.diag_residual is None


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
        solve_hard(prm, nu, TwoTimeGrid.from_T(6.0, 0.05), blowup=1e3)
