import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinband.errors import (BelowCritical, NoBranch, NotBracketed,
                             NotConverged, Unstable, ValidationError)
from spinband.fdt import (aging_constants, aging_kappa_update,
                          alpha_fixed_points, beta_c, d_infty, d_star,
                          kappa_values, localized_no_aging,
                          no_aging_selfconsistent, solve_D, solve_fdt)
from spinband.model import Confinement, MixingFunction, ModelParams
from spinband.volterra import TwoTimeGrid


def test_free_decay_is_exponential(sk_mixing):
    """beta = 0 decouples the memory: D' = -D/2 at gamma = 1/2."""
    grid = TwoTimeGrid.from_T(10.0, 0.01)
    sol = solve_fdt(0.5, 0.0, sk_mixing, grid)
    tau = grid.times()
    assert np.abs(sol.D - np.exp(-0.5 * tau)).max() < 1e-4
    assert sol.D_inf == 0.0
    assert sol.mu == 0.5


def test_diverging_lag_march_raises(pure3_mixing):
    """beta = 10 on a coarse lag grid overflows; no inf/NaN comes back."""
    with np.errstate(all="ignore"), pytest.raises(NotConverged):
        solve_D(0.5, 10.0, pure3_mixing, TwoTimeGrid.from_T(20.0, 0.1))


def test_lag_profile_basics(sk_mixing):
    sol = solve_fdt(0.5, 0.8, sk_mixing, TwoTimeGrid.from_T(10.0, 0.01))
    assert sol.D[0] == 1.0
    assert sol.Dprime[0] == -0.5
    assert np.all(np.diff(sol.D) <= 1e-12)          # monotone decay
    assert_allclose(sol.R_fdt, -2.0 * sol.Dprime, rtol=0, atol=0)
    assert sol.mu == 0.5 + 2.0 * 0.8 ** 2 * sk_mixing.nu(1.0, 1)
    with pytest.raises(ValueError):
        sol.D[0] = 2.0


def test_plateau_values(sk_mixing):
    # quadratic mixture: the marginal-stability plateau is 1 - 1/beta
    assert d_star(0.5, sk_mixing) is None
    assert abs(d_star(2.0, sk_mixing) - 0.5) < 1e-9
    assert abs(d_star(4.0, sk_mixing) - 0.75) < 1e-9
    # gamma = 1/2 plateau: empty only for gamma < 1/2
    assert d_infty(0.3, 0.5, sk_mixing) is None
    assert d_infty(0.5, 0.8, sk_mixing) == 0.0
    assert abs(d_infty(0.5, 2.0, sk_mixing) - 0.75) < 1e-9


def test_critical_temperature(sk_mixing, pure3_mixing):
    assert abs(beta_c(sk_mixing) - 1.0) <= 2e-8
    assert abs(beta_c(pure3_mixing) - math.sqrt(8.0 / 3.0)) <= 2e-8
    with pytest.raises(NotBracketed):
        beta_c(MixingFunction((0.0,)))
    with pytest.raises(NotBracketed):
        beta_c(sk_mixing, hi=0.5)


def test_aging_constants_quadratic_case(sk_mixing):
    con = aging_constants(2.0, sk_mixing)
    assert abs(con.d_inf - 0.5) < 1e-9
    assert abs(con.gamma) < 1e-8
    assert abs(con.i_const) < 1e-8
    assert abs(con.boundary_residual) < 1e-8
    assert con.gamma_above_half is False
    with pytest.raises(BelowCritical):
        aging_constants(0.9, sk_mixing)


def test_aging_constants_above_threshold(pure3_mixing):
    beta = 1.5 * beta_c(pure3_mixing)
    con = aging_constants(beta, pure3_mixing)
    assert abs(con.boundary_residual) <= 1e-8
    assert 0.0 < con.d_inf < 1.0


def test_kappa_quadrature_matches_closed_form(pure3_mixing):
    sol = solve_fdt(0.5, 0.3, pure3_mixing, TwoTimeGrid.from_T(35.0, 0.005))
    kv = kappa_values(sol, pure3_mixing)
    assert kv.closed == (0.75, 2.0, 0.0)
    assert kv.max_gap() <= 1e-4


def test_kappa_needs_a_settled_tail(pure3_mixing):
    short = solve_fdt(0.5, 0.3, pure3_mixing, TwoTimeGrid.from_T(5.0, 0.005))
    with pytest.raises(NotConverged):
        kappa_values(short, pure3_mixing)


def test_aging_window_bookkeeping(sk_mixing):
    out = aging_kappa_update((0.0, 0.0, 0.0), 1.0, 0.5, 0.0, sk_mixing)
    assert_allclose(out, (0.125, 0.5, 0.0625), rtol=0, atol=1e-15)
    # alpha = sqrt(d_inf) collapses the window contribution entirely
    same = aging_kappa_update((1.0, 2.0, 3.0), 0.7, 0.5, math.sqrt(0.5),
                              sk_mixing)
    assert_allclose(same, (1.0, 2.0, 3.0), rtol=0, atol=1e-15)


def test_overlap_fixed_points(sk_params, sk_mixing):
    # at a generic working point the only root is alpha = 0
    roots = alpha_fixed_points(sk_params, sk_mixing, 2.0, (0.1, 0.2, 0.0))
    assert len(roots) == 1 and abs(roots[0]) < 1e-9
    # quadratic degeneracy: mu = beta G - 0.25 beta^2 kappa2 + beta^2 kappa1
    # makes the identity vanish for every alpha
    with pytest.raises(ValidationError):
        alpha_fixed_points(sk_params, sk_mixing, 1.25, (0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        alpha_fixed_points(sk_params, sk_mixing, -1.0, (0.1, 0.2, 0.0))


def test_selfconsistent_localized_roots(sk_params, sk_mixing):
    mu_fn, kap_fn = no_aging_selfconsistent(sk_params, sk_mixing)
    roots = alpha_fixed_points(sk_params, sk_mixing, mu_fn, kap_fn)
    expect = (-math.sqrt(0.5), 0.0, math.sqrt(0.5))
    assert len(roots) == 3
    assert_allclose(roots, expect, rtol=0, atol=1e-9)


def test_localized_branch_quadratic(sk_params, sk_mixing):
    rep = localized_no_aging(sk_params, sk_mixing)
    assert rep.case == "pure"
    assert rep.y == 0.5
    assert rep.beta_plus == rep.y        # quadratic case collapses the threshold
    assert abs(rep.alpha_sq - 0.5) < 1e-9
    assert abs(rep.gamma - 0.75) < 1e-9
    assert abs(rep.h_inf - 0.375) < 1e-12
    assert rep.residual_max <= 1e-9


def test_localized_branch_cubic():
    nu = MixingFunction((0.0, 0.125))
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=2.0 / 3.0,
                      G_star=2.0, confinement=Confinement.hard())
    rep = localized_no_aging(prm, nu)
    assert abs(rep.y - 1.0 / math.sqrt(3.0)) < 1e-12
    assert abs(rep.beta_plus - math.sqrt(3.0) / 2.0) < 1e-12
    assert 0.0 < rep.alpha < 1.0
    assert rep.residual_max <= 1e-9

    with pytest.raises(NoBranch):
        localized_no_aging(
            ModelParams(beta=0.5, q_star=1.0, q_o=0.0, E_star=2.0 / 3.0,
                        G_star=2.0, confinement=Confinement.hard()), nu)


def test_localized_branch_guards(sk_mixing):
    shallow = ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625,
                          G_star=0.9, confinement=Confinement.hard())
    with pytest.raises(Unstable):
        localized_no_aging(shallow, sk_mixing)


def test_localized_branch_mixed(mixed_mixing):
    prm = ModelParams(beta=1.0, q_star=0.8, q_o=0.0, E_star=0.3, G_star=2.0,
                      confinement=Confinement.hard())
    rep = localized_no_aging(prm, mixed_mixing)
    assert rep.case == "mixed"
    assert rep.alpha == prm.q_star
    assert rep.tap_ok is True
    assert rep.g_alpha_residual is not None
    assert rep.beta_plus is None
