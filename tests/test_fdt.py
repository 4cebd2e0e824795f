import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinband.errors import NoBranch, NotConverged, ValidationError
from spinband.fdt import (aging_constants, alpha_fixed_points, beta_c,
                          d_infty, d_star, kappa_values, localized_no_aging,
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
    grid = TwoTimeGrid.from_T(10.0, 0.01)
    sol = solve_fdt(0.5, 0.8, sk_mixing, grid)
    D, Dprime = solve_D(0.5, 0.8, sk_mixing, grid)
    assert sol.D[0] == 1.0
    assert Dprime[0] == -0.5
    assert np.all(np.diff(sol.D) <= 1e-12)          # monotone decay
    assert_allclose(sol.D, D, rtol=0, atol=0)
    assert_allclose(sol.R_fdt, -2.0 * Dprime, rtol=0, atol=0)
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
    # sk: the x -> 0 limit 1/(4 nu''(0)) = 1; pure p = 3: the ratio's minimum at x = 1/2
    assert beta_c(sk_mixing) == 1.0
    assert abs(beta_c(pure3_mixing) - math.sqrt(8.0 / 3.0)) <= 1e-12
    with pytest.raises(ValidationError, match="zero mixture has no finite critical temperature"):
        beta_c(MixingFunction((0.0,)))


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).filter(
           lambda c: c[-1] > 0.0),
       xs=st.lists(st.floats(1e-6, 1.0 - 1e-6), min_size=1, max_size=20))
def test_critical_temperature_is_the_ratio_infimum(coeffs, xs):
    """beta_c^2 is a lower bound of x / (4 nu'(x) (1 - x)) on (0, 1), and the
    gamma = 1/2 plateau is 0 just below beta_c and positive just above it.

    The ratio is taken in exact rationals: for subnormal coefficients nu'(x)
    rounds coarsely or to 0 in floats, and the ratio and beta_c^2 overflow."""
    nu = MixingFunction(tuple(coeffs))
    bc = beta_c(nu)
    assert math.isfinite(bc) and bc > 0.0
    for x in map(Fraction, xs):
        d1 = sum(p * Fraction(c) * x ** (p - 1)
                 for p, c in enumerate(nu.coeffs_sq, start=2))
        assert Fraction(bc) ** 2 <= x / (4 * d1 * (1 - x)) * Fraction(1.0 + 1e-12)
    assert d_infty(0.5, 0.99 * bc, nu) == 0.0
    assert d_infty(0.5, 1.01 * bc, nu) > 0.0


def test_aging_constants_quadratic_case(sk_mixing, plateau_identity):
    con = aging_constants(2.0, sk_mixing)
    assert abs(con.d_inf - 0.5) < 1e-9
    assert abs(con.gamma) < 1e-8
    assert abs(con.i_const) < 1e-8
    assert abs(plateau_identity(con, 2.0, sk_mixing)) < 1e-8
    assert con.gamma <= 0.5
    with pytest.raises(NoBranch, match="beta = 0.9 <= beta_c = 1.0"):
        aging_constants(0.9, sk_mixing)


def test_aging_constants_above_threshold(pure3_mixing, plateau_identity):
    beta = 1.5 * beta_c(pure3_mixing)
    con = aging_constants(beta, pure3_mixing)
    assert abs(plateau_identity(con, beta, pure3_mixing)) <= 1e-8
    assert 0.0 < con.d_inf < 1.0


@pytest.mark.parametrize("beta, coeffs_sq", [
    (100.0, (0.0, 0.125)),
    (100.0, (0.0, 0.0, 0.125)),
    (1000.0, (0.0625, 0.0625))], ids=["pure3", "pure4", "mixed"])
def test_aging_constants_deep_in_the_aging_phase(beta, coeffs_sq):
    """Far above beta_c, 4 beta^2 g is steep at the plateau: a boundary
    search that stopped at width 1e-10 missed 4 beta^2 g(D_inf) = 1 by up to
    1.7e-7 here, while the search down to adjacent floats meets it to 1e-12."""
    nu = MixingFunction(coeffs_sq)
    con = aging_constants(beta, nu)
    assert 0.99 < con.d_inf < 1.0
    assert abs(4.0 * beta ** 2 * nu.g(con.d_inf) - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
       beta=st.floats(0.5, 50.0), gamma=st.floats(0.0, 3.0))
def test_plateaus_end_on_the_last_float_of_their_level_sets(coeffs, beta,
                                                            gamma):
    """d_star and d_infty return the last float d with f(d) >= 0 before f
    turns negative, for the expression f each one scans, unless d is an
    exact zero of the scan (kept as it is: at beta = 0, d_infty(1/2) is 0
    though f rounds to 0 at the next float too).  For coefficients in
    [1e-3, 1] the power-of-two rescaling is exact, so f is evaluated on the
    mixture and beta as given."""
    nu = MixingFunction(tuple(coeffs))
    b2 = beta * beta

    def f_star(x):
        return 4.0 * b2 * nu.g(x) - 1.0

    def f_infty(x):
        return (gamma - 0.5) + 2.0 * b2 * nu.nu(x, 1) * (1.0 - x) - gamma * x

    for d, f in ((d_star(beta, nu), f_star),
                 (d_infty(gamma, beta, nu), f_infty)):
        if d is not None and d < 1.0:
            assert f(d) >= 0.0
            assert (f(float(np.nextafter(d, 2.0))) < 0.0
                    or (f(d) == 0.0 and d in np.linspace(0.0, 1.0, 10001)))


def test_kappa_quadrature_matches_closed_form(pure3_mixing):
    sol = solve_fdt(0.5, 0.3, pure3_mixing, TwoTimeGrid.from_T(35.0, 0.005))
    k1, k2 = kappa_values(sol, pure3_mixing)
    assert (sol.kappa1, sol.kappa2) == (0.75, 2.0)
    assert max(abs(k1 - sol.kappa1), abs(k2 - sol.kappa2)) <= 1e-4


def test_kappa_needs_a_settled_tail(pure3_mixing):
    short = solve_fdt(0.5, 0.3, pure3_mixing, TwoTimeGrid.from_T(5.0, 0.005))
    with pytest.raises(NotConverged):
        kappa_values(short, pure3_mixing)


def test_overlap_fixed_points(sk_params, sk_mixing):
    # at a generic working point the only root is alpha = 0
    roots = alpha_fixed_points(sk_params, sk_mixing, 2.0, (0.1, 0.2))
    assert len(roots) == 1 and abs(roots[0]) < 1e-9
    # quadratic degeneracy: mu = beta G - 0.25 beta^2 kappa2 + beta^2 kappa1
    # makes the identity vanish for every alpha
    with pytest.raises(ValidationError):
        alpha_fixed_points(sk_params, sk_mixing, 1.25, (0.0, 0.0))
    with pytest.raises(ValidationError):
        alpha_fixed_points(sk_params, sk_mixing, -1.0, (0.1, 0.2))


def test_selfconsistent_localized_roots(sk_params, sk_mixing):
    mu_fn, kap_fn = no_aging_selfconsistent(sk_params, sk_mixing)
    roots = alpha_fixed_points(sk_params, sk_mixing, mu_fn, kap_fn)
    expect = (-math.sqrt(0.5), 0.0, math.sqrt(0.5))
    assert len(roots) == 3
    assert_allclose(roots, expect, rtol=0, atol=1e-9)


@pytest.mark.parametrize("coeffs_sq, q_star, E_star, G_star", [
    ((0.125,), 1.0, 0.625, 1.25),
    ((0.0, 0.125), 1.0, 2.0 / 3.0, 2.0),
    ((0.0625, 0.0625), 0.8, 0.3, 2.0)])
def test_selfconsistent_closure_is_elementwise(coeffs_sq, q_star, E_star,
                                               G_star):
    """alpha_fixed_points scans the closure on one array: that array's
    values equal a per-point loop over the same alphas, bit for bit."""
    nu = MixingFunction(coeffs_sq)
    prm = ModelParams(beta=1.0, q_star=q_star, q_o=0.0, E_star=E_star,
                      G_star=G_star, confinement=Confinement.hard())
    mu_fn, kap_fn = no_aging_selfconsistent(prm, nu)
    xs = np.linspace(-1.0, 1.0, 10001)
    assert np.array_equal(mu_fn(xs), [mu_fn(a) for a in xs])
    k1, k2 = kap_fn(xs)
    loop = [kap_fn(a) for a in xs]
    assert np.array_equal(k1, [k[0] for k in loop])
    assert np.array_equal(k2, [k[1] for k in loop])


def test_localized_branch_quadratic(sk_params, sk_mixing, no_aging_identities):
    rep = localized_no_aging(sk_params, sk_mixing)
    assert rep.case == "pure"
    assert rep.y == 0.5
    assert rep.beta_plus == rep.y        # quadratic case collapses the threshold
    assert abs(rep.alpha_sq - 0.5) < 1e-9
    assert abs(rep.gamma - 0.75) < 1e-9
    assert abs(rep.h_inf - 0.375) < 1e-12
    assert max(map(abs, no_aging_identities(rep, sk_params, sk_mixing))) <= 1e-9


def test_localized_branch_cubic(no_aging_identities):
    nu = MixingFunction((0.0, 0.125))
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=2.0 / 3.0,
                      G_star=2.0, confinement=Confinement.hard())
    rep = localized_no_aging(prm, nu)
    assert abs(rep.y - 1.0 / math.sqrt(3.0)) < 1e-12
    assert abs(rep.beta_plus - math.sqrt(3.0) / 2.0) < 1e-12
    assert 0.0 < rep.alpha < 1.0
    assert max(map(abs, no_aging_identities(rep, prm, nu))) <= 1e-9

    with pytest.raises(NoBranch, match="largest self-consistent root"):
        localized_no_aging(
            ModelParams(beta=0.5, q_star=1.0, q_o=0.0, E_star=2.0 / 3.0,
                        G_star=2.0, confinement=Confinement.hard()), nu)


def test_localized_branch_guards(sk_mixing):
    shallow = ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625,
                          G_star=0.9, confinement=Confinement.hard())
    with pytest.raises(NoBranch, match=r"G_star = 0.9 <= 2 sqrt\(nu''\(q\*\^2\)\) = 1"):
        localized_no_aging(shallow, sk_mixing)


def test_localized_branch_mixed(mixed_mixing, no_aging_identities):
    """Off the G identity (G_star = 2.0) alpha is the largest self-consistent
    root, which the march reaches (test_13), not q_star."""
    prm = ModelParams(beta=1.0, q_star=0.8, q_o=0.0, E_star=0.3, G_star=2.0,
                      confinement=Confinement.hard())
    rep = localized_no_aging(prm, mixed_mixing)
    assert rep.case == "mixed"
    assert abs(rep.alpha - 0.872592) <= 1e-6
    assert rep.alpha == max(alpha_fixed_points(
        prm, mixed_mixing, *no_aging_selfconsistent(prm, mixed_mixing)))
    assert rep.tap_ok is True
    assert rep.g_alpha_residual is not None
    assert rep.beta_plus is None
    assert max(map(abs, no_aging_identities(rep, prm, mixed_mixing))) <= 1e-12


def test_localized_branch_closed_forms_check_the_root(pure3_mixing,
                                                      mixed_mixing):
    """The closed forms the root replaced agree with it where they apply:
    pure p = 3 has a branch exactly above beta_plus = sqrt(3)/2, with
    alpha^2 the plateau d_star(beta / y); the mixed model on the G identity
    has alpha = q_star (to the rounding of G_star = 1.65169)."""
    beta_plus = math.sqrt(3.0) / 2.0
    for beta in (0.5, 0.866, 0.867, 0.9, 1.0):
        prm = ModelParams(beta=beta, q_star=1.0, q_o=0.0, E_star=2.0 / 3.0,
                          G_star=2.0, confinement=Confinement.hard())
        if beta <= beta_plus:
            with pytest.raises(NoBranch, match="largest self-consistent root"):
                localized_no_aging(prm, pure3_mixing)
            continue
        rep = localized_no_aging(prm, pure3_mixing)
        assert type(rep.alpha) is float
        assert abs(rep.alpha_sq - d_star(beta / rep.y, pure3_mixing)) <= 1e-9

    on_identity = ModelParams(beta=1.0, q_star=0.8, q_o=0.0, E_star=0.3,
                              G_star=1.65169, confinement=Confinement.hard())
    rep = localized_no_aging(on_identity, mixed_mixing)
    assert abs(rep.alpha - 0.8) <= 1e-6
    assert abs(rep.g_alpha_residual) <= 1e-5


def test_localized_branch_mixed_at_unit_q_star(mixed_mixing,
                                               no_aging_identities):
    """q_star = 1 leaves no G identity to check: the diagnostics stay None,
    and where the only self-consistent root is 0 there is no branch."""
    flat = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.3, G_star=2.0,
                       confinement=Confinement.hard())
    with pytest.raises(NoBranch, match="largest self-consistent root"):
        localized_no_aging(flat, mixed_mixing)
    deep = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=1.0, G_star=2.0,
                       confinement=Confinement.hard())
    rep = localized_no_aging(deep, mixed_mixing)
    assert 0.0 < rep.alpha < 1.0
    assert rep.tap_ok is None and rep.g_alpha_residual is None
    assert max(map(abs, no_aging_identities(rep, deep, mixed_mixing))) <= 1e-12
