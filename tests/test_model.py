import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinband.errors import HardConstraint, PureInconsistent, ValidationError
from spinband.model import (Confinement, MixingFunction, ModelParams,
                            canonical_phi, f_prime, validate, vstar_build)


# ---------------------------------------------------------------------------
# mixing function
# ---------------------------------------------------------------------------

def test_two_body_values(sk_mixing):
    assert sk_mixing.nu(1.0) == 0.125
    assert sk_mixing.nu(1.0, 1) == 0.25
    assert sk_mixing.nu(1.0, 2) == 0.25
    assert sk_mixing.nu(0.3, 3) == 0.0


def test_pure_three_body_values(pure3_mixing):
    assert pure3_mixing.nu(1.0) == 0.125
    assert pure3_mixing.nu(1.0, 1) == 0.375
    assert pure3_mixing.nu(0.5, 2) == 0.75 * 0.5
    assert pure3_mixing.is_pure()
    assert pure3_mixing.pure_order() == 3


def test_mixture_bookkeeping(mixed_mixing, sk_mixing):
    assert mixed_mixing.active_orders == (2, 3)
    assert mixed_mixing.weight(2) == 0.25       # b_p, not b_p^2
    assert mixed_mixing.weight(5) == 0.0
    assert not mixed_mixing.is_pure()
    assert not mixed_mixing.is_zero()
    assert MixingFunction((0.0,)).is_zero()
    assert sk_mixing.is_pure() and sk_mixing.pure_order() == 2
    with pytest.raises(ValidationError):
        mixed_mixing.pure_order()


def test_mixing_rejects_bad_coefficients():
    with pytest.raises(ValidationError):
        MixingFunction(())
    with pytest.raises(ValidationError):
        MixingFunction((-0.1,))


def test_derivatives_match_finite_differences(mixed_mixing):
    r = 0.62
    eps = 1e-6
    for order in (1, 2, 3):
        fd = (mixed_mixing.nu(r + eps, order - 1)
              - mixed_mixing.nu(r - eps, order - 1)) / (2 * eps)
        assert abs(mixed_mixing.nu(r, order) - fd) < 1e-8


def test_psi_combines_first_two_derivatives(mixed_mixing):
    r = np.linspace(0.0, 1.0, 11)
    assert_allclose(mixed_mixing.psi(r),
                    r * mixed_mixing.nu(r, 2) + mixed_mixing.nu(r, 1),
                    rtol=0, atol=1e-15)


@given(q=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_theta_nonnegative_on_unit_interval(q):
    # theta is the Bregman gap of a convex function, so it cannot go negative
    nu = MixingFunction((0.05, 0.03, 0.02))
    assert nu.theta(q) >= -1e-15


@given(x=st.floats(min_value=0.0, max_value=1.0),
       b2=st.floats(min_value=0.0, max_value=1.0),
       b3=st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_g_definition(x, b2, b3):
    nu = MixingFunction((b2, b3))
    expect = nu.nu(x, 2) * (1.0 - x) ** 2
    assert math.isclose(nu.g(x), expect, rel_tol=1e-12, abs_tol=1e-15)


@given(r=st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_nu_even_mixture_is_even(r):
    nu = MixingFunction((0.125,))
    assert nu.nu(r) == nu.nu(-r)


# ---------------------------------------------------------------------------
# confinement and params
# ---------------------------------------------------------------------------

def test_confinement_constructors():
    h = Confinement.hard()
    assert h.is_hard and h.phi is None
    s = Confinement.soft(50.0, 2, 1.25)
    assert not s.is_hard
    assert (s.L, s.k, s.phi) == (50.0, 2, 1.25)


def test_validate_resolves_canonical_phi(sk_mixing):
    p = ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625, G_star=1.25,
                    confinement=Confinement.soft(100.0, 1))
    out = validate(p, sk_mixing)
    # canonical phi = 1 + 2 beta q_o v'(q_o)
    v = vstar_build(sk_mixing, 1.0, 0.625, 1.25)
    assert out.confinement.phi == 1.0 + 2.0 * 0.5 * v.derivative(0.5)
    assert out.confinement.phi == canonical_phi(p, sk_mixing)


def test_validate_rejections(sk_mixing):
    good = dict(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625, G_star=1.25,
                confinement=Confinement.hard())
    with pytest.raises(ValidationError):
        validate(ModelParams(**{**good, "beta": -1.0}), sk_mixing)
    with pytest.raises(ValidationError):
        validate(ModelParams(**{**good, "q_star": 0.0}), sk_mixing)
    with pytest.raises(ValidationError):
        validate(ModelParams(**{**good, "q_star": 1.5}), sk_mixing)
    with pytest.raises(ValidationError):
        validate(ModelParams(**{**good, "q_o": 1.2}), sk_mixing)
    with pytest.raises(ValidationError):
        validate(ModelParams(**{**good, "confinement": Confinement.soft(-5.0)}),
                 sk_mixing)


def test_zero_mixture_requires_zero_conditioning():
    zero = MixingFunction((0.0,))
    p = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.1, G_star=0.0,
                    confinement=Confinement.hard())
    with pytest.raises(ValidationError):
        validate(p, zero)


def test_f_prime_soft_and_hard(sk_mixing):
    soft = validate(ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625,
                                G_star=1.25,
                                confinement=Confinement.soft(50.0, 1)),
                    sk_mixing)
    conf = soft.confinement
    r = 1.07
    expect = 2.0 * conf.L * (r - 1.0) + 0.5 * conf.phi * r ** (2 * conf.k - 1)
    assert f_prime(soft, r) == expect

    hard = validate(ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625,
                                G_star=1.25, confinement=Confinement.hard()),
                    sk_mixing)
    assert hard.confinement == Confinement.hard()  # no phi to resolve
    with pytest.raises(HardConstraint):
        f_prime(hard, 1.0)


# ---------------------------------------------------------------------------
# conditioned drift polynomial
# ---------------------------------------------------------------------------

def test_drift_interpolates_conditioning_data(mixed_mixing):
    """v(q*^2) = E* and v'(q*^2) = G*: the polynomial matches the mean
    landscape at the self-overlap of the conditioning point."""
    qs, E, G = 0.9, 0.21, 0.47
    v = vstar_build(mixed_mixing, qs, E, G)
    assert abs(v.value(qs * qs) - E) < 1e-13
    assert abs(v.derivative(qs * qs) - G) < 1e-13


def test_drift_zero_data_gives_zero_polynomial(mixed_mixing):
    v = vstar_build(mixed_mixing, 0.9, 0.0, 0.0)
    assert v.is_zero()
    r = np.linspace(-1, 1, 7)
    assert np.all(v.value(r) == 0.0)


def test_drift_has_no_linear_term(mixed_mixing):
    # powers follow the active orders, so v'(0) = 0 for p >= 2 mixtures;
    # this is what keeps the overlap pinned at zero when it starts there
    v = vstar_build(mixed_mixing, 0.9, 0.3, 0.5)
    assert v.derivative(0.0) == 0.0


def test_pure_consistency_enforced(pure3_mixing):
    qs, E = 0.9, 0.2
    ok = vstar_build(pure3_mixing, qs, E, 3.0 * E / qs ** 2)
    assert abs(ok.value(qs * qs) - E) < 1e-13
    with pytest.raises(PureInconsistent):
        vstar_build(pure3_mixing, qs, E, 0.9)
