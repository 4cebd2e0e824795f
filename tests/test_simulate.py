import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinband.errors import (Blowup, GridMismatch, HardConstraint,
                             SizeOverflow, ValidationError)
from spinband.model import Confinement, MixingFunction, ModelParams
from spinband.simulate import (Disorder, EmpiricalBundle, SimConfig,
                               condition_disorder,
                               conditional_hessian_spectrum,
                               empirical_observables, error_functional,
                               hamiltonian_and_grad,
                               hamiltonian_and_grad_batch, run_langevin,
                               sample_disorder, sample_initial, star_point)
from spinband.volterra import TwoTimeGrid, integrated_response, solve_soft


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
    assert J.conditioned is False
    # coupling is symmetric under index permutation
    assert J.coupling(3, (2, 0, 1)) == J.coupling(3, (0, 1, 2))
    dup = J.copy()
    dup.tensors[3][0, 0, 0] = 99.0
    assert J.tensors[3][0, 0, 0] != 99.0


def test_hand_worked_quadratic():
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


def test_gradient_matches_finite_differences():
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


def test_initial_band_sampling():
    x = sample_initial(50, 0.9, 0.45, 4)
    assert abs(x @ x - 50.0) <= 1e-9
    sigma = star_point(50, 0.9)
    assert abs(x @ sigma / 50.0 - 0.45) <= 1e-12
    pinned = sample_initial(50, 1.0, 1.0, 4)
    assert_allclose(pinned, star_point(50, 1.0), rtol=0, atol=0)
    with pytest.raises(ValidationError):
        sample_initial(50, 0.5, 0.6, 4)


def test_conditioning_pins_the_critical_point(mixed_mixing):
    prm = ModelParams(beta=1.0, q_star=0.9, q_o=0.0, E_star=0.3, G_star=0.8,
                      confinement=Confinement.hard())
    for N in (10, 50):
        sigma = star_point(N, prm.q_star)
        for seed in (0, 1, 2):
            J = sample_disorder(N, mixed_mixing, seed)
            Jc = condition_disorder(J, prm, mixed_mixing)
            H, g = hamiltonian_and_grad(Jc, sigma)
            assert abs(H + N * prm.E_star) / N <= 1e-10
            scale = np.linalg.norm(prm.G_star * sigma)
            assert np.linalg.norm(g + prm.G_star * sigma) / scale <= 1e-10
            assert Jc.conditioned and not J.conditioned
            # conditioning an already conditioned draw is a fixed point
            Jcc = condition_disorder(Jc, prm, mixed_mixing)
            for p in Jc.active_orders():
                assert np.abs(Jcc.tensors[p] - Jc.tensors[p]).max() <= 1e-12


def test_conditioning_zero_targets(sk_mixing):
    prm = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.hard())
    J = sample_disorder(8, sk_mixing, 5)
    Jc = condition_disorder(J, prm, sk_mixing)
    assert Jc.coupling(2, (0, 0)) == 0.0
    for i in range(1, 8):
        assert abs(Jc.coupling(2, (0, i))) <= 1e-15
    assert Jc.coupling(2, (3, 5)) == J.coupling(2, (3, 5))  # bulk untouched

    zero = MixingFunction((0.0,))
    Jz = sample_disorder(8, zero, 5)
    assert condition_disorder(Jz, prm, zero).tensors == {}
    bad = ModelParams(beta=1.0, q_star=1.0, q_o=0.0, E_star=0.3, G_star=0.9,
                      confinement=Confinement.hard())
    with pytest.raises(ValidationError):
        condition_disorder(Jz, bad, zero)


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
        Jc = condition_disorder(sample_disorder(N, mixed_mixing, seed),
                                prm, mixed_mixing)
        for p in (2, 3):
            vp = np.linalg.solve(M, np.array([qs2, float(p)]))
            expect = (-mixed_mixing.weight(p) * N ** (1 - p / 2.0) * qs ** p
                      * float(vp @ np.array([E, G])))
            assert abs(Jc.coupling(p, (0,) * p) - expect) <= 1e-12


def test_tangential_covariance_identity(mixed_mixing):
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
        Jt = condition_disorder(J, prm, mixed_mixing, tangential_only=True)
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
    Jca = condition_disorder(Ja, pa, nu_a)
    Jcb = condition_disorder(Jb, pb, nu_b)
    for p in (2, 3):
        assert np.array_equal(Jca.tensors[p], Jcb.tensors[p])
    cfg = SimConfig(N=N, dt=0.01, T=0.2, seed=5, replicas=4)
    ta = run_langevin(Jca, pa, cfg)
    tb = run_langevin(Jcb, pb, cfg)
    assert np.array_equal(ta.X, tb.X)
    sigma = star_point(N, 1.0)
    ea = empirical_observables(ta, sigma, Jca)
    eb = empirical_observables(tb, sigma, Jcb)
    assert np.array_equal(2.0 * ea.H, eb.H)


def test_refinement_on_a_shared_brownian_path(sk_mixing):
    prm = soft_params()
    N, R = 16, 4
    J = condition_disorder(sample_disorder(N, sk_mixing, 3), prm, sk_mixing)
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


def test_rotations_about_the_conditioning_axis(sk_mixing):
    """Conjugating the conditioned couplings by a rotation fixing the first
    axis preserves the pinning exactly and the empirical laws statistically."""
    prm = soft_params()
    N, R = 32, 32
    J = condition_disorder(sample_disorder(N, sk_mixing, 21), prm, sk_mixing)
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
    ea = empirical_observables(run_langevin(J, prm, cfg), sigma, J)
    eb = empirical_observables(run_langevin(Jr, prm, cfg), sigma, Jr)
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
    J = condition_disorder(sample_disorder(N, sk_mixing, 3), prm, sk_mixing)
    cfg = SimConfig(N=N, dt=0.01, T=0.2, seed=9, replicas=3, snap_stride=5)
    traj = run_langevin(J, prm, cfg)
    sigma = star_point(N, 1.0)
    emp = empirical_observables(traj, sigma, J)
    S1 = traj.times.size
    assert emp.C.shape == (3, S1, S1)
    for r in range(3):
        assert np.abs(np.diag(emp.C[r]) - traj.K[:, r]).max() <= 1e-12
        assert np.all(emp.chi[r][:, 0] == 0.0)          # B(0) = 0
        assert abs(emp.q[r, 0] - prm.q_o) <= 1e-12
    assert_allclose(emp.C_avg, emp.C.mean(axis=0), rtol=0, atol=0)
    assert_allclose(emp.H_avg, emp.H.mean(axis=0), rtol=0, atol=0)


def _bundle_from_limit(limit, times, idx):
    C = limit.C[np.ix_(idx, idx)][None]
    chi = integrated_response(limit.R, limit.grid.h)[np.ix_(idx, idx)][None]
    q = limit.q[idx][None]
    H = limit.H[idx][None]
    return EmpiricalBundle(times=times, C=C, chi=chi, q=q, H=H,
                           C_avg=C[0], chi_avg=chi[0], q_avg=q[0], H_avg=H[0])


def test_error_functional_properties(sk_mixing):
    prm = soft_params(L=100.0)
    limit = solve_soft(prm, sk_mixing, TwoTimeGrid.from_T(0.5, 0.05))
    times = limit.grid.times()[::2]
    idx = np.arange(0, limit.grid.n + 1, 2)
    emp = _bundle_from_limit(limit, times, idx)
    assert error_functional(emp, limit) == 0.0
    assert_allclose(error_functional(emp, limit, per_replica=True), [0.0])
    far = _bundle_from_limit(limit, times, idx)
    far.C_avg = far.C_avg + 100.0
    far.q_avg = far.q_avg - 50.0
    capped = error_functional(far, limit)
    assert 2.0 <= capped <= 4.0                     # each block saturates at 1
    bad = _bundle_from_limit(limit, times + 0.013, idx)
    with pytest.raises(GridMismatch):
        error_functional(bad, limit)


def test_simulation_tracks_the_limit(sk_mixing):
    prm = soft_params(L=100.0)
    N = 64
    J = condition_disorder(sample_disorder(N, sk_mixing, 1234), prm, sk_mixing)
    cfg = SimConfig(N=N, dt=2e-3, T=0.5, seed=777, replicas=4, snap_stride=25)
    traj = run_langevin(J, prm, cfg)
    emp = empirical_observables(traj, star_point(N, 1.0), J)
    limit = solve_soft(prm, sk_mixing, TwoTimeGrid.from_T(0.5, 0.05))
    err = error_functional(emp, limit)
    per = error_functional(emp, limit, per_replica=True)
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
    with pytest.raises(SizeOverflow):
        sample_disorder(700, pure3_mixing, 0)
    with pytest.raises(SizeOverflow):
        sample_disorder(500, pure3_mixing, 0, budget=10 ** 8)
    with pytest.raises(SizeOverflow):
        sample_disorder(2, MixingFunction((0.0, 0.0, 0.0, 0.125)), 0)
    with pytest.raises(ValidationError):
        sample_disorder(1, sk_mixing, 0)
    J = sample_disorder(8, sk_mixing, 1)
    hard = ModelParams(beta=1.0, q_star=1.0, q_o=0.5, E_star=0.625,
                       G_star=1.25, confinement=Confinement.hard())
    with pytest.raises(HardConstraint):
        run_langevin(J, hard, SimConfig(N=8, dt=0.01, T=0.1, seed=0))
    with pytest.raises(ValidationError):
        run_langevin(J, soft_params(), SimConfig(N=10, dt=0.01, T=0.1, seed=0))
    with pytest.raises(ValidationError):
        SimConfig(N=8, dt=0.01, T=0.105, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(N=8, dt=0.01, T=0.1, seed=0, snap_stride=3)
    with pytest.raises(ValidationError):
        SimConfig(N=8, dt=-0.01, T=0.1, seed=0)


def test_radial_blowup_guard(pure3_mixing):
    prm = ModelParams(beta=8.0, q_star=1.0, q_o=0.0, E_star=0.0, G_star=0.0,
                      confinement=Confinement.soft(0.001, 1))
    J = sample_disorder(8, pure3_mixing, 1)
    with pytest.raises(Blowup):
        run_langevin(J, prm, SimConfig(N=8, dt=0.01, T=2.0, seed=2,
                                       replicas=2))
