import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdaffine import (
    AtomicMeasure,
    DomainError,
    MBAJDSpec,
    csym,
    flow_omega,
    frobenius,
    is_psd,
    mbajd_grid,
    mbajd_phi,
    mbajd_psi,
    mbajd_transform,
    sigma_integral,
    solve,
    solve_boundary,
    trace_inner,
    transform,
)
from psdaffine.symcore import symmetrize
from conftest import random_interior_u, random_psd, random_stable_beta, random_sym


def basic_spec(d=2, beta=None, p=1.0, atoms=()):
    beta = np.zeros((d, d)) if beta is None else beta
    return MBAJDSpec(d=d, alpha=np.eye(d), beta=beta, p=p,
                     m=AtomicMeasure(atoms=atoms))


# ---------------------------------------------------------------------------
# flow and its twofold integral
# ---------------------------------------------------------------------------


def test_flow_identity_beta_zero():
    x = random_psd(np.random.default_rng(0), 3)
    np.testing.assert_allclose(flow_omega(np.zeros((3, 3)), x, 2.0), x, atol=1e-14)


def test_flow_scalar_case():
    np.testing.assert_allclose(flow_omega(np.eye(2), np.eye(2), np.log(2.0)),
                               4.0 * np.eye(2), atol=1e-12)


def test_flow_satisfies_linear_ode():
    rng = np.random.default_rng(1)
    beta = rng.standard_normal((3, 3)) * 0.7
    x = random_psd(rng, 3)
    h = 1e-5
    for t in (0.0, 0.4, 1.1):
        deriv = (flow_omega(beta, x, t + h) - flow_omega(beta, x, t - h)) / (2 * h)
        w = flow_omega(beta, x, t)
        assert frobenius(deriv - (beta @ w + w @ beta.T)) < 1e-7


def test_flow_semigroup():
    rng = np.random.default_rng(2)
    beta = rng.standard_normal((2, 2)) * 0.5
    x = random_psd(rng, 2)
    for t, s in ((0.3, 0.4), (0.7, 1.1)):
        lhs = flow_omega(beta, x, t + s)
        rhs = flow_omega(beta, flow_omega(beta, x, s), t)
        assert frobenius(lhs - rhs) < 1e-10


def test_sigma_trivial_values():
    alpha = random_psd(np.random.default_rng(3), 2)
    np.testing.assert_allclose(sigma_integral(np.zeros((2, 2)), alpha, 1.7),
                               2 * 1.7 * alpha, atol=1e-10)
    np.testing.assert_allclose(sigma_integral(np.eye(2), alpha, 0.0),
                               np.zeros((2, 2)), atol=0)


def test_sigma_scalar_analytic():
    # beta = -I/2, alpha = I: sigma_t = 2(1 - e^{-t}) I
    for t in (0.2, 1.0, 3.0):
        got = sigma_integral(-0.5 * np.eye(2), np.eye(2), t)
        np.testing.assert_allclose(got, 2.0 * (1.0 - np.exp(-t)) * np.eye(2),
                                   atol=1e-10)


def test_sigma_additivity():
    rng = np.random.default_rng(4)
    beta = rng.standard_normal((3, 3)) * 0.6
    alpha = random_psd(rng, 3)
    from psdaffine.symcore import mat_exp
    for t, s in ((0.3, 0.5), (1.0, 0.7)):
        lhs = sigma_integral(beta, alpha, t + s)
        e = mat_exp(beta * s)
        rhs = sigma_integral(beta, alpha, s) + e @ sigma_integral(beta, alpha, t) @ e.T
        assert frobenius(lhs - rhs) < 1e-9


def test_sigma_result_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sig = sigma_integral(rng.standard_normal((2, 2)), random_psd(rng, 2),
                             rng.uniform(0.1, 2.0))
        assert is_psd(sig)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def test_mbajd_psi_initial_condition():
    spec = basic_spec()
    u = random_interior_u(np.random.default_rng(6), 2)
    np.testing.assert_allclose(mbajd_psi(spec, u, 0.0), u)


def test_mbajd_psi_scalar_formula():
    # alpha = I, beta = 0, u = I: psi = I/(1+2t)
    for d in (2, 3):
        spec = basic_spec(d=d)
        for t in (0.1, 0.5, 2.0):
            np.testing.assert_allclose(mbajd_psi(spec, np.eye(d) + 0j, t),
                                       np.eye(d) / (1 + 2 * t), atol=1e-12)


def test_mbajd_psi_riccati_residual():
    rng = np.random.default_rng(7)
    spec = basic_spec(beta=random_stable_beta(rng, 2))
    u = random_interior_u(rng, 2)
    h = 1e-5
    for t in (0.3, 0.8):
        dpsi = (mbajd_psi(spec, u, t + h) - mbajd_psi(spec, u, t - h)) / (2 * h)
        psi = mbajd_psi(spec, u, t)
        rate = -2.0 * psi @ spec.alpha @ psi + psi @ spec.beta + spec.beta.T @ psi
        assert frobenius(dpsi - rate) < 1e-6


def test_mbajd_psi_singular_u_matches_projected_solver():
    rng = np.random.default_rng(8)
    spec = basic_spec(beta=random_stable_beta(rng, 2))
    u0 = csym(np.diag([1.0, 0.0]), 0.4 * random_sym(rng, 2))
    T = 0.8
    sol = solve_boundary(spec.to_affine_params(), u0, T)
    assert frobenius(mbajd_psi(spec, u0, T) - sol.psi_at(T)) < 1e-7


def test_mbajd_psi_re_part_stays_psd():
    rng = np.random.default_rng(9)
    spec = basic_spec(beta=random_stable_beta(rng, 2))
    u = random_interior_u(rng, 2)
    for t in (0.2, 0.9, 1.7):
        assert is_psd(mbajd_psi(spec, u, t).real)


def test_witnessed_psi_takes_one_block_exponential(monkeypatch):
    # psi needs the block exponential at t only: no log-det levels, no jump
    # quadrature, and no second witness of a horizon already witnessed
    import psdaffine.closedform as cf
    rng = np.random.default_rng(18)
    spec = basic_spec(beta=random_stable_beta(rng, 2),
                      atoms=((random_psd(rng, 2) + 0.1 * np.eye(2), 0.5),))
    u = random_interior_u(rng, 2)
    mbajd_psi(spec, u, 1.0)
    calls = []
    correct = cf.mat_exp
    monkeypatch.setattr(cf, "mat_exp", lambda a: calls.append(a) or correct(a))
    for t in (1.0, 0.5):
        calls.clear()
        mbajd_psi(spec, u, t)
        assert len(calls) == 1


@pytest.mark.parametrize("w", [17.0, 100.0])
def test_mbajd_psi_at_high_frequency_matches_the_ode(w):
    spec = basic_spec(beta=-0.5 * np.eye(2), atoms=((np.eye(2), 1.0),))
    u = 1j * w * np.eye(2)
    want = solve_boundary(spec.to_affine_params(), u, 1.0).psi_at(1.0)
    assert frobenius(mbajd_psi(spec, u, 1.0) - want) <= 1e-9 * frobenius(want)


def test_psi_and_grid_share_the_near_singular_check():
    # rank-1 alpha, beta = 0: sigma_t = 2t diag(1, 0), and I + u sigma_t has
    # the off-diagonal entry 2t i a, so its condition number grows like a^2
    spec = MBAJDSpec(d=2, alpha=np.diag([1.0, 0.0]), beta=np.zeros((2, 2)), p=0.5)
    u = 1e7j * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match="near singular"):
        mbajd_psi(spec, u, 0.5)
    with pytest.raises(DomainError, match="near singular"):
        mbajd_grid(spec, [u], [0.5])


# ---------------------------------------------------------------------------
# phi (log-det branch and jump quadrature)
# ---------------------------------------------------------------------------


def test_mbajd_phi_hand_value():
    spec = basic_spec(p=1.0)
    # p log det((1+2t) I_2) at t = 0.5 is 2 log 2
    assert mbajd_phi(spec, np.eye(2) + 0j, 0.5) == pytest.approx(2 * np.log(2.0),
                                                                 abs=1e-12)
    assert mbajd_phi(spec, np.eye(2) + 0j, 0.0) == 0.0


def test_mbajd_phi_branch_beyond_principal():
    # large imaginary data drives det(I + u sigma) around the cut; the
    # continuous branch must keep integrating the phi rate, which the ODE
    # solver tracks independently
    spec = basic_spec(beta=-0.2 * np.eye(2), p=1.5)
    u = csym(0.3 * np.eye(2), [[4.0, 0.5], [0.5, 3.0]])
    T = 2.0
    sol = solve(spec.to_affine_params(), u, T)
    for t in (0.5, 1.0, 2.0):
        assert abs(mbajd_phi(spec, u, t) - sol.phi_at(t)) < 1e-7


def test_mbajd_phi_imaginary_part_not_principal():
    # with d = 3 the determinant argument can exceed pi (each eigenvalue of
    # u sigma keeps a positive real part, contributing just under pi/2), so
    # the principal branch is wrong while the tracked branch matches the ODE
    spec = MBAJDSpec(d=3, alpha=np.eye(3), beta=np.zeros((3, 3)), p=1.0)
    u = csym(0.05 * np.eye(3), np.diag([1.0, 2.0, 3.0]))
    t = 2.0
    phi = mbajd_phi(spec, u, t)
    principal = np.log(np.linalg.det(np.eye(3) + u @ sigma_integral(
        np.zeros((3, 3)), np.eye(3), t)))
    assert phi.imag > np.pi  # wound past the cut
    assert phi.imag - principal.imag == pytest.approx(2 * np.pi, abs=1e-9)
    sol = solve(spec.to_affine_params(), u, t)
    assert abs(phi - sol.phi_at(t)) < 1e-7


def test_mbajd_phi_with_jumps_matches_ode():
    rng = np.random.default_rng(10)
    atoms = ((random_psd(rng, 2) + 0.1 * np.eye(2), 0.5),
             (2.0 * (random_psd(rng, 2) + 0.1 * np.eye(2)), 0.25))
    spec = basic_spec(beta=random_stable_beta(rng, 2), atoms=atoms)
    params = spec.to_affine_params()
    u = random_interior_u(rng, 2)
    for t in (0.4, 1.2):
        sol = solve(params, u, t)
        assert abs(mbajd_phi(spec, u, t) - sol.phi_at(t)) < 1e-7


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_wishart_transform_trivial_cases():
    spec = basic_spec(beta=-0.3 * np.eye(2))
    x = random_psd(np.random.default_rng(11), 2)
    u = random_interior_u(np.random.default_rng(12), 2)
    assert mbajd_transform(spec, u, x, 0.0) == pytest.approx(
        np.exp(-trace_inner(u, x)))
    assert mbajd_transform(spec, np.zeros((2, 2), dtype=complex), x, 1.0) == \
        pytest.approx(1.0, abs=1e-12)


def test_wishart_transform_d3_matches_ode():
    rng = np.random.default_rng(13)
    spec = MBAJDSpec(d=3, alpha=np.eye(3), beta=random_stable_beta(rng, 3), p=1.5)
    params = spec.to_affine_params()
    x = random_psd(rng, 3)
    for _ in range(3):
        u = random_interior_u(rng, 3)
        closed = mbajd_transform(spec, u, x, 1.0)
        ode = transform(params, u, x, 1.0)
        assert abs(closed - ode) <= 1e-6 * abs(ode)


def test_degenerate_alpha_supported_in_closed_form():
    rng = np.random.default_rng(14)
    spec = MBAJDSpec(d=2, alpha=np.diag([1.0, 0.0]), beta=random_stable_beta(rng, 2),
                     p=1.0)
    params = spec.to_affine_params()
    u = random_interior_u(rng, 2)
    with pytest.warns(UserWarning):
        sol = solve(params, u, 1.0)
    assert frobenius(mbajd_psi(spec, u, 1.0) - sol.psi_at(1.0)) < 1e-6
    assert abs(mbajd_phi(spec, u, 1.0) - sol.phi_at(1.0)) < 1e-6


def test_determinant_never_vanishes_along_trajectories():
    rng = np.random.default_rng(15)
    spec = basic_spec(beta=random_stable_beta(rng, 2))
    for _ in range(5):
        u = random_interior_u(rng, 2, imag_scale=1.5)
        for t in np.linspace(0.05, 2.0, 25):
            sig = sigma_integral(spec.beta, spec.alpha, float(t))
            det = np.linalg.det(np.eye(2) + u @ sig)
            assert abs(det) > 1e-8


def test_sigma_cross_check_catches_corruption(monkeypatch):
    # a transpose convention mistake in the block exponential must trip the
    # quadrature witness on the public entry point
    import psdaffine.closedform as cf
    beta = np.array([[-0.5, 0.3], [0.0, -0.2]])
    alpha = np.eye(2)
    good = cf._vanloan(beta, alpha, 1.0)[1]
    np.testing.assert_allclose(sigma_integral(beta, alpha, 1.0), good, atol=1e-9)
    correct = cf._vanloan
    monkeypatch.setattr(cf, "_vanloan", lambda b, a, t: correct(b.T, a, t))
    with pytest.raises(RuntimeError, match="cross-check failed"):
        sigma_integral(beta, alpha, 1.0)


# ---------------------------------------------------------------------------
# the quadrature witness of each spec
# ---------------------------------------------------------------------------


def _corrupt_witness(monkeypatch):
    """Make the quadrature side of the witness use the transposed flow, so
    every witness on a non-normal beta fails."""
    import psdaffine.closedform as cf
    correct = cf.flow_omega
    monkeypatch.setattr(cf, "flow_omega", lambda b, x, s: correct(b.T, x, s))


def _count_flow_omega(monkeypatch):
    import psdaffine.closedform as cf
    calls = []
    correct = cf.flow_omega

    def counting(b, x, s):
        calls.append(s)
        return correct(b, x, s)

    monkeypatch.setattr(cf, "flow_omega", counting)
    return calls


NON_NORMAL_BETA = np.array([[-0.5, 0.3], [0.0, -0.2]])


def test_failed_witness_is_not_remembered(monkeypatch):
    spec = basic_spec(beta=NON_NORMAL_BETA)
    _corrupt_witness(monkeypatch)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="cross-check failed"):
            mbajd_phi(spec, np.eye(2) + 0j, 1.0)


def test_fresh_spec_rewitnesses_a_passed_pair(monkeypatch):
    u = np.eye(2) + 0j
    passed = basic_spec(beta=NON_NORMAL_BETA)
    mbajd_phi(passed, u, 1.0)
    _corrupt_witness(monkeypatch)
    # the spec that passed at this horizon skips the witness; a new spec with
    # the same (beta, alpha) runs it, whatever ran earlier in the process
    mbajd_phi(passed, u, 1.0)
    with pytest.raises(RuntimeError, match="cross-check failed"):
        mbajd_phi(basic_spec(beta=NON_NORMAL_BETA), u, 1.0)


@pytest.mark.parametrize("t", [-0.5, float("nan")])
def test_closed_form_rejects_negative_or_nan_time(t):
    spec = basic_spec()
    for f in (mbajd_psi, mbajd_phi):
        with pytest.raises(DomainError, match="requires t >= 0"):
            f(spec, np.eye(2) + 0j, t)


def test_witness_runs_once_per_new_horizon(monkeypatch):
    rng = np.random.default_rng(16)
    beta = random_stable_beta(rng, 2)
    times = (0.25, 0.5, 1.0, 2.0)
    calls = _count_flow_omega(monkeypatch)
    per_witness = []
    for t in times:
        sigma_integral(beta, np.eye(2), t)
        per_witness.append(len(calls))
        calls.clear()
    assert min(per_witness) > 0
    spec = basic_spec(beta=beta, atoms=((random_psd(rng, 2) + 0.1 * np.eye(2), 0.5),))
    for _ in range(16):
        u = random_interior_u(rng, 2)
        for t in times:
            mbajd_phi(spec, u, t)
            mbajd_psi(spec, u, t)
    assert len(calls) == sum(per_witness)


# ---------------------------------------------------------------------------
# the grid call: one sigma grid per time, shared by every u
# ---------------------------------------------------------------------------


def test_closed_form_checks_the_domain_of_u():
    spec = basic_spec()
    for t in (0.0, 1.0):
        for f in (mbajd_phi, mbajd_psi):
            with pytest.raises(DomainError, match="u must be d x d"):
                f(spec, np.eye(3) + 0j, t)
            # Re(u) = -I is outside the domain (riccati.transform rejects it too)
            with pytest.raises(DomainError, match="Re\\(u\\) PSD"):
                f(spec, -np.eye(2) + 0j, t)
        with pytest.raises(DomainError, match="Re\\(u\\) PSD"):
            mbajd_transform(spec, -np.eye(2) + 0j, np.eye(2), t)
        with pytest.raises(DomainError, match="Re\\(u\\) PSD"):
            mbajd_grid(spec, [np.eye(2) + 0j, -np.eye(2) + 0j], [t])


def _direct_psi(spec, u, t):
    """The direct psi formula: one block exponential at t, one solve."""
    import psdaffine.closedform as cf
    e, sig = cf._vanloan(spec.beta, spec.alpha, t)
    return symmetrize(e.T @ np.linalg.solve(np.eye(spec.d) + u @ sig, u) @ e)


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([2, 3]), n_atoms=st.integers(0, 2), n_u=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_call_equals_one_row_calls(d, n_atoms, n_u, seed):
    rng = np.random.default_rng(seed)
    atoms = tuple((random_psd(rng, d) + 0.1 * np.eye(d), rng.uniform(0.1, 0.6))
                  for _ in range(n_atoms))
    spec = MBAJDSpec(d=d, alpha=random_psd(rng, d) + 0.1 * np.eye(d),
                     beta=random_stable_beta(rng, d), p=(d - 1) / 2 + 0.5,
                     m=AtomicMeasure(atoms=atoms))
    us = [random_interior_u(rng, d) for _ in range(n_u)]
    times = [0.0, 0.4, 1.3]
    phi, psi = mbajd_grid(spec, us, times)
    assert phi.shape == (n_u, 3) and psi.shape == (n_u, 3, d, d)
    for k, u in enumerate(us):
        for j, t in enumerate(times):
            assert phi[k, j].tobytes() == np.complex128(mbajd_phi(spec, u, t)).tobytes()
            assert psi[k, j].tobytes() == mbajd_psi(spec, u, t).tobytes()
            want = u if t == 0 else _direct_psi(spec, u, t)
            assert psi[k, j].tobytes() == want.tobytes()


def test_unstable_beta_matches_a_refined_grid_or_raises(monkeypatch):
    import psdaffine.closedform as cf
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    beta = q @ np.diag([0.8, -0.4]) @ q.T
    atoms = ((random_psd(rng, 2) + 0.1 * np.eye(2), 0.5),)
    us = [random_interior_u(rng, 2) for _ in range(3)]

    def phi_psi():
        spec = basic_spec(beta=beta, atoms=atoms)
        return mbajd_grid(spec, us, [2.0])

    named = (cf.BranchTrackingError, cf.QuadratureError, DomainError)
    try:
        phi, psi = phi_psi()
    except named:
        return
    # Simpson's error is O(h^4): a 4x finer grid meets a 4^4 x smaller bound
    monkeypatch.setattr(cf, "_BASE_STEPS", 4 * cf._BASE_STEPS)
    monkeypatch.setattr(cf, "_QUAD_TOL", cf._QUAD_TOL / 4 ** 4)
    fine_phi, fine_psi = phi_psi()
    assert np.max(np.abs(phi - fine_phi) / np.maximum(1.0, np.abs(fine_phi))) <= 1e-10
    assert psi.tobytes() == fine_psi.tobytes()


def test_richardson_cap_raises_quadrature_error(monkeypatch):
    import psdaffine.closedform as cf
    spec = basic_spec(beta=NON_NORMAL_BETA, atoms=((np.eye(2), 0.5),))
    u = np.eye(2) + 0.5j * np.eye(2)
    mbajd_phi(spec, u, 2.0)  # converges under the default cap
    monkeypatch.setattr(cf, "_MAX_STEPS", 32)
    with pytest.raises(cf.QuadratureError, match="failed to converge"):
        mbajd_phi(spec, u, 2.0)


def test_grid_drift_from_the_block_exponential_raises(monkeypatch):
    # a block exponential that is off at the half steps (but right at t)
    # must end in a named error, not in a value from a drifted grid
    import psdaffine.closedform as cf
    correct = cf._vanloan

    def off_below_one(beta, alpha, t):
        e, sig = correct(beta, alpha, t)
        return (e, sig) if t >= 1.0 else (e, sig * (1.0 + 1e-7))

    spec = basic_spec(beta=NON_NORMAL_BETA)
    mbajd_phi(spec, np.eye(2) + 0j, 1.0)
    monkeypatch.setattr(cf, "_vanloan", off_below_one)
    with pytest.raises(cf.QuadratureError, match="sigma grid drifted"):
        mbajd_phi(spec, np.eye(2) + 0j, 1.0)
