import cmath
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psdaffine import (
    AtomicMeasure,
    BlowUpError,
    DegenerateAlphaWarning,
    DomainError,
    MBAJDSpec,
    StepBudgetError,
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
    solve_grid,
    trace_inner,
    transform,
)
import psdaffine.closedform as cf
from psdaffine.symcore import PSD_SLACK, eigenvalues, symmetrize
from conftest import (CONE_EDGE_KINDS, CONE_EDGE_SCALES, cone_edge_matrix, random_interior_u,
                      random_orthogonal, random_psd, random_spd, random_stable_beta,
                      random_sym)


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


def test_sigma_accepts_alpha_symmetric_up_to_rounding():
    # as MBAJDSpec does: alpha symmetric up to SYM_RTOL counts as its symmetric part
    alpha = np.array([[1.0, 0.3], [0.3 + 1e-16, 1.0]])
    beta = -0.5 * np.eye(2)
    spec = MBAJDSpec(d=2, alpha=alpha, beta=beta, p=1.0)
    got = sigma_integral(beta, alpha, 1.0)
    assert got.tobytes() == sigma_integral(beta, spec.alpha, 1.0).tobytes()
    with pytest.raises(DomainError, match="alpha is not symmetric"):
        sigma_integral(beta, np.array([[1.0, 0.3], [0.3 + 1e-9, 1.0]]), 1.0)


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


def test_psi_raises_where_i_plus_u_sigma_overflows():
    # I + u sigma_2 holds inf + nan i, whose condition number is NaN: the
    # check fails it instead of returning an all-NaN psi
    spec = MBAJDSpec(d=2, alpha=np.eye(2), beta=-0.5 * np.eye(2), p=1.0)
    with pytest.raises(DomainError, match="near singular"):
        mbajd_psi(spec, 1.5e308 * np.eye(2) + 0j, 2.0)


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


@pytest.mark.parametrize("d, sign, k", [(3, 1.0, 1), (3, -1.0, -1), (5, 1.0, 1),
                                         (5, -1.0, -1), (7, 1.0, 2), (7, -1.0, -2)])
def test_mbajd_phi_winds_k_times_past_the_principal_branch(d, sign, k):
    # alpha = I, beta = 0: sigma_t = 2 t I, and for u = q (eps I + i diag(w)) q^T,
    # log det(I + u sigma_t) = sum_j Log(1 + 2 t (eps + i w_j)) with every factor
    # in the right half-plane. Its argument lies within d pi / 2 of 0, so d = 3
    # and d = 5 wind at most once past the cut, and d = 7 can wind twice
    rng = np.random.default_rng(d)
    q, w, t = random_orthogonal(rng, d), sign * rng.uniform(5.0, 50.0, d), 2.0
    u = csym(symmetrize(0.05 * q @ q.T), symmetrize(q @ np.diag(w) @ q.T))
    spec = MBAJDSpec(d=d, alpha=np.eye(d), beta=np.zeros((d, d)), p=(d - 1) / 2)
    logdet = mbajd_phi(spec, u, t) / spec.p
    want = sum(cmath.log(1.0 + 2.0 * t * (0.05 + 1j * wj)) for wj in w)
    assert abs(logdet - want) <= 1e-13 * abs(want)
    principal = np.log(np.linalg.det(np.eye(d) + u @ sigma_integral(spec.beta, spec.alpha, t)))
    assert (logdet.imag - principal.imag) / (2.0 * np.pi) == pytest.approx(k, abs=1e-12)


def _logdet_reference(u, sig):
    """log det(I + u sig) to 40 digits: the principal logs of the eigenvalues of
    I + u sig, which all have real part at least 1."""
    with mpmath.workdps(40):
        m = mpmath.eye(len(sig)) + mpmath.matrix(u.tolist()) * mpmath.matrix(sig.tolist())
        return complex(mpmath.fsum(mpmath.log(e) for e in mpmath.eig(m, left=False, right=False)))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_logdet_matches_a_40_digit_reference(d):
    # sigma_t positive definite: for a rank-deficient sigma_t at |Im u| = 1e5 the
    # value moves by about |u| eps under a rounding of sigma_t itself
    rng = np.random.default_rng(d)
    sig = random_spd(rng, d)
    v = rng.standard_normal(d)
    us = []
    for re in (random_spd(rng, d), np.outer(v, v), np.zeros((d, d))):
        for scale in (0.0, 1.0, 30.0, 1e5):
            im = random_sym(rng, d)
            us.append(re + 1j * scale * im / np.abs(im).max())
    got = cf._logdet(np.array(us), sig, 1.0)
    for u, value in zip(us, got):
        ref = _logdet_reference(u, sig)
        assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


def test_logdet_raises_on_an_overflowing_determinant():
    # sigma_2 = 2 (1 - e^-2) I: at u = 1.5e308 I the reduction I + R^T Re(u) R
    # overflows along with det(I + u sigma_2), so no factor gives the log
    spec = basic_spec(beta=-0.5 * np.eye(2))
    with pytest.raises(DomainError, match=r"^det\(I \+ u sigma_t\(alpha\)\) is not finite "
                                          r"at t = 2.0$"):
        mbajd_grid(spec, [np.eye(2) + 0j, 1.5e308 * np.eye(2) + 0j], [1.0, 2.0])


def test_logdet_of_an_overflowing_determinant_comes_from_the_reduction():
    # at u = 1e300 I, det(I + u sigma_t) = (1 + 2 (1 - e^-t) 1e300)^2 overflows but
    # its log does not; the other row keeps the bits it has alone
    spec = basic_spec(beta=-0.5 * np.eye(2))
    times = [1.0, 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, _ = mbajd_grid(spec, [np.eye(2) + 0j, 1e300 * np.eye(2) + 0j], times)
    for j, t in enumerate(times):
        with mpmath.workdps(30):
            want = float(2 * mpmath.log(1 + 2 * (1 - mpmath.exp(-t)) * mpmath.mpf(1e300)))
        assert phi[1, j].imag == 0.0
        assert abs(phi[1, j].real - want) <= 1e-13 * want
        assert phi[0, j].tobytes() == np.complex128(
            mbajd_phi(spec, np.eye(2) + 0j, t)).tobytes()


def test_logdet_raises_where_determinant_and_reduction_disagree(monkeypatch):
    # a determinant off by a sign is half a turn from the reduction's argument
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda m: -det(m))
    with pytest.raises(DomainError, match="unresolved at t = 1.5"):
        mbajd_phi(basic_spec(), np.eye(2) + 0.5j * np.eye(2), 1.5)


@pytest.mark.parametrize("w", [17.0, 20.0, 100.0, 400.0])
def test_mbajd_phi_at_high_frequency_matches_the_ode(w):
    # near s = 0 the jump rate turns at a rate of about w^2: the quadrature
    # must refine there and only there
    spec = basic_spec(beta=-0.5 * np.eye(2), atoms=((np.eye(2), 1.0),))
    u = 1j * w * np.eye(2)
    want = solve_boundary(spec.to_affine_params(), u, 1.0).phi_at(1.0)
    assert abs(mbajd_phi(spec, u, 1.0) - want) <= 1e-9 * abs(want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), rank_one_alpha=st.booleans(), n_atoms=st.integers(0, 2),
       kind=st.sampled_from(["interior", "rank-1", "imaginary"]),
       freq=st.floats(0.0, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_matches_the_ode(d, rank_one_alpha, n_atoms, kind, freq, seed):
    # rule: values agree to 1e-8 relative, or both routes raise a named error;
    # beta stays stable, where the ODE itself is accurate to 1e-8
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    alpha = np.outer(v, v) / (v @ v) if rank_one_alpha else random_spd(rng, d, 0.3, 1.2)
    atoms = tuple((random_psd(rng, d) + 0.1 * np.eye(d), rng.uniform(0.1, 0.8))
                  for _ in range(n_atoms))
    spec = MBAJDSpec(d=d, alpha=alpha, beta=random_stable_beta(rng, d, -1.0, -0.2),
                     p=(d - 1) / 2 + rng.uniform(0.0, 1.0), m=AtomicMeasure(atoms=atoms))
    w = rng.standard_normal(d)
    re_u = {"interior": random_spd(rng, d), "rank-1": np.outer(w, w),
            "imaginary": np.zeros((d, d))}[kind]
    im_u = random_sym(rng, d)
    u = re_u + 1j * freq * im_u / np.abs(im_u).max()
    T = rng.uniform(0.3, 1.5)
    named = (cf.QuadratureError, DomainError, BlowUpError, StepBudgetError)
    try:
        phi, psi = mbajd_grid(spec, [u], [T])
    except named:
        phi = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateAlphaWarning)
            sol = solve_grid(spec.to_affine_params(), [u], T)[0]
    except named:
        assert phi is None
        return
    assert phi is not None
    assert abs(phi[0, 0] - sol.phi_at(T)) <= 1e-8 * max(1.0, abs(sol.phi_at(T)))
    assert frobenius(psi[0, 0] - sol.psi_at(T)) <= 1e-8 * max(1.0, frobenius(sol.psi_at(T)))


def test_jump_integral_caps_the_graded_start(monkeypatch):
    # |u|^2 = inf at u = 1e300 I: that row starts from panels down to width
    # t 2^-k_max, k_max = ceil(log2(4 t sum_k w_k / _QUAD_TOL)), and no finer
    spec = basic_spec(beta=-0.5 * np.eye(2), atoms=((np.eye(2), 1.0),))
    starts = []
    correct = cf._adaptive_simpson
    monkeypatch.setattr(cf, "_adaptive_simpson",
                        lambda f, t, tol, k: starts.append(k) or correct(f, t, tol, k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, _ = mbajd_grid(spec, [np.eye(2) + 0j, 1e300 * np.eye(2) + 0j], [2.0])
    assert np.isfinite(phi).all()
    assert starts[-1].tolist() == [1, np.ceil(np.log2(4 * 2.0 * 1.0 / cf._QUAD_TOL))]


def _boundary_layer_phi(u0, t):
    """phi at u = u0 I of basic_spec(beta = -I/2, one atom xi = I, w = 1), to 30
    digits: sigma_s = 2 (1 - e^-s) I and psi(s) = e^-s u0 / (1 + u0 sigma_s) I, so
    phi = 2 log(1 + 2 u0 (1 - e^-t)) - int_0^t (exp(-2 psi(s)) - 1) ds, the integral
    split at layer 2^k, layer = 1 / (4 |u0|^2)."""
    with mpmath.workdps(30):
        u = mpmath.mpc(u0)
        layer = 1 / (4 * abs(u) ** 2)
        points = [0] + [layer * 2 ** k for k in range(200) if layer * 2 ** k < t] + [t]
        jump = mpmath.quad(lambda s: mpmath.exp(-2 * mpmath.exp(-s) * u / (
            1 + 2 * u * (1 - mpmath.exp(-s)))) - 1, points)
        return complex(2 * mpmath.log(1 + 2 * u * (1 - mpmath.exp(-t))) - jump)


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("u0", [400j, 1e3j, 1e-3 + 1e4j, 1e-3 + 1e5j])
def test_jump_integral_resolves_the_boundary_layer_at_zero(u0, t):
    # near s = 0 the jump rate falls from exp(-2 u0) - 1 to about -1 over a layer
    # of width about 1 / (4 |u0|^2), below the first node of a coarse panel,
    # where G7 and K15 agree to 1e-14 while both miss the layer's 1e-6 at 400i
    spec = basic_spec(beta=-0.5 * np.eye(2), atoms=((np.eye(2), 1.0),))
    want = _boundary_layer_phi(u0, t)
    assert abs(mbajd_phi(spec, u0 * np.eye(2), t) - want) <= 1e-12 * abs(want)


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
    """The witness nodes s, one entry each, of every flow_omega call."""
    import psdaffine.closedform as cf
    nodes = []
    correct = cf.flow_omega

    def counting(b, x, s):
        nodes.extend(np.ravel(s))
        return correct(b, x, s)

    monkeypatch.setattr(cf, "flow_omega", counting)
    return nodes


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


@settings(max_examples=80, deadline=None)
@given(d=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from(CONE_EDGE_SCALES),
       kinds=st.lists(st.sampled_from(CONE_EDGE_KINDS), min_size=1, max_size=3))
@example(d=3, seed=0, scale=1.0, kinds=[("floor", -1.001)])  # just below the floor
def test_jump_rate_raises_exactly_where_the_eigenvalues_say(d, seed, scale, kinds):
    # psi stacks with Re psi at the edge of the cone: the certificate may
    # decide a stack, but _jump_rate must raise exactly where the exact rule
    # eigenvalues(Re psi) >= -PSD_SLACK max(1, ||Re psi||) fails
    rng = np.random.default_rng(seed)
    re = np.stack([cone_edge_matrix(rng, d, kind, scale) for kind in kinds])
    psi = re + 1j * np.stack([random_sym(rng, d) for _ in kinds])
    m = AtomicMeasure(atoms=((np.eye(d) / d, 0.5),))
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(re, axis=(-2, -1))
    inside = (eigenvalues(re)[:, 0] >= -PSD_SLACK * np.maximum(1.0, norm)).all()
    calls = []
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(cf, "_psi", lambda u, e, sig: psi)
        mp.setattr(cf, "eigenvalues", lambda x: calls.append(x) or eigenvalues(x))
        if inside:
            rate = cf._jump_rate(m, None, None, None)
            assert rate.shape == (len(kinds),)
        else:
            with pytest.raises(DomainError, match="requires Re\\(psi\\) PSD"):
                cf._jump_rate(m, None, None, None)
    # the certificate decides the clear stacks; the eigenvalues the ones below the floor
    if all(unit != "floor" or factor > 0.0 for unit, factor in kinds) and (norm < np.inf).all():
        assert not calls
    if any(unit == "floor" and factor < -1.0 for unit, factor in kinds):
        assert calls


@pytest.mark.parametrize("t", [-0.5, float("nan")])
def test_closed_form_rejects_negative_or_nan_time(t):
    spec = basic_spec()
    for f in (mbajd_psi, mbajd_phi):
        with pytest.raises(DomainError, match="requires t >= 0"):
            f(spec, np.eye(2) + 0j, t)


def test_closed_form_rejects_an_infinite_time():
    # before any exponential is taken: no NumPy warning, a named DomainError
    spec = basic_spec()
    u = np.eye(2) + 0j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: mbajd_grid(spec, [u, 2.0 * u], [1.0, np.inf]),
                    lambda: mbajd_psi(spec, u, np.inf),
                    lambda: mbajd_transform(spec, u, np.eye(2), np.inf),
                    lambda: sigma_integral(np.zeros((2, 2)), np.eye(2), np.inf)):
            with pytest.raises(DomainError, match="requires t >= 0"):
                run()


def test_witness_runs_once_per_new_horizon(monkeypatch):
    rng = np.random.default_rng(16)
    beta = random_stable_beta(rng, 2)
    times = (0.25, 0.5, 1.0, 2.0)
    nodes = _count_flow_omega(monkeypatch)
    per_witness = []
    for t in times:
        sigma_integral(beta, np.eye(2), t)
        per_witness.append(len(nodes))
        nodes.clear()
    assert min(per_witness) > 0
    spec = basic_spec(beta=beta, atoms=((random_psd(rng, 2) + 0.1 * np.eye(2), 0.5),))
    for _ in range(16):
        u = random_interior_u(rng, 2)
        for t in times:
            mbajd_phi(spec, u, t)
            mbajd_psi(spec, u, t)
    assert len(nodes) == sum(per_witness)


# ---------------------------------------------------------------------------
# the grid call: one pass over the (u, t) rows, shared by every u and time
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


def test_one_jump_quadrature_per_grid(monkeypatch):
    # the whole (u, t) grid shares one jump quadrature, after the witness of the
    # fresh spec at its largest time; one block exponential gives the four
    # horizons, and each quadrature round one more for its nodes
    rng = np.random.default_rng(19)
    spec = basic_spec(beta=random_stable_beta(rng, 2),
                      atoms=((random_psd(rng, 2) + 0.1 * np.eye(2), 0.5),))
    calls, rounds, blocks = [], [], []
    correct, correct_vanloan = cf._adaptive_simpson, cf._vanloan

    def counting(f, t, tol, k):
        calls.append(np.size(t))
        return correct(lambda rows, s: rounds.append(len(calls)) or f(rows, s), t, tol, k)

    monkeypatch.setattr(cf, "_adaptive_simpson", counting)
    monkeypatch.setattr(cf, "_vanloan",
                        lambda b, a, t: blocks.append(np.size(t)) or correct_vanloan(b, a, t))
    phi, _ = mbajd_grid(spec, [random_interior_u(rng, 2) for _ in range(16)],
                        [0.25, 0.5, 1.0, 2.0])
    assert np.isfinite(phi).all()
    assert calls == [1, 64]
    assert blocks[0] == 4 and len(blocks) == 1 + rounds.count(2) and rounds.count(2) > 0


def test_grid_error_names_the_failing_rows_time():
    # I + 1e20 sigma_t(alpha) is near singular at t = 1e-6 (sigma_t nearly rank 1)
    # but not at t = 1: the error names the time of the row that fails
    spec = MBAJDSpec(d=2, alpha=np.diag([1.0, 0.0]), beta=np.array([[-0.5, 0.3], [-0.4, -0.6]]),
                     p=0.5)
    with pytest.raises(DomainError, match=r"^I \+ u sigma_t\(alpha\) is near singular "
                                          r"at t = 1e-06$"):
        mbajd_grid(spec, [1e20 * np.eye(2) + 0j, np.eye(2) + 0j], [1e-6, 1.0])


def test_grid_results_do_not_depend_on_passes(monkeypatch):
    # unsorted, repeated and zero times, d = 4, two atoms, and a |Im u| = 400 row
    # among interior ones, in passes of 3 rows and in one pass
    rng = np.random.default_rng(31)
    atoms = tuple((random_psd(rng, 4) + 0.1 * np.eye(4), w) for w in (0.3, 0.6))
    spec = MBAJDSpec(d=4, alpha=random_psd(rng, 4) + 0.1 * np.eye(4),
                     beta=random_stable_beta(rng, 4), p=2.0, m=AtomicMeasure(atoms=atoms))
    us = [random_interior_u(rng, 4) for _ in range(3)]
    us.insert(1, 0.1 * np.eye(4) + 400j * np.eye(4))
    times = [1.3, 0.0, 0.4, 1.3]
    phi, psi = mbajd_grid(spec, us, times)
    monkeypatch.setattr(cf, "_GRID_ROWS", 3)
    small_phi, small_psi = mbajd_grid(spec, us, times)
    assert phi.tobytes() == small_phi.tobytes() and psi.tobytes() == small_psi.tobytes()
    for k, u in enumerate(us):
        for j, t in enumerate(times):
            assert phi[k, j].tobytes() == np.complex128(mbajd_phi(spec, u, t)).tobytes()
            assert psi[k, j].tobytes() == mbajd_psi(spec, u, t).tobytes()


def test_rows_of_different_depth_stay_independent():
    # a high-frequency row needs finer log-det levels and deeper panels than
    # an interior one; sharing a pass must not change any row's bits
    rng = np.random.default_rng(20)
    spec = basic_spec(beta=NON_NORMAL_BETA, atoms=((random_psd(rng, 2) + 0.1 * np.eye(2), 0.5),))
    us = [400j * np.eye(2), random_interior_u(rng, 2), 17j * np.eye(2),
          random_interior_u(rng, 2)]
    times = [0.5, 1.0]
    phi, psi = mbajd_grid(spec, us, times)
    for k, u in enumerate(us):
        for j, t in enumerate(times):
            assert phi[k, j].tobytes() == np.complex128(mbajd_phi(spec, u, t)).tobytes()
            assert psi[k, j].tobytes() == mbajd_psi(spec, u, t).tobytes()


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

    named = (cf.QuadratureError, DomainError)
    try:
        phi, psi = phi_psi()
    except named:
        return
    monkeypatch.setattr(cf, "_QUAD_TOL", cf._QUAD_TOL / 1e4)
    fine_phi, fine_psi = phi_psi()
    assert np.max(np.abs(phi - fine_phi) / np.maximum(1.0, np.abs(fine_phi))) <= 1e-10
    assert psi.tobytes() == fine_psi.tobytes()


def test_convergence_cap_raises_quadrature_error(monkeypatch):
    import psdaffine.closedform as cf
    spec = basic_spec(beta=NON_NORMAL_BETA, atoms=((np.eye(2), 0.5),))
    u = np.eye(2) + 0.5j * np.eye(2)
    mbajd_phi(spec, u, 2.0)  # converges under the default cap
    monkeypatch.setattr(cf, "_MAX_DEPTH", 0)  # no starting panel may be bisected
    with pytest.raises(cf.QuadratureError, match="failed to converge"):
        mbajd_phi(spec, u, 2.0)


def test_panel_cap_raises_before_an_unresolvable_row_grows():
    # an integrand that alternates node by node fails on every panel; without
    # the per-row cap of 2^_MAX_LEVEL bisected panels a round, the row would
    # double its panels each round up to 2^_MAX_DEPTH
    seen = []

    def fail_everywhere(rows, s):
        seen.append(len(s))
        return np.where(np.arange(len(s)) % 2 == 0, 1.0, -1.0)[:, None]

    with pytest.raises(cf.QuadratureError, match="failed to converge"):
        cf._adaptive_simpson(fail_everywhere, 1.0, 1e-10, [1])
    assert max(seen) <= 15 * 2 ** (cf._MAX_LEVEL + 1)
    assert len(seen) < cf._MAX_DEPTH


def test_high_frequency_row_keeps_its_bits_in_a_grid():
    # a 1e4 i row starts from about 20 graded panels, the ordinary rows from 2;
    # sharing each round's stacked block exponential must not move its bits
    rng = np.random.default_rng(25)
    spec = basic_spec(beta=NON_NORMAL_BETA, atoms=((random_psd(rng, 2) + 0.1 * np.eye(2), 0.5),))
    us = [random_interior_u(rng, 2) for _ in range(15)]
    us.insert(7, 1e-3 * np.eye(2) + 1e4j * np.eye(2))
    phi, _ = mbajd_grid(spec, us, [1.0])
    assert np.isfinite(phi).all()
    for k in (7, 0, 15):
        assert phi[k, 0].tobytes() == np.complex128(mbajd_phi(spec, us[k], 1.0)).tobytes()


def test_witness_checks_every_node_of_a_batched_round(monkeypatch):
    # the flow is off only at s > t/2; those nodes share each round's
    # stacked call with correct ones, and the witness must still see them
    t = 1.0
    rounds = []
    correct = cf.flow_omega

    def off_late(b, x, s):
        rounds.append(np.ravel(s))
        out = correct(b, x, s)
        return np.where((np.asarray(s) > t / 2)[..., None, None], out * (1.0 + 1e-6), out)

    sigma_integral(NON_NORMAL_BETA, np.eye(2), t)
    monkeypatch.setattr(cf, "flow_omega", off_late)
    for run in (lambda: sigma_integral(NON_NORMAL_BETA, np.eye(2), t),
                lambda: mbajd_phi(basic_spec(beta=NON_NORMAL_BETA), np.eye(2) + 0j, t)):
        rounds.clear()
        with pytest.raises(cf.QuadratureError, match="cross-check failed"):
            run()
        assert any((s <= t / 2).any() and (s > t / 2).any() for s in rounds)
