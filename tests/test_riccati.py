import dataclasses
import hashlib
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psdaffine import (
    AffineParams,
    AtomicMeasure,
    BlowUpError,
    DegenerateAlphaWarning,
    DomainError,
    GeneralDrift,
    LyapunovDrift,
    MatrixAtomicMeasure,
    MBAJDSpec,
    TruncatedParams,
    boundary_limit,
    csym,
    detruncate,
    frobenius,
    generator_exp,
    growth_constant,
    jump_transform_m,
    jump_transform_mu,
    mbajd_phi,
    mbajd_psi,
    solve,
    solve_boundary,
    solve_grid,
    trace_inner,
    transform,
)
from psdaffine.model import sym_to_vec, truncation
from psdaffine.riccati import RiccatiRHS
from psdaffine.symcore import min_eig, psd_project
from conftest import (
    random_admissible,
    random_interior_u,
    random_m_measure,
    random_mu_measure,
    random_psd,
    random_spd,
    random_sym,
)


def wishart_params(d=2, beta=None, p=1.0):
    beta = np.zeros((d, d)) if beta is None else beta
    return MBAJDSpec(d=d, alpha=np.eye(d), beta=beta, p=p).to_affine_params()


def jumpy_params(rng=None, d=2):
    rng = np.random.default_rng(11) if rng is None else rng
    m = AtomicMeasure(atoms=((random_psd(rng, d) + 0.1 * np.eye(d), 0.4),))
    mu = MatrixAtomicMeasure(atoms=((random_psd(rng, d) + 0.1 * np.eye(d),
                                     0.4 * random_psd(rng, d)),))
    return AffineParams(d=d, alpha=np.eye(d), b=2 * np.eye(d),
                        drift=LyapunovDrift(beta=-0.5 * np.eye(d)), m=m, mu=mu)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


def rates(params, u):
    """The phi rate and the psi rate of the direct system at one state u."""
    phi_rate, psi_rate = RiccatiRHS(params).rates(np.asarray(u, dtype=complex)[None])
    return complex(phi_rate[0]), psi_rate[0]


def test_rhs_equilibrium_at_zero():
    params = wishart_params()  # gamma = 0, c = 0, no jumps
    zero = np.zeros((2, 2), dtype=complex)
    np.testing.assert_allclose(rates(params, zero)[1], np.zeros((2, 2)), atol=1e-15)
    assert rates(params, zero)[0] == 0.0


def test_rhs_psi_wishart_identity():
    params = wishart_params()
    got = rates(params, np.eye(2, dtype=complex))[1]
    np.testing.assert_allclose(got, -2.0 * np.eye(2), atol=1e-14)


def test_rhs_phi_examples():
    # b = I, c = 0, empty m, u = I: tr(I) = 2
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))))
    assert rates(params, np.eye(2, dtype=complex))[0] == pytest.approx(2.0)
    # b = 0, c = 1, one atom (xi = I, w = 1): 1 - (exp(-2) - 1)
    params2 = AffineParams(d=2, alpha=np.eye(2), b=np.zeros((2, 2)),
                           drift=LyapunovDrift(beta=np.zeros((2, 2))), c=1.0,
                           m=AtomicMeasure(atoms=((np.eye(2), 1.0),)))
    assert rates(params2, np.eye(2, dtype=complex))[0] == pytest.approx(
        1.0 - (np.exp(-2.0) - 1.0))


def test_rhs_psi_term_by_term_oracle():
    rng = np.random.default_rng(12)
    params = jumpy_params(rng)
    u = random_interior_u(rng, 2)
    got = rates(params, u)[1]
    quadratic = -2.0 * u @ params.alpha @ u
    linear = params.drift.adjoint(u) + params.gamma
    jump = -jump_transform_mu(params.mu, u)
    np.testing.assert_allclose(got, quadratic + linear + jump, atol=1e-13)
    # phi rate assembled the same way
    expected_phi = trace_inner(params.b, u) + params.c - jump_transform_m(params.m, u)
    assert rates(params, u)[0] == pytest.approx(expected_phi, abs=1e-13)


def test_rhs_psi_output_symmetric():
    rng = np.random.default_rng(13)
    params = jumpy_params(rng)
    u = random_interior_u(rng, 2)
    r = rates(params, u)[1]
    # symmetric in exact arithmetic; matmul rounding is all that remains
    assert frobenius(r - r.T) <= 1e-14 * (1.0 + frobenius(r))


def indefinite(rng, d, lo=-0.4, hi=0.8):
    """A real symmetric matrix with eigenvalues spread over [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * np.linspace(lo, hi, d)) @ q.T


def rhs_params(rng, d, general=False, truncated=False):
    """Both atom kinds, each with sites inside and outside the unit ball."""
    base = random_admissible(rng, d, with_gamma=True, general_drift=general)
    kw = dict(d=d, alpha=base.alpha, b=base.b, c=0.2, gamma=base.gamma,
              m=random_m_measure(rng, d, 2), mu=random_mu_measure(rng, d, 2))
    if truncated:
        return TruncatedParams(drift_tilde=base.drift, **kw)
    return AffineParams(drift=base.drift, **kw)


@pytest.mark.parametrize("d", [2, 3])
def test_rhs_truncated_chi_compensator_oracle(d):
    # one mu site inside the unit ball (chi = xi) and one outside (chi = xi / ||xi||)
    rng = np.random.default_rng(40 + d)
    tp = rhs_params(rng, d, truncated=True)
    assert [frobenius(xi) < 1.0 for xi, _ in tp.mu.atoms] == [True, False]
    u = random_interior_u(rng, d)
    phi_rate, psi_rate = RiccatiRHS(tp).rates(u[None])
    jump = sum((np.exp(-trace_inner(u, xi)) - 1.0 + trace_inner(truncation(xi), u)) * wm
               for xi, wm in tp.mu.atoms)
    expected = -2.0 * u @ tp.alpha @ u + tp.drift_tilde.adjoint(u) + tp.gamma - jump
    np.testing.assert_allclose(psi_rate[0], expected, rtol=0.0, atol=1e-13)
    expected_phi = trace_inner(tp.b, u) + tp.c - jump_transform_m(tp.m, u)
    assert abs(phi_rate[0] - expected_phi) <= 1e-13


@pytest.mark.parametrize("d", [2, 3])
def test_rhs_projected_row_outside_the_cone_oracle(d):
    # Re psi has a negative eigenvalue: the jump exponents take its cone
    # projection (here by eigh, independent of the analytic d = 2 kernel),
    # every other term takes psi itself
    rng = np.random.default_rng(50 + d)
    params = rhs_params(rng, d, general=d == 3)
    u = indefinite(rng, d) + 1j * random_sym(rng, d, 0.5)
    assert min_eig(u.real) < -0.3
    e = psd_project(u.real) + 1j * u.imag
    phi_rate, psi_rate = RiccatiRHS(params, projected=True).rates(u[None])
    expected = (-2.0 * u @ params.alpha @ u + params.drift.adjoint(u) + params.gamma
                - jump_transform_mu(params.mu, e))
    np.testing.assert_allclose(psi_rate[0], expected, rtol=0.0, atol=1e-13)
    expected_phi = trace_inner(params.b, u) + params.c - jump_transform_m(params.m, e)
    assert abs(phi_rate[0] - expected_phi) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("general", [False, True], ids=["lyapunov", "general"])
@pytest.mark.parametrize("truncated", [False, True], ids=["affine", "truncated"])
def test_rhs_columns_equal_one_column_calls(d, general, truncated):
    # a product whose per-row shape depends on the number of rows (say
    # (n, 1, D) @ (D, K)) can round a row differently in a stack than alone;
    # the rows mix the direct system with projected rows in and out of the cone
    rng = np.random.default_rng(60 + d)
    params = rhs_params(rng, d, general, truncated)
    us = [random_interior_u(rng, d) for _ in range(3)]
    us += [random_psd(rng, d) + 1j * random_sym(rng, d, 0.5) for _ in range(3)]
    us += [indefinite(rng, d) + 1j * random_sym(rng, d, 0.5) for _ in range(3)]
    flags = [False] * 3 + [True] * 6
    order = rng.permutation(len(us))
    us, flags = [us[i] for i in order], [flags[i] for i in order]
    phis = rng.standard_normal(len(us)) + 1j * rng.standard_normal(len(us))
    y = np.ascontiguousarray(RiccatiRHS(params).pack(phis, np.stack(us))).T  # states are columns
    rates = RiccatiRHS(params, flags)(0.0, y)
    for i, flag in enumerate(flags):
        one = RiccatiRHS(params, flag)
        assert rates[:, i].tobytes() == one(0.0, y[:, i]).tobytes()
        assert rates[:, i].tobytes() == one(0.0, y[:, i:i + 1])[:, 0].tobytes()
    for m in range(1, len(us)):
        head = RiccatiRHS(params, flags[:m])(0.0, np.ascontiguousarray(y[:, :m].T).T)
        assert head.tobytes() == np.ascontiguousarray(rates[:, :m]).tobytes()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_equilibrium_conservative():
    params = AffineParams(d=2, alpha=np.eye(2), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=-np.eye(2)))
    sol = solve(params, np.zeros((2, 2), dtype=complex), 1.0)
    assert sol.completed
    assert np.abs(sol.phi).max() == 0.0
    assert np.abs(sol.psi).max() == 0.0


def test_solve_wishart_closed_values():
    # alpha = I, beta = 0, p = 1, u0 = I, T = 0.5: psi = I/2, phi = 2 log 2
    params = wishart_params(p=1.0)
    params = AffineParams(d=2, alpha=params.alpha, b=2.0 * np.eye(2),
                          drift=params.drift, m=params.m, mu=params.mu)
    sol = solve(params, np.eye(2, dtype=complex), 0.5)
    phi, psi = sol.eval(0.5)
    np.testing.assert_allclose(psi, np.eye(2) / 2.0, atol=1e-9)
    assert phi == pytest.approx(2.0 * np.log(2.0), abs=1e-9)
    assert transform(params, np.eye(2) + 0j, np.eye(2), 0.5) == pytest.approx(
        np.exp(-1.0) / 4.0, abs=1e-9)


def _rk4(rhs, y0, t_end, h):
    y = np.asarray(y0, dtype=float).copy()
    t = 0.0
    for _ in range(int(round(t_end / h))):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def test_solve_matches_fixed_step_rk4_reference():
    rng = np.random.default_rng(14)
    params = jumpy_params(rng)
    u0 = random_interior_u(rng, 2)
    T = 0.25
    sol = solve(params, u0, T)
    rhs = RiccatiRHS(params)
    y_ref = _rk4(rhs, rhs.pack(0.0 + 0.0j, u0), T, h=1e-5)
    phi_ref = rhs.unpack_phi(y_ref)
    psi_ref = rhs.unpack_psi(y_ref)
    phi, psi = sol.eval(T)
    assert abs(phi - phi_ref) < 1e-7
    assert frobenius(psi - psi_ref) < 1e-7


def test_solver_diagnostics_and_dense_output():
    params = wishart_params(beta=-0.5 * np.eye(2))
    sol = solve(params, np.eye(2, dtype=complex), 2.0)
    d = sol.diagnostics
    assert sol.completed and d.t_plus == np.inf
    assert d.n_accepted == len(sol.times) - 1
    assert d.min_re_psi_eig > 0.0
    assert not d.boundary_floor_hit
    # dense output against a fresh solve up to an off-grid time
    t_mid = 0.7 * sol.times[3] + 0.3 * sol.times[4]
    phi_dense, psi_dense = sol.eval(float(t_mid))
    sol2 = solve(params, np.eye(2, dtype=complex), float(t_mid))
    phi2, psi2 = sol2.eval(float(t_mid))
    assert abs(phi_dense - phi2) < 1e-9
    assert frobenius(psi_dense - psi2) < 1e-9


def test_solve_rejects_bad_inputs():
    params = wishart_params()
    with pytest.raises(ValueError):
        solve(params, np.eye(2, dtype=complex), -1.0)
    with pytest.raises(DomainError):
        solve(params, -np.eye(2) + 0j, 1.0)


def test_blowup_detected_and_reported():
    # alpha = -I is not a legal diffusion coefficient (flagged as degenerate);
    # the quadratic term then feeds growth and the scalar solution 1/(1-2t)
    # explodes at t = 0.5
    params = AffineParams(d=2, alpha=-np.eye(2), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))))
    with pytest.warns(DegenerateAlphaWarning):
        sol = solve(params, np.eye(2, dtype=complex), 1.0)
    assert not sol.completed
    assert sol.diagnostics.t_plus == pytest.approx(0.5, abs=1e-2)
    with pytest.warns(DegenerateAlphaWarning):
        with pytest.raises(BlowUpError):
            transform(params, np.eye(2) + 0j, np.eye(2), 1.0)


@pytest.mark.parametrize("message", [None, "shifted solve (n = 4) terminated early"])
def test_blowup_error_survives_pickling(message):
    err = BlowUpError(0.5, message)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is BlowUpError and back.t_plus == 0.5 and str(back) == str(err)


def test_gronwall_bound_smoke():
    rng = np.random.default_rng(15)
    for _ in range(5):
        params = random_admissible(rng, 2, with_gamma=True)
        u0 = random_interior_u(rng, 2)
        sol = solve(params, u0, 2.0)
        envelope = np.exp(growth_constant(params) * sol.times) * np.sqrt(
            1.0 + frobenius(u0) ** 2)
        norms = np.linalg.norm(sol.psi, axis=(1, 2))
        assert np.all(norms <= envelope * (1.0 + 1e-9))


def test_monotonicity_in_cone_order():
    rng = np.random.default_rng(16)
    params = random_admissible(rng, 2, with_jumps=True)
    for _ in range(5):
        u2 = random_spd(rng, 2).astype(complex)
        u1 = u2 + random_psd(rng, 2)
        s1 = solve(params, u1, 1.0)
        s2 = solve(params, u2, 1.0)
        for t in (0.25, 0.5, 1.0):
            gap = s1.psi_at(t).real - s2.psi_at(t).real
            assert np.linalg.eigvalsh(gap)[0] >= -1e-8


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------


def test_solve_boundary_zero_imaginary_data():
    params = wishart_params(beta=-0.3 * np.eye(2))
    sol = solve_boundary(params, np.zeros((2, 2), dtype=complex), 1.0)
    assert np.abs(sol.phi).max() == 0.0
    assert np.abs(sol.psi).max() == 0.0


def test_solve_boundary_imaginary_identity_wishart():
    # alpha = I, beta = 0: psi(t, iI) = i/(1 + 2it) I
    params = wishart_params()
    params = AffineParams(d=2, alpha=params.alpha, b=2.0 * np.eye(2),
                          drift=params.drift)
    t = 0.5
    sol = solve_boundary(params, 1j * np.eye(2), t)
    expected = 1j / (1.0 + 2j * t) * np.eye(2)
    np.testing.assert_allclose(sol.psi_at(t), expected, atol=1e-9)
    # real part of psi enters the cone immediately
    assert sol.diagnostics.min_re_psi_eig >= -1e-10


def test_solve_boundary_rank_one_matches_limit():
    rng = np.random.default_rng(17)
    params = jumpy_params(rng)
    u0 = csym(np.diag([1.0, 0.0]), 0.3 * random_sym(rng, 2))
    T = 0.75
    direct = solve_boundary(params, u0, T)
    lim = boundary_limit(params, u0, T, n_max=64)
    assert lim.converged
    assert frobenius(lim.psi_limit - direct.psi_at(T)) < 1e-6
    assert abs(lim.phi_limit - direct.phi_at(T)) < 1e-6


def test_boundary_limit_interior_data_order_one_over_n():
    params = wishart_params(beta=-0.4 * np.eye(2))
    u0 = random_spd(np.random.default_rng(18), 2).astype(complex)
    T = 0.5
    direct = solve(params, u0, T)
    lim = boundary_limit(params, u0, T, n_max=16)
    for n, psi_n in zip(lim.ns, lim.psi_values):
        assert frobenius(psi_n - direct.psi_at(T)) < 2.0 / n
    assert lim.converged


def test_boundary_limit_needs_one_shift():
    with pytest.raises(ValueError, match="n_max"):
        boundary_limit(wishart_params(), np.eye(2) + 0j, 1.0, n_max=0)


def test_boundary_limit_table_and_modulus():
    params = jumpy_params()
    w = random_sym(np.random.default_rng(19), 2)
    lim = boundary_limit(params, 1j * w, 1.0)
    x = np.eye(2)
    for phi_n, psi_n in zip(lim.phi_values, lim.psi_values):
        assert abs(np.exp(-phi_n - trace_inner(psi_n, x))) <= 1.0 + 1e-12
    rows = lim.table()
    assert rows[0]["tail"] is None and rows[1]["tail"] == lim.tail[0]


def test_boundary_limit_mbajd_closed_form():
    spec = MBAJDSpec(d=2, alpha=np.eye(2), beta=np.array([[-0.5, 0.2], [0.0, -0.6]]),
                     p=1.0, m=AtomicMeasure(atoms=((0.5 * np.eye(2), 0.3),)))
    params = spec.to_affine_params()
    u0 = csym(np.diag([0.8, 0.0]), [[0.2, 0.1], [0.1, -0.3]])
    T = 0.6
    lim = boundary_limit(params, u0, T)
    assert lim.converged
    assert frobenius(lim.psi_limit - mbajd_psi(spec, u0, T)) < 1e-6
    assert abs(lim.phi_limit - mbajd_phi(spec, u0, T)) < 1e-6


# ---------------------------------------------------------------------------
# transform / characteristic function / generator
# ---------------------------------------------------------------------------


def test_transform_total_mass_and_initial_condition():
    params = jumpy_params()
    x = random_psd(np.random.default_rng(20), 2)
    assert transform(params, np.zeros((2, 2), dtype=complex), x, 1.5) == pytest.approx(
        1.0, abs=1e-12)
    u0 = random_interior_u(np.random.default_rng(21), 2)
    assert transform(params, u0, x, 0.0) == pytest.approx(
        np.exp(-trace_inner(u0, x)), abs=1e-14)


def test_transform_checks_the_domain_at_every_horizon():
    params = wishart_params()
    for T in (0.0, 0.5):
        with pytest.raises(DomainError):
            transform(params, -np.eye(2) + 0j, np.eye(2), T)


def test_transform_modulus_bound_conservative():
    rng = np.random.default_rng(22)
    for _ in range(10):
        params = random_admissible(rng, 2, with_jumps=True)
        u0 = random_interior_u(rng, 2, imag_scale=1.0)
        x = random_psd(rng, 2)
        assert abs(transform(params, u0, x, rng.uniform(0.1, 2.0))) <= 1.0 + 1e-10


def test_characteristic_function_basics():
    params = jumpy_params()
    x = np.eye(2)
    # the characteristic function is the transform at purely imaginary u = i w
    assert transform(params, 1j * np.zeros((2, 2)), x, 1.0) == pytest.approx(
        1.0, abs=1e-10)
    w = random_sym(np.random.default_rng(23), 2)
    val = transform(params, 1j * w, x, 1.0)
    assert abs(val) <= 1.0 + 1e-10


def test_generator_exp_linear_term_only():
    params = AffineParams(d=2, alpha=np.zeros((2, 2)), b=np.eye(2),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))))
    # only tr(b u) survives: -(tr(I I)) e^0 = -2
    val = generator_exp(params, np.eye(2, dtype=complex), np.zeros((2, 2)))
    assert val == pytest.approx(-2.0, abs=1e-13)


def test_generator_exp_pure_quadratic():
    params = AffineParams(d=2, alpha=np.eye(2), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))))
    val = generator_exp(params, np.eye(2, dtype=complex), np.eye(2))
    assert val == pytest.approx(4.0 * np.exp(-2.0), abs=1e-12)


def test_generator_matches_finite_difference_of_transform():
    rng = np.random.default_rng(24)
    params = random_admissible(rng, 2, with_gamma=True)
    u = random_interior_u(rng, 2)
    x = random_psd(rng, 2)
    base = transform(params, u, x, 0.0)

    def fwd(h):
        return (transform(params, u, x, h) - base) / h

    h = 2e-3
    d1, d2, d3 = fwd(h), fwd(h / 2), fwd(h / 4)
    extrap = (4 * (2 * d3 - d2) - (2 * d2 - d1)) / 3
    assert abs(generator_exp(params, u, x) - extrap) < 1e-6


def test_degenerate_alpha_warns():
    params = AffineParams(d=2, alpha=np.diag([1.0, 0.0]), b=np.diag([1.0, 0.0]),
                          drift=LyapunovDrift(beta=-np.eye(2)))
    with pytest.warns(DegenerateAlphaWarning):
        solve(params, np.eye(2, dtype=complex), 0.5)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_flow_property_semigroup():
    rng = np.random.default_rng(25)
    params = random_admissible(rng, 2)
    u = random_interior_u(rng, 2)
    for t, s in ((0.25, 0.25), (0.25, 0.5), (0.5, 0.5)):
        sol_full = solve(params, u, t + s)
        sol_t = solve(params, u, t)
        sol_s = solve(params, sol_t.psi_at(t), s)
        psi_gap = frobenius(sol_full.psi_at(t + s) - sol_s.psi_at(s))
        phi_gap = abs(sol_full.phi_at(t + s) - sol_t.phi_at(t) - sol_s.phi_at(s))
        assert psi_gap <= 1e-6 * (1 + frobenius(u))
        assert phi_gap <= 1e-6


def test_detruncation_invariance_of_solutions():
    rng = np.random.default_rng(26)
    base = random_admissible(rng, 2, with_jumps=True)
    if base.mu.is_empty:
        base = jumpy_params(rng)
    tp = TruncatedParams(d=2, alpha=base.alpha, b=base.b, drift_tilde=base.drift,
                         m=base.m, mu=base.mu)
    params = detruncate(tp)
    u = random_interior_u(rng, 2)
    s_trunc = solve(tp, u, 1.0)
    s_free = solve(params, u, 1.0)
    assert abs(s_trunc.phi_at(1.0) - s_free.phi_at(1.0)) < 1e-9
    assert frobenius(s_trunc.psi_at(1.0) - s_free.psi_at(1.0)) < 1e-9


def test_real_data_stays_real():
    params = jumpy_params()
    u0 = random_spd(np.random.default_rng(27), 2).astype(complex)
    sol = solve(params, u0, 1.0)
    assert np.abs(sol.psi.imag).max() == 0.0
    assert np.abs(sol.phi.imag).max() == 0.0


# ---------------------------------------------------------------------------
# golden bits of the single-u step sequence
# ---------------------------------------------------------------------------


def golden_solve_params(d, general):
    ones, eye = np.ones((d, d)), np.eye(d)
    alpha = 0.5 * eye + 0.1 * ones
    drift = LyapunovDrift(beta=-0.6 * eye + 0.2 * np.triu(ones, 1))
    if general:
        a = sym_to_vec(eye + 0.1 * ones)
        drift = GeneralDrift(matrix=drift.as_matrix() + 0.3 * np.outer(a, a), d=d)
    return AffineParams(
        d=d, alpha=alpha, b=d * alpha, drift=drift,
        m=AtomicMeasure(atoms=((0.3 * eye + 0.05 * ones, 0.8),)),
        mu=MatrixAtomicMeasure(atoms=((0.2 * np.diag(np.arange(1.0, d + 1)), 0.4 * eye),)))


# SHA-256 of times, phi, psi and the dense output at four off-grid times
# (recorded with NumPy 2.4 and OpenBLAS on x86-64; another BLAS/LAPACK build
# may move them). A change of these bits changes every ODE transform value
# and must be stated with its size. Last re-recorded for the right-hand side
# on the packed state: phi and psi at T = 1 moved by at most 7.6e-16
# relative to max(1, |x|), with the same accepted and rejected steps.
GOLDEN_SOLVE = {
    ("solve", 2, False):
        "1f32106c2b6e024579bf3244fd1833765651c39f8454afa195a84c273a613776",
    ("solve", 2, True):
        "43471ad707304a4adab09141688c4ed6515517bd662af68b0b42472bf07624f1",
    ("solve", 3, False):
        "600ccef5be7938fde35abb55df186b05468d3f52cf6580df8e8ccfc494eba97a",
    ("solve", 3, True):
        "a7c5adec4085771d349cecb0d8da55da451dc43bd6b6407d1a4cbd30e08916a2",
    ("solve", 5, False):
        "a117e6ff3d01fb7b8c8ade6e05261a974bb5b01aae4e4dea9673f3aba2f2efb2",
    ("solve", 5, True):
        "c241661965ea13ef4a53cc6084daf82622758ccb80bc6b0da86a4aae30bb404c",
    ("solve_boundary", 2, False):
        "69f512d2c2810396b37233fd5b488339a4dbed97c2d2fcda25bbaf57e65cc787",
    ("solve_boundary", 2, True):
        "2a59eddce865fa59335450763db0534ca3748fbe37d6aa08cd8374608d3e1c55",
    ("solve_boundary", 3, False):
        "a65fb742c95293b694ff9770f6abce5cd6e5797ed3d5f4fa7696a658d6597444",
    ("solve_boundary", 3, True):
        "a55b3184ecd186f7a4e9afec933756e48f48fb7829b8a50651bd3649b29031a1",
    ("solve_boundary", 5, False):
        "64e38b6dae07807168e9f3dd5edd37977229a47f0c81dbea5ae8d2df34fe2409",
    ("solve_boundary", 5, True):
        "c31fb3f13724df14ade995396c1fbbd8163cfd90c74cb243064c9342644ac2ef",
}


def golden_solve_digest(route, d, general):
    ones, eye = np.ones((d, d)), np.eye(d)
    im = 0.3 * eye - 0.1 * ones
    if route == "solve":
        u0, solver = 0.7 * eye + 0.1 * ones + 1j * im, solve
    else:
        u0, solver = np.diag(np.arange(d) % 2 * 1.0) + 1j * im, solve_boundary
    sol = solver(golden_solve_params(d, general), u0, 1.0)
    assert sol.completed
    h = hashlib.sha256()
    for a in (sol.times, sol.phi, sol.psi):
        h.update(np.ascontiguousarray(a).tobytes())
    for t in (0.13, 0.37, 0.61, 0.89):
        phi_t, psi_t = sol.eval(t)
        h.update(np.complex128(phi_t).tobytes() + np.ascontiguousarray(psi_t).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("route", ["solve", "solve_boundary"])
@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("general", [False, True], ids=["lyapunov", "general"])
def test_solve_golden_bits(route, d, general):
    assert golden_solve_digest(route, d, general) == GOLDEN_SOLVE[route, d, general]


# ---------------------------------------------------------------------------
# a grid solve is the one-row solves, bit for bit
# ---------------------------------------------------------------------------


def assert_same_solution(grid_sol, row_sol):
    def bits(*arrays):
        return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)

    assert bits(grid_sol.times, grid_sol.phi, grid_sol.psi) == bits(
        row_sol.times, row_sol.phi, row_sol.psi)
    assert grid_sol.completed == row_sol.completed
    assert dataclasses.astuple(grid_sol.diagnostics) == dataclasses.astuple(row_sol.diagnostics)
    for frac in (0.13, 0.5, 0.77):
        t = frac * row_sol.t_end
        assert bits(*grid_sol.eval(t)) == bits(*row_sol.eval(t))


@settings(max_examples=15, deadline=None)
@example(d=3, general=False, zero_alpha=False, n_interior=0, n_imaginary=2, T=1.0, seed=0)
@given(d=st.sampled_from([2, 3, 5]), general=st.booleans(), zero_alpha=st.booleans(),
       n_interior=st.integers(0, 3), n_imaginary=st.integers(0, 3),
       T=st.floats(0.2, 1.5), seed=st.integers(0, 2**32 - 1))
def test_grid_solve_equals_one_row_solves(d, general, zero_alpha, n_interior, n_imaginary,
                                          T, seed):
    assume(n_interior + n_imaginary > 0)  # a single u is a one-row grid
    rng = np.random.default_rng(seed)
    params = random_admissible(rng, d, alpha_class="zero" if zero_alpha else "invertible",
                               with_gamma=True, general_drift=general)
    us = [random_interior_u(rng, d) for _ in range(n_interior)]
    us += [1j * random_sym(rng, d, 0.5) for _ in range(n_imaginary)]
    order = rng.permutation(len(us))  # interleave the direct and projected rows
    us = [us[i] for i in order]
    for grid_sol, u in zip(solve_grid(params, us, T), us):
        assert_same_solution(grid_sol, solve_grid(params, [u], T)[0])


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from([2, 3]), cs=st.lists(st.floats(0.2, 4.0), min_size=1, max_size=5),
       cs_boundary=st.lists(st.floats(0.2, 4.0), max_size=3), seed=st.integers(0, 2**32 - 1))
def test_grid_rows_that_stop_early_equal_one_row_solves(d, cs, cs_boundary, seed):
    # alpha = -I: psi(t, c P) = c P / (1 - 2 c t) for P = I (direct rows) and
    # P = diag(1, 0, ..) (projected rows) blows up at t = 1/(2c), so every
    # c > 1/2 stops at its own time while the other rows keep stepping; the
    # jumps of phi make the projected rows take the projection
    params = AffineParams(d=d, alpha=-np.eye(d), b=np.zeros((d, d)),
                          drift=LyapunovDrift(beta=np.zeros((d, d))),
                          m=AtomicMeasure(atoms=((0.5 * np.eye(d), 0.4),)))
    e1 = np.diag(np.eye(d)[0]) + 0j
    us = [c * np.eye(d) + 0j for c in cs] + [c * e1 for c in cs_boundary]
    order = np.random.default_rng(seed).permutation(len(us))  # interleave the routes
    cs = [(cs + cs_boundary)[i] for i in order]
    us = [us[i] for i in order]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAlphaWarning)
        grid = solve_grid(params, us, 1.0)
        rows = [solve_grid(params, [u], 1.0)[0] for u in us]
    for c, grid_sol, row_sol in zip(cs, grid, rows):
        assert_same_solution(grid_sol, row_sol)
        if c > 0.55:
            assert not grid_sol.completed
            assert grid_sol.diagnostics.t_plus == pytest.approx(0.5 / c, rel=1e-2)


@pytest.mark.parametrize("T", [0.0065620964067675544, 1e-320, 1e-15])
def test_horizon_reached_by_a_one_ulp_or_tiny_last_step_is_no_blowup(T):
    # at the first horizon the last step, clamped to the rest of the span,
    # lands 1 ulp short of T and the next is 1 ulp long; the others are
    # shorter than the controller's underflow guard from the first step.
    # Neither is an underflow: the rows finish at T, with the closed form
    x = np.array([[0.6070132019008737, -0.12171518476579167],
                  [-0.12171518476579167, 0.5917753961233577]])
    params = AffineParams(
        d=2, alpha=[[0.5980263769212052, 0.13096747462935912],
                    [0.13096747462935915, 0.5259421206765864]],
        b=[[1.5879482274998555, 0.34775986013945465],
           [0.34775986013945476, 1.3965418425113059]],
        drift=LyapunovDrift(beta=np.array([[-0.677245014239398, 0.09295258221471671],
                                           [0.09295258221471671, -0.43367198956442854]])))
    u = 1j * np.eye(2)
    sol = solve_grid(params, [u], T)[0]
    assert sol.completed and sol.diagnostics.t_plus == np.inf and sol.t_end == T
    spec = MBAJDSpec.from_params(params)
    phi, psi = sol.eval(T)
    assert abs(phi - mbajd_phi(spec, u, T)) <= 1e-12
    assert np.abs(psi - mbajd_psi(spec, u, T)).max() <= 1e-12
    assert transform(params, u, x, T) == pytest.approx(
        np.exp(-mbajd_phi(spec, u, T) - trace_inner(mbajd_psi(spec, u, T), x)), abs=1e-12)


def test_mixed_grid_is_one_integration(monkeypatch):
    from psdaffine import _dopri5
    calls = []
    original = _dopri5.integrate

    def counted(f, t0, y0, *args, **kwargs):
        calls.append(y0.shape[1])
        return original(f, t0, y0, *args, **kwargs)

    monkeypatch.setattr(_dopri5, "integrate", counted)
    params = jumpy_params()
    us = [np.eye(2) + 0j, 0.5j * np.eye(2), csym(np.diag([1.0, 0.0]), np.eye(2)),
          0.3 * np.eye(2) + 0.2j * np.eye(2)]
    solve_grid(params, us, 0.5)
    assert calls == [4]


TRACED_GRID = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import tracing
from psdaffine import AffineParams, AtomicMeasure, LyapunovDrift, solve_grid
tracer = tracing.Tracer()
tracing.install(tracer)
assert tracer.missing == [], tracer.missing
params = AffineParams(d=2, alpha=np.eye(2), b=2 * np.eye(2),
                      drift=LyapunovDrift(beta=-0.5 * np.eye(2)),
                      m=AtomicMeasure(atoms=((0.5 * np.eye(2), 0.4),)))
solve_grid(params, [np.eye(2) + 0j, 0.5j * np.eye(2)], 0.5)
calls = {name: st.count for name, st in tracer.stats.items()
         if name.startswith("dopri5.integrate.")}
assert calls == {"dopri5.integrate.d2": 1}, calls
"""


def test_perfbench_tracer_hooks_every_layer_and_sees_one_integration(tmp_path):
    # the benchmark tracer patches the package by name, so it runs in its own
    # interpreter; every hook target must exist and a mixed grid is one call
    import os
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", TRACED_GRID, str(root / "perfbench")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
