import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from psdaffine import (
    AffineParams,
    AlphaClass,
    AtomicMeasure,
    DomainError,
    GeneralDrift,
    LyapunovDrift,
    MatrixAtomicMeasure,
    TruncatedParams,
    boundary_pairs,
    detruncate,
    frobenius,
    growth_constant,
    inward_pointing_check,
    jump_transform_m,
    jump_transform_mu,
    trace_inner,
    validate,
)
from psdaffine.model import as_general, classify_alpha, sym_to_vec, truncation, vec_to_sym
from conftest import (
    random_admissible,
    random_interior_u,
    random_psd,
    random_sym,
)


def wishart_like(d=2, beta_scale=-1.0):
    return AffineParams(d=d, alpha=np.eye(d), b=np.eye(d),
                        drift=LyapunovDrift(beta=beta_scale * np.eye(d)))


# ---------------------------------------------------------------------------
# vectorization and drift maps
# ---------------------------------------------------------------------------


def test_vectorization_is_isometric():
    rng = np.random.default_rng(0)
    for d in (2, 3, 5):
        for _ in range(20):
            x, y = random_sym(rng, d), random_sym(rng, d)
            assert np.dot(sym_to_vec(x), sym_to_vec(y)) == pytest.approx(
                trace_inner(x, y), abs=1e-12)
            np.testing.assert_allclose(vec_to_sym(sym_to_vec(x), d), x, atol=1e-14)


@st.composite
def _sym_stack_pairs(draw):
    """Two complex symmetric stacks of one shape, (k, d, d) or (j, k, d, d)
    with d = 2..5, with signed zeros among the entries."""
    d = draw(st.integers(2, 5))
    shape = draw(st.sampled_from([(3,), (1,), (2, 3), (4, 1)])) + (d, d)
    upper = np.triu(np.ones((d, d), dtype=bool))

    def sym():
        a = draw(hnp.arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)))
        return np.where(upper, a, np.swapaxes(a, -1, -2))  # exactly symmetric

    x, y = sym().astype(complex), sym().astype(complex)
    x.imag, y.imag = sym(), sym()
    return d, x, y


@settings(max_examples=200, deadline=None)
@given(_sym_stack_pairs())
def test_stacked_vectorization_matches_per_matrix(case):
    d, x, y = case
    v = sym_to_vec(x)
    assert v.shape == x.shape[:-2] + (d * (d + 1) // 2,)
    per = np.stack([sym_to_vec(m) for m in x.reshape(-1, d, d)])
    assert v.tobytes() == per.tobytes()
    back = vec_to_sym(v, d)
    per_back = np.stack([vec_to_sym(w, d) for w in v.reshape(-1, v.shape[-1])])
    assert back.shape == x.shape and back.tobytes() == per_back.tobytes()
    # the diagonal comes back bit for bit, signed zeros included; the sqrt(2)
    # scaling of the off-diagonals round-trips to within one unit in the last place
    assert np.diagonal(back, 0, -2, -1).tobytes() == np.diagonal(x, 0, -2, -1).tobytes()
    assert back.tobytes() == np.swapaxes(back, -1, -2).tobytes()
    np.testing.assert_array_max_ulp(back.real, x.real, maxulp=1)
    np.testing.assert_array_max_ulp(back.imag, x.imag, maxulp=1)
    # isometry, matrix by matrix: v(x) . v(y) = tr(x y)
    lhs = np.einsum("...i,...i->...", v, sym_to_vec(y))
    rhs = np.einsum("...ij,...ji->...", x, y)
    scale = 1.0 + np.linalg.norm(x, axis=(-2, -1)) * np.linalg.norm(y, axis=(-2, -1))
    assert np.all(np.abs(lhs - rhs) <= 1e-13 * scale)


def test_drift_adjointness_identity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        if rng.random() < 0.5:
            drift = LyapunovDrift(beta=rng.standard_normal((d, d)))
        else:
            dd = d * (d + 1) // 2
            drift = GeneralDrift(matrix=rng.standard_normal((dd, dd)), d=d)
        x, u = random_sym(rng, d), random_sym(rng, d)
        gap = abs(trace_inner(drift.apply(x), u) - trace_inner(x, drift.adjoint(u)))
        assert gap <= 1e-12 * (1 + frobenius(x) * frobenius(u))


def test_drift_adjoint_complex_argument():
    rng = np.random.default_rng(2)
    beta = rng.standard_normal((3, 3))
    drift = LyapunovDrift(beta=beta)
    u = random_interior_u(rng, 3)
    np.testing.assert_allclose(drift.adjoint(u), beta.T @ u + u @ beta, atol=1e-14)
    gen = as_general(drift)
    np.testing.assert_allclose(gen.adjoint(u), drift.adjoint(u), atol=1e-12)


def test_lyapunov_general_round_trip():
    rng = np.random.default_rng(3)
    beta = rng.standard_normal((3, 3))
    lyap = LyapunovDrift(beta=beta)
    gen = as_general(lyap)
    for _ in range(10):
        x = random_sym(rng, 3)
        np.testing.assert_allclose(gen.apply(x), lyap.apply(x), atol=1e-12)


def test_zero_drift():
    drift = LyapunovDrift(beta=np.zeros((2, 2)))
    np.testing.assert_allclose(drift.apply(np.eye(2)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# inward pointing
# ---------------------------------------------------------------------------


def test_lyapunov_always_passes_inward_pointing():
    rng = np.random.default_rng(4)
    pairs = boundary_pairs(3, n_random=30, rng=5)
    for _ in range(10):
        drift = LyapunovDrift(beta=rng.standard_normal((3, 3)))
        ok, _, worst = inward_pointing_check(drift, pairs, tol=1e-9)
        assert ok
        assert abs(worst) <= 1e-10


def test_identity_map_passes_with_zero_values():
    dd = 3 * (3 + 1) // 2
    drift = GeneralDrift(matrix=np.eye(dd), d=3)
    ok, _, worst = inward_pointing_check(drift, boundary_pairs(3), tol=1e-9)
    assert ok and worst == pytest.approx(0.0, abs=1e-12)


def test_outward_drift_detected_on_canonical_pair():
    # B(x) = -<e_plus, x> e_minus pushes e_plus toward -e_minus:
    # tr(B(e_plus) e_minus) = -||e_plus||^2-ish < 0
    e_plus = np.array([[1.0, 1.0], [1.0, 1.0]])
    e_minus = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mat = -np.outer(sym_to_vec(e_minus), sym_to_vec(e_plus))
    drift = GeneralDrift(matrix=mat, d=2)
    pairs = boundary_pairs(2)
    ok, worst_pair, worst = inward_pointing_check(drift, pairs, tol=1e-9)
    assert not ok
    expected = -trace_inner(e_plus, e_plus) * trace_inner(e_minus, e_minus)
    assert worst == pytest.approx(expected)
    np.testing.assert_allclose(worst_pair[0], e_plus)


def test_inward_pointing_rejects_bad_pair():
    drift = LyapunovDrift(beta=np.zeros((2, 2)))
    with pytest.raises(DomainError):
        inward_pointing_check(drift, [(np.eye(2), np.eye(2))], tol=1e-9)


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------


def test_validate_equality_boundary_case_passes():
    report = validate(wishart_like())
    assert report.ok
    assert report.alpha_class is AlphaClass.INVERTIBLE
    assert not report.warnings


def test_validate_drift_dominance_failure():
    params = AffineParams(d=2, alpha=np.eye(2), b=0.5 * np.eye(2),
                          drift=LyapunovDrift(beta=-np.eye(2)))
    report = validate(params)
    assert not report.ok
    assert [c.name for c in report.failed()] == ["drift_dominance"]


def test_validate_reports_inward_pointing_violation():
    e_plus = np.array([[1.0, 1.0], [1.0, 1.0]])
    e_minus = np.array([[1.0, -1.0], [-1.0, 1.0]])
    mat = -np.outer(sym_to_vec(e_minus), sym_to_vec(e_plus))
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=GeneralDrift(matrix=mat, d=2))
    report = validate(params)
    failed = {c.name for c in report.failed()}
    assert "inward_pointing" in failed
    check = next(c for c in report.checks if c.name == "inward_pointing")
    assert "violating pair" in check.detail


def test_validate_flags_degenerate_alpha():
    params = AffineParams(d=2, alpha=np.diag([1.0, 0.0]), b=np.diag([1.0, 0.0]),
                          drift=LyapunovDrift(beta=-np.eye(2)))
    report = validate(params)
    assert report.ok  # valid, but flagged
    assert report.alpha_class is AlphaClass.DEGENERATE_NONZERO
    assert report.warnings


def test_alpha_classification():
    assert classify_alpha(np.zeros((3, 3))) is AlphaClass.ZERO
    assert classify_alpha(np.eye(3)) is AlphaClass.INVERTIBLE
    assert classify_alpha(np.diag([1.0, 0.0, 2.0])) is AlphaClass.DEGENERATE_NONZERO


def test_alpha_classification_of_huge_finite_alpha():
    # the norm in the tolerance overflowed to inf, which called every alpha zero
    assert classify_alpha(1e200 * np.eye(2)) is AlphaClass.INVERTIBLE
    assert classify_alpha(1e308 * np.diag([1.0, 0.0])) is AlphaClass.DEGENERATE_NONZERO


def test_structural_validation_errors():
    with pytest.raises(DomainError):
        AffineParams(d=1, alpha=np.eye(1), b=np.eye(1),
                     drift=LyapunovDrift(beta=np.eye(1)))
    with pytest.raises(DomainError):
        AtomicMeasure(atoms=((np.zeros((2, 2)), 1.0),))  # zero site
    with pytest.raises(DomainError):
        AtomicMeasure(atoms=((np.eye(2), -1.0),))  # negative weight
    with pytest.raises(DomainError):
        MatrixAtomicMeasure(atoms=((np.eye(2), np.diag([1.0, -1.0])),))


def _params_with_entry(field, value):
    """A valid parameter set with every kind of matrix and weight, but for
    the first entry of ``field``, which is set to ``value``."""
    def entry(name, base):
        base = np.array(base, dtype=float)
        if name == field:
            base.flat[0] = value
        return base
    drift = (GeneralDrift(matrix=entry("drift matrix", -np.eye(3)), d=2)
             if field == "drift matrix" else LyapunovDrift(beta=entry("beta", -np.eye(2))))
    return AffineParams(
        d=2, alpha=entry("alpha", np.eye(2)), b=entry("b", 2 * np.eye(2)), drift=drift,
        c=float(entry("c", 0.0)), gamma=entry("gamma", np.eye(2)),
        m=AtomicMeasure(atoms=((entry("m site", np.eye(2)), float(entry("m weight", 0.5))),)),
        mu=MatrixAtomicMeasure(atoms=((entry("mu site", np.eye(2)),
                                       entry("mu weight matrix", np.eye(2))),)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["alpha", "b", "gamma", "beta", "drift matrix", "c",
                                   "m site", "m weight", "mu site", "mu weight matrix"])
def test_parameter_sets_reject_non_finite_entries(field, bad):
    # a NaN alpha used to pass construction and validate(params).ok
    _params_with_entry(field, 1.0)
    with pytest.raises(DomainError):
        _params_with_entry(field, bad)


# ---------------------------------------------------------------------------
# truncation conversion
# ---------------------------------------------------------------------------


def test_truncation_function_shape():
    xi_small = 0.5 * np.eye(2)
    np.testing.assert_allclose(truncation(xi_small), xi_small)
    xi_big = np.diag([2.0, 0.0])
    np.testing.assert_allclose(truncation(xi_big), xi_big / 2.0)
    assert frobenius(truncation(xi_big)) == pytest.approx(1.0)


def test_detruncate_empty_mu_preserves_drift():
    tp = TruncatedParams(d=2, alpha=np.eye(2), b=np.eye(2),
                         drift_tilde=LyapunovDrift(beta=-np.eye(2)))
    params = detruncate(tp)
    assert isinstance(params.drift, LyapunovDrift)
    np.testing.assert_allclose(params.drift.beta, -np.eye(2))


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_detruncate_single_atom_on_basis(scale):
    # correction is <M, x> chi(xi): chi = xi inside the unit ball, xi/||xi|| outside
    rng = np.random.default_rng(5)
    xi = random_psd(rng, 2) + 0.1 * np.eye(2)
    xi *= scale / frobenius(xi)
    wm = random_psd(rng, 2)
    beta = rng.standard_normal((2, 2))
    tp = TruncatedParams(d=2, alpha=np.eye(2), b=np.eye(2),
                         drift_tilde=LyapunovDrift(beta=beta),
                         mu=MatrixAtomicMeasure(atoms=((xi, wm),)))
    params = detruncate(tp)
    chi = xi if scale <= 1.0 else xi / scale
    for i in range(2):
        for j in range(i, 2):
            e = np.zeros((2, 2))
            e[i, j] = e[j, i] = 1.0
            expected = beta @ e + e @ beta.T - trace_inner(wm, e) * chi
            np.testing.assert_allclose(params.drift.apply(e), expected, atol=1e-12)


def test_detruncate_re_truncate_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(10):
        params = random_admissible(rng, 3)
        if params.mu.is_empty:
            continue
        tp = TruncatedParams(d=3, alpha=params.alpha, b=params.b,
                             drift_tilde=params.drift, m=params.m, mu=params.mu)
        detr = detruncate(tp)
        # adding the correction back must recover the original drift
        recovered = as_general(detr.drift).as_matrix().copy()
        for xi, wm in params.mu.atoms:
            recovered += np.outer(sym_to_vec(truncation(xi)), sym_to_vec(wm))
        np.testing.assert_allclose(recovered, as_general(params.drift).as_matrix(),
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# jump transforms
# ---------------------------------------------------------------------------


def test_jump_transform_m_values():
    m = AtomicMeasure(atoms=((np.eye(2), 1.0),))
    assert jump_transform_m(m, np.zeros((2, 2), dtype=complex), 2) == 0.0
    val = jump_transform_m(m, np.eye(2, dtype=complex), 2)
    assert val == pytest.approx(np.exp(-2.0) - 1.0)
    assert jump_transform_m(AtomicMeasure(), np.eye(2, dtype=complex), 2) == 0.0


def test_jump_transform_mu_values():
    wm = np.diag([1.0, 0.0])
    mu = MatrixAtomicMeasure(atoms=((np.eye(2), wm),))
    np.testing.assert_allclose(jump_transform_mu(mu, np.zeros((2, 2), dtype=complex), 2),
                               np.zeros((2, 2)))
    np.testing.assert_allclose(jump_transform_mu(MatrixAtomicMeasure(), np.eye(2) + 0j, 2),
                               np.zeros((2, 2)))
    got = jump_transform_mu(mu, np.eye(2, dtype=complex), 2)
    np.testing.assert_allclose(got, (np.exp(-2.0) - 1.0) * wm, atol=1e-15)


def test_jump_transform_domain_error():
    m = AtomicMeasure(atoms=((np.eye(2), 1.0),))
    with pytest.raises(DomainError):
        jump_transform_m(m, -np.eye(2) + 0j, 2)


@pytest.mark.parametrize("measure", ["m", "mu"])
@pytest.mark.parametrize("empty", [False, True], ids=["atoms", "empty"])
def test_jump_transform_checks_the_size_of_u(measure, empty):
    # a measure has no d of its own: the caller's d decides, even with no atoms
    if measure == "m":
        call = jump_transform_m
        meas = AtomicMeasure() if empty else AtomicMeasure(atoms=((np.eye(2), 1.0),))
    else:
        call = jump_transform_mu
        meas = (MatrixAtomicMeasure() if empty
                else MatrixAtomicMeasure(atoms=((np.eye(2), np.eye(2)),)))
    with pytest.raises(DomainError, match=re.escape(
            "dimension does not match the parameter set: u must be d x d with d = 2, "
            "got shape (3, 3)")):
        call(meas, np.eye(3) + 0j, 2)


def test_jump_transform_bounded_integrand():
    rng = np.random.default_rng(7)
    m_atoms = tuple((random_psd(rng, 2) + 0.1 * np.eye(2), float(rng.uniform(0.1, 2)))
                    for _ in range(3))
    mu_atoms = tuple((random_psd(rng, 2) + 0.1 * np.eye(2), random_psd(rng, 2))
                     for _ in range(3))
    m = AtomicMeasure(atoms=m_atoms)
    mu = MatrixAtomicMeasure(atoms=mu_atoms)
    total_weight = sum(w for _, w in m_atoms)
    total_trace = sum(float(np.trace(wm)) for _, wm in mu_atoms)
    for _ in range(100):
        u = random_psd(rng, 2) * rng.uniform(0, 5) + 1j * random_sym(rng, 2, 3.0)
        assert abs(jump_transform_m(m, u, 2)) <= 2 * total_weight + 1e-12
        assert frobenius(jump_transform_mu(mu, u, 2)) <= 2 * total_trace + 1e-12


# ---------------------------------------------------------------------------
# growth constant
# ---------------------------------------------------------------------------


def test_growth_constant_trivial_zero():
    params = AffineParams(d=2, alpha=np.zeros((2, 2)), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))))
    assert growth_constant(params) == 0.0


def test_growth_constant_lyapunov_identity():
    params = AffineParams(d=2, alpha=np.zeros((2, 2)), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=np.eye(2)))
    # adjoint is u -> 2u, operator norm 2
    assert growth_constant(params) == pytest.approx(2.0, abs=1e-12)


def test_growth_constant_jump_sums():
    xi = np.diag([2.0, 0.0])          # norm 2: outside the unit ball
    wm = np.diag([2.0, 1.0])          # trace 3
    params = AffineParams(d=2, alpha=np.zeros((2, 2)), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))),
                          mu=MatrixAtomicMeasure(atoms=((xi, wm),)))
    # C1 = min(2,1)*3 = 3, C2 = 2*3 = 6, C = 0 + 3 + 6/2 = 6
    assert growth_constant(params) == pytest.approx(6.0, abs=1e-12)


def test_growth_constant_monotone_under_scaling():
    rng = np.random.default_rng(8)
    for _ in range(20):
        params = random_admissible(rng, 2, with_gamma=True)
        doubled = AffineParams(
            d=2, alpha=params.alpha, b=params.b, drift=params.drift, c=params.c,
            gamma=2.0 * params.gamma, m=params.m,
            mu=MatrixAtomicMeasure(atoms=tuple((xi, 2.0 * wm)
                                               for xi, wm in params.mu.atoms)))
        assert growth_constant(doubled) >= growth_constant(params) - 1e-12
