import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import minimize

from psdaffine import (
    DomainError,
    boundary_pairs,
    frobenius,
    is_psd,
    lemma_b_form,
    mat_exp,
    psd_project,
    riccati_quadratic_real,
    spectrum,
    sqrt_psd,
    sym,
    trace_inner,
)
from psdaffine.symcore import (
    _rebuild,
    _spectral,
    cone_project,
    cone_sqrt,
    eigenvalues,
    mat_mul,
    symmetrize,
)
from conftest import random_psd, random_sym


# ---------------------------------------------------------------------------
# trace pairing
# ---------------------------------------------------------------------------


def test_trace_inner_identity():
    assert trace_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)


def test_trace_inner_orthogonal_boundary_pair():
    assert trace_inner(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0


def test_trace_inner_elementwise_sum_oracle():
    x = sym([[1.0, 2.0], [2.0, 3.0]])
    y = sym([[0.0, 1.0], [1.0, 1.0]])
    # for symmetric arguments tr(x y) = sum_ij x_ij y_ij
    assert trace_inner(x, y) == pytest.approx(7.0)
    assert trace_inner(x, y) == pytest.approx(float((x * y).sum()))


def test_trace_inner_bilinear_and_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y, z = (random_sym(rng, 3) for _ in range(3))
        a, b = rng.standard_normal(2)
        lhs = trace_inner(a * x + b * y, z)
        assert lhs == pytest.approx(a * trace_inner(x, z) + b * trace_inner(y, z), abs=1e-12)
        assert trace_inner(x, y) == pytest.approx(trace_inner(y, x), abs=1e-13)


def test_trace_inner_dimension_mismatch():
    with pytest.raises(DomainError):
        trace_inner(np.eye(2), np.eye(3))


def test_sym_rejects_asymmetry():
    with pytest.raises(DomainError):
        sym([[1.0, 2.0], [2.0001, 3.0]])


# ---------------------------------------------------------------------------
# cone projection
# ---------------------------------------------------------------------------


def test_psd_project_clamps_negative_eigenvalue():
    np.testing.assert_allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]),
                               atol=1e-14)


def test_psd_project_identity_on_cone_and_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(30):
        x = random_psd(rng, 3)
        np.testing.assert_allclose(psd_project(x), x, atol=1e-12)
        y = psd_project(random_sym(rng, 4))
        np.testing.assert_allclose(psd_project(y), y, atol=1e-12)


def _nearest_psd_factored_descent(x):
    """Independent argmin oracle: minimize ||x - L L^T||_F^2 over an
    unconstrained factor L (no spectral operations involved)."""
    d = x.shape[0]

    def objective(flat):
        ll = flat.reshape(d, d)
        y = ll @ ll.T
        r = x - y
        return float((r * r).sum()), (-4.0 * r @ ll).ravel()

    best = None
    for seed in range(3):
        l0 = np.eye(d).ravel() + 0.1 * np.random.default_rng(seed).standard_normal(d * d)
        res = minimize(objective, l0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 5000, "ftol": 1e-18, "gtol": 1e-14})
        if best is None or res.fun < best.fun:
            best = res
    ll = best.x.reshape(d, d)
    return ll @ ll.T


def test_psd_project_matches_factored_descent_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = random_sym(rng, 3)
        oracle = _nearest_psd_factored_descent(x)
        assert frobenius(psd_project(x) - oracle) < 1e-8


def test_psd_project_nonfinite_rejected():
    with pytest.raises(DomainError):
        psd_project(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# sqrt / expm
# ---------------------------------------------------------------------------


def test_sqrt_psd_diagonal():
    np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                               atol=1e-13)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = random_psd(rng, 4)
        r = sqrt_psd(x)
        assert is_psd(r)
        assert frobenius(r @ r - x) <= 1e-10 * (1 + frobenius(x))


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(DomainError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_mat_exp_zero_and_nilpotent():
    np.testing.assert_allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    # nilpotent: the series terminates, expm is exactly I + n
    np.testing.assert_allclose(mat_exp(n), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


def _expm_taylor_squaring(a, terms=25):
    """Oracle: scale until ||a/2^k|| < 0.25, Taylor-sum, square back."""
    k = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a), 1e-30) / 0.25))))
    small = a / 2**k
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, terms):
        term = term @ small / j
        acc = acc + term
    for _ in range(k):
        acc = acc @ acc
    return acc


@pytest.mark.parametrize("scale", [0.5, 5.0, 50.0])
def test_mat_exp_matches_taylor_squaring_oracle(scale):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    a *= scale / np.linalg.norm(a)
    got = mat_exp(a)
    ref = _expm_taylor_squaring(a)
    assert frobenius(got - ref) <= 1e-12 * frobenius(ref)


# ---------------------------------------------------------------------------
# quadratic form and trace-form inequalities
# ---------------------------------------------------------------------------


def test_riccati_quadratic_counterexample_value():
    # degenerate alpha admits strictly negative values
    alpha = np.diag([1.0, 0.0])
    x = np.array([[1.0, 1j], [1j, 4.0]])
    assert is_psd(x.real)
    assert riccati_quadratic_real(x, alpha) == pytest.approx(-1.0, abs=1e-9)


def test_riccati_quadratic_real_psd_cube():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = random_psd(rng, 3)
        val = riccati_quadratic_real(x.astype(complex), np.eye(3))
        assert val == pytest.approx(np.trace(x @ x @ x).real, rel=1e-12)
        assert val >= -1e-12


def test_riccati_quadratic_scaled_identity_nonnegative_and_oracle():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = random_psd(rng, 3) + 1j * random_sym(rng, 3)
        alpha = 2.0 * np.eye(3)
        val = riccati_quadratic_real(x, alpha)
        # independent evaluation through plain matrix products
        oracle = np.trace(np.conj(x) @ (x @ (alpha @ x))).real
        assert val == pytest.approx(oracle, rel=1e-11, abs=1e-11)
        assert val >= -1e-12


def test_riccati_quadratic_dimension_mismatch():
    with pytest.raises(DomainError):
        riccati_quadratic_real(np.eye(2, dtype=complex), np.eye(3))


def test_lemma_b_form_trivial_values():
    assert lemma_b_form(np.eye(3, dtype=complex), np.eye(3)) == pytest.approx(3.0)
    assert lemma_b_form(np.eye(4, dtype=complex), np.zeros((2, 4))) == 0.0


def test_lemma_b_form_expansion_oracle_and_sign():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        b = random_psd(rng, n) + 1j * random_sym(rng, n)
        val = lemma_b_form(b, a)
        a1, a2 = a.real, a.imag
        b1, b2 = b.real, b.imag
        oracle = (np.trace(b1 @ a1.T @ a1) + np.trace(b1 @ a2.T @ a2)
                  + np.trace(b2 @ a2.T @ a1) - np.trace(b2 @ a1.T @ a2))
        assert val == pytest.approx(float(oracle), rel=1e-11, abs=1e-11)
        assert val >= -1e-12


def test_lemma_b_form_non_psd_warns_but_returns():
    b = np.diag([1.0, -1.0]).astype(complex)
    with pytest.warns(UserWarning, match="not PSD"):
        val = lemma_b_form(b, np.eye(2))
    assert val == pytest.approx(0.0)


def test_norm_bounded_by_trace_on_cone():
    rng = np.random.default_rng(8)
    for _ in range(500):
        d = int(rng.integers(2, 7))
        xi = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        assert frobenius(xi) <= np.trace(xi) + 1e-12


# ---------------------------------------------------------------------------
# overflow-safe symmetrize and norm
# ---------------------------------------------------------------------------


def test_symmetrize_matches_half_sum_and_keeps_huge_entries():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        x = rng.standard_normal((4, d, d)) * 10.0 ** rng.uniform(-100, 100, (4, 1, 1))
        assert symmetrize(x).tobytes() == ((x + x.swapaxes(-1, -2)) / 2).tobytes()
        assert symmetrize(x[0]).tobytes() == ((x[0] + x[0].T) / 2).tobytes()
    big = np.full((2, 2), 1e308)
    np.testing.assert_array_equal(symmetrize(big), big)


def test_frobenius_overflow_and_underflow_safe():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius(1e200 * np.eye(2)) == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
        assert frobenius(1e200j * np.eye(3)) == pytest.approx(np.sqrt(3.0) * 1e200, rel=1e-15)
        assert frobenius(1e-300 * np.eye(2)) == pytest.approx(np.sqrt(2.0) * 1e-300,
                                                              rel=1e-15)
        assert frobenius(np.full((2, 2), 1e308)) == np.inf  # the norm itself overflows
        assert frobenius(np.zeros((2, 2))) == 0.0
        assert np.isnan(frobenius(np.diag([np.nan, 1e300])))
    # away from over- and underflow the plain norm keeps its bits
    x = np.random.default_rng(12).standard_normal((3, 3))
    assert frobenius(x) == float(np.linalg.norm(x))


def test_frobenius_exact_where_the_sum_of_squares_is_subnormal():
    # sum of squares 2e-320 is subnormal, not 0: the plain norm is off by 5.6e-6
    for x, expected in ((1e-160 * np.eye(2), np.sqrt(2.0) * 1e-160),
                        (3e-157j * np.eye(3), np.sqrt(3.0) * 3e-157),
                        (np.diag([1e-155, 0.0]), 1e-155)):
        assert abs(frobenius(x) - expected) <= 1e-15 * expected


# ---------------------------------------------------------------------------
# batched cone kernels (property tests)
# ---------------------------------------------------------------------------

_SHAPES = st.sampled_from([(1,), (3,), (2, 3)])
_ENTRY = st.floats(-10.0, 10.0, allow_subnormal=False)


@st.composite
def _sym_stacks(draw, dims=(2, 5)):
    """Exactly symmetric stacks (k, d, d) or (j, k, d, d) with entries in [-10, 10]."""
    d = draw(st.integers(*dims))
    a = draw(hnp.arrays(np.float64, draw(_SHAPES) + (d, d), elements=_ENTRY))
    return np.where(np.triu(np.ones((d, d), dtype=bool)), a, a.swapaxes(-1, -2))


@st.composite
def _psd_stacks(draw, dims=(2, 5), floor=0.0):
    """Stacks g g^T / d + floor I: PSD, with every eigenvalue at least floor."""
    d = draw(st.integers(*dims))
    g = draw(hnp.arrays(np.float64, draw(_SHAPES) + (d, d), elements=_ENTRY))
    return symmetrize(g @ g.swapaxes(-1, -2) / d + floor * np.eye(d))


@settings(max_examples=150, deadline=None)
@given(_sym_stacks(), st.booleans())
def test_stacked_spectral_kernel_equals_per_matrix(x, root):
    d = x.shape[-1]
    flat = x.reshape(-1, d, d)
    per = np.stack([_spectral(m, root) for m in flat])
    assert _spectral(x, root).tobytes() == per.tobytes()
    per_w = np.stack([eigenvalues(m) for m in flat])
    assert eigenvalues(x).tobytes() == per_w.tobytes()
    if d > 2:  # stacks of larger matrices take the spectral kernel itself
        assert cone_project(x).tobytes() == _spectral(x, False).tobytes()
        assert cone_sqrt(x).tobytes() == _spectral(x, True).tobytes()


@settings(max_examples=150, deadline=None)
@given(_sym_stacks(dims=(2, 2)), _psd_stacks(dims=(2, 2), floor=1e-3))
def test_2x2_fast_path_agrees_with_spectral_kernel(x, p):
    np.testing.assert_allclose(cone_project(x), _spectral(x, False), rtol=0, atol=1e-10)
    np.testing.assert_allclose(cone_sqrt(p), _spectral(p, True), rtol=0, atol=1e-10)
    y = x[::-1].copy()
    np.testing.assert_allclose(mat_mul(x, y), x @ y, rtol=0, atol=1e-10)
    # a single matrix always takes the spectral kernel
    one = p.reshape(-1, 2, 2)[0]
    assert cone_sqrt(one).tobytes() == _spectral(one, True).tobytes()


@settings(max_examples=150, deadline=None)
@given(_sym_stacks())
def test_projection_is_psd_and_idempotent(x):
    p = cone_project(x)
    scale = 1.0 + np.abs(x).max()
    assert (eigenvalues(p)[..., 0] >= -1e-12 * scale).all()
    np.testing.assert_allclose(cone_project(p), p, rtol=0, atol=1e-10 * scale)
    # the checked entry point gives the same matrices
    d = x.shape[-1]
    for m, pm in zip(x.reshape(-1, d, d), p.reshape(-1, d, d)):
        np.testing.assert_allclose(psd_project(m), pm, rtol=0, atol=1e-10 * scale)


@settings(max_examples=150, deadline=None)
@given(_psd_stacks())
def test_sqrt_squares_back(x):
    r = cone_sqrt(x)
    assert (r == r.swapaxes(-1, -2)).all()
    np.testing.assert_allclose(r @ r, x, rtol=0, atol=1e-10 * (1.0 + np.abs(x).max()))


# ---------------------------------------------------------------------------
# spectrum / boundary pairs
# ---------------------------------------------------------------------------


def test_spectrum_reconstruction_and_orthogonality():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = random_sym(rng, 5)
        w, q = spectrum(x)
        assert frobenius(_rebuild(w, q) - x) <= 1e-12 * max(1.0, frobenius(x))
        assert frobenius(q.T @ q - np.eye(5)) <= 1e-12
        assert np.all(np.diff(w) >= 0)


def test_boundary_pairs_canonical_d2():
    pairs = boundary_pairs(2)
    e_plus, e_minus = pairs[0]
    np.testing.assert_allclose(e_plus, np.array([[1.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(e_minus, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert trace_inner(e_plus, e_minus) == 0.0
    # the (c_ii, I - c_ii) pairs close the list
    x, u = pairs[-2]
    np.testing.assert_allclose(x, np.diag([1.0, 0.0]))
    np.testing.assert_allclose(u, np.diag([0.0, 1.0]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_boundary_pairs_complementarity(d):
    for x, u in boundary_pairs(d, n_random=20, rng=0):
        assert is_psd(x) and is_psd(u)
        assert abs(trace_inner(x, u)) <= 1e-12
        # tr(x u) = 0 on the cone forces the stronger matrix identity
        assert frobenius(x @ u) <= 1e-10
        assert frobenius(u @ x) <= 1e-10


def test_boundary_pairs_random_ranks_present():
    rng_pairs = boundary_pairs(4, n_random=40, rng=1)[2 * 6 + 4:]
    ranks = {int(np.linalg.matrix_rank(x, tol=1e-8)) for x, _ in rng_pairs}
    assert {1, 2, 3} <= ranks


def test_boundary_pairs_d1_rejected():
    with pytest.raises(DomainError):
        boundary_pairs(1)
