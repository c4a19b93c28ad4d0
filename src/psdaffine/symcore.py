"""Dense symmetric-matrix kernel: cone geometry and spectral helpers.

Real symmetric matrices are plain float ndarrays of shape (d, d); complex
symmetric matrices (elements of the tube S_d^+ + i*S_d) are complex128
ndarrays with ``x.T == x`` (symmetric, not Hermitian). All functions here are
pure and never mutate their inputs.
"""

from __future__ import annotations

import math
import warnings
from functools import reduce

import numpy as np

# eigenvalues above -PSD_SLACK * max(1, ||x||) count as nonnegative; Euler and
# Runge-Kutta steps routinely leave the cone at rounding level
PSD_SLACK = 1e-10


class DomainError(ValueError):
    """A mathematical precondition (cone membership, dimension, ...) failed."""


def check_square(x: np.ndarray, name: str = "x") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {x.shape}")
    return x


def check_sym(x: np.ndarray, name: str = "x", tol: float = 0.0) -> np.ndarray:
    """Validate that ``x`` is square and symmetric within ``tol`` (default exact)."""
    x = check_square(x, name)
    dev = np.abs(x - x.T).max() if x.size else 0.0
    if dev > tol:
        raise DomainError(f"{name} is not symmetric (max |x - x.T| = {dev:.3e})")
    return x


def canonical_sym(x, name: str) -> np.ndarray:
    """Validate symmetry up to rounding and store the exactly symmetric part."""
    x = np.asarray(x, dtype=float)
    check_sym(x, name, tol=1e-12 * max(1.0, float(np.abs(x).max()) if x.size else 0.0))
    x = symmetrize(x)
    x.setflags(write=False)
    return x


def sym(entries) -> np.ndarray:
    """Construct a real symmetric matrix, enforcing exact symmetry."""
    x = np.array(entries, dtype=float)
    return check_sym(x)


def csym(re, im=None) -> np.ndarray:
    """Construct a complex symmetric matrix from real and imaginary parts."""
    re = sym(re)
    if im is None:
        im = np.zeros_like(re)
    else:
        im = sym(im)
        if im.shape != re.shape:
            raise DomainError("real and imaginary parts differ in dimension")
    return re + 1j * im


def symmetrize(x: np.ndarray) -> np.ndarray:
    """(x + x^T)/2 of one matrix or a stack, halved first so that no finite
    input overflows (the bits differ only there and for subnormals)."""
    h = 0.5 * x
    return h + h.swapaxes(-1, -2)


# below this norm the sum of squares is subnormal and loses precision
_SUBNORMAL_NORM = math.sqrt(np.finfo(float).tiny)


def frobenius(x: np.ndarray) -> float:
    """Frobenius norm sqrt(tr(x xbar)). A sum of squares that overflows, or
    falls below the smallest normal float, is taken again of x scaled by 2^-e
    (exact) to bring the largest entry into [0.5, 1), or a subnormal one up
    by 2^1023."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(x))
        if (n == np.inf or n < _SUBNORMAL_NORM) and np.isfinite(x).all() and np.any(x):
            x = np.asarray(x)
            e = max(int(np.frexp(max(np.abs(x.real).max(), np.abs(x.imag).max()))[1]), -1023)
            n = float(np.ldexp(np.linalg.norm(x * np.ldexp(1.0, -e)), e))
    return n


def trace_inner(x: np.ndarray, y: np.ndarray):
    """Bilinear trace pairing tr(x y). No conjugation: conjugate explicitly if needed.

    Returns a float for real inputs, complex otherwise.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise DomainError(f"dimension mismatch: {x.shape} vs {y.shape}")
    out = np.einsum("ij,ji->", x, y)
    if np.iscomplexobj(x) or np.iscomplexobj(y):
        return complex(out)
    return float(out)


# ---------------------------------------------------------------------------
# Cone kernels: one matrix (d, d) or a stack (..., d, d), unchecked, one eigh
# per matrix; the checked sqrt_psd, psd_project and min_eig below take
# outside input. The cone step of the Monte Carlo kernel takes a projection
# and the next step's square root from the analytic _project2 and _sqrt2 on
# components at d = 2; at d = 3 from the closed-form _sqrt3 on component rows
# for the states it certifies (l3 >= CONE3_CERTIFY l1, which pass the
# projection unchanged) and from one eigh (cone_project_sqrt) for the rest;
# from one eigh at d >= 4.
# ---------------------------------------------------------------------------


def _rebuild(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q diag(w) q^T, symmetrized: the one spectral reconstruction."""
    return symmetrize((q * w[..., None, :]) @ q.swapaxes(-1, -2))


def _spectral(x: np.ndarray, root: bool) -> np.ndarray:
    """Symmetric x rebuilt from its eigenvalues clamped at 0, or from their square roots."""
    w, q = np.linalg.eigh(x)
    w = np.maximum(w, 0.0)
    return _rebuild(np.sqrt(w) if root else w, q)


def cone_sqrt(x: np.ndarray) -> np.ndarray:
    """Symmetric square root of symmetric x; negative eigenvalues count as 0."""
    return _spectral(x, root=True)


def cone_project(x: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix to symmetric x: clamp negative eigenvalues (Higham 1988)."""
    return _spectral(x, root=False)


def cone_project_sqrt(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cone_project(x) and its square root, both rebuilt from one eigh of x."""
    w, q = np.linalg.eigh(x)
    w = np.maximum(w, 0.0)
    return _rebuild(w, q), _rebuild(np.sqrt(w), q)


def eigenvalues(x: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric part of real x."""
    return np.linalg.eigvalsh(symmetrize(np.asarray(x, dtype=float)))


# the d = 2 kernels: analytic formulas on the components of [[a, b], [b, c]],
# each an array over the matrices of a batch


def _sqrt2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Components of the square root of PSD [[a, b], [b, c]]; a negative
    determinant counts as 0."""
    s = np.sqrt(np.maximum(a * c - b * b, 0.0))
    tt = a + c + 2.0 * s
    pos = tt > 0.0
    inv = np.where(pos, 1.0 / np.sqrt(np.where(pos, tt, 1.0)), 0.0)
    return (a + s) * inv, b * inv, (c + s) * inv


def _project2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Components of the projection of [[a, b], [b, c]] onto the cone: matrices
    in the cone pass through (as the same arrays when all do); others keep
    their top eigenpair, clamped at 0."""
    half_tr = 0.5 * (a + c)
    gap = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    bad = half_tr - gap < 0.0
    if not bad.any():
        return a, b, c
    ab, bb, cb, lam = a[bad], b[bad], c[bad], (half_tr + gap)[bad]
    # eigenvector of the top eigenvalue, using the better-conditioned row
    top = np.abs(lam - ab) >= np.abs(lam - cb)
    v0, v1 = np.where(top, bb, lam - cb), np.where(top, lam - ab, bb)
    nrm = np.sqrt(v0 * v0 + v1 * v1)
    degenerate = nrm < 1e-300  # the matrix is (numerically) a multiple of I
    nrm = np.where(degenerate, 1.0, nrm)
    v0, v1 = np.where(degenerate, 1.0, v0 / nrm), np.where(degenerate, 0.0, v1 / nrm)
    lam = np.maximum(lam, 0.0)
    a, b, c = a.copy(), b.copy(), c.copy()
    a[bad], b[bad], c[bad] = lam * v0 * v0, lam * v0 * v1, lam * v1 * v1
    return a, b, c


# the d = 3 kernel certifies a state when its smallest closed-form eigenvalue
# is at least this share of its largest: a condition number of at most 1e3,
# where the closed form's root is within about 2e-13 relative of the exact one
# (at 1e6 it is 3e-9, while eigh stays near 1e-12)
CONE3_CERTIFY = 1e-3
# entries (i, j), i <= j, of a 3 x 3 state: the diagonal, then (0, 1), (0, 2), (1, 2)
_UPPER3 = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _sqrt3(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square roots of the symmetric 3 x 3 states on component rows x
    (3, 3, n), and the mask of the certified states, whose closed-form
    eigenvalues are finite with l3 >= CONE3_CERTIFY * l1 > 0; the roots of
    the other states are not defined.

    Each state is first scaled by an exact even power of two that brings its
    largest entry into [1/4, 1), so no cube over- or underflows. The
    eigenvalues l1 >= l2 >= l3 come from the trigonometric closed form (Smith,
    CACM 4(4), 1961). With s_k = sqrt(l_k) and the sums i1, i2, i3 of their
    products, the root is U = ((i1^2 - i2) X - X^2 + i1 i3 I) / (i1 i2 - i3)
    (Franca, Comput. Math. Appl. 18(5), 1989), where i1^2 - i2 = tr X + i2 and
    i1 i2 - i3 = (s1 + s2)(s1 + s3)(s2 + s3) are sums of positive terms."""
    big = reduce(np.maximum, (np.abs(x[i, j]) for i, j in _UPPER3))
    e = np.maximum(np.frexp(big)[1], -1022)
    e += e & 1
    scale = np.ldexp(1.0, -e)
    a, b, c, d, f, g = (x[i, j] * scale for i, j in _UPPER3)
    # the states that are not certified may divide by 0 or take roots of negatives
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tr = a + b + c
        q = tr / 3.0
        aq, bq, cq = a - q, b - q, c - q
        dd, ff, gg = d * d, f * f, g * g
        p = np.sqrt((aq * aq + bq * bq + cq * cq + 2.0 * (dd + ff + gg)) / 6.0)
        det = aq * (bq * cq - gg) - d * (d * cq - g * f) + f * (d * g - bq * f)
        r = np.where(p > 0.0, det / (2.0 * p * p * p), 0.0)
        phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
        l1 = q + 2.0 * p * np.cos(phi)
        l3 = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
        certified = (l3 >= CONE3_CERTIFY * l1) & (l3 > 0.0) & (l1 < np.inf)
        s1, s2, s3 = np.sqrt(l1), np.sqrt(tr - l1 - l3), np.sqrt(l3)
        i2 = s1 * s2 + s1 * s3 + s2 * s3
        k1, k0 = tr + i2, (s1 + s2 + s3) * (s1 * s2 * s3)
        inv = np.ldexp(1.0, e // 2) / ((s1 + s2) * (s1 + s3) * (s2 + s3))
        u00 = (k1 * a - (a * a + dd + ff) + k0) * inv
        u11 = (k1 * b - (dd + b * b + gg) + k0) * inv
        u22 = (k1 * c - (ff + gg + c * c) + k0) * inv
        u01 = (k1 * d - (a * d + d * b + f * g)) * inv
        u02 = (k1 * f - (a * f + d * g + f * c)) * inv
        u12 = (k1 * g - (d * f + b * g + g * c)) * inv
    return np.array([[u00, u01, u02], [u01, u11, u12], [u02, u12, u22]]), certified


def _checked_sym(x) -> np.ndarray:
    """Symmetric part of outside input x, checked finite and symmetric up to rounding."""
    x = check_sym(np.asarray(x, dtype=float), tol=1e-12 * max(1.0, frobenius(x)))
    if not np.isfinite(x).all():
        raise DomainError("eigendecomposition failed: non-finite entries")
    return symmetrize(x)


def spectrum(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (ascending) and orthogonal eigenvectors q of a real
    symmetric matrix x = q diag(w) q^T."""
    return np.linalg.eigh(_checked_sym(x))


def min_eig(x: np.ndarray) -> float:
    """Smallest eigenvalue of a real symmetric matrix."""
    return float(eigenvalues(x)[0])


def is_psd(x: np.ndarray) -> bool:
    """Positive semidefinite up to slack: lambda_min >= -PSD_SLACK * max(1, ||x||)."""
    x = np.asarray(x, dtype=float)
    return min_eig(x) >= -PSD_SLACK * max(1.0, frobenius(x))


def check_psd(x: np.ndarray, message: str) -> np.ndarray:
    """Return ``x`` if it is PSD up to slack, else raise DomainError(message)."""
    if not is_psd(x):
        raise DomainError(message)
    return x


def psd_project(x: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix: clamp negative eigenvalues."""
    return cone_project(_checked_sym(x))


def sqrt_psd(x: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root. Raises DomainError on non-PSD input."""
    check_psd(x, "sqrt_psd requires a positive semidefinite input")
    return cone_sqrt(_checked_sym(x))


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a general square matrix, or of each matrix of a
    stack (..., d, d) (scaling and squaring, matrix by matrix, so a stacked
    call has the bits of the single ones)."""
    # imported here: only the closed form takes exponentials, and loading
    # scipy.linalg costs every other command about 0.3 s and 28 MB
    from scipy.linalg import expm

    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"a must be a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("mat_exp: non-finite entries")
    return expm(a)


def riccati_quadratic_real(x: np.ndarray, alpha: np.ndarray) -> float:
    """Re tr(conj(x) x alpha x) for complex symmetric x and real symmetric alpha.

    Nonnegative whenever Re(x) is PSD and alpha is a nonnegative multiple of
    the identity; may be strictly negative for other (degenerate) alpha, e.g.
    alpha = diag(1, 0) with x = [[1, i], [i, 4]] gives -1.
    """
    x = np.asarray(x, dtype=complex)
    alpha = check_sym(np.asarray(alpha, dtype=float), "alpha")
    if x.shape != alpha.shape:
        raise DomainError(f"dimension mismatch: {x.shape} vs {alpha.shape}")
    val = np.einsum("ij,jk,kl,li->", np.conj(x), x, alpha, x)
    return float(val.real)


def lemma_b_form(b: np.ndarray, a: np.ndarray) -> float:
    """Re tr(b conj(a).T a) for complex a (m x n) and complex symmetric b (n x n).

    Guaranteed nonnegative (up to rounding) when Re(b) is PSD. A non-PSD
    Re(b) is reported as a warning and the value is still returned so callers
    can inspect diagnostics.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    check_square(b, "b")
    if a.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DomainError(f"column count of a ({a.shape}) must match dimension of b ({b.shape})")
    if not is_psd(b.real):
        warnings.warn("lemma_b_form: Re(b) is not PSD; nonnegativity not guaranteed",
                      stacklevel=2)
    val = np.einsum("ij,jk,ki->", b, np.conj(a).T, a)
    return float(val.real)


def basis_elem(d: int, i: int, j: int) -> np.ndarray:
    """Canonical symmetric basis matrix: unit diagonal element for i == j,
    ones in positions (i, j) and (j, i) otherwise."""
    e = np.zeros((d, d))
    e[i, j] = 1.0
    e[j, i] = 1.0
    return e


def boundary_pairs(d: int, n_random: int = 0, rng=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Complementary boundary pairs (x, u), both PSD with tr(x u) = 0.

    Canonical pairs: for each i < j both orderings of
    (e+_{ij}, e-_{ij}) with e+- = c_ii +- c_ij + c_jj, and for each i the
    pair (c_ii, I - c_ii). Random pairs are built from complementary column
    spans of a random orthogonal matrix with positive weights, normalized to
    unit Frobenius norm; they cover boundary ranks the canonical list misses
    for d >= 3.
    """
    if d < 2:
        raise DomainError("boundary pairs require d >= 2")
    pairs = []
    eye = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            e_plus = basis_elem(d, i, i) + basis_elem(d, i, j) + basis_elem(d, j, j)
            e_minus = basis_elem(d, i, i) - basis_elem(d, i, j) + basis_elem(d, j, j)
            pairs.append((e_plus, e_minus))
            pairs.append((e_minus, e_plus))
    for i in range(d):
        c_ii = basis_elem(d, i, i)
        pairs.append((c_ii, eye - c_ii))
    if n_random > 0:
        rng = np.random.default_rng(rng)
        for _ in range(n_random):
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            q = q * np.sign(np.diag(r))  # fix QR sign convention
            k = int(rng.integers(1, d))
            w1 = rng.uniform(0.5, 1.5, size=k)
            w2 = rng.uniform(0.5, 1.5, size=d - k)
            x = _rebuild(w1, q[:, :k])
            u = _rebuild(w2, q[:, k:])
            pairs.append((x / frobenius(x), u / frobenius(u)))
    return pairs
