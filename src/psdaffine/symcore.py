"""Dense symmetric-matrix kernel: cone geometry and spectral helpers.

Real symmetric matrices are plain float ndarrays of shape (d, d); complex
symmetric matrices (elements of the tube S_d^+ + i*S_d) are complex128
ndarrays with ``x.T == x`` (symmetric, not Hermitian). All functions here are
pure and never mutate their inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm as _scipy_expm

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
    """(x + x.T)/2, for results that are symmetric up to rounding."""
    return (x + x.T) / 2


def frobenius(x: np.ndarray) -> float:
    """Frobenius norm; coincides with the trace-inner-product norm sqrt(tr(x xbar))."""
    return float(np.linalg.norm(x))


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


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition x = Q diag(w) Q^T with w ascending and Q orthogonal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        q = self.eigenvectors
        return symmetrize((q * self.eigenvalues) @ q.T)


def spectrum(x: np.ndarray) -> Spectrum:
    """Spectral decomposition of a real symmetric matrix."""
    x = check_sym(np.asarray(x, dtype=float), tol=1e-12 * max(1.0, frobenius(x)))
    if not np.isfinite(x).all():
        raise DomainError("eigendecomposition failed: non-finite entries")
    w, q = np.linalg.eigh(symmetrize(x))
    return Spectrum(eigenvalues=w, eigenvectors=q)


def min_eig(x: np.ndarray) -> float:
    """Smallest eigenvalue of a real symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetrize(np.asarray(x, dtype=float)))[0])


def is_psd(x: np.ndarray) -> bool:
    """Positive semidefinite up to slack: lambda_min >= -PSD_SLACK * max(1, ||x||)."""
    x = np.asarray(x, dtype=float)
    return min_eig(x) >= -PSD_SLACK * max(1.0, frobenius(x))


def psd_project(x: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix: clamp negative eigenvalues."""
    s = spectrum(x)
    w = np.maximum(s.eigenvalues, 0.0)
    q = s.eigenvectors
    return symmetrize((q * w) @ q.T)


def sqrt_psd(x: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root. Raises DomainError on non-PSD input."""
    if not is_psd(x):
        raise DomainError("sqrt_psd requires a positive semidefinite input")
    s = spectrum(x)
    w = np.sqrt(np.maximum(s.eigenvalues, 0.0))
    q = s.eigenvectors
    return symmetrize((q * w) @ q.T)


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a general square matrix (scaling and squaring)."""
    a = check_square(np.asarray(a, dtype=float), "a")
    if not np.isfinite(a).all():
        raise DomainError("mat_exp: non-finite entries")
    return _scipy_expm(a)


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
            x = symmetrize((q[:, :k] * w1) @ q[:, :k].T)
            u = symmetrize((q[:, k:] * w2) @ q[:, k:].T)
            pairs.append((x / frobenius(x), u / frobenius(u)))
    return pairs
