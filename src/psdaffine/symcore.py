"""Dense symmetric-matrix kernel: cone geometry, spectral helpers and the
one rule for outside input.

Real symmetric matrices are plain float ndarrays of shape (d, d); complex
symmetric matrices (elements of the tube S_d^+ + i*S_d) are complex128
ndarrays with ``x.T == x`` (symmetric, not Hermitian). All functions here are
pure and never mutate their inputs. Outside matrices must be finite and
symmetric up to rounding (SYM_RTOL): :func:`canonical_sym` stores a parameter's
exactly symmetric part, and :func:`check_u` and :func:`check_x` decide for
every route whether u is in the tube and x in the cone, returning the input
itself.
"""

from __future__ import annotations

import math
import warnings
from functools import cache, reduce

import numpy as np

# eigenvalues above -PSD_SLACK * max(1, ||x||) count as nonnegative; Euler and
# Runge-Kutta steps routinely leave the cone at rounding level
PSD_SLACK = 1e-10
# outside input is symmetric up to rounding: |x - x^T| <= SYM_RTOL * max(1, max |x_ij|)
SYM_RTOL = 1e-12


class DomainError(ValueError):
    """A mathematical precondition (cone membership, dimension, ...) failed."""


def check_square(x: np.ndarray, name: str = "x", d: int | None = None) -> np.ndarray:
    """Validate that ``x`` is a square matrix, d x d if d is given, with finite entries."""
    x = np.asarray(x)
    if d is not None and x.shape != (d, d):
        raise DomainError(f"dimension does not match the parameter set: {name} must be "
                          f"d x d with d = {d}, got shape {x.shape}")
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError(f"{name} has non-finite entries")
    return x


def _require_symmetric(x: np.ndarray, name: str, rtol: float) -> None:
    """Raise DomainError unless the finite square x is symmetric within
    ``rtol`` times max(1, max |x_ij|)."""
    dev = np.abs(x - x.T).max() if x.size else 0.0
    # the largest entry matters only once the deviation exceeds rtol
    if dev > rtol and dev > rtol * float(np.abs(x).max()):
        raise DomainError(f"{name} is not symmetric (max |x - x.T| = {dev:.3e})")


def check_sym(x: np.ndarray, name: str = "x", rtol: float = 0.0) -> np.ndarray:
    """Validate that ``x`` is square, finite and symmetric within ``rtol``
    times max(1, max |x_ij|) (default exact)."""
    x = check_square(x, name)
    _require_symmetric(x, name, rtol)
    return x


def canonical_sym(x, name: str) -> np.ndarray:
    """Validate finiteness and symmetry up to rounding; store the exactly symmetric part."""
    x = symmetrize(check_sym(np.asarray(x, dtype=float), name, SYM_RTOL))
    x.setflags(write=False)
    return x


def check_u(u, d: int) -> np.ndarray:
    """u as a complex array, once it is in the tube S_d^+ + i S_d: d x d,
    finite, Re u and Im u symmetric up to rounding, Re u PSD. Each property
    is tested once. Raises DomainError otherwise."""
    u = check_square(np.asarray(u, dtype=complex), "u", d)
    _require_symmetric(u.real, "Re(u)", SYM_RTOL)
    _require_symmetric(u.imag, "Im(u)", SYM_RTOL)
    check_psd(u.real, "the transform requires Re(u) PSD")
    return u


def check_x(x, d: int) -> np.ndarray:
    """The initial state x as a float array, once it is in the cone: d x d,
    finite, symmetric up to rounding, PSD. Raises DomainError otherwise."""
    x = check_square(np.asarray(x, dtype=float), "the initial state", d)
    _require_symmetric(x, "the initial state", SYM_RTOL)
    return check_psd(x, "the initial state is not PSD")


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
# components at d = 2; at d = 3 from the closed-form _cone3 on component rows,
# with no eigh: the states it certifies (l3 >= CONE3_CERTIFY l1) pass the
# projection unchanged with Franca's root, and those with l2 >= CONE3_CERTIFY
# l1 > l3 (one negative eigenvalue, or inside the cone but worse conditioned)
# are split off their smallest eigenpair; one eigh (cone_project_sqrt) takes
# the few it leaves (0.014% of mc-general-d3's path-steps) and every state at
# d >= 4.
# ---------------------------------------------------------------------------


def _rebuild(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q diag(w) q^T, symmetrized: the one spectral reconstruction."""
    return symmetrize((q * w[..., None, :]) @ q.swapaxes(-1, -2))


def cone_project_sqrt(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest (Frobenius) PSD matrix to symmetric x, with negative
    eigenvalues clamped at 0 (Higham 1988), and its square root, both
    rebuilt from one eigh of x: the one eigh cone kernel."""
    w, q = np.linalg.eigh(x)
    w = np.maximum(w, 0.0)
    return _rebuild(w, q), _rebuild(np.sqrt(w), q)


def cone_sqrt(x: np.ndarray) -> np.ndarray:
    """Symmetric square root of symmetric x; negative eigenvalues count as 0."""
    return cone_project_sqrt(x)[1]


def eigenvalues(x: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric part of real x."""
    return np.linalg.eigvalsh(symmetrize(np.asarray(x, dtype=float)))


_eye = cache(np.eye)  # read-only use: x + shift * _eye(d) makes a new array


def cone_certified(x: np.ndarray, shift) -> bool:
    """Whether one stacked Cholesky factorization of x + shift I succeeds,
    for finite symmetric x (n, d, d) and a shift per matrix, or one for all.
    When it does, each lambda_min(x) > -shift - (d + 1) d eps (||x|| + |shift|)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed. 2002,
    Thm. 10.3), so a shift a few 1e-12 ||x|| or more inside an eigenvalue
    rule decides that rule for the whole stack. False, also for a non-finite
    shift, leaves every matrix undecided."""
    shift = np.asarray(shift, dtype=float)
    if not np.isfinite(shift).all():
        return False
    try:
        np.linalg.cholesky(x + shift[..., None, None] * _eye(x.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


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
# _cone3 splits a state when the trace of the adjugate of X - l3 I,
# (l1 - l3)(l2 - l3), is at least this share of (l1 - l3)^2 (at 3e-4 the
# root is off by up to 1.4e-12 relative)
CONE3_GAP = 1e-3
# entries (i, j), i <= j, of a 3 x 3 state: the diagonal, then (0, 1), (0, 2), (1, 2)
_UPPER3 = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_FULL3 = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])  # _UPPER3 index of entry (i, j)
_ROW3, _COL3 = np.array(_UPPER3).T
_OFF_TWICE = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])  # tr(X Y) = _OFF_TWICE @ (x * y) on _UPPER3
# Cephes' rational asin on [0, 1/2] (Moshier, Methods and Programs for
# Mathematical Functions, 1989): asin t = t + t z P(z) / Q(z), z = t^2
_ASIN_P = (4.253011369004428248960e-3, -6.019598008014123785661e-1, 5.444622390564711410273e0,
           -1.626247967210700244449e1, 1.956261983317594739197e1, -8.198089802484824371615e0)
_ASIN_Q = (1.0, -1.474091372988853791896e1, 7.049610280856842141659e1,
           -1.471791292232726029859e2, 1.395105614657485689735e2, -4.918853881490881290097e1)
_PIO2_LO = 6.123233995736765886130e-17  # pi / 2 - float(pi / 2)


def _acos(x: np.ndarray) -> np.ndarray:
    """arccos of x in [-1, 1] from + - * / and sqrt, which round the same
    whatever SIMD kernels NumPy dispatches: acos x = pi/2 - asin x for
    |x| <= 1/2, acos |x| = 2 asin sqrt((1 - |x|) / 2) beyond."""
    a = np.abs(x)
    big = a > 0.5
    t = np.where(big, np.sqrt(0.5 * (1.0 - a)), a)
    z = t * t
    p, q = (reduce(lambda acc, k: acc * z + k, coef) for coef in (_ASIN_P, _ASIN_Q))
    s = t + t * (z * p / q)
    return np.where(big, np.where(x > 0.0, 2.0 * s, math.pi - 2.0 * s),
                    (0.5 * math.pi - np.copysign(s, x)) + _PIO2_LO)


def _spectrum3(x: np.ndarray):
    """The components (a, b, c, d, f, g) of the symmetric 3 x 3 states on
    component rows x (3, 3, n), as rows (6, n) of a new array, each state
    scaled by an exact even power of two 2^-e that brings its largest entry
    into [1/4, 1), so no cube over- or underflows; e; the eigenvalues
    l1 >= l2 >= l3 of the scaled states by the trigonometric closed form
    (Smith, CACM 4(4), 1961); and the mask of the certified states, whose
    eigenvalues are finite with l3 >= CONE3_CERTIFY * l1 > 0."""
    s = x[_ROW3, _COL3]
    e = np.maximum(np.frexp(np.abs(s).max(axis=0))[1], -1022)
    e += e & 1
    s *= np.ldexp(1.0, -e)
    a, b, c, d, f, g = s
    tr = a + b + c
    q = tr / 3.0
    aq, bq, cq = a - q, b - q, c - q
    p = np.sqrt((aq * aq + bq * bq + cq * cq + 2.0 * (d * d + f * f + g * g)) / 6.0)
    det = aq * (bq * cq - g * g) - d * (d * cq - g * f) + f * (d * g - bq * f)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0.0, det / (2.0 * p * p * p), 0.0)
    phi = _acos(np.clip(r, -1.0, 1.0)) / 3.0
    l1 = q + 2.0 * p * np.cos(phi)
    l3 = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    certified = (l3 >= CONE3_CERTIFY * l1) & (l3 > 0.0) & (l1 < np.inf)
    return s, e, (l1, tr - l1 - l3, l3), certified


def _franca3(s, s1, s2, s3, up) -> np.ndarray:
    """Component rows (3, 3, n) of up times the root U = ((i1^2 - i2) X - X^2
    + i1 i3 I) / (i1 i2 - i3) of the states X with components s, from the
    sums i1, i2, i3 of products of the roots s1, s2, s3 of their
    eigenvalues (Franca, Comput. Math. Appl. 18(5), 1989); i1^2 - i2 =
    tr X + i2 and i1 i2 - i3 = (s1 + s2)(s1 + s3)(s2 + s3) are sums of
    positive terms."""
    a, b, c, d, f, g = s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        i2 = s1 * s2 + s1 * s3 + s2 * s3
        k1, k0 = (a + b + c) + i2, (s1 + s2 + s3) * (s1 * s2 * s3)
        inv = up / ((s1 + s2) * (s1 + s3) * (s2 + s3))
        dd, ff, gg = d * d, f * f, g * g
        u00 = (k1 * a - (a * a + dd + ff) + k0) * inv
        u11 = (k1 * b - (dd + b * b + gg) + k0) * inv
        u22 = (k1 * c - (ff + gg + c * c) + k0) * inv
        u01 = (k1 * d - (a * d + d * b + f * g)) * inv
        u02 = (k1 * f - (a * f + d * g + f * c)) * inv
        u12 = (k1 * g - (d * f + b * g + g * c)) * inv
    return np.array([[u00, u01, u02], [u01, u11, u12], [u02, u12, u22]])


def _cone3(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The projection onto the cone of the 3 x 3 states on component rows x
    (3, 3, n), their roots, and the indices of the states left undefined.

    Certified states pass unchanged (as the same array x when all do). The
    others with l2 >= CONE3_CERTIFY l1 > 0 are split, on their gathered
    lanes, as X = P + l3 v3 v3^T: the adjugate of X - l3 I, whose columns
    are cross products of its rows, is (l1 - l3)(l2 - l3) v3 v3^T (Kopp,
    Int. J. Mod. Phys. C 19, 2008), and l3 is taken again as the Rayleigh
    quotient of v3, which the trigonometric form loses when l2 and l3 are
    small. The projection is P where l3 < 0, X otherwise; the root is
    Franca's of P (s3 = 0) plus sqrt(l3) v3 v3^T where l3 >= 0. Left over:
    two non-positive eigenvalues, l2 < CONE3_CERTIFY l1, an adjugate trace
    below CONE3_GAP (l1 - l3)^2, a non-finite spectrum."""
    s, e, (l1, l2, l3), certified = _spectrum3(x)
    with np.errstate(invalid="ignore"):
        s1, s2, s3 = np.sqrt(l1), np.sqrt(l2), np.sqrt(l3)
    up = np.ldexp(1.0, e // 2)
    rest = np.flatnonzero(~certified)
    if not len(rest):
        return x, _franca3(s, s1, s2, s3, up), rest
    lanes = rest[(l2[rest] >= CONE3_CERTIFY * l1[rest]) & (l2[rest] > 0.0) & (l1[rest] < np.inf)]
    comps, w3 = s[:, lanes], l3[lanes]
    a, b, c, d, f, g = comps
    aa, bb, cc = a - w3, b - w3, c - w3
    adj = np.array([bb * cc - g * g, aa * cc - f * f, aa * bb - d * d,
                    f * g - d * cc, d * g - f * bb, d * f - aa * g])
    ok = adj[0] + adj[1] + adj[2] >= CONE3_GAP * (l1[lanes] - w3) ** 2
    lanes, comps, adj, w3 = lanes[ok], comps[:, ok], adj[:, ok], w3[ok]
    col = adj[_FULL3[:, np.argmax(adj[:3], axis=0)], np.arange(len(lanes))]
    v = col / np.sqrt((col * col).sum(axis=0))
    vv = v[_ROW3] * v[_COL3]
    rq = _OFF_TWICE @ (comps * vv)
    split = comps - rq * vv
    s[:, lanes] = split
    s2[lanes], s3[lanes] = np.sqrt(l2[lanes] + (w3 - rq)), 0.0
    proj = x.copy()
    neg = rq < 0.0
    proj[..., lanes[neg]] = (split[:, neg] * np.ldexp(1.0, e[lanes[neg]]))[_FULL3]
    root = _franca3(s, s1, s2, s3, up)
    inside = lanes[~neg]
    root[..., inside] += (np.sqrt(rq[~neg]) * up[inside] * vv[:, ~neg])[_FULL3]
    left = ~certified
    left[lanes] = False
    return proj, root, np.flatnonzero(left)


def spectrum(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (ascending) and orthogonal eigenvectors q of a real
    symmetric matrix x = q diag(w) q^T."""
    return np.linalg.eigh(canonical_sym(x, "x"))


def min_eig(x: np.ndarray) -> float:
    """Smallest eigenvalue of a real symmetric matrix."""
    return float(eigenvalues(x)[0])


def is_psd(x: np.ndarray) -> bool:
    """Finite and positive semidefinite up to slack: lambda_min >= -PSD_SLACK
    * max(1, ||x||), the norm taken only when lambda_min < 0."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        return False
    lam = min_eig(x)
    return lam >= 0.0 or lam >= -PSD_SLACK * max(1.0, frobenius(x))


def check_psd(x: np.ndarray, message: str) -> np.ndarray:
    """Return ``x`` if it is PSD up to slack, else raise DomainError(message)."""
    if not is_psd(x):
        raise DomainError(message)
    return x


def psd_project(x: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix: clamp negative eigenvalues."""
    return cone_project_sqrt(canonical_sym(x, "x"))[0]


def sqrt_psd(x: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root. Raises DomainError on non-PSD input."""
    check_psd(x, "sqrt_psd requires a positive semidefinite input")
    return cone_sqrt(canonical_sym(x, "x"))


# Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005):
# the [m/m] approximant r_m(A) = q_m(-A)^-1 q_m(A), q_m(x) = sum_j b_j x^j,
# has backward error below the unit roundoff while ||A||_1 <= theta_m
# (Table 2.3); beyond theta_13, A / 2^s is taken at degree 13 and squared s times.
_PADE_DEGREES = (3, 5, 7, 9, 13)
_PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068e0, 5.371920351148152e0)
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def _pade_exp(a: np.ndarray, m: int, s: int) -> np.ndarray:
    """r_m(a / 2^s) squared s times, of one matrix or a stack."""
    b = _PADE_B[m]
    if s:
        a = a * 2.0 ** -s
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]  # a^0, a^2, ..., a^(m-1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
        v = sum(b[2 * j] * p for j, p in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def mat_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real square matrix, or of each matrix of a
    stack (..., d, d), by Pade scaling and squaring. Each matrix gets the
    lowest degree its 1-norm allows, or degree 13 and s squarings; a stack is
    taken in groups of equal (degree, s), so a stacked call has the bits of
    the single ones. Raises DomainError on complex, non-square or
    non-finite input, or a 1-norm that overflows."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise DomainError("mat_exp takes real matrices, got complex input")
    a = a.astype(float, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DomainError(f"a must be a square matrix or a stack of them, got shape {a.shape}")
    # the 1-norm, the largest column sum, is non-finite for non-finite entries too
    with np.errstate(over="ignore"):
        norms = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norms).all():
        raise DomainError("mat_exp: non-finite entries" if not np.isfinite(a).all()
                          else "mat_exp: the 1-norm overflows")
    # one key per matrix: the degree's index below theta_13, else 4 + s, where
    # s = ceil(log2(norm / theta_13)) comes exactly from frexp's mant * 2^e
    mant, e = np.frexp(norms / _PADE_THETA[-1])
    degree = np.searchsorted(_PADE_THETA, norms)  # beyond theta_13 reads as 5
    key = np.where(degree >= 4, 4 + np.maximum(e - (mant == 0.5), 0), degree).ravel()
    flat = a.reshape(-1, *a.shape[-2:])
    out = np.empty_like(flat)
    for k in np.unique(key):
        idx = np.flatnonzero(key == k)
        out[idx] = _pade_exp(flat[idx], *((_PADE_DEGREES[k], 0) if k < 4 else (13, int(k) - 4)))
    return out.reshape(a.shape)


def riccati_quadratic_real(x: np.ndarray, alpha: np.ndarray) -> float:
    """Re tr(conj(x) x alpha x) for complex symmetric x and real symmetric alpha.

    Nonnegative whenever Re(x) is PSD and alpha is a nonnegative multiple of
    the identity; may be strictly negative for other (degenerate) alpha, e.g.
    alpha = diag(1, 0) with x = [[1, i], [i, 4]] gives -1.
    """
    x = np.asarray(x, dtype=complex)
    alpha = canonical_sym(alpha, "alpha")
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
