"""Parameter sets, jump measures, admissibility validation and detruncation.

The admissible parameter set is (alpha, b, B, c, gamma, m, mu): diffusion
coefficient alpha PSD, constant drift b with b - (d-1) alpha PSD, killing
rates c >= 0 and gamma PSD, a linear drift B that is inward pointing at the
boundary of the cone, and two finite atomic jump measures (m constant, mu
state-dependent with PSD matrix weights). Jump measures are restricted to
finitely many atoms, so every jump integral in this package is an exact sum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .symcore import (
    DomainError,
    boundary_pairs,
    canonical_sym,
    check_psd,
    check_square,
    eigenvalues,
    frobenius,
    is_psd,
    min_eig,
    trace_inner,
)

# ---------------------------------------------------------------------------
# Isometric vectorization of S_d
# ---------------------------------------------------------------------------

SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=None)
def _triu_indices(d: int):
    iu, ju = np.triu_indices(d)
    return iu, ju, iu != ju


def sym_dim(d: int) -> int:
    """Dimension D = d(d+1)/2 of the space of symmetric d x d matrices."""
    return d * (d + 1) // 2


def sym_to_vec(x: np.ndarray) -> np.ndarray:
    """Isometric vectorization of one matrix (d, d) or a stack (..., d, d):
    upper triangle with off-diagonals scaled by sqrt(2), so that
    v(x) . v(y) = tr(x y)."""
    x = np.asarray(x)
    iu, ju, off = _triu_indices(x.shape[-1])
    v = x[..., iu, ju]
    # .T puts the vector axis first at any depth (faster than [..., off]); the
    # diagonal is left alone, as 1.0 * z can flip the sign of a complex zero
    v.T[off] *= SQRT2
    return v


def vec_to_sym(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of sym_to_vec for one vector (D,) or a stack (..., D); output
    is exactly symmetric."""
    iu, ju, off = _triu_indices(d)
    vals = np.array(v)
    vals.T[off] /= SQRT2
    x = np.zeros(vals.shape[:-1] + (d, d), dtype=vals.dtype)
    x[..., iu, ju] = vals
    x[..., ju, iu] = vals
    return x


# ---------------------------------------------------------------------------
# Linear drifts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovDrift:
    """B(x) = beta x + x beta^T for a general real d x d matrix beta.

    Automatically inward pointing: tr((beta x + x beta^T) u) = 2 tr(beta x u)
    vanishes on exact complementary pairs since x u = 0.
    """

    beta: np.ndarray

    def __post_init__(self):
        beta = check_square(np.asarray(self.beta, dtype=float), "beta").copy()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    @property
    def d(self) -> int:
        return self.beta.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """B(x) for one matrix (d, d) or a stack (..., d, d)."""
        bx = np.einsum("ij,...jk->...ik", self.beta, x, optimize=True)
        return bx + np.swapaxes(bx, -1, -2)

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """B^T(u), the adjoint for the trace pairing, of one matrix (d, d) or a
        stack (..., d, d); u may be complex symmetric."""
        return self.beta.T @ u + u @ self.beta

    def as_matrix(self) -> np.ndarray:
        """Matrix of the map in the isometric vectorization basis."""
        return _drift_matrix(self)


@dataclass(frozen=True)
class GeneralDrift:
    """Arbitrary linear map on S_d given by its D x D matrix in the isometric
    vectorization basis (D = d(d+1)/2). Maps symmetric to symmetric by
    construction."""

    matrix: np.ndarray
    d: int

    def __post_init__(self):
        m = check_square(np.asarray(self.matrix, dtype=float), "matrix").copy()
        if m.shape[0] != sym_dim(self.d):
            raise DomainError(
                f"drift matrix must be {sym_dim(self.d)} x {sym_dim(self.d)} for d = {self.d}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """B(x) for one matrix (d, d) or a stack (..., d, d): one product
        with the matrix in the isometric basis."""
        return vec_to_sym(sym_to_vec(x) @ self.matrix.T, self.d)

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """B^T(u) for one matrix (d, d) or a stack (..., d, d): the transpose in
        an orthonormal basis is the trace-pairing adjoint. One matrix-vector
        product per matrix, so a stacked matrix has the bits it has alone."""
        return vec_to_sym((self.matrix.T @ sym_to_vec(u)[..., None])[..., 0], self.d)

    def as_matrix(self) -> np.ndarray:
        return self.matrix


LinearDrift = LyapunovDrift | GeneralDrift


def _drift_matrix(drift) -> np.ndarray:
    # column k is the image of the k-th isometric basis matrix
    dd = sym_dim(drift.d)
    return sym_to_vec(drift.apply(vec_to_sym(np.eye(dd), drift.d))).T


def as_general(drift: LinearDrift) -> GeneralDrift:
    """Re-express any drift as a GeneralDrift."""
    if isinstance(drift, GeneralDrift):
        return drift
    return GeneralDrift(matrix=_drift_matrix(drift), d=drift.d)


# ---------------------------------------------------------------------------
# Jump measures
# ---------------------------------------------------------------------------


def _validated_atom_site(xi, idx: int) -> np.ndarray:
    xi = canonical_sym(xi, f"atoms[{idx}].xi")
    if frobenius(xi) == 0.0:
        raise DomainError(f"atoms[{idx}].xi must be nonzero")
    return check_psd(xi, f"atoms[{idx}].xi must be PSD")


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic measure on the cone minus the origin: scalar weights."""

    atoms: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        validated = []
        for k, (xi, w) in enumerate(self.atoms):
            xi = _validated_atom_site(xi, k)
            w = float(w)
            if w <= 0.0:
                raise DomainError(f"atoms[{k}].weight must be > 0")
            validated.append((xi, w))
        object.__setattr__(self, "atoms", tuple(validated))

    @property
    def is_empty(self) -> bool:
        return len(self.atoms) == 0

    def total_weight(self) -> float:
        return sum(w for _, w in self.atoms)


@dataclass(frozen=True)
class MatrixAtomicMeasure:
    """Finite atomic measure with PSD matrix weights (linear jump coefficient)."""

    atoms: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        validated = []
        for k, (xi, wm) in enumerate(self.atoms):
            xi = _validated_atom_site(xi, k)
            wm = canonical_sym(wm, f"atoms[{k}].weightMatrix")
            if wm.shape != xi.shape:
                raise DomainError(f"atoms[{k}]: xi and weightMatrix dimensions differ")
            check_psd(wm, f"atoms[{k}].weightMatrix must be PSD")
            validated.append((xi, wm))
        object.__setattr__(self, "atoms", tuple(validated))

    @property
    def is_empty(self) -> bool:
        return len(self.atoms) == 0

    def total_trace(self) -> float:
        return sum(float(np.trace(wm)) for _, wm in self.atoms)


def truncation(xi: np.ndarray) -> np.ndarray:
    """chi(xi) = xi * min(1, 1/||xi||): continuous, identity inside the unit
    ball, bounded by 1 in Frobenius norm."""
    n = frobenius(xi)
    return xi if n <= 1.0 else xi / n


# ---------------------------------------------------------------------------
# Parameter sets
# ---------------------------------------------------------------------------


class AlphaClass(enum.Enum):
    ZERO = "zero"
    INVERTIBLE = "invertible"
    DEGENERATE_NONZERO = "degenerate_nonzero"


def classify_alpha(alpha: np.ndarray) -> AlphaClass:
    tol = 1e-10 * max(1.0, frobenius(alpha))
    w = eigenvalues(alpha)
    if np.all(np.abs(w) <= tol):
        return AlphaClass.ZERO
    if np.all(w > tol):
        return AlphaClass.INVERTIBLE
    return AlphaClass.DEGENERATE_NONZERO


@dataclass(frozen=True)
class AffineParams:
    """Truncation-free parameter set (alpha, b, B, c, gamma, m, mu).

    Construction enforces structure (shapes, symmetry, atom validity); the
    value-level admissibility conditions are checked by :func:`validate`,
    which reports rather than raises, so inadmissible sets can still be
    built and probed.
    """

    d: int
    alpha: np.ndarray
    b: np.ndarray
    drift: LinearDrift
    c: float = 0.0
    gamma: np.ndarray | None = None
    m: AtomicMeasure = field(default_factory=AtomicMeasure)
    mu: MatrixAtomicMeasure = field(default_factory=MatrixAtomicMeasure)

    def __post_init__(self):
        d = int(self.d)
        if d < 2:
            raise DomainError("model parameters require d >= 2")
        object.__setattr__(self, "d", d)
        alpha = canonical_sym(self.alpha, "alpha")
        b = canonical_sym(self.b, "b")
        gamma = canonical_sym(self.gamma if self.gamma is not None else np.zeros((d, d)),
                              "gamma")
        for name, arr in (("alpha", alpha), ("b", b), ("gamma", gamma)):
            if arr.shape != (d, d):
                raise DomainError(f"{name} must be {d} x {d}")
        drift_d = self.drift.d if isinstance(self.drift, (LyapunovDrift, GeneralDrift)) else None
        if drift_d != d:
            raise DomainError("drift dimension does not match d")
        for xi, _ in self.m.atoms:
            if xi.shape != (d, d):
                raise DomainError("m atom dimension does not match d")
        for xi, _ in self.mu.atoms:
            if xi.shape != (d, d):
                raise DomainError("mu atom dimension does not match d")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "c", float(self.c))

    @property
    def alpha_class(self) -> AlphaClass:
        return classify_alpha(self.alpha)

    @property
    def is_conservative(self) -> bool:
        return self.c == 0.0 and frobenius(self.gamma) == 0.0


@dataclass(frozen=True)
class TruncatedParams:
    """Parameter set in truncation-function form: drift B-tilde compensates
    small jumps through chi inside the mu integral. Convert with
    :func:`detruncate`."""

    d: int
    alpha: np.ndarray
    b: np.ndarray
    drift_tilde: LinearDrift
    c: float = 0.0
    gamma: np.ndarray | None = None
    m: AtomicMeasure = field(default_factory=AtomicMeasure)
    mu: MatrixAtomicMeasure = field(default_factory=MatrixAtomicMeasure)

    def __post_init__(self):
        probe = AffineParams(d=self.d, alpha=self.alpha, b=self.b, drift=self.drift_tilde,
                             c=self.c, gamma=self.gamma, m=self.m, mu=self.mu)
        for name in ("alpha", "b", "gamma"):
            object.__setattr__(self, name, getattr(probe, name))
        object.__setattr__(self, "d", probe.d)
        object.__setattr__(self, "c", probe.c)


def detruncate(tp: TruncatedParams) -> AffineParams:
    """Absorb the truncation term into the drift:
    B(x) = B_tilde(x) - sum_k <M_k, x> chi(xi_k).

    With an empty mu the drift is returned unchanged (Lyapunov form is
    preserved); otherwise the result is a GeneralDrift.
    """
    if tp.mu.is_empty:
        drift = tp.drift_tilde
    else:
        mat = as_general(tp.drift_tilde).as_matrix().copy()
        for xi, wm in tp.mu.atoms:
            mat -= np.outer(sym_to_vec(truncation(xi)), sym_to_vec(wm))
        drift = GeneralDrift(matrix=mat, d=tp.d)
    return AffineParams(d=tp.d, alpha=tp.alpha, b=tp.b, drift=drift, c=tp.c,
                        gamma=tp.gamma, m=tp.m, mu=tp.mu)


# ---------------------------------------------------------------------------
# Jump transforms (exact sums over atoms)
# ---------------------------------------------------------------------------


def _check_exponent_domain(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    check_psd(u.real, "jump transform requires Re(u) PSD (bounded integrand)")
    return u


def jump_transform_m(m: AtomicMeasure, u: np.ndarray) -> complex:
    """sum_k w_k (exp(-tr(u xi_k)) - 1); modulus bounded by 2 sum_k w_k."""
    u = _check_exponent_domain(u)
    total = 0.0 + 0.0j
    for xi, w in m.atoms:
        total += w * (np.exp(-trace_inner(u, xi)) - 1.0)
    return complex(total)


def jump_transform_mu(mu: MatrixAtomicMeasure, u: np.ndarray) -> np.ndarray:
    """sum_k (exp(-tr(u xi_k)) - 1) M_k as a complex symmetric matrix."""
    u = _check_exponent_domain(u)
    d = u.shape[0]
    total = np.zeros((d, d), dtype=complex)
    for xi, wm in mu.atoms:
        total += (np.exp(-trace_inner(u, xi)) - 1.0) * wm
    return total


# ---------------------------------------------------------------------------
# Growth constant for the a-priori solution bound
# ---------------------------------------------------------------------------


def drift_operator_norm(drift: LinearDrift) -> float:
    """Operator norm of the adjoint drift as a map on (S_d, Frobenius)."""
    return float(np.linalg.norm(as_general(drift).as_matrix(), 2))


def growth_constant(params: AffineParams) -> float:
    """Constant C with ||psi(t, u)|| <= exp(C t) sqrt(1 + ||u||^2) along
    solutions of the quadratic system.

    C = ||B^T||_op + C1 + (||gamma|| + C2)/2 with
    C1 = sum_k (||xi_k|| ^ 1) tr(M_k) over all mu atoms and
    C2 = 2 sum_{||xi_k|| > 1} tr(M_k); the halves come from bounding the
    cross terms with 2||psi|| <= 1 + ||psi||^2.
    """
    c1 = 0.0
    c2 = 0.0
    for xi, wm in params.mu.atoms:
        n = frobenius(xi)
        tr_wm = float(np.trace(wm))
        c1 += min(n, 1.0) * tr_wm
        if n > 1.0:
            c2 += 2.0 * tr_wm
    return drift_operator_norm(params.drift) + c1 + (frobenius(params.gamma) + c2) / 2.0


# ---------------------------------------------------------------------------
# Admissibility validation
# ---------------------------------------------------------------------------


def inward_pointing_check(drift: LinearDrift, pairs, tol: float = 1e-9):
    """min over complementary pairs of tr(B(x) u) must be >= -tol.

    Returns (ok, worst_pair, worst_value). Raises if a supplied pair fails
    complementarity tr(x u) = 0 beyond 1e-8.
    """
    worst_value = np.inf
    worst_pair = None
    for x, u in pairs:
        if abs(trace_inner(x, u)) > 1e-8:
            raise DomainError("boundary pair violates tr(x u) = 0 beyond 1e-8")
        val = trace_inner(drift.apply(x), u)
        if val < worst_value:
            worst_value = val
            worst_pair = (x, u)
    if worst_pair is None:
        return True, None, 0.0
    return worst_value >= -tol, worst_pair, float(worst_value)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "value": self.value,
                "threshold": self.threshold, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...]
    alpha_class: AlphaClass
    n_pairs_tested: int

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "alpha_class": self.alpha_class.value,
            "n_pairs_tested": self.n_pairs_tested,
            "checks": [c.to_dict() for c in self.checks],
            "warnings": list(self.warnings),
        }


def validate(params: AffineParams, n_random_pairs: int = 64,
             tol: float = 1e-9) -> ValidationReport:
    """Run every admissibility check and return a report (never raises on
    value-level failures).

    Checks: alpha PSD; drift dominance b - (d-1) alpha PSD; c >= 0; gamma
    PSD; atom validity of m and mu; inward-pointing drift sampled over the
    canonical boundary pairs extended by ``n_random_pairs`` random ones,
    seeded with 0 so the report is deterministic. A degenerate nonzero alpha
    passes validation but is flagged with a warning since the transform
    theory requires alpha invertible or zero.
    """
    checks = []
    warns = []
    d = params.d

    lam_alpha = min_eig(params.alpha)
    checks.append(CheckResult("alpha_psd", lam_alpha >= -tol, lam_alpha, -tol,
                              "lambda_min(alpha)"))

    dom = min_eig(params.b - (d - 1) * params.alpha)
    checks.append(CheckResult("drift_dominance", dom >= -tol, dom, -tol,
                              "lambda_min(b - (d-1) alpha)"))

    checks.append(CheckResult("c_nonnegative", params.c >= 0.0, params.c, 0.0, "c"))

    lam_gamma = min_eig(params.gamma)
    checks.append(CheckResult("gamma_psd", lam_gamma >= -tol, lam_gamma, -tol,
                              "lambda_min(gamma)"))

    # atoms were structurally validated at construction; re-derive the value
    # level summary so the report is self-contained
    m_ok = all(is_psd(xi) and w > 0 for xi, w in params.m.atoms)
    checks.append(CheckResult("m_atoms", m_ok, float(len(params.m.atoms)), 0.0,
                              "PSD nonzero sites with positive weights"))
    mu_ok = all(is_psd(xi) and is_psd(wm) for xi, wm in params.mu.atoms)
    checks.append(CheckResult("mu_atoms", mu_ok, float(len(params.mu.atoms)), 0.0,
                              "PSD nonzero sites with PSD weight matrices"))

    pairs = boundary_pairs(d, n_random=n_random_pairs, rng=0)
    ok, worst_pair, worst_val = inward_pointing_check(params.drift, pairs, tol=tol)
    detail = "min tr(B(x) u) over complementary pairs"
    if not ok and worst_pair is not None:
        detail += f"; violating pair x = {worst_pair[0].tolist()}, u = {worst_pair[1].tolist()}"
    checks.append(CheckResult("inward_pointing", ok, worst_val, -tol, detail))

    ac = params.alpha_class
    if ac is AlphaClass.DEGENERATE_NONZERO:
        warns.append("alpha is degenerate and nonzero: transform computations are "
                     "outside the proved regime (conjectured only) and emit warnings")

    return ValidationReport(checks=tuple(checks), warnings=tuple(warns),
                            alpha_class=ac, n_pairs_tested=len(pairs))
