"""Semi-explicit transform exponents for matrix basic affine jump-diffusions.

An MBAJD has gamma = 0, c = 0, mu = 0, constant drift b = 2 p alpha with
p >= (d-1)/2, and Lyapunov linear drift B(x) = beta x + x beta^T. Writing
omega_t(x) = exp(beta t) x exp(beta^T t) for the linear flow and
sigma_t(x) = 2 int_0^t omega_s(x) ds, the exponents are

    psi(t, u) = exp(beta^T t) (I + u sigma_t(alpha))^{-1} u exp(beta t)
    phi(t, u) = p log det(I + u sigma_t(alpha))
                - int_0^t sum_k w_k (exp(-tr(psi(s, u) xi_k)) - 1) ds

The psi expression is the singular-safe form of
exp(beta^T t)(u^{-1} + sigma)^{-1} exp(beta t): both agree whenever u is
invertible, but the former also covers u on the boundary of the tube. The
log-determinant is evaluated on a continuous branch followed from t = 0
(where the determinant is 1), never on the principal branch, and the jump
term is a time integral even though the phi rate only shows the instantaneous
sum. No invertibility of alpha is needed anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AtomicMeasure, AffineParams, LyapunovDrift, jump_transform_m
from .symcore import (
    DomainError,
    canonical_sym,
    check_psd,
    check_square,
    check_sym,
    frobenius,
    mat_exp,
    symmetrize,
    trace_inner,
)


class BranchTrackingError(RuntimeError):
    """The log-determinant argument could not be followed continuously."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed, or disagreed with the block exponential
    it witnesses."""


_MAX_DEPTH = 30  # bisection levels of the adaptive quadrature


@dataclass(frozen=True)
class MBAJDSpec:
    d: int
    alpha: np.ndarray
    beta: np.ndarray
    p: float
    m: AtomicMeasure = field(default_factory=AtomicMeasure)

    def __post_init__(self):
        d = int(self.d)
        alpha = canonical_sym(self.alpha, "alpha")
        beta = check_square(np.asarray(self.beta, dtype=float), "beta").copy()
        if alpha.shape != (d, d) or beta.shape != (d, d):
            raise DomainError("alpha and beta must be d x d")
        check_psd(alpha, "alpha must be PSD")
        p = float(self.p)
        if p < (d - 1) / 2.0:
            raise DomainError(f"p must be at least (d-1)/2 = {(d - 1) / 2}")
        for xi, _ in self.m.atoms:
            if xi.shape != (d, d):
                raise DomainError("m atom dimension does not match d")
        beta.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "p", p)
        # largest horizon whose sigma has passed the quadrature witness
        object.__setattr__(self, "_witnessed", 0.0)

    @classmethod
    def from_params(cls, params: AffineParams) -> MBAJDSpec | None:
        """Recognize b = 2 p alpha with Lyapunov drift, no killing, no mu jumps;
        p is recovered by a scalar least-squares fit with residual <= 1e-10.
        Returns None for any other parameter set."""
        if not (params.is_conservative and params.mu.is_empty
                and isinstance(params.drift, LyapunovDrift)):
            return None
        alpha_sq = trace_inner(params.alpha, params.alpha)
        if alpha_sq == 0.0:
            if frobenius(params.b) > 1e-12:
                return None
            p = (params.d - 1) / 2.0  # irrelevant when alpha = 0
        else:
            p = trace_inner(params.b, params.alpha) / (2.0 * alpha_sq)
            if frobenius(params.b - 2.0 * p * params.alpha) > 1e-10 * max(1.0, frobenius(params.b)):
                return None
            if p < (params.d - 1) / 2.0 - 1e-12:
                return None
        try:
            return cls(d=params.d, alpha=params.alpha, beta=params.drift.beta, p=p,
                       m=params.m)
        except DomainError:
            return None

    def to_affine_params(self) -> AffineParams:
        """The same model as a general parameter set (b = 2 p alpha)."""
        return AffineParams(d=self.d, alpha=self.alpha, b=2.0 * self.p * self.alpha,
                            drift=LyapunovDrift(beta=self.beta), c=0.0, m=self.m)


def flow_omega(beta: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """omega_t(x) = exp(beta t) x exp(beta^T t); PSD-preserving for PSD x."""
    e = mat_exp(np.asarray(beta, dtype=float) * t)
    return symmetrize(e @ np.asarray(x, dtype=float) @ e.T)


def _adaptive_simpson(f, a: float, b: float, tol: float):
    """Adaptive Simpson quadrature for scalar/array, real/complex integrands.

    Error control is the standard |S_fine - S_coarse| / 15 estimate, taken
    as a max over components for array-valued integrands. A non-finite
    estimate raises at once: bisecting it further cannot make it finite.
    """
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)

    def simpson(h6, f0, f1, f2):
        return h6 * (f0 + 4.0 * f1 + f2)

    def recurse(a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = simpson((m - a) / 6.0, fa, flm, fm)
        right = simpson((b - m) / 6.0, fm, frm, fb)
        err = np.max(np.abs(left + right - whole)) / 15.0
        if err <= tol:
            return left + right + (left + right - whole) / 15.0
        if not np.isfinite(err):
            raise QuadratureError(
                f"adaptive quadrature met a non-finite integrand on [{a:.6g}, {b:.6g}]")
        if depth >= _MAX_DEPTH:
            raise QuadratureError("adaptive quadrature failed to converge")
        return (recurse(a, m, fa, flm, fm, left, depth + 1)
                + recurse(m, b, fm, frm, fb, right, depth + 1))

    whole = simpson((b - a) / 6.0, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, 0)


def _vanloan(beta: np.ndarray, alpha: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(beta t) and sigma_t(alpha) from one block matrix exponential."""
    d = beta.shape[0]
    blk = np.zeros((2 * d, 2 * d))
    blk[:d, :d] = beta
    blk[:d, d:] = 2.0 * alpha
    blk[d:, d:] = -beta.T
    e = mat_exp(blk * t)
    # top-right block is int_0^t e^{beta (t-s)} 2 alpha e^{-beta^T s} ds;
    # multiplying by e^{beta^T t} (the transpose of the top-left block)
    # turns it into 2 int_0^t e^{beta r} alpha e^{beta^T r} dr
    return e[:d, :d], symmetrize(e[:d, d:] @ e[:d, :d].T)


def _sigma_vanloan(beta: np.ndarray, alpha: np.ndarray, t: float) -> np.ndarray:
    return _vanloan(beta, alpha, t)[1]


def _witness(beta: np.ndarray, alpha: np.ndarray, t: float, sig: np.ndarray) -> None:
    """Raise unless adaptive quadrature of 2 omega_s(alpha) over [0, t]
    agrees with sig to 1e-8 relative."""
    quad = _adaptive_simpson(lambda s: 2.0 * flow_omega(beta, alpha, s), 0.0, t,
                             tol=1e-11 * max(1.0, frobenius(alpha)))
    disc = frobenius(sig - quad)
    if disc > 1e-8 * max(1.0, frobenius(sig)):
        raise QuadratureError(
            f"sigma_integral cross-check failed: block-exponential and "
            f"quadrature differ by {disc:.3e}")


def sigma_integral(beta: np.ndarray, alpha: np.ndarray, t: float) -> np.ndarray:
    """sigma_t(alpha) = 2 int_0^t omega_s(alpha) ds, computed by a block
    matrix exponential and cross-checked on every call against adaptive
    quadrature; a discrepancy above 1e-8 raises."""
    beta = check_square(np.asarray(beta, dtype=float), "beta")
    alpha = check_sym(np.asarray(alpha, dtype=float), "alpha")
    if t < 0:
        raise DomainError("sigma_integral requires t >= 0")
    if t == 0:
        return np.zeros_like(alpha)
    sig = _sigma_vanloan(beta, alpha, t)
    _witness(beta, alpha, t, sig)
    return sig


def _flow_sigma(spec: MBAJDSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(beta t) and sigma_t(alpha), witnessed only past the
    largest horizon this spec has passed (the block construction has no
    t-dependent failure modes beyond what one horizon exposes)."""
    if not t >= 0:
        raise DomainError(f"the closed form requires t >= 0, got {t}")
    e, sig = _vanloan(spec.beta, spec.alpha, t)
    if t > spec._witnessed:
        _witness(spec.beta, spec.alpha, t, sig)
        object.__setattr__(spec, "_witnessed", t)
    return e, sig


def mbajd_psi(spec: MBAJDSpec, u: np.ndarray, t: float) -> np.ndarray:
    """psi(t, u) in the singular-safe form exp(beta^T t)(I + u sigma)^{-1} u exp(beta t)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (spec.d, spec.d):
        raise DomainError("u must be d x d")
    if t == 0:
        return u.copy()
    e, sig = _flow_sigma(spec, t)
    a = np.eye(spec.d) + u @ sig
    if np.linalg.cond(a) > 1e12:
        raise DomainError(f"I + u sigma_t(alpha) is near singular at t = {t}")
    psi = e.T @ np.linalg.solve(a, u) @ e
    return symmetrize(psi)  # symmetric in exact arithmetic


def _logdet_continuous(spec: MBAJDSpec, u: np.ndarray, t: float) -> complex:
    """log det(I + u sigma_s(alpha)) at s = t on the branch that is 0 at s = 0.

    The argument of the determinant is unwrapped along a refining s-grid;
    refinement stops once consecutive argument increments are small, and a
    persistent jump of pi or more between refinement levels is an error.
    """
    eye = np.eye(spec.d)

    def dets(grid):
        vals = np.empty(len(grid), dtype=complex)
        vals[0] = 1.0
        # from the horizon down, so a new horizon is witnessed once, at t
        for i in range(len(grid) - 1, 0, -1):
            vals[i] = np.linalg.det(eye + u @ _flow_sigma(spec, float(grid[i]))[1])
        return vals

    n = 16
    prev_total = None
    while n <= 2 ** 14:
        grid = np.linspace(0.0, t, n + 1)
        z = dets(grid)
        if np.min(np.abs(z)) < 1e-300:
            raise BranchTrackingError("determinant vanished along the trajectory")
        args = np.unwrap(np.angle(z))
        max_jump = np.max(np.abs(np.diff(args))) if n > 0 else 0.0
        total = args[-1] - args[0]  # angle(z[0]) = 0 since det = 1 at s = 0
        if max_jump < np.pi / 4 and prev_total is not None and \
                abs(total - prev_total) < 1e-9 * (1.0 + abs(total)):
            return complex(np.log(abs(z[-1])), total)
        prev_total = total
        n *= 2
    raise BranchTrackingError(
        "argument increments above pi persisted under grid refinement")


def mbajd_phi(spec: MBAJDSpec, u: np.ndarray, t: float) -> complex:
    """phi(t, u) = p log det(I + u sigma_t(alpha)) plus the time-integrated
    jump contribution."""
    u = np.asarray(u, dtype=complex)
    if t == 0:
        return 0.0 + 0.0j
    val = spec.p * _logdet_continuous(spec, u, t)
    if not spec.m.is_empty:
        val = val + _adaptive_simpson(
            lambda s: -jump_transform_m(spec.m, mbajd_psi(spec, u, s)), 0.0, t, tol=1e-10)
    return complex(val)


def mbajd_transform(spec: MBAJDSpec, u: np.ndarray, x: np.ndarray, t: float) -> complex:
    """exp(-phi(t, u) - tr(psi(t, u) x)) for the jump-diffusion of ``spec``."""
    x = check_psd(np.asarray(x, dtype=float), "transform requires x PSD")
    if t == 0:
        return complex(np.exp(-trace_inner(np.asarray(u, dtype=complex), x)))
    phi = mbajd_phi(spec, u, t)
    psi = mbajd_psi(spec, u, t)
    return complex(np.exp(-phi - trace_inner(psi, x)))


def wishart_transform(spec: MBAJDSpec, u: np.ndarray, x: np.ndarray, t: float) -> complex:
    """Transform of the jump-free process; requires an empty jump measure."""
    if not spec.m.is_empty:
        raise DomainError("wishart_transform requires an empty jump measure")
    return mbajd_transform(spec, u, x, t)
