"""Semi-explicit transform exponents for matrix basic affine jump-diffusions.

An MBAJD has gamma = 0, c = 0, mu = 0, constant drift b = 2 p alpha with
p >= (d-1)/2, and Lyapunov linear drift B(x) = beta x + x beta^T. Writing
omega_t(x) = exp(beta t) x exp(beta^T t) for the linear flow and
sigma_t(x) = 2 int_0^t omega_s(x) ds, the exponents are

    psi(t, u) = exp(beta^T t) (I + u sigma_t(alpha))^{-1} u exp(beta t)
    phi(t, u) = p log det(I + u sigma_t(alpha))
                - int_0^t sum_k w_k (exp(-tr(psi(s, u) xi_k)) - 1) ds

The psi expression is the singular-safe form of
exp(beta^T t)(u^{-1} + sigma)^{-1} exp(beta t), which also covers u on the
boundary of the tube; no invertibility of alpha is needed anywhere.

:func:`mbajd_grid` evaluates a u-grid at a list of times on one uniform
s-grid of [0, t] per time, shared by every u. Each halving of its step h
takes one block exponential and steps every node by the recurrence
E_{s+h} = E_h E_s, sigma_{s+h} = sigma_h + E_h sigma_s E_h^T, which must
land on the direct block exponential at t. Per u, batched determinants
follow log det(I + u sigma_s) on a continuous branch from s = 0 (never the
principal branch), and batched solves give the jump integrand for
composite Simpson with a Richardson check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import AtomicMeasure, AffineParams, LyapunovDrift
from .symcore import (
    PSD_SLACK,
    DomainError,
    canonical_sym,
    check_psd,
    check_square,
    check_sym,
    eigenvalues,
    frobenius,
    mat_exp,
    symmetrize,
    trace_inner,
)


class BranchTrackingError(RuntimeError):
    """The log-determinant argument could not be followed continuously."""


class QuadratureError(RuntimeError):
    """A quadrature failed, or disagreed with the block exponential it
    witnesses, or the sigma grid drifted from it."""


_MAX_DEPTH = 30  # bisection levels of the witness's adaptive quadrature
_BASE_STEPS = 16  # intervals of the coarsest s-grid level
_MAX_STEPS = 2 ** 14  # intervals of the finest s-grid level
_QUAD_TOL = 1e-10  # Richardson error bound of the jump integral
_DRIFT_TOL = 1e-10  # relative gap between the grid recurrence and exp at t


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
    """Adaptive Simpson quadrature of an array-valued integrand (the witness).

    Error control is the standard |S_fine - S_coarse| / 15 estimate, taken
    as a max over components. A non-finite estimate raises at once:
    bisecting it further cannot make it finite.
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
    sig = _vanloan(beta, alpha, t)[1]
    _witness(beta, alpha, t, sig)
    return sig


class _SigmaGrid:
    """exp(beta s) and sigma_s(alpha) at s = k t / n: level n is a stride of
    the finest level built so far, whose last node is the direct value at t.
    The witness runs once per spec and new largest horizon."""

    def __init__(self, spec: MBAJDSpec, t: float):
        self.spec, self.t = spec, t
        e_t, sig_t = _vanloan(spec.beta, spec.alpha, t)
        if t > spec._witnessed:  # no t-dependent failure beyond what one horizon shows
            _witness(spec.beta, spec.alpha, t, sig_t)
            object.__setattr__(spec, "_witnessed", t)
        self.e, self.sig = np.stack([np.eye(spec.d), e_t]), np.stack([np.zeros_like(sig_t), sig_t])

    def level(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        while len(self.e) <= n:  # halve the step: one new node per interval
            e_h, sig_h = _vanloan(self.spec.beta, self.spec.alpha, self.t / (2 * len(self.e) - 2))
            e, sig = e_h @ self.e[:-1], symmetrize(sig_h + e_h @ self.sig[:-1] @ e_h.T)
            gap = frobenius(symmetrize(sig_h + e_h @ sig[-1] @ e_h.T) - self.sig[-1])
            if not gap <= _DRIFT_TOL * max(1.0, frobenius(self.sig[-1])):
                raise QuadratureError(f"sigma grid drifted from the block exponential "
                                      f"at t = {self.t} by {gap:.3e}")
            self.e, self.sig = _interleave(self.e, e), _interleave(self.sig, sig)
        stride = (len(self.e) - 1) // n
        return self.e[::stride], self.sig[::stride]

    def psi(self, u: np.ndarray) -> np.ndarray:
        """psi(t, u) from the last node; raises when I + u sigma_t is near singular."""
        if np.linalg.cond(np.eye(self.spec.d) + u @ self.sig[-1]) > 1e12:
            raise DomainError(f"I + u sigma_t(alpha) is near singular at t = {self.t}")
        return _psi(u, self.e[-1], self.sig[-1])


def _interleave(old: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """old[0], mid[0], old[1], ..., mid[-1], old[-1] along the first axis."""
    out = np.empty((len(old) + len(mid),) + old.shape[1:], dtype=old.dtype)
    out[::2], out[1::2] = old, mid
    return out


def _psi(u: np.ndarray, e: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """exp(beta^T s)(I + u sigma_s)^{-1} u exp(beta s) of one node or a stack."""
    return symmetrize(e.swapaxes(-1, -2) @ np.linalg.solve(np.eye(len(u)) + u @ sig, u) @ e)


def _logdet_continuous(grid: _SigmaGrid, u: np.ndarray) -> complex:
    """log det(I + u sigma_t(alpha)) on the branch that is 0 at s = 0: the
    argument is unwrapped on grid levels until its increments are small and
    its total is stable; a persistent jump of pi or more is an error."""
    n, prev_total = _BASE_STEPS, None
    while n <= _MAX_STEPS:
        z = np.linalg.det(np.eye(len(u)) + u @ grid.level(n)[1])
        if np.min(np.abs(z)) < 1e-300:
            raise BranchTrackingError("determinant vanished along the trajectory")
        args = np.unwrap(np.angle(z))
        total = args[-1] - args[0]  # angle(z[0]) = 0 since det = 1 at s = 0
        if np.max(np.abs(np.diff(args))) < np.pi / 4 and prev_total is not None and \
                abs(total - prev_total) < 1e-9 * (1.0 + abs(total)):
            return complex(np.log(abs(z[-1])), total)
        n, prev_total = 2 * n, total
    raise BranchTrackingError(
        "argument increments above pi persisted under grid refinement")


def _jump_rate(m: AtomicMeasure, u: np.ndarray, e: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """sum_k w_k (exp(-tr(psi(s, u) xi_k)) - 1) at every node."""
    psi = _psi(u, e, sig)  # I + u sigma_s is invertible: Re(u) and sigma_s are PSD
    if not np.isfinite(psi).all():
        raise QuadratureError("composite quadrature met a non-finite integrand")
    floor = -PSD_SLACK * np.maximum(1.0, np.linalg.norm(psi.real, axis=(-2, -1)))
    if not (eigenvalues(psi.real)[:, 0] >= floor).all():
        raise DomainError("jump transform requires Re(psi) PSD (bounded integrand)")
    return sum(w * (np.exp(-np.einsum("nij,ji->n", psi, xi)) - 1.0) for xi, w in m.atoms)


def _jump_integral(grid: _SigmaGrid, u: np.ndarray) -> complex:
    """Integral of the jump rate over [0, t]: composite Simpson S_n, n doubled
    until |S_n - S_{n/2}| / 15 <= _QUAD_TOL, then S_n + (S_n - S_{n/2}) / 15."""
    def simpson(f):
        return grid.t / (3 * len(f) - 3) * (f[0] + 4 * f[1::2].sum() + 2 * f[2:-1:2].sum() + f[-1])

    n = _BASE_STEPS
    f = _jump_rate(grid.spec.m, u, *grid.level(n))
    while abs(simpson(f) - simpson(f[::2])) / 15.0 > _QUAD_TOL:
        n *= 2
        if n > _MAX_STEPS:
            raise QuadratureError("composite quadrature failed to converge")
        e, sig = grid.level(n)
        f = _interleave(f, _jump_rate(grid.spec.m, u, e[1::2], sig[1::2]))
    fine, coarse = simpson(f), simpson(f[::2])
    return fine + (fine - coarse) / 15.0


def _checked(spec: MBAJDSpec, us, times) -> list[np.ndarray]:
    """Every u as a complex array, once each u is d x d with Re(u) PSD and
    each time is t >= 0."""
    us = [np.asarray(u, dtype=complex) for u in us]
    for u in us:
        if u.shape != (spec.d, spec.d):
            raise DomainError("u must be d x d")
        check_psd(u.real, "the closed form requires Re(u) PSD")
    for t in times:
        if not t >= 0:
            raise DomainError(f"the closed form requires t >= 0, got {t}")
    return us


def mbajd_grid(spec: MBAJDSpec, us, times) -> tuple[np.ndarray, np.ndarray]:
    """phi(t, u) and psi(t, u) for every u of a grid at every time, as arrays
    of shape (len(us), len(times)) and (len(us), len(times), d, d).

    Every u must be d x d with Re(u) PSD. The quadrature witness runs once,
    at the largest time; each time builds one sigma grid for every u.
    """
    us = _checked(spec, us, times)
    phi = np.zeros((len(us), len(times)), dtype=complex)
    psi = np.empty((len(us), len(times), spec.d, spec.d), dtype=complex)
    for j in sorted(range(len(times)), key=lambda j: -times[j]) if us else ():
        if times[j] == 0:
            psi[:, j] = us
            continue
        grid = _SigmaGrid(spec, float(times[j]))
        for k, u in enumerate(us):
            phi[k, j] = spec.p * _logdet_continuous(grid, u)
            if not spec.m.is_empty:
                phi[k, j] -= _jump_integral(grid, u)
            psi[k, j] = grid.psi(u)
    return phi, psi


def mbajd_psi(spec: MBAJDSpec, u: np.ndarray, t: float) -> np.ndarray:
    """psi(t, u) in the singular-safe form exp(beta^T t)(I + u sigma)^{-1} u exp(beta t):
    the psi of :func:`mbajd_grid` from one block exponential at t (plus the
    witness at a new largest horizon), with no log-det or jump integral."""
    (u,) = _checked(spec, [u], [t])
    return u.copy() if t == 0 else _SigmaGrid(spec, float(t)).psi(u)


def mbajd_phi(spec: MBAJDSpec, u: np.ndarray, t: float) -> complex:
    """phi(t, u) = p log det(I + u sigma_t(alpha)) minus the time-integrated
    jump contribution."""
    return complex(mbajd_grid(spec, [u], [t])[0][0, 0])


def mbajd_transform(spec: MBAJDSpec, u: np.ndarray, x: np.ndarray, t: float) -> complex:
    """exp(-phi(t, u) - tr(psi(t, u) x)) for the jump-diffusion of ``spec``."""
    x = check_psd(np.asarray(x, dtype=float), "transform requires x PSD")
    phi, psi = mbajd_grid(spec, [u], [t])
    return complex(np.exp(-phi[0, 0] - trace_inner(psi[0, 0], x)))
