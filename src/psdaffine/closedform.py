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

:func:`mbajd_grid` evaluates a u-grid at a list of times in one pass per time over
the stack of u. One batched determinant and one stacked Hermitian reduction give the
log-det on the branch continuous on the tube (never the principal one). One adaptive
Gauss-Kronrod rule (G7K15) integrates every row's jump rate from panels graded toward
s = 0, where psi turns over a layer of width about 1 / (4 |u|^2 |alpha|); exp(beta s)
and sigma_s at the union of a round's nodes come from one stacked block exponential.
The quadrature witness of sigma_t takes one stacked exponential per round.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .model import AtomicMeasure, AffineParams, LyapunovDrift
from .symcore import (
    PSD_SLACK,
    DomainError,
    canonical_sym,
    check_psd,
    check_square,
    check_u,
    check_x,
    cone_certified,
    eigenvalues,
    frobenius,
    mat_exp,
    symmetrize,
    trace_inner,
)


class QuadratureError(RuntimeError):
    """A quadrature failed, or disagreed with the block exponential it witnesses."""


_MAX_DEPTH = 30  # most bisections of a starting panel
_MAX_LEVEL = 12  # most panels of one row bisected in one round: 2^_MAX_LEVEL
_QUAD_TOL = 1e-10  # bound on |K15 - G7| of each panel of the jump integral

# G7K15 (Piessens et al., QUADPACK, 1983), as float64: the Kronrod nodes of [-1, 1]
# ascending, their weights, and the weights of the Gauss nodes, the odd-indexed ones
_XK = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
                0.5860872354676911, 0.4058451513773972, 0.20778495500789848])
_XK = np.concatenate([-_XK, [0.0], _XK[::-1]])
_WK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                0.20443294007529889, 0.20948214108472782])
_WK = np.concatenate([_WK, _WK[-2::-1]])
_WG = np.array([0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694])
_WG = np.concatenate([_WG, _WG[-2::-1]])


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

    # the parameter sets from_params recognizes, as error messages state them
    SHAPE = ("gamma = 0, c = 0, empty mu, a Lyapunov drift and b = 2 p alpha "
             "with p >= (d - 1) / 2")

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


def flow_omega(beta: np.ndarray, x: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """omega_t(x) = exp(beta t) x exp(beta^T t); PSD-preserving for PSD x.
    An array of times t gives the stack of omega_t(x), from one stacked
    exponential."""
    e = mat_exp(np.asarray(beta, dtype=float) * np.asarray(t, dtype=float)[..., None, None])
    return symmetrize(e @ np.asarray(x, dtype=float) @ e.swapaxes(-1, -2))


def _adaptive_simpson(f, t: float, tol: float, k) -> np.ndarray:
    """Adaptive G7K15 quadrature over [0, t] of len(k) rows of array-valued integrands
    f(rows, s), given stacked at the nodes s of rows. Row r starts from the panels
    [0, t 2^-k_r] and [t 2^-j, t 2^(1-j)], j = k_r, ..., 1. Each round bisects every
    panel whose |K15 - G7|, a max over components, exceeds tol, and adds the others'
    K15 to their row's total in panel order, so no row depends on another. It raises on
    a non-finite estimate, and before a round bisects over 2^_MAX_LEVEL panels of one
    row, which bounds memory per row. (The benchmark's tracer hooks the rule by the
    name of the Simpson rule it replaced.)"""
    row = np.repeat(np.arange(len(k)), np.asarray(k) + 1)
    b = np.concatenate([np.ldexp(t, np.arange(-kr, 1)) for kr in k])
    a = np.where(np.diff(row, prepend=-1) > 0, 0.0, b / 2.0)
    total = None
    for depth in range(_MAX_DEPTH + 1):
        c, h = (a + b) / 2.0, (b - a)[:, None] / 2.0
        v = f(np.repeat(row, 15), (c[:, None] + h * _XK).ravel())
        shape, v = v.shape[1:], v.reshape(len(row), 15, -1)
        kron = h * (v * _WK[:, None]).sum(axis=1)
        err = np.abs(kron - h * (v[:, 1::2] * _WG[:, None]).sum(axis=1)).max(axis=1)
        if not np.isfinite(err).all():
            p = np.flatnonzero(~np.isfinite(err))[0]
            raise QuadratureError(f"adaptive quadrature met a non-finite integrand "
                                  f"on [{a[p]:.6g}, {b[p]:.6g}]")
        done = err <= tol
        total = np.zeros((len(k), kron.shape[1]), kron.dtype) if total is None else total
        np.add.at(total, row[done], kron[done])
        if done.all():
            return total.reshape((len(k),) + shape)
        if depth == _MAX_DEPTH or np.bincount(row[~done]).max() > 2 ** _MAX_LEVEL:
            raise QuadratureError("adaptive quadrature failed to converge")
        a, b, c, row = a[~done], b[~done], c[~done], np.repeat(row[~done], 2)
        a, b = np.column_stack([a, c]).ravel(), np.column_stack([c, b]).ravel()


def _vanloan(beta: np.ndarray, alpha: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """exp(beta t) and sigma_t(alpha) from one block matrix exponential; an
    array of times t gives their stacks, from one stacked exponential."""
    d = beta.shape[0]
    blk = np.block([[beta, 2.0 * alpha], [np.zeros_like(beta), -beta.T]])
    e = mat_exp(blk * np.asarray(t, dtype=float)[..., None, None])
    # the top-right block is int_0^t e^{beta (t-s)} 2 alpha e^{-beta^T s} ds; times e^{beta^T t},
    # the transpose of the top-left block, it is 2 int_0^t e^{beta r} alpha e^{beta^T r} dr
    e_t = e[..., :d, :d]
    return e_t, symmetrize(e[..., :d, d:] @ e_t.swapaxes(-1, -2))


def _witness(beta: np.ndarray, alpha: np.ndarray, t: float, sig: np.ndarray) -> None:
    """Raise unless adaptive quadrature of 2 omega_s(alpha) over [0, t] agrees with
    sig to 1e-8 relative. Each round takes the flow at all of its nodes s from one
    stacked exponential of beta s, not from the block exponential this witnesses."""
    quad = _adaptive_simpson(lambda _, s: 2.0 * flow_omega(beta, alpha, s),
                             t, 1e-11 * max(1.0, frobenius(alpha)), [1])[0]
    disc = frobenius(sig - quad)
    if disc > 1e-8 * max(1.0, frobenius(sig)):
        raise QuadratureError(f"sigma_integral cross-check failed: block-exponential and "
                              f"quadrature differ by {disc:.3e}")


def sigma_integral(beta: np.ndarray, alpha: np.ndarray, t: float) -> np.ndarray:
    """sigma_t(alpha) = 2 int_0^t omega_s(alpha) ds, computed by a block
    matrix exponential and cross-checked on every call against adaptive
    quadrature; a discrepancy above 1e-8 raises."""
    beta = check_square(np.asarray(beta, dtype=float), "beta")
    alpha = canonical_sym(alpha, "alpha")
    if t < 0:
        raise DomainError("sigma_integral requires t >= 0")
    if t == 0:
        return np.zeros_like(alpha)
    sig = _vanloan(beta, alpha, t)[1]
    _witness(beta, alpha, t, sig)
    return sig


def _horizon(spec: MBAJDSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """_vanloan at t, witnessed once per spec and new largest horizon."""
    e_t, sig_t = _vanloan(spec.beta, spec.alpha, t)
    if t > spec._witnessed:  # no t-dependent failure beyond what one horizon shows
        _witness(spec.beta, spec.alpha, t, sig_t)
        object.__setattr__(spec, "_witnessed", t)
    return e_t, sig_t


def _psi(u: np.ndarray, e: np.ndarray, sig: np.ndarray, t: float | None = None) -> np.ndarray:
    """exp(beta^T s)(I + u sigma_s)^{-1} u exp(beta s) of stacked u and nodes; at a
    time t, raises when some I + u sigma_t is near singular or not finite (a
    condition number that is not at most 1e12, NaN included)."""
    # a non-finite m fails the check at t, and makes a node's integrand non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.eye(u.shape[-1]) + u @ sig
    if t is not None and not (np.linalg.cond(m) <= 1e12).all():
        raise DomainError(f"I + u sigma_t(alpha) is near singular at t = {t}")
    return symmetrize(e.swapaxes(-1, -2) @ np.linalg.solve(m, u) @ e)


def _logdet(us: np.ndarray, sig_t: np.ndarray, t: float) -> np.ndarray:
    """log det(I + u sigma_t) of a stack of u on the branch continuous on the tube:
    cmath's log of z = det(I + u sigma_t) (libm bits, whatever NumPy's SIMD dispatch)
    plus the 2 pi i k that brings arg z within pi / 4 of theta = sum_j atan(mu_j), as
    z = det(L)^2 prod_j (1 + i mu_j) for sigma_t = R R^T, I + R^T Re(u) R = L L^T and
    mu = eig(L^-1 R^T Im(u) R L^-T). Where z overflows (u = 1e300 I), log z is
    2 sum_j log L_jj + sum_j log(1 + i mu_j) from the same factors."""
    with np.errstate(all="ignore"):
        z = np.linalg.det(np.eye(len(sig_t)) + us @ sig_t)
        try:
            w, q = np.linalg.eigh(sig_t)
            r = q * np.sqrt(np.maximum(w, 0.0))
            chol = np.linalg.cholesky(np.eye(len(r)) + r.T @ us.real @ r)
            l_inv = np.linalg.inv(chol)
            mu = np.linalg.eigvalsh(l_inv @ (r.T @ us.imag @ r) @ l_inv.swapaxes(-1, -2))
            theta = np.arctan(mu).sum(axis=1)
        except np.linalg.LinAlgError:
            theta = np.nan
    logdet = np.array([cmath.log(v) for v in z.tolist()])
    for i in np.flatnonzero(~np.isfinite(z) & np.isfinite(theta)):  # theta = nan: no factors
        logdet[i] = (2.0 * sum(map(math.log, np.diagonal(chol[i]).tolist()))
                     + sum(cmath.log(1.0 + 1j * m) for m in mu[i].tolist()))
    if not (np.isfinite(logdet).all() and np.isfinite(theta).all()):
        raise DomainError(f"det(I + u sigma_t(alpha)) is not finite at t = {t}")
    logdet += 2j * np.pi * np.rint((theta - logdet.imag) / (2.0 * np.pi))
    if (np.abs(theta - logdet.imag) > np.pi / 4).any():
        raise DomainError(f"the argument of det(I + u sigma_t(alpha)) is unresolved at t = {t}")
    return logdet


def _jump_rate(m: AtomicMeasure, u: np.ndarray, e: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """sum_k w_k (exp(-tr(psi(s, u) xi_k)) - 1) at every node, u stacked with them."""
    psi = _psi(u, e, sig)  # I + u sigma_s is invertible: Re(u) and sigma_s are PSD
    if not np.isfinite(psi).all():
        raise QuadratureError("jump quadrature met a non-finite psi")
    floor = -PSD_SLACK * np.maximum(1.0, np.linalg.norm(psi.real, axis=(-2, -1)))
    # the certificate passes nearly every stack; the eigenvalues decide the rest
    if not (cone_certified(psi.real, -0.5 * floor)
            or (eigenvalues(psi.real)[:, 0] >= floor).all()):
        raise DomainError("jump transform requires Re(psi) PSD (bounded integrand)")
    return sum(w * (np.exp(-np.einsum("nij,ji->n", psi, xi)) - 1.0) for xi, w in m.atoms)


def _jump_integral(spec: MBAJDSpec, us: np.ndarray, t: float) -> np.ndarray:
    """int_0^t sum_k w_k (exp(-tr(psi(s, u) xi_k)) - 1) ds of every u, each panel within
    _QUAD_TOL. Near s = 0, psi ~ u - 2 s u alpha u turns over a layer 1 / (4 |u|^2 |alpha|)
    wide, below a coarse panel's first node, so each u's panels start graded toward 0 until
    that node ((1 - x_15) / 2 of the width) lies within about a layer of 0; none narrower
    than t 2^-k_max, where |rate| <= 2 sum_k w_k lets any panel pass."""
    w_max = max(w for _, w in spec.m.atoms)  # 2^k_max = 4 t sum_k w_k / _QUAD_TOL, in logs
    k_max = max(0, math.ceil(2.0 + math.log2(t) + math.log2(w_max) - math.log2(_QUAD_TOL)
                             + math.log2(sum(w / w_max for _, w in spec.m.atoms))))
    with np.errstate(all="ignore"):  # |u|^2 = inf at u = 1e300 I asks for k_max
        k = np.log2(t * frobenius(spec.alpha) * (1.0 - _XK[-1])
                    * np.linalg.norm(us, axis=(-2, -1)) ** 2)
        k = np.fmin(np.fmax(np.ceil(k), 1.0), k_max).astype(int)

    def rate(rows, s):
        nodes, at = np.unique(s, return_inverse=True)
        e, sig = _vanloan(spec.beta, spec.alpha, nodes)
        return _jump_rate(spec.m, us[rows], e[at], sig[at])

    return _adaptive_simpson(rate, t, _QUAD_TOL, k)


def _checked(spec: MBAJDSpec, us, times) -> np.ndarray:
    """The u stacked as a complex array, once each u is in the tube and each
    time is t >= 0."""
    us = [check_u(u, spec.d) for u in us]
    for t in times:
        if not t >= 0:
            raise DomainError(f"the closed form requires t >= 0, got {t}")
    return np.array(us).reshape(len(us), spec.d, spec.d)


def mbajd_grid(spec: MBAJDSpec, us, times) -> tuple[np.ndarray, np.ndarray]:
    """phi(t, u) and psi(t, u) for every u of a grid at every time, as arrays
    of shape (len(us), len(times)) and (len(us), len(times), d, d).

    Every u must pass symcore.check_u. The quadrature witness runs once, at the
    largest time.
    """
    us = _checked(spec, us, times)
    phi = np.zeros((len(us), len(times)), dtype=complex)
    psi = np.empty((len(us), len(times), spec.d, spec.d), dtype=complex)
    for j in sorted(range(len(times)), key=lambda j: -times[j]) if len(us) else ():
        t = float(times[j])
        if t == 0:
            psi[:, j] = us
            continue
        e_t, sig_t = _horizon(spec, t)
        phi[:, j] = spec.p * _logdet(us, sig_t, t)
        if not spec.m.is_empty:
            phi[:, j] -= _jump_integral(spec, us, t)
        psi[:, j] = _psi(us, e_t, sig_t, t)
    return phi, psi


def mbajd_psi(spec: MBAJDSpec, u: np.ndarray, t: float) -> np.ndarray:
    """psi(t, u) in the singular-safe form exp(beta^T t)(I + u sigma)^{-1} u exp(beta t):
    the psi of :func:`mbajd_grid` from one block exponential at t (plus the
    witness at a new largest horizon), with no log-det or jump integral."""
    us, t = _checked(spec, [u], [t]), float(t)
    return us[0].copy() if t == 0 else _psi(us, *_horizon(spec, t), t)[0]


def mbajd_phi(spec: MBAJDSpec, u: np.ndarray, t: float) -> complex:
    """phi(t, u) = p log det(I + u sigma_t(alpha)) minus the time-integrated
    jump contribution."""
    return complex(mbajd_grid(spec, [u], [t])[0][0, 0])


def mbajd_transform(spec: MBAJDSpec, u: np.ndarray, x: np.ndarray, t: float) -> complex:
    """exp(-phi(t, u) - tr(psi(t, u) x)) for the jump-diffusion of ``spec``."""
    x = check_x(x, spec.d)
    phi, psi = mbajd_grid(spec, [u], [t])
    return complex(np.exp(-phi[0, 0] - trace_inner(psi[0, 0], x)))
