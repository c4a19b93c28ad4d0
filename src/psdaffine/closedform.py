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
Simpson rule integrates every row's jump rate, bisecting the panels that fail their
row's test, on one dyadic lattice of [0, t] shared by every u: a node s = k t / 2^L is
one step h = t / 2^L of E_{s+h} = E_h E_s, sigma_{s+h} = sigma_h + E_h sigma_s E_h^T
from its left neighbour, and must land on its right one, checked by one stacked norm
per level. The quadrature witness of sigma_t takes one stacked exponential per round.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np

from .model import AtomicMeasure, AffineParams, LyapunovDrift
from .symcore import (
    _SUBNORMAL_NORM,
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
    """A quadrature failed, or disagreed with the block exponential it
    witnesses, or the sigma grid drifted from it."""


_MAX_DEPTH = 30  # finest Simpson panel: width t / 2^_MAX_DEPTH
_BASE_LEVEL = 4  # 2^4 Simpson panels to start from
_MAX_LEVEL = 14  # most panels of one row bisected in one round
_QUAD_TOL = 1e-10  # Richardson error bound of each panel of the jump integral
_DRIFT_TOL = 1e-10  # relative gap between a new grid node and its right neighbour
_ID_BITS = 60  # a sigma grid node s = i t / 2^_ID_BITS; levels up to 60 fit an int64 id


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


def _adaptive_simpson(f, t: float, tol: float, n: int) -> np.ndarray:
    """Adaptive Simpson quadrature over [0, t] of n rows of array-valued integrands
    f(rows, ks, level), given stacked at the nodes k t / 2^level of rows. From
    2^_BASE_LEVEL panels a row on, each round bisects every panel whose
    |S_fine - S_coarse| / 15, a max over components, exceeds tol; the others add
    S_fine + (S_fine - S_coarse) / 15 to their row's total in panel order, so no
    row depends on another. A non-finite estimate raises at once."""
    level, ks = _BASE_LEVEL + 2, np.arange(2 ** (_BASE_LEVEL + 2) + 1)
    row, first = np.divmod(4 * np.arange(n << _BASE_LEVEL), len(ks) - 1)  # 4 intervals a panel
    v = f(np.repeat(np.arange(n), len(ks)), np.tile(ks, n), level)
    v = v.reshape((n, len(ks)) + v.shape[1:])[row[:, None], first[:, None] + np.arange(5)]
    total = np.zeros((n,) + v.shape[2:], dtype=v.dtype)
    while True:
        h = t / 2 ** level
        coarse = 2.0 * h / 3.0 * (v[:, 0] + 4.0 * v[:, 2] + v[:, 4])
        fine = h / 3.0 * (v[:, 0] + 4.0 * (v[:, 1] + v[:, 3]) + 2.0 * v[:, 2] + v[:, 4])
        err = np.abs(fine - coarse).reshape(len(v), -1).max(axis=1) / 15.0
        if not np.isfinite(err).all():
            k = first[~np.isfinite(err)][0]
            raise QuadratureError(f"adaptive quadrature met a non-finite integrand "
                                  f"on [{k * h:.6g}, {(k + 4) * h:.6g}]")
        done = err <= tol
        np.add.at(total, row[done], (fine + (fine - coarse) / 15.0)[done])
        if done.all():
            return total
        if level - 2 >= _MAX_DEPTH or np.bincount(row[~done]).max() > 2 ** _MAX_LEVEL:
            raise QuadratureError("adaptive quadrature failed to converge")
        v, row, first, level = v[~done], row[~done], 2 * first[~done], level + 1
        mid = f(np.repeat(row, 4), (first[:, None] + [1, 3, 5, 7]).ravel(), level)
        # the halves' nodes: v0 m0 v1 m1 v2 | v2 m2 v3 m3 v4
        v = np.concatenate([v, mid.reshape((len(v), 4) + v.shape[2:])], axis=1)
        v = v[:, [0, 5, 1, 6, 2, 2, 7, 3, 8, 4]].reshape((2 * len(v), 5) + v.shape[2:])
        row, first = np.repeat(row, 2), (first[:, None] + [0, 4]).ravel()


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
    agrees with sig to 1e-8 relative. Each Simpson round takes the flow at
    all of its nodes s from one stacked exponential of beta s; none comes
    from the sigma grid's step products, which this witnesses."""
    quad = _adaptive_simpson(lambda _, ks, lv: 2.0 * flow_omega(beta, alpha, ks * t / 2 ** lv),
                             t, 1e-11 * max(1.0, frobenius(alpha)), 1)[0]
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
    alpha = canonical_sym(alpha, "alpha")
    if t < 0:
        raise DomainError("sigma_integral requires t >= 0")
    if t == 0:
        return np.zeros_like(alpha)
    sig = _vanloan(beta, alpha, t)[1]
    _witness(beta, alpha, t, sig)
    return sig


class _SigmaGrid:
    """exp(beta s) and sigma_s(alpha) at the nodes s = k t / 2^level, each
    stored once, in stacks ordered by s = i t / 2^_ID_BITS under the integer
    id i. It starts from s = 0 and s = t, the direct block exponential. The
    witness runs once per spec and new largest horizon."""

    def __init__(self, spec: MBAJDSpec, t: float):
        self.spec, self.t = spec, t
        self.e_t, self.sig_t = _vanloan(spec.beta, spec.alpha, t)
        if t > spec._witnessed:  # no t-dependent failure beyond what one horizon shows
            _witness(spec.beta, spec.alpha, t, self.sig_t)
            object.__setattr__(spec, "_witnessed", t)
        self.ids = np.array([0, 1 << _ID_BITS])
        self.e = np.stack([np.eye(spec.d), self.e_t])
        self.sig = np.stack([np.zeros_like(self.sig_t), self.sig_t])
        self.step = functools.cache(lambda level: _vanloan(spec.beta, spec.alpha, t / 2 ** level))

    def nodes(self, ks: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
        """The nodes at k t / 2^level for k in ks, stacked."""
        return self._at(np.asarray(ks) << (_ID_BITS - level))

    def _at(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nodes of the given ids, stacked, found by binary search (the
        store holds both ends of [0, t], so every id has a position). Missing
        ones are built first, coarsest level first with one stacked product
        per level: node k of its level, k odd, is one step of t / 2^level
        from node k - 1 and must land on node k + 1, so its bits never depend
        on the order of the calls."""
        pos = np.searchsorted(self.ids, ids)
        stored = self.ids[pos] == ids
        if not stored.all():
            new = np.unique(ids[~stored])
            level = _ID_BITS + 1 - np.frexp(new & -new)[1]  # where the id's k is odd
            for lv in np.unique(level).tolist():
                self._build(new[level == lv], lv)
            pos = np.searchsorted(self.ids, ids)
        return self.e[pos], self.sig[pos]

    def _build(self, ids: np.ndarray, level: int) -> None:
        """Store the nodes of ascending ids whose k is odd at this level, each
        one step from its left neighbour, once all of them land on their right
        ones."""
        h = 1 << (_ID_BITS - level)
        e_h, sig_h = self.step(level)
        e_prev, sig_prev = self._at(ids - h)
        e, sig = e_h @ e_prev, symmetrize(sig_h + e_h @ sig_prev @ e_h.T)
        now, want = symmetrize(sig_h + e_h @ sig @ e_h.T), self._at(ids + h)[1]
        bad = np.flatnonzero(_drifted(now, want))
        if len(bad):
            raise QuadratureError(f"sigma grid drifted from the block exponential at "
                                  f"t = {self.t} by {frobenius(now[bad[0]] - want[bad[0]]):.3e}")
        at = np.searchsorted(self.ids, ids)
        self.ids, self.e, self.sig = (np.insert(old, at, add, axis=0) for old, add in
                                      ((self.ids, ids), (self.e, e), (self.sig, sig)))

    def psi(self, us: np.ndarray) -> np.ndarray:
        """psi(t, u) of a stack of u; raises when some I + u sigma_t is near singular."""
        if (np.linalg.cond(np.eye(self.spec.d) + us @ self.sig_t) > 1e12).any():
            raise DomainError(f"I + u sigma_t(alpha) is near singular at t = {self.t}")
        return _psi(us, self.e_t, self.sig_t)


def _drifted(now: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Which nodes of a stack fail frobenius(now - want) <= _DRIFT_TOL * max(1,
    frobenius(want)). One stacked norm of each side passes a node whose two
    norms are finite and normal (the sums of squares too) and whose gap is
    below its bound by 1e-12 relative, more than the two summation orders can
    differ by for d below about 90; frobenius decides every other node, as
    it decides them one by one."""
    diff = now - want
    with np.errstate(over="ignore"):
        gap, scale = np.linalg.norm(diff, axis=(-2, -1)), np.linalg.norm(want, axis=(-2, -1))
    normal = ((_SUBNORMAL_NORM <= gap) & (gap < np.inf)
              & (_SUBNORMAL_NORM <= scale) & (scale < np.inf))
    drifted = ~(normal & (gap <= (1.0 - 1e-12) * _DRIFT_TOL * np.maximum(1.0, scale)))
    for i in np.flatnonzero(drifted):
        drifted[i] = not frobenius(diff[i]) <= _DRIFT_TOL * max(1.0, frobenius(want[i]))
    return drifted


def _psi(u: np.ndarray, e: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """exp(beta^T s)(I + u sigma_s)^{-1} u exp(beta s) of stacked u and nodes."""
    return symmetrize(e.swapaxes(-1, -2) @ np.linalg.solve(np.eye(u.shape[-1]) + u @ sig, u) @ e)


def _logdet(us: np.ndarray, sig_t: np.ndarray, t: float) -> np.ndarray:
    """log det(I + u sigma_t) of a stack of u on the branch continuous on the tube:
    cmath's log of z = det(I + u sigma_t) (libm bits, whatever NumPy's SIMD dispatch)
    plus the 2 pi i k that brings arg z within pi / 4 of theta = sum_j atan(mu_j), as
    z = det(L)^2 prod_j (1 + i mu_j) for sigma_t = R R^T, I + R^T Re(u) R = L L^T and
    mu = eig(L^-1 R^T Im(u) R L^-T)."""
    with np.errstate(all="ignore"):
        z = np.linalg.det(np.eye(len(sig_t)) + us @ sig_t)
        try:
            w, q = np.linalg.eigh(sig_t)
            r = q * np.sqrt(np.maximum(w, 0.0))
            l_inv = np.linalg.inv(np.linalg.cholesky(np.eye(len(r)) + r.T @ us.real @ r))
            theta = np.arctan(np.linalg.eigvalsh(
                l_inv @ (r.T @ us.imag @ r) @ l_inv.swapaxes(-1, -2))).sum(axis=1)
        except np.linalg.LinAlgError:
            theta = np.nan
    if not (np.isfinite(z).all() and np.isfinite(theta).all()):
        raise DomainError(f"det(I + u sigma_t(alpha)) is not finite at t = {t}")
    logdet = np.array([cmath.log(v) for v in z.tolist()])
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
    largest time; only the jump integral builds a sigma lattice.
    """
    us = _checked(spec, us, times)
    phi = np.zeros((len(us), len(times)), dtype=complex)
    psi = np.empty((len(us), len(times), spec.d, spec.d), dtype=complex)
    for j in sorted(range(len(times)), key=lambda j: -times[j]) if len(us) else ():
        if times[j] == 0:
            psi[:, j] = us
            continue
        grid = _SigmaGrid(spec, float(times[j]))
        phi[:, j] = spec.p * _logdet(us, grid.sig_t, grid.t)
        if not spec.m.is_empty:  # the jump integral, each panel within _QUAD_TOL
            phi[:, j] -= _adaptive_simpson(
                lambda rows, ks, lv: _jump_rate(spec.m, us[rows], *grid.nodes(ks, lv)),
                grid.t, _QUAD_TOL, len(us))
        psi[:, j] = grid.psi(us)
    return phi, psi


def mbajd_psi(spec: MBAJDSpec, u: np.ndarray, t: float) -> np.ndarray:
    """psi(t, u) in the singular-safe form exp(beta^T t)(I + u sigma)^{-1} u exp(beta t):
    the psi of :func:`mbajd_grid` from one block exponential at t (plus the
    witness at a new largest horizon), with no log-det or jump integral."""
    us = _checked(spec, [u], [t])
    return us[0].copy() if t == 0 else _SigmaGrid(spec, float(t)).psi(us)[0]


def mbajd_phi(spec: MBAJDSpec, u: np.ndarray, t: float) -> complex:
    """phi(t, u) = p log det(I + u sigma_t(alpha)) minus the time-integrated
    jump contribution."""
    return complex(mbajd_grid(spec, [u], [t])[0][0, 0])


def mbajd_transform(spec: MBAJDSpec, u: np.ndarray, x: np.ndarray, t: float) -> complex:
    """exp(-phi(t, u) - tr(psi(t, u) x)) for the jump-diffusion of ``spec``."""
    x = check_x(x, spec.d)
    phi, psi = mbajd_grid(spec, [u], [t])
    return complex(np.exp(-phi[0, 0] - trace_inner(psi[0, 0], x)))
