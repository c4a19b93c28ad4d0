"""Generalized matrix Riccati system for the exponent pair (phi, psi) and the
Fourier-Laplace transform built from it.

The system, solved forward from phi(0) = 0, psi(0) = u0:

    d/dt phi = tr(b psi) + c - sum_k w_k (exp(-tr(psi xi_k)) - 1)
    d/dt psi = -2 psi alpha psi + B^T(psi) + gamma
               - sum_k (exp(-tr(psi xi_k)) - 1) M_k

The state is integrated as the real/imaginary split of the isometric
vectorization of psi plus the two components of phi (dimension d(d+1) + 2).
In the projected variant the jump exponents use pi(Re psi) + i Im psi, which
is what makes initial data on the boundary of the cone integrable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _dopri5
from .model import (
    AffineParams,
    AlphaClass,
    TruncatedParams,
    classify_alpha,
    sym_dim,
    sym_to_vec,
    truncation,
    vec_to_sym,
)
from .symcore import (
    DomainError,
    check_psd,
    frobenius,
    is_psd,
    min_eig,
    psd_project,
    riccati_quadratic_real,
    trace_inner,
)


class BlowUpError(RuntimeError):
    """The solution left the allowed norm ball before the requested horizon."""

    def __init__(self, t_plus: float, message: str | None = None):
        self.t_plus = t_plus
        super().__init__(message or f"Riccati solution blew up near t = {t_plus:.6g}")


class DegenerateAlphaWarning(UserWarning):
    """Degenerate nonzero diffusion coefficient: outside the proved regime."""


# Fixed numerics of every solve: the DOPRI5 tolerances, the norm of psi
# (isometric coordinates) at which a solve stops as blown up, and the
# smallest eigenvalue of Re psi below which a solve from the interior
# reports a boundary-floor hit.
_REL_TOL = 1e-9
_ABS_TOL = 1e-11
_BLOWUP_NORM = 1e8
_BOUNDARY_FLOOR = -1e-8


@dataclass
class SolverDiagnostics:
    n_accepted: int = 0
    n_rejected: int = 0
    min_re_psi_eig: float = np.inf
    max_psi_norm: float = 0.0
    t_plus: float = np.inf
    boundary_floor_hit: bool = False
    quadratic_monitor_min: float = np.inf  # only tracked for degenerate alpha


class RiccatiRHS:
    """Right-hand side evaluator; accepts truncation-free or truncated
    parameter sets. ``projected`` switches the jump exponents to the
    cone-projected real part and is required whenever Re(u0) is singular."""

    def __init__(self, params: AffineParams | TruncatedParams, projected: bool = False):
        self.params = params
        self.projected = bool(projected)
        self.truncated = isinstance(params, TruncatedParams)
        self.d = params.d
        self.D = sym_dim(params.d)
        self.drift = params.drift_tilde if self.truncated else params.drift
        self.alpha = params.alpha
        self.gamma = params.gamma
        self.b = params.b
        self.c = params.c
        self._alpha_zero = frobenius(params.alpha) == 0.0

        m_atoms = params.m.atoms
        self._m_sites = np.stack([xi for xi, _ in m_atoms]) if m_atoms else None
        self._m_weights = np.array([w for _, w in m_atoms]) if m_atoms else None
        mu_atoms = params.mu.atoms
        self._mu_sites = np.stack([xi for xi, _ in mu_atoms]) if mu_atoms else None
        self._mu_weights = np.stack([wm for _, wm in mu_atoms]) if mu_atoms else None
        if self.truncated and mu_atoms:
            self._mu_chi = np.stack([truncation(xi) for xi, _ in mu_atoms])
        else:
            self._mu_chi = None

    # -- matrix-level rates -------------------------------------------------

    def _jump_exponent_base(self, psi: np.ndarray) -> np.ndarray:
        if not self.projected:
            return psi
        return psd_project(psi.real) + 1j * psi.imag

    def psi_rate(self, psi: np.ndarray) -> np.ndarray:
        rate = self.drift.adjoint(psi) + self.gamma
        if not self._alpha_zero:
            # psi alpha psi is symmetric for symmetric psi, alpha; no re-symmetrization
            rate = rate - 2.0 * (psi @ self.alpha @ psi)
        if self._mu_sites is not None:
            e = self._jump_exponent_base(psi)
            ew = np.exp(-np.einsum("ij,kji->k", e, self._mu_sites)) - 1.0
            rate = rate - np.tensordot(ew, self._mu_weights, axes=(0, 0))
            if self._mu_chi is not None:
                # truncated form keeps the chi compensator inside the integral:
                # the integrand is (exp(..) - 1 + tr(chi_k psi)) M_k
                inner = np.einsum("ij,kji->k", psi, self._mu_chi)
                rate = rate - np.tensordot(inner, self._mu_weights, axes=(0, 0))
        return rate

    def phi_rate(self, psi: np.ndarray) -> complex:
        rate = trace_inner(self.b, psi) + self.c
        if self._m_sites is not None:
            e = self._jump_exponent_base(psi)
            ew = np.exp(-np.einsum("ij,kji->k", e, self._m_sites)) - 1.0
            rate = rate - np.dot(ew, self._m_weights)
        return complex(rate)

    # -- packed real state --------------------------------------------------

    def pack(self, phi: complex, psi: np.ndarray) -> np.ndarray:
        v = sym_to_vec(psi)
        return np.concatenate([v.real, v.imag, [phi.real, phi.imag]])

    def unpack_psi(self, y: np.ndarray) -> np.ndarray:
        """psi of one packed state (n,) or of a stack (..., n)."""
        dd = self.D
        return vec_to_sym(y[..., :dd] + 1j * y[..., dd:2 * dd], self.d)

    def unpack_phi(self, y: np.ndarray) -> complex:
        return complex(y[-2], y[-1])

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        psi = self.unpack_psi(y)
        dpsi = self.psi_rate(psi)
        dphi = self.phi_rate(psi)
        return self.pack(dphi, dpsi)


def rhs_psi(params: AffineParams | TruncatedParams, u: np.ndarray,
            projected: bool = False) -> np.ndarray:
    """Instantaneous rate of psi at state u. Unprojected form requires
    Re(u) PSD."""
    u = np.asarray(u, dtype=complex)
    if not projected and not is_psd(u.real):
        raise DomainError("rhs_psi requires Re(u) PSD unless projected=True")
    return RiccatiRHS(params, projected=projected).psi_rate(u)


def rhs_phi(params: AffineParams | TruncatedParams, u: np.ndarray,
            projected: bool = False) -> complex:
    """Instantaneous rate of phi at state u."""
    u = np.asarray(u, dtype=complex)
    if not projected and not is_psd(u.real):
        raise DomainError("rhs_phi requires Re(u) PSD unless projected=True")
    return RiccatiRHS(params, projected=projected).phi_rate(u)


@dataclass
class RiccatiSolution:
    """Solution on the accepted-step grid with quartic dense output.

    ``t_plus`` is the estimated maximal existence time: +inf when the
    requested horizon was reached, otherwise the last accepted time before
    norm blow-up or controller underflow.
    """

    u0: np.ndarray
    times: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    diagnostics: SolverDiagnostics
    completed: bool
    _rhs: RiccatiRHS = field(repr=False)
    _result: _dopri5.IntegrationResult = field(repr=False)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def eval(self, t: float) -> tuple[complex, np.ndarray]:
        """Dense-output (phi, psi) at any t in [0, t_end]."""
        if t < 0 or t > self.t_end * (1 + 1e-12) + 1e-300:
            raise ValueError(f"t = {t} outside the computed interval [0, {self.t_end}]")
        y = self._result.eval(min(t, self.t_end))
        return self._rhs.unpack_phi(y), self._rhs.unpack_psi(y)

    def phi_at(self, t: float) -> complex:
        return self.eval(t)[0]

    def psi_at(self, t: float) -> np.ndarray:
        return self.eval(t)[1]


def _warn_if_degenerate(params) -> bool:
    degenerate = classify_alpha(params.alpha) is AlphaClass.DEGENERATE_NONZERO
    if degenerate:
        warnings.warn(
            "alpha is degenerate and nonzero: global existence of the transform "
            "exponents is conjectured, not proved; monitoring the quadratic form",
            DegenerateAlphaWarning, stacklevel=3)
    return degenerate


def _solve_impl(params, u0: np.ndarray, T: float, projected: bool) -> RiccatiSolution:
    if T <= 0:
        raise ValueError("T must be positive")
    u0 = np.asarray(u0, dtype=complex)
    check_psd(u0.real, "initial data must have PSD real part")
    degenerate = _warn_if_degenerate(params)

    rhs = RiccatiRHS(params, projected=projected)
    diag = SolverDiagnostics()
    track_floor = not projected and min_eig(u0.real) > 0

    def monitor(t, y):
        psi_norm = float(np.linalg.norm(y[:2 * rhs.D]))  # isometric coordinates
        diag.max_psi_norm = max(diag.max_psi_norm, psi_norm)
        psi = rhs.unpack_psi(y)
        lam = min_eig(psi.real)
        diag.min_re_psi_eig = min(diag.min_re_psi_eig, lam)
        if track_floor and lam <= _BOUNDARY_FLOOR:
            diag.boundary_floor_hit = True
        if degenerate:
            q = riccati_quadratic_real(psi, params.alpha)
            diag.quadratic_monitor_min = min(diag.quadratic_monitor_min, q)
        if psi_norm >= _BLOWUP_NORM:
            diag.t_plus = t
            return False
        return True

    y0 = rhs.pack(0.0 + 0.0j, u0)
    res = _dopri5.integrate(rhs, 0.0, y0, T, rtol=_REL_TOL, atol=_ABS_TOL, monitor=monitor)
    diag.n_accepted = res.n_accepted
    diag.n_rejected = res.n_rejected
    completed = res.status == "finished"
    if res.status == "underflow":
        diag.t_plus = res.t_end
    if degenerate and diag.quadratic_monitor_min < -1e-8:
        warnings.warn(
            f"quadratic form monitor went negative ({diag.quadratic_monitor_min:.3e}): "
            "run is outside the proved regime", DegenerateAlphaWarning, stacklevel=3)

    phi = res.ys[:, -2] + 1j * res.ys[:, -1]
    return RiccatiSolution(u0=u0, times=res.ts, phi=phi, psi=rhs.unpack_psi(res.ys),
                           diagnostics=diag, completed=completed, _rhs=rhs, _result=res)


def solve(params: AffineParams | TruncatedParams, u0: np.ndarray,
          T: float) -> RiccatiSolution:
    """Integrate the system from initial data u0 with Re(u0) PSD up to T.

    Use :func:`solve_boundary` when Re(u0) is singular; there the jump
    exponents must be evaluated at the cone projection of Re(psi).
    """
    return _solve_impl(params, u0, T, projected=False)


def solve_boundary(params: AffineParams | TruncatedParams, u0: np.ndarray,
                   T: float) -> RiccatiSolution:
    """Integrate the projected system; valid for any PSD Re(u0), including 0."""
    return _solve_impl(params, u0, T, projected=True)


# ---------------------------------------------------------------------------
# Boundary initial data as a limit from the interior
# ---------------------------------------------------------------------------


@dataclass
class BoundaryLimitResult:
    ns: list[int]
    phi_values: list[complex]        # phi_n(T)
    psi_values: list[np.ndarray]     # psi_n(T)
    tail: list[float]                # ||psi_{2n}(T) - psi_n(T)||
    converged: bool
    phi_limit: complex | None
    psi_limit: np.ndarray | None
    solution: RiccatiSolution        # the run at the largest n

    def table(self) -> list[dict]:
        rows = []
        for i, n in enumerate(self.ns):
            rows.append({
                "n": n,
                "phi": self.phi_values[i],
                "psi_norm": frobenius(self.psi_values[i]),
                "tail": self.tail[i - 1] if i > 0 else None,
            })
        return rows


def _neville_limit(hs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Polynomial extrapolation of values(h) to h = 0 (Neville scheme)."""
    tbl = [np.asarray(v, dtype=complex) for v in values]
    n = len(tbl)
    for level in range(1, n):
        for i in range(n - level):
            h_i, h_j = hs[i], hs[i + level]
            tbl[i] = (h_i * tbl[i + 1] - h_j * tbl[i]) / (h_i - h_j)
    return tbl[0]


def boundary_limit(params: AffineParams, u0: np.ndarray, T: float,
                   n_max: int = 64) -> BoundaryLimitResult:
    """Approach boundary initial data through u0 + (1/n) I, n = 1, 2, 4, ...

    Each shifted problem has positive definite real part, hence a unique
    global solution; the sequence of endpoint values is checked for the
    Cauchy property (decreasing consecutive differences) and extrapolated to
    1/n -> 0. Non-convergence is reported, in which case no limit is claimed.
    """
    u0 = np.asarray(u0, dtype=complex)
    check_psd(u0.real, "boundary_limit requires Re(u0) PSD")
    eye = np.eye(params.d)

    ns: list[int] = []
    n = 1
    while n <= n_max:
        ns.append(n)
        n *= 2
    phis: list[complex] = []
    psis: list[np.ndarray] = []
    last_solution = None
    for n in ns:
        sol = solve(params, u0 + (1.0 / n) * eye, T)
        if not sol.completed:
            raise BlowUpError(sol.diagnostics.t_plus,
                              f"shifted solve (n = {n}) terminated early")
        phi_t, psi_t = sol.eval(T)
        phis.append(phi_t)
        psis.append(psi_t)
        last_solution = sol

    tail = [frobenius(psis[i + 1] - psis[i]) for i in range(len(ns) - 1)]
    # differences along a 1/n sequence must decrease until they sit in noise
    noise = 1e-11 * (1.0 + frobenius(psis[-1]))
    converged = all(
        tail[i + 1] <= tail[i] * (1 + 1e-9) or tail[i + 1] <= noise
        for i in range(len(tail) - 1)
    )
    if converged:
        hs = 1.0 / np.array(ns, dtype=float)
        psi_limit = _neville_limit(hs, np.array(psis))
        phi_limit = complex(_neville_limit(hs, np.array(phis, dtype=complex)))
    else:
        psi_limit = None
        phi_limit = None
    return BoundaryLimitResult(ns=ns, phi_values=phis, psi_values=psis, tail=tail,
                               converged=converged, phi_limit=phi_limit,
                               psi_limit=psi_limit, solution=last_solution)


# ---------------------------------------------------------------------------
# Transform evaluation
# ---------------------------------------------------------------------------

_PD_TOL = 1e-10


def solve_auto(params: AffineParams, u0: np.ndarray, T: float) -> RiccatiSolution:
    """Direct solver when Re(u0) is positive definite, projected solver
    otherwise."""
    u0 = np.asarray(u0, dtype=complex)
    if min_eig(u0.real) > _PD_TOL * max(1.0, frobenius(u0.real)):
        return solve(params, u0, T)
    return solve_boundary(params, u0, T)


def transform(params: AffineParams, u0: np.ndarray, x: np.ndarray, T: float) -> complex:
    """Fourier-Laplace transform value exp(-phi(T, u0) - tr(psi(T, u0) x)).

    Solves through :func:`solve_auto`. For conservative parameter sets the
    modulus is at most 1.
    """
    u0 = np.asarray(u0, dtype=complex)
    x = check_psd(np.asarray(x, dtype=float), "transform requires x PSD")
    if T < 0:
        raise ValueError("T must be nonnegative")
    if T == 0:
        return complex(np.exp(-trace_inner(u0, x)))
    sol = solve_auto(params, u0, T)
    if not sol.completed:
        raise BlowUpError(sol.diagnostics.t_plus)
    phi_t, psi_t = sol.eval(T)
    return complex(np.exp(-phi_t - trace_inner(psi_t, x)))


def characteristic_function(params: AffineParams, w: np.ndarray, x: np.ndarray,
                            T: float) -> complex:
    """Transform at purely imaginary initial data i w; modulus at most 1.
    Re(i w) = 0 is singular, so :func:`transform` takes the projected solver."""
    return transform(params, 1j * np.asarray(w, dtype=float), x, T)


def generator_exp(params: AffineParams, u: np.ndarray, x: np.ndarray) -> complex:
    """Generator applied to x -> exp(-tr(u x)): equals the time derivative of
    the transform at T = 0,

        (-F(u) - tr(R(u) x)) exp(-tr(u x))

    with F and R the phi and psi rates."""
    u = np.asarray(u, dtype=complex)
    x = np.asarray(x, dtype=float)
    check_psd(u.real, "generator_exp requires Re(u) PSD")
    check_psd(x, "generator_exp requires x PSD")
    rhs = RiccatiRHS(params, projected=False)
    val = (-rhs.phi_rate(u) - trace_inner(rhs.psi_rate(u), x)) * np.exp(-trace_inner(u, x))
    return complex(val)
