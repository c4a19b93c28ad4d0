"""Generalized matrix Riccati system for the exponent pair (phi, psi) and the
Fourier-Laplace transform built from it.

The system, solved forward from phi(0) = 0, psi(0) = u0:

    d/dt phi = tr(b psi) + c - sum_k w_k (exp(-tr(psi xi_k)) - 1)
    d/dt psi = -2 psi alpha psi + B^T(psi) + gamma
               - sum_k (exp(-tr(psi xi_k)) - 1) M_k

The state is integrated as the real/imaginary split of the isometric
vectorization of psi plus the two components of phi (dimension d(d+1) + 2),
and the right-hand side works on that packed state: the linear terms, the
quadratic and the weighted jump sums are real matrix products built once
per parameter set, and only the projected rows are unpacked. In the
projected variant the jump exponents use pi(Re psi) + i Im psi, which is
what makes initial data on the boundary of the cone integrable; a row whose
Re psi is in the cone keeps its own exponents.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _dopri5
from .model import (
    SQRT2,
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
    _SUBNORMAL_NORM,
    DomainError,
    _project2,
    check_u,
    check_x,
    cone_certified,
    cone_project_sqrt,
    eigenvalues,
    frobenius,
    min_eig,
    riccati_quadratic_real,
    trace_inner,
)
# the per-layer benchmark hooks this kernel in this module by name
from .symcore import psd_project  # noqa: F401


class BlowUpError(RuntimeError):
    """The solution left the allowed norm ball before the requested horizon."""

    def __init__(self, t_plus: float, message: str | None = None):
        self.t_plus = t_plus
        super().__init__(message or f"Riccati solution blew up near t = {t_plus:.6g}")

    def __reduce__(self):  # rebuilt from t_plus and the message
        return type(self), (self.t_plus, str(self))


class DegenerateAlphaWarning(UserWarning):
    """Degenerate nonzero diffusion coefficient: outside the proved regime."""


# Fixed numerics of every solve: the norm of psi (isometric coordinates) at
# which a solve stops as blown up, and the smallest eigenvalue of Re psi below
# which a solve from the interior reports a boundary-floor hit.
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
    """Right-hand side on the packed real state, of truncation-free or
    truncated parameter sets. ``projected`` switches the jump exponents to
    the cone-projected real part and is required whenever Re(u0) is
    singular: one flag for every row, or one flag per row.

    With v (2, D) the real and imaginary halves of a row's psi, v @ ``_lin``
    gives B^T(psi), tr(b psi), every tr(psi xi_k) and, in the truncated form,
    every tr(psi chi(xi_k)); ``_quad`` takes v(psi) outer v(psi) to the
    quadratic term, and ``_jump`` the jump coefficients to both jump sums.
    Every product has the inner shape of one row, so each row has the bits
    it has alone."""

    def __init__(self, params: AffineParams | TruncatedParams,
                 projected: bool | list[bool] = False):
        self.projected = np.asarray(projected, dtype=bool)
        self.d = d = params.d
        self.D = D = sym_dim(d)
        self.alpha = params.alpha
        truncated = isinstance(params, TruncatedParams)
        drift = params.drift_tilde if truncated else params.drift
        m_atoms, mu_atoms = params.m.atoms, params.mu.atoms
        sites = [xi for xi, _ in m_atoms] + [xi for xi, _ in mu_atoms]
        chis = [truncation(xi) for xi, _ in mu_atoms] if truncated else []
        self._n_m, k = len(m_atoms), len(sites)
        self._lin = np.concatenate(
            [drift.as_matrix(), sym_to_vec(params.b)[:, None]]
            + [sym_to_vec(np.stack(a)).T for a in (sites, chis) if a], axis=1)
        self._exps = slice(D + 1, D + 1 + k) if k else None
        self._chis = slice(D + 1 + k, None) if chis else None
        self._xi = np.ascontiguousarray(self._lin[:, D + 1:D + 1 + k])
        self._jump = np.zeros((k, D + 1))
        self._jump[:self._n_m, D] = [w for _, w in m_atoms]
        if mu_atoms:
            self._jump[self._n_m:, :D] = sym_to_vec(np.stack([wm for _, wm in mu_atoms]))
        self._const = np.zeros((2, D + 1))
        self._const[0] = np.append(sym_to_vec(params.gamma), params.c)
        self._quad = None if frobenius(params.alpha) == 0.0 else _quadratic_matrix(params.alpha)
        self._proj = np.flatnonzero(self.projected) if self.projected.ndim else None

    def _moved_exponents(self, v: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Of projected rows (p, 2, D): the rows whose Re psi leaves the cone,
        and their jump exponents (m, 2, K) at pi(Re psi) + i Im psi, or None
        when every Re psi is in the cone; a row in the cone keeps its own.
        The analytic 2 x 2 projection on components at d = 2. Otherwise one
        Cholesky certificate of vec_to_sym(Re psi) with the shifts -1e-12
        ||Re psi|| clears every row (each lambda_min is then above 0) unless
        some norm is 0 or subnormal, or the certificate fails; then the
        eigenvalues decide, and the eigh cone kernel projects each moved row."""
        re = v[:, 0]
        if not np.isfinite(re).all():
            raise DomainError("eigendecomposition failed: non-finite entries")
        if self.d == 2:
            a, b, c = re[:, 0], re[:, 1] / SQRT2, re[:, 2]
            pa, pb, pc = _project2(a, b, c)
            if pa is a:
                return None, None
            moved = np.flatnonzero((pa != a) | (pb != b) | (pc != c))
            re = np.stack([pa[moved], SQRT2 * pb[moved], pc[moved]], axis=-1)
        else:
            x = vec_to_sym(re, self.d)
            norm = np.sqrt(np.einsum("ij,ij->i", re, re))  # v is an isometry
            if norm.min() >= _SUBNORMAL_NORM and cone_certified(x, -1e-12 * norm):
                return None, None
            moved = np.flatnonzero(np.linalg.eigvalsh(x)[:, 0] < 0.0)
            if not len(moved):
                return None, None
            re = sym_to_vec(cone_project_sqrt(x[moved])[0])
        return moved, np.concatenate([re[:, None], v[moved, 1:]], axis=1) @ self._xi

    def __call__(self, t, y: np.ndarray) -> np.ndarray:
        """Rates of one packed state (N,) or of the columns of (N, m)."""
        y = np.asarray(y)
        D = self.D
        # rows in C order whatever the layout of y: the complex views below need it
        rows = np.ascontiguousarray(y.T.reshape(-1, y.shape[0]))
        n = len(rows)
        v = rows[:, :2 * D].reshape(n, 2, D)
        lin = v @ self._lin
        rate = lin[:, :, :D + 1] + self._const
        if self._quad is not None:
            vc = v[:, 0] + 1j * v[:, 1]
            outer = (vc[:, :, None] * vc[:, None, :]).view(float).reshape(n, D * D, 2)
            rate[:, :, :D] += (self._quad @ outer).transpose(0, 2, 1)
        if self._exps is not None:
            z = lin[:, :, self._exps]
            proj = self._proj if self._proj is not None else np.arange(n if self.projected else 0)
            if len(proj):
                moved, exps = self._moved_exponents(v[proj])
                if moved is not None:
                    z[proj[moved]] = exps
            ew = np.exp(-(z[:, 0] + 1j * z[:, 1])) - 1.0
            coef = ew.view(float).reshape(n, -1, 2).transpose(0, 2, 1)
            if self._chis is not None:
                # the truncated form keeps the chi compensator inside the integral:
                # the integrand is (exp(..) - 1 + tr(chi_k psi)) M_k
                coef[:, :, self._n_m:] += lin[:, :, self._chis]
            rate -= coef @ self._jump
        out = np.empty((n, 2 * D + 2))
        out[:, :2 * D] = rate[:, :, :D].reshape(n, 2 * D)
        out[:, 2 * D:] = rate[:, :, D]
        return out.T.reshape(y.shape)

    def rates(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rates of phi (n,) and of psi (n, d, d) at a stack psi (n, d, d)."""
        r = self(0.0, self.pack(np.zeros(len(psi)), psi).T).T
        return r[:, -2] + 1j * r[:, -1], self.unpack_psi(r)

    # -- packed real state --------------------------------------------------

    def pack(self, phi, psi: np.ndarray) -> np.ndarray:
        """Packed state (N,) of one pair, or (n, N) of phi (n,) and psi (n, d, d)."""
        v = sym_to_vec(psi)
        phi = np.asarray(phi, dtype=complex)
        return np.concatenate([v.real, v.imag, phi.real[..., None], phi.imag[..., None]],
                              axis=-1)

    def unpack_psi(self, y: np.ndarray) -> np.ndarray:
        """psi of one packed state (N,) or of a stack (..., N)."""
        dd = self.D
        return vec_to_sym(y[..., :dd] + 1j * y[..., dd:2 * dd], self.d)

    def unpack_phi(self, y: np.ndarray) -> complex:
        return complex(y[-2], y[-1])


def _quadratic_matrix(alpha: np.ndarray) -> np.ndarray:
    """G (D, D^2) with v(-2 psi alpha psi) = G @ (v(psi) outer v(psi)).ravel():
    column (p, q) is v(-(E_p alpha E_q + E_q alpha E_p)) of the isometric basis E."""
    d = alpha.shape[0]
    basis = vec_to_sym(np.eye(sym_dim(d)), d)
    prod = basis[:, None] @ alpha @ basis[None, :]
    return -sym_to_vec(prod + prod.swapaxes(-1, -2)).reshape(-1, sym_dim(d)).T.copy()


@dataclass
class RiccatiSolution:
    """Solution on the accepted-step grid with 7th-order dense output.

    ``t_plus`` is the estimated maximal existence time: +inf when the
    requested horizon was reached, otherwise the last accepted time before
    norm blow-up or controller underflow. ``times``, ``phi`` and ``psi`` are
    read off the packed states on access, so a grid of solutions holds only
    the integrator's arrays.
    """

    u0: np.ndarray
    diagnostics: SolverDiagnostics
    completed: bool
    _rhs: RiccatiRHS = field(repr=False)
    _result: _dopri5.IntegrationResult = field(repr=False)

    @property
    def times(self) -> np.ndarray:
        return self._result.ts

    @property
    def phi(self) -> np.ndarray:
        ys = self._result.ys
        return ys[:, -2] + 1j * ys[:, -1]

    @property
    def psi(self) -> np.ndarray:
        return self._rhs.unpack_psi(self._result.ys)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def eval(self, t: float) -> tuple[complex, np.ndarray]:
        """Dense-output (phi, psi) at any t in [0, t_end]. A solution of
        :func:`solve_grid` with ``times`` has dense output at those times
        only: inside a step that holds none of them this raises
        :class:`_dopri5.NoDenseOutputError`."""
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


def _solution(rhs: RiccatiRHS, u0: np.ndarray, res: _dopri5.IntegrationResult,
              track_floor: bool, degenerate: bool) -> RiccatiSolution:
    """One row's solution, with the diagnostics of its accepted states."""
    diag = SolverDiagnostics(n_accepted=res.n_accepted, n_rejected=res.n_rejected)
    if res.n_accepted:
        steps = rhs.unpack_psi(res.ys[1:])
        diag.max_psi_norm = float(_dopri5.row_norms(res.ys[1:, :2 * rhs.D]).max())
        lam = eigenvalues(steps.real)[:, 0]
        diag.min_re_psi_eig = float(lam.min())
        diag.boundary_floor_hit = track_floor and bool((lam <= _BOUNDARY_FLOOR).any())
        if degenerate:
            diag.quadratic_monitor_min = min(
                riccati_quadratic_real(p, rhs.alpha) for p in steps)
    if res.status != "finished":
        diag.t_plus = res.t_end
    if degenerate and diag.quadratic_monitor_min < -1e-8:
        warnings.warn(
            f"quadratic form monitor went negative ({diag.quadratic_monitor_min:.3e}): "
            "run is outside the proved regime", DegenerateAlphaWarning, stacklevel=4)
    return RiccatiSolution(u0=u0, diagnostics=diag, completed=res.status == "finished",
                           _rhs=rhs, _result=res)


def _solve_rows(params, us: list, T: float, projected=None,
                times=None) -> list[RiccatiSolution]:
    """One batched integration from every checked u in us, of the projected
    system where its flag in projected (by default, :func:`_interior`'s
    route) is set and of the direct one elsewhere; each row takes the steps
    it takes alone. With times, the dense output covers only those times
    (see :func:`_dopri5.integrate`)."""
    if not 0.0 < T < np.inf:
        raise ValueError("T must be positive and finite")
    if not us:
        return []
    if projected is None:
        projected = [not _interior(u) for u in us]
    degenerate = _warn_if_degenerate(params)
    rhs = RiccatiRHS(params, projected=projected)
    n_psi = 2 * rhs.D  # isometric coordinates of psi

    def monitor(t, y):
        # a row stops once psi leaves the norm ball (a NaN norm does not stop it)
        return ~(_dopri5.row_norms(y[:n_psi].T) >= _BLOWUP_NORM)

    y0 = rhs.pack(np.zeros(len(us)), np.stack(us))
    res = _dopri5.integrate(rhs, 0.0, y0.T, T, monitor=monitor, t_out=times)
    return [_solution(rhs, u, r, not p and min_eig(u.real) > 0, degenerate)
            for u, p, r in zip(us, projected, res.rows)]


def solve(params: AffineParams | TruncatedParams, u0: np.ndarray,
          T: float) -> RiccatiSolution:
    """Integrate the system from initial data u0 with Re(u0) PSD up to T.

    Use :func:`solve_boundary` when Re(u0) is singular; there the jump
    exponents must be evaluated at the cone projection of Re(psi).
    """
    return _solve_rows(params, [check_u(u0, params.d)], T, [False])[0]


def solve_boundary(params: AffineParams | TruncatedParams, u0: np.ndarray,
                   T: float) -> RiccatiSolution:
    """Integrate the projected system; valid for any PSD Re(u0), including 0."""
    return _solve_rows(params, [check_u(u0, params.d)], T, [True])[0]


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
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    u0 = check_u(u0, params.d)
    eye = np.eye(params.d)

    ns: list[int] = []
    n = 1
    while n <= n_max:
        ns.append(n)
        n *= 2
    phis: list[complex] = []
    psis: list[np.ndarray] = []
    sols = _solve_rows(params, [u0 + (1.0 / n) * eye for n in ns], T, [False] * len(ns))
    for n, sol in zip(ns, sols):
        if not sol.completed:
            raise BlowUpError(sol.diagnostics.t_plus,
                              f"shifted solve (n = {n}) terminated early")
        phi_t, psi_t = sol.eval(T)
        phis.append(phi_t)
        psis.append(psi_t)

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
                               psi_limit=psi_limit, solution=sols[-1])


# ---------------------------------------------------------------------------
# Transform evaluation
# ---------------------------------------------------------------------------

_PD_TOL = 1e-10


def _interior(u0: np.ndarray) -> bool:
    """Whether Re(u0) is positive definite enough for the direct system; other
    initial data take the projected one."""
    return min_eig(u0.real) > _PD_TOL * max(1.0, frobenius(u0.real))


def solve_grid(params: AffineParams, us, T: float, times=None) -> list[RiccatiSolution]:
    """Solve from every u in us up to T in one batched integration: each u is
    routed by :func:`_interior` to a row of the direct system when Re(u) is
    positive definite and of the projected one otherwise. Each solution is
    bit for bit the one-row solve.

    With ``times``, each solution's dense output covers only those times,
    which saves three right-hand-side calls per step; ``eval`` there gives
    the bits of the full dense output, and ``eval`` inside a step that holds
    none of them raises :class:`_dopri5.NoDenseOutputError`. ``times``, ``phi``,
    ``psi`` and the diagnostics do not change."""
    return _solve_rows(params, [check_u(u, params.d) for u in us], T, times=times)


def transform_grid(params: AffineParams, us, x: np.ndarray, T: float) -> list[complex]:
    """Transform values exp(-phi(T, u) - tr(psi(T, u) x)) for every u in us,
    from the solves of :func:`solve_grid`. A blow-up raises for the first such u."""
    x = check_x(x, params.d)
    if not 0.0 <= T < np.inf:
        raise ValueError("T must be nonnegative and finite")
    us = [check_u(u, params.d) for u in us]
    if T == 0:
        return [complex(np.exp(-trace_inner(u, x))) for u in us]
    values = []
    for sol in _solve_rows(params, us, T, times=[T]):
        if not sol.completed:
            raise BlowUpError(sol.diagnostics.t_plus)
        phi_t, psi_t = sol.eval(T)
        values.append(complex(np.exp(-phi_t - trace_inner(psi_t, x))))
    return values


def transform(params: AffineParams, u0: np.ndarray, x: np.ndarray, T: float) -> complex:
    """Fourier-Laplace transform value exp(-phi(T, u0) - tr(psi(T, u0) x)).

    The one-row call of :func:`transform_grid`. For conservative parameter
    sets the modulus is at most 1.
    """
    return transform_grid(params, [u0], x, T)[0]


def generator_exp(params: AffineParams, u: np.ndarray, x: np.ndarray) -> complex:
    """Generator applied to x -> exp(-tr(u x)): equals the time derivative of
    the transform at T = 0,

        (-F(u) - tr(R(u) x)) exp(-tr(u x))

    with F and R the phi and psi rates."""
    u, x = check_u(u, params.d), check_x(x, params.d)
    phi_rate, psi_rate = RiccatiRHS(params, projected=False).rates(u[None])
    val = (-complex(phi_rate[0]) - trace_inner(psi_rate[0], x)) * np.exp(-trace_inner(u, x))
    return complex(val)
