"""Path simulation of the conservative process as an independent transform
oracle.

Scheme: full-truncation Euler with spectral projection back onto the cone
after every step,

    X' = pi( X + (b + B(X)) dt + sqrt(X) G Sigma sqrt(dt)
             + Sigma^T G^T sqrt(X) sqrt(dt) + jumps )

where G is a d x d matrix of standard normals, Sigma^T Sigma = alpha, and
the jump count of each atom is Poisson with the intensity frozen at the
step's start (w_k dt for constant atoms, tr(M_k X) dt for state-dependent
ones). Killing is out of scope: simulation requires c = 0, gamma = 0.

Randomness is Philox counter streams keyed by (seed, stream tag), one
Gaussian stream and one jump stream per path, so results are bit-identical
for a fixed (seed, config, params) no matter how paths are partitioned
across workers. Poisson counts are inverted from a single uniform per
(step, atom), which keeps the draw layout independent of the realized
counts.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import AffineParams, LinearDrift
from .symcore import DomainError, frobenius, is_psd, spectrum

_BLOCK_PATHS = 4096  # fixed blocking: memory bound, never affects results


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic sampling needs an even number of paths")


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    stderr: float  # max of the real/imaginary component standard errors
    n_paths: int
    dt: float
    n_steps: int


@dataclass(frozen=True)
class DiffusionFactor:
    sigma: np.ndarray  # Sigma^T Sigma = alpha

    def residual(self, alpha: np.ndarray) -> float:
        return frobenius(self.sigma.T @ self.sigma - alpha)


def diffusion_factor(alpha: np.ndarray) -> DiffusionFactor:
    """Factor Sigma = diag(sqrt(lambda)) Q^T from alpha = Q diag(lambda) Q^T."""
    if not is_psd(alpha):
        raise DomainError("diffusion factor requires alpha PSD")
    s = spectrum(alpha)
    sigma = np.sqrt(np.maximum(s.eigenvalues, 0.0))[:, None] * s.eigenvectors.T
    return DiffusionFactor(sigma=sigma)


# ---------------------------------------------------------------------------
# Batched cone operations (analytic for d = 2, spectral otherwise)
# ---------------------------------------------------------------------------


def _sqrt_psd_batch(x: np.ndarray) -> np.ndarray:
    if x.shape[-1] == 2:
        a, bb, c = x[:, 0, 0], x[:, 0, 1], x[:, 1, 1]
        det = np.maximum(a * c - bb * bb, 0.0)
        s = np.sqrt(det)
        tt = a + c + 2.0 * s
        inv = np.where(tt > 0.0, 1.0 / np.sqrt(np.where(tt > 0.0, tt, 1.0)), 0.0)
        out = np.empty_like(x)
        out[:, 0, 0] = (a + s) * inv
        out[:, 0, 1] = bb * inv
        out[:, 1, 0] = bb * inv
        out[:, 1, 1] = (c + s) * inv
        return out
    w, q = np.linalg.eigh(x)
    w = np.sqrt(np.maximum(w, 0.0))
    return np.einsum("pik,pk,pjk->pij", q, w, q)


def _eigvals2(x: np.ndarray):
    a, bb, c = x[:, 0, 0], x[:, 0, 1], x[:, 1, 1]
    half_tr = 0.5 * (a + c)
    gap = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + bb * bb, 0.0))
    return half_tr - gap, half_tr + gap


def _project_psd_batch(x: np.ndarray) -> np.ndarray:
    """Clamp negative eigenvalues; rows already in the cone pass through."""
    if x.shape[-1] == 2:
        lo, hi = _eigvals2(x)
        bad = lo < 0.0
        if not bad.any():
            return x
        out = x.copy()
        xb = x[bad]
        lam = hi[bad]
        a, bb, c = xb[:, 0, 0], xb[:, 0, 1], xb[:, 1, 1]
        # eigenvector of the top eigenvalue, using the better-conditioned row
        v0 = np.where(np.abs(lam - a) >= np.abs(lam - c), bb, lam - c)
        v1 = np.where(np.abs(lam - a) >= np.abs(lam - c), lam - a, bb)
        nrm = np.sqrt(v0 * v0 + v1 * v1)
        degenerate = nrm < 1e-300  # x is (numerically) a multiple of I
        v0 = np.where(degenerate, 1.0, v0 / np.where(degenerate, 1.0, nrm))
        v1 = np.where(degenerate, 0.0, v1 / np.where(degenerate, 1.0, nrm))
        lam = np.maximum(lam, 0.0)
        fix = np.empty_like(xb)
        fix[:, 0, 0] = lam * v0 * v0
        fix[:, 0, 1] = lam * v0 * v1
        fix[:, 1, 0] = fix[:, 0, 1]
        fix[:, 1, 1] = lam * v1 * v1
        out[bad] = fix
        return out
    w, q = np.linalg.eigh(x)
    if (w[:, 0] >= 0.0).all():
        return x
    w = np.maximum(w, 0.0)
    return np.einsum("pik,pk,pjk->pij", q, w, q)


def _mm_fixed_right(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Batch-of-matrices times a fixed matrix: x[p] @ a."""
    return np.einsum("pij,jk->pik", x, a, optimize=True)


def _mm_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[-1] == 2:
        a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
        b00, b01, b10, b11 = b[:, 0, 0], b[:, 0, 1], b[:, 1, 0], b[:, 1, 1]
        out = np.empty_like(a)
        out[:, 0, 0] = a00 * b00 + a01 * b10
        out[:, 0, 1] = a00 * b01 + a01 * b11
        out[:, 1, 0] = a10 * b00 + a11 * b10
        out[:, 1, 1] = a10 * b01 + a11 * b11
        return out
    return a @ b


def _poisson_from_uniform(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact Poisson counts by CDF inversion of one uniform per entry."""
    counts = np.zeros(lam.shape, dtype=np.int64)
    p = np.exp(-lam)
    cdf = p.copy()
    active = u > cdf
    k = 0
    while active.any():
        k += 1
        if k > 100_000:
            raise RuntimeError("Poisson inversion ran away (intensity too large?)")
        p = p * lam / k
        cdf = cdf + p
        counts[active] = k
        active = u > cdf
    return counts


# ---------------------------------------------------------------------------
# RNG streams: Philox keyed by (seed, tag); even tags carry the Gaussian
# stream (shared within an antithetic pair), odd tags the jump stream
# ---------------------------------------------------------------------------


def _stream(seed: int, tag: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gauss_tag(path: int, antithetic: bool) -> tuple[int, float]:
    if antithetic:
        return 2 * (path // 2), -1.0 if path % 2 else 1.0
    return 2 * path, 1.0


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def _check_conservative(params: AffineParams):
    if not params.is_conservative:
        raise DomainError("simulation requires a conservative parameter set "
                          "(c = 0 and gamma = 0)")


@dataclass(frozen=True)
class _Scheme:
    """Step-invariant inputs of the Euler update, derived once from params."""

    b: np.ndarray
    drift: LinearDrift
    sigma: np.ndarray        # Sigma^T Sigma = alpha
    m_sites: np.ndarray      # (n_m, d, d)
    m_rates: np.ndarray      # (n_m,)
    mu_sites: np.ndarray     # (n_mu, d, d)
    mu_weights: np.ndarray   # (n_mu, d, d)

    @classmethod
    def of(cls, params: AffineParams) -> _Scheme:
        d = params.d
        return cls(b=params.b, drift=params.drift,
                   sigma=diffusion_factor(params.alpha).sigma,
                   m_sites=np.array([xi for xi, _ in params.m.atoms]).reshape(-1, d, d),
                   m_rates=np.array([w for _, w in params.m.atoms], dtype=float),
                   mu_sites=np.array([xi for xi, _ in params.mu.atoms]).reshape(-1, d, d),
                   mu_weights=np.array([wm for _, wm in params.mu.atoms]).reshape(-1, d, d))

    @property
    def n_atoms(self) -> int:
        return len(self.m_sites) + len(self.mu_sites)


def _advance(x: np.ndarray, normals: np.ndarray, uniforms: np.ndarray, dt: float,
             scheme: _Scheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One projected Euler step for a batch of PSD states x (n, d, d), given
    the step's standard normals (n, d, d) and one uniform per atom
    (n, n_atoms), m atoms first. Returns the new states, the jump counts and
    the intensities integrated over the step (both (n, n_atoms))."""
    n = len(x)
    n_m = len(scheme.m_sites)
    noise = _mm_fixed_right(_mm_batch(_sqrt_psd_batch(x), normals), scheme.sigma) * np.sqrt(dt)
    x_new = x + (scheme.b + scheme.drift.apply(x)) * dt + noise + noise.transpose(0, 2, 1)
    lam = np.concatenate(
        [np.broadcast_to(scheme.m_rates * dt, (n, n_m)),
         np.maximum(np.einsum("kij,pji->pk", scheme.mu_weights, x), 0.0) * dt], axis=1)
    counts = _poisson_from_uniform(lam, uniforms)
    if n_m:
        x_new = x_new + np.einsum("pk,kij->pij", counts[:, :n_m], scheme.m_sites)
    if len(scheme.mu_sites):
        x_new = x_new + np.einsum("pk,kij->pij", counts[:, n_m:], scheme.mu_sites)
    return _project_psd_batch(0.5 * (x_new + x_new.transpose(0, 2, 1))), counts, lam


def step(params: AffineParams, x: np.ndarray, dt: float,
         rng: np.random.Generator) -> np.ndarray:
    """One Euler step from a single PSD state; the result is projected back
    onto the cone. Draw order per step: d*d normals, then one uniform per
    m atom, then one uniform per mu atom."""
    _check_conservative(params)
    x = np.asarray(x, dtype=float)
    if not is_psd(x):
        raise DomainError("state must be PSD")
    scheme = _Scheme.of(params)
    g = rng.standard_normal((params.d, params.d))
    u = rng.random(scheme.n_atoms)
    return _advance(x[None], g[None], u[None], dt, scheme)[0][0]


@dataclass
class PathStats:
    """Per-path terminal states plus jump bookkeeping for compensator checks."""

    x_final: np.ndarray             # (n_paths, d, d)
    jump_counts: np.ndarray         # (n_paths, n_atoms), m atoms then mu atoms
    intensity_integrals: np.ndarray  # (n_paths, n_atoms): int lambda_k dt
    dt: float
    n_steps: int


def _simulate_block(params: AffineParams, x0: np.ndarray, dt: float, n_steps: int,
                    seed: int, paths: range, antithetic: bool) -> PathStats:
    d = params.d
    n = len(paths)
    scheme = _Scheme.of(params)
    n_atoms = scheme.n_atoms

    normals = np.empty((n_steps, n, d, d))
    for i, p in enumerate(paths):
        tag, sign = _gauss_tag(p, antithetic)
        normals[:, i] = sign * _stream(seed, tag).standard_normal((n_steps, d, d))
    uniforms = np.empty((n_steps, n, n_atoms))
    if n_atoms:
        for i, p in enumerate(paths):
            uniforms[:, i] = _stream(seed, 2 * p + 1).random((n_steps, n_atoms))

    x = np.broadcast_to(x0, (n, d, d)).copy()
    counts = np.zeros((n, n_atoms))
    intens = np.zeros((n, n_atoms))
    for k in range(n_steps):
        x, step_counts, step_intens = _advance(x, normals[k], uniforms[k], dt, scheme)
        counts += step_counts
        intens += step_intens

    return PathStats(x_final=x, jump_counts=counts, intensity_integrals=intens,
                     dt=dt, n_steps=n_steps)


def _max_workers() -> int:
    env = os.environ.get("PSDAFFINE_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"PSDAFFINE_THREADS must be a positive integer, got {env!r}")
    return int(env)


def simulate_paths(params: AffineParams, x0: np.ndarray, T: float,
                   cfg: SimConfig) -> PathStats:
    """Simulate all paths to time T (dt rounded down so T is a whole number
    of steps). Path blocks may run on a thread pool; the per-path streams
    make the result independent of the partition."""
    _check_conservative(params)
    x0 = np.asarray(x0, dtype=float)
    if not is_psd(x0):
        raise DomainError("initial state must be PSD")
    if T <= 0:
        raise ValueError("T must be positive")
    n_steps = max(1, int(np.ceil(T / cfg.dt - 1e-12)))
    dt = T / n_steps

    blocks = [range(lo, min(lo + _BLOCK_PATHS, cfg.n_paths))
              for lo in range(0, cfg.n_paths, _BLOCK_PATHS)]
    workers = min(_max_workers(), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                lambda blk: _simulate_block(params, x0, dt, n_steps, cfg.seed, blk,
                                            cfg.antithetic), blocks))
    else:
        parts = [_simulate_block(params, x0, dt, n_steps, cfg.seed, blk, cfg.antithetic)
                 for blk in blocks]
    return PathStats(
        x_final=np.concatenate([p.x_final for p in parts]),
        jump_counts=np.concatenate([p.jump_counts for p in parts]),
        intensity_integrals=np.concatenate([p.intensity_integrals for p in parts]),
        dt=dt, n_steps=n_steps)


def _mean_stderr(values: np.ndarray, antithetic: bool) -> tuple[complex, float]:
    if antithetic:
        values = values.reshape(-1, 2).mean(axis=1)  # pair means are the iid units
    mean = complex(values.mean())
    n = values.size
    if n < 2:
        return mean, 0.0
    se_re = float(values.real.std(ddof=1) / np.sqrt(n))
    se_im = float(values.imag.std(ddof=1) / np.sqrt(n))
    return mean, max(se_re, se_im)


def estimate_transform(params: AffineParams, u0: np.ndarray, x: np.ndarray,
                       T: float, cfg: SimConfig) -> MCEstimate:
    """Monte Carlo estimate of E[exp(-tr(u0 X_T))] started from x."""
    u0 = np.asarray(u0, dtype=complex)
    if not is_psd(u0.real):
        raise DomainError("estimate_transform requires Re(u0) PSD")
    stats = simulate_paths(params, x, T, cfg)
    values = np.exp(-np.einsum("ij,pji->p", u0, stats.x_final))
    mean, stderr = _mean_stderr(values, cfg.antithetic)
    return MCEstimate(mean=mean, stderr=stderr, n_paths=cfg.n_paths,
                      dt=stats.dt, n_steps=stats.n_steps)


def estimate_char_function(params: AffineParams, w: np.ndarray, x: np.ndarray,
                           T: float, cfg: SimConfig) -> MCEstimate:
    """Characteristic-function estimate: transform at u0 = i w."""
    w = np.asarray(w, dtype=float)
    return estimate_transform(params, 1j * w, x, T, cfg)
