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
counts. Each stream is drawn in chunks of _CHUNK_STEPS steps into buffers
reused across chunks, so the memory of a path block is fixed by the chunk,
not by T/dt; chunked draws give the same numbers as one draw of all steps.

estimate_transforms evaluates every u on the same simulated paths (common
random numbers), so the estimates of one call have correlated errors.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import AffineParams, LinearDrift
from .symcore import DomainError, check_psd, frobenius, mat_mul, spectrum, symmetrize
# the per-layer benchmark hooks the step's cone kernels under these two names
from .symcore import cone_project as _project_psd_batch, cone_sqrt as _sqrt_psd_batch

_BLOCK_PATHS = 4096  # fixed blocking: memory bound, never affects results
_CHUNK_STEPS = 256   # steps drawn per stream refill: memory bound, never affects results


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
    check_psd(alpha, "diffusion factor requires alpha PSD")
    w, q = spectrum(alpha)
    sigma = np.sqrt(np.maximum(w, 0.0))[:, None] * q.T
    return DiffusionFactor(sigma=sigma)


class PoissonOverflowError(DomainError):
    """A jump intensity per step is too large for exact CDF inversion."""

    def __init__(self, lam: float):
        self.lam = lam
        super().__init__(f"Poisson intensity {lam:.6g} per step is too large for exact "
                         f"CDF inversion; use a smaller dt")

    def __reduce__(self):  # rebuilt from lam, not from the message
        return type(self), (self.lam,)


class NonFiniteStateError(DomainError):
    """An Euler step left the finite floating-point range."""


def _poisson_from_uniform(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact Poisson counts by CDF inversion of one uniform per entry.

    Past the mode the terms can fall below the rounding gap of the CDF sum
    while a uniform close to 1 still lies above it; such an entry keeps the
    count of the first term that leaves the sum unchanged."""
    counts = np.zeros(lam.shape, dtype=np.int64)
    p = np.exp(-lam)
    if not p.all():  # exp(-lam) underflows for lam above about 745
        raise PoissonOverflowError(float(lam[p == 0.0].max()))
    cdf = p.copy()
    active = u > cdf
    k = 0
    while active.any():
        k += 1
        if k > 100_000:
            raise PoissonOverflowError(float(lam[active].max()))
        p = p * lam / k
        grown = cdf + p
        counts[active] = k
        active = (u > grown) & (grown != cdf)
        cdf = grown
    return counts


# ---------------------------------------------------------------------------
# RNG streams: Philox keyed by (seed, tag); even tags carry the Gaussian
# stream (shared within an antithetic pair), odd tags the jump stream
# ---------------------------------------------------------------------------


def _stream(seed: int, tag: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gauss_streams(paths: range, antithetic: bool) -> list[tuple[int, int]]:
    """(row, stream tag) of each Gaussian stream a block draws. A plain path
    p owns stream 2p. The pair (2k, 2k + 1) of antithetic sampling shares
    stream 2k, drawn once into the even path's row (see _negate_pairs);
    blocks start at an even path, so they hold whole pairs."""
    if not antithetic:
        return [(i, 2 * p) for i, p in enumerate(paths)]
    return [(i, p) for i, p in enumerate(paths) if p % 2 == 0]


def _negate_pairs(normals: np.ndarray) -> None:
    """Give each odd path of an antithetic block the negated draws of the
    even path before it, in place."""
    np.negative(normals[:, 0::2], out=normals[:, 1::2])


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
    the intensities integrated over the step (both (n, n_atoms)); raises
    NonFiniteStateError when a new state is not finite."""
    n = len(x)
    n_m = len(scheme.m_sites)
    noise = np.einsum("pij,jk->pik", mat_mul(_sqrt_psd_batch(x), normals), scheme.sigma,
                      optimize=True) * np.sqrt(dt)
    x_new = x + (scheme.b + scheme.drift.apply(x)) * dt + noise + noise.transpose(0, 2, 1)
    lam = np.concatenate(
        [np.broadcast_to(scheme.m_rates * dt, (n, n_m)),
         np.maximum(np.einsum("kij,pji->pk", scheme.mu_weights, x), 0.0) * dt], axis=1)
    counts = _poisson_from_uniform(lam, uniforms)
    if n_m:
        x_new = x_new + np.einsum("pk,kij->pij", counts[:, :n_m], scheme.m_sites)
    if len(scheme.mu_sites):
        x_new = x_new + np.einsum("pk,kij->pij", counts[:, n_m:], scheme.mu_sites)
    x_new = symmetrize(x_new)
    if not np.isfinite(x_new).all():
        raise NonFiniteStateError(f"simulated states overflow the float range in an "
                                  f"Euler step of size {dt:.6g}")
    return _project_psd_batch(x_new), counts, lam


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
    chunk = min(n_steps, _CHUNK_STEPS)
    normals = np.empty((chunk, n, d, d))
    uniforms = np.empty((chunk, n, n_atoms))
    gauss = _gauss_streams(paths, antithetic)
    # a run of one chunk creates, draws and drops each generator, so no
    # generator outlives its draw; longer runs keep them (thousands per
    # block, a few MB) so that each chunk continues its streams
    kept = {} if n_steps > chunk else None

    def stream(tag):
        if kept is None:
            return _stream(seed, tag)
        if tag not in kept:
            kept[tag] = _stream(seed, tag)
        return kept[tag]

    x = np.broadcast_to(x0, (n, d, d)).copy()
    counts = np.zeros((n, n_atoms))
    intens = np.zeros((n, n_atoms))
    for start in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - start)
        for i, tag in gauss:
            normals[:steps, i] = stream(tag).standard_normal((steps, d, d))
        if antithetic:
            _negate_pairs(normals[:steps])
        if n_atoms:
            for i, p in enumerate(paths):
                uniforms[:steps, i] = stream(2 * p + 1).random((steps, n_atoms))
        for k in range(steps):
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
    x0 = check_psd(np.asarray(x0, dtype=float), "initial state must be PSD")
    if T <= 0:
        raise ValueError("T must be positive")
    n_steps = max(1, int(np.ceil(T / cfg.dt - 1e-12)))
    dt = T / n_steps

    size = _BLOCK_PATHS + _BLOCK_PATHS % 2  # whole antithetic pairs in every block
    blocks = [range(lo, min(lo + size, cfg.n_paths)) for lo in range(0, cfg.n_paths, size)]
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


def estimate_transforms(params: AffineParams, us: Sequence[np.ndarray], x: np.ndarray,
                        T: float, cfg: SimConfig) -> list[MCEstimate]:
    """Monte Carlo estimates of E[exp(-tr(u X_T))] started from x, one per u
    in us. All of them use the same simulated paths (common random numbers),
    so their errors are correlated; an empty us simulates nothing."""
    us = [np.asarray(u, dtype=complex) for u in us]
    for u in us:
        check_psd(u.real, "estimate_transform requires Re(u0) PSD")
    if not us:
        return []
    stats = simulate_paths(params, x, T, cfg)
    estimates = []
    for u in us:
        values = np.exp(-np.einsum("ij,pji->p", u, stats.x_final))
        mean, stderr = _mean_stderr(values, cfg.antithetic)
        estimates.append(MCEstimate(mean=mean, stderr=stderr, n_paths=cfg.n_paths,
                                    dt=stats.dt, n_steps=stats.n_steps))
    return estimates


def estimate_transform(params: AffineParams, u0: np.ndarray, x: np.ndarray,
                       T: float, cfg: SimConfig) -> MCEstimate:
    """Monte Carlo estimate of E[exp(-tr(u0 X_T))] started from x."""
    return estimate_transforms(params, [u0], x, T, cfg)[0]
