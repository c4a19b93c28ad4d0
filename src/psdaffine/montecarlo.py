"""Path simulation of the conservative process as an independent transform
oracle.

Scheme: full-truncation Euler with spectral projection back onto the cone
after every step,

    X' = pi( X + (b + B(X)) dt + sqrt(X) G Sigma sqrt(dt)
             + Sigma^T G^T sqrt(X) sqrt(dt) + jumps )

where G is a d x d matrix of standard normals, Sigma^T Sigma = alpha, and
the jump count of each atom is Poisson with the intensity frozen at the
step's start (w_k dt for constant atoms, tr(M_k X) dt for state-dependent
ones). Killing is out of scope: simulation requires c = 0, gamma = 0. At
d = 2 a block of paths is stepped as component rows, one contiguous array
per matrix entry, with the analytic 2 x 2 square root and projection
(_advance2); at d >= 3 as a stack (n, d, d) with one eigh per state
(_advance).

Randomness is Philox counter streams keyed by (seed, stream tag), one
Gaussian stream and one jump stream per path, so results are bit-identical
for a fixed (seed, config, params) no matter how paths are partitioned
across workers. Poisson counts are inverted from a single uniform per
(step, atom), which keeps the draw layout independent of the realized
counts. Each stream is drawn in chunks of _CHUNK_STEPS steps, through a
staging buffer of _STAGE_PATHS paths, into step-major buffers reused across
chunks, so the memory of a path block is fixed by the chunk, not by T/dt;
chunked draws give the same numbers as one draw of all steps.

estimate_transforms evaluates every u on the same simulated paths (common
random numbers), so the estimates of one call have correlated errors.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import AffineParams, LinearDrift, LyapunovDrift
from .symcore import DomainError, _project2, _sqrt2, check_psd, frobenius, spectrum, symmetrize
# the per-layer benchmark hooks the cone kernels of the d >= 3 step under these two names
from .symcore import cone_project as _project_psd_batch, cone_sqrt as _sqrt_psd_batch

_BLOCK_PATHS = 4096  # fixed blocking: memory bound, never affects results
_CHUNK_STEPS = 256   # steps drawn per stream refill: memory bound, never affects results
_STAGE_PATHS = 256   # paths drawn per staging refill: memory bound, never affects results


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    dt: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
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


def _gauss_tag(p: int, antithetic: bool) -> int | None:
    """Stream tag of path p's Gaussian draws. A plain path p owns stream 2p.
    The pair (2k, 2k + 1) of antithetic sampling shares stream 2k, drawn once
    for the even path and negated for the odd one, which has no stream of
    its own; blocks start at an even path, so they hold whole pairs."""
    if not antithetic:
        return 2 * p
    return None if p % 2 else p


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
    noise = np.einsum("pij,jk->pik", _sqrt_psd_batch(x) @ normals, scheme.sigma,
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


def _advance2(x: np.ndarray, normals: np.ndarray, uniforms: np.ndarray, dt: float,
              scheme: _Scheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_advance at d = 2 on component rows: x and normals are (2, 2, n), row
    (i, j) holding entry (i, j) of every path; uniforms, counts and
    intensities are (n_atoms, n). The square root and projection are the
    analytic _sqrt2 and _project2. The products by Sigma and a Lyapunov beta
    are one BLAS product each over all paths, rounded (fused multiply-adds
    included) as the einsum products of _advance round them; every other
    sum is taken in _advance's order."""
    n = x.shape[-1]
    n_m = len(scheme.m_sites)
    r = np.stack(_sqrt2(x[0, 0], x[0, 1], x[1, 1]))  # sqrt(X) = [[r0, r1], [r1, r2]]
    # y[j, i] = (sqrt(X) G)[i, j], so that z[k, i] = (sqrt(X) G Sigma)[i, k]
    y = r[:2] * normals[0, :, None] + r[1:] * normals[1, :, None]
    z = (scheme.sigma.T @ y.reshape(2, -1)).reshape(2, 2, n) * np.sqrt(dt)
    if isinstance(scheme.drift, LyapunovDrift):
        bx = (scheme.drift.beta @ x.reshape(2, -1)).reshape(2, 2, n)
        drift = bx + bx.swapaxes(0, 1)
    else:
        drift = scheme.drift.apply(np.ascontiguousarray(x.transpose(2, 0, 1))).transpose(1, 2, 0)
    x_new = x + (scheme.b[..., None] + drift) * dt + z.swapaxes(0, 1) + z
    lam = np.empty((scheme.n_atoms, n))
    lam[:n_m] = (scheme.m_rates * dt)[:, None]
    if len(scheme.mu_sites):  # tr(W X), summed as the einsum of _advance sums it
        w = scheme.mu_weights[..., None]
        half = w[:, :, 0] * x[0] + w[:, :, 1] * x[1]
        lam[n_m:] = np.maximum(half[:, 0] + half[:, 1], 0.0) * dt
    counts = _poisson_from_uniform(lam, uniforms)
    for block, sites in ((counts[:n_m], scheme.m_sites), (counts[n_m:], scheme.mu_sites)):
        if len(sites):  # sum_k counts_k xi_k, from 0 in the order of the einsum of _advance
            jumps = np.zeros_like(x_new)
            for count, xi in zip(block, sites):
                jumps += count * xi[..., None]
            x_new += jumps
    h = 0.5 * x_new
    x_new = h + h.swapaxes(0, 1)
    if not np.isfinite(x_new).all():
        raise NonFiniteStateError(f"simulated states overflow the float range in an "
                                  f"Euler step of size {dt:.6g}")
    a, b, c = _project2(x_new[0, 0], x_new[0, 1], x_new[1, 1])
    x_new[0, 0], x_new[0, 1], x_new[1, 0], x_new[1, 1] = a, b, b, c
    return x_new, counts, lam


def _advance_stacked(x: np.ndarray, normals: np.ndarray, uniforms: np.ndarray, dt: float,
                     scheme: _Scheme) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_advance on the draw layout of _advance2; counts and intensities (n_atoms, n)."""
    x, counts, lam = _advance(x, np.ascontiguousarray(normals.transpose(2, 0, 1)),
                              uniforms.T, dt, scheme)
    return x, counts.T, lam.T


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
    # step-major draws with the path axis last; each stream is drawn into a
    # path-major stage of up to _STAGE_PATHS paths and copied over from there
    normals = np.empty((chunk, d, d, n))
    uniforms = np.empty((chunk, n_atoms, n))
    stage_n = np.empty((min(n, _STAGE_PATHS), chunk, d, d))
    stage_u = np.empty((len(stage_n), chunk, n_atoms))
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

    if d == 2:
        x = np.repeat(x0[:, :, None], n, axis=2)
        step = _advance2
    else:
        x = np.broadcast_to(x0, (n, d, d)).copy()
        step = _advance_stacked
    counts = np.zeros((n_atoms, n))
    intens = np.zeros((n_atoms, n))
    for start in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - start)
        for lo in range(0, n, len(stage_n)):
            hi = min(lo + len(stage_n), n)
            for i in range(lo, hi):
                tag = _gauss_tag(paths[i], antithetic)
                if tag is not None:
                    stream(tag).standard_normal(out=stage_n[i - lo, :steps])
            normals[:steps, ..., lo:hi] = np.moveaxis(stage_n[:hi - lo, :steps], 0, -1)
            if n_atoms:
                for i in range(lo, hi):
                    stream(2 * paths[i] + 1).random(out=stage_u[i - lo, :steps])
                uniforms[:steps, ..., lo:hi] = np.moveaxis(stage_u[:hi - lo, :steps], 0, -1)
        if antithetic:  # each odd path takes the negated draws of the even one before it
            np.negative(normals[:steps, ..., 0::2], out=normals[:steps, ..., 1::2])
        for k in range(steps):
            x, step_counts, step_intens = step(x, normals[k], uniforms[k], dt, scheme)
            counts += step_counts
            intens += step_intens

    if d == 2:
        x = np.ascontiguousarray(x.transpose(2, 0, 1))
    return PathStats(x_final=x, jump_counts=np.ascontiguousarray(counts.T),
                     intensity_integrals=np.ascontiguousarray(intens.T),
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
    if not 0.0 < T < np.inf:
        raise ValueError("T must be positive and finite")
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
