"""Path simulation of the conservative process as an independent transform
oracle.

Scheme: full-truncation Euler with spectral projection back onto the cone
after every step,

    X' = pi( X + (b + B(X)) dt + sqrt(X) G Sigma sqrt(dt)
             + Sigma^T G^T sqrt(X) sqrt(dt) + jumps )

where G is a d x d matrix of standard normals, Sigma^T Sigma = alpha, and
the jump count of each atom is Poisson with the intensity frozen at the
step's start (w_k dt for constant atoms, tr(M_k X) dt for state-dependent
ones). Killing is out of scope: simulation requires c = 0, gamma = 0. One
kernel (_advance) steps a block of paths at every d, as component rows
(d, d, n), one contiguous array per matrix entry. Only its cone step, which
projects the new states and returns their square roots as the next step's
sqrt(X), depends on d (_cone_step): the analytic 2 x 2 projection and
square root at d = 2; at d = 3 the closed-form root of symcore._sqrt3 on the
states it certifies (smallest eigenvalue at least CONE3_CERTIFY = 1e-3 times
the largest), which pass the projection unchanged, and one eigh per state on
the rest (11% of path-steps on the mc-general-d3 benchmark model); one eigh
per state at d >= 4. A simulation takes at most _MAX_PATH_STEPS path-steps.

Randomness is Philox counter streams keyed by (seed, stream tag), one
Gaussian stream and one jump stream per path, so results are bit-identical
for a fixed (seed, config, params) no matter how paths are partitioned
across workers. A path block draws every stream through one Philox
generator, moved from stream to stream by setting its state (_Streams).
Poisson counts are inverted from a single uniform per (step, atom), which
keeps the draw layout independent of the realized counts. Each stream is
drawn in chunks of _CHUNK_STEPS steps, through a staging buffer of
_STAGE_PATHS paths, into step-major buffers reused across chunks, so the
memory of a path block is fixed by the chunk, not by T/dt; chunked draws
give the same numbers as one draw of all steps.

estimate_transforms evaluates every u on the same simulated paths (common
random numbers), so the estimates of one call have correlated errors.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import AffineParams, LinearDrift, LyapunovDrift
from .symcore import DomainError, _project2, _sqrt2, _sqrt3, check_psd, spectrum
# the per-layer benchmark hooks the eigh cone kernels of the d >= 3 step under these two names
from .symcore import cone_project_sqrt as _project_psd_batch, cone_sqrt as _sqrt_psd_batch

_BLOCK_PATHS = 4096  # fixed blocking: memory bound, never affects results
_CHUNK_STEPS = 256   # steps drawn per stream refill: memory bound, never affects results
_STAGE_PATHS = 256   # paths drawn per staging refill: memory bound, never affects results
# path-steps one simulation may take, checked before any block is built: about
# 1000x the largest simulation of the tests (1e5 paths x 1024 steps), and
# about a day of stepping on one core at d = 2
_MAX_PATH_STEPS = 10 ** 11


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
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic sampling needs an even number of paths")


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    stderr: float  # max of the real/imaginary component standard errors
    n_paths: int
    dt: float
    n_steps: int


def diffusion_factor(alpha: np.ndarray) -> np.ndarray:
    """Sigma = diag(sqrt(lambda)) Q^T from alpha = Q diag(lambda) Q^T, so that
    Sigma^T Sigma = alpha."""
    check_psd(alpha, "diffusion factor requires alpha PSD")
    w, q = spectrum(alpha)
    return np.sqrt(np.maximum(w, 0.0))[:, None] * q.T


class PoissonOverflowError(DomainError):
    """A jump intensity per step is too large for exact CDF inversion."""

    def __init__(self, lam: float):
        self.lam = lam
        super().__init__(f"Poisson intensity {lam:.6g} per step is too large for exact "
                         f"CDF inversion; use a smaller dt")

    def __reduce__(self):  # rebuilt from lam, not from the message
        return type(self), (self.lam,)


class PathStepBudgetError(DomainError):
    """A simulation would take more than _MAX_PATH_STEPS path-steps."""

    def __init__(self, n_paths: int, n_steps: float):
        self.n_paths, self.n_steps = n_paths, n_steps
        super().__init__(f"{n_paths} paths of {n_steps:.6g} steps exceed the budget of "
                         f"{_MAX_PATH_STEPS:.0e} path-steps; use fewer paths or a larger dt")

    def __reduce__(self):  # rebuilt from the counts, not from the message
        return type(self), (self.n_paths, self.n_steps)


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


# where a new Philox stream starts: counter 0, then an empty buffer
# (buffer_pos 4 of 4), has_uint32 0 and uinteger 0
_STREAM_START = [0] * 8 + [4, 0, 0]


class _Streams:
    """The streams of one path block, drawn through one Philox generator.

    A Philox stream is its key and counter (Salmon et al., SC 2011), so the
    generator moves to stream tag by setting its state: key (seed, tag) and
    the words of _STREAM_START, where a new Philox(key=(seed, tag)) starts.
    save(slot) keeps where a stream stopped, for the next chunk of its
    draws, in 11 words of one uint64 array: the counter, the buffer,
    buffer_pos, has_uint32 and uinteger. The state is one dict of Python
    ints, which the Philox state setter reads faster than arrays."""

    def __init__(self, seed: int, n_slots: int):
        key = [int(seed), 0]
        self.gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        self.state = {"bit_generator": "Philox", "state": {"key": key}}
        self.saved = np.empty((n_slots, 11), dtype=np.uint64)

    def at(self, tag: int, slot: int, resume: bool) -> np.random.Generator:
        """The generator at the start of stream tag, or where save(slot) left it."""
        state = self.state
        words = self.saved[slot].tolist() if resume else _STREAM_START
        state["state"]["key"][1] = tag
        state["state"]["counter"] = words[:4]
        state["buffer"] = words[4:8]
        state["buffer_pos"], state["has_uint32"], state["uinteger"] = words[8:]
        self.gen.bit_generator.state = state
        return self.gen

    def save(self, slot: int):
        state = self.gen.bit_generator.state
        self.saved[slot] = (state["state"]["counter"].tolist() + state["buffer"].tolist()
                            + [state["buffer_pos"], state["has_uint32"], state["uinteger"]])


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
                   sigma=diffusion_factor(params.alpha),
                   m_sites=np.array([xi for xi, _ in params.m.atoms]).reshape(-1, d, d),
                   m_rates=np.array([w for _, w in params.m.atoms], dtype=float),
                   mu_sites=np.array([xi for xi, _ in params.mu.atoms]).reshape(-1, d, d),
                   mu_weights=np.array([wm for _, wm in params.mu.atoms]).reshape(-1, d, d))

    @property
    def n_atoms(self) -> int:
        return len(self.m_sites) + len(self.mu_sites)


def _rows2(a, b, c) -> np.ndarray:
    """Component rows (2, 2, ...) of [[a, b], [b, c]]."""
    return np.array([[a, b], [b, c]])


def _cone_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The projection onto the cone of states on component rows (d, d, n), and
    its square roots: the analytic _project2 and _sqrt2 at d = 2; at d = 3,
    the closed-form _sqrt3 on the states it certifies, which pass through the
    projection unchanged (as the same array when all do), and one eigh per
    state (_project_psd_batch) on the rest alone; one eigh per state at d >= 4."""
    if len(x) == 2:
        a, b, c = _project2(x[0, 0], x[0, 1], x[1, 1])
        return _rows2(a, b, c), _rows2(*_sqrt2(a, b, c))
    if len(x) != 3:
        proj, root = _project_psd_batch(x.transpose(2, 0, 1))
        return proj.transpose(1, 2, 0), root.transpose(1, 2, 0)
    root, certified = _sqrt3(x)
    rest = np.flatnonzero(~certified)
    if len(rest):
        proj, rest_root = _project_psd_batch(x[..., rest].transpose(2, 0, 1))
        x = x.copy()
        x[..., rest] = proj.transpose(1, 2, 0)
        root[..., rest] = rest_root.transpose(1, 2, 0)
    return x, root


def _advance(x: np.ndarray, root: np.ndarray, normals: np.ndarray, uniforms: np.ndarray,
             dt: float, scheme: _Scheme) -> tuple[np.ndarray, ...]:
    """One projected Euler step of a block of paths on component rows: the
    PSD states x, their square roots root and the step's standard normals are
    (d, d, n), row (i, j) holding entry (i, j) of every path; uniforms, one
    per atom and path, are (n_atoms, n), m atoms first. Returns the new
    states, their square roots (from the cone step that projects them), the
    jump counts and the intensities integrated over the step (both
    (n_atoms, n)); raises NonFiniteStateError when a new state is not finite.
    The products by Sigma and by a Lyapunov beta are one BLAS product each
    over all paths; every other sum runs over its index in order."""
    d, n = len(x), x.shape[-1]
    n_m = len(scheme.m_sites)
    # y[j, i] = (sqrt(X) G)[i, j], so that z[k, i] = (sqrt(X) G Sigma)[i, k]
    y = reduce(np.add, (root[:, l] * normals[l, :, None] for l in range(d)))
    z = (scheme.sigma.T @ y.reshape(d, -1)).reshape(d, d, n) * np.sqrt(dt)
    if isinstance(scheme.drift, LyapunovDrift):
        bx = (scheme.drift.beta @ x.reshape(d, -1)).reshape(d, d, n)
        drift = bx + bx.swapaxes(0, 1)
    else:
        drift = scheme.drift.apply(np.ascontiguousarray(x.transpose(2, 0, 1))).transpose(1, 2, 0)
    x_new = x + (scheme.b[..., None] + drift) * dt + z.swapaxes(0, 1) + z
    lam = np.empty((scheme.n_atoms, n))
    lam[:n_m] = (scheme.m_rates * dt)[:, None]
    if len(scheme.mu_sites):  # tr(W X) = sum_i sum_l W[i, l] X[l, i]
        w = scheme.mu_weights[..., None]
        half = reduce(np.add, (w[:, :, l] * x[l] for l in range(d)))
        lam[n_m:] = np.maximum(reduce(np.add, (half[:, i] for i in range(d))), 0.0) * dt
    counts = _poisson_from_uniform(lam, uniforms)
    for block, sites in ((counts[:n_m], scheme.m_sites), (counts[n_m:], scheme.mu_sites)):
        if len(sites):  # sum_k counts_k xi_k, from 0
            jumps = np.zeros_like(x_new)
            for count, xi in zip(block, sites):
                jumps += count * xi[..., None]
            x_new += jumps
    h = 0.5 * x_new
    x_new = h + h.swapaxes(0, 1)
    if not np.isfinite(x_new).all():
        raise NonFiniteStateError(f"simulated states overflow the float range in an "
                                  f"Euler step of size {dt:.6g}")
    return *_cone_step(x_new), counts, lam


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
    # slot 2i keeps the Gaussian stream of the block's path i, slot 2i + 1
    # its jump stream, when the draws take more than one chunk
    streams = _Streams(seed, 2 * n if n_steps > chunk else 0)

    x = np.repeat(x0[:, :, None], n, axis=2)
    root = _rows2(*_sqrt2(x0[0, 0], x0[0, 1], x0[1, 1])) if d == 2 else _sqrt_psd_batch(x0)
    root = np.broadcast_to(root[..., None], x.shape)
    counts = np.zeros((n_atoms, n))
    intens = np.zeros((n_atoms, n))
    for start in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - start)
        keep = start + steps < n_steps  # a later chunk continues these streams
        for lo in range(0, n, len(stage_n)):
            hi = min(lo + len(stage_n), n)
            for i in range(lo, hi):
                tag = _gauss_tag(paths[i], antithetic)
                if tag is not None:
                    streams.at(tag, 2 * i, start > 0).standard_normal(
                        out=stage_n[i - lo, :steps])
                    if keep:
                        streams.save(2 * i)
            normals[:steps, ..., lo:hi] = np.moveaxis(stage_n[:hi - lo, :steps], 0, -1)
            if n_atoms:
                for i in range(lo, hi):
                    streams.at(2 * paths[i] + 1, 2 * i + 1, start > 0).random(
                        out=stage_u[i - lo, :steps])
                    if keep:
                        streams.save(2 * i + 1)
                uniforms[:steps, ..., lo:hi] = np.moveaxis(stage_u[:hi - lo, :steps], 0, -1)
        if antithetic:  # each odd path takes the negated draws of the even one before it
            np.negative(normals[:steps, ..., 0::2], out=normals[:steps, ..., 1::2])
        for k in range(steps):
            x, root, step_counts, step_intens = _advance(x, root, normals[k], uniforms[k],
                                                         dt, scheme)
            counts += step_counts
            intens += step_intens
    return PathStats(x_final=np.ascontiguousarray(x.transpose(2, 0, 1)),
                     jump_counts=np.ascontiguousarray(counts.T),
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
    steps = max(1.0, float(np.ceil(T / cfg.dt - 1e-12)))  # inf when T / dt overflows
    if steps > _MAX_PATH_STEPS or int(cfg.n_paths) * int(steps) > _MAX_PATH_STEPS:
        raise PathStepBudgetError(cfg.n_paths, steps)
    n_steps = int(steps)
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
