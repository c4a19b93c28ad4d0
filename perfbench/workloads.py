"""Workload definitions: seeded inputs and the CLI commands that consume them.

Every input is a base model, drawn from a fixed stream per workload and
slot, scaled component by component by factors drawn from
``numpy.random.default_rng([seed, workload tag, round + 1, slot])``. So one
``--seed`` always yields the same files. Each round holds a fixed mix of
commands; the timed loop runs whole rounds, which keeps the mix, and so the
work per row, the same whatever the run length. No parameter set repeats
within a run, because ``closedform`` keeps a process-global registry keyed
on ``(beta, alpha)``: a repeated set would skip work a new set pays for.

Inputs are written in the CLI's JSON schema (version 1) by this module
alone, with no call into the package, so the generator survives refactors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TIMES = [0.25, 0.5, 1.0, 2.0]
GRID_POINTS = 16  # u values per transform command

# Monte Carlo settings. The allowance added to 3 stderr is twice the largest
# Euler bias |E[mc] - ode| measured at the seed commit at the workload's dt
# (65,536 paths at d = 2, 32,768 at d = 3, four seeds' parameter sets, both
# u; README.md lists the figures), rounded up. It is fixed here, never chosen
# per seed.
MC_T = 1.0
MC_LYAP_PATHS, MC_LYAP_DT, MC_LYAP_ALLOWANCE = 8192, 2.0**-9, 0.008
MC_GEN_PATHS, MC_GEN_DT, MC_GEN_ALLOWANCE = 2048, 2.0**-5, 0.035
MC_WARMUP_PATHS = 256


@dataclass(frozen=True)
class Command:
    """One CLI call. ``argv`` is passed to ``psdaffine.cli.main``; ``rows``
    is the number of ``(u, t)`` values it must return; ``check`` names the
    output check in ``checks.py`` and ``extra`` carries what that check
    needs: the reference route's method, or the Monte Carlo allowance."""

    argv: list[str]
    rows: int
    check: str
    extra: dict


# ---------------------------------------------------------------------------
# Matrix samplers
# ---------------------------------------------------------------------------


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _spd(rng, d, lo, hi):
    q = _orthogonal(rng, d)
    return (q * rng.uniform(lo, hi, size=d)) @ q.T


def _sym(rng, d, scale):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2


def _psd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T / d


def _stable_beta(rng, d, lo, hi):
    q = _orthogonal(rng, d)
    return (q * rng.uniform(lo, hi, size=d)) @ q.T


def _atom_site(rng, d, norm):
    xi = _psd(rng, d) + 0.05 * np.eye(d)
    return xi * (norm / np.linalg.norm(xi))


def _sym_basis(d):
    """Isometric basis of S_d in upper-triangle row-major order, the order of
    the CLI's ``drift.matrix``."""
    out = []
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d))
            w = 1.0 if i == j else 1.0 / math.sqrt(2.0)
            e[i, j] = e[j, i] = w
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# Parameter files (CLI schema version 1)
# ---------------------------------------------------------------------------


def _lst(x):
    return [[float(v) for v in row] for row in np.asarray(x, dtype=float)]


def _params(d, alpha, b, drift, gamma=None, m=(), mu=()):
    return {
        "version": 1, "d": d, "alpha": _lst(alpha), "b": _lst(b), "drift": drift,
        "c": 0.0, "gamma": _lst(np.zeros((d, d)) if gamma is None else gamma),
        "m": {"atoms": [{"xi": _lst(xi), "weight": float(w)} for xi, w in m]},
        "mu": {"atoms": [{"xi": _lst(xi), "weightMatrix": _lst(wm)} for xi, wm in mu]},
    }


def _lyap(beta):
    return {"type": "lyapunov", "beta": _lst(beta)}


class _Draw:
    """Random inputs as a fixed base model with a seeded perturbation.

    ``base`` draws the structure from a stream that does not depend on the
    seed; ``jit()`` draws a factor in [0.97, 1.03] from the seed's stream and
    scales one component (a matrix, a weight or a grid point). Admissibility
    survives any positive factor, and the work a command does stays nearly
    the same from seed to seed, which keeps the figures steady."""

    def __init__(self, base, pert):
        self.base = base
        self.pert = pert

    def jit(self, x=1.0):
        return np.asarray(x, dtype=float) * self.pert.uniform(0.97, 1.03)


def _general_drift_matrix(r, d, beta, terms):
    """Lyapunov part plus sum_j c_j tr(A_j x) A_j with c_j >= 0 and A_j PSD:
    inward pointing, since both trace factors are nonnegative on the cone."""
    basis = _sym_basis(d)

    def vec(x):
        return np.array([np.sum(e * x) for e in basis])

    mat = np.column_stack([vec(beta @ e + e @ beta.T) for e in basis])
    for c, a in terms:
        a = vec(a)
        mat += r.jit(c) * np.outer(a, a)
    return mat


def _jump_model(r, d, *, alpha=(0.6, 1.0), b_extra=0.3, beta=(-1.0, -0.3),
                gamma=False, general=None, zero_alpha=False):
    """Model with one m atom and one mu atom. ``general`` = (c_lo, c_hi)
    switches to a general drift with two rank-one terms of those weights."""
    g = r.base
    alpha_m = np.zeros((d, d)) if zero_alpha else r.jit(_spd(g, d, *alpha))
    b = (d - 1) * alpha_m + r.jit(0.5 * _psd(g, d)) + r.jit(b_extra * np.eye(d))
    beta_m = r.jit(_stable_beta(g, d, *beta))
    if general:
        terms = [(g.uniform(*general), _psd(g, d)) for _ in range(2)]
        drift = {"type": "general",
                 "matrix": _lst(_general_drift_matrix(r, d, beta_m, terms))}
    else:
        drift = _lyap(beta_m)
    m = [(r.jit(_atom_site(g, d, g.uniform(0.3, 0.8))), r.jit(g.uniform(0.2, 0.5)))]
    mu = [(r.jit(_atom_site(g, d, g.uniform(0.2, 0.5))), r.jit(0.2 * _psd(g, d)))]
    return _params(d, alpha_m, b, drift, gamma=r.jit(0.3 * _psd(g, d)) if gamma else None,
                   m=m, mu=mu)


def _mbajd(r, d, with_m):
    """b = 2 p alpha, Lyapunov drift, no killing, no mu: an MBAJD."""
    g = r.base
    alpha = r.jit(_spd(g, d, 0.4, 0.8))
    p = (d - 1) / 2.0 + float(r.jit(g.uniform(0.5, 1.0)))
    beta = r.jit(_stable_beta(g, d, -1.0, -0.3))
    m = ([(r.jit(_atom_site(g, d, g.uniform(0.3, 0.8))), r.jit(g.uniform(0.2, 0.5)))]
         if with_m else [])
    return _params(d, alpha, 2.0 * p * alpha, _lyap(beta), m=m)


def _ugrid(r, d, n_interior, n_imaginary):
    """Interior points have a positive definite real part; imaginary points
    have real part 0, so the ODE route takes ``solve_boundary``."""
    g = r.base
    us = [{"re": _lst(r.jit(_spd(g, d, 0.3, 1.2))), "im": _lst(r.jit(_sym(g, d, 0.3)))}
          for _ in range(n_interior)]
    us += [{"re": _lst(np.zeros((d, d))), "im": _lst(r.jit(_sym(g, d, 0.5)))}
           for _ in range(n_imaginary)]
    return {"u": us, "times": TIMES}


def _x(r, d):
    return {"x": _lst(r.jit(_spd(r.base, d, 0.3, 0.8)))}


def _criterion3_model(r):
    """The acceptance criterion-3 model (d = 2, beta = -I/2, alpha = I,
    b = 2 I, one m atom, one mu atom), each component scaled by its own
    seeded factor."""
    return _params(2, r.jit(np.eye(2)), r.jit(2.0 * np.eye(2)), _lyap(r.jit(-0.5 * np.eye(2))),
                   m=[(r.jit([[0.5, 0.1], [0.1, 0.3]]), r.jit(0.4))],
                   mu=[(r.jit(np.diag([0.3, 0.2])), r.jit([[0.4, 0.1], [0.1, 0.3]]))])


def _general_d3_model(r):
    """Strongly mean-reverting so the transform at u = I stays well above 0."""
    return _jump_model(r, 3, alpha=(0.3, 0.5), b_extra=0.1, beta=(-1.2, -0.6),
                       general=(0.05, 0.1))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

_BASE_SEED = 20110404  # structure of every base model; never the workload seed


class Workload:
    name: str
    why: str
    threads: int  # PSDAFFINE_THREADS for the child interpreter
    tag: int
    # whether rows_per_s scales each command's wall time by the calibration
    # loop (worker.calibrate); set from paired runs, README.md lists them
    calibrated: bool

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def _draw(self, rnd: int, slot: int) -> _Draw:
        return _Draw(np.random.default_rng([_BASE_SEED, self.tag, slot]),
                     np.random.default_rng([self.seed, self.tag, rnd + 1, slot]))

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def round(self, rnd: int) -> list[Command]:
        """The commands of timed round ``rnd`` (0, 1, ...)."""
        raise NotImplementedError

    def warmup(self) -> list[Command]:
        """Smaller inputs outside the timed set (round -1)."""
        raise NotImplementedError


class OdeGrid(Workload):
    name = "ode-grid"
    why = ("transform --method ode on 16-point u-grids: _dopri5 and riccati do "
           "nearly all the work, the target of batched Riccati solves")
    threads = 1
    tag = 1
    calibrated = True
    SETS = (
        ("d2-gamma", lambda r: _jump_model(r, 2, gamma=True)),
        ("d3-general", lambda r: _jump_model(r, 3, general=(0.05, 0.15))),
        ("d5-lyap", lambda r: _jump_model(r, 5, alpha=(0.3, 0.6))),
        ("d2-zero-alpha", lambda r: _jump_model(r, 2, zero_alpha=True)),
        ("d2-mbajd", lambda r: _mbajd(r, 2, with_m=True)),
    )

    def _command(self, rnd, slot, n_interior, n_imaginary):
        name, make = self.SETS[slot]
        r = self._draw(rnd, slot)
        params = make(r)
        d = params["d"]
        stem = f"r{rnd}s{slot}"
        pf = self._write(f"{stem}.params.json", params)
        uf = self._write(f"{stem}.u.json", _ugrid(r, d, n_interior, n_imaginary))
        xf = self._write(f"{stem}.x.json", _x(r, d))
        argv = ["transform", pf, uf, "--x", xf, "--method", "ode", "--out", "json"]
        # the MBAJD-shaped set is forced onto the ODE route so that the closed
        # form can check its rows
        return Command(argv, (n_interior + n_imaginary) * len(TIMES), "transform",
                       {"reference": "closed" if name.endswith("mbajd") else None})

    def round(self, rnd):
        half = GRID_POINTS // 2
        return [self._command(rnd, slot, half, half) for slot in range(len(self.SETS))]

    def warmup(self):
        return [self._command(-1, slot, 1, 1) for slot in range(len(self.SETS))]


class ClosedGrid(Workload):
    name = "closed-grid"
    why = ("transform --method closed on MBAJD specs: closedform does nearly all "
           "the work, the target of a closed form without global state")
    threads = 1
    tag = 2
    calibrated = True
    SETS = ((2, False), (2, True), (3, False), (3, True))

    def _command(self, rnd, slot, n_points):
        d, with_m = self.SETS[slot]
        r = self._draw(rnd, slot)
        stem = f"r{rnd}s{slot}"
        pf = self._write(f"{stem}.params.json", _mbajd(r, d, with_m))
        uf = self._write(f"{stem}.u.json", _ugrid(r, d, n_points, 0))
        xf = self._write(f"{stem}.x.json", _x(r, d))
        argv = ["transform", pf, uf, "--x", xf, "--method", "closed", "--out", "json"]
        return Command(argv, n_points * len(TIMES), "transform", {"reference": "ode"})

    def round(self, rnd):
        return [self._command(rnd, slot, GRID_POINTS) for slot in range(len(self.SETS))]

    def warmup(self):
        return [self._command(-1, slot, 1) for slot in range(len(self.SETS))]


class _Compare(Workload):
    """``compare`` at u = I and u = I/2 + iI, T = 1, x = I: two rows."""

    paths: int
    dt: float
    allowance: float
    model = None

    def _command(self, rnd, paths):
        r = self._draw(rnd, 0)
        params = self.model(r)
        d = params["d"]
        pf = self._write(f"r{rnd}.params.json", params)
        uf = self._write(f"r{rnd}.u.json", {"u": [
            {"re": _lst(np.eye(d))},
            {"re": _lst(0.5 * np.eye(d)), "im": _lst(np.eye(d))}]})
        mc_seed = int(r.pert.integers(0, 2**31))
        argv = ["compare", pf, "--u", uf, "-T", repr(MC_T), "--paths", str(paths),
                "--dt", repr(self.dt), "--seed", str(mc_seed),
                "--allowance", repr(self.allowance), "--out", "json"]
        return Command(argv, 2, "compare", {"allowance": self.allowance})

    def round(self, rnd):
        return [self._command(rnd, self.paths)]

    def warmup(self):
        return [self._command(-1, MC_WARMUP_PATHS)]


class McLyapD2(_Compare):
    name = "mc-lyap-d2"
    why = ("compare on the criterion-3 model, 8192 paths on 1 thread: analytic "
           "d=2 kernels, Poisson inversion, pre-drawn normals")
    # two threads are no faster on a 2-core host and far noisier
    threads = 1
    tag = 3
    # the host's speed swings move the calibration loop far more than the
    # d = 2 kernels on whole 4096-path arrays, so scaling adds noise here
    calibrated = False
    paths, dt, allowance = MC_LYAP_PATHS, MC_LYAP_DT, MC_LYAP_ALLOWANCE
    model = staticmethod(_criterion3_model)


class McGeneralD3(_Compare):
    name = "mc-general-d3"
    why = ("compare at d=3 with general drift, 2048 paths on 1 thread: the eigh "
           "branch and the per-path GeneralDrift.apply loop")
    threads = 1
    tag = 4
    calibrated = True
    paths, dt, allowance = MC_GEN_PATHS, MC_GEN_DT, MC_GEN_ALLOWANCE
    model = staticmethod(_general_d3_model)


WORKLOADS = {w.name: w for w in (OdeGrid, ClosedGrid, McLyapD2, McGeneralD3)}
