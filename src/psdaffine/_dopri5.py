"""Embedded Dormand-Prince 5(4) integrator with PI step control and quartic
dense output, over a batch of independent rows.

Each row keeps its own time, step size, controller memory, accept or reject
decision and status, so it takes exactly the steps it would take alone; only
the right-hand side is evaluated on every row at once, one call per
Runge-Kutta stage, always on all rows in column order. A row that finishes,
stops or underflows holds still: it steps with h = 0 at its last accepted
state until the batch ends. Kept self-contained so the caller can monitor
every accepted step and stop a row early; the per-step hook, the per-row
step control and the rejected-step count are the reason this is not
delegated to a library solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Butcher tableau
C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
A = [
    np.array([], dtype=float),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between 5th and embedded 4th order weights
E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# quartic interpolant (Shampine): y(t0 + theta h) = y0 + h K^T P [theta, .., theta^4]
P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
# PI controller exponents for an order-5 error estimate
PI_ALPHA = 0.7 / 5.0
PI_BETA = 0.4 / 5.0
# step budget (accepted plus rejected) of each row
MAX_STEPS = 1_000_000


class StepBudgetError(RuntimeError):
    """A row used up its step budget before reaching the end time."""


@dataclass
class IntegrationResult:
    """Accepted-step grid of one row with quartic dense output: step k starts
    at (ts[k], ys[k]) with size hs[k] and interpolant coefficients qs[k] (N, 4)."""

    status: str  # "finished" | "stopped" | "underflow"
    ts: np.ndarray
    ys: np.ndarray
    hs: np.ndarray  # kept, not derived: ts[k+1] - ts[k] is rounded
    qs: np.ndarray
    n_accepted: int
    n_rejected: int

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def eval(self, t: float) -> np.ndarray:
        if not len(self.hs) or t <= self.ts[0]:
            return self.ys[0].copy()
        # step k covers [ts[k], ts[k+1]]
        k = min(int(np.searchsorted(self.ts, t, side="right")) - 1, len(self.hs) - 1)
        h = self.hs[k]
        theta = (t - self.ts[k]) / h
        p = np.array([theta, theta**2, theta**3, theta**4])
        return self.ys[k] + h * (self.qs[k] @ p)


@dataclass
class BatchResult:
    """One IntegrationResult per row; the step counts are totals over the rows."""

    rows: list[IntegrationResult]

    # the per-layer benchmark reads these totals as a solve's step counts
    @property
    def n_accepted(self) -> int:
        return sum(r.n_accepted for r in self.rows)

    @property
    def n_rejected(self) -> int:
        return sum(r.n_rejected for r in self.rows)


def row_norms(y: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of y (m, N), with the bits of
    np.linalg.norm on that row alone: one dot product per contiguous row
    (np.linalg.norm(y, axis=1), or a dot product over strided rows, rounds
    differently)."""
    y = np.ascontiguousarray(y)
    return np.sqrt((y[:, None, :] @ y[:, :, None])[:, 0, 0])


class _Row:
    """Step-control state and accepted-step record of one row."""

    __slots__ = ("t", "h", "err_prev", "status", "ts", "ys", "hs", "qs", "n_rej")

    def __init__(self, t: float, y: np.ndarray):
        self.t = t
        self.h = 0.0
        self.err_prev = 1.0
        self.status = None
        self.ts = [t]
        self.ys = [y]
        self.hs: list[float] = []
        self.qs: list[np.ndarray] = []
        self.n_rej = 0

    def result(self) -> IntegrationResult:
        n = len(self.hs)
        return IntegrationResult(self.status, np.array(self.ts), np.array(self.ys),
                                 np.array(self.hs),
                                 np.array(self.qs).reshape(n, self.ys[0].size, 4),
                                 n, self.n_rej)


def _error_norms(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                 rtol: float, atol: float) -> np.ndarray:
    """Scaled max-norm of each row's error estimate; inf where the step or
    its error is not finite."""
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    with np.errstate(invalid="ignore"):
        ratio = np.abs(err) / scale
    finite = np.isfinite(ratio).all(axis=1) & np.isfinite(y1).all(axis=1)
    return np.where(finite, ratio.max(axis=1), np.inf)


def _initial_steps(f, t0, y0, f0, t_end, rtol, atol) -> list[float]:
    """Hairer-Norsett-Wanner starting step of each row of y0 (n, N)."""
    scale = atol + rtol * np.abs(y0)
    root_n = max(1, y0.shape[1]) ** 0.5
    d0s = row_norms(y0 / scale) / root_n
    d1s = row_norms(f0 / scale) / root_n
    h0s = []
    for d0, d1 in zip(d0s.tolist(), d1s.tolist()):
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0s.append(min(h0, t_end - t0))
    # a row whose f0 / scale overflowed probes at h = 0, keeps h = 0 and
    # reports the underflow
    h0 = np.array([h0 if h0 > 0.0 else 0.0 for h0 in h0s])
    f1 = np.asarray(f(t0 + h0, (y0 + h0[:, None] * f0).T), dtype=float).T
    with np.errstate(divide="ignore", invalid="ignore"):
        d2s = row_norms((f1 - f0) / scale) / root_n / h0
    hs = []
    for h0, d1, d2 in zip(h0.tolist(), d1s.tolist(), d2s.tolist()):
        if h0 == 0.0:
            h1 = 0.0
        elif max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        hs.append(min(100 * h0, h1, t_end - t0))
    return hs


def integrate(f, t0: float, y0: np.ndarray, t_end: float, rtol: float, atol: float,
              monitor=None) -> BatchResult:
    """Integrate y' = f(t, y) from t0 to t_end for every column of y0 (N, n).

    As in scipy's ``solve_ivp(vectorized=True)``, states are columns:
    ``f(t, Y)`` takes the times t (n,) and states Y (N, n) of all n rows,
    in the order of y0, and returns their rates (N, n); a row that has
    ended is passed at its last accepted state. ``monitor(t, Y)``, if
    given, runs on the rows that accepted a step and returns one bool per
    row; False stops that row (status "stopped") with the step kept. Each
    row has its own budget of MAX_STEPS steps; a row that exceeds it raises
    StepBudgetError.
    """
    y = np.asarray(y0, dtype=float).T.copy(order="C")  # rows (n, N)
    n, size = y.shape
    f0 = np.asarray(f(np.full(n, float(t0)), y.T), dtype=float).T
    if not np.all(np.isfinite(f0)):
        raise FloatingPointError("right-hand side not finite at the initial state")
    rows = [_Row(float(t0), y[i].copy()) for i in range(n)]
    for row, h in zip(rows, _initial_steps(f, float(t0), y, f0, t_end, rtol, atol)):
        row.h = h

    k = np.empty((n, 7, size))
    k[:, 0] = f0
    while True:
        live = []  # rows still stepping; the others hold still with h = 0
        for i, row in enumerate(rows):
            if row.status is None:
                if not row.t < t_end:
                    row.status = "finished"
                elif len(row.hs) + row.n_rej > MAX_STEPS:
                    raise StepBudgetError(
                        f"step budget of {MAX_STEPS} steps exhausted at t = {row.t:.6g}")
                else:
                    # a step clamped to the rest of the span always runs: the
                    # last one may be 1 ulp long, and so may a whole tiny span
                    rest = t_end - row.t
                    if row.h < min(rest, 1e-14 * max(1.0, abs(row.t))):
                        row.status = "underflow"
                    row.h = min(row.h, rest)
            if row.status is None:
                live.append(i)
            else:
                row.h = 0.0
        if not live:
            break

        h = np.array([row.h for row in rows])
        t = np.array([row.t for row in rows])
        hc = h[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, 7):
                k[:, s] = np.asarray(f(t + C[s] * h, (y + hc * (A[s] @ k[:, :s])).T)).T
            y_new = y + hc * (B @ k)
            err_vec = hc * (E @ k)
        errs = _error_norms(err_vec, y, y_new, rtol, atol).tolist()
        q = k.transpose(0, 2, 1) @ P

        accepted = []
        for i in live:
            row, err = rows[i], errs[i]
            if err > 1.0:
                row.n_rej += 1
                factor = max(MIN_FACTOR, SAFETY * err ** (-0.2)) if np.isfinite(err) else MIN_FACTOR
                row.h *= factor
                continue
            # copies: a row's record must not keep the whole batch's arrays alive
            row.hs.append(row.h)
            row.qs.append(q[i].copy())
            row.t = row.t + row.h
            row.ts.append(row.t)
            row.ys.append(y_new[i].copy())
            accepted.append(i)
        if not accepted:
            continue
        y[accepted] = y_new[accepted]
        k[accepted, 0] = k[accepted, 6]  # FSAL

        going = [True] * len(accepted)
        if monitor is not None:
            t_acc = np.array([rows[i].t for i in accepted])
            going = np.asarray(monitor(t_acc, y_new[accepted].T), dtype=bool).tolist()
        for i, go in zip(accepted, going):
            row = rows[i]
            if not go:
                row.status = "stopped"
                continue
            err = max(errs[i], 1e-10)  # keep the controller bounded
            factor = SAFETY * err ** (-PI_ALPHA) * row.err_prev ** PI_BETA
            row.h = row.h * min(MAX_FACTOR, max(MIN_FACTOR, factor))
            row.err_prev = err

    results = []
    while rows:  # each row's step lists go as soon as its arrays exist
        results.append(rows.pop(0).result())
    return BatchResult(results)
