"""Embedded Dormand-Prince 5(4) integrator with PI step control and quartic
dense output.

Kept self-contained so the caller can monitor every accepted step (norm
growth, cone distance) and stop the integration early; the per-step hook and
the rejected-step count are the reason this is not delegated to a library
solver.
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
# step budget (accepted plus rejected) of one integration
MAX_STEPS = 1_000_000


@dataclass
class IntegrationResult:
    """Accepted-step grid with quartic dense output: step k starts at
    (ts[k], ys[k]) with size hs[k] and interpolant coefficients qs[k] (N, 4)."""

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


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray,
                rtol: float, atol: float) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    with np.errstate(invalid="ignore"):
        ratio = np.abs(err) / scale
    if not np.all(np.isfinite(ratio)):
        return np.inf
    return float(ratio.max()) if ratio.size else 0.0


def _initial_step(f, t0, y0, f0, t_end, rtol, atol):
    # Hairer-Norsett-Wanner starting step heuristic
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.linalg.norm(y0 / scale)) / max(1, y0.size) ** 0.5
    d1 = float(np.linalg.norm(f0 / scale)) / max(1, y0.size) ** 0.5
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t0)
    if not h0 > 0.0:  # f0 / scale overflowed; integrate reports the underflow
        return 0.0
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = float(np.linalg.norm((f1 - f0) / scale)) / max(1, y0.size) ** 0.5 / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end - t0)


def integrate(f, t0: float, y0: np.ndarray, t_end: float, rtol: float, atol: float,
              monitor=None) -> IntegrationResult:
    """Integrate y' = f(t, y) from t0 to t_end.

    ``monitor(t, y)``, if given, runs after every accepted step and returns
    False to stop the integration (status "stopped") with the step kept.
    """
    y = np.asarray(y0, dtype=float).copy()
    t = float(t0)
    f0 = np.asarray(f(t, y), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise FloatingPointError("right-hand side not finite at the initial state")
    h = _initial_step(f, t, y, f0, t_end, rtol, atol)

    ts = [t]
    ys = [y]
    hs: list[float] = []
    qs: list[np.ndarray] = []
    n_accepted = 0
    n_rejected = 0
    err_prev = 1.0
    k = np.empty((7, y.size))
    k[0] = f0

    def result(status: str) -> IntegrationResult:
        return IntegrationResult(status, np.array(ts), np.array(ys), np.array(hs),
                                 np.array(qs).reshape(len(hs), y.size, 4),
                                 n_accepted, n_rejected)

    while t < t_end:
        if n_accepted + n_rejected > MAX_STEPS:
            raise RuntimeError("step budget exhausted")
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            return result("underflow")
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(1, 7):
                k[s] = f(t + C[s] * h, y + h * (A[s] @ k[:s]))
            y_new = y + h * (B @ k)
            err_vec = h * (E @ k)
        if not np.all(np.isfinite(y_new)):
            err = np.inf
        else:
            err = _error_norm(err_vec, y, y_new, rtol, atol)

        if err > 1.0:
            n_rejected += 1
            factor = max(MIN_FACTOR, SAFETY * err ** (-0.2)) if np.isfinite(err) else MIN_FACTOR
            h *= factor
            continue

        hs.append(h)
        qs.append(k.T @ P)
        t = t + h
        y = y_new
        ts.append(t)
        ys.append(y)
        n_accepted += 1
        k[0] = k[6]  # FSAL

        if monitor is not None and not monitor(t, y):
            return result("stopped")

        err = max(err, 1e-10)  # keep the controller bounded
        factor = SAFETY * err ** (-PI_ALPHA) * err_prev ** PI_BETA
        h = h * min(MAX_FACTOR, max(MIN_FACTOR, factor))
        err_prev = err

    return result("finished")
