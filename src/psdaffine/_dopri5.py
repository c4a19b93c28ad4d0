"""Embedded Dormand-Prince 8(5,3) integrator with step control on its
combined 5th/3rd-order error estimate and 7th-order dense output, over a
batch of independent rows.

Each row keeps its own time, step size, accept or reject decision and
status, so it takes exactly the steps it would take alone. That state is
arrays over the rows, and accepted and rejected steps share one controller
rule, whose power is Python's scalar pow (see _pow). The right-hand side is
evaluated on every row at once, one call per Runge-Kutta stage, always on
all rows in column order. A step takes 11 calls; once some row accepts it,
one more gives the rate at the step's end (the first stage of the next
step). The dense output of a step takes three more stages, which run after
the loop in waves for the accepted steps that keep it: every step, or the
steps that hold a requested time. Wave w holds the w-th kept step of every
row, so the calls still go to all rows. A row that finishes, stops or
underflows holds still: it steps with h = 0 at its last accepted state
until the batch ends, and sits there in a wave that holds no step of it.
The tableau is kept here as NumPy constants, so the ODE route imports no
SciPy. Kept self-contained so the caller can monitor every accepted step
and stop a row early; the per-step hook, the per-row step control and the
rejected-step count are the reason this is not delegated to a library
solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Butcher tableau of the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner,
# Solving ODEs I, 2nd ed. 1993, sec. II.10). Stages 0-11 make a step; stage 12
# is the rate at the step's end, whose row of A is the weights B, and the first
# stage of the next step; stages 13-15 serve the dense output only.
N_STAGES = 12
C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
              0.7777777777777778])
A = np.zeros((16, 16))
A[1, :1] = [0.05260015195876773]
A[2, :2] = [0.0197250569845379, 0.0591751709536137]
A[3, [0, 2]] = [0.02958758547680685, 0.08876275643042054]
A[4, [0, 2, 3]] = [0.2413651341592667, -0.8845494793282861, 0.924834003261792]
A[5, [0, 3, 4]] = [0.037037037037037035, 0.17082860872947386, 0.12546768756682242]
A[6, [0, 3, 4, 5]] = [0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125]
A[7, [0, 3, 4, 5, 6]] = [0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
                         -0.015319437748624402, 0.008273789163814023]
A[8, [0, 3, 4, 5, 6, 7]] = [0.6241109587160757, -3.3608926294469414, -0.868219346841726,
                            27.59209969944671, 20.154067550477894, -43.48988418106996]
A[9, [0, 3, 4, 5, 6, 7, 8]] = [0.47766253643826434, -2.4881146199716677, -0.590290826836843,
                               21.230051448181193, 15.279233632882423, -33.28821096898486,
                               -0.020331201708508627]
A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196]
A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636]
A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298]
A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
    0.1413124436746325]
A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
B = A[N_STAGES, :N_STAGES]
# B minus the weights of the embedded 5th-order and 3rd-order solutions
E5 = np.zeros(N_STAGES)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294]
E3 = np.zeros(N_STAGES)
E3[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082]
# the step and its two error estimates in one product
W = np.stack([B, E5, E3])
# 7th-order interpolant y(t0 + x h) = y0 + x (F0 + (1 - x) (F1 + x (F2 + ... x F6)))
# with F0 = y1 - y0, F1 = h f0 - F0, F2 = 2 F0 - h (f0 + f1) and F3..F6 = h D K
D = np.zeros((4, 16))
D[:, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
]

# the stages the dense stages and the interpolant read (0 and 5-12; F1 and F2
# read stages 0 and 12), the only ones an accepted step keeps for them
KEPT_STAGES = np.flatnonzero(A[N_STAGES + 1:, :N_STAGES + 1].any(axis=0)
                             | D[:, :N_STAGES + 1].any(axis=0))

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
# step-size exponent of the error estimate, which scales as h^8
ERR_EXPONENT = 1 / 8
# step budget (accepted plus rejected) of each row
MAX_STEPS = 1_000_000
# tolerances of the scaled error norm: ATOL + RTOL * max(|y0|, |y1|) per
# component; the interpolant errs about 10x more than the step ends
RTOL = 3e-11
ATOL = 3e-13


class StepBudgetError(RuntimeError):
    """A row used up its step budget before reaching the end time."""


class NoDenseOutputError(ValueError):
    """Evaluation inside a step that kept no dense output: the integration
    was asked for other times."""


@dataclass
class IntegrationResult:
    """Accepted-step grid of one row with 7th-order dense output: step k
    starts at (ts[k], ys[k]) with size hs[k]. qs[j] (7, N) holds the F0..F6
    of the interpolant (see D) of step dense[j]: of every step, or of the
    steps that hold a requested time."""

    status: str  # "finished" | "stopped" | "underflow"
    ts: np.ndarray
    ys: np.ndarray
    hs: np.ndarray  # kept, not derived: ts[k+1] - ts[k] is rounded
    qs: np.ndarray
    dense: np.ndarray  # ascending step indices of qs
    n_accepted: int
    n_rejected: int

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def eval(self, t: float) -> np.ndarray:
        """The state at t: ys[0] up to ts[0], the interpolant of the step
        that holds t after it, and that of the last step past t_end. Raises
        NoDenseOutputError where that step kept no dense output."""
        if not len(self.hs) or t <= self.ts[0]:
            return self.ys[0].copy()
        # step k covers [ts[k], ts[k+1]]
        k = min(int(np.searchsorted(self.ts, t, side="right")) - 1, len(self.hs) - 1)
        pos = int(np.searchsorted(self.dense, k))
        if pos == len(self.dense) or self.dense[pos] != k:
            raise NoDenseOutputError(
                f"no dense output at t = {t}: step {k} holds no requested time")
        x = (t - self.ts[k]) / self.hs[k]
        f = self.qs[pos]
        y = 0.0
        for j in range(6, -1, -1):
            y = (y + f[j]) * (1.0 - x if j % 2 else x)
        return self.ys[k] + y


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


def _error_norms(est: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """Combined error of each row, e5^2 / sqrt(e5^2 + 0.01 e3^2) of the
    scaled max-norms e5 and e3 of its 5th- and 3rd-order estimates, stacked
    in est (n, 2, N); inf where the step or its error is not finite. As
    y1 = y0 + step is not finite where y0 is not, max(|y0|, |y1|) is finite
    exactly where y1 is; a max does not overflow, so one test covers both."""
    big = np.maximum(np.abs(y0), np.abs(y1))
    with np.errstate(invalid="ignore", over="ignore"):
        e5, e3 = (np.abs(est) / (ATOL + RTOL * big)[:, None]).max(axis=2).T
        denom = np.hypot(e5, 0.1 * e3)
        err = e5 * np.divide(e5, denom, out=np.zeros_like(e5), where=denom > 0)
    return np.where(np.isfinite(np.maximum(denom, big.max(axis=1))), err, np.inf)


def _pow(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p per entry by Python's float power, which is libm's pow, so that
    the step sizes do not depend on the host: NumPy's vector power rounds the
    last bit differently on some inputs where it dispatches to AVX512."""
    return np.array([v ** p for v in x.tolist()])


def _initial_steps(f, t0, y0, f0, t_end) -> np.ndarray:
    """Hairer-Norsett-Wanner starting step of each row of y0 (n, N)."""
    scale = ATOL + RTOL * np.abs(y0)
    root_n = max(1, y0.shape[1]) ** 0.5
    d0 = row_norms(y0 / scale) / root_n
    d1 = row_norms(f0 / scale) / root_n
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1),
                        t_end - t0)
    # a row whose f0 / scale overflowed probes at h = 0, keeps h = 0 (h1 >= 0)
    # and reports the underflow
    h0 = np.where(h0 > 0.0, h0, 0.0)
    f1 = np.asarray(f(t0 + h0, (y0 + h0[:, None] * f0).T), dtype=float).T
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 = row_norms((f1 - f0) / scale) / root_n / h0
        d = np.where(d2 > d1, d2, d1)  # max(d1, d2), which is d1 where d2 is nan
        h1 = np.where(d <= 1e-15, np.maximum(1e-6, h0 * 1e-3),
                      _pow(0.01 / d, ERR_EXPONENT))
    return np.minimum(np.minimum(100 * h0, h1), t_end - t0)


def _stages(f, k: np.ndarray, t: np.ndarray, h: np.ndarray, y: np.ndarray, stages) -> None:
    """k[:, s] = f(t + C[s] h, y + h sum_j A[s, j] k[:, j]) for each s in
    stages, in order, on every row."""
    hc = h[:, None]
    for s in stages:
        k[:, s] = np.asarray(f(t + C[s] * h, (y + hc * (A[s, :s] @ k[:, :s])).T)).T


DENSE_STAGES = range(N_STAGES + 1, len(C))


def _dense_waves(f, kept: list, records: list, t: np.ndarray, y: np.ndarray) -> None:
    """Append to each row's records the interpolants F0..F6 of its kept
    steps, (step index, KEPT_STAGES, increment), as wave after wave of the
    three dense stages on every row: wave w holds the w-th kept step of each
    row, at the time, size and state of its start, and a row with no w-th
    kept step sits at its last state t, y with h = 0, as a held row does in
    the loop."""
    n, size = y.shape
    for w in range(max(map(len, kept), default=0)):
        rows = [i for i in range(n) if len(kept[i]) > w]
        tw, hw, yw = t.copy(), np.zeros(n), y.copy()
        kw = np.zeros((n, len(C), size))
        step = np.empty((len(rows), size))
        for j, i in enumerate(rows):
            idx, kw[i, KEPT_STAGES], step[j] = kept[i][w]
            kept[i][w] = None  # a step's stages go once its wave has them
            ts, ys, hs, _, dense = records[i]
            tw[i], hw[i], yw[i] = ts[idx], hs[idx], ys[idx]
            dense.append(idx)
        with np.errstate(over="ignore", invalid="ignore"):
            _stages(f, kw, tw, hw, yw, DENSE_STAGES)
            k, hc = kw[rows], hw[rows, None]
            q = np.empty((len(rows), 7, size))
            q[:, 0] = step
            q[:, 1] = hc * k[:, 0] - step
            q[:, 2] = 2 * step - hc * (k[:, 0] + k[:, N_STAGES])
            q[:, 3:] = hc[:, None] * (D @ k)
        for j, i in enumerate(rows):
            records[i][3].append(q[j].copy())


def integrate(f, t0: float, y0: np.ndarray, t_end: float, monitor,
              t_out=None) -> BatchResult:
    """Integrate y' = f(t, y) from t0 to t_end for every column of y0 (N, n).

    As in scipy's ``solve_ivp(vectorized=True)``, states are columns:
    ``f(t, Y)`` takes the times t (n,) and states Y (N, n) of all n rows,
    in the order of y0, and returns their rates (N, n); a row that has
    ended is passed at its last accepted state. ``monitor(t, Y)`` runs on
    the rows that accepted a step and returns one bool per row; False stops
    that row (status "stopped") with the step kept. Each row has its own
    budget of MAX_STEPS steps; a row that exceeds it raises StepBudgetError.

    Every accepted step gets dense output unless ``t_out`` gives the times
    to be read. Then only the steps that hold one of them do: a step
    [t_old, t_new] holds every t_out in it, both ends included, which is
    the step lookup of IntegrationResult.eval up to t_end. A time at or
    before t0 needs no step. The values at those times have the bits of
    the full dense output, with three fewer right-hand-side calls per
    accepted step.
    """
    y = np.asarray(y0, dtype=float).T.copy(order="C")  # rows (n, N)
    n, size = y.shape
    t0 = float(t0)
    f0 = np.asarray(f(np.full(n, t0), y.T), dtype=float).T
    if not np.all(np.isfinite(f0)):
        raise FloatingPointError("right-hand side not finite at the initial state")
    t = np.full(n, t0)
    h = np.asarray(_initial_steps(f, t0, y, f0, t_end), dtype=float)
    running = np.ones(n, dtype=bool)
    status = np.full(n, None, dtype=object)
    n_rej = np.zeros(n, dtype=int)
    steps = 0  # steps taken, accepted or rejected, by every row still running
    # each row's accepted times, states, step sizes, interpolants and their
    # step indices, as copies: a row's record must not keep the whole
    # batch's arrays alive
    records = [([t0], [y[i].copy()], [], [], []) for i in range(n)]
    if t_out is not None:
        t_out = np.sort(np.asarray(t_out, dtype=float).ravel())
        t_out = t_out[t_out > t0]
    kept = [[] for _ in range(n)]  # per row: (step index, KEPT_STAGES, increment)

    k = np.empty((n, len(C), size))
    k[:, 0] = f0
    while True:
        status[running & ~(t < t_end)] = "finished"
        running &= t < t_end
        if steps > MAX_STEPS and running.any():
            raise StepBudgetError(
                f"step budget of {MAX_STEPS} steps exhausted at t = {t[running.argmax()]:.6g}")
        # a step clamped to the rest of the span always runs: the last one
        # may be 1 ulp long, and so may a whole tiny span
        rest = t_end - t
        underflow = h < np.minimum(rest, 1e-14 * np.maximum(1.0, np.abs(t)))
        status[running & underflow] = "underflow"
        running &= ~underflow
        if not running.any():
            break
        # the rows that ended hold still with h = 0
        h = np.where(running, np.minimum(h, rest), 0.0)
        steps += 1

        with np.errstate(over="ignore", invalid="ignore"):
            _stages(f, k, t, h, y, range(1, N_STAGES))
            prod = h[:, None, None] * (W @ k[:, :N_STAGES])
            step = prod[:, 0]
            y_new = y + step
        err = _error_norms(prod[:, 1:], y, y_new)
        accepted = running & (err <= 1.0)
        n_rej += running & ~accepted
        # one controller for both outcomes: an error above 1 gives a factor
        # below SAFETY and an infinite one MIN_FACTOR; the floor keeps 0 out
        # of the power
        factor = np.minimum(MAX_FACTOR, np.maximum(
            MIN_FACTOR, SAFETY * _pow(np.maximum(err, 1e-10), -ERR_EXPONENT)))

        if accepted.any():
            acc = np.flatnonzero(accepted)
            # the rate at the step's end
            with np.errstate(over="ignore", invalid="ignore"):
                k[:, N_STAGES] = np.asarray(f(t + h, y_new.T)).T
            t_old = t[acc]
            # a step clamped to the rest of the span can round past t_end
            t[acc] = np.minimum(t[acc] + h[acc], t_end)
            y[acc] = y_new[acc]
            holds = (np.ones(len(acc), dtype=bool) if t_out is None else
                     np.searchsorted(t_out, t[acc], side="right")
                     > np.searchsorted(t_out, t_old))
            for i, keep in zip(acc.tolist(), holds.tolist()):
                ts, ys, hs, _, _ = records[i]
                ts.append(float(t[i]))
                ys.append(y[i].copy())
                hs.append(float(h[i]))
                if keep:
                    kept[i].append((len(hs) - 1, k[i, KEPT_STAGES], step[i].copy()))
            stopped = acc[~np.asarray(monitor(t[acc], y[acc].T), dtype=bool)]
            status[stopped], running[stopped] = "stopped", False
            k[acc, 0] = k[acc, N_STAGES]  # FSAL
        h = h * factor

    _dense_waves(f, kept, records, t, y)
    results = []
    for row_status, row_rej in zip(status, n_rej.tolist()):
        ts, ys, hs, qs, dense = records.pop(0)  # each row's lists go as soon as its arrays exist
        results.append(IntegrationResult(
            row_status, np.array(ts), np.array(ys), np.array(hs),
            np.array(qs).reshape(len(qs), 7, size), np.array(dense, dtype=int), len(hs), row_rej))
    return BatchResult(results)
