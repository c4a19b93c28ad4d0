"""The Dormand-Prince 8(5,3) pair of ``_dopri5``: its tableau, its order and
its dense output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from psdaffine import _dopri5, solve_grid
from psdaffine.riccati import RiccatiRHS
from conftest import random_admissible, random_interior_u, random_sym
from test_riccati import GOLDEN_SOLVE, golden_solve_digest


def test_tableau_equals_scipy_dop853_coefficients():
    # SciPy's pure-Python DOP853 tables, read here only: the package keeps
    # its own constants so that the ODE route never imports SciPy
    from scipy.integrate._ivp import dop853_coefficients as ref
    n = ref.N_STAGES
    pairs = [(_dopri5.C, ref.C), (_dopri5.A, ref.A), (_dopri5.B, ref.B),
             (_dopri5.E5, ref.E5[:n]), (_dopri5.E3, ref.E3[:n]), (_dopri5.D, ref.D)]
    assert _dopri5.N_STAGES == n and ref.E5[n] == ref.E3[n] == 0.0
    for ours, theirs in pairs:
        assert ours.shape == theirs.shape
        np.testing.assert_array_max_ulp(ours, theirs, maxulp=1)


def test_fixed_steps_show_order_eight(monkeypatch):
    # y' = M y with a known solution; no step is rejected and none resized, so
    # each halving of h must cut the error at T by about 2^8
    m = np.array([[-0.5, 4.0], [-4.0, -0.5]])
    w, v = np.linalg.eig(m)

    def exact(t, y0):
        return (v @ np.diag(np.exp(w * t)) @ np.linalg.solve(v, y0)).real

    y0 = np.eye(2)  # two rows, one per column
    T = 2.0
    monkeypatch.setattr(_dopri5, "RTOL", 1e300)
    monkeypatch.setattr(_dopri5, "MIN_FACTOR", 1.0)
    monkeypatch.setattr(_dopri5, "MAX_FACTOR", 1.0)
    errs = []
    for h in (1 / 4, 1 / 8, 1 / 16):
        monkeypatch.setattr(_dopri5, "_initial_steps",
                            lambda f, t0, y, f0, t_end, h=h: [h] * y.shape[0])
        res = _dopri5.integrate(lambda t, y: m @ y, 0.0, y0, T,
                                monitor=lambda t, y: np.ones(y.shape[1], dtype=bool))
        assert [r.n_accepted for r in res.rows] == [round(T / h)] * 2
        assert res.n_rejected == 0
        errs.append(max(np.abs(r.ys[-1] - exact(T, y0[:, i])).max()
                        for i, r in enumerate(res.rows)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 7.5) & (orders < 8.5)), orders


def _error_norms_one_estimate_at_a_time(err5, err3, y0, y1):
    """The combined error norm as two scaled max-norms, one per estimate,
    and two finiteness tests."""
    scale = _dopri5.ATOL + _dopri5.RTOL * np.maximum(np.abs(y0), np.abs(y1))
    with np.errstate(invalid="ignore", over="ignore"):
        e5 = (np.abs(err5) / scale).max(axis=1)
        e3 = (np.abs(err3) / scale).max(axis=1)
        denom = np.hypot(e5, 0.1 * e3)
        err = e5 * np.divide(e5, denom, out=np.zeros_like(e5), where=denom > 0)
    return np.where(np.isfinite(denom) & np.isfinite(y1).all(axis=1), err, np.inf)


def test_error_norms_of_the_stacked_estimates_keep_every_bit():
    rng = np.random.default_rng(7)
    n, size = 40, 6
    y0 = rng.standard_normal((n, size)) * 10.0 ** rng.integers(-300, 300, (n, 1))
    est = rng.standard_normal((n, 2, size)) * 10.0 ** rng.integers(-320, 300, (n, 2, 1))
    y1 = y0 + rng.standard_normal((n, size)) * 1e-3 * np.abs(y0)
    est[:4, 1, 0] = 0.0  # zero 3rd-order entries, then rows of zero estimates
    est[4:6] = 0.0
    for i, value in enumerate((np.inf, -np.inf, np.nan)):  # non-finite steps or errors
        y1[6 + i, 1] = value
        est[9 + i, 0, 2] = value
        est[12 + i, 1, 3] = value
    y1[15], y0[15] = np.inf, np.inf  # a non-finite start
    y0[16, 0], y1[16, 0] = 1.7e308, 1.7e308  # finite, near the overflow
    got = _dopri5._error_norms(est, y0, y1)
    want = _error_norms_one_estimate_at_a_time(est[:, 0], est[:, 1], y0, y1)
    assert got.tobytes() == want.tobytes()
    assert np.isinf(got[6:16]).all() and (got[4:6] == 0.0).all()
    assert np.isfinite(got).sum() > 20 and (got[16:] > 1.0).any() and (got[16:] <= 1.0).any()


def test_last_step_one_ulp_short_of_the_horizon_is_no_underflow():
    # y' = 1 from y = 1.7: the last step, clamped to the rest of the span
    # from t < T / 2, lands 1 ulp short of T, and the next step is 1 ulp long
    T = 0.8685616084774966
    res = _dopri5.integrate(lambda t, y: np.ones_like(y), 0.0, np.full((1, 1), 1.7), T,
                            monitor=lambda t, y: np.ones(y.shape[1], dtype=bool))
    row = res.rows[0]
    assert 0.0 < row.hs[-1] < 1e-14 * T  # the case this test is about
    assert row.status == "finished" and row.t_end == T
    assert abs(row.ys[-1][0] - (1.7 + T)) <= 1e-15


# the largest error of the 5(4) pair (RTOL 1e-9, ATOL 1e-11, quartic dense
# output) at the off-step times below, measured against the same reference
OFF_STEP_ERROR_5_4 = 2.21e-11


def test_dense_output_is_no_less_accurate_than_the_5_4_pair():
    worst = 0.0
    for d, general, seed in ((2, False, 1), (2, True, 2), (3, True, 3), (5, False, 4)):
        rng = np.random.default_rng(seed)
        params = random_admissible(rng, d, with_gamma=True, general_drift=general)
        us = [random_interior_u(rng, d), 1j * random_sym(rng, d, 0.5),
              3 * random_interior_u(rng, d, 2.0)]
        rhs = RiccatiRHS(params)
        for u, sol in zip(us, solve_grid(params, us, 2.0)):
            assert sol.completed
            for t in (0.3, 0.77, 1.2, 1.9):
                assert t not in sol.times
                # the reference steps to t itself: no interpolant in it
                ref = solve_ivp(rhs, (0.0, t), rhs.pack(0j, u), method="DOP853",
                                rtol=1e-13, atol=1e-15).y[:, -1]
                y = rhs.pack(*sol.eval(t))
                worst = max(worst, np.abs(y - ref).max() / max(1.0, np.abs(ref).max()))
    assert worst <= OFF_STEP_ERROR_5_4


# NumPy's dispatch targets with AVX512 kernels; on a host without them the
# variable only warns, and both interpreters run the same kernels
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def test_ode_bits_do_not_depend_on_simd_dispatch():
    # the golden solves in an interpreter whose NumPy may not use its AVX512
    # kernels give the bytes they give here; NumPy's vector power rounds the
    # last bit differently with and without them, so the step control must
    # not use it
    cases = sorted(GOLDEN_SOLVE)
    script = ("import json\n"
              "from test_riccati import golden_solve_digest\n"
              f"print(json.dumps([golden_solve_digest(*case) for case in {cases!r}]))\n")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tests, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [golden_solve_digest(*case) for case in cases]


def test_requested_times_skip_the_dense_stages_of_each_step():
    # y' = y^2 from y = 1 (stopped by the monitor before its blow-up at t = 1)
    # and from y = 0.3 (finishes at T). The loop makes 11 calls per batch
    # step, one more where some row accepts (the steps the monitor sees) and
    # 2 at the start; the dense stages take 3 calls per wave, whose number is
    # the most steps that one row keeps: every accepted step without t_out,
    # the steps that hold a requested time with it. A time inside a step
    # that holds none raises, and so does one past a stopped row's end
    y0 = np.array([[1.0, 0.3]])
    T = 1.5
    times = [0.5, T]

    def run(**kwargs):
        calls = {"rhs": 0, "monitor": 0}

        def f(t, y):
            calls["rhs"] += 1
            return y * y

        def monitor(t, y):
            calls["monitor"] += 1
            return y[0] < 1e3
        return _dopri5.integrate(f, 0.0, y0, T, monitor, **kwargs), calls

    full, full_calls = run()
    part, part_calls = run(t_out=times)
    assert [r.status for r in part.rows] == ["stopped", "finished"]
    batch_steps = max(r.n_accepted + r.n_rejected for r in full.rows)
    loop_calls = 2 + 11 * batch_steps + full_calls["monitor"]
    assert part_calls["monitor"] == full_calls["monitor"] > 10
    assert full_calls["rhs"] == loop_calls + 3 * max(r.n_accepted for r in full.rows)
    assert [len(r.dense) for r in part.rows] == [1, 2]
    assert part_calls["rhs"] == loop_calls + 3 * 2
    for full_row, row in zip(full.rows, part.rows):
        assert row.ts.tobytes() == full_row.ts.tobytes()
        assert full_row.dense.tolist() == list(range(len(full_row.hs)))
        assert len(row.qs) == len(row.dense)
        for t in times:
            if t <= row.t_end:
                assert row.eval(t).tobytes() == full_row.eval(t).tobytes()
        t = 0.5 * (row.ts[1] + row.ts[2])  # inside the second step, before 0.5
        assert t < 0.5
        with pytest.raises(_dopri5.NoDenseOutputError, match="no dense output"):
            row.eval(t)
        assert row.eval(0.0).tobytes() == row.ys[0].tobytes()
    with pytest.raises(_dopri5.NoDenseOutputError):
        part.rows[0].eval(T)
