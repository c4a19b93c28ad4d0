"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Every tolerance is pinned
here; the random inputs are drawn from fixed seeds so each criterion is a
deterministic check.
"""

import time

import numpy as np
import pytest

from psdaffine import (
    AffineParams,
    AtomicMeasure,
    LyapunovDrift,
    MatrixAtomicMeasure,
    MBAJDSpec,
    SimConfig,
    TruncatedParams,
    boundary_limit,
    detruncate,
    estimate_transform,
    estimate_transforms,
    frobenius,
    generator_exp,
    growth_constant,
    lemma_b_form,
    mbajd_phi,
    mbajd_psi,
    riccati_quadratic_real,
    solve,
    solve_boundary,
    trace_inner,
    transform,
)
from conftest import (
    random_admissible,
    random_interior_u,
    random_mu_measure,
    random_psd,
    random_spd,
    random_stable_beta,
    random_sym,
)


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _u_grid(rng, d, n=5):
    """Deterministic grid of complex symmetric data with PD real part; the
    first point is real."""
    grid = [np.eye(d, dtype=complex)]
    for k in range(n - 1):
        re = random_spd(rng, d, 0.4, 1.6)
        im = random_sym(rng, d, 0.6) if k % 2 == 0 else np.zeros((d, d))
        grid.append(re + 1j * im)
    return grid


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# ---------------------------------------------------------------------------
# 1 + 2: ODE vs closed form
# ---------------------------------------------------------------------------

TIMES = (0.25, 0.5, 1.0, 2.0)


def _ode_vs_closed(spec, rng, compare_psi=True):
    params = spec.to_affine_params()
    x = np.eye(spec.d)
    worst = 0.0
    for u in _u_grid(rng, spec.d):
        sol = solve(params, u, max(TIMES))
        for t in TIMES:
            phi_o, psi_o = sol.eval(t)
            phi_c = mbajd_phi(spec, u, t)
            psi_c = mbajd_psi(spec, u, t)
            v_o = np.exp(-phi_o - trace_inner(psi_o, x))
            v_c = np.exp(-phi_c - trace_inner(psi_c, x))
            worst = max(worst, _rel(phi_o, phi_c), abs(v_o - v_c) / abs(v_c))
            if compare_psi:
                worst = max(worst, frobenius(psi_o - psi_c) / frobenius(psi_c))
    return worst


def test_criterion_01_ode_vs_closed_form_wishart():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for d in (2, 3):
        spec = MBAJDSpec(d=d, alpha=np.eye(d),
                         beta=random_stable_beta(rng, d, -1.0, -0.1),
                         p=(d - 1) / 2 + 0.5)
        worst = max(worst, _ode_vs_closed(spec, rng))
    elapsed = time.perf_counter() - t0
    _report(1, "ODE vs closed form (Wishart)",
            worst <= 1e-6 and elapsed <= 5.0,
            f"max rel err {worst:.2e}, {elapsed:.2f}s (limit 5s)")


def test_criterion_02_ode_vs_closed_form_mbajd_jumps():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for d in (2, 3):
        site_small = random_psd(rng, d) + 0.1 * np.eye(d)
        site_small *= 0.6 / frobenius(site_small)
        site_big = random_psd(rng, d) + 0.1 * np.eye(d)
        site_big *= 1.8 / frobenius(site_big)
        spec = MBAJDSpec(
            d=d, alpha=np.eye(d), beta=random_stable_beta(rng, d, -1.0, -0.1),
            p=(d - 1) / 2 + 0.5,
            m=AtomicMeasure(atoms=((site_small, 0.5), (site_big, 0.25))))
        worst = max(worst, _ode_vs_closed(spec, rng))
    elapsed = time.perf_counter() - t0
    _report(2, "ODE vs closed form (MBAJD with jumps)",
            worst <= 1e-6 and elapsed <= 10.0,
            f"max rel err {worst:.2e}, {elapsed:.2f}s (limit 10s)")


# ---------------------------------------------------------------------------
# 3: Monte Carlo vs ODE
# ---------------------------------------------------------------------------


def _mc_benchmark_params():
    m = AtomicMeasure(atoms=((np.array([[0.5, 0.1], [0.1, 0.3]]), 0.4),))
    mu = MatrixAtomicMeasure(atoms=((np.diag([0.3, 0.2]),
                                     np.array([[0.4, 0.1], [0.1, 0.3]])),))
    return AffineParams(d=2, alpha=np.eye(2), b=2.0 * np.eye(2),
                        drift=LyapunovDrift(beta=-0.5 * np.eye(2)), m=m, mu=mu)


def test_criterion_03_mc_vs_ode():
    t0 = time.perf_counter()
    params = _mc_benchmark_params()
    x = np.eye(2)
    u_list = (np.eye(2, dtype=complex), 0.5 * np.eye(2) + 1j * np.eye(2))
    detail = []

    ok = True
    # one simulation for both u values: the estimates are bit-identical to
    # one estimate_transform call per u
    ests = estimate_transforms(params, u_list, x, 1.0,
                               SimConfig(n_paths=100_000, dt=2.0**-10, seed=2024))
    for k, (u, est) in enumerate(zip(u_list, ests)):
        ode = transform(params, u, x, 1.0)
        bound = 3.0 * est.stderr + 0.005
        gap = abs(est.mean - ode)
        ok = ok and gap <= bound
        detail.append(f"u{k}: |MC-ODE|={gap:.4f} bound={bound:.4f}")

    # dt-halving trend, averaged over five fixed seeds
    ode_i = transform(params, u_list[0], x, 1.0)
    avg_errs = []
    for dt in (2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10):
        errs = [abs(estimate_transform(
            params, u_list[0], x, 1.0,
            SimConfig(n_paths=40_000, dt=dt, seed=seed, antithetic=True)).mean - ode_i)
            for seed in range(5)]
        avg_errs.append(float(np.mean(errs)))
    trend_ok = all(avg_errs[i + 1] <= avg_errs[i] for i in range(3))
    detail.append("trend " + " >= ".join(f"{e:.5f}" for e in avg_errs))

    elapsed = time.perf_counter() - t0
    _report(3, "MC vs ODE", ok and trend_ok and elapsed <= 600.0,
            "; ".join(detail) + f", {elapsed:.0f}s (limit 600s)")


# ---------------------------------------------------------------------------
# 4 + 5: Gronwall bound and interior preservation on a random suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def interior_suite():
    rng = np.random.default_rng(404)
    runs = []
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        alpha_class = "zero" if i % 4 == 3 else "invertible"
        params = random_admissible(rng, d, alpha_class=alpha_class,
                                   with_jumps=True, with_gamma=(i % 3 == 0),
                                   general_drift=(i % 5 == 0))
        u0 = random_interior_u(rng, d, imag_scale=0.8)
        runs.append((params, u0, solve(params, u0, 2.0)))
    return runs


def test_criterion_04_gronwall_bound(interior_suite):
    violations = 0
    worst_ratio = 0.0
    for params, u0, sol in interior_suite:
        envelope = (np.exp(growth_constant(params) * sol.times)
                    * np.sqrt(1.0 + frobenius(u0) ** 2) * (1.0 + 1e-9))
        norms = np.linalg.norm(sol.psi, axis=(1, 2))
        worst_ratio = max(worst_ratio, float((norms / envelope).max()))
        violations += int((norms > envelope).any())
    _report(4, "Gronwall bound suite", violations == 0,
            f"{len(interior_suite)} solves, worst norm/envelope {worst_ratio:.3f}")


def test_criterion_05_interior_preservation(interior_suite):
    violations = 0
    worst = np.inf
    for _, _, sol in interior_suite:
        lams = [np.linalg.eigvalsh(p.real)[0] for p in sol.psi]
        worst = min(worst, min(lams))
        violations += int(min(lams) <= 0.0)
    _report(5, "interior preservation", violations == 0,
            f"min eigenvalue of Re psi over all accepted steps {worst:.3e}")


# ---------------------------------------------------------------------------
# 6 + 7: matrix inequality suites
# ---------------------------------------------------------------------------


def test_criterion_06_trace_form_inequality_suite():
    rng = np.random.default_rng(606)
    worst = np.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        b = random_psd(rng, n) + 1j * random_sym(rng, n)
        worst = min(worst, lemma_b_form(b, a))
    counter = riccati_quadratic_real(np.array([[1.0, 1j], [1j, 4.0]]),
                                     np.diag([1.0, 0.0]))
    ok = worst >= -1e-12 and abs(counter - (-1.0)) <= 1e-9
    _report(6, "trace-form inequality suite", ok,
            f"min over 1e4 samples {worst:.2e}; degenerate counterexample {counter:.12f}")


def test_criterion_07_norm_trace_suite():
    rng = np.random.default_rng(707)
    worst = -np.inf
    for _ in range(10_000):
        d = int(rng.integers(2, 7))
        xi = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        worst = max(worst, frobenius(xi) - float(np.trace(xi)))
    _report(7, "norm vs trace on the cone", worst <= 1e-12,
            f"max ||xi|| - tr(xi) = {worst:.2e}")


# ---------------------------------------------------------------------------
# 8: flow property
# ---------------------------------------------------------------------------


def test_criterion_08_flow_property():
    rng = np.random.default_rng(808)
    worst_psi = 0.0
    worst_phi = 0.0
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        params = random_admissible(rng, d, with_jumps=(i % 2 == 0))
        u = random_interior_u(rng, d)
        t = 0.25 if i % 2 == 0 else 0.5
        s = 0.5 if i % 3 == 0 else 0.25
        sol_full = solve(params, u, t + s)
        sol_t = solve(params, u, t)
        sol_s = solve(params, sol_t.psi_at(t), s)
        worst_psi = max(worst_psi,
                        frobenius(sol_full.psi_at(t + s) - sol_s.psi_at(s))
                        / (1 + frobenius(u)))
        worst_phi = max(worst_phi, abs(sol_full.phi_at(t + s) - sol_t.phi_at(t)
                                       - sol_s.phi_at(s)))
    ok = worst_psi <= 1e-6 and worst_phi <= 1e-6
    _report(8, "flow property", ok,
            f"worst psi gap {worst_psi:.2e}, worst phi gap {worst_phi:.2e}")


# ---------------------------------------------------------------------------
# 9: detruncation invariance
# ---------------------------------------------------------------------------


def test_criterion_09_detruncation_invariance():
    rng = np.random.default_rng(909)
    worst = 0.0
    for i in range(20):
        d = 2 if i % 2 == 0 else 3
        base = random_admissible(rng, d, with_jumps=False)
        mu = random_mu_measure(rng, d, 2, ball="both")  # one inside, one outside
        tp = TruncatedParams(d=d, alpha=base.alpha, b=base.b,
                             drift_tilde=base.drift, m=base.m, mu=mu)
        params = detruncate(tp)
        u = random_interior_u(rng, d)
        s_trunc = solve(tp, u, 1.0)
        s_free = solve(params, u, 1.0)
        worst = max(worst, abs(s_trunc.phi_at(1.0) - s_free.phi_at(1.0)),
                    frobenius(s_trunc.psi_at(1.0) - s_free.psi_at(1.0)))
    _report(9, "detruncation invariance", worst <= 1e-9,
            f"worst endpoint gap {worst:.2e} over 20 parameter sets")


# ---------------------------------------------------------------------------
# 10: boundary initial data as interior limits
# ---------------------------------------------------------------------------


def test_criterion_10_boundary_limit_convergence():
    rng = np.random.default_rng(1010)
    worst_gap = 0.0
    worst_mod = 0.0
    all_converged = True
    for i in range(20):
        d = 2 if i % 2 == 0 else 3
        params = random_admissible(rng, d, with_jumps=(i % 2 == 0),
                                   alpha_class="zero" if i % 5 == 4 else "invertible")
        if i < 10:
            u0 = 1j * random_sym(rng, d)  # purely imaginary
        else:
            re = random_psd(rng, d, rank=int(rng.integers(1, d)))
            u0 = re + 1j * random_sym(rng, d, 0.5)
        T = 1.0
        # the Cauchy property is asserted on the pinned range n <= 64; the
        # sequence is continued further only to sharpen the extrapolated limit
        lim = boundary_limit(params, u0, T, n_max=256)
        pinned = [tail for n, tail in zip(lim.ns[1:], lim.tail) if n <= 64]
        decreasing = all(pinned[j + 1] <= pinned[j] * (1 + 1e-9)
                         for j in range(len(pinned) - 1))
        all_converged = all_converged and lim.converged and decreasing
        direct = solve_boundary(params, u0, T)
        worst_gap = max(worst_gap,
                        frobenius(lim.psi_limit - direct.psi_at(T)),
                        abs(lim.phi_limit - direct.phi_at(T)))
        x = random_psd(rng, d)
        for phi_n, psi_n in zip(lim.phi_values, lim.psi_values):
            worst_mod = max(worst_mod, abs(np.exp(-phi_n - trace_inner(psi_n, x))))
    ok = all_converged and worst_gap <= 1e-6 and worst_mod <= 1.0 + 1e-10
    _report(10, "boundary-limit convergence", ok,
            f"worst limit gap {worst_gap:.2e}, max modulus {worst_mod:.6f}")


# ---------------------------------------------------------------------------
# 11: generator consistency
# ---------------------------------------------------------------------------


def test_criterion_11_generator_consistency():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for i in range(30):
        d = 2 if i % 2 == 0 else 3
        params = random_admissible(rng, d, with_jumps=True, with_gamma=(i % 3 == 0))
        u = random_interior_u(rng, d)
        x = random_psd(rng, d)
        base = transform(params, u, x, 0.0)

        def fwd(h):
            return (transform(params, u, x, h) - base) / h

        h = 2e-3
        d1, d2, d3 = fwd(h), fwd(h / 2), fwd(h / 4)
        extrap = (4 * (2 * d3 - d2) - (2 * d2 - d1)) / 3
        worst = max(worst, abs(generator_exp(params, u, x) - extrap))
    _report(11, "generator consistency", worst <= 1e-6,
            f"worst |generator - extrapolated derivative| = {worst:.2e}")
