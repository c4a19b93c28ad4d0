import hashlib

import numpy as np
import pytest

from psdaffine import (
    AffineParams,
    AtomicMeasure,
    DomainError,
    GeneralDrift,
    LyapunovDrift,
    MatrixAtomicMeasure,
    SimConfig,
    diffusion_factor,
    estimate_char_function,
    estimate_transform,
    is_psd,
    simulate_paths,
    step,
    trace_inner,
    transform,
)
from psdaffine.model import sym_to_vec, vec_to_sym
from psdaffine.montecarlo import (
    _advance,
    _poisson_from_uniform,
    _project_psd_batch,
    _Scheme,
    _sqrt_psd_batch,
)
from conftest import random_psd, random_sym


def conservative_params(d=2, m_atoms=(), mu_atoms=()):
    return AffineParams(d=d, alpha=np.eye(d), b=2 * np.eye(d),
                        drift=LyapunovDrift(beta=-0.5 * np.eye(d)),
                        m=AtomicMeasure(atoms=m_atoms),
                        mu=MatrixAtomicMeasure(atoms=mu_atoms))


# ---------------------------------------------------------------------------
# diffusion factor and batched kernels
# ---------------------------------------------------------------------------


def test_diffusion_factor_identity_and_zero():
    f = diffusion_factor(np.eye(3))
    assert f.residual(np.eye(3)) <= 1e-12
    f0 = diffusion_factor(np.zeros((2, 2)))
    np.testing.assert_allclose(f0.sigma, np.zeros((2, 2)))


def test_diffusion_factor_random_psd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha = random_psd(rng, 3)
        assert diffusion_factor(alpha).residual(alpha) <= 1e-12


def test_diffusion_factor_rejects_indefinite():
    with pytest.raises(DomainError):
        diffusion_factor(np.diag([1.0, -0.1]))


@pytest.mark.parametrize("d", [2, 3])
def test_batched_sqrt_and_projection_match_reference(d):
    from psdaffine import psd_project, sqrt_psd
    rng = np.random.default_rng(1)
    xs_psd = np.stack([random_psd(rng, d) for _ in range(50)])
    roots = _sqrt_psd_batch(xs_psd)
    for x, r in zip(xs_psd, roots):
        np.testing.assert_allclose(r, sqrt_psd(x), atol=1e-10)
    xs_sym = np.stack([random_sym(rng, d) for _ in range(50)])
    projs = _project_psd_batch(xs_sym)
    for x, p in zip(xs_sym, projs):
        np.testing.assert_allclose(p, psd_project(x), atol=1e-10)


def test_poisson_inversion_is_exact_poisson():
    import math

    rng = np.random.default_rng(2)
    lam = 0.8
    u = rng.random(200_000)
    counts = _poisson_from_uniform(np.full_like(u, lam), u)
    # compare the first few cell frequencies against the exact pmf at 5 sigma
    n = u.size
    for k in (0, 1, 2, 3):
        pmf = np.exp(-lam) * lam**k / math.factorial(k)
        freq = float((counts == k).mean())
        tol = 5 * np.sqrt(pmf * (1 - pmf) / n)
        assert abs(freq - pmf) < tol


@pytest.mark.parametrize("d", [2, 3])
def test_batched_drift_matches_per_matrix(d):
    rng = np.random.default_rng(40 + d)
    xs = np.stack([random_sym(rng, d) for _ in range(64)])
    lyap = LyapunovDrift(beta=rng.standard_normal((d, d)))
    assert np.array_equal(lyap.apply(xs), np.stack([lyap.apply(x) for x in xs]))
    dd = d * (d + 1) // 2
    gen = GeneralDrift(matrix=rng.standard_normal((dd, dd)), d=d)
    looped = np.stack([vec_to_sym(gen.matrix @ sym_to_vec(x), d) for x in xs])
    np.testing.assert_allclose(gen.apply(xs), looped, rtol=0, atol=1e-13)
    np.testing.assert_allclose(gen.apply(xs), np.stack([gen.apply(x) for x in xs]),
                               rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# single step
# ---------------------------------------------------------------------------


def test_step_draw_order_feeds_the_kernel():
    # d*d normals, then one uniform per m atom and one per mu atom
    params = conservative_params(m_atoms=((0.3 * np.eye(2), 0.7),),
                                 mu_atoms=((0.2 * np.eye(2), 0.5 * np.eye(2)),))
    x = random_psd(np.random.default_rng(7), 2)
    got = step(params, x, 0.1, np.random.default_rng(13))
    rng = np.random.default_rng(13)
    g = rng.standard_normal((2, 2))
    u = rng.random(2)
    want = _advance(x[None], g[None], u[None], 0.1, _Scheme.of(params))[0][0]
    assert np.array_equal(got, want)


def test_step_all_zero_params_is_identity():
    params = AffineParams(d=2, alpha=np.zeros((2, 2)), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))))
    x = random_psd(np.random.default_rng(3), 2)
    rng = np.random.default_rng(0)
    np.testing.assert_allclose(step(params, x, 0.01, rng), x, atol=1e-14)


def test_step_pure_constant_drift_exact():
    b = np.array([[0.5, 0.1], [0.1, 0.3]])
    params = AffineParams(d=2, alpha=np.zeros((2, 2)), b=b,
                          drift=LyapunovDrift(beta=np.zeros((2, 2))))
    x = random_psd(np.random.default_rng(4), 2)
    got = step(params, x, 0.25, np.random.default_rng(0))
    np.testing.assert_allclose(got, x + 0.25 * b, atol=1e-14)


def test_step_requires_conservative():
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))), c=1.0)
    with pytest.raises(DomainError):
        step(params, np.eye(2), 0.01, np.random.default_rng(0))


def test_step_result_stays_on_cone():
    params = conservative_params()
    rng = np.random.default_rng(5)
    x = np.eye(2)
    for _ in range(200):
        x = step(params, x, 0.05, rng)
        assert is_psd(x)


def test_pure_jump_frequency_poisson_oracle():
    # one constant atom, all other dynamics off: jump count per step is
    # Poisson(w dt); check the mean over one million step-samples at 4 sigma
    xi = np.diag([1.0, 0.5])
    w, dt = 0.8, 0.125
    params = AffineParams(d=2, alpha=np.zeros((2, 2)), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))),
                          m=AtomicMeasure(atoms=((xi, w),)))
    cfg = SimConfig(n_paths=125_000, dt=dt, seed=11)
    stats = simulate_paths(params, np.zeros((2, 2)), 1.0, cfg)  # 8 steps per path
    n_samples = cfg.n_paths * stats.n_steps
    lam = w * dt
    mean_count = stats.jump_counts[:, 0].sum() / n_samples
    sigma = np.sqrt(lam / n_samples)
    assert abs(mean_count - lam) < 4 * sigma


def test_jump_compensator_match_state_dependent():
    # realized counts vs the time-integrated intensity along the same paths
    xi = np.diag([0.4, 0.2])
    wm = np.array([[0.5, 0.1], [0.1, 0.4]])
    params = conservative_params(mu_atoms=((xi, wm),))
    cfg = SimConfig(n_paths=20_000, dt=2.0**-7, seed=12)
    stats = simulate_paths(params, np.eye(2), 1.0, cfg)
    realized = stats.jump_counts[:, 0]
    predicted = stats.intensity_integrals[:, 0]
    diff = realized.mean() - predicted.mean()
    # the difference of path means is a martingale increment average
    sigma = realized.std(ddof=1) / np.sqrt(cfg.n_paths)
    assert abs(diff) < 4 * sigma


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


def test_estimate_u0_zero_exact_total_mass():
    params = conservative_params()
    cfg = SimConfig(n_paths=500, dt=0.125, seed=1)
    est = estimate_transform(params, np.zeros((2, 2), dtype=complex), np.eye(2), 1.0, cfg)
    assert est.mean == 1.0 + 0.0j
    assert est.stderr == 0.0


def test_estimate_short_horizon_near_initial_value():
    params = AffineParams(d=2, alpha=np.zeros((2, 2)), b=np.zeros((2, 2)),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))))
    u0 = np.array([[0.7, 0.1], [0.1, 0.4]]) + 0j
    x = random_psd(np.random.default_rng(6), 2)
    cfg = SimConfig(n_paths=16, dt=1e-4, seed=2)
    est = estimate_transform(params, u0, x, 1e-4, cfg)
    assert est.mean == pytest.approx(np.exp(-trace_inner(u0, x)), abs=1e-12)
    assert est.n_steps == 1


def test_estimate_deterministic_for_fixed_seed():
    params = conservative_params(m_atoms=((0.3 * np.eye(2), 0.5),))
    cfg = SimConfig(n_paths=4000, dt=2.0**-6, seed=77)
    u0 = 0.5 * np.eye(2) + 0.2j * np.eye(2)
    a = estimate_transform(params, u0, np.eye(2), 0.5, cfg)
    b = estimate_transform(params, u0, np.eye(2), 0.5, cfg)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = estimate_transform(params, u0, np.eye(2), 0.5,
                           SimConfig(n_paths=4000, dt=2.0**-6, seed=78))
    assert c.mean != a.mean


def test_estimate_independent_of_block_partition():
    import psdaffine.montecarlo as mc
    params = conservative_params()
    cfg = SimConfig(n_paths=600, dt=2.0**-5, seed=5)
    u0 = np.eye(2) + 0j
    ref = estimate_transform(params, u0, np.eye(2), 0.5, cfg)
    old = mc._BLOCK_PATHS
    try:
        mc._BLOCK_PATHS = 100  # forces six blocks instead of one
        split = estimate_transform(params, u0, np.eye(2), 0.5, cfg)
    finally:
        mc._BLOCK_PATHS = old
    assert split.mean == ref.mean and split.stderr == ref.stderr


def test_estimate_matches_ode_within_tolerance():
    params = conservative_params(m_atoms=((0.4 * np.eye(2), 0.4),))
    cfg = SimConfig(n_paths=20_000, dt=2.0**-8, seed=9)
    u0 = np.eye(2, dtype=complex)
    x = np.eye(2)
    est = estimate_transform(params, u0, x, 1.0, cfg)
    ode = transform(params, u0, x, 1.0)
    assert abs(est.mean - ode) <= 3 * est.stderr + 0.01


def test_char_function_conjugate_symmetry_same_seed():
    params = conservative_params(m_atoms=((0.3 * np.eye(2), 0.5),))
    cfg = SimConfig(n_paths=2000, dt=2.0**-6, seed=21)
    w = np.array([[0.6, 0.2], [0.2, 0.9]])
    plus = estimate_char_function(params, w, np.eye(2), 0.5, cfg)
    minus = estimate_char_function(params, -w, np.eye(2), 0.5, cfg)
    # same seed means identical paths, so the estimates are exact conjugates
    assert minus.mean == pytest.approx(np.conj(plus.mean), abs=0)
    assert abs(plus.mean) <= 1.0 + 3 * plus.stderr


def test_antithetic_pairing_and_stderr_units():
    params = conservative_params()
    cfg = SimConfig(n_paths=4000, dt=2.0**-6, seed=31, antithetic=True)
    u0 = np.eye(2, dtype=complex)
    est = estimate_transform(params, u0, np.eye(2), 0.5, cfg)
    ode = transform(params, u0, np.eye(2), 0.5)
    assert abs(est.mean - ode) <= 4 * est.stderr + 0.01
    plain = estimate_transform(params, u0, np.eye(2), 0.5,
                               SimConfig(n_paths=4000, dt=2.0**-6, seed=31))
    # variance reduction on a smooth monotone payoff
    assert est.stderr < plain.stderr
    with pytest.raises(ValueError):
        SimConfig(n_paths=4001, dt=0.1, seed=0, antithetic=True)


def test_simulation_rejects_killing():
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))),
                          gamma=0.1 * np.eye(2))
    with pytest.raises(DomainError):
        estimate_transform(params, np.eye(2) + 0j, np.eye(2), 1.0,
                           SimConfig(n_paths=8, dt=0.1, seed=0))


def test_final_states_are_psd():
    params = conservative_params(mu_atoms=((0.3 * np.eye(2), 0.2 * np.eye(2)),))
    stats = simulate_paths(params, np.eye(2), 0.5, SimConfig(n_paths=300, dt=2.0**-6, seed=4))
    for x in stats.x_final:
        assert is_psd(x)


def golden_params(d):
    ones, eye = np.ones((d, d)), np.eye(d)
    alpha = 0.5 * eye + 0.1 * ones
    return AffineParams(
        d=d, alpha=alpha, b=d * alpha,
        drift=LyapunovDrift(beta=-0.6 * eye + 0.2 * np.triu(ones, 1)),
        m=AtomicMeasure(atoms=((0.3 * eye + 0.05 * ones, 0.8),)),
        mu=MatrixAtomicMeasure(atoms=((0.2 * np.diag(np.arange(1.0, d + 1)), 0.4 * eye),)))


# SHA-256 of x_final, jump_counts and intensity_integrals (recorded with
# NumPy 2.4 and OpenBLAS on x86-64; another BLAS/LAPACK build may move them).
# Cone projection is active on about 7% (d = 2) and 12% (d = 3) of the
# path-steps. A change of these bits changes every Monte Carlo estimate and
# must be stated with its size.
GOLDEN = {
    2: "15215249003867692abf1de5ca82daae56d0cd7c1f229c28d0fea64eb3421af7",
    3: "c505058b59ccf1dfb5ab8304aee8aee7d05920b57aa75aea40eb52a4c9eecf61",
}


@pytest.mark.parametrize("d", [2, 3])
def test_simulate_paths_golden_bits(monkeypatch, d):
    import psdaffine.montecarlo as mc
    monkeypatch.setattr(mc, "_BLOCK_PATHS", 160)  # two blocks: 160 + 140 paths
    stats = simulate_paths(golden_params(d), 0.5 * np.eye(d), 0.5,
                           SimConfig(n_paths=300, dt=2.0**-5, seed=2024))
    h = hashlib.sha256()
    for a in (stats.x_final, stats.jump_counts, stats.intensity_integrals):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert h.hexdigest() == GOLDEN[d]
