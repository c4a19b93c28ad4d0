import dataclasses
import hashlib
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdaffine import (
    AffineParams,
    AtomicMeasure,
    DomainError,
    GeneralDrift,
    LyapunovDrift,
    MatrixAtomicMeasure,
    SimConfig,
    diffusion_factor,
    estimate_transform,
    estimate_transforms,
    is_psd,
    simulate_paths,
    trace_inner,
    transform,
)
from psdaffine.model import sym_to_vec, vec_to_sym
from psdaffine.symcore import symmetrize
from psdaffine.montecarlo import (
    PoissonOverflowError,
    _advance2,
    _advance_stacked,
    _poisson_from_uniform,
    _Scheme,
)
from conftest import (
    random_admissible,
    random_m_measure,
    random_mu_measure,
    random_psd,
    random_spd,
    random_sym,
)


def conservative_params(d=2, m_atoms=(), mu_atoms=()):
    return AffineParams(d=d, alpha=np.eye(d), b=2 * np.eye(d),
                        drift=LyapunovDrift(beta=-0.5 * np.eye(d)),
                        m=AtomicMeasure(atoms=m_atoms),
                        mu=MatrixAtomicMeasure(atoms=mu_atoms))


# ---------------------------------------------------------------------------
# diffusion factor
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


@pytest.mark.parametrize("lam", [0.1, 50.0, 700.0])
def test_poisson_inversion_at_the_largest_uniform(lam):
    # the rounded CDF sum stops growing below the largest uniform under 1;
    # the inversion must stop there too, not spin to its iteration guard
    from scipy.stats import poisson

    u = np.nextafter(1.0, 0.0)
    start = time.perf_counter()
    counts = _poisson_from_uniform(np.array([0.5, lam]), np.array([0.3, u]))
    elapsed = time.perf_counter() - start
    assert counts[0] == 0
    assert abs(counts[1] - poisson.ppf(u, lam)) <= 1
    assert elapsed < 0.1


@pytest.mark.parametrize("lam, u", [(800.0, 0.5)])
def test_poisson_overflow_is_a_named_domain_error(lam, u):
    # exp(-800) underflows to 0
    with pytest.raises(PoissonOverflowError, match="smaller dt") as info:
        _poisson_from_uniform(np.array([0.5, lam]), np.array([0.3, u]))
    assert isinstance(info.value, DomainError)
    assert f"intensity {lam:g} per step" in str(info.value)


def test_poisson_overflow_survives_pickling():
    # an error raised in a worker process reaches the parent pickled
    err = pickle.loads(pickle.dumps(PoissonOverflowError(800.0)))
    assert type(err) is PoissonOverflowError and err.lam == 800.0
    assert str(err) == str(PoissonOverflowError(800.0))


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


def step(params, x, dt, rng):
    """One Euler step of the d = 2 kernel of the block loop from a single
    state, fed 4 normals, then one uniform per m atom and one per mu atom,
    from rng."""
    scheme = _Scheme.of(params)
    g = rng.standard_normal((2, 2))
    u = rng.random(scheme.n_atoms)
    return _advance2(x[..., None], g[..., None], u[:, None], dt, scheme)[0][..., 0]


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


def test_step_result_stays_on_cone():
    params = conservative_params()
    rng = np.random.default_rng(5)
    x = np.eye(2)
    for _ in range(200):
        x = step(params, x, 0.05, rng)
        assert is_psd(x)


@st.composite
def _d2_steps(draw):
    """One d = 2 step: a model, states (2, 2, n), draws and dt. States are
    drawn from four kinds: PSD with every eigenvalue at least 1e-3 of the
    largest, rank-deficient diagonal ones, 0, and near-boundary ones that a
    long step with strong noise pushes out of the cone. A singular state
    off the axes is left out: there the spectral square root itself is only
    accurate to about sqrt(eps) times the state, far above the 1e-10 rule."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([1, 2, 3, 7, 64]))
    params = random_admissible(rng, 2, with_jumps=False, general_drift=draw(st.booleans()))
    params = dataclasses.replace(params, alpha=params.alpha * draw(st.sampled_from([1.0, 9.0])),
                                 b=params.b * draw(st.sampled_from([1.0, 9.0])) + params.alpha * 8,
                                 m=random_m_measure(rng, 2, draw(st.integers(0, 2))),
                                 mu=random_mu_measure(rng, 2, draw(st.integers(0, 2))))
    scale = 10.0 ** rng.uniform(-2, 2, size=n)
    kind = draw(st.sampled_from(["psd", "rank-deficient", "zero", "boundary"]))
    if kind == "psd":
        xs = [random_spd(rng, 2, 1e-3, 1.0) * s for s in scale]
    elif kind == "rank-deficient":
        xs = [np.diag(rng.permutation([s, 0.0])) for s in scale]
    elif kind == "zero":
        xs = [np.zeros((2, 2))] * n
    else:
        xs = [random_spd(rng, 2, 1e-3, 2e-3) * s for s in scale]
    # exactly symmetric, as every state after the first step is
    x = np.ascontiguousarray(symmetrize(np.stack(xs)).transpose(1, 2, 0))
    dt = draw(st.sampled_from([2.0**-10, 0.1, 0.5]))
    scheme = _Scheme.of(params)
    return x, rng.standard_normal((2, 2, n)), rng.random((scheme.n_atoms, n)), dt, scheme


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_d2_steps())
def test_d2_component_step_matches_the_spectral_step(case):
    # the reference is the stacked step of d >= 3 (spectral square root and
    # projection) on the same states and draws
    x, g, u, dt, scheme = case
    got, counts, lam = _advance2(x, g, u, dt, scheme)
    ref, ref_counts, ref_lam = _advance_stacked(np.ascontiguousarray(x.transpose(2, 0, 1)),
                                                g, u, dt, scheme)
    ref = ref.transpose(1, 2, 0)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max())
    assert (got == got.swapaxes(0, 1)).all()
    assert np.array_equal(counts, ref_counts) and np.array_equal(lam, ref_lam)


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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("antithetic", [False, True])
def test_estimate_transforms_equals_one_u_estimates(monkeypatch, antithetic, threads):
    # 600 steps: two full draw chunks and a partial one; 101-path blocks,
    # rounded up to whole antithetic pairs (102 + 102 + 46 paths)
    import psdaffine.montecarlo as mc
    monkeypatch.setenv("PSDAFFINE_THREADS", threads)
    monkeypatch.setattr(mc, "_BLOCK_PATHS", 101)
    params = golden_params(2)
    cfg = SimConfig(n_paths=250, dt=0.001, seed=8, antithetic=antithetic)
    us = [np.eye(2) + 0j, 0.5 * np.eye(2) + 1j * np.eye(2), np.zeros((2, 2), dtype=complex)]
    shared = estimate_transforms(params, us, np.eye(2), 0.6, cfg)
    assert shared[0].n_steps == 600
    for est, u in zip(shared, us):
        one = estimate_transform(params, u, np.eye(2), 0.6, cfg)
        assert est == one  # mean and stderr bit for bit


def _no_simulation(*args, **kwargs):
    raise AssertionError("simulate_paths called")


def test_estimate_transforms_empty_grid_does_not_simulate(monkeypatch):
    import psdaffine.montecarlo as mc
    monkeypatch.setattr(mc, "simulate_paths", _no_simulation)
    assert estimate_transforms(conservative_params(), [], np.eye(2), 1.0,
                               SimConfig(n_paths=8, dt=0.1, seed=0)) == []


def test_estimate_transforms_checks_every_u_before_simulating(monkeypatch):
    import psdaffine.montecarlo as mc
    monkeypatch.setattr(mc, "simulate_paths", _no_simulation)
    with pytest.raises(DomainError):
        estimate_transforms(conservative_params(), [np.eye(2) + 0j, -np.eye(2) + 0j],
                            np.eye(2), 1.0, SimConfig(n_paths=8, dt=0.1, seed=0))


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
    plus = estimate_transform(params, 1j * w, np.eye(2), 0.5, cfg)
    minus = estimate_transform(params, 1j * -w, np.eye(2), 0.5, cfg)
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


def test_step_requires_conservative():
    params = AffineParams(d=2, alpha=np.eye(2), b=np.eye(2),
                          drift=LyapunovDrift(beta=np.zeros((2, 2))), c=1.0)
    with pytest.raises(DomainError):
        simulate_paths(params, np.eye(2), 0.01, SimConfig(n_paths=1, dt=0.01, seed=0))


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_sim_config_rejects_non_finite_dt(dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        SimConfig(n_paths=4, dt=dt, seed=0)


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_simulate_paths_rejects_non_finite_horizon(T):
    with pytest.raises(ValueError, match="T must be positive and finite"):
        simulate_paths(conservative_params(), np.eye(2), T, SimConfig(n_paths=4, dt=0.1, seed=0))


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
# must be stated with its size. The d = 3 digests were re-recorded when the
# d >= 3 projection began to rebuild every state from its eigh (it used to
# pass a whole batch through while every state was in the cone): terminal
# states moved by at most 7e-8 relative, estimates by at most 1.1e-10.
GOLDEN = {
    2: "15215249003867692abf1de5ca82daae56d0cd7c1f229c28d0fea64eb3421af7",
    3: "8d2a87262e73e86ed75131688399527f0a2e1b167b7ad52b9a7c8c6cae4958a8",
}


def _digest(stats):
    h = hashlib.sha256()
    for a in (stats.x_final, stats.jump_counts, stats.intensity_integrals):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("d", [2, 3])
def test_simulate_paths_golden_bits(monkeypatch, d):
    import psdaffine.montecarlo as mc
    monkeypatch.setattr(mc, "_BLOCK_PATHS", 160)  # two blocks: 160 + 140 paths
    stats = simulate_paths(golden_params(d), 0.5 * np.eye(d), 0.5,
                           SimConfig(n_paths=300, dt=2.0**-5, seed=2024))
    assert _digest(stats) == GOLDEN[d]


# The same digest over 600 steps: two full draw chunks and a partial one, in
# 25-path blocks, rounded up to whole antithetic pairs. They equal the
# digests of drawing each path's whole stream at once.
GOLDEN_CHUNKED = {
    (2, False): "fa15bb6122a9b931b4b0b49f3e4f0d757e31f96ccfab88bbff387820668ec985",
    (2, True): "e7b3ad840dc87e09c1c5cde206f35c24f35ee1bae8a1456e379b1916fc089b09",
    (3, False): "87b11e45152ee7dacbd8a318b14fce9a7e14b4c8212a96a233f37cbe3300b422",
    (3, True): "666e583184a3c16e26b31eba8c075f41c9231d433d8a695aa1e459b2cb04c34f",
}


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_simulate_paths_golden_bits_chunked(monkeypatch, d, antithetic):
    import psdaffine.montecarlo as mc
    monkeypatch.setattr(mc, "_BLOCK_PATHS", 25)  # 26 + 26 + 10 paths
    stats = simulate_paths(golden_params(d), 0.5 * np.eye(d), 0.6,
                           SimConfig(n_paths=62, dt=0.001, seed=2024, antithetic=antithetic))
    assert stats.n_steps == 600
    assert _digest(stats) == GOLDEN_CHUNKED[(d, antithetic)]


def test_simulate_paths_memory_flat_in_steps(monkeypatch):
    # the normals and uniforms are drawn in chunks of steps, so a path
    # block's peak memory does not grow with T / dt
    monkeypatch.setenv("PSDAFFINE_THREADS", "1")
    params = golden_params(2)
    peaks = []
    for n_steps in (512, 2048):
        tracemalloc.start()
        try:
            simulate_paths(params, 0.5 * np.eye(2), 1.0,
                           SimConfig(n_paths=512, dt=1.0 / n_steps, seed=3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.3 * peaks[0]
