import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

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
    frobenius,
    is_psd,
    simulate_paths,
    trace_inner,
    transform,
)
from psdaffine.model import sym_to_vec, vec_to_sym
import psdaffine.montecarlo as mc
from psdaffine.symcore import (
    _cone3,
    _spectrum3,
    _sqrt2,
    cone_project_sqrt,
    cone_sqrt,
    psd_project,
    symmetrize,
)
from psdaffine.montecarlo import (
    PathStepBudgetError,
    PoissonOverflowError,
    _advance,
    _cone_step,
    _poisson_from_uniform,
    _rows2,
    _Scheme,
)
from test_dopri5 import NO_AVX512
from conftest import (
    random_admissible,
    random_orthogonal,
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
    s = diffusion_factor(np.eye(3))
    assert frobenius(s.T @ s - np.eye(3)) <= 1e-12
    np.testing.assert_allclose(diffusion_factor(np.zeros((2, 2))), np.zeros((2, 2)))


def test_diffusion_factor_random_psd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        alpha = random_psd(rng, 3)
        s = diffusion_factor(alpha)
        assert frobenius(s.T @ s - alpha) <= 1e-12


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


def _no_block(*args, **kwargs):
    raise AssertionError("a path block was simulated beyond the path-step budget")


def test_path_step_budget_is_checked_before_any_block(monkeypatch):
    # a simulation runs up to the budget exactly and raises one path-step
    # beyond it, before any block is simulated; the error survives pickling
    monkeypatch.setattr(mc, "_MAX_PATH_STEPS", 120)
    params = conservative_params()
    stats = simulate_paths(params, np.eye(2), 1.0, SimConfig(n_paths=12, dt=0.1, seed=0))
    assert stats.n_steps == 10
    monkeypatch.setattr(mc, "_simulate_block", _no_block)
    for n_paths, T, dt in ((13, 1.0, 0.1), (12, 1.0, 0.09), (1, 1.0, 1e-300),
                           (10 ** 400, 1.0, 0.5), (1, 1e300, 1e-300)):
        with pytest.raises(PathStepBudgetError, match="exceed the budget") as info:
            simulate_paths(params, np.eye(2), T, SimConfig(n_paths=n_paths, dt=dt, seed=0))
        assert isinstance(info.value, DomainError)
        err = pickle.loads(pickle.dumps(info.value))
        assert type(err) is PathStepBudgetError and str(err) == str(info.value)


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


def _root2(x):
    """Square roots of d = 2 states on component rows, as the block loop starts them."""
    return _rows2(*_sqrt2(x[0, 0], x[0, 1], x[1, 1]))


def _rows(stack):
    """Component rows (d, d, n) of a stack (n, d, d)."""
    return np.ascontiguousarray(stack.transpose(1, 2, 0))


def step(params, x, dt, rng):
    """One Euler step of the block loop at d = 2 from a single state, fed 4
    normals, then one uniform per m atom and one per mu atom, from rng."""
    scheme = _Scheme.of(params)
    g = rng.standard_normal((2, 2))
    u = rng.random(scheme.n_atoms)
    x = x[..., None]
    return _advance(x, _root2(x), g[..., None], u[:, None], dt, scheme)[0][..., 0]


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


def _spectral_cone_step(x):
    """The cone step of d >= 3 (one eigh per state) at any d."""
    proj, root = cone_project_sqrt(x.transpose(2, 0, 1))
    return proj.transpose(1, 2, 0), root.transpose(1, 2, 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_d2_steps())
def test_d2_component_step_matches_the_spectral_step(case):
    # the reference is the same step with the spectral square root and
    # projection of d >= 3, on the same states and draws
    x, g, u, dt, scheme = case
    got, _, counts, lam = _advance(x, _root2(x), g, u, dt, scheme)
    with mock.patch.object(mc, "_cone_step", _spectral_cone_step):
        ref, _, ref_counts, ref_lam = _advance(x, _rows(cone_sqrt(x.transpose(2, 0, 1))), g, u, dt, scheme)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max())
    assert (got == got.swapaxes(0, 1)).all()
    assert np.array_equal(counts, ref_counts) and np.array_equal(lam, ref_lam)


def _rotated(rng, w):
    """A symmetric 3 x 3 state with eigenvalues w in a random basis."""
    q = random_orthogonal(rng, 3)
    return (q * np.asarray(w, dtype=float)) @ q.T


def test_d3_cone_step_passes_certified_states_and_projects_the_rest_by_eigh(monkeypatch):
    # certified states come back unchanged with their closed-form roots;
    # states with one negative eigenvalue, or inside the cone with l3 below
    # CONE3_CERTIFY l1, take the closed-form split, within 1e-12 of eigh;
    # only the rest (two negative eigenvalues, rank 1, near-equal l2 and l3,
    # 0) reach _project_psd_batch, and get the bits of cone_project_sqrt on
    # them alone
    rng = np.random.default_rng(7)
    inside = [random_spd(rng, 3, 0.1, 1.0) * 10.0 ** rng.uniform(-3, 3) for _ in range(40)]
    split = ([_rotated(rng, [1.0, rng.uniform(1e-2, 1.0), -10.0 ** rng.uniform(-12, -1)])
              for _ in range(20)]
             + [_rotated(rng, [1.0, rng.uniform(1e-2, 1.0), 10.0 ** rng.uniform(-6, -3.5)])
                for _ in range(10)])
    rest = ([_rotated(rng, [1.0, -0.2, -0.5]), _rotated(rng, [2.0, 0.0, 0.0]),
             _rotated(rng, [1.0, 1.0005e-3, 0.9995e-3]), np.zeros((3, 3)), -np.eye(3)])
    kinds = np.repeat([0, 1, 2], [len(inside), len(split), len(rest)])
    order = rng.permutation(len(kinds))
    x = _rows(symmetrize(np.stack([*inside, *split, *rest]))[order])
    kinds = kinds[order]
    seen = []

    def project(states):
        seen.append(states.copy())
        return cone_project_sqrt(states)
    monkeypatch.setattr(mc, "_project_psd_batch", project)
    proj, root = _cone_step(x)
    closed, certified = _cone3(x)[1], _spectrum3(x)[3]
    assert np.array_equal(certified, kinds == 0)
    assert np.array_equal(proj[..., certified], x[..., certified])
    assert np.array_equal(root[..., certified], closed[..., certified])
    ref_proj, ref_root = cone_project_sqrt(x[..., kinds == 1].transpose(2, 0, 1))
    for got, ref in ((proj, ref_proj), (root, ref_root)):
        err = (np.linalg.norm(got[..., kinds == 1].transpose(2, 0, 1) - ref, axis=(1, 2))
               / np.linalg.norm(ref, axis=(1, 2)))
        assert err.max() <= 1e-12
    assert len(seen) == 1 and np.array_equal(seen[0], x[..., kinds == 2].transpose(2, 0, 1))
    ref_proj, ref_root = cone_project_sqrt(seen[0])
    assert np.array_equal(proj[..., kinds == 2], _rows(ref_proj))
    assert np.array_equal(root[..., kinds == 2], _rows(ref_root))
    # a batch the closed form certifies whole passes through as the same array
    x = _rows(symmetrize(np.stack(inside)))
    assert _cone_step(x)[0] is x


# d = 3 cases keep their ids [general-n_atoms]; d = 2 ones are [d2-general-n_atoms]
@pytest.mark.parametrize("d, general, n_atoms", [
    pytest.param(d, general, n_atoms, id=("d2-" if d == 2 else "") + f"{general}-{n_atoms}")
    for d in (2, 3) for general in (False, True) for n_atoms in (0, 1, 2)])
def test_d3_step_matches_a_per_path_reference(d, general, n_atoms):
    # the component-row step against the scheme written out one matrix at a
    # time, X + (b + B(X)) dt + sqrt(X) G Sigma sqrt(dt) + (...)^T + sum_k
    # N_k xi_k and then psd_project, on the same states and draws; at d = 2 it
    # is the one check of the step's drift and jump matrices that does not use them
    rng = np.random.default_rng(300 + 10 * general + n_atoms)
    n, dt = 64, 0.1
    params = dataclasses.replace(
        random_admissible(rng, d, with_jumps=False, general_drift=general),
        m=random_m_measure(rng, d, n_atoms), mu=random_mu_measure(rng, d, n_atoms))
    if d == 2:  # a skew part in beta, so that B is not its own adjoint as with a symmetric beta
        skew = LyapunovDrift(beta=np.array([[0.0, 0.7], [-0.7, 0.0]]))
        params = dataclasses.replace(params, drift=(
            GeneralDrift(matrix=params.drift.matrix + skew.as_matrix(), d=d) if general
            else LyapunovDrift(beta=params.drift.beta + skew.beta)))
    # interior states, and small near-boundary ones that the step pushes out of the cone
    xs = symmetrize(np.stack([random_spd(rng, d, 1e-3, 1.0) * 10.0 ** rng.uniform(-3, 1)
                              for _ in range(n)]))
    roots = cone_sqrt(xs)
    scheme = _Scheme.of(params)
    g, u = rng.standard_normal((d, d, n)), rng.random((scheme.n_atoms, n))
    got, got_root, counts, lam = _advance(_rows(xs), _rows(roots), g, u, dt, scheme)

    sigma = diffusion_factor(params.alpha)
    sites = [xi for xi, _ in params.m.atoms] + [xi for xi, _ in params.mu.atoms]
    left_cone = 0
    for p, (x, root) in enumerate(zip(xs, roots)):
        # tr(W X) summed in index order, as the step sums it
        traces = [sum(sum(wm[i, l] * x[l, i] for l in range(d)) for i in range(d))
                  for _, wm in params.mu.atoms]
        ref_lam = np.array([w * dt for _, w in params.m.atoms]
                           + [max(tr, 0.0) * dt for tr in traces])
        ref_counts = _poisson_from_uniform(ref_lam, u[:, p])
        noise = root @ g[..., p] @ sigma * np.sqrt(dt)
        x_new = x + (params.b + params.drift.apply(x)) * dt + noise + noise.T
        for count, xi in zip(ref_counts, sites):
            x_new = x_new + count * xi
        left_cone += not is_psd(x_new)
        ref = psd_project(x_new)
        tol = 1e-10 * np.abs(ref).max()
        np.testing.assert_allclose(got[..., p], ref, rtol=0, atol=tol)
        np.testing.assert_allclose(got_root[..., p] @ got_root[..., p], ref, rtol=0, atol=tol)
        assert np.array_equal(lam[:, p], ref_lam) and np.array_equal(counts[:, p], ref_counts)
    assert left_cone  # the projection is exercised


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


@pytest.mark.parametrize("case", ["nan state", "not PSD", "negative T", "nan T", "killing"])
def test_estimate_transforms_empty_grid_checks_x_T_and_conservativeness(monkeypatch, case):
    # an empty grid simulates nothing, but it still takes the checks that
    # simulate_paths makes; they used to be skipped, and [] came back
    monkeypatch.setattr(mc, "simulate_paths", _no_simulation)
    params, x, T = conservative_params(), np.eye(2), 1.0
    if case == "nan state":
        x = np.full((2, 2), np.nan)
    elif case == "not PSD":
        x = -np.eye(2)
    elif case == "negative T":
        T = -1.0
    elif case == "nan T":
        T = float("nan")
    else:
        params = dataclasses.replace(params, c=1.0)
    with pytest.raises((DomainError, ValueError)):
        estimate_transforms(params, [], x, T, SimConfig(n_paths=8, dt=0.1, seed=0))


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


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "7"])
def test_sim_config_rejects_a_seed_outside_the_philox_key(seed):
    # -1 and 2^64 used to run as the seeds 2^64 - 1 and 0
    with pytest.raises(ValueError, match="seed must be an integer in \\[0, 2\\^64\\)"):
        SimConfig(n_paths=4, dt=0.1, seed=seed)
    SimConfig(n_paths=4, dt=0.1, seed=2 ** 64 - 1)


@pytest.mark.parametrize("n_paths", [10.5, np.float64(8.0), True, "8", 0, -3])
def test_sim_config_rejects_n_paths_that_is_not_a_positive_integer(n_paths):
    # 10.5 and 8.0 used to end in a TypeError from range, and True simulated one path
    with pytest.raises(ValueError, match="n_paths must be an integer of at least 1"):
        SimConfig(n_paths=n_paths, dt=0.1, seed=0)
    assert SimConfig(n_paths=np.int64(8), dt=0.1, seed=0).n_paths == 8


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
# states moved by at most 7e-8 relative, estimates by at most 1.1e-10. They
# were re-recorded again when the d >= 3 step began to take its square root
# from the eigh of the unprojected new state, the eigh that also projects it
# (it used to decompose the projection once more): over the three d = 3
# runs below, terminal states moved by at most 1.6e-8 relative (per-path
# Frobenius norm), intensity integrals by at most 4.8e-9 relative, and
# estimates of E[exp(-tr(u X))] for u = I, I/2 + iI and 2iI by at most
# 6.2e-10 absolute (9.7e-9 relative); the jump counts did not change. They
# were re-recorded once more when d >= 3 began to step on component rows,
# with d = 2's sums in index order in place of einsum products: over the
# same three runs, terminal states moved by at most 3.6e-14 relative,
# intensity integrals by at most 1.6e-14 relative and those estimates by at
# most 1.9e-14 absolute; the jump counts did not change. They were
# re-recorded once more when the d = 3 cone step began to pass the states it
# certifies unchanged and take their roots from Franca's closed form,
# with one eigh on the other states alone: over the three d = 3 runs, terminal
# states moved by at most 3.3e-14 relative, intensity integrals by at most
# 1.1e-14 relative and those estimates by at most 1.3e-14 absolute; the jump
# counts did not change. These two and the four of GOLDEN_CHUNKED were
# re-recorded when the step began to take its drift (of either kind) and its
# jumps as one product each, by matrices on flattened component rows: over
# the six runs, terminal states moved by at most 1.7e-8 relative at d = 2
# and 1.9e-14 at d = 3, intensity integrals by at most 1.7e-9 and 4.7e-15
# relative, and those estimates by at most 5.9e-11 absolute (3.2e-10
# relative) and 2.8e-15 absolute; the jump counts did not change. The
# three d = 3 digests were re-recorded when the d = 3 cone step began to
# split the states with one negative eigenvalue or a worse condition in
# closed form (symcore._cone3) and to take acos from + - * / and sqrt alone,
# so that no digest depends on NumPy's SIMD dispatch: over the three d = 3
# runs, terminal states moved by at most 1.5e-14 relative, intensity
# integrals by at most 5.0e-15 relative and those estimates by at most
# 2.4e-15 absolute (1.6e-14 relative); the jump counts did not change.
GOLDEN = {
    2: "c20d14ccad5a362ed8b5b64b851fe54df1b65e09c762b33ac9c130cfeb26a45f",
    3: "6453dad4881765ff70fe2eb39e609f234facdd3faedb4f0300d9601f84c28028",
}


def _digest(stats):
    h = hashlib.sha256()
    for a in (stats.x_final, stats.jump_counts, stats.intensity_integrals):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def golden_stats(d, antithetic=None):
    """The run of GOLDEN[d] (antithetic None: two blocks of 160 + 140 paths)
    or of GOLDEN_CHUNKED[(d, antithetic)] (blocks of 26 + 26 + 10 paths)."""
    blocks, T, cfg = ((160, 0.5, SimConfig(n_paths=300, dt=2.0**-5, seed=2024))
                      if antithetic is None else
                      (25, 0.6, SimConfig(n_paths=62, dt=0.001, seed=2024, antithetic=antithetic)))
    with mock.patch.object(mc, "_BLOCK_PATHS", blocks):
        return simulate_paths(golden_params(d), 0.5 * np.eye(d), T, cfg)


@pytest.mark.parametrize("d", [2, 3])
def test_simulate_paths_golden_bits(d):
    assert _digest(golden_stats(d)) == GOLDEN[d]


# The same digest over 600 steps: two full draw chunks and a partial one, in
# 25-path blocks, rounded up to whole antithetic pairs. They equal the
# digests of drawing each path's whole stream at once. The d = 3 ones were
# re-recorded with GOLDEN[3], for the closed-form cone step, all four with
# GOLDEN, for the one-product drift and jumps, and the d = 3 ones with
# GOLDEN[3] again, for the closed-form split of the d = 3 step (moves above).
GOLDEN_CHUNKED = {
    (2, False): "59e5feb504fda9bc85d39b85ce5fa27b8212bd3db20605187f4071376d81717a",
    (2, True): "017f96124481a2704572ad42f96a9bc6a7a46d979687b84b366b1748b4db65f5",
    (3, False): "d7ed5faa21ae9b907155debbdcb28afaba949e0993e0c5439a825f4915a05be9",
    (3, True): "ccef04300778ff6b766a409ad88e94a435c9b883dd15b738bb825550d3e1c87b",
}


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_simulate_paths_golden_bits_chunked(d, antithetic):
    stats = golden_stats(d, antithetic)
    assert stats.n_steps == 600
    assert _digest(stats) == GOLDEN_CHUNKED[(d, antithetic)]


def test_mc_bits_do_not_depend_on_simd_dispatch():
    # the six golden runs in an interpreter whose NumPy may not use its
    # AVX512 kernels give the bytes they give here; NumPy's vector arccos
    # rounds differently with and without them, so the d = 3 cone step takes
    # its acos from + - * / and sqrt alone
    cases = [(2, None), (3, None), (2, False), (2, True), (3, False), (3, True)]
    script = ("import json\n"
              "from test_montecarlo import _digest, golden_stats\n"
              f"print(json.dumps([_digest(golden_stats(*case)) for case in {cases!r}]))\n")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512, PSDAFFINE_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(tests.parent / "src"), str(tests)]
                   + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tests, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [GOLDEN[d] if anti is None else GOLDEN_CHUNKED[(d, anti)]
                                       for d, anti in cases]


@pytest.mark.parametrize("d", [pytest.param(3, id="d3"), pytest.param(4, id="d4")])
def test_block_eigh_calls_per_step_and_one_philox(monkeypatch, d):
    # at d = 4 the eigh that projects the state of step k also gives the
    # square root of step k + 1, one batched eigh per block and step; at d = 3
    # only the steps whose states _cone3 leaves over take one (a strong mean
    # reversion at a long step leaves some); a block moves one Philox
    # generator between its streams, over three draw chunks
    monkeypatch.setenv("PSDAFFINE_THREADS", "1")
    monkeypatch.setattr(mc, "_BLOCK_PATHS", 25)  # 26 + 10 paths
    calls = {"eigh": 0, "philox": 0, "left": 0}
    eigh, philox, cone3 = np.linalg.eigh, np.random.Philox, mc._cone3

    def counted_eigh(a, *args, **kwargs):
        calls["eigh"] += np.ndim(a) == 3
        return eigh(a, *args, **kwargs)

    def counted_philox(*args, **kwargs):
        calls["philox"] += 1
        return philox(*args, **kwargs)

    def counted_cone3(x):
        out = cone3(x)
        calls["left"] += len(out[2]) > 0
        return out

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.random, "Philox", counted_philox)
    monkeypatch.setattr(mc, "_cone3", counted_cone3)
    params = dataclasses.replace(golden_params(d), drift=LyapunovDrift(beta=-5.0 * np.eye(d)))
    stats = simulate_paths(params, 0.5 * np.eye(d), 30.0, SimConfig(n_paths=36, dt=0.05, seed=2024))
    n_blocks = 2
    assert stats.n_steps == 600
    if d == 4:
        assert calls["eigh"] == n_blocks * stats.n_steps
    else:
        assert 0 < calls["eigh"] == calls["left"] < n_blocks * stats.n_steps
    assert calls["philox"] == n_blocks


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
