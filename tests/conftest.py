"""Shared test helpers: seeded samplers for matrices and parameter sets."""

import numpy as np

from psdaffine import (
    AffineParams,
    AtomicMeasure,
    GeneralDrift,
    LyapunovDrift,
    MatrixAtomicMeasure,
)
from psdaffine.model import as_general, sym_to_vec
from psdaffine.symcore import PSD_SLACK


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_spd(rng, d, lo=0.3, hi=1.5):
    q = random_orthogonal(rng, d)
    w = rng.uniform(lo, hi, size=d)
    return (q * w) @ q.T


def random_psd(rng, d, rank=None):
    rank = d if rank is None else rank
    a = rng.standard_normal((d, rank))
    return a @ a.T / rank


def random_sym(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2


def random_interior_u(rng, d, imag_scale=0.5):
    """Complex symmetric initial data with positive definite real part."""
    return random_spd(rng, d, 0.3, 1.5) + 1j * random_sym(rng, d, imag_scale)


def random_stable_beta(rng, d, lo=-1.0, hi=-0.1):
    """Real matrix with spectrum in [lo, hi] (diagonalizable by construction)."""
    q = random_orthogonal(rng, d)
    w = rng.uniform(lo, hi, size=d)
    return (q * w) @ q.T


def random_admissible_general_drift(rng, d, n_terms=2):
    """Lyapunov part plus sum of c_j <A_j, x> A_j with c_j >= 0 and A_j PSD;
    inward pointing since both trace factors are nonnegative on the cone."""
    base = as_general(LyapunovDrift(beta=random_stable_beta(rng, d))).as_matrix().copy()
    for _ in range(n_terms):
        a_vec = sym_to_vec(random_psd(rng, d))
        base += rng.uniform(0.0, 0.5) * np.outer(a_vec, a_vec)
    return GeneralDrift(matrix=base, d=d)


def random_m_measure(rng, d, n_atoms, ball="both"):
    atoms = []
    for k in range(n_atoms):
        xi = random_psd(rng, d) + 0.05 * np.eye(d)
        n = np.linalg.norm(xi)
        if ball == "inside" or (ball == "both" and k % 2 == 0):
            xi = xi * (rng.uniform(0.2, 0.9) / n)
        else:
            xi = xi * (rng.uniform(1.2, 2.5) / n)
        atoms.append((xi, float(rng.uniform(0.1, 0.8))))
    return AtomicMeasure(atoms=tuple(atoms))


def random_mu_measure(rng, d, n_atoms, ball="both", weight_scale=0.4):
    atoms = []
    for k in range(n_atoms):
        xi = random_psd(rng, d) + 0.05 * np.eye(d)
        n = np.linalg.norm(xi)
        if ball == "inside" or (ball == "both" and k % 2 == 0):
            xi = xi * (rng.uniform(0.2, 0.9) / n)
        else:
            xi = xi * (rng.uniform(1.2, 2.5) / n)
        atoms.append((xi, weight_scale * random_psd(rng, d)))
    return MatrixAtomicMeasure(atoms=tuple(atoms))


def random_admissible(rng, d, alpha_class="invertible", with_jumps=True,
                      with_gamma=False, general_drift=False):
    """Random parameter set satisfying all admissibility conditions."""
    if alpha_class == "invertible":
        alpha = random_spd(rng, d, 0.3, 1.2)
    elif alpha_class == "zero":
        alpha = np.zeros((d, d))
    else:
        raise ValueError(alpha_class)
    b = (d - 1) * alpha + random_psd(rng, d) + 0.05 * np.eye(d)
    if general_drift:
        drift = random_admissible_general_drift(rng, d)
    else:
        drift = LyapunovDrift(beta=random_stable_beta(rng, d, -1.0, 0.3))
    gamma = 0.3 * random_psd(rng, d) if with_gamma else None
    m = random_m_measure(rng, d, rng.integers(0, 3)) if with_jumps else AtomicMeasure()
    mu = random_mu_measure(rng, d, rng.integers(0, 3)) if with_jumps else MatrixAtomicMeasure()
    return AffineParams(d=d, alpha=alpha, b=b, drift=drift, c=0.0, gamma=gamma,
                        m=m, mu=mu)


# smallest eigenvalues at the edge of the cone, as (unit, factor): "rel" puts
# it at factor * ||x||, "floor" at factor * PSD_SLACK * max(1, ||x||), the
# size of the floor of closedform._jump_rate; "zero" is the zero matrix
CONE_EDGE_KINDS = (("rel", 0.0), ("rel", 1e-17), ("rel", -1e-17), ("rel", 1e-11),
                   ("rel", -1e-11), ("floor", 0.5), ("floor", -0.5), ("floor", -1.001),
                   ("floor", -2.0), ("zero", 0.0))
# subnormal entries, normal entries whose sums of squares underflow to 0 or
# are subnormal, ordinary ones, large ones and ones whose sum of squares
# overflows
CONE_EDGE_SCALES = (1e-310, 1e-200, 1e-160, 1.0, 1e150, 1e155)


def cone_edge_matrix(rng, d, kind, scale):
    """A symmetric d x d matrix q diag(w) q^T with w[1:] drawn from
    scale * [0.5, 2] and the smallest eigenvalue w[0] placed by kind (see
    CONE_EDGE_KINDS), before the rounding of the product."""
    unit, factor = kind
    if unit == "zero":
        return np.zeros((d, d))
    q = random_orthogonal(rng, d)
    w = rng.uniform(0.5, 2.0, size=d)
    w[0] = 0.0
    norm = float(np.linalg.norm(w)) * scale
    w *= scale
    w[0] = factor * (norm if unit == "rel" else PSD_SLACK * max(1.0, norm))
    x = (q * w) @ q.T
    return 0.5 * x + 0.5 * x.T
