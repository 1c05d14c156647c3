"""The half-lattice H^{-J} path against the full-lattice one it replaced.

The oracles are the previous implementation, kept verbatim in substance:
``oracle_coefficients`` takes a complex ``np.exp`` over the whole lattice
{-k_max..k_max}^d, and ``oracle_clt_distance`` transforms, per path and
snapshot, the 2N-atom eta^eps field and the tangent field separately and
takes the norm of their difference.

Tolerances, measured over the cases below and five seeds of the random
fields (atoms up to 0.99 R, where the phase recurrence accumulates the most
rounding):

* coefficients: at most 3.0e-14 of the largest |coefficient|; checked at 1e-12;
* one- and two-field norms: at most 6.1e-14 relative; checked at 1e-12;
* CLT distance curves: at most 2.9e-11 relative (the eta^eps coefficients
  are a difference of two N-atom sums, so both paths lose digits to
  cancellation; against an extended-precision evaluation the new path errs
  by 2.7e-11, the oracle by 4.4e-11); checked at 1e-9.  At t = 0 the
  coupled runs coincide: the new path gives exactly 0 and the oracle
  leaves rounding up to 2.6e-15; checked below 1e-13.
"""

from dataclasses import replace

import numpy as np
import pytest

import paper_forms as pf
from meanfield_sgd.dynamics import (InitialSpec, IntegratorConfig, NoisePath, sample_initial, simulate,
                                   simulate_transport)
from meanfield_sgd.fluctuations import clt_distance, eta_eps, solve_tangent
from meanfield_sgd.harness import build_coefficients, reference_config
from meanfield_sgd.measures import (
    SignedAtomicField,
    SpectralGrid,
    sobolev_neg_norm,
    sobolev_neg_norm_diff,
    spectral_coefficients,
)

COEFF_RTOL = 1e-12
NORM_RTOL = 1e-12
CLT_RTOL = 1e-9
T0_ORACLE_ATOL = 1e-13


# --------------------------------------------------------------------------
# oracles: the full-lattice implementation
# --------------------------------------------------------------------------


def oracle_coefficients(field: SignedAtomicField, grid: SpectralGrid) -> np.ndarray:
    dim = field.dim
    k = np.arange(-grid.k_max, grid.k_max + 1)
    phases = [np.exp(-1j * np.pi * np.outer(field.atoms[:, a], k) / grid.r_box)
              for a in range(dim)]
    if field.kind == "atomic":
        return _oracle_contract(phases, field.payload)
    n = field.atoms.shape[0]
    total = 0.0
    for a in range(dim):
        shape = [1] * dim
        shape[a] = k.size
        total = total + _oracle_contract(phases, field.payload[:, a] / n) * (
            -1j * np.pi / grid.r_box * k).reshape(shape)
    return total


def _oracle_contract(phases, weights):
    letters = "klm"[:len(phases)]
    spec = ",".join(["i"] + [f"i{c}" for c in letters]) + "->" + letters
    return np.einsum(spec, weights.astype(complex), *phases, optimize=True)


def oracle_norm(coeffs: np.ndarray, grid: SpectralGrid) -> float:
    dim = coeffs.ndim
    k2 = (np.pi * np.arange(-grid.k_max, grid.k_max + 1) / grid.r_box) ** 2
    total = sum(k2.reshape([-1 if b == a else 1 for b in range(dim)]) for a in range(dim))
    weights = (1.0 + total) ** (-grid.j)
    return float(np.sqrt(np.sum(np.abs(coeffs) ** 2 * weights) / (2.0 * grid.r_box) ** dim))


def oracle_clt_distance(path, tangent_traj, grid) -> tuple[float, np.ndarray]:
    curve = np.array([
        oracle_norm(oracle_coefficients(field, grid)
                    - oracle_coefficients(tangent_traj.field_at(s), grid), grid)
        for s, field in enumerate(path.fields)])
    return float(curve.max()), curve


# --------------------------------------------------------------------------
# fields and coupled runs
# --------------------------------------------------------------------------


def random_field(kind: str, dim: int, n: int, r_box: float, seed: int) -> SignedAtomicField:
    """Atoms spread up to 0.99 R, one of them at 0.99 R on every axis."""
    rng = np.random.default_rng(seed)
    atoms = rng.uniform(-0.99 * r_box, 0.99 * r_box, size=(n, dim))
    atoms[0] = 0.99 * r_box
    if kind == "atomic":
        return SignedAtomicField.atomic(atoms, rng.normal(size=n))
    return SignedAtomicField.tangent(atoms, rng.normal(size=(n, dim)))


def coupled_runs(dim: int, n: int = 12, eps_grid=(1e-1, 1e-2, 1e-3)):
    """Transport, tangent and eps runs of one seed in dimension ``dim``:
    the synthetic 1-d instance, the reference network, and the reference
    network with a bias (its atoms with a constant coordinate)."""
    if dim == 1:
        cfg = reference_config(instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,))
        coeffs = build_coefficients(cfg)
    else:
        coeffs = build_coefficients(reference_config())
        if dim == 3:
            coeffs = pf.with_bias(coeffs)
    spec = InitialSpec(low=[-1.0] * dim, high=[1.0] * dim)
    initial = sample_initial(spec, n, 5)
    cfg = IntegratorConfig(dt=1e-2, horizon=0.3, snapshot_stride=10)
    noise = NoisePath(5, cfg.dt, cfg.n_steps, coeffs.n_channels)
    transport = simulate_transport(initial, coeffs, cfg)
    tangent = solve_tangent(initial.positions, coeffs, cfg, noise)
    runs = {eps: simulate(initial, coeffs, replace(cfg, eps=eps), noise) for eps in eps_grid}
    return transport, tangent, runs


# --------------------------------------------------------------------------
# tests
# --------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["atomic", "tangent"])
@pytest.mark.parametrize("k_max", [8, 64])
def test_coefficients_and_norms_match_the_full_lattice(dim, kind, k_max):
    grid = SpectralGrid(r_box=2.0, k_max=k_max, j=5)
    n = 10 if dim == 3 and k_max == 64 else 40
    field = random_field(kind, dim, n, grid.r_box, seed=dim * 100 + k_max)
    other = random_field("tangent" if kind == "atomic" else "atomic", dim, n, grid.r_box,
                         seed=dim * 100 + k_max + 1)
    got, want = spectral_coefficients(field, grid), oracle_coefficients(field, grid)
    assert got.shape == want.shape == (2 * k_max + 1,) * dim
    np.testing.assert_allclose(got, want, rtol=0, atol=COEFF_RTOL * np.abs(want).max())
    assert sobolev_neg_norm(field, grid) == pytest.approx(
        oracle_norm(want, grid), rel=NORM_RTOL)
    assert sobolev_neg_norm_diff(field, other, grid) == pytest.approx(
        oracle_norm(want - oracle_coefficients(other, grid), grid), rel=NORM_RTOL)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tangent_base_points_are_the_transport_run(dim):
    """Both integrate the same transport Euler step, bit for bit, so the
    CLT distance transforms them through one set of phase rows."""
    transport, tangent, _ = coupled_runs(dim, eps_grid=())
    np.testing.assert_array_equal(tangent.positions, transport.positions)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("k_max", [8, 64])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_clt_distance_matches_the_per_path_oracle(dim, k_max):
    transport, tangent, runs = coupled_runs(dim)
    r_box = max(np.abs(run.positions).max() for run in (transport, *runs.values())) / 0.99
    grid = SpectralGrid(r_box=r_box, k_max=k_max, j=int(np.ceil(dim / 2)) + 4)
    paths = [eta_eps(run, transport, eps) for eps, run in runs.items()]
    sups, curves = clt_distance(paths, tangent, grid)
    assert curves.shape == (len(paths), tangent.n_snapshots)
    for p, path in enumerate(paths):
        sup, curve = oracle_clt_distance(path, tangent, grid)
        np.testing.assert_allclose(curves[p, 1:], curve[1:], rtol=CLT_RTOL)
        assert curves[p, 0] == 0.0 and curve[0] < T0_ORACLE_ATOL
        assert sups[p] == curves[p].max()
        assert sups[p] == pytest.approx(sup, rel=CLT_RTOL)


def test_tangent_trajectory_off_the_transport_run_rejected():
    """Tangents carried on other points than the transport atoms the paths
    are taken against are refused, not transformed separately."""
    transport, tangent, runs = coupled_runs(2)
    moved = replace(tangent, positions=0.9 * tangent.positions)
    paths = [eta_eps(run, transport, eps) for eps, run in runs.items()]
    with pytest.raises(ValueError, match="transport run"):
        clt_distance(paths, moved, SpectralGrid(r_box=3.0, k_max=64, j=5))


def test_paths_on_different_transport_runs_rejected():
    transport, tangent, runs = coupled_runs(2)
    (eps_a, run_a), (eps_b, run_b) = list(runs.items())[:2]
    paths = [eta_eps(run_a, transport, eps_a), eta_eps(run_a, run_b, eps_b)]
    with pytest.raises(ValueError, match="transport run"):
        clt_distance(paths, tangent, SpectralGrid(r_box=3.0, k_max=16, j=5))
