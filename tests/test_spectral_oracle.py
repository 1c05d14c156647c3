"""The half-lattice H^{-J} path against the implementations it replaced.

The oracles are the previous implementations, kept verbatim in substance:
``oracle_coefficients`` takes a complex ``np.exp`` over the whole lattice
{-k_max..k_max}^d, ``oracle_clt_distance`` transforms, per path and
snapshot, the 2N-atom eta^eps field and the tangent field separately and
takes the norm of their difference, and ``ComplexHalfLattice`` is the
half lattice with complex coefficients (k_0 >= 0, every other axis over
-k_max..k_max) that the one real product per point set replaced.

Tolerances, measured over the cases below and five seeds of the random
fields (atoms up to 0.99 R, where the phase recurrence accumulates the most
rounding), with the one real product per point set:

* coefficients: at most 2.7e-14 of the largest |coefficient|; checked at 1e-12;
* one- and two-field norms: at most 1.2e-13 relative (7.5e-14 with the
  complex half lattice); checked at 1e-12;
* CLT distance curves: at most 2.9e-11 relative (the eta^eps coefficients
  are a difference of two N-atom sums, so both paths lose digits to
  cancellation; against an extended-precision evaluation the complex half
  lattice erred by 2.7e-11, the oracle by 4.4e-11); checked at 1e-9.  At
  t = 0 the coupled runs coincide: the new path gives exactly 0 (it does
  not transform there) and the oracle leaves rounding up to 2.6e-15;
  checked below 1e-13.  So does a path that meets the transport run again
  while every tangent is zero.

The real product against ``ComplexHalfLattice``, over 300 random point
sets: coefficients within 9.2e-16 of the largest |coefficient| and norms
within 2.4e-15 relative; checked at the same 1e-12.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paper_forms as pf
from meanfield_sgd.dynamics import (InitialSpec, IntegratorConfig, NoisePath, sample_initial, simulate,
                                   simulate_transport)
from meanfield_sgd.fluctuations import FluctuationPath, clt_distance, eta_eps, solve_tangent
from meanfield_sgd.harness import build_coefficients, reference_config
from meanfield_sgd.measures import (
    HalfLattice,
    SignedAtomicField,
    SpectralBoxError,
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


class ComplexHalfLattice:
    """The complex half-lattice coefficients: shape (k_max+1, 2*k_max+1, ...),
    axis 0 over k_0 >= 0, the phase rows by cumulative powers, one complex
    matmul per point set against the full row of the last axis."""

    def __init__(self, grid: SpectralGrid, dim: int):
        self.grid = grid
        self.dim = dim
        k = np.arange(grid.k_max + 1)
        modes = [k] + [np.concatenate([-k[:0:-1], k])] * (dim - 1)
        self.wavenumbers = [
            (np.pi / grid.r_box * m).reshape([-1 if b == a else 1 for b in range(dim)])
            for a, m in enumerate(modes)
        ]
        weights = (1.0 + sum(w**2 for w in self.wavenumbers)) ** (-grid.j)
        weights[1:] *= 2.0
        self.shape = weights.shape
        self._weights = weights.ravel() / (2.0 * grid.r_box) ** dim

    def _phases(self, coords, half):
        k_max = self.grid.k_max
        out = np.empty(coords.shape + (k_max + 1 if half else 2 * k_max + 1,), dtype=complex)
        powers = out[..., out.shape[-1] - k_max - 1:]
        powers[..., 0] = 1.0
        powers[..., 1:] = np.exp(-1j * np.pi / self.grid.r_box * coords)[..., None]
        np.cumprod(powers, axis=-1, out=powers)
        if not half:
            np.conjugate(out[..., :k_max:-1], out=out[..., :k_max])
        return out

    def transform(self, points, weights=None):
        phases = [self._phases(points[..., a], a == 0) for a in range(self.dim)]
        rows = points.shape[:-1]
        acc = phases[0]
        if weights is not None:
            acc = (weights[..., None] * acc[..., None, :]).reshape(*rows, -1)
        for ph in phases[1:-1]:
            acc = (acc[..., :, None] * ph[..., None, :]).reshape(*rows, -1)
        out = np.swapaxes(acc, -1, -2) @ phases[-1] if self.dim > 1 else acc.sum(axis=-2)
        return out.reshape(*points.shape[:-2], -1, *self.shape)

    def tangent(self, parts):
        return sum(-1j * w * np.take(parts, a, axis=-1 - self.dim)
                   for a, w in enumerate(self.wavenumbers))

    def norms(self, coeffs):
        squares = coeffs.real**2 + coeffs.imag**2
        return np.sqrt(squares.reshape(*coeffs.shape[:coeffs.ndim - self.dim], -1) @ self._weights)

    def full(self, coeffs):
        return np.concatenate([np.flip(coeffs[1:]).conj(), coeffs], axis=0)


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


@st.composite
def point_sets(draw):
    """Points of one dimension in a box, with m weight columns and a tangent
    vector per point; some points near the box edge."""
    dim = draw(st.integers(1, 3))
    k_max = draw(st.sampled_from([8, 13, 32] if dim == 3 else [8, 13, 32, 64]))
    n = draw(st.integers(1, 25))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    r_box = draw(st.floats(0.5, 4.0))
    points = rng.uniform(-0.99, 0.99, size=(n, dim)) * r_box
    return dict(grid=SpectralGrid(r_box=r_box, k_max=k_max, j=draw(st.integers(1, 6))), points=points,
                weights=rng.normal(size=(n, m)), tangents=rng.normal(size=(n, dim)))


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=60, deadline=None)
@given(case=point_sets())
def test_real_product_matches_the_complex_half_lattice(case):
    """weight columns, the tangent rotation and the norms of the one real
    product against the complex half-lattice coefficients."""
    grid, points = case["grid"], case["points"]
    dim = points.shape[1]
    lattice, oracle = HalfLattice(grid, dim), ComplexHalfLattice(grid, dim)
    products = lattice.transform(points, case["weights"])
    want = oracle.transform(points, case["weights"])
    parts = case["tangents"] / points.shape[0]
    products = np.concatenate([products, lattice.tangent(lattice.transform(points, parts))[None]])
    want = np.concatenate([want, oracle.tangent(oracle.transform(points, parts))[None]])
    for got_one, want_one in zip(products, want):
        full = oracle.full(want_one)
        np.testing.assert_allclose(lattice.full(got_one), full, rtol=0,
                                   atol=COEFF_RTOL * max(np.abs(full).max(), 1e-300))
    np.testing.assert_allclose(lattice.norms(products), oracle.norms(want), rtol=NORM_RTOL)


def test_atom_outside_a_fixed_box_at_t0_raises():
    """every path coincides with the transport run at t = 0 and is not
    transformed there, yet an atom outside a fixed box still raises."""
    transport, tangent, runs = coupled_runs(2)
    paths = [eta_eps(run, transport, eps) for eps, run in runs.items()]
    r_box = 0.999 * np.abs(transport.positions[0]).max()
    assert np.abs(transport.positions[1:]).max() < r_box
    assert all(np.abs(run.positions[1:]).max() < r_box for run in runs.values())
    with pytest.raises(SpectralBoxError):
        clt_distance(paths, tangent, SpectralGrid(r_box=r_box, k_max=16, j=5))


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_path_that_meets_the_transport_run_again_is_at_zero(dim):
    """At a later snapshot where every tangent is zero and one path's atoms
    are the transport run's, that path's distance is exactly 0 and the other
    paths' match the oracle; where the tangents are not zero, a path on the
    transport run is at the norm of the tangent field."""
    transport, tangent, runs = coupled_runs(dim)
    r_box = max(np.abs(run.positions).max() for run in (transport, *runs.values())) / 0.99
    grid = SpectralGrid(r_box=r_box, k_max=16, j=int(np.ceil(dim / 2)) + 4)
    tangents = tangent.tangents.copy()
    tangents[1] = 0.0
    tangent = replace(tangent, tangents=tangents)
    paths = [eta_eps(run, transport, eps) for eps, run in runs.items()]
    met = paths[0].positions.copy()
    met[1:] = transport.positions[1:]
    paths[0] = FluctuationPath(paths[0].times, met, transport.positions, paths[0].eps)
    _, curves = clt_distance(paths, tangent, grid)
    assert curves[0, 1] == 0.0 and curves[0, 0] == 0.0
    for p, path in enumerate(paths):
        _, curve = oracle_clt_distance(path, tangent, grid)
        np.testing.assert_allclose(curves[p, 2:], curve[2:], rtol=CLT_RTOL)
        if p:
            assert curves[p, 1] == pytest.approx(curve[1], rel=CLT_RTOL)
    tangent_norm = sobolev_neg_norm(tangent.field_at(2), grid)
    assert curves[0, 2] == pytest.approx(tangent_norm, rel=NORM_RTOL)
