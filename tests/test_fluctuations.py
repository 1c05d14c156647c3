"""Tangent system, finite-eps fluctuation fields and the weak-form certificate."""

from dataclasses import replace

import numpy as np
import pytest

from meanfield_sgd.coefficients import (
    ACTIVATIONS,
    Dataset,
    NetworkCoefficients,
    SyntheticCoefficients,
)
from meanfield_sgd.diagnostics import gaussian_bump, standard_panel
from meanfield_sgd.dynamics import IntegratorConfig, NoisePath, sample_initial, simulate, simulate_transport
from meanfield_sgd.fluctuations import (
    TangentEnsemble,
    clt_distance,
    eta_eps,
    solve_tangent,
    tangent_step,
    weak_residual_linear,
)
from meanfield_sgd.harness import build_coefficients, build_initial_spec, reference_config
from meanfield_sgd.measures import SignedAtomicField, SpectralGrid, pair, sobolev_neg_norm

REF = reference_config()
REF_COEFFS = build_coefficients(REF)
REF_SPEC = build_initial_spec(REF)


def noise_only_coeffs(amp=0.4):
    """Vbar = Vtilde = 0, two centered channels driving +-amp*sin(x1)."""

    def g_batch(X, atoms, w):
        vals = amp * np.sin(X[:, 0])
        out = np.zeros((X.shape[0], 2, X.shape[1]))
        out[:, 0, 0] = vals
        out[:, 1, 0] = -vals
        return out

    return SyntheticCoefficients(dim=2, n_channels=2, g_batch=g_batch)


class TestTangentStep:
    def test_zero_forcing_zero_tangents_forever(self):
        coeffs = SyntheticCoefficients(dim=2, v_bar_batch=lambda X: -X,
                                       drift_jacobian_apply=lambda X, Y, atoms, weights: -Y)
        rng = np.random.default_rng(0)
        tens = TangentEnsemble.at_rest(rng.normal(size=(6, 2)))
        cfg = IntegratorConfig(dt=0.01, horizon=0.2)
        for k in range(20):
            tens = tangent_step(tens, coeffs, cfg, np.zeros(1))
        np.testing.assert_array_equal(tens.tangents, np.zeros((6, 2)))

    def test_frozen_base_accumulates_increments(self):
        """V = 0: Y_i(T) is the plain sum of the weighted increments."""
        coeffs = noise_only_coeffs()
        rng = np.random.default_rng(1)
        base = rng.normal(size=(5, 2))
        noise = NoisePath(2, 0.01, 40, 2)
        cfg = IntegratorConfig(dt=0.01, horizon=0.4)
        traj = solve_tangent(base, coeffs, cfg, noise)
        np.testing.assert_array_equal(traj.positions[-1], base)  # base frozen
        # hand accumulation of the same increments
        g = coeffs.noise_matrix(base, (base, np.full(5, 0.2)))
        acc = np.zeros((5, 2))
        for s in range(40):
            acc += np.einsum("npd,p->nd", g, np.sqrt([0.5, 0.5]) * noise.increments[s])
        np.testing.assert_allclose(traj.tangents[-1], acc, atol=1e-12)

    def test_single_data_atom_gives_zero_field(self):
        data = Dataset(atoms=[[0.5]], weights=[1.0], labels=[0.2])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["tanh"])
        initial = sample_initial(REF_SPEC, 10, 3)
        noise = NoisePath(3, 0.01, 30, 1)
        cfg = IntegratorConfig(dt=0.01, horizon=0.3)
        traj = solve_tangent(initial.positions, coeffs, cfg, noise)
        np.testing.assert_allclose(traj.tangents, 0.0, atol=1e-14)

    def test_linearity_bitwise_under_doubling(self):
        """from rest, doubling the forcing doubles Y_t bitwise."""
        initial = sample_initial(REF_SPEC, 12, 4)
        noise = NoisePath(4, 0.01, 25, REF_COEFFS.n_channels)
        doubled = NoisePath(4, 0.01, 25, REF_COEFFS.n_channels,
                            _increments=2.0 * noise.increments)
        cfg = IntegratorConfig(dt=0.01, horizon=0.25)
        a = solve_tangent(initial.positions, REF_COEFFS, cfg, noise)
        b = solve_tangent(initial.positions, REF_COEFFS, cfg, doubled)
        assert np.any(a.tangents[-1] != 0.0)
        np.testing.assert_array_equal(b.tangents, 2.0 * a.tangents)

    def test_solve_returns_the_transport_run(self):
        """The tangent solve is the transport run (uniform weights, eps 0,
        positions bit for bit) with its tangents; no other run has tangents."""
        initial = sample_initial(REF_SPEC, 7, 6)
        noise = NoisePath(6, 0.01, 20, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.2, eps=0.05, snapshot_stride=4)
        tangent = solve_tangent(initial.positions, REF_COEFFS, cfg, noise)
        transport = simulate_transport(initial, REF_COEFFS, cfg)
        np.testing.assert_array_equal(tangent.positions, transport.positions)
        np.testing.assert_array_equal(tangent.times, transport.times)
        np.testing.assert_array_equal(tangent.weights, transport.weights)
        assert tangent.eps == 0.0 and tangent.noise_meta == noise.meta
        assert tangent.tangents.shape == tangent.positions.shape
        assert transport.tangents is None
        with pytest.raises(ValueError, match="^tangents must be set"):
            transport.field_at(-1)

    def test_increment_shape_mismatch(self):
        tens = TangentEnsemble.at_rest(np.zeros((2, 2)))
        cfg = IntegratorConfig(dt=0.01, horizon=0.01)
        with pytest.raises(Exception):
            tangent_step(tens, REF_COEFFS, cfg, np.zeros(3))


class TestEtaEps:
    def make_paths(self, eps, seed=6, n=30, steps=40, stride=10):
        initial = sample_initial(REF_SPEC, n, seed)
        noise = NoisePath(seed, 0.01, steps, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=steps * 0.01, eps=eps,
                               snapshot_stride=stride)
        traj = simulate(initial, REF_COEFFS, cfg, noise)
        transport = simulate_transport(initial, REF_COEFFS, cfg)
        return traj, transport, noise

    def test_zero_total_mass(self):
        traj, transport, _ = self.make_paths(0.05)
        path = eta_eps(traj, transport, 0.05)
        for f in path.fields:
            assert f.payload.sum() == pytest.approx(0.0, abs=1e-12)

    def test_coinciding_trajectories_give_null_field(self):
        """G = 0 coefficients: the two runs coincide, every pairing is zero."""
        coeffs = SyntheticCoefficients(dim=2, v_bar_batch=lambda X: -X)
        initial = sample_initial(REF_SPEC, 10, 7)
        noise = NoisePath(7, 0.01, 20, 1)
        cfg = IntegratorConfig(dt=0.01, horizon=0.2, eps=0.01, snapshot_stride=5)
        noisy = simulate(initial, coeffs, cfg, noise)
        clean = simulate_transport(initial, coeffs, cfg)
        path = eta_eps(noisy, clean, 0.01)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        grid = SpectralGrid(r_box=8.0, k_max=32, j=5)
        for f in path.fields:
            assert pair(f, phi) == pytest.approx(0.0, abs=1e-12)
            assert sobolev_neg_norm(f, grid) == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_grids_rejected(self):
        traj, transport, _ = self.make_paths(0.05, stride=10)
        _, transport_fine, _ = self.make_paths(0.05, stride=5)
        with pytest.raises(ValueError):
            eta_eps(traj, transport_fine, 0.05)

    def test_grids_that_differ_beyond_1e12_rejected(self):
        """Snapshot times must agree within 1e-12 absolutely: times 2e-7 off
        a grid of [0, 0.025, 0.05] are refused, not waved through by a
        relative tolerance."""
        initial = sample_initial(REF_SPEC, 10, 6)
        noise = NoisePath(6, 0.005, 10, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.005, horizon=0.05, eps=0.05, snapshot_stride=5)
        traj = simulate(initial, REF_COEFFS, cfg, noise)
        transport = simulate_transport(initial, REF_COEFFS, cfg)
        np.testing.assert_allclose(transport.times, [0.0, 0.025, 0.05], rtol=0, atol=1e-15)
        shifted = replace(traj, times=np.array([0.0, 0.0250002, 0.0500002]))
        with pytest.raises(ValueError, match="^traj_zero must be recorded on the snapshot grid"):
            eta_eps(shifted, transport, 0.05)
        eta_eps(traj, transport, 0.05)   # the grids of the coupled runs agree

    def test_linearization_error_decreases_with_eps(self):
        """<phi, eta^eps_T> approaches the tangent pairing as eps drops."""
        seed, steps = 8, 50
        initial = sample_initial(REF_SPEC, 40, seed)
        noise = NoisePath(seed, 0.01, steps, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.5, snapshot_stride=steps)
        transport = simulate_transport(initial, REF_COEFFS, cfg)
        tangent = solve_tangent(initial.positions, REF_COEFFS, cfg, noise)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        target = pair(tangent.field_at(-1), phi)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            traj = simulate(initial, REF_COEFFS, replace(cfg, eps=eps), noise)
            path = eta_eps(traj, transport, eps)
            errs.append(abs(pair(path.fields[-1], phi) - target))
        assert errs[0] > errs[1] > errs[2]


class TestCltDistance:
    def test_identical_fields_zero(self):
        initial = sample_initial(REF_SPEC, 15, 9)
        noise = NoisePath(9, 0.01, 20, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.2, snapshot_stride=5)
        tangent = solve_tangent(initial.positions, REF_COEFFS, cfg, noise)
        grid = SpectralGrid(r_box=6.0, k_max=32, j=5)
        for s in range(tangent.n_snapshots):
            f = tangent.field_at(s)
            d = sobolev_neg_norm(SignedAtomicField.tangent(f.atoms, f.payload * 0.0), grid)
            assert d == 0.0
        # sup || eta^eps - eta || through the public entry point: the
        # transport run against itself, and zero tangents on its atoms
        transport = simulate_transport(initial, REF_COEFFS, cfg)
        still = replace(tangent, tangents=np.zeros_like(tangent.tangents))
        sups, curves = clt_distance([eta_eps(transport, transport, 0.01)], still, grid)
        assert sups[0] == 0.0 and not curves.any()

    def test_run_without_tangents_rejected(self):
        initial = sample_initial(REF_SPEC, 5, 11)
        cfg = IntegratorConfig(dt=0.01, horizon=0.1, snapshot_stride=5)
        transport = simulate_transport(initial, REF_COEFFS, cfg)
        with pytest.raises(ValueError, match="^tangents must be set"):
            clt_distance([eta_eps(transport, transport, 0.01)], transport,
                         SpectralGrid(r_box=6.0, k_max=16, j=5))

    def test_doubling_tangents_doubles_the_norm(self):
        rng = np.random.default_rng(10)
        base = rng.uniform(-1, 1, size=(10, 2))
        tang = rng.normal(size=(10, 2))
        grid = SpectralGrid(r_box=3.0, k_max=32, j=5)
        f1 = SignedAtomicField.tangent(base, tang)
        f2 = SignedAtomicField.tangent(base, 2.0 * tang)
        assert sobolev_neg_norm(f2, grid) == pytest.approx(
            2.0 * sobolev_neg_norm(f1, grid), rel=1e-12
        )

    def test_grid_beyond_1e12_of_the_tangent_run_rejected(self):
        """A fluctuation path whose snapshot times are 2e-7 off the tangent
        run's [0, 0.025, 0.05] gets no distance."""
        initial = sample_initial(REF_SPEC, 10, 11)
        noise = NoisePath(11, 0.005, 10, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.005, horizon=0.05, snapshot_stride=5)
        tangent = solve_tangent(initial.positions, REF_COEFFS, cfg, noise)
        traj = simulate(initial, REF_COEFFS, replace(cfg, eps=0.01), noise)
        path = eta_eps(traj, tangent, 0.01)
        grid = SpectralGrid(r_box=6.0, k_max=32, j=5)
        assert clt_distance([path], tangent, grid)[0][0] > 0
        shifted = replace(path, times=np.array([0.0, 0.0250002, 0.0500002]))
        with pytest.raises(ValueError, match="^eta_paths must be recorded on the snapshot grid"):
            clt_distance([shifted], tangent, grid)

    def test_low_order_rejected(self):
        initial = sample_initial(REF_SPEC, 5, 11)
        noise = NoisePath(11, 0.01, 10, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.1, snapshot_stride=5)
        tangent = solve_tangent(initial.positions, REF_COEFFS, cfg, noise)
        traj = simulate(initial, REF_COEFFS, replace(cfg, eps=0.01), noise)
        transport = simulate_transport(initial, REF_COEFFS, cfg)
        path = eta_eps(traj, transport, 0.01)
        with pytest.raises(ValueError):
            clt_distance([path], tangent, SpectralGrid(r_box=6.0, k_max=16, j=3))


class TestWeakResidualLinear:
    def run_tangent(self, seed=12, steps=50, dt=0.01, n=25):
        initial = sample_initial(REF_SPEC, n, seed)
        noise = NoisePath(seed, dt, steps, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=dt, horizon=steps * dt, snapshot_stride=1)
        return solve_tangent(initial.positions, REF_COEFFS, cfg, noise), noise

    def test_constant_test_function_exact_zero(self):
        traj, noise = self.run_tangent()
        panel = [phi for phi in standard_panel(2) if phi.name == "const"]
        res = weak_residual_linear(traj, REF_COEFFS, noise, panel)
        assert res["const"] == 0.0

    def test_all_zero_coefficients_exact_zero(self):
        coeffs = SyntheticCoefficients(dim=2, n_channels=2)
        rng = np.random.default_rng(13)
        base = rng.normal(size=(8, 2))
        noise = NoisePath(13, 0.01, 20, 2)
        cfg = IntegratorConfig(dt=0.01, horizon=0.2, snapshot_stride=1)
        traj = solve_tangent(base, coeffs, cfg, noise)
        res = weak_residual_linear(traj, coeffs, noise, standard_panel(2))
        for v in res.values():
            assert v == 0.0

    def test_residual_halves_with_dt(self):
        """mean |R| over seeds halves (within +-35%) when dt halves, with the
        fine run driven by the coarsened version of the same Brownian path."""
        panel = [p for p in standard_panel(2) if p.name in ("bump0", "sin(1,1)")]
        sums = {0.02: 0.0, 0.01: 0.0}
        for seed in range(6):
            initial = sample_initial(REF_SPEC, 25, seed)
            fine = NoisePath(seed, 0.01, 50, REF_COEFFS.n_channels)
            for dt, noise in ((0.02, fine.coarsened(2)), (0.01, fine)):
                cfg = IntegratorConfig(dt=dt, horizon=0.5, snapshot_stride=1)
                traj = solve_tangent(initial.positions, REF_COEFFS, cfg, noise)
                res = weak_residual_linear(traj, REF_COEFFS, noise, panel)
                sums[dt] += sum(abs(v) for v in res.values())
        ratio = sums[0.01] / sums[0.02]
        assert 0.5 * 0.65 <= ratio <= 0.5 * 1.35

    def test_trajectory_without_tangents_rejected(self):
        traj, noise = self.run_tangent()
        with pytest.raises(ValueError, match="^tangents must be set"):
            weak_residual_linear(replace(traj, tangents=None), REF_COEFFS, noise, standard_panel(2))

    def test_provenance_mismatch_rejected(self):
        traj, noise = self.run_tangent()
        other = NoisePath(999, noise.dt, noise.n_steps, noise.n_channels)
        with pytest.raises(ValueError):
            weak_residual_linear(traj, REF_COEFFS, other, standard_panel(2))
