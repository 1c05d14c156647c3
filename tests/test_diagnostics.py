"""Diagnostics: panel calculus, weak residuals, QV, atomic functional, collisions."""

import dataclasses
import itertools

import numpy as np
import pytest

from meanfield_sgd.coefficients import SyntheticCoefficients
from meanfield_sgd.diagnostics import (
    BudgetExceeded,
    f_n_functional,
    gaussian_bump,
    min_pairwise_distance,
    moment_track,
    qv_check,
    qv_check_panel,
    smfe_weak_residual,
    smfe_weak_residual_panel,
    standard_panel,
    trig_wave,
    write_report,
)
from meanfield_sgd.dynamics import (
    IntegratorConfig,
    NoisePath,
    ParticleEnsemble,
    sample_initial,
    simulate,
    simulate_transport,
)
from meanfield_sgd.fluctuations import solve_tangent, weak_residual_linear
from meanfield_sgd.harness import build_coefficients, build_initial_spec, reference_config
from meanfield_sgd.measures import EmpiricalMeasure

REF = reference_config()
REF_COEFFS = build_coefficients(REF)
REF_SPEC = build_initial_spec(REF)


class TestPanelCalculus:
    """Every panel member must carry exact derivatives."""

    @pytest.mark.parametrize("phi", standard_panel(2), ids=lambda p: p.name)
    def test_gradient_and_hessian_match_finite_differences(self, phi):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, size=(4, 2))
        h = 1e-5
        grad = phi.grad(X)
        hess = phi.hess(X)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd_g = (phi.value(X + e) - phi.value(X - e)) / (2 * h)
            np.testing.assert_allclose(grad[:, k], fd_g, atol=1e-6)
            fd_h = (phi.grad(X + e) - phi.grad(X - e)) / (2 * h)
            np.testing.assert_allclose(hess[:, :, k], fd_h, atol=1e-6)

    @pytest.mark.parametrize("phi", standard_panel(2), ids=lambda p: p.name)
    def test_jet_orders_agree_bit_for_bit(self, phi):
        X = np.random.default_rng(1).normal(0, 1, size=(6, 2))
        jets = [phi.jet(X, order) for order in range(3)]
        for order, jet in enumerate(jets):
            assert len(jet) == order + 1
            for low, high in zip(jet, jets[2]):
                assert np.array_equal(low, high)

    def test_trig_frequency_capped(self):
        with pytest.raises(ValueError):
            trig_wave([4, 0])

    def test_unbounded_members_flagged(self):
        panel = standard_panel(2)
        flags = {p.name: p.bounded for p in panel}
        assert not flags["x1"]
        assert flags["bump0"]


def full_run(eps, seed=0, n=30, dt=0.01, horizon=0.3, coeffs=REF_COEFFS):
    initial = sample_initial(REF_SPEC, n, seed)
    noise = NoisePath(seed, dt, int(round(horizon / dt)), coeffs.n_channels)
    cfg = IntegratorConfig(dt=dt, horizon=horizon, eps=eps, snapshot_stride=1)
    traj = simulate(initial, coeffs, cfg, noise if eps > 0 else None)
    return traj, noise


def counting_panel(d):
    """standard_panel(d) with each member's jet calls recorded (by order)."""
    panel, calls = [], {}
    for phi in standard_panel(d):
        calls[phi.name] = record = []

        def jet(X, order, base=phi.jet, record=record):
            record.append(order)
            return base(X, order)

        panel.append(dataclasses.replace(phi, jet=jet))
    return panel, calls


class TestJetCalls:
    """One jet per panel member per point set: the value at a snapshot comes
    with the derivatives of the step that starts there."""

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_weak_residual_runs_each_jet_once_per_snapshot(self, eps):
        traj, noise = full_run(eps, seed=5)
        panel, calls = counting_panel(2)
        smfe_weak_residual_panel(traj, noise if eps > 0 else None, REF_COEFFS, eps, panel)
        assert traj.n_snapshots == 31
        assert {name: len(c) for name, c in calls.items()} == {p.name: 31 for p in panel}

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_qv_runs_each_jet_once_per_window_point(self, eps):
        traj, _ = full_run(eps, seed=6)
        panel, calls = counting_panel(2)
        qv_check_panel(traj, REF_COEFFS, panel, window=(0.1, 0.25))
        # 15 steps, from t = 0.10 to t = 0.24, and the snapshot at t = 0.25
        assert {name: len(c) for name, c in calls.items()} == {p.name: 16 for p in panel}

    def test_linear_residual_runs_each_jet_once_per_snapshot(self):
        """<phi, eta_0> comes with step 0's jet: 31 calls on a 30-step tangent run."""
        _, noise = full_run(0.0, seed=7)
        cfg = IntegratorConfig(dt=0.01, horizon=0.3, snapshot_stride=1)
        tangent = solve_tangent(sample_initial(REF_SPEC, 30, 7).positions, REF_COEFFS, cfg, noise)
        panel, calls = counting_panel(2)
        weak_residual_linear(tangent, REF_COEFFS, noise, panel)
        assert tangent.n_snapshots == 31
        assert {name: len(c) for name, c in calls.items()} == {p.name: 31 for p in panel}


class TestWeakResidual:
    def test_constant_is_exactly_zero(self):
        traj, noise = full_run(0.05)
        phi = [p for p in standard_panel(2) if p.name == "const"][0]
        assert smfe_weak_residual(traj, noise, REF_COEFFS, 0.05, phi) == 0.0

    def test_constant_drift_linear_phi_exact(self):
        """eps=0, linear phi, constant Vbar: Euler is exact, residual 0."""
        v = np.array([0.4, -0.1])
        coeffs = SyntheticCoefficients(dim=2, v_bar_batch=lambda X: np.broadcast_to(v, X.shape))
        initial = ParticleEnsemble.uniform(np.random.default_rng(1).normal(size=(5, 2)))
        cfg = IntegratorConfig(dt=0.05, horizon=0.5, snapshot_stride=1)
        traj = simulate_transport(initial, coeffs, cfg)
        phi = [p for p in standard_panel(2) if p.name == "x1"][0]
        r = smfe_weak_residual(traj, None, coeffs, 0.0, phi)
        assert r == pytest.approx(0.0, abs=1e-13)

    def test_residual_order_in_dt(self):
        """mean |R| halves (within 35%) under dt halving, coupled noise."""
        phi = gaussian_bump([0.0, 0.0], 1.0)
        eps = 0.01
        sums = {0.02: 0.0, 0.01: 0.0}
        for seed in range(6):
            initial = sample_initial(REF_SPEC, 25, seed)
            fine = NoisePath(seed, 0.01, 50, REF_COEFFS.n_channels)
            for dt, noise in ((0.02, fine.coarsened(2)), (0.01, fine)):
                cfg = IntegratorConfig(dt=dt, horizon=0.5, eps=eps, snapshot_stride=1)
                traj = simulate(initial, REF_COEFFS, cfg, noise)
                sums[dt] += abs(smfe_weak_residual(traj, noise, REF_COEFFS, eps, phi))
        ratio = sums[0.01] / sums[0.02]
        assert 0.5 * 0.65 <= ratio <= 0.5 * 1.35

    def test_provenance_mismatch_rejected(self):
        traj, noise = full_run(0.05, seed=2)
        other = NoisePath(777, noise.dt, noise.n_steps, noise.n_channels)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            smfe_weak_residual(traj, other, REF_COEFFS, 0.05, phi)

    @pytest.mark.parametrize("eps, matching_noise", [(0.2, True), (0.0, False), (0.05 + 1e-12, True)])
    def test_eps_mismatch_rejected(self, eps, matching_noise):
        """A run at eps = 0.05 scored as another equation raises, naming eps."""
        traj, noise = full_run(0.05, seed=2)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        with pytest.raises(ValueError, match="eps"):
            smfe_weak_residual(traj, noise if matching_noise else None, REF_COEFFS, eps, phi)

    def test_needs_full_resolution(self):
        initial = sample_initial(REF_SPEC, 10, 3)
        noise = NoisePath(3, 0.01, 20, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.2, eps=0.05, snapshot_stride=5)
        traj = simulate(initial, REF_COEFFS, cfg, noise)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            smfe_weak_residual(traj, noise, REF_COEFFS, 0.05, phi)


class TestQvCheck:
    def test_transport_has_no_quadratic_variation(self):
        traj, _ = full_run(0.0, seed=4)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        realized, predicted = qv_check(traj, REF_COEFFS, phi)
        assert predicted == 0.0
        # realized picks up only O(dt^2) quadrature crumbs per step
        assert realized < 1e-6

    def test_single_data_atom_predicts_zero(self):
        from meanfield_sgd.coefficients import ACTIVATIONS, Dataset, NetworkCoefficients

        data = Dataset(atoms=[[0.7]], weights=[1.0], labels=[0.4])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["tanh"])
        traj, _ = full_run(0.05, seed=5, coeffs=coeffs)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        realized, predicted = qv_check(traj, coeffs, phi)
        assert predicted == 0.0
        assert realized < 1e-6

    def test_predicted_is_deterministic_per_path(self):
        traj, _ = full_run(0.05, seed=6)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        _, p1 = qv_check(traj, REF_COEFFS, phi)
        _, p2 = qv_check(traj, REF_COEFFS, phi)
        assert p1 == p2

    def test_window_restricts_the_sum(self):
        traj, _ = full_run(0.05, seed=7)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        r_full, p_full = qv_check(traj, REF_COEFFS, phi)
        r_a, p_a = qv_check(traj, REF_COEFFS, phi, window=(0.0, 0.15))
        r_b, p_b = qv_check(traj, REF_COEFFS, phi, window=(0.15, 0.3))
        assert r_a + r_b == pytest.approx(r_full, rel=1e-12)
        assert p_a + p_b == pytest.approx(p_full, rel=1e-12)


class TestAtomicFunctional:
    def brute_force(self, mu, n):
        total = 0.0
        N = mu.n_atoms
        for tup in itertools.product(range(N), repeat=n):
            prod = 1.0
            for a in range(n):
                for b in range(a + 1, n):
                    prod *= np.sum((mu.atoms[tup[a]] - mu.atoms[tup[b]]) ** 2)
            total += prod * np.prod([mu.weights[i] for i in tup])
        return total

    def test_two_point_hand_value(self):
        """uniform on {0, 1}: F_2 = 2 * (1/4) * 1 = 0.5 by enumerating pairs."""
        mu = EmpiricalMeasure.uniform(np.array([[0.0], [1.0]]))
        assert f_n_functional(mu, 2) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_brute_force(self, n):
        rng = np.random.default_rng(8)
        w = rng.uniform(0.5, 1.5, size=5)
        w /= w.sum()
        mu = EmpiricalMeasure(rng.normal(size=(5, 2)), w)
        assert f_n_functional(mu, n) == pytest.approx(self.brute_force(mu, n), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_few_distinct_atoms_give_exact_zero(self, n):
        """measures supported on <= n-1 points are exactly in the zero set."""
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(n - 1, 3))
        atoms = np.concatenate([pts, pts[: n - 1]], axis=0)  # duplicates
        mu = EmpiricalMeasure.uniform(atoms)
        assert f_n_functional(mu, n) == 0.0

    def test_three_point_functional_on_two_atoms_is_zero(self):
        mu = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([0.3, 0.7]))
        assert f_n_functional(mu, 3) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            mu = EmpiricalMeasure.uniform(rng.normal(size=(6, 2)))
            assert f_n_functional(mu, 3) >= 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 1.5, size=7)
        w /= w.sum()
        pts = rng.normal(size=(7, 2))
        mu = EmpiricalMeasure(pts, w)
        perm = rng.permutation(7)
        nu = EmpiricalMeasure(pts[perm], w[perm])
        for n in (2, 3):
            assert abs(f_n_functional(mu, n) - f_n_functional(nu, n)) < 1e-12

    def test_budget_errors(self):
        mu = EmpiricalMeasure.uniform(np.zeros((2, 1)))
        with pytest.raises(BudgetExceeded):
            f_n_functional(mu, 5)
        big = EmpiricalMeasure.uniform(np.random.default_rng(0).normal(size=(201, 1)))
        with pytest.raises(BudgetExceeded):
            f_n_functional(big, 4)


class TestCollisionMonitor:
    def test_frozen_dynamics_ratio_one(self):
        coeffs = SyntheticCoefficients(dim=2)
        initial = ParticleEnsemble.uniform(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
        cfg = IntegratorConfig(dt=0.1, horizon=1.0, snapshot_stride=1)
        traj = simulate_transport(initial, coeffs, cfg)
        _, ratio = min_pairwise_distance(traj)
        assert ratio == 1.0

    def test_rigid_translation_ratio_one(self):
        v = np.array([0.5, 0.5])
        coeffs = SyntheticCoefficients(dim=2, v_bar_batch=lambda X: np.broadcast_to(v, X.shape))
        initial = ParticleEnsemble.uniform(np.array([[0.0, 0.0], [1.0, 0.0]]))
        cfg = IntegratorConfig(dt=0.1, horizon=1.0, snapshot_stride=1)
        traj = simulate_transport(initial, coeffs, cfg)
        _, ratio = min_pairwise_distance(traj)
        assert ratio == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_initial_atoms_are_ignored(self):
        coeffs = SyntheticCoefficients(dim=2)
        initial = ParticleEnsemble.uniform(
            np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        )
        cfg = IntegratorConfig(dt=0.1, horizon=0.2, snapshot_stride=1)
        traj = simulate_transport(initial, coeffs, cfg)
        curve, ratio = min_pairwise_distance(traj)
        assert ratio == 1.0
        assert np.all(curve == 1.0)

    def test_all_identical_atoms_rejected(self):
        coeffs = SyntheticCoefficients(dim=2)
        initial = ParticleEnsemble.uniform(np.zeros((3, 2)))
        cfg = IntegratorConfig(dt=0.1, horizon=0.1, snapshot_stride=1)
        traj = simulate_transport(initial, coeffs, cfg)
        with pytest.raises(ValueError):
            min_pairwise_distance(traj)


class TestMomentTrack:
    def test_frozen_dynamics_sup_is_initial(self):
        coeffs = SyntheticCoefficients(dim=2)
        initial = ParticleEnsemble.uniform(np.array([[1.0, 0.0], [0.0, -2.0]]))
        cfg = IntegratorConfig(dt=0.1, horizon=0.5, snapshot_stride=1)
        traj = simulate_transport(initial, coeffs, cfg)
        sup, _ = moment_track(traj, 2)
        assert sup == pytest.approx(2.5, abs=1e-15)

    def test_rigid_translation_geometry_bound(self):
        v = np.array([0.25, 0.0])
        coeffs = SyntheticCoefficients(dim=2, v_bar_batch=lambda X: np.broadcast_to(v, X.shape))
        initial = ParticleEnsemble.uniform(np.array([[0.5, 0.5], [-0.5, 0.0]]))
        cfg = IntegratorConfig(dt=0.05, horizon=1.0, snapshot_stride=1)
        traj = simulate_transport(initial, coeffs, cfg)
        sup, _ = moment_track(traj, 2)
        max_r0 = np.max(np.linalg.norm(initial.positions, axis=1))
        assert sup <= (max_r0 + np.linalg.norm(v) * 1.0) ** 2 + 1e-12


class TestReport:
    def test_write_report(self, tmp_path):
        rows = [("bump0", 1, "weak_residual", 1.25e-4), ("-", 1, "min_distance_ratio", 0.8)]
        path = tmp_path / "report.txt"
        write_report(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == "phi seed metric value"
        assert len(text) == 3
