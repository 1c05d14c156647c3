"""Integrators: interacting Euler-Maruyama, transport, SGD chain, Picard."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meanfield_sgd import harness
from meanfield_sgd.coefficients import (
    ACTIVATIONS,
    CoefficientError,
    Dataset,
    NetworkCoefficients,
    SyntheticCoefficients,
)
from meanfield_sgd.diagnostics import gaussian_bump, qv_check, trig_wave
from meanfield_sgd.dynamics import (
    InitialSpec,
    IntegratorConfig,
    NoisePath,
    ParticleEnsemble,
    SimulationError,
    Trajectory,
    embedded_step,
    picard_solve,
    run_sgd,
    sample_initial,
    simulate,
    simulate_coupled,
    simulate_transport,
    step_interacting,
    write_trajectory,
)
from meanfield_sgd.fluctuations import eta_eps, solve_tangent
from meanfield_sgd.harness import (ExperimentConfig, build_coefficients, build_initial_spec, exp_clt_rate,
                                   exp_lln_rate, exp_particle_rate, reference_config)
from meanfield_sgd.measures import EmpiricalMeasure, w2

nan, inf = float("nan"), float("inf")


REF = reference_config()
REF_COEFFS = build_coefficients(REF)
REF_SPEC = build_initial_spec(REF)


def frozen_coeffs(dim=2):
    return SyntheticCoefficients(dim=dim)


def short_run(eps=0.01):
    """A full-resolution run of length 0.1: 10 steps of 5 particles."""
    cfg = IntegratorConfig(dt=1e-2, horizon=0.1, eps=eps)
    noise = NoisePath(0, 1e-2, 10, REF_COEFFS.n_channels)
    return simulate(sample_initial(REF_SPEC, 5, 0), REF_COEFFS, cfg, noise)


class TestNoisePath:
    def test_reproducible_from_seed(self):
        a = NoisePath(11, 0.01, 50, 3)
        b = NoisePath(11, 0.01, 50, 3)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_independent_across_steps_and_channels(self):
        n = NoisePath(12, 0.5, 4000, 2)
        flat = n.increments.ravel()
        assert abs(flat.mean()) < 3 * np.sqrt(0.5 / flat.size)
        assert abs(flat.var() - 0.5) < 0.05
        corr = np.corrcoef(n.increments[:, 0], n.increments[:, 1])[0, 1]
        assert abs(corr) < 0.05

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), dt=st.floats(1e-4, 1.0), factor=st.integers(1, 6),
           groups=st.integers(0, 8), channels=st.integers(1, 5))
    def test_coarsened_sums_the_fine_increments(self, seed, dt, factor, groups, channels):
        """coarsened(k) holds the fine increments summed k at a time, in order,
        bit for bit, and the meta of the coarse path."""
        fine = NoisePath(seed, dt, factor * groups, channels)
        coarse = fine.coarsened(factor)
        summed = [sum(fine.increments[g * factor + i] for i in range(factor)) for g in range(groups)]
        np.testing.assert_array_equal(coarse.increments, np.reshape(summed, (groups, channels)))
        assert coarse.meta == {"seed": seed, "dt": factor * dt, "n_steps": groups, "n_channels": channels}

    def test_coarsened_sums_the_same_path(self):
        n = NoisePath(13, 0.01, 100, 2)
        c = n.coarsened(4)
        assert c.dt == pytest.approx(0.04)
        np.testing.assert_allclose(c.increments[0], n.increments[:4].sum(axis=0), atol=1e-15)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            NoisePath(1, 0.01, 10, 1).coarsened(3)


class TestStep:
    def test_frozen_dynamics_invariant(self):
        ens = ParticleEnsemble.uniform(np.array([[0.1, 0.2], [0.3, -0.4]]))
        cfg = IntegratorConfig(dt=0.1, horizon=1.0, eps=0.5)
        new = ens
        for k in range(10):
            new = step_interacting(new, frozen_coeffs(), cfg, np.zeros(1) + 1.0)
        np.testing.assert_array_equal(new.positions, ens.positions)

    def test_eps_zero_equals_transport_step(self):
        rng = np.random.default_rng(0)
        ens = ParticleEnsemble.uniform(rng.normal(size=(10, 2)))
        cfg0 = IntegratorConfig(dt=0.01, horizon=0.01, eps=0.0)
        a = step_interacting(ens, REF_COEFFS, cfg0, None)
        traj = simulate_transport(ens, REF_COEFFS, cfg0)
        np.testing.assert_array_equal(a.positions, traj.positions[-1])

    def test_single_data_atom_noise_is_inert(self):
        """centering kills G for one data atom, so eps > 0 matches eps = 0."""
        data = Dataset(atoms=[[0.7]], weights=[1.0], labels=[0.4])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["tanh"])
        rng = np.random.default_rng(1)
        initial = ParticleEnsemble.uniform(rng.normal(size=(8, 2)))
        noise = NoisePath(5, 0.01, 20, 1)
        cfg = IntegratorConfig(dt=0.01, horizon=0.2, eps=0.3)
        noisy = simulate(initial, coeffs, cfg, noise)
        clean = simulate_transport(initial, coeffs, cfg)
        np.testing.assert_allclose(noisy.positions, clean.positions, atol=1e-13)

    def test_wrong_channel_count_rejected(self):
        ens = ParticleEnsemble.uniform(np.zeros((2, 2)))
        cfg = IntegratorConfig(dt=0.1, horizon=0.1, eps=1.0)
        with pytest.raises(SimulationError):
            step_interacting(ens, REF_COEFFS, cfg, np.zeros(2))

    def test_nonfinite_state_aborts_with_diagnostic(self):
        blow = SyntheticCoefficients(dim=1, v_bar_batch=lambda X: X * np.inf)
        ens = ParticleEnsemble.uniform(np.ones((2, 1)))
        cfg = IntegratorConfig(dt=0.1, horizon=0.1)
        with pytest.raises(SimulationError, match="non-finite"):
            step_interacting(ens, blow, cfg, None)


class TestSimulate:
    def test_weights_never_mutated(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0.5, 1.5, size=12)
        w /= w.sum()
        initial = ParticleEnsemble(rng.normal(size=(12, 2)), w)
        noise = NoisePath(3, 1e-2, 50, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=1e-2, horizon=0.5, eps=0.05, snapshot_stride=5)
        traj = simulate(initial, REF_COEFFS, cfg, noise)
        np.testing.assert_array_equal(traj.weights, w)
        assert traj.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_bitwise_determinism(self):
        initial = sample_initial(REF_SPEC, 20, 9)
        noise_a = NoisePath(9, 1e-2, 30, REF_COEFFS.n_channels)
        noise_b = NoisePath(9, 1e-2, 30, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=1e-2, horizon=0.3, eps=0.02)
        a = simulate(initial, REF_COEFFS, cfg, noise_a)
        b = simulate(initial, REF_COEFFS, cfg, noise_b)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_noise_too_short_rejected(self):
        initial = sample_initial(REF_SPEC, 5, 0)
        noise = NoisePath(0, 1e-2, 10, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=1e-2, horizon=0.5, eps=0.1)
        with pytest.raises(SimulationError):
            simulate(initial, REF_COEFFS, cfg, noise)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_noise_meta_only_when_the_path_is_read(self, eps):
        """simulate and the one-run simulate_coupled record the same
        noise_meta: the path's at eps > 0, None at eps 0, where no row of
        the path is read."""
        initial = sample_initial(REF_SPEC, 6, 0)
        noise = NoisePath(4, 1e-2, 5, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=1e-2, horizon=5e-2, eps=eps)
        alone = simulate(initial, REF_COEFFS, cfg, noise)
        (coupled,) = simulate_coupled([(initial, eps)], REF_COEFFS, cfg, noise)
        assert alone.noise_meta == coupled.noise_meta == (noise.meta if eps else None)
        np.testing.assert_array_equal(alone.positions, coupled.positions)

    @pytest.mark.parametrize("integrate", [
        lambda ini, cfg, noise: simulate(ini, REF_COEFFS, cfg, noise),
        lambda ini, cfg, noise: simulate_coupled([(ini, 0.05), (ini, 0.0)], REF_COEFFS, cfg, noise)[0],
        lambda ini, cfg, noise: simulate_coupled([(ini, 0.0)], REF_COEFFS, cfg, noise, tangent=[0])[0],
        lambda ini, cfg, noise: solve_tangent(ini.positions, REF_COEFFS, cfg, noise),
        lambda ini, cfg, noise: picard_solve(ini, REF_COEFFS, cfg, noise, tol=1e-6, max_iter=2).trajectory,
    ], ids=["simulate", "simulate_coupled", "simulate_coupled-tangent", "solve_tangent", "picard_solve"])
    def test_recorded_times_are_whole_steps_of_dt(self, integrate):
        """a snapshot's time is its step count times dt, not a running sum of
        dt: 10 steps of 5e-3 are 0.05 and 580 steps of 1e-3 are 0.58, where
        the sums read 0.049999999999999996 and 0.5800000000000004."""
        ini = sample_initial(REF_SPEC, 4, 0)
        for dt, n_steps, stride, index, time in ((5e-3, 10, 1, 10, 0.05), (1e-3, 580, 20, 29, 0.58)):
            cfg = IntegratorConfig(dt=dt, horizon=n_steps * dt, eps=0.05, snapshot_stride=stride)
            traj = integrate(ini, cfg, NoisePath(1, dt, n_steps, REF_COEFFS.n_channels))
            assert traj.times[index] == time
            np.testing.assert_array_equal(traj.times, np.arange(0, n_steps + 1, stride) * dt)

    def test_picard_starts_at_the_initial_time(self):
        """picard_solve records its times from the initial ensemble's clock,
        as simulate does."""
        ini = sample_initial(REF_SPEC, 4, 0)
        ini.time = 1.0
        cfg = IntegratorConfig(dt=1e-2, horizon=5e-2)
        np.testing.assert_array_equal(picard_solve(ini, REF_COEFFS, cfg, None, tol=1e-6).trajectory.times,
                                      simulate(ini, REF_COEFFS, cfg, None).times)
        assert simulate(ini, REF_COEFFS, cfg, None).times[-1] == 1.0 + 5 * 1e-2

    def test_strong_order_richardson(self):
        """coupled self-comparison: the refinement gap halves (within 30%)
        when dt halves, averaged over seeds."""
        dt, horizon, eps = 0.02, 0.5, 1e-3
        ratios = []
        for seed in range(5):
            initial = sample_initial(REF_SPEC, 50, seed)
            fine = NoisePath(seed, dt / 4, int(round(horizon / (dt / 4))), REF_COEFFS.n_channels)
            ends = {}
            for tag, h, noise in (
                ("c", dt, fine.coarsened(4)),
                ("m", dt / 2, fine.coarsened(2)),
                ("f", dt / 4, fine),
            ):
                cfg = IntegratorConfig(dt=h, horizon=horizon, eps=eps,
                                       snapshot_stride=int(round(horizon / h)))
                ends[tag] = simulate(initial, REF_COEFFS, cfg, noise).positions[-1]
            d1 = np.sqrt(np.mean(np.sum((ends["c"] - ends["m"]) ** 2, axis=1)))
            d2 = np.sqrt(np.mean(np.sum((ends["m"] - ends["f"]) ** 2, axis=1)))
            ratios.append(d2 / d1)
        mean_ratio = np.mean(ratios)
        assert 0.35 <= mean_ratio <= 0.65


class TestTransport:
    def test_critical_interpolating_configuration_is_fixed(self):
        """one data atom with matched prediction: V = 0 at t = 0, and the
        ensemble never moves."""
        data = Dataset(atoms=[[1.0]], weights=[1.0], labels=[0.5])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["identity"], allow_unbounded=True)
        # two particles whose mean output c*u equals the label 0.5
        initial = ParticleEnsemble.uniform(np.array([[1.0, 0.75], [1.0, 0.25]]))
        V0 = coeffs.drift(initial.positions, initial)
        np.testing.assert_allclose(V0, 0.0, atol=1e-14)
        cfg = IntegratorConfig(dt=0.01, horizon=0.5)
        traj = simulate_transport(initial, coeffs, cfg)
        np.testing.assert_allclose(traj.positions[-1], initial.positions, atol=1e-13)

    def test_weak_derivative_identity(self):
        """d/dt <phi, mu_t> tracks <grad phi . V, mu_t> with O(dt) residual."""
        initial = sample_initial(REF_SPEC, 40, 4)
        phi = gaussian_bump([0.0, 0.0], 1.0)
        resids = []
        for dt in (0.01, 0.005):
            cfg = IntegratorConfig(dt=dt, horizon=0.2)
            traj = simulate_transport(initial, REF_COEFFS, cfg)
            r_max = 0.0
            for s in range(traj.n_snapshots - 1):
                mu = traj.measure_at(s)
                lhs = (
                    traj.weights @ phi.value(traj.positions[s + 1])
                    - traj.weights @ phi.value(traj.positions[s])
                ) / dt
                V = REF_COEFFS.drift(traj.positions[s], mu)
                rhs = traj.weights @ np.einsum("nd,nd->n", phi.grad(traj.positions[s]), V)
                r_max = max(r_max, abs(lhs - rhs))
            resids.append(r_max)
        assert resids[0] < 0.05
        assert resids[1] < 0.7 * resids[0]

    def test_constant_drift_translates_rigidly(self):
        v = np.array([0.3, -0.2])
        coeffs = SyntheticCoefficients(dim=2, v_bar_batch=lambda X: np.broadcast_to(v, X.shape))
        rng = np.random.default_rng(5)
        initial = ParticleEnsemble.uniform(rng.normal(size=(6, 2)))
        cfg = IntegratorConfig(dt=0.125, horizon=1.0)
        traj = simulate_transport(initial, coeffs, cfg)
        np.testing.assert_allclose(traj.positions[-1], initial.positions + v * 1.0,
                                   rtol=0, atol=1e-14)


class TestRunSgd:
    def test_zero_labels_zero_output_weights_frozen(self):
        data = Dataset(atoms=[[0.5], [-0.5]], weights=[0.5, 0.5], labels=[0.0, 0.0])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["tanh"])
        init = np.array([[0.0, 0.4], [0.0, -0.7]])
        chain = run_sgd(coeffs, 2, alpha=0.1, batch_size=1, n_steps=25, seed=1, initial=init)
        np.testing.assert_array_equal(chain.positions[-1], init)

    def test_one_step_hand_gradient(self):
        """1 data atom, 1 particle, identity activation: symbolic update."""
        theta, label = 2.0, 1.0
        data = Dataset(atoms=[[theta]], weights=[1.0], labels=[label])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["identity"], allow_unbounded=True)
        c0, u0, alpha = 0.5, 0.25, 0.1
        chain = run_sgd(coeffs, 1, alpha, 1, 1, seed=0,
                        initial=np.array([[c0, u0]]))
        resid = label - c0 * u0 * theta           # f - c phi(u theta)
        expected = np.array([
            c0 + alpha * resid * (u0 * theta),    # d(phi)/dc = phi(u theta)
            u0 + alpha * resid * (c0 * theta),    # c phi'(u theta) theta
        ])
        np.testing.assert_allclose(chain.positions[1, 0], expected, atol=1e-14)

    def test_time_embedding(self):
        initial = sample_initial(REF_SPEC, 8, 3).positions
        chain = run_sgd(REF_COEFFS, 8, alpha=1 / 8, batch_size=1, n_steps=8, seed=0,
                        initial=initial)
        mu = chain.measure_at_time(0.5)  # floor(8 * 0.5) = step 4
        np.testing.assert_array_equal(mu.atoms, chain.positions[4])

    @pytest.mark.parametrize("seed", [0, [0], (0, 1, 2), [0, 1.5], "ab"], ids=["int", "one", "three", "fractional",
                                                                          "string"])
    def test_lockstep_chains_take_one_integer_seed_each(self, seed):
        """two chains, initial (2, 3, d), take a sequence of two integer seeds."""
        with pytest.raises(ValueError, match="^seed must"):
            run_sgd(REF_COEFFS, 3, alpha=0.1, batch_size=1, n_steps=2, seed=seed, initial=np.zeros((2, 3, 2)))

    def test_time_embedding_takes_whole_steps(self):
        """t = 0.29 and 0.58 are steps 29 and 58 at M = 100, 0.58 step 29 at
        M = 50 and 0.29 step 58 at M = 200, though their float products fall
        just below; the chain to T = 1.1 at M = 50 takes 55 steps, not 56."""
        assert 50 * 0.58 < 29 and 100 * 0.29 < 29 and 200 * 0.29 < 58 and 50 * 1.1 > 55
        np.testing.assert_array_equal(embedded_step(100, np.array([0.0, 0.29, 0.58, 1.0])), [0, 29, 58, 100])
        assert (embedded_step(50, 0.58), embedded_step(200, 0.29)) == (29, 58)
        assert (embedded_step(50, 1.1, up=True), embedded_step(50, 0.999, up=True)) == (55, 50)
        assert (embedded_step(50, 0.0199), embedded_step(50, 0.02)) == (0, 1)
        chain = run_sgd(REF_COEFFS, 50, alpha=1 / 50, batch_size=1, n_steps=30, seed=0,
                        initial=sample_initial(REF_SPEC, 50, 3).positions)
        np.testing.assert_array_equal(chain.measure_at_time(0.58).atoms, chain.positions[29])

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_detected(self):
        data = Dataset(atoms=[[1.0]], weights=[1.0], labels=[1.0])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["identity"], allow_unbounded=True)
        with pytest.raises(SimulationError):
            run_sgd(coeffs, 1, alpha=1e6, batch_size=1, n_steps=200, seed=0,
                    initial=np.array([[5.0, 5.0]]))


class TestPicard:
    def test_no_measure_feedback_converges_immediately(self):
        """Vtilde = 0 and G independent of mu: iterate 2 reproduces iterate 1."""
        coeffs = SyntheticCoefficients(
            dim=1, n_channels=2,
            v_bar_batch=lambda X: -0.5 * X,
            g_apply=lambda X, atoms, w, c: np.ones_like(X) * 0.3 * (c[0] - c[1]),
        )
        initial = ParticleEnsemble.uniform(np.array([[0.5], [-0.25], [1.0]]))
        noise = NoisePath(4, 0.01, 50, 2)
        cfg = IntegratorConfig(dt=0.01, horizon=0.5, eps=0.5)
        result = picard_solve(initial, coeffs, cfg, noise, tol=1e-12)
        assert result.converged
        assert result.iterations == 2
        assert result.gaps[1] == 0.0

    def test_geometric_decay_and_fixed_point(self):
        initial = sample_initial(REF_SPEC, 30, 8)
        noise = NoisePath(8, 5e-3, 100, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=5e-3, horizon=0.5, eps=0.01, snapshot_stride=10)
        tol = 1e-6
        result = picard_solve(initial, REF_COEFFS, cfg, noise, tol=tol)
        assert result.converged
        gaps = result.gaps
        ratios = [b / a for a, b in zip(gaps[1:-1], gaps[2:]) if a > 0]
        assert all(r < 0.9 for r in ratios)
        direct = simulate(initial, REF_COEFFS, cfg, noise)
        sup = max(
            w2(result.trajectory.measure_at(s), direct.measure_at(s))
            for s in range(direct.n_snapshots)
        )
        assert sup < 2 * tol

    def test_noise_dt_mismatch_rejected(self):
        """a path at twice the step would drive every step with increments at
        the wrong scale; it is refused like in simulate."""
        initial = sample_initial(REF_SPEC, 5, 0)
        noise = NoisePath(0, 2e-2, 20, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=1e-2, horizon=0.1, eps=0.01)
        with pytest.raises(SimulationError, match="dt"):
            picard_solve(initial, REF_COEFFS, cfg, noise, tol=1e-6)

    @pytest.mark.parametrize("dt, k", [(0.01, 2), (0.05, 5)])
    def test_divergence_reports_its_own_time(self, dt, k):
        """A run from time 0.5 whose solve goes non-finite at step k reports
        t = 0.5 + k dt, where it reported k dt, with no overflow warning on
        the way (the suite turns one into an error)."""
        # the particle at 0 moves at speed 1 until it passes (k - 1.5) dt,
        # then its drift overflows to inf
        coeffs = SyntheticCoefficients(
            dim=1, v_bar_batch=lambda X: np.where(X > (k - 1.5) * dt, X * 1e300 * 1e300, 1.0))
        initial = ParticleEnsemble(np.array([[0.0], [-1.0]]), np.array([0.5, 0.5]), time=0.5)
        with pytest.raises(SimulationError, match=rf"^non-finite state at step {k} \(t={0.5 + k * dt:.6g}\)"):
            picard_solve(initial, coeffs, IntegratorConfig(dt=dt, horizon=10 * dt), None, tol=1e-6)

    def test_failure_reported_with_gap_log(self):
        initial = sample_initial(REF_SPEC, 10, 8)
        noise = NoisePath(8, 1e-2, 20, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=1e-2, horizon=0.2, eps=0.01)
        result = picard_solve(initial, REF_COEFFS, cfg, noise, tol=1e-15, max_iter=2)
        assert not result.converged
        assert len(result.gaps) == 2


class TestBoundaryValidation:
    @pytest.mark.parametrize("make, field", [
        (lambda: IntegratorConfig(dt=1e-2, horizon=-0.1), "horizon"),
        (lambda: IntegratorConfig(dt=1e-2, horizon=0.1, eps=float("nan")), "eps"),
        (lambda: IntegratorConfig(dt=float("inf"), horizon=0.1), "dt"),
        (lambda: sample_initial(REF_SPEC, 0, 0), "n"),
        (lambda: exp_clt_rate(reference_config(eps_grid=(), replicas=10, horizon=0.01)), "eps_grid"),
        (lambda: reference_config(m_grid=()).validate_for_rates(), "m_grid"),
        (lambda: reference_config(alpha_grid=()).validate_for_rates(), "alpha_grid"),
        (lambda: ExperimentConfig.from_json("[1, 2]"), "config"),
        (lambda: ExperimentConfig.from_json('{"n_partcles": 100}'), "n_partcles"),
        (lambda: ExperimentConfig.from_json(
            '{"n_particles": "abc", "dt": -1, "instance": "nope", "threads": 0}'), "instance"),
        (lambda: reference_config(instance="nope"), "instance"),
        (lambda: reference_config(activation="relu"), "activation"),
        (lambda: reference_config(activation="identity"), "activation"),
        (lambda: reference_config(mu0_kind="gaussian"), "mu0_kind"),
        (lambda: reference_config(synthetic_params=(("kappa", 0.5), ("beta", 1.0))),
         "synthetic_params"),
        (lambda: reference_config(n_particles="abc"), "n_particles"),
        (lambda: reference_config(n_particles=0), "n_particles"),
        (lambda: reference_config(replicas=-3), "replicas"),
        (lambda: reference_config(replicas=10.0), "replicas"),
        (lambda: reference_config(threads=0), "threads"),
        (lambda: reference_config(snapshot_stride=0), "snapshot_stride"),
        (lambda: reference_config(clt_snapshot_stride=True), "clt_snapshot_stride"),
        (lambda: reference_config(sobolev_j=0), "sobolev_j"),
        (lambda: reference_config(k_max=7), "k_max"),
        (lambda: reference_config(dt=-1), "dt"),
        (lambda: reference_config(dt=0.0), "dt"),
        (lambda: reference_config(dt=float("nan")), "dt"),
        (lambda: reference_config(dt="1e-3"), "dt"),
        (lambda: reference_config(dt=True), "dt"),
        (lambda: reference_config(horizon="x"), "horizon"),
        (lambda: reference_config(horizon=-1.0), "horizon"),
        (lambda: reference_config(horizon=nan), "horizon"),
        (lambda: ExperimentConfig(), "dataset_rows"),
        (lambda: reference_config(eps_grid=(0.1, "x")), "eps_grid"),
        (lambda: reference_config(m_grid=(50, None)), "m_grid"),
        (lambda: reference_config(m_grid=(10.5, 20)), "m_grid"),
        (lambda: reference_config(base_seed=-1), "base_seed"),
        (lambda: reference_config(r_box=0.0), "r_box"),
        (lambda: reference_config(r_box=-2.0), "r_box"),
        (lambda: reference_config(r_box=inf), "r_box"),
        (lambda: reference_config(r_box=nan), "r_box"),
        (lambda: reference_config(dataset_rows=((0.5, 1.0),)), "dataset_rows"),
        (lambda: reference_config(dataset_rows=((0.5, 0.5, 0.1), (0.5, 0.5))), "dataset_rows"),
        (lambda: reference_config(mu0_low=(-1.0, -1.0), mu0_high=(1.0,)), "mu0_high"),
        (lambda: reference_config(mu0_low=(-1.0,), mu0_high=(1.0,)), "mu0_low"),
        (lambda: ExperimentConfig(instance="synthetic-1d"), "mu0_low"),
        (lambda: reference_config(mu0_low=(1.0, -1.0), mu0_high=(-1.0, 1.0)), "mu0_high"),
        (lambda: reference_config(mu0_low=(nan, -1.0)), "mu0_low"),
        (lambda: reference_config(mu0_high=(1.0, inf)), "mu0_high"),
        (lambda: reference_config(eps_grid=(0.1, -0.2)).validate_for_rates(), "eps_grid"),
        (lambda: reference_config(alpha_grid=(0.1, 0.3, 0.2)).validate_for_rates(), "alpha_grid"),
        (lambda: exp_lln_rate(reference_config(eps_grid=(0.01, 0.1, inf), replicas=10)), "eps_grid"),
        (lambda: exp_lln_rate(reference_config(eps_grid=(0.01, nan, 0.1), replicas=10)), "eps_grid"),
        (lambda: harness.exp_commute(reference_config(alpha_grid=(0.01, 0.1, inf), replicas=10)),
         "alpha_grid"),
        (lambda: reference_config(alpha_grid=(nan,)).validate_for_rates(), "alpha_grid"),
        (lambda: IntegratorConfig(dt=1e-2, horizon=0.1, snapshot_stride=2.5), "snapshot_stride"),
        (lambda: NoisePath(0, -1.0, 10, 2), "dt"),
        (lambda: NoisePath(0, 0.0, 10, 2), "dt"),
        (lambda: NoisePath(0, nan, 10, 2), "dt"),
        (lambda: NoisePath(0, 1e-2, -1, 2), "n_steps"),
        (lambda: NoisePath(0, 1e-2, 10, 0), "n_channels"),
        (lambda: NoisePath(0, 1e-2, 10, 2).coarsened(0), "factor"),
        (lambda: run_sgd(REF_COEFFS, 3, alpha=0.1, batch_size=1, n_steps=-1, seed=0,
                         initial=np.zeros((3, 2))), "n_steps"),
        (lambda: exp_lln_rate(reference_config(replicas=10, eps_grid=(0.1, 0.01))), "eps_grid"),
        (lambda: exp_clt_rate(reference_config(replicas=10, eps_grid=(0.1, 0.01))), "eps_grid"),
        (lambda: exp_particle_rate(reference_config(replicas=10, m_grid=(10, 20))), "m_grid"),
        (lambda: ParticleEnsemble.uniform(np.zeros((0, 2))), "positions"),
        (lambda: NoisePath(-1, 0.01, 10, 2), "seed"),
        (lambda: NoisePath(1.5, 0.01, 10, 2), "seed"),
        (lambda: exp_clt_rate(reference_config(replicas=10, n_particles=20, horizon=0.02,
                                               clt_snapshot_stride=10, k_max=16, sobolev_j=2)),
         "sobolev_j"),
        (lambda: exp_particle_rate(ExperimentConfig(
            instance="synthetic-1d", mu0_low=(0.5,), mu0_high=(0.5,), m_grid=(10, 20, 40),
            replicas=10, horizon=0.02, dt=0.01)), "mu0_high"),
        (lambda: run_sgd(REF_COEFFS, 3, alpha=nan, batch_size=1, n_steps=2, seed=0,
                         initial=np.zeros((3, 2))), "alpha"),
        (lambda: run_sgd(REF_COEFFS, 3, alpha=inf, batch_size=1, n_steps=2, seed=0,
                         initial=np.zeros((3, 2))), "alpha"),
        (lambda: run_sgd(REF_COEFFS, 3, alpha=0.0, batch_size=1, n_steps=2, seed=0,
                         initial=np.zeros((3, 2))), "alpha"),
        (lambda: run_sgd(REF_COEFFS, 3, alpha=0.1, batch_size=1.5, n_steps=2, seed=0,
                         initial=np.zeros((3, 2))), "batch_size"),
        (lambda: run_sgd(REF_COEFFS, 3, alpha=0.1, batch_size=0, n_steps=2, seed=0,
                         initial=np.zeros((3, 2))), "batch_size"),
        (lambda: sample_initial(REF_SPEC, 2.5, 0), "n"),
        (lambda: picard_solve(sample_initial(REF_SPEC, 4, 0), REF_COEFFS,
                              IntegratorConfig(dt=1e-2, horizon=0.05), None, tol=1e-6, max_iter=0),
         "max_iter"),
        (lambda: picard_solve(sample_initial(REF_SPEC, 4, 0), REF_COEFFS,
                              IntegratorConfig(dt=1e-2, horizon=0.05), None, tol=1e-6, max_iter=1.5),
         "max_iter"),
        (lambda: picard_solve(sample_initial(REF_SPEC, 4, 0), REF_COEFFS,
                              IntegratorConfig(dt=1e-2, horizon=0.05), None, tol=nan), "tol"),
        (lambda: qv_check(short_run(), REF_COEFFS, gaussian_bump([0.0, 0.0], 1.0), window=(5.0, 6.0)),
         "window"),
        (lambda: qv_check(short_run(), REF_COEFFS, gaussian_bump([0.0, 0.0], 1.0), window=(0.08, 0.02)),
         "window"),
        (lambda: trig_wave([1, 0], "tan"), "phase"),
        (lambda: eta_eps(short_run(), short_run(0.0), nan), "eps"),
        (lambda: ExperimentConfig.from_json('{"dataset_rows": [[0.5, 1.0, 0.3]], "eps_grid": 0.1}'),
         "eps_grid"),
        (lambda: ExperimentConfig.from_json('{"dataset_rows": 5}'), "dataset_rows"),
        (lambda: ExperimentConfig.from_json('{"dataset_rows": [0.5, 1.0, 0.3]}'), "dataset_rows"),
        (lambda: ExperimentConfig.from_json('{"instance": "synthetic-1d", "mu0_low": [-1], '
                                            '"mu0_high": [1], "synthetic_params": null}'),
         "synthetic_params"),
        (lambda: ExperimentConfig.from_json('{"instance": "synthetic-1d", "mu0_low": [-1], '
                                            '"mu0_high": [1], "synthetic_params": [["kappa"]]}'),
         "synthetic_params"),
        (lambda: ExperimentConfig.from_json('{"instance": "synthetic-1d", "mu0_low": [-1], '
                                            '"mu0_high": [1], "synthetic_params": [["kappa", "x"]]}'),
         "synthetic_params"),
        (lambda: reference_config(synthetic_params=(("kappa", 0.5), ("kappa", 1.0))), "synthetic_params"),
        (lambda: ExperimentConfig(instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,),
                                  synthetic_params=(("kappa", nan),)), "synthetic_params"),
        (lambda: InitialSpec(low=[0.0, 0.0], high=[1.0]), "high"),
        (lambda: InitialSpec(low=[nan, 0.0], high=[1.0, 1.0]), "low"),
        (lambda: InitialSpec(low=None, high=[1.0, 1.0]), "low"),
        (lambda: InitialSpec(low=[0.0, 0.0], high=[1.0, None]), "high"),
        (lambda: InitialSpec(low=[0.0, 1.0], high=[1.0, 0.0]), "high"),
    ], ids=["negative-horizon", "nan-eps", "infinite-dt", "zero-particles", "empty-eps-grid",
            "empty-m-grid", "empty-alpha-grid", "config-not-an-object", "config-unknown-key", "config-json",
            "config-instance", "config-activation", "config-unbounded-activation",
            "config-mu0-kind", "config-synthetic-params", "config-string-particles",
            "config-zero-particles", "config-negative-replicas", "config-float-replicas",
            "config-zero-threads", "config-zero-stride", "config-bool-clt-stride",
            "config-zero-sobolev-j", "config-small-k-max", "config-negative-dt", "config-zero-dt",
            "config-nan-dt", "config-string-dt", "config-bool-dt", "config-string-horizon",
            "config-negative-horizon", "config-nan-horizon", "config-network-without-dataset",
            "config-string-grid-entry", "config-none-grid-entry", "config-fractional-m",
            "config-negative-seed", "config-zero-r-box", "config-negative-r-box", "config-infinite-r-box",
            "config-nan-r-box", "config-short-dataset-rows", "config-ragged-dataset-rows",
            "config-unequal-mu0-box", "config-mu0-box-below-dimension", "config-synthetic-default-box",
            "config-mu0-low-above-high", "config-nan-mu0-low", "config-infinite-mu0-high",
            "rates-negative-grid", "rates-unsorted-grid", "lln-infinite-eps", "lln-nan-eps",
            "commute-infinite-alpha", "rates-nan-alpha", "fractional-snapshot-stride",
            "noise-negative-dt", "noise-zero-dt", "noise-nan-dt", "noise-negative-steps",
            "noise-no-channels", "noise-zero-coarsening", "sgd-negative-steps",
            "lln-two-point-eps-grid", "clt-two-point-eps-grid", "particle-two-point-m-grid",
            "empty-initial-atoms", "noise-negative-seed", "noise-fractional-seed",
            "clt-low-sobolev-j", "particle-point-mass-box", "sgd-nan-alpha", "sgd-infinite-alpha",
            "sgd-zero-alpha", "sgd-fractional-batch", "sgd-zero-batch", "fractional-particles",
            "picard-zero-iterations", "picard-fractional-iterations", "picard-nan-tol",
            "qv-window-after-run", "qv-reversed-window", "trig-unknown-phase", "eta-nan-eps",
            "json-scalar-eps-grid", "json-scalar-dataset-rows", "json-flat-dataset-rows",
            "json-null-synthetic-params", "json-unpaired-synthetic-param",
            "json-string-synthetic-param", "config-repeated-synthetic-param", "config-nan-kappa",
            "initial-short-high", "initial-nan-low", "initial-none-low",
            "initial-none-high", "initial-inverted-box"])
    def test_bad_input_names_its_field(self, make, field, monkeypatch):
        """Each bad input is refused, naming its field, before any run is integrated."""
        runs = []
        for name in ("simulate", "simulate_transport", "simulate_coupled", "solve_tangent"):
            monkeypatch.setattr(harness, name, lambda *args, **kwargs: runs.append(args))
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            make()
        assert runs == []

    @pytest.mark.parametrize("atoms, weights, labels, field", [
        ([[0.1], [0.2]], [nan, 1.0], [0.1, 0.2], "weights"),
        ([[0.1], [0.2]], [0.5, inf], [0.1, 0.2], "weights"),
        ([[nan], [0.2]], [0.5, 0.5], [0.1, 0.2], "atoms"),
        ([[0.1], [-inf]], [0.5, 0.5], [0.1, 0.2], "atoms"),
        ([[0.1], [0.2]], [0.5, 0.5], [nan, 0.2], "labels"),
        ([[0.1], [0.2]], [0.5, 0.5], [0.1, inf], "labels"),
    ], ids=["nan-weight", "inf-weight", "nan-atom", "inf-atom", "nan-label", "inf-label"])
    def test_non_finite_dataset_names_its_field(self, atoms, weights, labels, field):
        with pytest.raises(CoefficientError, match=rf"^{field} must be finite"):
            Dataset(atoms=atoms, weights=weights, labels=labels)

    @pytest.mark.parametrize("atoms, weights, field", [
        ([[nan, 0.0], [1.0, 1.0]], [0.5, 0.5], "atoms"),
        ([[0.0, inf], [1.0, 1.0]], [0.5, 0.5], "atoms"),
        ([[0.0, 0.0], [1.0, 1.0]], [nan, 1.0], "weights"),
        ([[0.0, 0.0], [1.0, 1.0]], [inf, 0.5], "weights"),
    ], ids=["nan-atom", "inf-atom", "nan-weight", "inf-weight"])
    def test_non_finite_measure_names_its_field(self, atoms, weights, field):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            EmpiricalMeasure(np.array(atoms), np.array(weights))

    @pytest.mark.parametrize("grid, values", [
        ("eps_grid", (0.01, 0.1, inf)),
        ("eps_grid", (0.01, nan, 0.1)),
        ("alpha_grid", (nan, 0.1)),
    ], ids=["inf-eps", "nan-eps", "nan-alpha"])
    def test_non_finite_grid_entry_is_refused_as_such(self, grid, values):
        """a NaN entry is named as not finite, not as out of order."""
        with pytest.raises(ValueError, match=rf"^{grid} must be finite \(got "):
            reference_config(**{grid: values}).validate_for_rates()

    def test_dataset_file_box_names_mu0_low(self, tmp_path):
        """A 2-input dataset file makes 3-d parameters: the default 2-d box is
        refused where the file is read, when the config is built."""
        path = tmp_path / "data.txt"
        path.write_text("0.0 1.0 0.5 0.1\n1.0 -1.0 0.5 -0.2\n")
        with pytest.raises(ValueError, match=r"^mu0_low must be of length 3"):
            ExperimentConfig(dataset_file=str(path), replicas=10, horizon=0.01)
        box = ExperimentConfig(dataset_file=str(path), mu0_low=(-1.0,) * 3, mu0_high=(1.0,) * 3,
                               replicas=10, horizon=0.01)
        assert build_coefficients(box).dim == 3

    def test_list_increment_row_is_an_array(self):
        """step_interacting reads a list row as the array it lists, as tangent_step does."""
        ens = sample_initial(REF_SPEC, 6, 0)
        cfg = IntegratorConfig(dt=1e-2, horizon=1e-2, eps=0.05)
        row = [0.1, -0.05, 0.02, 0.0, 0.07]
        np.testing.assert_array_equal(step_interacting(ens, REF_COEFFS, cfg, row).positions,
                                      step_interacting(ens, REF_COEFFS, cfg, np.array(row)).positions)

    @pytest.mark.parametrize("row", [[0.1, 0.2], [[0.1] * 5], 0.3], ids=["short", "nested", "scalar"])
    def test_misshapen_list_increment_row_names_channels(self, row):
        ens = sample_initial(REF_SPEC, 6, 0)
        cfg = IntegratorConfig(dt=1e-2, horizon=1e-2, eps=0.05)
        with pytest.raises(SimulationError, match=r"^dB must be an increment row of shape \(5,\)"):
            step_interacting(ens, REF_COEFFS, cfg, row)

    @pytest.mark.parametrize("integrate", [
        lambda ini, cfg, noise: simulate(ini, REF_COEFFS, cfg, noise),
        lambda ini, cfg, noise: simulate_coupled([(ini, 0.05), (ini, 0.0)], REF_COEFFS, cfg, noise),
        lambda ini, cfg, noise: solve_tangent(ini.positions, REF_COEFFS, cfg, noise),
        lambda ini, cfg, noise: picard_solve(ini, REF_COEFFS, cfg, noise, tol=1e-6),
    ], ids=["simulate", "simulate_coupled", "solve_tangent", "picard_solve"])
    def test_noise_path_channel_count_checked_before_any_step(self, integrate, monkeypatch):
        """A NoisePath with the wrong channel count is refused up front,
        naming both counts, before the first step."""
        steps = []
        monkeypatch.setattr(REF_COEFFS, "coupled_step", lambda *a, **k: steps.append(a))
        monkeypatch.setattr(REF_COEFFS, "increment", lambda *a, **k: steps.append(a))
        ini = sample_initial(REF_SPEC, 6, 0)
        cfg = IntegratorConfig(dt=1e-2, horizon=5e-2, eps=0.05)
        noise = NoisePath(0, 1e-2, 5, 3)
        with pytest.raises(SimulationError, match=r"^noise must have 5 channels, one per data atom \(got 3\)$"):
            integrate(ini, cfg, noise)
        assert steps == []

    @pytest.mark.parametrize("carriers, message", [
        ([1], r"^eps must be 0 at the runs that carry the tangents \(got \[0.05\]\)$"),
        ([0, 0], r"^tangent must be distinct run indices below 3 \(got \[0, 0\]\)$"),
        ([3], r"^tangent must be distinct run indices below 3 \(got \[3\]\)$"),
        ([-1], r"^tangent must be distinct run indices below 3 \(got \[-1\]\)$"),
        ([0, 2], r"^positions must be of one shape on the runs that carry the tangents"),
    ], ids=["noisy", "repeated", "past-the-end", "negative", "two-sizes"])
    def test_coupled_tangents_need_transport_runs_of_one_size(self, carriers, message):
        """The runs named to carry tangents are distinct runs of the batch,
        at eps 0 and of one size; anything else is refused before a step."""
        ini = sample_initial(REF_SPEC, 6, 0)
        cfg = IntegratorConfig(dt=1e-2, horizon=5e-2)
        noise = NoisePath(0, 1e-2, 5, REF_COEFFS.n_channels)
        runs = [(ini, 0.0), (ini, 0.05), (sample_initial(REF_SPEC, 4, 1), 0.0)]
        with pytest.raises(ValueError, match=message):
            simulate_coupled(runs, REF_COEFFS, cfg, noise, tangent=carriers)


def _diverging_noise():
    """Zero drift and a per-particle noise G_p = +-50 x^2: a run blows up
    within a few steps at eps = 10 and stays bounded at small eps."""
    def g_apply(X, atoms, weights, c):
        return 50.0 * X ** 2 * (c[0] - c[1])

    return SyntheticCoefficients(dim=1, n_channels=2, g_apply=g_apply)


SYNTHETIC_1D = harness.build_coefficients(ExperimentConfig(instance="synthetic-1d", mu0_low=(-1.0,),
                                                           mu0_high=(1.0,)))
# a run of a segmented batch moves within 1e-15 of the largest |x| per step
# of its own run (coupled_step); over the few steps below, within this
SEGMENT_TOL = 1e-13


@st.composite
def segmented_batches(draw):
    """Runs of 1 to 40 particles on their own weights, each at its own eps
    (0 among the choices), on the network or the synthetic instance; with
    ``tangent`` the last run is at eps 0, on uniform weights, and carries the
    tangents."""
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    eps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
                        min_size=len(sizes), max_size=len(sizes)))
    tangent = draw(st.booleans())
    if tangent:
        eps[-1] = 0.0
    return dict(sizes=sizes, eps=eps, tangent=tangent, network=draw(st.booleans()),
                uniform=draw(st.booleans()), seed=draw(st.integers(0, 2**16)))


def _own_run(initial, coeffs, cfg, eps, noise, carries=False):
    """The run a member of a coupled batch must equal: simulate, the
    transport run, or the tangent solve."""
    if carries:
        return solve_tangent(initial.positions, coeffs, cfg, noise)
    if eps:
        return simulate(initial, coeffs, replace(cfg, eps=eps), noise)
    return simulate_transport(initial, coeffs, cfg)


class TestCoupledRuns:
    """simulate_coupled is the runs it batches: bit for bit on one size and
    weight vector, to rounding on runs of different sizes."""

    def test_no_runs_is_no_trajectories(self):
        assert simulate_coupled([], REF_COEFFS, IntegratorConfig(dt=1e-2, horizon=5e-2), None) == []

    @settings(max_examples=40, deadline=None)
    @given(case=segmented_batches())
    def test_segmented_batch_equals_its_runs(self, case):
        coeffs = REF_COEFFS if case["network"] else SYNTHETIC_1D
        rng = np.random.default_rng(case["seed"])
        cfg = IntegratorConfig(dt=1e-2, horizon=5e-2, snapshot_stride=2)
        noise = NoisePath(case["seed"], 1e-2, 5, coeffs.n_channels)
        runs = []
        for b, (n, e) in enumerate(zip(case["sizes"], case["eps"])):
            weights = np.full(n, 1.0 / n)
            if not case["uniform"] and not (case["tangent"] and b == len(case["sizes"]) - 1):
                weights = rng.uniform(0.5, 1.5, size=n)
                weights /= weights.sum()
            runs.append((ParticleEnsemble(rng.uniform(-1, 1, size=(n, coeffs.dim)), weights), e))
        got = simulate_coupled(runs, coeffs, cfg, noise, tangent=[len(runs) - 1] if case["tangent"] else [])
        for b, ((initial, e), run) in enumerate(zip(runs, got)):
            carries = case["tangent"] and b == len(runs) - 1
            want = _own_run(initial, coeffs, cfg, e, noise, carries)
            for field in ("positions", "tangents") if carries else ("positions",):
                value = getattr(want, field)
                np.testing.assert_allclose(getattr(run, field), value, rtol=0,
                                           atol=SEGMENT_TOL * max(np.abs(value).max(), 1.0))
            np.testing.assert_array_equal(run.weights, initial.weights)
            np.testing.assert_array_equal(run.times, want.times)
            assert (run.eps, run.noise_meta) == (want.eps, want.noise_meta)

    def test_a_diverged_segment_fails_alone(self):
        """Runs of 8, 5 and 13 particles, the first at eps = 10, which blows
        up: its entry is the error its own run raises, and the segments
        beside it, the tangent carrier among them, are their own runs and
        the batch without it, bit for bit."""
        coeffs = _diverging_noise()
        runs = [(ParticleEnsemble.uniform(np.linspace(-0.5, 0.5, n)[:, None]), e)
                for n, e in ((8, 10.0), (5, 1e-4), (13, 0.0))]
        cfg = IntegratorConfig(dt=1e-2, horizon=0.2, snapshot_stride=5)
        noise = NoisePath(1, 1e-2, 20, 2)
        with pytest.raises(SimulationError) as alone:
            simulate(runs[0][0], coeffs, replace(cfg, eps=10.0), noise)
        got = simulate_coupled(runs, coeffs, cfg, noise, tangent=[2])
        assert isinstance(got[0], SimulationError) and str(got[0]) == str(alone.value)
        without = simulate_coupled(runs[1:], coeffs, cfg, noise, tangent=[1])
        for run, other, (initial, e), carries in zip(got[1:], without, runs[1:], (False, True)):
            want = _own_run(initial, coeffs, cfg, e, noise, carries)
            for field in ("positions", "tangents") if carries else ("positions",):
                np.testing.assert_array_equal(getattr(run, field), getattr(want, field))
                np.testing.assert_array_equal(getattr(run, field), getattr(other, field))

    @pytest.mark.parametrize("sizes, tangent", [((8, 8, 8), False), ((8, 5, 13), True)],
                             ids=["reshape", "segmented"])
    def test_a_diverged_network_run_fails_alone(self, sizes, tangent):
        """The bounded network stays finite from any finite atom, so the
        first run starts from an atom at inf: its entry is the error its own
        run raises, and the runs beside it are the batch without it bit for
        bit, and their own runs (to rounding in a segmented batch)."""
        rng = np.random.default_rng(5)
        eps = (0.1, 1e-2, 0.0)
        runs = [(ParticleEnsemble.uniform(rng.uniform(-1, 1, size=(n, REF_COEFFS.dim))), e)
                for n, e in zip(sizes, eps)]
        runs[0][0].positions[3] = inf
        cfg = IntegratorConfig(dt=1e-2, horizon=0.1, snapshot_stride=3)
        noise = NoisePath(2, 1e-2, 10, REF_COEFFS.n_channels)
        with pytest.raises(SimulationError) as alone:
            simulate(runs[0][0], REF_COEFFS, replace(cfg, eps=eps[0]), noise)
        got = simulate_coupled(runs, REF_COEFFS, cfg, noise, tangent=[2] if tangent else [])
        assert isinstance(got[0], SimulationError) and str(got[0]) == str(alone.value)
        without = simulate_coupled(runs[1:], REF_COEFFS, cfg, noise, tangent=[1] if tangent else [])
        for b, (run, other, (initial, e)) in enumerate(zip(got[1:], without, runs[1:]), start=1):
            carries = tangent and b == len(runs) - 1
            want = _own_run(initial, REF_COEFFS, cfg, e, noise, carries)
            for field in ("positions", "tangents") if carries else ("positions",):
                value = getattr(want, field)
                tol = SEGMENT_TOL * max(np.abs(value).max(), 1.0) if tangent else 0.0
                np.testing.assert_allclose(getattr(run, field), value, rtol=0, atol=tol)
                np.testing.assert_array_equal(getattr(run, field), getattr(other, field))

    @pytest.mark.parametrize("coeffs, n, init", [
        (REF_COEFFS, 40, REF_SPEC),
        (harness.build_coefficients(ExperimentConfig(instance="synthetic-1d", mu0_low=(-1.0,),
                                                     mu0_high=(1.0,))),
         25, InitialSpec(low=[-1.0], high=[1.0])),
    ], ids=["network", "synthetic-1d"])
    def test_members_equal_their_own_runs(self, coeffs, n, init):
        initial = sample_initial(init, n, 3)
        cfg = IntegratorConfig(dt=1e-2, horizon=0.2, snapshot_stride=3)
        noise = NoisePath(3, 1e-2, 20, coeffs.n_channels)
        eps = [0.1, 0.01, 0.0, 1e-3]
        for run, e in zip(simulate_coupled([(initial, e) for e in eps], coeffs, cfg, noise), eps):
            want = (simulate(initial, coeffs, replace(cfg, eps=e), noise) if e
                    else simulate_transport(initial, coeffs, cfg))
            np.testing.assert_array_equal(run.positions, want.positions)
            np.testing.assert_array_equal(run.times, want.times)
            assert (run.eps, run.noise_meta, run.snapshot_stride) == (want.eps, want.noise_meta, 3)
        *_, carrier = simulate_coupled([(initial, 0.1), (initial, 0.0)], coeffs, cfg, noise, tangent=[1])
        want = solve_tangent(initial.positions, coeffs, cfg, noise)
        np.testing.assert_array_equal(carrier.positions, want.positions)
        np.testing.assert_array_equal(carrier.tangents, want.tangents)
        assert carrier.noise_meta == want.noise_meta

    def test_a_diverged_run_fails_alone(self):
        """The largest eps blows up: its entry is the error its own run
        raises, and the runs beside it are unchanged."""
        coeffs = _diverging_noise()
        initial = ParticleEnsemble.uniform(np.linspace(-0.5, 0.5, 8)[:, None])
        cfg = IntegratorConfig(dt=1e-2, horizon=0.2, snapshot_stride=5)
        noise = NoisePath(1, 1e-2, 20, 2)
        eps = [10.0, 1e-4, 0.0]
        with pytest.raises(SimulationError) as alone:
            simulate(initial, coeffs, replace(cfg, eps=10.0), noise)
        runs = simulate_coupled([(initial, e) for e in eps], coeffs, cfg, noise, tangent=[2])
        assert isinstance(runs[0], SimulationError) and str(runs[0]) == str(alone.value)
        np.testing.assert_array_equal(
            runs[1].positions, simulate(initial, coeffs, replace(cfg, eps=1e-4), noise).positions)
        np.testing.assert_array_equal(
            runs[2].tangents, solve_tangent(initial.positions, coeffs, cfg, noise).tangents)


@st.composite
def replica_packs(draw):
    """1 to 12 replicas, each with the same run set on uniform weights (as
    the replica runner makes them): runs of one size or of mixed sizes, at
    noise scales with a 0 among them, on the network or the synthetic
    instance; one run of one replica starts from an atom at inf."""
    n_runs = draw(st.integers(1, 4))
    sizes = (draw(st.lists(st.integers(1, 30), min_size=n_runs, max_size=n_runs)) if draw(st.booleans())
             else [draw(st.integers(1, 30))] * n_runs)
    eps = draw(st.lists(st.floats(1e-4, 1.0), min_size=n_runs - 1, max_size=n_runs - 1))
    eps.insert(draw(st.integers(0, n_runs - 1)), 0.0)
    n_rep = draw(st.integers(1, 12))
    return dict(sizes=sizes, eps=eps, n_rep=n_rep, network=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
                diverging=(draw(st.integers(0, n_rep - 1)), draw(st.integers(0, n_runs - 1))))


class TestReplicaPacks:
    @settings(max_examples=40, deadline=None)
    @given(case=replica_packs())
    def test_a_packed_run_is_its_replicas_run(self, case):
        """Each run of a pack, on its own replica's noise path, is the same
        run of its replica's own batch bit for bit: positions, times,
        noise_meta and the error text of the diverging run."""
        coeffs = REF_COEFFS if case["network"] else SYNTHETIC_1D
        rng = np.random.default_rng(case["seed"])
        cfg = IntegratorConfig(dt=1e-2, horizon=5e-2, snapshot_stride=2)
        replicas = []
        for r in range(case["n_rep"]):
            runs = [(ParticleEnsemble.uniform(rng.uniform(-1, 1, size=(n, coeffs.dim))), e)
                    for n, e in zip(case["sizes"], case["eps"])]
            replicas.append((runs, NoisePath(case["seed"] + r, 1e-2, 5, coeffs.n_channels)))
        r, b = case["diverging"]
        replicas[r][0][b][0].positions[0] = inf
        packed = simulate_coupled([run for runs, _ in replicas for run in runs], coeffs, cfg,
                                  [noise for runs, noise in replicas for _ in runs])
        own = [run for runs, noise in replicas for run in simulate_coupled(runs, coeffs, cfg, noise)]
        assert isinstance(own[r * len(case["sizes"]) + b], SimulationError)
        for got, want in zip(packed, own, strict=True):
            assert type(got) is type(want)
            if isinstance(want, SimulationError):
                assert str(got) == str(want)
                continue
            np.testing.assert_array_equal(got.positions, want.positions)
            np.testing.assert_array_equal(got.times, want.times)
            assert (got.eps, got.noise_meta) == (want.eps, want.noise_meta)


@st.composite
def carrier_packs(draw):
    """1 to 12 replicas, each with eps runs on uniform weights (of one size
    or mixed sizes) and a transport run of one size across the pack that
    carries its replica's tangents, at a drawn place among its runs, on the
    network or the synthetic instance; one run of one replica, the carrier
    or an eps run, starts from an atom at inf."""
    n_eps = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    sizes = (draw(st.lists(st.integers(1, 30), min_size=n_eps, max_size=n_eps)) if draw(st.booleans())
             else [n] * n_eps)
    eps = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 1.0)), min_size=n_eps, max_size=n_eps))
    n_rep = draw(st.integers(1, 12))
    return dict(sizes=sizes, eps=eps, n=n, carrier=draw(st.integers(0, n_eps)), n_rep=n_rep,
                network=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
                diverging=(draw(st.integers(0, n_rep - 1)), draw(st.one_of(st.none(), st.integers(0, n_eps - 1)))))


class TestCarrierPacks:
    @settings(max_examples=40, deadline=None)
    @given(case=carrier_packs())
    def test_a_packed_carrier_is_its_replicas_carrier(self, case):
        """A pack that carries one tangent system per replica is each
        replica's own one-carrier batch bit for bit: positions, tangents,
        times, noise_meta and the error text of the diverging run; a
        diverging carrier (``diverging`` run None) fails its replica alone."""
        coeffs = REF_COEFFS if case["network"] else SYNTHETIC_1D
        rng = np.random.default_rng(case["seed"])
        cfg = IntegratorConfig(dt=1e-2, horizon=5e-2, snapshot_stride=2)
        c = case["carrier"]
        replicas = []
        for r in range(case["n_rep"]):
            runs = [(ParticleEnsemble.uniform(rng.uniform(-1, 1, size=(n, coeffs.dim))), e)
                    for n, e in zip(case["sizes"], case["eps"])]
            runs.insert(c, (ParticleEnsemble.uniform(rng.uniform(-1, 1, size=(case["n"], coeffs.dim))), 0.0))
            replicas.append((runs, NoisePath(case["seed"] + r, 1e-2, 5, coeffs.n_channels)))
        r, b = case["diverging"]
        b = c if b is None else b + (b >= c)
        replicas[r][0][b][0].positions[0] = inf
        size = len(case["sizes"]) + 1
        packed = simulate_coupled([run for runs, _ in replicas for run in runs], coeffs, cfg,
                                  [noise for runs, noise in replicas for _ in runs],
                                  tangent=[k * size + c for k in range(case["n_rep"])])
        own = [run for runs, noise in replicas for run in simulate_coupled(runs, coeffs, cfg, noise, tangent=[c])]
        assert isinstance(own[r * size + b], SimulationError)
        for k, (got, want) in enumerate(zip(packed, own, strict=True)):
            assert type(got) is type(want)
            if isinstance(want, SimulationError):
                assert str(got) == str(want)
                continue
            np.testing.assert_array_equal(got.positions, want.positions)
            np.testing.assert_array_equal(got.times, want.times)
            assert (got.tangents is None) == (k % size != c)
            if k % size == c:
                np.testing.assert_array_equal(got.tangents, want.tangents)
            assert (got.eps, got.noise_meta) == (want.eps, want.noise_meta)


class TestSampleInitial:
    def test_explicit_atoms(self):
        atoms = np.array([[1.0, 2.0], [3.0, 4.0]])
        ens = ParticleEnsemble.uniform(atoms)
        np.testing.assert_array_equal(ens.positions, atoms)
        np.testing.assert_array_equal(ens.weights, [0.5, 0.5])

    def test_deterministic_per_seed(self):
        spec = InitialSpec(low=[-1, -1], high=[1, 1])
        a = sample_initial(spec, 50, 3)
        b = sample_initial(spec, 50, 3)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_second_moment_matches_spec(self):
        """empirical <|x|^2> within 3 standard errors at N = 10^4."""
        spec = InitialSpec(low=[-1.0, -1.0], high=[1.0, 1.0])
        ens = sample_initial(spec, 10_000, 7)
        emp = float(np.mean(np.einsum("nd,nd->n", ens.positions, ens.positions)))
        lo, hi = np.asarray(spec.low), np.asarray(spec.high)
        target = float(np.sum((hi**2 + hi * lo + lo**2) / 3.0))  # 2/3 for the unit square
        assert target == pytest.approx(2.0 / 3.0, abs=1e-12)
        # var of |x|^2 for the square: E|x|^4 - (E|x|^2)^2
        x4 = 2 * (1 / 5) + 2 * (1 / 3) ** 2  # E x1^4 + 2 E x1^2 x2^2 ... per axis sums
        se = np.sqrt((x4 - target**2) / 10_000)
        assert abs(emp - target) < 3 * se


class TestStabilityCoupling:
    def test_halving_the_initial_gap_halves_the_sup_gap(self):
        """two ensembles coupled through one NoisePath: scaling the initial
        squared gap by 1/2 scales the mean sup squared gap by a factor in
        [0.3, 0.8] (30 seeds, reduced-size reference instance)."""
        shift = np.array([1.0, 1.0]) / np.sqrt(2.0)
        cfg = IntegratorConfig(dt=5e-3, horizon=0.5, eps=0.01, snapshot_stride=10)
        sup_full, sup_half = [], []
        for seed in range(30):
            initial = sample_initial(REF_SPEC, 30, seed)
            noise = NoisePath(seed, 5e-3, 100, REF_COEFFS.n_channels)
            base = simulate(initial, REF_COEFFS, cfg, noise)
            for delta, store in ((0.05, sup_full), (0.05 / np.sqrt(2), sup_half)):
                moved = ParticleEnsemble.uniform(initial.positions + delta * shift)
                traj = simulate(moved, REF_COEFFS, cfg, noise)
                sup = max(
                    w2(traj.measure_at(s), base.measure_at(s)) ** 2
                    for s in range(traj.n_snapshots)
                )
                store.append(sup)
        factor = np.mean(sup_half) / np.mean(sup_full)
        assert 0.3 <= factor <= 0.8


class TestMomentPreservation:
    def test_constant_stable_across_ensemble_sizes(self):
        """sup_t <phi_2, mu_t> / (1 + <phi_2, mu_0>) stable over N (+-25%)."""
        cfg = IntegratorConfig(dt=5e-3, horizon=0.5, eps=0.01, snapshot_stride=10)
        ratios = []
        for n in (50, 100, 200):
            vals = []
            for seed in range(5):
                initial = sample_initial(REF_SPEC, n, seed)
                noise = NoisePath(seed, 5e-3, 100, REF_COEFFS.n_channels)
                traj = simulate(initial, REF_COEFFS, cfg, noise)
                m0 = initial.weights @ np.einsum("nd,nd->n", initial.positions, initial.positions)
                sup = max(
                    traj.weights @ np.einsum("nd,nd->n", traj.positions[s], traj.positions[s])
                    for s in range(traj.n_snapshots)
                )
                vals.append(sup / (1.0 + m0))
            ratios.append(np.mean(vals))
        center = np.mean(ratios)
        assert np.max(np.abs(np.array(ratios) - center)) <= 0.25 * center


def read_trajectory(path):
    """A ``write_trajectory`` file: (noise header or None, steps, times,
    positions (S, N, d), tangents (S, N, d) or None)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = None
    if lines[0].startswith("# noise "):
        tags = dict(part.split("=") for part in lines.pop(0).split()[2:])
        header = {"seed": int(tags["seed"]), "dt": float(tags["dt"]), "n_steps": int(tags["steps"]),
                  "n_channels": int(tags["channels"])}
    columns = lines.pop(0)
    rows = [line.split() for line in lines]
    n = 1 + max(int(row[2]) for row in rows)
    s = len(rows) // n
    values = np.array([[float(v) for v in row[3:]] for row in rows]).reshape(s, n, -1)
    steps = np.array([int(row[0]) for row in rows[::n]])
    times = np.array([float(row[1]) for row in rows[::n]])
    if columns.endswith(" y1..yd"):
        d = values.shape[-1] // 2
        return header, steps, times, values[..., :d], values[..., d:]
    return header, steps, times, values, None


class TestTrajectorySerialization:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
           stride=st.integers(1, 3), with_noise=st.booleans(), with_tangents=st.booleans())
    def test_round_trip(self, tmp_path_factory, data, shape, stride, with_noise, with_tangents):
        """Positions and tangents come back bit for bit from %.17g; the tangent
        columns appear exactly when tangents are set; the noise header is the
        path's meta, all four fields."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        n_snap, n, d = shape
        dt = 0.01
        noise = NoisePath(data.draw(st.integers(0, 2**32)), dt, (n_snap - 1) * stride, 2)
        traj = Trajectory(
            times=np.arange(n_snap) * stride * dt, positions=data.draw(arrays(float, shape, elements=finite)),
            weights=np.full(n, 1.0 / n), dt=dt, eps=0.01 if with_noise else 0.0, snapshot_stride=stride,
            noise_meta=noise.meta if with_noise else None,
            tangents=data.draw(arrays(float, shape, elements=finite)) if with_tangents else None)
        path = tmp_path_factory.mktemp("traj") / "traj.txt"
        write_trajectory(traj, path)
        header, steps, times, positions, tangents = read_trajectory(path)
        np.testing.assert_array_equal(positions, traj.positions)
        np.testing.assert_array_equal(times, traj.times)
        np.testing.assert_array_equal(steps, np.arange(n_snap) * stride)
        assert (tangents is None) == (traj.tangents is None)
        if with_tangents:
            np.testing.assert_array_equal(tangents, traj.tangents)
        assert header == (noise.meta if with_noise else None)

    def test_columnar_text_with_noise_metadata(self, tmp_path):
        initial = sample_initial(REF_SPEC, 4, 1)
        noise = NoisePath(1, 0.01, 10, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.1, eps=0.02, snapshot_stride=5)
        traj = simulate(initial, REF_COEFFS, cfg, noise)
        path = tmp_path / "traj.txt"
        write_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# noise seed=1 dt=0.01 steps=10 channels={REF_COEFFS.n_channels}"
        assert lines[1].startswith("# columns: step time pid x1..xd")
        data = [l.split() for l in lines[2:]]
        assert len(data) == traj.n_snapshots * 4
        assert all(len(row) == 3 + 2 for row in data)

    def test_tangent_column_group(self, tmp_path):
        initial = sample_initial(REF_SPEC, 3, 2)
        noise = NoisePath(2, 0.01, 10, REF_COEFFS.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.1, snapshot_stride=5)
        tang = solve_tangent(initial.positions, REF_COEFFS, cfg, noise)
        path = tmp_path / "tangent.txt"
        write_trajectory(tang, path)
        rows = [l.split() for l in path.read_text().splitlines() if not l.startswith("#")]
        assert all(len(row) == 3 + 2 + 2 for row in rows)
        # the tangent columns reproduce the recorded tangents
        got = np.array([[float(v) for v in row[5:]] for row in rows])
        np.testing.assert_allclose(got.reshape(tang.tangents.shape), tang.tangents, rtol=1e-15)
