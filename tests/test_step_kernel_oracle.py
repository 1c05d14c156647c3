"""The channel-contraction step kernel against the formulas it replaced.

Every Euler, SGD, frozen-measure and tangent step is now one contraction
sum_p kappa_p grad Phi(x_i, theta_p).  The functions prefixed ``oracle_``
are the drift, the ``r grad Phi - V`` noise increment, the per-sample SGD
loop and the ``vtilde_y_apply`` einsum as they were written before, kept
here verbatim (up to reading the coefficient internals from outside) as
the reference.  The kernel only reassociates sums, so it must agree with
them to 1e-13.

The batched step (``coupled_step``: B coupled runs on one leading axis, and
the tangent system fused onto the transport run) is checked against the
per-run ``increment``, ``step_interacting`` and ``tangent_step`` as they
were before it, ``oracle_step`` and ``oracle_tangent_step``: it follows
their operation order, so it must agree with them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paper_forms as pf
from meanfield_sgd.coefficients import ACTIVATIONS, Activation, Dataset, NetworkCoefficients
from meanfield_sgd.dynamics import (
    IntegratorConfig,
    ParticleEnsemble,
    run_sgd,
    seeded_rng,
    simulate_transport,
    step_interacting,
)
from meanfield_sgd.fluctuations import TangentEnsemble, tangent_step

TOL = dict(rtol=1e-13, atol=1e-13)
ACTS = ["tanh", "sigmoid", "smoothed-relu"]


def make_coeffs(activation, bias, n_atoms=5, seed=0):
    """A random 2-input network; with ``bias`` its atoms gain a constant
    coordinate, whose input weight is the bias (d = n0 + 2)."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-1, 1, size=(n_atoms, 2))
    w = rng.uniform(0.5, 1.5, size=n_atoms)
    w /= w.sum()
    labels = np.sin(np.pi * thetas[:, 0]) * 0.5
    coeffs = NetworkCoefficients(Dataset(thetas, w, labels), activation)
    return pf.with_bias(coeffs) if bias else coeffs


def ensemble(coeffs, n, seed=1):
    return ParticleEnsemble.uniform(np.random.default_rng(seed).normal(size=(n, coeffs.dim)))


def _z(coeffs, X):
    return coeffs._split(X)[1] @ coeffs._theta.T


def oracle_drift(coeffs, X, measure):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r = coeffs.residuals(measure)
    c, _ = coeffs._split(X)
    z = _z(coeffs, X)
    phi, dphi = coeffs.activation.jet(z, 1)
    common = coeffs._w * r
    out = np.empty((X.shape[0], coeffs.dim))
    out[:, 0] = phi @ common
    cd = c[:, None] * dphi
    out[:, 1:] = (cd * common[None, :]) @ coeffs._theta
    return out


def oracle_noise_increment(coeffs, X, measure, dB):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r = coeffs.residuals(measure)
    kappa = r * coeffs._sqrt_w * dB
    c, _ = coeffs._split(X)
    z = _z(coeffs, X)
    phi, dphi = coeffs.activation.jet(z, 1)
    out = np.empty((X.shape[0], coeffs.dim))
    out[:, 0] = phi @ kappa
    cd = c[:, None] * dphi
    out[:, 1:] = (cd * kappa[None, :]) @ coeffs._theta
    V = oracle_drift(coeffs, X, measure)
    return out - V * float(coeffs._sqrt_w @ dB)


def oracle_vtilde_y_apply(coeffs, X, base, tangents):
    base = np.atleast_2d(np.asarray(base, dtype=float))
    tangents = np.atleast_2d(np.asarray(tangents, dtype=float))
    n = base.shape[0]
    grad_base = coeffs.grad_feature_matrix(base)          # (N0, P, d)
    beta = np.einsum("jpd,jd->p", grad_base, tangents) / n   # (P,)
    grad_x = coeffs.grad_feature_matrix(X)                # (N, P, d)
    return -np.einsum("p,p,npd->nd", coeffs._w, beta, grad_x)


def oracle_run_sgd(coeffs, alpha, batch_size, n_steps, seed, initial):
    rng = seeded_rng(seed, "sgd-batches")
    w = coeffs.channel_weights
    X = np.array(initial, dtype=float)
    out = [X]
    for step in range(n_steps):
        ens = ParticleEnsemble.uniform(X)
        batch = rng.choice(coeffs.n_channels, size=batch_size, p=w)
        r = coeffs.residuals(ens)
        grad = coeffs.grad_feature_matrix(X)  # (N, P, d)
        step_dir = np.zeros_like(X)
        for p in batch:
            step_dir += r[p] * grad[:, p, :]
        X = X + (alpha / batch_size) * step_dir
        out.append(X)
    return np.array(out)


def oracle_run_sgd_two_jets(coeffs, alpha, batch_size, n_steps, seed, initial):
    """``run_sgd`` as it was before one jet served each step: per step one
    batch draw, the residuals from an order-0 jet and the contraction from
    an order-1 jet."""
    rng = seeded_rng(seed, "sgd-batches")
    w = coeffs.channel_weights
    X = np.array(initial, dtype=float)
    out = [X]
    for _ in range(n_steps):
        batch = rng.choice(coeffs.n_channels, size=batch_size, p=w)
        share = np.bincount(batch, minlength=coeffs.n_channels) / batch_size
        r = coeffs.residuals(ParticleEnsemble.uniform(X))
        X = X + coeffs._contract(X, alpha * share * r)
        out.append(X)
    return np.array(out)


def oracle_gradient_descent(coeffs, alpha, n_steps, initial):
    """The full-batch SGD chain (the sampled batch replaced by its
    expectation): each step x += alpha V(x, mu)."""
    X = np.array(initial, dtype=float)
    out = [X]
    for step in range(n_steps):
        X = X + alpha * oracle_drift(coeffs, X, ParticleEnsemble.uniform(X))
        out.append(X)
    return np.array(out)


def oracle_gradient_descent_contraction(coeffs, alpha, n_steps, initial):
    """The full-batch branch ``run_sgd`` had before that option went: each
    step one contraction with kappa_p = alpha w_p r_p."""
    X = np.array(initial, dtype=float)
    out = [X]
    for _ in range(n_steps):
        r = coeffs.residuals(ParticleEnsemble.uniform(X))
        X = X + coeffs._contract(X, alpha * coeffs.channel_weights * r)
        out.append(X)
    return np.array(out)


def oracle_assemble(coeffs, row_c, row_u, kappa):
    """The per-run ``_assemble``: one run's rows (N, P), kappa (P,)."""
    out = np.empty((row_c.shape[0], coeffs.dim))
    out[:, 0] = row_c @ kappa
    out[:, 1:] = (row_u * kappa) @ coeffs._theta
    return out


def oracle_contract(coeffs, X, kappa):
    c, _ = coeffs._split(X)
    phi, dphi = coeffs.activation.jet(_z(coeffs, X), 1)
    return oracle_assemble(coeffs, phi, c[:, None] * dphi, kappa)


def oracle_increment(coeffs, X, measure, dt, eps, dB):
    """The per-run ``increment`` (two jets: the residuals' and the contraction's)."""
    kappa = coeffs._w * dt
    if eps > 0.0:
        kappa = kappa + np.sqrt(eps) * coeffs._noise_kappa(dB)
    return oracle_contract(coeffs, X, coeffs.residuals(measure) * kappa)


def oracle_step(X, weights, coeffs, dt, eps, dB):
    """The per-run ``step_interacting``: X + its increment in its own measure."""
    return X + oracle_increment(coeffs, X, ParticleEnsemble(X, weights), dt, eps, dB)


def oracle_tangent_step(X, Y, coeffs, dt, dB):
    """The per-run ``tangent_step``: the jacobian, interaction, forcing and
    transport terms each from their own evaluator calls (eight jets)."""
    mu = ParticleEnsemble.uniform(X)
    r = coeffs.residuals(mu)
    c, _ = coeffs._split(X)
    yc, _ = coeffs._split(Y)
    s = _z(coeffs, Y)
    _, dphi, d2phi = coeffs.activation.jet(_z(coeffs, X), 2)
    hu = dphi * yc[:, None] + c[:, None] * d2phi * s
    jac = oracle_assemble(coeffs, dphi * s, hu, coeffs._w * r)
    phi, dphi = coeffs.activation.jet(_z(coeffs, X), 1)
    beta = (yc @ phi + np.einsum("j,jp,jp->p", c, dphi, s)) / X.shape[0]
    inter = oracle_contract(coeffs, X, -coeffs._w * beta)
    forcing = oracle_contract(coeffs, X, coeffs.residuals(mu) * coeffs._noise_kappa(dB))
    newY = Y + (jac + inter) * dt + forcing
    return X + oracle_increment(coeffs, X, mu, dt, 0.0, None), newY


kernel_cases = pytest.mark.parametrize("n", [1, 7, 200])
activation_cases = pytest.mark.parametrize("activation", ACTS)
bias_cases = pytest.mark.parametrize("bias", [False, True], ids=["no-bias", "bias"])


@activation_cases
@bias_cases
@kernel_cases
class TestKernelMatchesOracle:
    def test_drift_and_noise_increment(self, activation, bias, n):
        coeffs = make_coeffs(activation, bias)
        ens = ensemble(coeffs, n)
        X = ens.positions
        dB = np.random.default_rng(2).normal(0, 0.1, size=coeffs.n_channels)
        np.testing.assert_allclose(coeffs.drift(X, ens), oracle_drift(coeffs, X, ens), **TOL)
        np.testing.assert_allclose(coeffs.noise_increment(X, ens, dB),
                                   oracle_noise_increment(coeffs, X, ens, dB), **TOL)

    def test_noisy_step_and_frozen_increment(self, activation, bias, n):
        coeffs = make_coeffs(activation, bias)
        ens = ensemble(coeffs, n)
        frozen = ensemble(coeffs, 9, seed=3)
        dB = np.random.default_rng(4).normal(0, 0.1, size=coeffs.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.01, eps=0.05)
        X = ens.positions
        expected = X + oracle_drift(coeffs, X, ens) * cfg.dt \
            + np.sqrt(cfg.eps) * oracle_noise_increment(coeffs, X, ens, dB)
        np.testing.assert_allclose(step_interacting(ens, coeffs, cfg, dB).positions, expected, **TOL)
        measure = (frozen.positions, frozen.weights)
        expected = oracle_drift(coeffs, X, measure) * cfg.dt \
            + np.sqrt(cfg.eps) * oracle_noise_increment(coeffs, X, measure, dB)
        np.testing.assert_allclose(coeffs.increment(X, measure, cfg.dt, cfg.eps, dB), expected, **TOL)
        np.testing.assert_allclose(coeffs.increment(X, measure, cfg.dt, 0.0, None),
                                   oracle_drift(coeffs, X, measure) * cfg.dt, **TOL)

    def test_vtilde_y_apply(self, activation, bias, n):
        coeffs = make_coeffs(activation, bias)
        X = ensemble(coeffs, n).positions
        base = ensemble(coeffs, 11, seed=5).positions
        tangents = ensemble(coeffs, 11, seed=6).positions
        np.testing.assert_allclose(coeffs.vtilde_y_apply(X, base, tangents),
                                   oracle_vtilde_y_apply(coeffs, X, base, tangents), **TOL)

    def test_tangent_step(self, activation, bias, n):
        coeffs = make_coeffs(activation, bias)
        X = ensemble(coeffs, n).positions
        Y = ensemble(coeffs, n, seed=7).positions
        dB = np.random.default_rng(8).normal(0, 0.1, size=coeffs.n_channels)
        cfg = IntegratorConfig(dt=0.01, horizon=0.01)
        mu = ParticleEnsemble.uniform(X)
        new = tangent_step(TangentEnsemble(X, Y), coeffs, cfg, dB)
        expected_y = Y + (coeffs.drift_jacobian_apply(X, Y, mu)
                          + oracle_vtilde_y_apply(coeffs, X, X, Y)) * cfg.dt \
            + oracle_noise_increment(coeffs, X, mu, dB)
        np.testing.assert_allclose(new.tangents, expected_y, **TOL)
        np.testing.assert_allclose(new.base, X + oracle_drift(coeffs, X, mu) * cfg.dt, **TOL)

    @pytest.mark.parametrize("batch_size", [1, 8], ids=["batch1", "batch8-repeats"])
    def test_run_sgd(self, activation, bias, n, batch_size):
        # 3 channels and a batch of 8 draws some channel more than once
        coeffs = make_coeffs(activation, bias, n_atoms=3)
        initial = ensemble(coeffs, n).positions
        chain = run_sgd(coeffs, n, 0.1, batch_size, 6, seed=9, initial=initial)
        oracle = oracle_run_sgd(coeffs, 0.1, batch_size, 6, 9, initial)
        np.testing.assert_allclose(chain.positions, oracle, **TOL)

    @pytest.mark.parametrize("batch_size", [1, 8], ids=["batch1", "batch8-repeats"])
    def test_run_sgd_is_the_two_jet_chain(self, activation, bias, n, batch_size):
        """one jet per step and one batch draw per chain: bit for bit the
        chain of two jets and one draw per step."""
        coeffs = make_coeffs(activation, bias, n_atoms=3)
        initial = ensemble(coeffs, n).positions
        chain = run_sgd(coeffs, n, 0.1, batch_size, 6, seed=9, initial=initial)
        np.testing.assert_array_equal(
            chain.positions, oracle_run_sgd_two_jets(coeffs, 0.1, batch_size, 6, 9, initial))

    def test_gradient_descent_is_the_transport_run(self, activation, bias, n):
        """Deterministic gradient descent at rate alpha is simulate_transport
        at dt = alpha: bit for bit the full-batch run_sgd it replaces, and the
        full-batch formula to the kernel tolerance."""
        coeffs = make_coeffs(activation, bias, n_atoms=3)
        initial = ensemble(coeffs, n)
        run = simulate_transport(initial, coeffs, IntegratorConfig(dt=0.1, horizon=0.6))
        np.testing.assert_array_equal(
            run.positions, oracle_gradient_descent_contraction(coeffs, 0.1, 6, initial.positions))
        np.testing.assert_allclose(run.positions, oracle_gradient_descent(coeffs, 0.1, 6, initial.positions),
                                   **TOL)


def test_batch_of_eight_repeats_a_channel():
    """the SGD oracle case above does exercise repeated channels."""
    rng = seeded_rng(9, "sgd-batches")
    batch = rng.choice(3, size=8, p=make_coeffs("tanh", False, n_atoms=3).channel_weights)
    assert np.bincount(batch).max() > 1


def counting_activation(name):
    """The built-in activation with a jet that records each call's order."""
    base = ACTIVATIONS[name]
    calls = []

    def jet(z, order):
        calls.append(order)
        return base.jet(z, order)

    return Activation(base.name, jet), calls


class TestActivationCalls:
    def test_noisy_step_makes_one(self):
        activation, calls = counting_activation("tanh")
        coeffs = make_coeffs(activation, False)
        ens = ensemble(coeffs, 20)
        dB = np.random.default_rng(10).normal(0, 0.1, size=coeffs.n_channels)
        step_interacting(ens, coeffs, IntegratorConfig(dt=0.01, horizon=0.01, eps=0.05), dB)
        assert len(calls) <= 1

    def test_tangent_step_makes_one(self):
        activation, calls = counting_activation("tanh")
        coeffs = make_coeffs(activation, False)
        X = ensemble(coeffs, 20).positions
        dB = np.random.default_rng(11).normal(0, 0.1, size=coeffs.n_channels)
        tangent_step(TangentEnsemble(X, 0.1 * X), coeffs, IntegratorConfig(dt=0.01, horizon=0.01), dB)
        assert len(calls) <= 1

    def test_sgd_step_makes_one(self):
        activation, calls = counting_activation("tanh")
        coeffs = make_coeffs(activation, False)
        run_sgd(coeffs, 20, 0.1, 4, 10, seed=3, initial=ensemble(coeffs, 20).positions)
        assert calls == [1] * 10

    def test_coupled_batch_with_tangents_makes_one(self):
        """six runs and the tangent system on the last: one jet per step."""
        activation, calls = counting_activation("tanh")
        coeffs = make_coeffs(activation, False)
        X = np.repeat(ensemble(coeffs, 20).positions[None], 6, axis=0)
        dB = np.random.default_rng(12).normal(0, 0.1, size=coeffs.n_channels)
        coeffs.coupled_step(X, np.full(20, 1 / 20), 0.01, np.array([0.1, 0.03, 0.01, 3e-3, 1e-3, 0.0]),
                            dB, 0.1 * X[-1])
        assert len(calls) == 1


@st.composite
def coupled_batches(draw):
    """A random batch: activation, bias, B runs of N particles with their
    own positions, noise scales with a 0 among them, and one increment row."""
    b = draw(st.integers(1, 6))
    eps = draw(st.lists(st.floats(1e-4, 1.0), min_size=b - 1, max_size=b - 1))
    eps.insert(draw(st.integers(0, b - 1)), 0.0)
    return dict(activation=draw(st.sampled_from(ACTS)), bias=draw(st.booleans()),
                n=draw(st.integers(1, 40)), eps=np.array(eps), seed=draw(st.integers(0, 2**16)))


class TestCoupledStepMatchesPerRunSteps:
    """The batched step is the per-run steps, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=coupled_batches())
    def test_batch_equals_sequential_steps(self, case):
        coeffs = make_coeffs(case["activation"], case["bias"], seed=case["seed"])
        rng = np.random.default_rng(case["seed"])
        eps, n = case["eps"], case["n"]
        X = rng.normal(size=(eps.size, n, coeffs.dim))
        weights = rng.uniform(0.5, 1.5, size=n)
        weights /= weights.sum()
        dB = rng.normal(0, 0.1, size=coeffs.n_channels)
        got = coeffs.coupled_step(X, weights, 0.01, eps, dB)
        want = np.stack([oracle_step(x, weights, coeffs, 0.01, e, dB) for x, e in zip(X, eps)])
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(case=coupled_batches())
    def test_fused_tangent_step_equals_the_per_run_one(self, case):
        coeffs = make_coeffs(case["activation"], case["bias"], seed=case["seed"])
        rng = np.random.default_rng(case["seed"])
        eps, n = np.append(case["eps"][case["eps"] > 0], 0.0), case["n"]
        X = rng.normal(size=(eps.size, n, coeffs.dim))
        Y = rng.normal(size=(n, coeffs.dim))
        dB = rng.normal(0, 0.1, size=coeffs.n_channels)
        newX, newY = coeffs.coupled_step(X, np.full(n, 1.0 / n), 0.01, eps, dB, Y)
        base, tangents = oracle_tangent_step(X[-1], Y, coeffs, 0.01, dB)
        np.testing.assert_array_equal(newY, tangents)
        np.testing.assert_array_equal(newX[-1], base)
        for x, e, got in zip(X[:-1], eps[:-1], newX[:-1]):
            np.testing.assert_array_equal(got, oracle_step(x, np.full(n, 1.0 / n), coeffs, 0.01, e, dB))

    @activation_cases
    @bias_cases
    def test_single_run_entry_points(self, activation, bias):
        """step_interacting and tangent_step are the one-run batch, and so the
        per-run steps they were."""
        coeffs = make_coeffs(activation, bias)
        ens = ensemble(coeffs, 30)
        Y = ensemble(coeffs, 30, seed=13).positions
        dB = np.random.default_rng(14).normal(0, 0.1, size=coeffs.n_channels)
        for eps in (0.0, 0.05):
            cfg = IntegratorConfig(dt=0.01, horizon=0.01, eps=eps)
            np.testing.assert_array_equal(step_interacting(ens, coeffs, cfg, dB).positions,
                                          oracle_step(ens.positions, ens.weights, coeffs, 0.01, eps, dB))
        new = tangent_step(TangentEnsemble(ens.positions, Y), coeffs, cfg, dB)
        base, tangents = oracle_tangent_step(ens.positions, Y, coeffs, 0.01, dB)
        np.testing.assert_array_equal(new.base, base)
        np.testing.assert_array_equal(new.tangents, tangents)
