"""The channel-contraction step kernel against the formulas it replaced.

Every Euler, SGD, frozen-measure and tangent step is now one contraction
sum_p kappa_p grad Phi(x_i, theta_p).  The functions prefixed ``oracle_``
are the drift, the ``r grad Phi - V`` noise increment, the per-sample SGD
loop and the ``vtilde_y_apply`` einsum as they were written before, kept
here verbatim (up to reading the coefficient internals from outside) as
the reference.  The kernel only reassociates sums, so it must agree with
them to 1e-13.
"""

import numpy as np
import pytest

from meanfield_sgd.coefficients import ACTIVATIONS, Activation, Dataset, NetworkCoefficients
from meanfield_sgd.dynamics import (
    IntegratorConfig,
    ParticleEnsemble,
    run_sgd,
    seeded_rng,
    step_interacting,
)
from meanfield_sgd.fluctuations import TangentEnsemble, tangent_step

TOL = dict(rtol=1e-13, atol=1e-13)
ACTS = ["tanh", "sigmoid", "smoothed-relu"]


def make_coeffs(activation, include_bias, n_atoms=5, seed=0):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-1, 1, size=(n_atoms, 2))
    w = rng.uniform(0.5, 1.5, size=n_atoms)
    w /= w.sum()
    labels = np.sin(np.pi * thetas[:, 0]) * 0.5
    return NetworkCoefficients(Dataset(thetas, w, labels), activation, include_bias=include_bias)


def ensemble(coeffs, n, seed=1):
    return ParticleEnsemble.uniform(np.random.default_rng(seed).normal(size=(n, coeffs.dim)))


def _z(coeffs, X):
    c, u, b = coeffs._split(X)
    return u @ coeffs._theta.T + b[:, None]


def oracle_drift(coeffs, X, measure):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r = coeffs.residuals(measure)
    c, _, _ = coeffs._split(X)
    z = _z(coeffs, X)
    phi, dphi = coeffs.activation.jet(z, 1)
    common = coeffs._w * r
    out = np.empty((X.shape[0], coeffs.dim))
    out[:, 0] = phi @ common
    cd = c[:, None] * dphi
    out[:, 1 : 1 + coeffs.dataset.input_dim] = (cd * common[None, :]) @ coeffs._theta
    if coeffs.include_bias:
        out[:, -1] = cd @ common
    return out


def oracle_noise_increment(coeffs, X, measure, dB):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r = coeffs.residuals(measure)
    kappa = r * coeffs._sqrt_w * dB
    c, _, _ = coeffs._split(X)
    z = _z(coeffs, X)
    phi, dphi = coeffs.activation.jet(z, 1)
    out = np.empty((X.shape[0], coeffs.dim))
    out[:, 0] = phi @ kappa
    cd = c[:, None] * dphi
    out[:, 1 : 1 + coeffs.dataset.input_dim] = (cd * kappa[None, :]) @ coeffs._theta
    if coeffs.include_bias:
        out[:, -1] = cd @ kappa
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


def oracle_run_sgd(coeffs, alpha, batch_size, n_steps, seed, initial, full_batch=False):
    rng = seeded_rng(seed, "sgd-batches")
    w = coeffs.channel_weights
    X = np.array(initial, dtype=float)
    out = [X]
    for step in range(n_steps):
        ens = ParticleEnsemble.uniform(X)
        if full_batch:
            X = X + alpha * oracle_drift(coeffs, X, ens)
        else:
            batch = rng.choice(coeffs.n_channels, size=batch_size, p=w)
            r = coeffs.residuals(ens)
            grad = coeffs.grad_feature_matrix(X)  # (N, P, d)
            step_dir = np.zeros_like(X)
            for p in batch:
                step_dir += r[p] * grad[:, p, :]
            X = X + (alpha / batch_size) * step_dir
        out.append(X)
    return np.array(out)


kernel_cases = pytest.mark.parametrize("n", [1, 7, 200])
activation_cases = pytest.mark.parametrize("activation", ACTS)
bias_cases = pytest.mark.parametrize("include_bias", [False, True], ids=["no-bias", "bias"])


@activation_cases
@bias_cases
@kernel_cases
class TestKernelMatchesOracle:
    def test_drift_and_noise_increment(self, activation, include_bias, n):
        coeffs = make_coeffs(activation, include_bias)
        ens = ensemble(coeffs, n)
        X = ens.positions
        dB = np.random.default_rng(2).normal(0, 0.1, size=coeffs.n_channels)
        np.testing.assert_allclose(coeffs.drift(X, ens), oracle_drift(coeffs, X, ens), **TOL)
        np.testing.assert_allclose(coeffs.noise_increment(X, ens, dB),
                                   oracle_noise_increment(coeffs, X, ens, dB), **TOL)

    def test_noisy_step_and_frozen_increment(self, activation, include_bias, n):
        coeffs = make_coeffs(activation, include_bias)
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

    def test_vtilde_y_apply(self, activation, include_bias, n):
        coeffs = make_coeffs(activation, include_bias)
        X = ensemble(coeffs, n).positions
        base = ensemble(coeffs, 11, seed=5).positions
        tangents = ensemble(coeffs, 11, seed=6).positions
        np.testing.assert_allclose(coeffs.vtilde_y_apply(X, base, tangents),
                                   oracle_vtilde_y_apply(coeffs, X, base, tangents), **TOL)

    def test_tangent_step(self, activation, include_bias, n):
        coeffs = make_coeffs(activation, include_bias)
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

    @pytest.mark.parametrize("batch_size, full_batch", [(1, False), (8, False), (1, True)],
                             ids=["batch1", "batch8-repeats", "full-batch"])
    def test_run_sgd(self, activation, include_bias, n, batch_size, full_batch):
        # 3 channels and a batch of 8 draws some channel more than once
        coeffs = make_coeffs(activation, include_bias, n_atoms=3)
        initial = ensemble(coeffs, n).positions
        chain = run_sgd(coeffs, n, 0.1, batch_size, 6, seed=9, initial=initial,
                        full_batch=full_batch)
        oracle = oracle_run_sgd(coeffs, 0.1, batch_size, 6, 9, initial, full_batch)
        np.testing.assert_allclose(chain.positions, oracle, **TOL)


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
    def test_noisy_step_makes_two(self):
        activation, calls = counting_activation("tanh")
        coeffs = make_coeffs(activation, False)
        ens = ensemble(coeffs, 20)
        dB = np.random.default_rng(10).normal(0, 0.1, size=coeffs.n_channels)
        step_interacting(ens, coeffs, IntegratorConfig(dt=0.01, horizon=0.01, eps=0.05), dB)
        assert len(calls) <= 2

    def test_tangent_step_makes_eight(self):
        activation, calls = counting_activation("tanh")
        coeffs = make_coeffs(activation, False)
        X = ensemble(coeffs, 20).positions
        dB = np.random.default_rng(11).normal(0, 0.1, size=coeffs.n_channels)
        tangent_step(TangentEnsemble(X, 0.1 * X), coeffs, IntegratorConfig(dt=0.01, horizon=0.01), dB)
        assert len(calls) <= 8
