"""The stacked-panel weak-form diagnostics against the per-(step, phi) loops
they replaced.

The oracles are the previous implementation, kept verbatim in substance:
``oracle_weak_residual_panel`` and ``oracle_qv_check`` evaluate, for every
step and every test function, its gradient and Hessian and three einsums over
the (N, P, d) noise matrix (the Ito term through the (N, P, d) product
D2 phi G_p); ``oracle_weak_residual_linear`` does the same per test function
for the linear fluctuation equation.  The new path stacks the panel and pairs
it once per step, the Ito term against A = sum_p w_p G_p G_p^T, so the two
agree up to floating-point reassociation.

Tolerance: rtol 1e-9 with an absolute floor of 1e-15.  A weak residual is
the small remainder of sums of O(1) terms (the coordinate residuals are pure
cancellation, around 1e-17), so it is compared with an absolute floor.
Measured over the cases below and three seeds each: weak residuals differ by
at most 2.2e-16 absolute (2.3e-9 relative over |R| > 1e-12), QV by 3.5e-11
relative, linear residuals by 8.1e-17 absolute (1.1e-11 relative).  Dropping
the 1/2 eps factor of the Ito term or a sqrt(w_p) weight fails these checks.
"""

import numpy as np
import pytest

import paper_forms as pf
from meanfield_sgd.coefficients import Dataset, NetworkCoefficients, SyntheticCoefficients
from meanfield_sgd.diagnostics import (
    gaussian_bump,
    qv_check,
    qv_check_panel,
    smfe_weak_residual_panel,
    standard_panel,
)
from meanfield_sgd.dynamics import IntegratorConfig, NoisePath, ParticleEnsemble, sample_initial, simulate
from meanfield_sgd.fluctuations import solve_tangent, weak_residual_linear
from meanfield_sgd.harness import build_coefficients, build_initial_spec, reference_config

RTOL = 1e-9
ATOL = 1e-15

REF = reference_config()
REF_SPEC = build_initial_spec(REF)


# --------------------------------------------------------------------------
# oracles: the per-(step, phi) loops
# --------------------------------------------------------------------------


def oracle_weak_residual_panel(traj, noise, coeffs, eps, panel):
    phis = list(panel)
    omega = traj.weights
    dt = traj.dt
    sqrt_w = np.sqrt(coeffs.channel_weights)
    out = {phi.name: float(omega @ phi.value(traj.positions[-1]))
           - float(omega @ phi.value(traj.positions[0])) for phi in phis}
    for s in range(traj.n_snapshots - 1):
        X = traj.positions[s]
        mu = (X, omega)
        V = coeffs.drift(X, mu)
        G = coeffs.noise_matrix(X, mu) if eps > 0.0 else None
        for phi in phis:
            grads = phi.grad(X)
            drift_term = float(omega @ np.einsum("nd,nd->n", grads, V))
            if eps > 0.0:
                hg = np.einsum("nij,npj->npi", phi.hess(X), G)
                ito = float(omega @ np.einsum("p,npi,npi->n", coeffs.channel_weights, hg, G))
                drift_term += 0.5 * eps * ito
                gpair = np.einsum("n,nd,npd->p", omega, grads, G)
                out[phi.name] -= np.sqrt(eps) * float((gpair * sqrt_w) @ noise.increments[s])
            out[phi.name] -= drift_term * dt
    return out


def oracle_qv_check(traj, coeffs, phi, window=None):
    eps = traj.eps
    omega = traj.weights
    dt = traj.dt
    lo, hi = window if window is not None else (traj.times[0], traj.times[-1])
    realized = 0.0
    predicted = 0.0
    vals = np.array([float(omega @ phi.value(traj.positions[s])) for s in range(traj.n_snapshots)])
    for s in range(traj.n_snapshots - 1):
        t = traj.times[s]
        if t < lo - 1e-12 or t > hi - dt + 1e-12:
            continue
        X = traj.positions[s]
        mu = (X, omega)
        grads = phi.grad(X)
        V = coeffs.drift(X, mu)
        drift = float(omega @ np.einsum("nd,nd->n", grads, V))
        if eps > 0.0:
            G = coeffs.noise_matrix(X, mu)
            hg = np.einsum("nij,npj->npi", phi.hess(X), G)
            drift += 0.5 * eps * float(omega @ np.einsum("p,npi,npi->n", coeffs.channel_weights, hg, G))
            gpair = np.einsum("n,nd,npd->p", omega, grads, G)
            predicted += eps * float(coeffs.channel_weights @ gpair**2) * dt
        realized += (vals[s + 1] - vals[s] - drift * dt) ** 2
    return realized, predicted


def oracle_weak_residual_linear(tangent_traj, coeffs, noise, panel):
    n_steps = tangent_traj.n_snapshots - 1
    dt = tangent_traj.dt
    sqrt_w = np.sqrt(coeffs.channel_weights)
    phis = list(panel)
    n = tangent_traj.positions.shape[1]
    residuals = {}
    for phi in phis:
        r = float(np.einsum("nd,nd->", phi.grad(tangent_traj.positions[n_steps]),
                            tangent_traj.tangents[n_steps]) / n)
        r -= float(np.einsum("nd,nd->", phi.grad(tangent_traj.positions[0]), tangent_traj.tangents[0]) / n)
        residuals[phi.name] = r
    for s in range(n_steps):
        X = tangent_traj.positions[s]
        Y = tangent_traj.tangents[s]
        mu = ParticleEnsemble.uniform(X)
        v = coeffs.drift(X, mu)
        jac_v_y = coeffs.drift_jacobian_apply(X, Y, mu)
        inter = coeffs.vtilde_y_apply(X, X, Y)
        G = coeffs.noise_matrix(X, mu)
        dB = noise.increments[s]
        for phi in phis:
            grads = phi.grad(X)
            hv = np.einsum("nij,nj->ni", phi.hess(X), v)
            term_v = float(np.einsum("nd,nd->", hv, Y) / n)
            term_v += float(np.einsum("nd,nd->", grads, jac_v_y) / n)
            term_i = float(np.einsum("nd,nd->", grads, inter) / n)
            gpair = np.einsum("nd,npd->p", grads, G) / n
            residuals[phi.name] -= (term_v + term_i) * dt + float((gpair * sqrt_w) @ dB)
    return residuals


# --------------------------------------------------------------------------
# instances
# --------------------------------------------------------------------------


def network(bias):
    """The reference network; with ``bias``, on atoms with a constant coordinate."""
    base = build_coefficients(REF)
    return pf.with_bias(base) if bias else base


def wide_network():
    """Seven data atoms with unequal weights, so sqrt(w_p) is not one number."""
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 1.5, size=7)
    return NetworkCoefficients(Dataset(rng.normal(size=(7, 1)), w / w.sum(), rng.normal(size=7)),
                               build_coefficients(REF).activation)


_W = np.array([0.5, 0.3, 0.2])
_A = np.array([1.0, -1.0, -1.0])     # sum_p w_p a_p = 0: the noise is centered
_K = np.array([[0.6, -0.2], [0.1, 0.4]])
_GAMMA = 0.3


def synthetic():
    """Linear confinement plus mean attraction, noise a_p f(x) with f nonlinear,
    every evaluator batched (``g_batch``) and the Jacobians the tangent run needs."""

    def g_batch(X, atoms, weights):
        f = np.column_stack([np.sin(X[:, 0]), X[:, 0] * np.cos(X[:, 1])])
        return _A[None, :, None] * f[:, None, :]

    return SyntheticCoefficients(
        dim=2, n_channels=3, channel_weights=_W,
        v_bar_batch=lambda X: -X @ _K.T,
        v_tilde_mean_batch=lambda X, atoms, weights: _GAMMA * (weights @ atoms - X),
        g_batch=g_batch,
        drift_jacobian_apply=lambda X, Y, atoms, weights: -Y @ _K.T - _GAMMA * Y,
        vtilde_y_apply=lambda X, base, tangents: np.full(X.shape, _GAMMA * tangents.mean(axis=0)),
    )


INSTANCES = {
    "network": lambda: network(False),
    "network-bias": lambda: network(True),
    "network-7-atoms": wide_network,
    "synthetic": synthetic,
}
instances = pytest.mark.parametrize("make", INSTANCES.values(), ids=INSTANCES.keys())


def initial_for(coeffs, n, seed):
    if coeffs.dim == 2:
        return sample_initial(REF_SPEC, n, seed)
    rng = np.random.default_rng(seed)
    return ParticleEnsemble.uniform(rng.uniform(-1.0, 1.0, size=(n, coeffs.dim)))


def run(coeffs, eps, seed=0, n=40, dt=0.01, steps=40):
    noise = NoisePath(seed, dt, steps, coeffs.n_channels)
    cfg = IntegratorConfig(dt=dt, horizon=steps * dt, eps=eps, snapshot_stride=1)
    return simulate(initial_for(coeffs, n, seed), coeffs, cfg, noise if eps > 0 else None), noise


def assert_matches(got: dict, want: dict):
    assert list(got) == list(want)
    for name in want:
        assert got[name] == pytest.approx(want[name], rel=RTOL, abs=ATOL), name


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


class TestWeakResidualOracle:
    @instances
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_panel_matches_oracle(self, make, eps):
        coeffs = make()
        panel = standard_panel(coeffs.dim)
        assert {p.bounded for p in panel} == {True, False}
        traj, noise = run(coeffs, eps)
        noise = noise if eps > 0 else None
        assert_matches(smfe_weak_residual_panel(traj, noise, coeffs, eps, panel),
                       oracle_weak_residual_panel(traj, noise, coeffs, eps, panel))

    def test_constant_is_exactly_zero_on_every_instance(self):
        for make in INSTANCES.values():
            coeffs = make()
            traj, noise = run(coeffs, 0.05, seed=1)
            const = [p for p in standard_panel(coeffs.dim) if p.name == "const"]
            assert smfe_weak_residual_panel(traj, noise, coeffs, 0.05, const) == {"const": 0.0}


class TestQvOracle:
    @instances
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_panel_matches_oracle(self, make, eps):
        coeffs = make()
        panel = standard_panel(coeffs.dim)
        traj, _ = run(coeffs, eps, seed=2)
        got = qv_check_panel(traj, coeffs, panel)
        for phi in panel:
            want = oracle_qv_check(traj, coeffs, phi)
            assert got[phi.name] == pytest.approx(want, rel=RTOL, abs=ATOL), phi.name
            assert qv_check(traj, coeffs, phi) == pytest.approx(got[phi.name], rel=RTOL, abs=ATOL)

    @instances
    @pytest.mark.parametrize("window", [(0.0, 0.15), (0.15, 0.4), (0.1, 0.25)])
    def test_window_matches_oracle(self, make, window):
        coeffs = make()
        traj, _ = run(coeffs, 0.05, seed=3)
        phi = gaussian_bump(np.zeros(coeffs.dim), 1.0)
        assert qv_check(traj, coeffs, phi, window) == pytest.approx(
            oracle_qv_check(traj, coeffs, phi, window), rel=RTOL, abs=ATOL)

    def test_transport_predicts_exactly_zero(self):
        coeffs = synthetic()
        traj, _ = run(coeffs, 0.0, seed=4)
        for realized, predicted in qv_check_panel(traj, coeffs, standard_panel(2)).values():
            assert predicted == 0.0


class TestWeakResidualLinearOracle:
    @pytest.mark.parametrize("make", [INSTANCES["network"], INSTANCES["network-bias"],
                                      INSTANCES["network-7-atoms"], INSTANCES["synthetic"]],
                             ids=["network", "network-bias", "network-7-atoms", "synthetic"])
    def test_panel_matches_oracle(self, make):
        coeffs = make()
        dt, steps = 0.01, 30
        noise = NoisePath(5, dt, steps, coeffs.n_channels)
        cfg = IntegratorConfig(dt=dt, horizon=steps * dt, snapshot_stride=1)
        tangent = solve_tangent(initial_for(coeffs, 25, 5).positions, coeffs, cfg, noise)
        panel = standard_panel(coeffs.dim)
        assert_matches(weak_residual_linear(tangent, coeffs, noise, panel),
                       oracle_weak_residual_linear(tangent, coeffs, noise, panel))
