"""The stacked-panel weak-form diagnostics against the per-(step, phi) loops
they replaced.

The oracles are the previous implementation, kept verbatim in substance:
``oracle_weak_residual_panel`` and ``oracle_qv_check`` evaluate, for every
step and every test function, its gradient and Hessian and three einsums over
the (N, P, d) noise matrix (the Ito term through the (N, P, d) product
D2 phi G_p); ``oracle_weak_residual_linear`` does the same per test function
for the linear fluctuation equation.  The weak residual and the QV check now
evaluate the stacked panel once per chunk of snapshots and pair it through
``weak_pairings``: for a network, on the (S, N, P) rows of one activation jet,
the channels as r_p <grad phi . grad Phi_p, mu> minus the drift pairing and
the Ito term against A = sum_p w_p r_p^2 grad Phi_p grad Phi_p^T - V V^T.  The
two paths agree up to floating-point reassociation.

Tolerance: rtol 1e-9 with an absolute floor of 1e-15.  A weak residual is
the small remainder of sums of O(1) terms (the coordinate residuals are pure
cancellation, around 1e-17), so it is compared with an absolute floor.
Measured over the fixed cases below (the 40-step runs at eps 0 and 0.05 and
the chunked 28-step run at N = 500) and three seeds each: weak residuals
differ by at most 3.3e-16 absolute (2.2e-9 relative over |R| > 1e-12), QV by
3.7e-10 relative over values above the floor, linear residuals by 8.1e-17
absolute (1.1e-11 relative).  Over 300 draws of the random-network property
the largest deviation used 0.24 of the tolerance.  Dropping the 1/2 eps
factor of the Ito term or a sqrt(w_p) weight fails these checks.

The collision curve and the test-function jets are checked bit for bit
against their previous implementations, kept verbatim below:
``oracle_min_pairwise_distance`` takes one ``pdist`` per snapshot, where
``min_pairwise_distance`` takes one per chunk of snapshots and measures only
the pairs a displacement bound leaves as candidates; ``oracle_bump_jet`` and
``oracle_wave_jet`` broadcast the gradient and Hessian over trailing axes,
where the jets now fill them one coordinate column at a time by the same
operations per element.  Tolerance: none (``np.array_equal``, nan-aware, and
the jets' bit patterns).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import paper_forms as pf
from meanfield_sgd.coefficients import ACTIVATIONS, Dataset, NetworkCoefficients, SyntheticCoefficients
from meanfield_sgd.diagnostics import (
    chunk_length,
    gaussian_bump,
    min_pairwise_distance,
    qv_check,
    qv_check_panel,
    smfe_weak_residual_panel,
    standard_panel,
    trig_wave,
)
from meanfield_sgd.dynamics import (
    IntegratorConfig,
    NoisePath,
    ParticleEnsemble,
    Trajectory,
    sample_initial,
    simulate,
)
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


def oracle_min_pairwise_distance(traj):
    d0 = pdist(traj.positions[0])
    mask = d0 > 0.0
    if not np.any(mask):
        raise ValueError("no initially distinct pairs to monitor")
    curve = np.empty(traj.n_snapshots)
    for s in range(traj.n_snapshots):
        curve[s] = pdist(traj.positions[s])[mask].min()
    return curve, float(curve.min() / d0[mask].min())


def _oracle_jet(order, value, *derivatives):
    return (value, *(d() for d in derivatives[:order]))


def oracle_bump_jet(center, width):
    c = np.asarray(center, dtype=float)
    s2 = float(width) ** 2

    def jet(X, order):
        diff = X - c
        v = np.exp(-np.einsum("nd,nd->n", diff, diff) / (2 * s2))

        def hess():
            outer = np.einsum("ni,nj->nij", diff, diff) / s2**2
            return v[:, None, None] * (outer - np.eye(c.size)[None, :, :] / s2)

        return _oracle_jet(order, v, lambda: -v[:, None] * diff / s2, hess)

    return jet


def oracle_wave_jet(freq, phase):
    k = np.asarray(freq, dtype=float)
    fn, dfn = (np.sin, np.cos) if phase == "sin" else (np.cos, lambda z: -np.sin(z))

    def jet(X, order):
        z = X @ k
        v = fn(z)
        return _oracle_jet(order, v, lambda: dfn(z)[:, None] * k[None, :],
                           lambda: -v[:, None, None] * np.einsum("i,j->ij", k, k)[None, :, :])

    return jet


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


class TestChunkedPairings:
    """The pairings run chunk by chunk of snapshots; runs that span several
    chunks and a remainder match the per-step oracles."""

    @instances
    def test_run_of_three_chunks_and_a_remainder(self, make):
        coeffs = make()
        n, steps = 500, 28
        assert chunk_length(n) == 8        # 29 snapshots: 3 chunks of 8 and 5
        panel = standard_panel(coeffs.dim)
        traj, noise = run(coeffs, 0.05, seed=6, n=n, steps=steps)
        assert_matches(smfe_weak_residual_panel(traj, noise, coeffs, 0.05, panel),
                       oracle_weak_residual_panel(traj, noise, coeffs, 0.05, panel))
        got = qv_check_panel(traj, coeffs, panel)
        for phi in panel:
            assert got[phi.name] == pytest.approx(oracle_qv_check(traj, coeffs, phi),
                                                  rel=RTOL, abs=ATOL), phi.name

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), n_atoms=st.integers(1, 7), input_dim=st.integers(1, 2),
           activation=st.sampled_from(["tanh", "sigmoid", "smoothed-relu"]),
           n=st.integers(150, 600), steps=st.integers(0, 30), eps=st.sampled_from([0.0, 0.05]))
    def test_random_networks_match_the_oracles(self, seed, n_atoms, input_dim, activation,
                                               n, steps, eps):
        """Random data measures (unequal weights), dimensions, activations,
        particle counts and run lengths, at the file's tolerance."""
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.5, 1.5, size=n_atoms)
        data = Dataset(rng.normal(size=(n_atoms, input_dim)), w / w.sum(), rng.normal(size=n_atoms))
        coeffs = NetworkCoefficients(data, ACTIVATIONS[activation])
        initial = ParticleEnsemble.uniform(rng.uniform(-1.0, 1.0, size=(n, coeffs.dim)))
        noise = NoisePath(seed, 0.01, steps, n_atoms)
        cfg = IntegratorConfig(dt=0.01, horizon=steps * 0.01, eps=eps, snapshot_stride=1)
        traj = simulate(initial, coeffs, cfg, noise if eps > 0 else None)
        noise = noise if eps > 0 else None
        panel = standard_panel(coeffs.dim)
        assert_matches(smfe_weak_residual_panel(traj, noise, coeffs, eps, panel),
                       oracle_weak_residual_panel(traj, noise, coeffs, eps, panel))
        if steps:
            got = qv_check_panel(traj, coeffs, panel)
            for phi in panel:
                assert got[phi.name] == pytest.approx(oracle_qv_check(traj, coeffs, phi),
                                                      rel=RTOL, abs=ATOL), phi.name


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


def bits(a):
    """The bit pattern of a float array: equal bits, including signed zeros and nan payloads."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestJetOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(1, 64),
           phase=st.sampled_from(["sin", "cos"]))
    def test_jets_match_the_broadcast_oracle_bit_for_bit(self, seed, d, n, phase):
        """Value, gradient and Hessian at every order, on random points (some
        coordinates on the centre's), centres, widths and frequencies (some
        zero)."""
        rng = np.random.default_rng(seed)
        center, width = rng.normal(size=d), float(rng.uniform(0.1, 3.0))
        X = rng.normal(0.0, 2.0, size=(n, d))
        # some coordinates on the centre's, where the products of the
        # Hessian are signed zeros
        on_center = rng.random(size=(n, d)) < 0.3
        X[on_center] = np.broadcast_to(center, (n, d))[on_center]
        freq = rng.integers(-3, 4, size=d)
        for phi, oracle in ((gaussian_bump(center, width), oracle_bump_jet(center, width)),
                            (trig_wave(freq, phase), oracle_wave_jet(freq, phase))):
            for order in range(3):
                got, want = phi.jet(X, order), oracle(X, order)
                assert len(got) == len(want) == order + 1
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert np.array_equal(bits(g), bits(w)), (phi.name, order)


def random_walk(seed, d, n, n_snapshots, log_step, n_duplicates, meet, nan):
    """n particles uniform on the unit cube, some initially coincident, moving
    by Gaussian steps of 10**log_step times the mean spacing; optionally two
    particles meet exactly at one snapshot and one coordinate is nan."""
    rng = np.random.default_rng(seed)
    X0 = rng.uniform(size=(n, d))
    for _ in range(n_duplicates):
        X0[rng.integers(n)] = X0[rng.integers(n)]
    step = n ** (-1.0 / d) * 10.0**log_step
    walk = np.cumsum(rng.normal(size=(n_snapshots - 1, n, d)) * step, axis=0)
    positions = np.concatenate([X0[None], X0 + walk])
    if meet and n_snapshots > 1:
        s = rng.integers(1, n_snapshots)
        positions[s, 1] = positions[s, 0]
    if nan:
        positions[rng.integers(n_snapshots), rng.integers(n), rng.integers(d)] = np.nan
    return Trajectory(times=np.arange(n_snapshots, dtype=float), positions=positions,
                      weights=np.full(n, 1.0 / n), dt=1.0, eps=0.0, snapshot_stride=1)


class TestCollisionOracle:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(2, 60),
           chunks=st.floats(0.0, 3.0), log_step=st.floats(-8.0, 1.0),
           n_duplicates=st.integers(0, 3), meet=st.booleans(), nan=st.booleans())
    def test_curve_and_ratio_match_the_oracle(self, seed, d, n, chunks, log_step,
                                              n_duplicates, meet, nan):
        """Dimensions 1 to 3, runs of up to three chunks and a remainder, steps
        from 1e-8 to 10 spacings (from one candidate pair to every pair),
        coincident initial atoms, an exact meeting and a nan snapshot."""
        n_snapshots = 1 + int(chunks * chunk_length(n))
        traj = random_walk(seed, d, n, n_snapshots, log_step, n_duplicates, meet, nan)
        try:
            want = oracle_min_pairwise_distance(traj)
        except ValueError:
            with pytest.raises(ValueError, match="distinct"):
                min_pairwise_distance(traj)
            return
        curve, ratio = min_pairwise_distance(traj)
        assert np.array_equal(curve, want[0], equal_nan=True)
        assert np.array_equal(ratio, want[1], equal_nan=True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pair_just_inside_the_bound_takes_the_minimum(self, d):
        """The bound is tight: over the first chunk the nearest pair moves
        apart by 2 delta while a pair 4 delta (less 0.1%) farther closes by
        2 delta and ends the chunk as the nearest.  A bound of less than
        about 4 delta would drop that pair."""
        n = 60
        length, m, delta = chunk_length(n), 0.01, 0.02
        ramp = np.linspace(0.0, delta, length)
        positions = np.zeros((2 * length + 1, n, d))
        positions[:, 4:, 0] = 10.0 * np.arange(4, n)                 # far from each other
        gap = m + 4.0 * delta * (1.0 - 1e-3)
        positions[:, :4, 0] = [-m / 2 - delta, m / 2 + delta, 5.0 - gap / 2 + delta, 5.0 + gap / 2 - delta]
        positions[:length, 0, 0] = -m / 2 - ramp
        positions[:length, 1, 0] = m / 2 + ramp
        positions[:length, 2, 0] = 5.0 - gap / 2 + ramp
        positions[:length, 3, 0] = 5.0 + gap / 2 - ramp
        traj = Trajectory(times=np.arange(2 * length + 1, dtype=float), positions=positions,
                          weights=np.full(n, 1.0 / n), dt=1.0, eps=0.0, snapshot_stride=1)
        curve, ratio = min_pairwise_distance(traj)
        want = oracle_min_pairwise_distance(traj)
        assert want[0][length - 1] < m + 2 * delta - 1e-5           # the closing pair
        assert np.array_equal(curve, want[0]) and ratio == want[1]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_structural_run_matches_the_oracle(self, seed):
        """The reference network at N = 200 over 501 snapshots, as the
        structural benchmark reads it."""
        coeffs = build_coefficients(REF)
        noise = NoisePath(seed, 1e-3, 500, coeffs.n_channels)
        run = IntegratorConfig(dt=1e-3, horizon=0.5, eps=1e-2, snapshot_stride=1)
        traj = simulate(sample_initial(REF_SPEC, 200, seed), coeffs, run, noise)
        curve, ratio = min_pairwise_distance(traj)
        want = oracle_min_pairwise_distance(traj)
        assert np.array_equal(curve, want[0]) and ratio == want[1]
