"""Coefficient construction: features, potentials, drift, noise and loss.

Expected values marked by hand are tiny closed-form computations; everything
else is checked against an independent oracle (finite differences or a
direct re-summation written differently from the library path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import paper_forms as pf
from meanfield_sgd.coefficients import (
    ACTIVATIONS,
    CoefficientError,
    Dataset,
    NetworkCoefficients,
    SyntheticCoefficients,
    pack_param,
)
from meanfield_sgd.dynamics import ParticleEnsemble
from meanfield_sgd.harness import build_coefficients, reference_config


def single_atom_identity():
    data = Dataset(atoms=[[1.0]], weights=[1.0], labels=[1.0])
    return NetworkCoefficients(data, ACTIVATIONS["identity"], allow_unbounded=True)


def reference_like(seed=0, n_atoms=5):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-1, 1, size=(n_atoms, 1))
    w = rng.uniform(0.5, 1.5, size=n_atoms)
    w /= w.sum()
    labels = 0.5 * np.sin(np.pi * thetas[:, 0])
    return NetworkCoefficients(Dataset(thetas, w, labels), ACTIVATIONS["tanh"])


def random_measure(rng, n, d):
    return ParticleEnsemble.uniform(rng.normal(0, 1, size=(n, d)))


class TestDataset:
    def test_weight_sum_enforced(self):
        with pytest.raises(CoefficientError):
            Dataset(atoms=[[0.0], [1.0]], weights=[0.6, 0.6], labels=[0.0, 0.0])

    def test_from_rows_renormalizes_with_warning(self):
        rows = np.array([[0.0, 0.501, 1.0], [1.0, 0.504, -1.0]])
        with pytest.warns(UserWarning):
            data = Dataset.from_rows(rows)
        assert abs(data.weights.sum() - 1.0) <= 1e-12

    def test_from_rows_rejects_far_from_one(self):
        rows = np.array([[0.0, 0.6, 1.0], [1.0, 0.6, -1.0]])
        with pytest.raises(CoefficientError):
            Dataset.from_rows(rows)

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0.5 0.25 1.0\n-0.5 0.25 0.0\n0.0 0.5 -1.0\n")
        data = Dataset.from_file(path)
        assert data.n_atoms == 3
        np.testing.assert_allclose(data.weights.sum(), 1.0, atol=1e-12)
        np.testing.assert_array_equal(data.labels, [1.0, 0.0, -1.0])

    def test_comma_delimited(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5, 0.5, 1.0\n-0.5, 0.5, 0.0\n")
        data = Dataset.from_file(path)
        assert data.input_dim == 1


class TestActivationGate:
    def test_identity_rejected_by_default(self):
        data = Dataset(atoms=[[1.0]], weights=[1.0], labels=[1.0])
        with pytest.raises(CoefficientError):
            NetworkCoefficients(data, ACTIVATIONS["identity"])

    @pytest.mark.parametrize("name", ["tanh", "sigmoid", "smoothed-relu"])
    def test_builtin_derivatives_finite(self, name):
        z = np.linspace(-20, 20, 401)
        for entry in ACTIVATIONS[name].jet(z, 2):
            assert np.all(np.isfinite(entry))


class TestActivationJet:
    @pytest.mark.parametrize("name", list(ACTIVATIONS))
    @settings(max_examples=50, deadline=None)
    @given(z=st.floats(-8.0, 8.0))
    def test_derivatives_match_central_differences(self, name, z):
        """phi' and phi'' against central differences of phi and of phi'."""
        jet = ACTIVATIONS[name].jet
        h = 1e-5
        _, d1, d2 = jet(np.array([z]), 2)
        (v_hi, d1_hi), (v_lo, d1_lo) = jet(np.array([z + h]), 1), jet(np.array([z - h]), 1)
        assert d1[0] == pytest.approx((v_hi[0] - v_lo[0]) / (2 * h), abs=1e-8)
        assert d2[0] == pytest.approx((d1_hi[0] - d1_lo[0]) / (2 * h), abs=1e-8)

    @pytest.mark.parametrize("name", list(ACTIVATIONS))
    def test_orders_agree_bit_for_bit(self, name):
        z = np.random.default_rng(3).normal(0.0, 3.0, size=(7, 5))
        jets = [ACTIVATIONS[name].jet(z, order) for order in range(3)]
        for order, jet in enumerate(jets):
            assert len(jet) == order + 1
            for low, high in zip(jet, jets[2]):
                assert np.array_equal(low, high)


class TestFeature:
    def test_identity_unit_case(self):
        """identity phi, theta=1, x=(c=1,u=1): Phi=1 and grad=(1,1)."""
        coeffs = single_atom_identity()
        x = pack_param(1.0, [1.0])
        assert pf.feature(coeffs, x, 0)[0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(pf.feature(coeffs, x, 0)[1:], [1.0, 1.0], atol=1e-15)

    def test_zero_output_weight_kills_u_gradient(self):
        coeffs = reference_like()
        x = pack_param(0.0, [0.7])
        g = pf.feature(coeffs, x, 2)[1:]
        assert g[0] == pytest.approx(np.tanh(0.7 * coeffs.dataset.atoms[2, 0]), abs=1e-14)
        np.testing.assert_allclose(g[1:], 0.0, atol=1e-15)

    def test_gradient_against_central_differences(self):
        """tanh phi, theta=(0.5), x=(2, 0.4): finite-difference oracle."""
        data = Dataset(atoms=[[0.5]], weights=[1.0], labels=[0.3])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["tanh"])
        x = pack_param(2.0, [0.4])
        h = 1e-6
        fd = np.empty(2)
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd[k] = (pf.feature(coeffs, x + e, 0)[0] - pf.feature(coeffs, x - e, 0)[0]) / (2 * h)
        g = pf.feature(coeffs, x, 0)[1:]
        np.testing.assert_allclose(g, fd, rtol=1e-6)


class TestPotentialAndKernel:
    def test_kernel_diagonal_nonnegative(self):
        coeffs = reference_like()
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(0, 2, size=2)
            assert pf.kernel(coeffs, x, x)[0] >= 0.0

    def test_single_atom_unit_values(self):
        """single atom, identity phi, f=1, x=(1,1), theta=1: F=1 and K(x,x)=1."""
        coeffs = single_atom_identity()
        x = pack_param(1.0, [1.0])
        # oracle: direct summation over the (single) data atom
        phi_val = 1.0 * (1.0 * 1.0)
        assert pf.potential(coeffs, x)[0] == pytest.approx(1.0 * 1.0 * phi_val, abs=1e-15)
        assert pf.kernel(coeffs, x, x)[0] == pytest.approx(phi_val * phi_val, abs=1e-15)

    def test_zero_labels_zero_potential(self):
        data = Dataset(atoms=[[0.3], [-0.2]], weights=[0.5, 0.5], labels=[0.0, 0.0])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["tanh"])
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert pf.potential(coeffs, rng.normal(size=2))[0] == 0.0

    def test_synthetic_mode_rejects_network_ops(self):
        syn = SyntheticCoefficients(dim=2)
        with pytest.raises(CoefficientError):
            syn.loss(np.zeros((1, 2)))

    def test_grad_potential_and_kernel_finite_differences(self):
        """grad F and grad_x K match central differences (step 1e-5)."""
        coeffs = reference_like(seed=3)
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, size=2)
        y = rng.normal(0, 1, size=2)
        h = 1e-5
        for target, grad in (
            (lambda z: pf.potential(coeffs, z)[0], pf.potential(coeffs, x)[1:]),
            (lambda z: pf.kernel(coeffs, z, y)[0], pf.kernel(coeffs, x, y)[1:]),
        ):
            fd = np.empty(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                fd[k] = (target(x + e) - target(x - e)) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-5)


class TestDrift:
    def test_interpolating_configuration_is_critical(self):
        """single-atom data, prediction equals label: V = 0."""
        coeffs = single_atom_identity()
        mu = ParticleEnsemble.uniform(np.array([[1.0, 1.0]]))
        V = coeffs.drift(np.array([[1.0, 1.0]]), mu)
        np.testing.assert_allclose(V, 0.0, atol=1e-15)

    def test_zero_everything_zero_drift(self):
        data = Dataset(atoms=[[0.4], [-0.6]], weights=[0.5, 0.5], labels=[0.0, 0.0])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["tanh"])
        mu = ParticleEnsemble.uniform(np.array([[0.0, 0.3], [0.0, -0.1]]))  # c=0 predictions
        V = coeffs.drift(np.array([[0.0, 0.5]]), mu)
        np.testing.assert_allclose(V, 0.0, atol=1e-15)

    def test_additive_structure_matches_residual_form(self):
        """Vbar(x) + <Vtilde(x, .), mu> equals the residual-form drift to 1e-12."""
        coeffs = reference_like(seed=5)
        rng = np.random.default_rng(6)
        mu = random_measure(rng, 7, 2)
        for _ in range(10):
            x = rng.normal(0, 1.5, size=2)
            residual_form = coeffs.drift(x[None, :], mu)[0]
            additive = pf.v_bar(coeffs, x) + sum(
                w * pf.v_tilde(coeffs, x, y) for y, w in zip(mu.positions, mu.weights)
            )
            np.testing.assert_allclose(residual_form, additive, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        coeffs = reference_like()
        mu = ParticleEnsemble.uniform(np.zeros((3, 4)))
        with pytest.raises(CoefficientError):
            coeffs.drift(np.zeros((2, 2)), mu)


class TestNoise:
    def test_single_data_atom_noise_vanishes(self):
        coeffs = single_atom_identity()
        rng = np.random.default_rng(7)
        mu = random_measure(rng, 4, 2)
        X = rng.normal(size=(4, 2))
        G = coeffs.noise_matrix(X, mu)
        np.testing.assert_allclose(G, 0.0, atol=1e-15)
        A = pf.a_tilde(coeffs, X[0], X[0], mu.positions, mu.weights)
        np.testing.assert_allclose(A, 0.0, atol=1e-15)

    def test_centering(self):
        """sum_p w_p G(x, mu, theta_p) = 0 by construction (<= 1e-10)."""
        coeffs = reference_like(seed=8)
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 6, 2)
        G = coeffs.noise_matrix(rng.normal(size=(5, 2)), mu)
        mean = np.einsum("p,npd->nd", coeffs.channel_weights, G)
        assert np.max(np.abs(mean)) <= 1e-10

    def test_centered_residual_oracle(self):
        """componentwise match with an independently coded centered residual."""
        coeffs = reference_like(seed=10)
        rng = np.random.default_rng(11)
        mu = random_measure(rng, 6, 2)
        x = rng.normal(size=2)
        oracle = pf.noise(coeffs, x, mu.positions, mu.weights)
        lib = coeffs.noise_matrix(x[None, :], mu)[0]
        np.testing.assert_allclose(lib, oracle, atol=1e-12)

    def test_covariance_psd_and_symmetry(self):
        coeffs = reference_like(seed=12)
        rng = np.random.default_rng(13)
        mu = random_measure(rng, 5, 2)
        x = rng.normal(size=2)
        y = rng.normal(size=2)
        env = (mu.positions, mu.weights)
        A = pf.a_tilde(coeffs, x, x, *env)
        assert np.min(np.linalg.eigvalsh(A)) >= -1e-10
        np.testing.assert_array_equal(A, A.T)
        np.testing.assert_allclose(
            pf.a_tilde(coeffs, x, y, *env), pf.a_tilde(coeffs, y, x, *env).T, atol=0.0
        )

    def test_noise_increment_matches_matrix_contraction(self):
        coeffs = reference_like(seed=14)
        rng = np.random.default_rng(15)
        mu = random_measure(rng, 6, 2)
        X = rng.normal(size=(6, 2))
        dB = rng.normal(size=coeffs.n_channels)
        G = coeffs.noise_matrix(X, mu)
        expected = np.einsum(
            "npd,p->nd", G, np.sqrt(coeffs.channel_weights) * dB
        )
        np.testing.assert_allclose(coeffs.noise_increment(X, mu, dB), expected, atol=1e-13)


class TestTangentDerivatives:
    """The drift jacobian and the interaction derivative feed the tangent
    solver; both are checked against finite differences."""

    def test_drift_jacobian_apply(self):
        coeffs = reference_like(seed=16)
        rng = np.random.default_rng(17)
        mu = random_measure(rng, 6, 2)
        X = rng.normal(size=(3, 2))
        Y = rng.normal(size=(3, 2))
        h = 1e-6
        fd = (coeffs.drift(X + h * Y, mu) - coeffs.drift(X - h * Y, mu)) / (2 * h)
        np.testing.assert_allclose(coeffs.drift_jacobian_apply(X, Y, mu), fd, atol=1e-7)

    def test_vtilde_y_apply(self):
        coeffs = reference_like(seed=18)
        rng = np.random.default_rng(19)
        base = rng.normal(size=(5, 2))
        tang = rng.normal(size=(5, 2))
        X = rng.normal(size=(3, 2))
        h = 1e-6

        def mean_vtilde(shift):
            pts = base + shift * tang
            return np.array(
                [
                    np.mean([pf.v_tilde(coeffs, x, y) for y in pts], axis=0)
                    for x in X
                ]
            )

        fd = (mean_vtilde(h) - mean_vtilde(-h)) / (2 * h)
        np.testing.assert_allclose(coeffs.vtilde_y_apply(X, base, tang), fd, atol=1e-7)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        data=st.data(),
        kappa=st.floats(-2.0, 2.0),
        gamma=st.floats(-2.0, 2.0),
    )
    def test_synthetic_1d_matches_finite_differences(self, n, data, kappa, gamma):
        """synthetic-1d: grad_x V . Y and the interaction derivative against
        central differences of ``drift`` (exact up to rounding, V is linear)."""
        coeffs = build_coefficients(reference_config(
            instance="synthetic-1d", synthetic_params=(("kappa", kappa), ("gamma", gamma)),
            mu0_low=(-1.0,), mu0_high=(1.0,)))
        points = arrays(float, (n, 1), elements=st.floats(-3.0, 3.0))
        X, Y, base, tang = (data.draw(points) for _ in range(4))
        mu = ParticleEnsemble.uniform(X)
        h = 1e-3
        fd_jac = (coeffs.drift(X + h * Y, mu) - coeffs.drift(X - h * Y, mu)) / (2 * h)
        np.testing.assert_allclose(coeffs.drift_jacobian_apply(X, Y, mu), fd_jac, rtol=1e-7, atol=1e-9)
        fd_inter = (coeffs.drift(X, ParticleEnsemble.uniform(base + h * tang))
                    - coeffs.drift(X, ParticleEnsemble.uniform(base - h * tang))) / (2 * h)
        np.testing.assert_allclose(coeffs.vtilde_y_apply(X, base, tang), fd_inter,
                                   rtol=1e-7, atol=1e-9)


class TestLoss:
    def test_perfect_interpolation_zero_loss(self):
        coeffs = single_atom_identity()
        params = np.array([[1.0, 1.0]])  # prediction c*u*theta = 1 = label
        assert coeffs.loss(params) == pytest.approx(0.0, abs=1e-15)

    def test_zero_labels_zero_outputs(self):
        data = Dataset(atoms=[[0.5], [-0.5]], weights=[0.5, 0.5], labels=[0.0, 0.0])
        coeffs = NetworkCoefficients(data, ACTIVATIONS["tanh"])
        params = np.array([[0.0, 0.7], [0.0, -0.2]])
        assert coeffs.loss(params) == 0.0

    def test_kernel_form_identity(self):
        """residual form and kernel representation agree to 1e-10."""
        coeffs = reference_like(seed=20)
        rng = np.random.default_rng(21)
        params = rng.normal(0, 1, size=(9, 2))
        assert abs(coeffs.loss(params) - pf.loss_kernel_form(coeffs, params)) < 1e-10

    def test_empty_parameter_list_rejected(self):
        coeffs = reference_like()
        with pytest.raises(CoefficientError):
            coeffs.loss(np.zeros((0, 2)))


class TestPaperFormIdentities:
    """The shipped batch evaluators against the point forms of tests/paper_forms.py."""

    @settings(max_examples=40, deadline=None)
    @given(n_atoms=st.integers(1, 6), n0=st.integers(1, 3), bias=st.booleans(),
           name=st.sampled_from(["tanh", "sigmoid", "smoothed-relu"]), data=st.data())
    def test_drift_noise_and_loss(self, n_atoms, n0, bias, name, data):
        """drift = Vbar + <Vtilde, mu>, noise_matrix = G and loss = the kernel-form loss."""
        def draw(shape, elements=st.floats(-2.0, 2.0)):
            return data.draw(arrays(float, shape, elements=elements))

        mass = draw(n_atoms, st.floats(0.1, 1.0))
        dataset = Dataset(draw((n_atoms, n0)), mass / mass.sum(), draw(n_atoms))
        coeffs = NetworkCoefficients(dataset, ACTIVATIONS[name])
        coeffs = pf.with_bias(coeffs) if bias else coeffs
        X, atoms = draw((3, coeffs.dim)), draw((data.draw(st.integers(1, 4)), coeffs.dim))
        mu = ParticleEnsemble.uniform(atoms)
        drift, G = coeffs.drift(X, mu), coeffs.noise_matrix(X, mu)
        for i, x in enumerate(X):
            additive = pf.v_bar(coeffs, x) + sum(
                w * pf.v_tilde(coeffs, x, y) for y, w in zip(mu.positions, mu.weights)
            )
            np.testing.assert_allclose(drift[i], additive, atol=1e-12)
            np.testing.assert_allclose(G[i], pf.noise(coeffs, x, mu.positions, mu.weights), atol=1e-12)
        assert abs(coeffs.loss(atoms) - pf.loss_kernel_form(coeffs, atoms)) < 1e-10


class TestBiasFlag:
    def test_bias_dimension_and_gradient(self):
        """A constant data coordinate carries the bias: on atoms (theta, 1) the
        parameters (c, u, b) give Phi = c tanh(u theta + b), whose gradient
        matches central differences of that closed form."""
        theta = 0.5
        coeffs = NetworkCoefficients(Dataset(atoms=[[theta, 1.0]], weights=[1.0], labels=[0.3]),
                                     ACTIVATIONS["tanh"])
        assert coeffs.dim == 3
        x = pack_param(1.5, [0.4, 0.2])
        h = 1e-6
        fd = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            plus, minus = x + e, x - e
            fd[k] = (plus[0] * np.tanh(plus[1] * theta + plus[2])
                     - minus[0] * np.tanh(minus[1] * theta + minus[2])) / (2 * h)
        np.testing.assert_allclose(coeffs.grad_feature_matrix(x)[0, 0], fd, rtol=1e-6)
        np.testing.assert_allclose(pf.feature(coeffs, x, 0)[1:], fd, rtol=1e-6)
