"""Wasserstein-2 backends, moments, the spectral H^{-J} surrogate and pairings."""

import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import paper_forms
from meanfield_sgd import measures
from meanfield_sgd.diagnostics import gaussian_bump
from meanfield_sgd.measures import (
    EmpiricalMeasure,
    SignedAtomicField,
    SpectralGrid,
    _w2_assignment,
    _w2_lp,
    moment,
    pair,
    sobolev_neg_norm,
    spectral_coefficients,
    w2,
    w2_detailed,
    write_field,
)


def brute_force_w2_sq(xa, xb):
    """Exhaustive minimum over all matchings (uniform equal-cardinality)."""
    n = xa.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(np.sum((xa[i] - xb[perm[i]]) ** 2) for i in range(n)) / n
        best = min(best, cost)
    return best


class TestW2:
    def test_two_diracs(self):
        a = EmpiricalMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
        b = EmpiricalMeasure(np.array([[3.0, 4.0]]), np.array([1.0]))
        assert w2(a, b) == pytest.approx(5.0, abs=1e-12)

    def test_two_point_measures_1d(self):
        """uniform on {0,1} vs uniform on {0,2}: W2^2 = 0.5 by enumeration."""
        a = EmpiricalMeasure.uniform(np.array([[0.0], [1.0]]))
        b = EmpiricalMeasure.uniform(np.array([[0.0], [2.0]]))
        # oracle: both couplings by hand -> min(0 + 1, 4 + 1)/2 = 0.5
        assert w2(a, b) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_identical_measures(self):
        rng = np.random.default_rng(0)
        mu = EmpiricalMeasure.uniform(rng.normal(size=(12, 3)))
        assert w2(mu, mu) == 0.0

    def test_permuted_multiset_is_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(9, 2))
        mu = EmpiricalMeasure.uniform(pts)
        nu = EmpiricalMeasure.uniform(pts[::-1])
        assert w2(mu, nu) == pytest.approx(0.0, abs=1e-15)

    def test_assignment_equals_brute_force(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 6, 7):
            xa = rng.normal(size=(n, 2))
            xb = rng.normal(size=(n, 2))
            assert _w2_assignment(xa, xb) == pytest.approx(
                brute_force_w2_sq(xa, xb), abs=1e-12
            )

    def test_quantile_matches_assignment_in_1d(self):
        rng = np.random.default_rng(3)
        xa = rng.normal(size=(15, 1))
        xb = rng.normal(size=(15, 1))
        mu = EmpiricalMeasure.uniform(xa)
        nu = EmpiricalMeasure.uniform(xb)
        val, info = w2_detailed(mu, nu)
        assert info["backend"] == "quantile"
        assert val**2 == pytest.approx(_w2_assignment(xa, xb), abs=1e-12)

    def test_weighted_1d_against_atom_splitting(self):
        """a weighted measure equals its equal-weight refinement."""
        mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
        mu_split = EmpiricalMeasure.uniform(np.array([[0.0]] * 3 + [[1.0]]))
        nu = EmpiricalMeasure.uniform(np.array([[-1.0], [0.5], [2.0], [3.0]]))
        assert w2(mu, nu) == pytest.approx(w2(mu_split, nu), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a, b, c = (EmpiricalMeasure.uniform(rng.normal(size=(8, 2))) for _ in range(3))
            assert w2(a, c) <= w2(a, b) + w2(b, c) + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = EmpiricalMeasure.uniform(rng.normal(size=(10, 2)))
        b = EmpiricalMeasure.uniform(rng.normal(size=(10, 2)))
        assert w2(a, b) == pytest.approx(w2(b, a), abs=1e-12)

    def test_dimension_mismatch(self):
        a = EmpiricalMeasure.uniform(np.zeros((2, 2)))
        b = EmpiricalMeasure.uniform(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            w2(a, b)

    def test_empty_measure_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((0, 2)), np.zeros(0))

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 6), (2, 3), (1, 5)])
    def test_unequal_cardinality_is_exact(self, m, n):
        """uniform m vs n atoms in d = 2: lcm replication, the transport LP and
        brute force over the replicated matchings give one value."""
        rng = np.random.default_rng(6 + m * n)
        xa = rng.normal(size=(m, 2))
        xb = rng.normal(size=(n, 2))
        val, info = w2_detailed(EmpiricalMeasure.uniform(xa), EmpiricalMeasure.uniform(xb))
        assert info["backend"] == "assignment"
        size = np.lcm(m, n)
        brute = brute_force_w2_sq(np.repeat(xa, size // m, axis=0), np.repeat(xb, size // n, axis=0))
        lp = _w2_lp(xa, np.full(m, 1.0 / m), xb, np.full(n, 1.0 / n))
        assert val**2 == pytest.approx(brute, rel=1e-12)
        assert lp == pytest.approx(brute, rel=1e-9)

    def test_lp_past_the_assignment_cap(self, monkeypatch):
        """an lcm above the cap goes to the LP, which agrees with the assignment."""
        rng = np.random.default_rng(8)
        xa = rng.normal(size=(4, 2))
        xb = rng.normal(size=(6, 2))
        monkeypatch.setattr(measures, "_ASSIGNMENT_MAX", 10)
        val, info = w2_detailed(EmpiricalMeasure.uniform(xa), EmpiricalMeasure.uniform(xb))
        assert info["backend"] == "lp"
        assert val**2 == pytest.approx(_w2_assignment(xa, xb), rel=1e-9)

    def test_weighted_2d_goes_to_the_lp(self):
        """general weights in d = 2 use the LP, checked against atom splitting."""
        mu = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([0.75, 0.25]))
        mu_split = EmpiricalMeasure.uniform(np.array([[0.0, 0.0]] * 3 + [[1.0, 2.0]]))
        nu = EmpiricalMeasure.uniform(np.array([[-1.0, 0.5], [0.5, 0.0], [2.0, 1.0], [3.0, -1.0]]))
        val, info = w2_detailed(mu, nu)
        assert info["backend"] == "lp"
        assert val == pytest.approx(w2(mu_split, nu), rel=1e-9)


_POINTS = st.floats(-3.0, 3.0)


def _uniform_measures(data, dim: int, sizes=st.integers(1, 6)):
    return [EmpiricalMeasure.uniform(data.draw(arrays(float, (data.draw(sizes), dim), elements=_POINTS)))
            for _ in range(3)]


class TestW2Properties:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_metric_axioms(self, dim, data):
        a, b, c = _uniform_measures(data, dim)
        assert w2(a, a) == pytest.approx(0.0, abs=1e-7)
        assert w2(a, b) >= 0.0
        assert w2(a, b) == pytest.approx(w2(b, a), rel=1e-9, abs=1e-12)
        assert w2(a, c) <= w2(a, b) + w2(b, c) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_exact_backends_agree(self, dim, data):
        """quantile (1-d), assignment and LP give one squared W2."""
        a, b, _ = _uniform_measures(data, dim)
        val = w2(a, b) ** 2
        assert _w2_assignment(a.atoms, b.atoms) == pytest.approx(val, rel=1e-9, abs=1e-12)
        lp = _w2_lp(a.atoms, a.weights, b.atoms, b.weights)
        assert lp == pytest.approx(val, rel=1e-7, abs=1e-9)


class TestMoment:
    def test_dirac_at_origin(self):
        assert moment(EmpiricalMeasure(np.zeros((1, 2)), np.ones(1)), 2) == 0.0

    def test_unit_vectors(self):
        mu = EmpiricalMeasure.uniform(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert moment(mu, 2) == pytest.approx(1.0, abs=1e-15)

    def test_shuffled_recomputation(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(40, 3))
        w = rng.uniform(0.5, 1.5, size=40)
        w /= w.sum()
        mu = EmpiricalMeasure(pts, w)
        perm = rng.permutation(40)
        nu = EmpiricalMeasure(pts[perm], w[perm])
        for p in (2, 4):
            assert moment(mu, p) == pytest.approx(moment(nu, p), abs=1e-12)

    def test_bad_order(self):
        mu = EmpiricalMeasure.uniform(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            moment(mu, 3)


class TestSobolevNorm:
    def grid(self, r=np.pi, k=64, j=5):
        return SpectralGrid(r_box=r, k_max=k, j=j)

    def test_zero_field(self):
        f = SignedAtomicField.atomic(np.array([[0.1]]), np.array([0.0]))
        assert sobolev_neg_norm(f, self.grid()) == 0.0

    def test_cancelling_diracs(self):
        f = SignedAtomicField.atomic(np.array([[0.4], [0.4]]), np.array([1.0, -1.0]))
        assert sobolev_neg_norm(f, self.grid()) == pytest.approx(0.0, abs=1e-15)

    def test_against_direct_summation_oracle(self):
        """delta_{0.3} - delta_{-0.2}, d=1, R=pi, J=5, K=64 vs a plain loop."""
        f = SignedAtomicField.atomic(np.array([[0.3], [-0.2]]), np.array([1.0, -1.0]))
        g = self.grid()
        total = 0.0
        for k in range(-64, 65):
            coeff = np.exp(-1j * np.pi * k * 0.3 / np.pi) - np.exp(1j * np.pi * k * 0.2 / np.pi)
            weight = (1.0 + (np.pi * k / np.pi) ** 2) ** (-5)
            total += abs(coeff) ** 2 * weight
        oracle = np.sqrt(total / (2 * np.pi))
        assert sobolev_neg_norm(f, g) == pytest.approx(oracle, abs=1e-10)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(8)
        f = SignedAtomicField.atomic(rng.uniform(-1, 1, size=(6, 2)), rng.normal(size=6))
        g = SpectralGrid(r_box=2.0, k_max=16, j=4)
        base = sobolev_neg_norm(f, g)
        for c in (-2.5, 0.25, 7.0):
            scaled = SignedAtomicField.atomic(f.atoms, c * f.payload)
            assert sobolev_neg_norm(scaled, g) == pytest.approx(abs(c) * base, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_monotone_in_j(self):
        rng = np.random.default_rng(9)
        f = SignedAtomicField.atomic(rng.uniform(-1, 1, size=(5, 1)), rng.normal(size=5))
        norms = [
            sobolev_neg_norm(f, SpectralGrid(r_box=2.0, k_max=32, j=j)) for j in (2, 3, 5, 7)
        ]
        assert all(a >= b for a, b in zip(norms, norms[1:]))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_atom_outside_box_rejected(self):
        f = SignedAtomicField.atomic(np.array([[2.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            sobolev_neg_norm(f, SpectralGrid(r_box=2.0, k_max=16, j=3))

    def test_small_cutoff_warns(self):
        f = SignedAtomicField.atomic(np.array([[0.1]]), np.array([1.0]))
        with pytest.warns(UserWarning):
            sobolev_neg_norm(f, SpectralGrid(r_box=50.0, k_max=8, j=1))

    def test_tangent_coefficients_match_atomic_limit(self):
        """tangent coefficients are the derivative of translated atomic ones."""
        rng = np.random.default_rng(10)
        base = rng.uniform(-0.5, 0.5, size=(4, 2))
        tang = rng.normal(size=(4, 2))
        g = SpectralGrid(r_box=2.0, k_max=12, j=4)
        f_t = SignedAtomicField.tangent(base, tang)
        c_t = spectral_coefficients(f_t, g)
        h = 1e-6
        n = base.shape[0]
        plus = SignedAtomicField.atomic(base + h * tang, np.full(n, 1.0 / n))
        minus = SignedAtomicField.atomic(base - h * tang, np.full(n, 1.0 / n))
        fd = (spectral_coefficients(plus, g) - spectral_coefficients(minus, g)) / (2 * h)
        np.testing.assert_allclose(c_t, fd, atol=1e-6)


class TestPair:
    def test_constant_against_tangent_is_zero(self):
        rng = np.random.default_rng(11)
        f = SignedAtomicField.tangent(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        phi = gaussian_bump([0.0, 0.0], 1.0)
        const = type(phi)(
            "one",
            lambda X, order: (np.ones(X.shape[0]), np.zeros_like(X),
                              np.zeros((X.shape[0], 2, 2)))[: order + 1],
        )
        assert pair(f, const) == 0.0

    def test_coordinate_on_dirac_difference(self):
        f = SignedAtomicField.atomic(np.array([[1.0], [0.0]]), np.array([1.0, -1.0]))
        phi = gaussian_bump([0.0], 1.0)
        coord = type(phi)(
            "x",
            lambda X, order: (X[:, 0].copy(), np.ones_like(X),
                              np.zeros((X.shape[0], 1, 1)))[: order + 1],
        )
        assert pair(f, coord) == pytest.approx(1.0, abs=1e-15)

    def test_tangent_pairing_is_measure_difference_limit(self):
        """(<phi, mu_eps> - <phi, mu_0>)/sqrt(eps) converges to the tangent pairing."""
        rng = np.random.default_rng(12)
        base = rng.normal(size=(30, 2))
        tang = rng.normal(size=(30, 2))
        f = SignedAtomicField.tangent(base, tang)
        phi = gaussian_bump([0.2, -0.1], 0.8)
        target = pair(f, phi)
        errs = []
        for eps in (1e-2, 1e-4, 1e-6):
            shifted = base + np.sqrt(eps) * tang
            lhs = (phi.value(shifted).mean() - phi.value(base).mean()) / np.sqrt(eps)
            errs.append(abs(lhs - target))
        # remainder is O(sqrt(eps)), so each step gains about a decade
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3
        assert errs[0] / errs[2] > 50

    def test_linearity_in_the_field(self):
        rng = np.random.default_rng(13)
        atoms = rng.normal(size=(6, 2))
        w1 = rng.normal(size=6)
        w2_ = rng.normal(size=6)
        phi = gaussian_bump([0.0, 0.0], 1.2)
        f1 = SignedAtomicField.atomic(atoms, w1)
        f2 = SignedAtomicField.atomic(atoms, w2_)
        f12 = SignedAtomicField.atomic(atoms, 2.0 * w1 - 3.0 * w2_)
        assert pair(f12, phi) == pytest.approx(2 * pair(f1, phi) - 3 * pair(f2, phi), abs=1e-12)


class TestSerialization:
    def test_atomic_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        f = SignedAtomicField.atomic(rng.normal(size=(5, 3)), rng.normal(size=5))
        path = tmp_path / "field.txt"
        write_field(f, path)
        g = paper_forms.read_field(path)
        assert g.kind == "atomic"
        np.testing.assert_array_equal(g.atoms, f.atoms)
        np.testing.assert_array_equal(g.payload, f.payload)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["atomic", "tangent"]), n=st.integers(1, 6), dim=st.integers(1, 3),
           data=st.data())
    def test_round_trip_is_exact(self, kind, n, dim, data):
        """17 significant digits bring back every float64, whatever its size."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        atoms = data.draw(arrays(float, (n, dim), elements=finite))
        payload = data.draw(arrays(float, (n,) if kind == "atomic" else (n, dim), elements=finite))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.txt")
            write_field(SignedAtomicField(kind, atoms, payload), path)
            g = paper_forms.read_field(path)
        assert g.kind == kind
        np.testing.assert_array_equal(g.atoms, atoms)
        np.testing.assert_array_equal(g.payload, payload)

    def test_tangent_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        f = SignedAtomicField.tangent(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        path = tmp_path / "field.txt"
        write_field(f, path)
        g = paper_forms.read_field(path)
        assert g.kind == "tangent"
        np.testing.assert_array_equal(g.payload, f.payload)
