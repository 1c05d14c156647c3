"""Metrics tour: exact Wasserstein backends and the spectral H^{-J} norm.

The assignment backend is exact for uniform measures (of unequal
cardinalities too, replicated to their lcm), the quantile backend is exact in
one dimension for arbitrary weights, the LP backend covers the rest, and signed
atomic fields get their negative-Sobolev norm from exact Fourier sums on a
periodic box.
"""

import numpy as np

from meanfield_sgd import (
    EmpiricalMeasure,
    SignedAtomicField,
    SpectralGrid,
    moment,
    pair,
    sobolev_neg_norm,
    w2,
)
from meanfield_sgd.diagnostics import gaussian_bump
from meanfield_sgd.measures import w2_detailed

rng = np.random.default_rng(0)

# two clouds in the plane: exact optimal assignment
mu = EmpiricalMeasure.uniform(rng.normal(0.0, 1.0, size=(40, 2)))
nu = EmpiricalMeasure.uniform(rng.normal(0.5, 1.0, size=(40, 2)))
val, info = w2_detailed(mu, nu)
print(f"W2 between two 40-atom clouds: {val:.4f}  (backend: {info['backend']})")

# weighted 1-d measures: exact quantile coupling
a = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
b = EmpiricalMeasure(np.array([[0.5]]), np.array([1.0]))
print(f"weighted 1-d W2: {w2(a, b):.4f}")
print(f"second moment of the first measure: {moment(a, 2):.4f}")

# a signed field and its H^{-J} norm on a box
field = SignedAtomicField.atomic(
    np.array([[0.3], [-0.2]]), np.array([1.0, -1.0])
)
for j in (3, 5, 7):
    grid = SpectralGrid(r_box=np.pi, k_max=64, j=j)
    print(f"||delta_0.3 - delta_-0.2||_-{j} = {sobolev_neg_norm(field, grid):.6f}")

# tangent representation: phi -> (1/N) sum grad phi(X_i) . Y_i
base = rng.uniform(-0.5, 0.5, size=(30, 2))
tangents = rng.normal(size=(30, 2))
eta = SignedAtomicField.tangent(base, tangents)
phi = gaussian_bump([0.0, 0.0], 1.0)
print(f"<bump, eta> through the tangent pairing: {pair(eta, phi):+.5f}")
print(f"<1, eta> is structurally zero: {pair(eta, gaussian_bump([0.0,0.0], 1e9)):+.1e}")
