"""The paper's point forms of the network coefficients: a test oracle written
from the formulas, one point and one data atom at a time, from ``coeffs.dataset``
and ``coeffs.activation.jet`` alone. x = (c, u); Phi, F, K are [value, grad_x]:
    Phi_p(x) = c sigma(u . theta_p),  F = sum_p w_p f_p Phi_p,  K = sum_p w_p Phi_p (x) Phi_p
    V(x, mu) = Vbar(x) + <Vtilde(x, .), mu>,  Vbar = grad F,  Vtilde = -grad_x K
    G_p(x, mu) = r_p grad Phi_p - sum_q w_q r_q grad Phi_q,  r_p = f_p - <Phi_p, mu>
    Atilde(x, y, mu) = sum_p w_p G_p(x, mu) (x) G_p(y, mu)
A bias b is the weight on a constant data coordinate: ``with_bias`` appends a
column of ones to the atoms, so that Phi_p(c, u, b) = c sigma(u . theta_p + b).
"""

import numpy as np

from meanfield_sgd.coefficients import Dataset, NetworkCoefficients
from meanfield_sgd.measures import SignedAtomicField


def with_bias(coeffs):
    """The network of ``coeffs`` on atoms (theta, 1): parameters (c, u, b)."""
    data = coeffs.dataset
    atoms = np.hstack([data.atoms, np.ones((data.n_atoms, 1))])
    return NetworkCoefficients(Dataset(atoms, data.weights, data.labels), coeffs.activation)


def feature(coeffs, x, p):
    """[Phi_p(x), grad Phi_p(x)] = [c sigma, sigma, c sigma' theta_p]."""
    x, theta = np.asarray(x, dtype=float), coeffs.dataset.atoms[p]
    c, (sigma, ds) = x[0], map(float, coeffs.activation.jet(np.asarray(x[1:] @ theta), 1))
    return np.array([c * sigma, sigma, *(c * ds * theta)])


def _channel_sum(coeffs, term):
    return sum(w * term(p) for p, w in enumerate(coeffs.dataset.weights))


def potential(coeffs, x):
    return _channel_sum(coeffs, lambda p: coeffs.dataset.labels[p] * feature(coeffs, x, p))


def kernel(coeffs, x, y):
    return _channel_sum(coeffs, lambda p: feature(coeffs, x, p) * feature(coeffs, y, p)[0])


def v_bar(coeffs, x):
    return potential(coeffs, x)[1:]


def v_tilde(coeffs, x, y):
    return -kernel(coeffs, x, y)[1:]


def noise(coeffs, x, positions, weights):
    """G_p(x, mu) for mu = sum_j weights_j delta_{positions_j}, one row per p."""
    res = [f - sum(w * feature(coeffs, y, p)[0] for y, w in zip(positions, weights))
           for p, f in enumerate(coeffs.dataset.labels)]
    raw = np.array([r * feature(coeffs, x, p)[1:] for p, r in enumerate(res)])
    return raw - _channel_sum(coeffs, lambda p: raw[p])


def a_tilde(coeffs, x, y, positions, weights):
    gx, gy = noise(coeffs, x, positions, weights), noise(coeffs, y, positions, weights)
    return _channel_sum(coeffs, lambda p: np.outer(gx[p], gy[p]))


def loss_kernel_form(coeffs, params):
    """sum_p w_p f_p^2 - (2/M) sum_i F(x_i) + (1/M^2) sum_ij K(x_i, x_j)."""
    return (_channel_sum(coeffs, lambda p: coeffs.dataset.labels[p] ** 2)
            - 2.0 * sum(potential(coeffs, x)[0] for x in params) / len(params)
            + sum(kernel(coeffs, x, y)[0] for x in params for y in params) / len(params) ** 2)


def read_field(path):
    """A ``measures.write_field`` file: ``# field kind=.. dim=..``, then one row per atom."""
    with open(path, encoding="utf-8") as fh:
        tags = dict(part.split("=") for part in fh.readline().split()[2:])
        rows = np.loadtxt(fh, ndmin=2)
    dim = int(tags["dim"])
    payload = rows[:, dim] if tags["kind"] == "atomic" else rows[:, dim:]
    return SignedAtomicField(tags["kind"], rows[:, :dim], payload)
