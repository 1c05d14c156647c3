"""Drift, noise and covariance coefficients of the mean-field dynamics.

A shallow network ``c * phi(u . theta)`` together with a finite data measure
(atoms, weights, labels) induces the coefficient triple used everywhere else
in the package:

* ``V(x, mu)``    -- drift felt by a particle at ``x`` in the environment
  ``mu``; it splits additively as ``Vbar(x) + <Vtilde(x, .), mu>`` with
  ``Vbar = grad F`` and ``Vtilde(x, y) = -grad_x K(x, y)``.
* ``G(x, mu, p)`` -- the centered per-data-atom noise direction.
* ``Atilde(x, y, mu) = sum_p w_p G(x,.,p) (x) G(y,.,p)`` and its diagonal
  ``A(x, mu) = Atilde(x, x, mu)``.

All expectations over the data measure are exact finite sums.  A synthetic
coefficient set realizes the degenerate cases (``G = 0``, constant drift,
...) needed by tests and rate experiments from one user-supplied batch
evaluator per term: ``v_bar_batch``, ``v_tilde_mean_batch``, ``g_batch``
and the two linearisations ``drift_jacobian_apply`` and ``vtilde_y_apply``
(shapes in ``SyntheticCoefficients``).
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Dataset",
    "Activation",
    "ACTIVATIONS",
    "pack_param",
    "NetworkCoefficients",
    "SyntheticCoefficients",
    "CoefficientError",
]

_WEIGHT_TOL = 1e-12


class CoefficientError(ValueError):
    """Raised on invalid coefficient construction or misuse of a mode."""


def _as_measure(measure) -> tuple[np.ndarray, np.ndarray]:
    """Accept an EmpiricalMeasure / ParticleEnsemble / (atoms, weights) pair."""
    if isinstance(measure, tuple):
        atoms, weights = measure
    else:
        atoms = getattr(measure, "atoms", None)
        if atoms is None:
            atoms = measure.positions
        weights = measure.weights
    atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float)
    return atoms, weights


@dataclass(frozen=True)
class Dataset:
    """Finite data measure: atoms in R^{n0}, probability weights, real labels."""

    atoms: np.ndarray    # (P, n0)
    weights: np.ndarray  # (P,)
    labels: np.ndarray   # (P,)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if atoms.shape[0] == 0:
            raise CoefficientError("dataset needs at least one atom")
        if weights.shape != (atoms.shape[0],) or labels.shape != (atoms.shape[0],):
            raise CoefficientError("atoms, weights and labels must have matching length")
        for name, values in (("atoms", atoms), ("weights", weights), ("labels", labels)):
            if not np.all(np.isfinite(values)):
                raise CoefficientError(f"{name} must be finite")
        if np.any(weights <= 0):
            raise CoefficientError("data weights must be strictly positive")
        if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise CoefficientError(f"data weights must sum to 1 (got {weights.sum()!r})")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", labels)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def input_dim(self) -> int:
        return self.atoms.shape[1]

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "Dataset":
        """Build from an array with columns theta_1..theta_n0, weight, label.

        Weights summing to 1 within 1e-12 are accepted as-is; sums inside
        [0.99, 1.01] are renormalized with a warning; anything else is
        rejected.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] < 3:
            raise CoefficientError("rows need at least 3 columns: theta, weight, label")
        atoms = rows[:, :-2]
        weights = rows[:, -2]
        labels = rows[:, -1]
        total = weights.sum()
        if abs(total - 1.0) > _WEIGHT_TOL:
            if 0.99 <= total <= 1.01:
                warnings.warn(
                    f"data weights sum to {total:.6f}; renormalizing to 1",
                    stacklevel=2,
                )
                weights = weights / total
            else:
                raise CoefficientError(
                    f"data weights sum to {total!r}, outside the accepted [0.99, 1.01]"
                )
        return cls(atoms=atoms, weights=weights, labels=labels)

    @classmethod
    def from_file(cls, path) -> "Dataset":
        """Load a delimited text file, one row per atom (theta.., weight, label)."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read().replace(",", " ")
        rows = np.loadtxt(io.StringIO(text), ndmin=2)
        return cls.from_rows(rows)


@dataclass(frozen=True)
class Activation:
    """Scalar activation with exact first and second derivatives."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    unbounded_derivative: bool = False


def _tanh_d1(z):
    t = np.tanh(z)
    return 1.0 - t * t


def _tanh_d2(z):
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t * t)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _sigmoid_d1(z):
    s = _sigmoid(z)
    return s * (1.0 - s)


def _sigmoid_d2(z):
    s = _sigmoid(z)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _softplus(z):
    # numerically stable log(1 + e^z)
    return np.logaddexp(0.0, z)


ACTIVATIONS: dict[str, Activation] = {
    "tanh": Activation("tanh", np.tanh, _tanh_d1, _tanh_d2),
    "sigmoid": Activation("sigmoid", _sigmoid, _sigmoid_d1, _sigmoid_d2),
    # softplus, a smooth stand-in for relu
    "smoothed-relu": Activation("smoothed-relu", _softplus, _sigmoid, _sigmoid_d1),
    "identity": Activation(
        "identity",
        lambda z: np.asarray(z, dtype=float),
        lambda z: np.ones_like(np.asarray(z, dtype=float)),
        lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        unbounded_derivative=True,
    ),
}


def pack_param(c: float, u: Sequence[float], b: float | None = None) -> np.ndarray:
    """Pack (output weight, input weights[, bias]) into one parameter vector."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    parts = [np.array([float(c)]), u]
    if b is not None:
        parts.append(np.array([float(b)]))
    return np.concatenate(parts)


class NetworkCoefficients:
    """Coefficients derived from a shallow network and a finite data measure.

    Parameters are packed as ``x = (c, u)`` with ``d = n0 + 1`` (the bias is
    fixed to zero unless ``include_bias`` is set, in which case ``d = n0 + 2``
    and ``x = (c, u, b)``).
    """

    mode = "network"

    def __init__(
        self,
        dataset: Dataset,
        activation: Activation | str = "tanh",
        include_bias: bool = False,
        allow_unbounded: bool = False,
    ):
        if isinstance(activation, str):
            activation = ACTIVATIONS[activation]
        if activation.unbounded_derivative and not allow_unbounded:
            raise CoefficientError(
                f"activation {activation.name!r} has unbounded derivatives; "
                "pass allow_unbounded=True to use it in analytic test setups"
            )
        self.dataset = dataset
        self.activation = activation
        self.include_bias = include_bias
        self._theta = dataset.atoms          # (P, n0)
        self._w = dataset.weights            # (P,)
        self._f = dataset.labels             # (P,)
        self._sqrt_w = np.sqrt(self._w)

    # --- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.dataset.input_dim + (2 if self.include_bias else 1)

    @property
    def n_channels(self) -> int:
        return self.dataset.n_atoms

    @property
    def channel_weights(self) -> np.ndarray:
        return self._w

    def _split(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise CoefficientError(
                f"parameter dimension {X.shape[1]} != expected {self.dim}"
            )
        c = X[:, 0]
        if self.include_bias:
            return c, X[:, 1:-1], X[:, -1]
        return c, X[:, 1:], np.zeros_like(c)

    def _preactivation(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Output weights c (N,) and pre-activations u . theta_p + b (N, P)."""
        c, u, b = self._split(X)
        return c, u @ self._theta.T + b[:, None]

    def _assemble(self, row_c: np.ndarray, row_u: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """sum_p kappa_p (row_c, row_u theta_p, row_u) in (c, u[, bias]) components.

        With row_c = phi and row_u = c phi' this is sum_p kappa_p grad Phi;
        with the Hessian rows of ``drift_jacobian_apply`` it is the jacobian.
        """
        out = np.empty((row_c.shape[0], self.dim))
        out[:, 0] = row_c @ kappa
        out[:, 1 : 1 + self.dataset.input_dim] = (row_u * kappa) @ self._theta
        if self.include_bias:
            out[:, -1] = row_u @ kappa
        return out

    def _contract(self, X: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """sum_p kappa_p grad Phi(x_i, theta_p); shape (N, d).

        Every step is this one contraction with its own per-channel weight:
        the drift has kappa = w r, the common noise r (sqrt(w) dB - w
        <sqrt(w), dB>), a mini-batch SGD step (alpha / B) count r.
        """
        c, z = self._preactivation(X)
        return self._assemble(self.activation.value(z), c[:, None] * self.activation.d1(z), kappa)

    def _noise_kappa(self, dB: np.ndarray) -> np.ndarray:
        """Per-channel weight of the common noise before the residual factor:
        sqrt(w_p) dB_p - w_p <sqrt(w), dB>, from G = r grad Phi - V."""
        return self._sqrt_w * dB - self._w * float(self._sqrt_w @ dB)

    # --- features and potentials -------------------------------------------

    def feature_matrix(self, X: np.ndarray) -> np.ndarray:
        """Phi(x_i, theta_p) for a batch of parameters; shape (N, P)."""
        c, z = self._preactivation(X)
        return c[:, None] * self.activation.value(z)

    def feature(self, x: np.ndarray, p: int) -> float:
        if not 0 <= p < self.n_channels:
            raise IndexError(f"data index {p} out of range")
        return float(self.feature_matrix(np.atleast_2d(x))[0, p])

    def grad_feature_matrix(self, X: np.ndarray) -> np.ndarray:
        """grad_x Phi(x_i, theta_p); shape (N, P, d)."""
        c, z = self._preactivation(X)
        phi = self.activation.value(z)
        dphi = self.activation.d1(z)
        N, P = z.shape
        out = np.empty((N, P, self.dim))
        out[:, :, 0] = phi
        cd = c[:, None] * dphi
        out[:, :, 1 : 1 + self.dataset.input_dim] = cd[:, :, None] * self._theta[None, :, :]
        if self.include_bias:
            out[:, :, -1] = cd
        return out

    def grad_feature(self, x: np.ndarray, p: int) -> np.ndarray:
        if not 0 <= p < self.n_channels:
            raise IndexError(f"data index {p} out of range")
        return self.grad_feature_matrix(np.atleast_2d(x))[0, p]

    def potential(self, x: np.ndarray) -> float:
        """F(x) = sum_p w_p f_p Phi(x, theta_p)."""
        return float(self.feature_matrix(np.atleast_2d(x))[0] @ (self._w * self._f))

    def grad_potential(self, x: np.ndarray) -> np.ndarray:
        g = self.grad_feature_matrix(np.atleast_2d(x))[0]  # (P, d)
        return (self._w * self._f) @ g

    def kernel(self, x: np.ndarray, y: np.ndarray) -> float:
        """K(x, y) = sum_p w_p Phi(x, theta_p) Phi(y, theta_p)."""
        fx = self.feature_matrix(np.atleast_2d(x))[0]
        fy = self.feature_matrix(np.atleast_2d(y))[0]
        return float((self._w * fx) @ fy)

    def grad_kernel_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        gx = self.grad_feature_matrix(np.atleast_2d(x))[0]  # (P, d)
        fy = self.feature_matrix(np.atleast_2d(y))[0]
        return (self._w * fy) @ gx

    def v_bar(self, x: np.ndarray) -> np.ndarray:
        """Mean-field-free part of the drift: grad F."""
        return self.grad_potential(x)

    def v_tilde(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Interaction kernel of the drift: -grad_x K(x, y)."""
        return -self.grad_kernel_x(x, y)

    # --- measure-dependent coefficients -------------------------------------

    def predictions(self, measure) -> np.ndarray:
        """<Phi(., theta_p), mu> for every data atom; shape (P,)."""
        atoms, weights = _as_measure(measure)
        return weights @ self.feature_matrix(atoms)

    def residuals(self, measure) -> np.ndarray:
        """f_p - <Phi(., theta_p), mu>; the per-data-atom fit residuals."""
        return self._f - self.predictions(measure)

    def drift(self, X: np.ndarray, measure) -> np.ndarray:
        """V(x_i, mu) = sum_p w_p (f_p - <Phi(., theta_p), mu>) grad Phi(x_i, theta_p)."""
        return self._contract(X, self._w * self.residuals(measure))

    def increment(self, X: np.ndarray, measure, dt: float, eps: float,
                  dB: np.ndarray | None) -> np.ndarray:
        """One Euler-Maruyama increment V dt + sqrt(eps) sum_p G_p sqrt(w_p) dB_p.

        Drift and noise fold into one contraction with
        kappa_p = r_p (w_p dt + sqrt(eps) (sqrt(w_p) dB_p - w_p <sqrt(w), dB>));
        ``dB`` is only read when eps > 0.
        """
        kappa = self._w * dt
        if eps > 0.0:
            kappa = kappa + np.sqrt(eps) * self._noise_kappa(dB)
        return self._contract(X, self.residuals(measure) * kappa)

    def noise_matrix(self, X: np.ndarray, measure) -> np.ndarray:
        """G(x_i, mu, theta_p) for all particles and channels; shape (N, P, d)."""
        r = self.residuals(measure)
        grad = self.grad_feature_matrix(X)  # (N, P, d)
        raw = r[None, :, None] * grad
        mean = np.einsum("p,npd->nd", self._w, raw)
        return raw - mean[:, None, :]

    def noise_increment(self, X: np.ndarray, measure, dB: np.ndarray) -> np.ndarray:
        """sum_p G(x_i, mu, theta_p) sqrt(w_p) dB_p without materializing G.

        Uses G = r_p grad Phi - V, so the sum is one contraction with
        kappa_p = r_p (sqrt(w_p) dB_p - w_p <sqrt(w), dB>).
        """
        return self._contract(X, self.residuals(measure) * self._noise_kappa(dB))

    def a_tilde(self, x: np.ndarray, y: np.ndarray, measure) -> np.ndarray:
        """Atilde(x, y, mu) = sum_p w_p G(x, mu, theta_p) (x) G(y, mu, theta_p)."""
        gx = self.noise_matrix(np.atleast_2d(x), measure)[0]  # (P, d)
        gy = self.noise_matrix(np.atleast_2d(y), measure)[0]
        return np.einsum("p,pi,pj->ij", self._w, gx, gy)

    def a(self, x: np.ndarray, measure) -> np.ndarray:
        return self.a_tilde(x, x, measure)

    # --- derivatives used by the tangent (fluctuation) system ---------------

    def drift_jacobian_apply(self, X: np.ndarray, Y: np.ndarray, measure) -> np.ndarray:
        """grad_x V(x_i, mu) . Y_i, with mu held fixed (includes Vbar and Vtilde parts).

        D^2 Phi(x_i, theta_p) . Y_i has rank structure: with s = theta_p . Y_u + Y_b
        its c-component is phi' s and its u- (and bias) component is
        (phi' Y_c + c phi'' s) times theta_p (times 1), so the channel sum is
        an ``_assemble`` without (N, P, d, d) storage.
        """
        c, z = self._preactivation(X)
        yc, s = self._preactivation(Y)
        dphi = self.activation.d1(z)
        hu = dphi * yc[:, None] + c[:, None] * self.activation.d2(z) * s
        return self._assemble(dphi * s, hu, self._w * self.residuals(measure))

    def vtilde_y_apply(self, X: np.ndarray, base: np.ndarray, tangents: np.ndarray) -> np.ndarray:
        """(1/N) sum_j grad_y Vtilde(x_i, base_j) . tangent_j; shape (N, d).

        grad_y Vtilde(x, y) = -sum_p w_p grad Phi(x, theta_p) (x) grad Phi(y, theta_p),
        so the pair sum factorizes through the data channels: a contraction
        with kappa_p = -w_p beta_p, beta_p = (1/N) sum_j grad Phi(base_j, theta_p) . tangent_j.
        """
        c, z = self._preactivation(base)
        tc, s = self._preactivation(tangents)   # t_c and theta . t_u + t_b
        beta = (tc @ self.activation.value(z)
                + np.einsum("j,jp,jp->p", c, self.activation.d1(z), s)) / z.shape[0]
        return self._contract(X, -self._w * beta)

    # --- loss ----------------------------------------------------------------

    def loss(self, params: np.ndarray) -> float:
        """Empirical risk sum_p w_p |f_p - mean_i Phi(x_i, theta_p)|^2."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        if params.shape[0] == 0:
            raise CoefficientError("loss of an empty parameter list")
        preds = self.feature_matrix(params).mean(axis=0)
        return float(self._w @ (self._f - preds) ** 2)

    def loss_kernel_form(self, params: np.ndarray) -> float:
        """Same risk via C_f - (2/M) sum_i F(x_i) + (1/M^2) sum_ij K(x_i, x_j)."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        if params.shape[0] == 0:
            raise CoefficientError("loss of an empty parameter list")
        M = params.shape[0]
        feats = self.feature_matrix(params)  # (M, P)
        c_f = float(self._w @ self._f**2)
        f_sum = float((feats @ (self._w * self._f)).sum())
        k_sum = float(np.einsum("ip,p,jp->", feats, self._w, feats))
        return c_f - 2.0 * f_sum / M + k_sum / M**2


class SyntheticCoefficients:
    """User-supplied batch evaluators for degenerate or analytic cases.

    A synthetic instance is five optional batch hooks, each zero when left
    out, for N particles ``X`` (N, d) in an environment with ``atoms``
    (M, d) and ``weights`` (M,):

    * ``v_bar_batch(X)`` -- Vbar at every particle, (N, d);
    * ``v_tilde_mean_batch(X, atoms, weights)`` -- <Vtilde(x_i, .), mu>,
      (N, d); the drift is the sum of the two;
    * ``g_batch(X, atoms, weights)`` -- the per-channel noise G, (N, P, d),
      already centered under the channel weights (checked by the
      diagnostics, not here);
    * ``drift_jacobian_apply(X, Y, atoms, weights)`` -- grad_x V(x_i, mu) . Y_i
      with mu held fixed, (N, d);
    * ``vtilde_y_apply(X, base, tangents)`` -- (1/N) sum_j
      grad_y Vtilde(x_i, base_j) . tangent_j, (N, d).

    The last two are the linearisations the tangent system needs; the
    methods of the same names only turn the measure into (atoms, weights).
    Network-only operations (potential, kernel, loss) are rejected.
    """

    mode = "synthetic"

    def __init__(
        self,
        dim: int,
        n_channels: int = 1,
        channel_weights: np.ndarray | None = None,
        v_bar_batch: Callable | None = None,
        v_tilde_mean_batch: Callable | None = None,
        g_batch: Callable | None = None,
        drift_jacobian_apply: Callable | None = None,
        vtilde_y_apply: Callable | None = None,
    ):
        self._dim = int(dim)
        self._n_channels = int(n_channels)
        if channel_weights is None:
            channel_weights = np.full(self._n_channels, 1.0 / self._n_channels)
        channel_weights = np.asarray(channel_weights, dtype=float)
        if channel_weights.shape != (self._n_channels,):
            raise CoefficientError("channel_weights has wrong shape")
        if abs(channel_weights.sum() - 1.0) > _WEIGHT_TOL or np.any(channel_weights <= 0):
            raise CoefficientError("channel_weights must be a probability vector")
        self._weights = channel_weights
        self._sqrt_w = np.sqrt(channel_weights)
        self._v_bar_batch = v_bar_batch
        self._v_tilde_mean_batch = v_tilde_mean_batch
        self._g_batch = g_batch
        self._drift_jacobian_apply = drift_jacobian_apply
        self._vtilde_y_apply = vtilde_y_apply

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_channels(self) -> int:
        return self._n_channels

    @property
    def channel_weights(self) -> np.ndarray:
        return self._weights

    def drift(self, X: np.ndarray, measure) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], self._dim))
        if self._v_bar_batch is not None:
            out += np.asarray(self._v_bar_batch(X), dtype=float)
        if self._v_tilde_mean_batch is not None:
            atoms, weights = _as_measure(measure)
            out += np.asarray(self._v_tilde_mean_batch(X, atoms, weights), dtype=float)
        return out

    def noise_matrix(self, X: np.ndarray, measure) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._g_batch is None:
            return np.zeros((X.shape[0], self._n_channels, self._dim))
        return np.asarray(self._g_batch(X, *_as_measure(measure)), dtype=float)

    def noise_increment(self, X: np.ndarray, measure, dB: np.ndarray) -> np.ndarray:
        G = self.noise_matrix(X, measure)
        return np.einsum("npd,p->nd", G, self._sqrt_w * dB)

    def increment(self, X: np.ndarray, measure, dt: float, eps: float,
                  dB: np.ndarray | None) -> np.ndarray:
        """One Euler-Maruyama increment V dt + sqrt(eps) sum_p G_p sqrt(w_p) dB_p."""
        out = self.drift(X, measure) * dt
        if eps > 0.0:
            out = out + np.sqrt(eps) * self.noise_increment(X, measure, dB)
        return out

    def drift_jacobian_apply(self, X: np.ndarray, Y: np.ndarray, measure) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if self._drift_jacobian_apply is None:
            return np.zeros_like(Y)
        return np.asarray(self._drift_jacobian_apply(X, Y, *_as_measure(measure)), dtype=float)

    def vtilde_y_apply(self, X: np.ndarray, base: np.ndarray, tangents: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._vtilde_y_apply is None:
            return np.zeros((X.shape[0], self._dim))
        base = np.atleast_2d(np.asarray(base, dtype=float))
        tangents = np.atleast_2d(np.asarray(tangents, dtype=float))
        return np.asarray(self._vtilde_y_apply(X, base, tangents), dtype=float)

    # Network-only surface.

    def _reject(self, op: str):
        raise CoefficientError(f"{op} requires network mode coefficients")

    def potential(self, x):
        self._reject("potential")

    def kernel(self, x, y):
        self._reject("kernel")

    def grad_potential(self, x):
        self._reject("grad_potential")

    def grad_kernel_x(self, x, y):
        self._reject("grad_kernel_x")

    def loss(self, params):
        self._reject("loss")

    def loss_kernel_form(self, params):
        self._reject("loss_kernel_form")
