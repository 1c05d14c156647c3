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
    """Scalar activation with exact first and second derivatives.

    ``jet(z, order)`` evaluates it once at the pre-activations z and returns
    (phi, phi', phi'') cut after the ``order``-th derivative.
    """

    name: str
    jet: Callable[[np.ndarray, int], tuple[np.ndarray, ...]]
    unbounded_derivative: bool = False


def _tanh_jet(z, order):
    t = np.tanh(z)
    if order == 0:
        return (t,)
    d1 = 1.0 - t * t
    return (t, d1) if order == 1 else (t, d1, -2.0 * t * d1)


def _sigmoid_jet(z, order):
    s = 1.0 / (1.0 + np.exp(-z))
    if order == 0:
        return (s,)
    d1 = s * (1.0 - s)
    return (s, d1) if order == 1 else (s, d1, d1 * (1.0 - 2.0 * s))


def _softplus_jet(z, order):
    # numerically stable log(1 + e^z); its derivatives are the sigmoid's jet
    value = np.logaddexp(0.0, z)
    return (value, *_sigmoid_jet(z, order - 1)) if order else (value,)


def _identity_jet(z, order):
    z = np.asarray(z, dtype=float)
    return (z, np.ones_like(z), np.zeros_like(z))[: order + 1]


ACTIVATIONS: dict[str, Activation] = {
    "tanh": Activation("tanh", _tanh_jet),
    "sigmoid": Activation("sigmoid", _sigmoid_jet),
    # softplus, a smooth stand-in for relu
    "smoothed-relu": Activation("smoothed-relu", _softplus_jet),
    "identity": Activation("identity", _identity_jet, unbounded_derivative=True),
}


def pack_param(c: float, u: Sequence[float]) -> np.ndarray:
    """Pack (output weight, input weights) into one parameter vector."""
    return np.concatenate([[float(c)], np.atleast_1d(np.asarray(u, dtype=float))])


class NetworkCoefficients:
    """Coefficients derived from a shallow network and a finite data measure.

    Parameters are packed as ``x = (c, u)`` with ``d = n0 + 1``.  A bias b
    is the input weight of a constant data coordinate: atoms (theta, 1) give
    Phi = c phi(u . theta + b) with ``x = (c, u, b)``.
    """

    mode = "network"

    def __init__(
        self,
        dataset: Dataset,
        activation: Activation | str = "tanh",
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
        self._theta = dataset.atoms          # (P, n0)
        self._w = dataset.weights            # (P,)
        self._f = dataset.labels             # (P,)
        self._sqrt_w = np.sqrt(self._w)

    # --- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.dataset.input_dim + 1

    @property
    def n_channels(self) -> int:
        return self.dataset.n_atoms

    @property
    def channel_weights(self) -> np.ndarray:
        return self._w

    def _split(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.dim:
            raise CoefficientError(
                f"parameter dimension {X.shape[-1]} != expected {self.dim}"
            )
        return X[..., 0], X[..., 1:]

    def _preactivation(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Output weights c (..., N) and pre-activations u . theta_p (..., N, P)."""
        c, u = self._split(X)
        return c, u @ self._theta.T

    def _assemble(self, row_c: np.ndarray, row_u: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """sum_p kappa_p (row_c, row_u theta_p) in (c, u) components.

        With row_c = phi and row_u = c phi' this is sum_p kappa_p grad Phi;
        with the Hessian rows of ``drift_jacobian_apply`` it is the jacobian.
        Rows (..., N, P) may lead with a run axis, with one kappa (..., P) per
        run: each run's sums are the stacked slices of the same products.
        Rows (T, P) of a segmented batch take one kappa row per particle.
        """
        out = np.empty(row_c.shape[:-1] + (self.dim,))
        if kappa.ndim == row_c.ndim:
            out[:, 0] = np.einsum("tp,tp->t", row_c, kappa)
            out[:, 1:] = (row_u * kappa) @ self._theta
            return out
        out[..., 0] = (row_c @ kappa[..., None])[..., 0]
        out[..., 1:] = (row_u * kappa[..., None, :]) @ self._theta
        return out

    def _contract(self, X: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """sum_p kappa_p grad Phi(x_i, theta_p); shape (..., N, d).

        Every step is this one contraction with its own per-channel weight:
        the drift has kappa = w r, the common noise r (sqrt(w) dB - w
        <sqrt(w), dB>), a mini-batch SGD step (alpha / B) count r.
        """
        c, z = self._preactivation(X)
        phi, dphi = self.activation.jet(z, 1)
        return self._assemble(phi, c[..., None] * dphi, kappa)

    def sgd_step(self, X: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """X + sum_p scale_p r_p grad Phi(x_i, theta_p), r the residuals at
        the uniform measure on the N rows of X; one jet serves both (a
        mini-batch SGD step has scale_p = (alpha / B) count_p)."""
        c, z = self._preactivation(X)
        phi, dphi = self.activation.jet(z, 1)
        r = self._f - np.full(X.shape[0], 1.0 / X.shape[0]) @ (c[:, None] * phi)
        return X + self._assemble(phi, c[:, None] * dphi, scale * r)

    def _noise_kappa(self, dB: np.ndarray) -> np.ndarray:
        """Per-channel weight of the common noise before the residual factor:
        sqrt(w_p) dB_p - w_p <sqrt(w), dB>, from G = r grad Phi - V."""
        return self._sqrt_w * dB - self._w * float(self._sqrt_w @ dB)

    def _step_kappa(self, dt: float, eps: Sequence[float], dB: np.ndarray | None) -> np.ndarray:
        """w_p dt + sqrt(eps) (sqrt(w_p) dB_p - w_p <sqrt(w), dB>), one row per
        noise scale of ``eps``; a run at eps = 0 keeps w dt and reads no noise."""
        base, noise, rows = self._w * dt, None, []
        for e in eps:
            if e > 0.0:
                noise = self._noise_kappa(dB) if noise is None else noise
                rows.append(base + np.sqrt(e) * noise)
            else:
                rows.append(base)
        return np.array(rows)

    # --- features ----------------------------------------------------------

    def feature_matrix(self, X: np.ndarray) -> np.ndarray:
        """Phi(x_i, theta_p) for a batch of parameters; shape (N, P)."""
        c, z = self._preactivation(X)
        return c[:, None] * self.activation.jet(z, 0)[0]

    def grad_feature_matrix(self, X: np.ndarray) -> np.ndarray:
        """grad_x Phi(x_i, theta_p); shape (N, P, d)."""
        c, z = self._preactivation(X)
        phi, dphi = self.activation.jet(z, 1)
        N, P = z.shape
        out = np.empty((N, P, self.dim))
        out[:, :, 0] = phi
        out[:, :, 1:] = (c[:, None] * dphi)[:, :, None] * self._theta[None, :, :]
        return out

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
        """One Euler-Maruyama increment V dt + sqrt(eps) sum_p G_p sqrt(w_p) dB_p
        in the environment ``measure`` (a frozen measure path reads it).

        Drift and noise fold into one contraction with
        kappa_p = r_p (w_p dt + sqrt(eps) (sqrt(w_p) dB_p - w_p <sqrt(w), dB>));
        ``dB`` is only read when eps > 0.
        """
        kappa = self._step_kappa(dt, [eps], dB)[0]
        return self._contract(X, self.residuals(measure) * kappa)

    def coupled_step(self, X: np.ndarray, weights: np.ndarray, dt: float, eps: Sequence[float],
                     dB: np.ndarray | None, Y: np.ndarray | None = None,
                     offsets: np.ndarray | None = None):
        """One Euler-Maruyama step of B coupled runs; returns the new X (and Y).

        The runs form a segmented batch: ``X`` (T, d) concatenates them on the
        particle axis, run b on rows ``offsets[b]:offsets[b + 1]`` (B + 1
        offsets, the last T), each on its own particle ``weights`` (T,) and
        its own environment, at the B noise scales ``eps``, all driven by the
        one row ``dB`` (read only where eps > 0).  Run b moves by the
        ``increment`` in its own measure; one pre-activation and one jet serve
        the residuals and the contraction of every run.  Its residuals are a segment sum
        (``np.add.reduceat``) and each particle's kappa is its run's row, so
        a run agrees with its own step to rounding: the segment sums
        reassociate its dot products, which moves it by at most 1e-15 of its
        largest coordinate per step.

        Runs of one size N on one weight vector come as the (B, N, d)
        reshape of the same arrays, on ``weights`` (N,) and without
        ``offsets``: their sums are then per-run matmuls, in the order of the
        one-run step, and every run is its own step bit for bit.

        With tangent vectors ``Y`` (N, d) the last run must be the transport
        run (eps 0): Y moves by (grad_x V . Y + (1/N) sum_j grad_y Vtilde . Y_j)
        dt + sum_p G_p sqrt(w_p) dB_p, read at that run from the same jet,
        here of order 2.
        """
        c, z = self._preactivation(X)
        jet = self.activation.jet(z, 1 if Y is None else 2)
        phi, dphi = jet[0], jet[1]
        row_u = c[..., None] * dphi
        kappa = self._step_kappa(dt, eps, dB)
        if offsets is None:
            r = self._f - weights @ (c[..., None] * phi)    # (B, P) residuals
            kappa, last = r * kappa, -1
        else:
            r = self._f - np.add.reduceat((weights * c)[:, None] * phi, offsets[:-1])
            kappa = np.repeat(r * kappa, offsets[1:] - offsets[:-1], axis=0)
            last = slice(offsets[-2], None)
        newX = X + self._assemble(phi, row_u, kappa)
        if Y is None:
            return newX
        c, phi, dphi, d2phi, r, row_u = c[last], phi[last], dphi[last], jet[2][last], r[-1], row_u[last]
        yc, s = self._preactivation(Y)
        jac = self._jacobian(c, dphi, d2phi, yc, s, r)
        inter = self._assemble(phi, row_u, -self._w * self._beta(c, phi, dphi, yc, s))
        forcing = self._assemble(phi, row_u, r * self._noise_kappa(dB))
        return newX, Y + (jac + inter) * dt + forcing

    def weak_pairings(self, X: np.ndarray, weights: np.ndarray, grads: np.ndarray,
                      hess: np.ndarray | None = None):
        """The pairings of a test-function panel with the coefficients on S snapshots.

        ``X`` (S, N, d) holds the snapshots on the particle ``weights`` (N,),
        each its own environment mu_s; ``grads`` (F, S, N, d) and ``hess``
        (F, S, N, d, d) are the panel's derivatives at those points.  Returns
        the drift pairings <grad phi . V, mu_s> (S, F) and, with ``hess``, the
        channel pairings <grad phi . G_p, mu_s> (S, F, P) and the Ito pairings
        <D2 phi : A, mu_s> (S, F) (else None and None).

        One jet on the (S, N, P) rows serves all three.  With
        q_p = r_p <grad phi . grad Phi_p, mu_s>, the drift is sum_p w_p q_p and
        the channels are q_p minus it (G_p = r_p grad Phi_p - V).
        A = sum_p w_p r_p^2 grad Phi_p grad Phi_p^T - V V^T is assembled from
        the rows as matmuls against theta; no (., P, d) tensor is built.
        """
        c, z = self._preactivation(X)
        phi, dphi = self.activation.jet(z, 1)
        r = self._f - weights @ (c[..., None] * phi)       # (S, P) residuals
        row_u = c[..., None] * dphi
        # <grad phi . grad Phi_p, mu_s>: the c-component against phi, the
        # u-components against row_u, then theta_p
        pair_c = np.matmul(grads[..., 0].transpose(1, 0, 2), weights[:, None] * phi)
        pair_u = np.matmul(grads[..., 1:].transpose(1, 0, 3, 2), (weights[:, None] * row_u)[:, None])
        q = r[:, None, :] * (pair_c + (pair_u * self._theta.T).sum(-2))     # (S, F, P)
        drift = q @ self._w
        if hess is None:
            return drift, None, None
        rho = (self._w * r * r)[..., None]                 # w_p r_p^2, (S, P, 1)
        outer = (self._theta[:, :, None] * self._theta[:, None, :]).reshape(self.n_channels, -1)
        V = self._assemble(phi, row_u, self._w * r)        # (S, N, d)
        A = -V[..., :, None] * V[..., None, :]
        A[..., 0, 0] += ((phi * phi) @ rho)[..., 0]
        cross = (phi * row_u) @ (rho * self._theta)
        A[..., 0, 1:] += cross
        A[..., 1:, 0] += cross
        A[..., 1:, 1:] += ((row_u * row_u) @ (rho * outer)).reshape(A[..., 1:, 1:].shape)
        S, N, d = X.shape
        ito = np.einsum("fsk,sk->sf", hess.reshape(-1, S, N * d * d),
                        (weights[:, None, None] * A).reshape(S, -1))
        return drift, q - drift[..., None], ito

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

    # --- derivatives used by the tangent (fluctuation) system ---------------

    def drift_jacobian_apply(self, X: np.ndarray, Y: np.ndarray, measure) -> np.ndarray:
        """grad_x V(x_i, mu) . Y_i, with mu held fixed (includes Vbar and Vtilde parts)."""
        c, z = self._preactivation(X)
        yc, s = self._preactivation(Y)
        _, dphi, d2phi = self.activation.jet(z, 2)
        return self._jacobian(c, dphi, d2phi, yc, s, self.residuals(measure))

    def _jacobian(self, c, dphi, d2phi, yc, s, r) -> np.ndarray:
        """sum_p w_p r_p D^2 Phi(x_i, theta_p) . Y_i from the jet at X and Y's
        (t_c, theta . t_u).

        D^2 Phi(x_i, theta_p) . Y_i has rank structure: with s = theta_p . Y_u
        its c-component is phi' s and its u-component is
        (phi' Y_c + c phi'' s) times theta_p, so the channel sum is
        an ``_assemble`` without (N, P, d, d) storage.
        """
        hu = dphi * yc[:, None] + c[:, None] * d2phi * s
        return self._assemble(dphi * s, hu, self._w * r)

    def vtilde_y_apply(self, X: np.ndarray, base: np.ndarray, tangents: np.ndarray) -> np.ndarray:
        """(1/N) sum_j grad_y Vtilde(x_i, base_j) . tangent_j; shape (N, d).

        grad_y Vtilde(x, y) = -sum_p w_p grad Phi(x, theta_p) (x) grad Phi(y, theta_p),
        so the pair sum factorizes through the data channels: a contraction
        with kappa_p = -w_p beta_p, beta_p = (1/N) sum_j grad Phi(base_j, theta_p) . tangent_j.
        """
        c, z = self._preactivation(base)
        tc, s = self._preactivation(tangents)   # t_c and theta . t_u
        phi, dphi = self.activation.jet(z, 1)
        return self._contract(X, -self._w * self._beta(c, phi, dphi, tc, s))

    @staticmethod
    def _beta(c, phi, dphi, tc, s) -> np.ndarray:
        """beta_p = (1/N) sum_j grad Phi(base_j, theta_p) . tangent_j from the jet at the base."""
        return (tc @ phi + np.einsum("j,jp,jp->p", c, dphi, s)) / phi.shape[0]

    # --- loss ----------------------------------------------------------------

    def loss(self, params: np.ndarray) -> float:
        """Empirical risk sum_p w_p |f_p - mean_i Phi(x_i, theta_p)|^2."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        if params.shape[0] == 0:
            raise CoefficientError("loss of an empty parameter list")
        preds = self.feature_matrix(params).mean(axis=0)
        return float(self._w @ (self._f - preds) ** 2)

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
    ``loss`` needs a network and is rejected.
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

    def coupled_step(self, X: np.ndarray, weights: np.ndarray, dt: float, eps: Sequence[float],
                     dB: np.ndarray | None, Y: np.ndarray | None = None,
                     offsets: np.ndarray | None = None):
        """``NetworkCoefficients.coupled_step`` through the hooks, one segment
        per run: ``v_bar_batch`` once on every particle of the batch, then
        ``v_tilde_mean_batch`` and ``g_batch`` once per run in its own
        environment.  A (B, N, d) batch is read as its (B N, d) reshape.
        With a pointwise ``v_bar_batch`` every run is its own ``increment``
        bit for bit."""
        shape = X.shape
        if offsets is None:
            B, N = shape[:2]
            X, weights, offsets = X.reshape(B * N, -1), np.tile(weights, B), range(0, B * N + 1, N)
        drift = np.zeros(X.shape)
        if self._v_bar_batch is not None:
            drift += np.asarray(self._v_bar_batch(X), dtype=float)
        newX = np.empty(X.shape)
        for b, e in enumerate(eps):
            rows = slice(offsets[b], offsets[b + 1])
            x, mu = X[rows], (X[rows], weights[rows])
            if self._v_tilde_mean_batch is not None:
                drift[rows] += np.asarray(self._v_tilde_mean_batch(x, *mu), dtype=float)
            step = drift[rows] * dt
            if e > 0.0:
                step = step + np.sqrt(e) * self.noise_increment(x, mu, dB)
            newX[rows] = x + step
        newX = newX.reshape(shape)
        if Y is None:
            return newX
        x = X[offsets[-2]:]
        mu = (x, weights[offsets[-2]:])
        jac = self.drift_jacobian_apply(x, Y, mu)
        inter = self.vtilde_y_apply(x, x, Y)
        return newX, Y + (jac + inter) * dt + self.noise_increment(x, mu, dB)

    def weak_pairings(self, X: np.ndarray, weights: np.ndarray, grads: np.ndarray,
                      hess: np.ndarray | None = None):
        """``NetworkCoefficients.weak_pairings`` one snapshot at a time through
        the hooks, the Ito term against A_i = sum_p w_p G_ip G_ip^T."""
        F, S, N, d = grads.shape
        drift, channels, ito = np.empty((S, F)), np.empty((S, F, self._n_channels)), np.empty((S, F))
        for s, x in enumerate(X):
            mu = (x, weights)
            drift[s] = grads[:, s].reshape(F, -1) @ (weights[:, None] * self.drift(x, mu)).reshape(-1)
            if hess is None:
                continue
            G = self.noise_matrix(x, mu)                                    # (N, P, d)
            wG = weights[:, None, None] * G
            channels[s] = np.tensordot(grads[:, s], wG, axes=([1, 2], [0, 2]))
            ito[s] = hess[:, s].reshape(F, -1) @ np.einsum("npk,p,npl->nkl", wG, self._weights, G).reshape(-1)
        return (drift, None, None) if hess is None else (drift, channels, ito)

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

    def loss(self, params):
        raise CoefficientError("loss requires network mode coefficients")
