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
from functools import partial
from typing import Callable, Sequence

import numpy as np

from ._checks import WEIGHT_TOL, check_integer, check_vector, check_weights

__all__ = [
    "Dataset",
    "Activation",
    "ACTIVATIONS",
    "NetworkCoefficients",
    "SyntheticCoefficients",
    "CoefficientError",
]


class CoefficientError(ValueError):
    """Raised on invalid coefficient construction or misuse of a mode."""


def _as_measure(measure) -> tuple[np.ndarray, np.ndarray]:
    """Accept an EmpiricalMeasure / ParticleEnsemble / (atoms, weights) pair."""
    atoms, weights = measure if isinstance(measure, tuple) else (measure.atoms, measure.weights)
    return np.atleast_2d(np.asarray(atoms, dtype=float)), np.asarray(weights, dtype=float)


def _points(X, dim: int, name: str = "X") -> np.ndarray:
    """``X`` as float points (..., dim); points of another dimension raise
    CoefficientError naming ``name``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[-1] != dim:
        raise CoefficientError(f"{name} must be points of dimension {dim} (got {X.shape[-1]})")
    return X


def _zeros(X, *_) -> np.ndarray:
    """The hook of a term left out: zero at every point of ``X``."""
    return np.zeros(X.shape)


def _zero_channels(n_channels: int, X, *_) -> np.ndarray:
    """The noise hook left out: zero in every channel, (N, P, d)."""
    return np.zeros((X.shape[0], n_channels, X.shape[1]))


@dataclass(frozen=True)
class Dataset:
    """Finite data measure: atoms in R^{n0}, probability weights, real labels."""

    atoms: np.ndarray    # (P, n0)
    weights: np.ndarray  # (P,)
    labels: np.ndarray   # (P,)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if not (atoms.ndim == 2 and atoms.shape[0] and np.all(np.isfinite(atoms))):
            raise CoefficientError(f"atoms must be finite, a table of at least one row (got {self.atoms!r})")
        weights = check_weights("weights", self.weights, atoms.shape[0], CoefficientError)
        labels = check_vector("labels", self.labels, CoefficientError)
        if labels.size != atoms.shape[0]:
            raise CoefficientError(f"labels must be one per atom (got {labels.size} for {atoms.shape[0]})")
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
        try:
            rows = np.atleast_2d(np.asarray(rows, dtype=float))
        except (TypeError, ValueError, OverflowError):
            rows = np.empty(0)
        if not (rows.ndim == 2 and rows.shape[0] and rows.shape[1] >= 3):
            raise CoefficientError("rows must be a table of rows (theta.., weight, label) of numbers")
        atoms = rows[:, :-2]
        weights = rows[:, -2]
        labels = rows[:, -1]
        with np.errstate(over="ignore"):   # a sum that overflows is refused below
            total = weights.sum()
        if abs(total - 1.0) > WEIGHT_TOL:
            if 0.99 <= total <= 1.01:
                warnings.warn(f"data weights sum to {total:.6f}; renormalizing to 1", stacklevel=2)
                weights = weights / total
            else:
                raise CoefficientError(f"weights must sum to 1, or to within [0.99, 1.01] (got {float(total)!r})")
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

    def _preactivation(self, X: np.ndarray, name: str = "X") -> tuple[np.ndarray, np.ndarray]:
        """Output weights c (..., N) and pre-activations u . theta_p (..., N, P)
        of the points ``X``, refused naming ``name`` if of another dimension."""
        X = _points(X, self.dim, name)
        return X[..., 0], X[..., 1:] @ self._theta.T

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
        mini-batch SGD step has scale_p = (alpha / B) count_p).  X (..., N, d)
        may lead with a run axis, one scale row (..., P) per run: each run's
        sums are the stacked slices of the same products, so a run steps as
        it steps alone, bit for bit."""
        c, z = self._preactivation(X)
        phi, dphi = self.activation.jet(z, 1)
        r = self._f - np.full(X.shape[-2], 1.0 / X.shape[-2]) @ (c[..., None] * phi)
        return X + self._assemble(phi, c[..., None] * dphi, scale * r)

    def _noise_kappa(self, dB: np.ndarray) -> np.ndarray:
        """Per-channel weight of the common noise before the residual factor:
        sqrt(w_p) dB_p - w_p <sqrt(w), dB>, from G = r grad Phi - V, for
        increment rows (B, P), one per run.  The rows' dot products are one
        stacked (1, P) @ (P, 1) product, which rounds each row as it rounds
        alone (``dB @ sqrt_w`` and its sum and einsum forms do not)."""
        return self._sqrt_w * dB - self._w * (dB[..., None, :] @ self._sqrt_w[:, None])[..., 0]

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
        kappa = self._w * dt
        if eps > 0.0:
            kappa = kappa + np.sqrt(eps) * self._noise_kappa(dB[None])[0]
        return self._contract(X, self.residuals(measure) * kappa)

    def coupled_step(self, X: np.ndarray, weights: np.ndarray, dt: float, eps: Sequence[float],
                     dB: np.ndarray, Y: np.ndarray | None = None, offsets: np.ndarray | None = None,
                     carriers: Sequence[int] = ()):
        """One Euler-Maruyama step of B coupled runs; returns the new X (and Y).

        The runs form a segmented batch: ``X`` (T, d) concatenates them on the
        particle axis, run b on rows ``offsets[b]:offsets[b + 1]`` (B + 1
        offsets, the last T), each on its own particle ``weights`` (T,) and
        its own environment, at the B noise scales ``eps``, run b driven by
        its own increment row ``dB[b]`` of ``dB`` (B, P) (zeros for a run
        that reads no path).  Run b moves by the ``increment`` in its own
        measure, with kappa = w dt + sqrt(eps_b) noise_b, which is w dt bit
        for bit at eps 0; one pre-activation and one jet serve the residuals
        and the contraction of every run.  Its residuals are a segment sum
        (``np.add.reduceat``) and each particle's kappa is its run's row, so
        a run agrees with its own step to rounding: the segment sums
        reassociate its dot products, which moves it by at most 1e-15 of its
        largest coordinate per step.

        Runs of one size N on one weight vector come as the (B, N, d)
        reshape of the same arrays, on ``weights`` (N,) and without
        ``offsets``: their sums are then per-run matmuls, in the order of the
        one-run step, and every run is its own step bit for bit.

        With tangent vectors ``Y`` (K, N, d) the K runs ``carriers`` must be
        transport runs (eps 0) of N particles: Y_k moves by
        (grad_x V . Y_k + (1/N) sum_j grad_y Vtilde . Y_kj) dt +
        sum_p G_p sqrt(w_p) dB_p, read at carrier k from the same jet, here of
        order 2, on the carrier's own residuals and increment row.  The
        carriers' terms are stacked (K, ...) products, each carrier's slice
        the one-carrier product bit for bit.
        """
        c, z = self._preactivation(X)
        jet = self.activation.jet(z, 1 if Y is None else 2)
        phi, dphi = jet[0], jet[1]
        row_u = c[..., None] * dphi
        noise = self._noise_kappa(dB)
        kappa = self._w * dt + np.sqrt(eps)[:, None] * noise
        if offsets is None:
            r = self._f - weights @ (c[..., None] * phi)    # (B, P) residuals
            kappa = r * kappa
        else:
            r = self._f - np.add.reduceat((weights * c)[:, None] * phi, offsets[:-1])
            kappa = np.repeat(r * kappa, offsets[1:] - offsets[:-1], axis=0)
        newX = X + self._assemble(phi, row_u, kappa)
        if Y is None:
            return newX
        carriers = list(carriers)
        # each carrier's rows of the batch, (K, N) leading axes
        rows = carriers if offsets is None else offsets[carriers][:, None] + np.arange(Y.shape[1])
        c, phi, dphi, d2phi, row_u = c[rows], phi[rows], dphi[rows], jet[2][rows], row_u[rows]
        r = r[carriers]
        yc, s = self._preactivation(Y, "Y")
        jac = self._jacobian(c, dphi, d2phi, yc, s, r)
        inter = self._assemble(phi, row_u, -self._w * self._beta(c, phi, dphi, yc, s))
        forcing = self._assemble(phi, row_u, r * noise[carriers])
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
        return self._contract(X, self.residuals(measure) * self._noise_kappa(dB[None])[0])

    # --- derivatives used by the tangent (fluctuation) system ---------------

    def drift_jacobian_apply(self, X: np.ndarray, Y: np.ndarray, measure) -> np.ndarray:
        """grad_x V(x_i, mu) . Y_i, with mu held fixed (includes Vbar and Vtilde parts)."""
        c, z = self._preactivation(X)
        yc, s = self._preactivation(Y, "Y")
        _, dphi, d2phi = self.activation.jet(z, 2)
        return self._jacobian(c, dphi, d2phi, yc, s, self.residuals(measure))

    def _jacobian(self, c, dphi, d2phi, yc, s, r) -> np.ndarray:
        """sum_p w_p r_p D^2 Phi(x_i, theta_p) . Y_i from the jet at X and Y's
        (t_c, theta . t_u).

        D^2 Phi(x_i, theta_p) . Y_i has rank structure: with s = theta_p . Y_u
        its c-component is phi' s and its u-component is
        (phi' Y_c + c phi'' s) times theta_p, so the channel sum is
        an ``_assemble`` without (N, P, d, d) storage.  The jet (..., N, P)
        may lead with a carrier axis, one residual row r (..., P) per carrier.
        """
        hu = dphi * yc[..., None] + c[..., None] * d2phi * s
        return self._assemble(dphi * s, hu, self._w * r)

    def vtilde_y_apply(self, X: np.ndarray, base: np.ndarray, tangents: np.ndarray) -> np.ndarray:
        """(1/N) sum_j grad_y Vtilde(x_i, base_j) . tangent_j; shape (N, d).

        grad_y Vtilde(x, y) = -sum_p w_p grad Phi(x, theta_p) (x) grad Phi(y, theta_p),
        so the pair sum factorizes through the data channels: a contraction
        with kappa_p = -w_p beta_p, beta_p = (1/N) sum_j grad Phi(base_j, theta_p) . tangent_j.
        """
        c, z = self._preactivation(base, "base")
        tc, s = self._preactivation(tangents, "tangents")   # t_c and theta . t_u
        phi, dphi = self.activation.jet(z, 1)
        return self._contract(X, -self._w * self._beta(c, phi, dphi, tc, s))

    @staticmethod
    def _beta(c, phi, dphi, tc, s) -> np.ndarray:
        """beta_p = (1/N) sum_j grad Phi(base_j, theta_p) . tangent_j from the jet at the base,
        (..., P) from a jet (..., N, P) that may lead with a carrier axis."""
        return ((tc[..., None, :] @ phi)[..., 0, :]
                + np.einsum("...j,...jp,...jp->...p", c, dphi, s)) / phi.shape[-2]

    # --- loss ----------------------------------------------------------------

    def loss(self, params: np.ndarray) -> float:
        """Empirical risk sum_p w_p |f_p - mean_i Phi(x_i, theta_p)|^2."""
        params = np.atleast_2d(np.asarray(params, dtype=float))
        if params.shape[0] == 0:
            raise CoefficientError("params must be at least one parameter point")
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
      centered under the channel weights: that is the caller's contract,
      and nothing checks it;
    * ``drift_jacobian_apply(X, Y, atoms, weights)`` -- grad_x V(x_i, mu) . Y_i
      with mu held fixed, (N, d);
    * ``vtilde_y_apply(X, base, tangents)`` -- (1/N) sum_j
      grad_y Vtilde(x_i, base_j) . tangent_j, (N, d).

    The last two are the linearisations the tangent system needs.  The
    public methods check their points (of dimension ``dim``, or
    CoefficientError) and turn the measure into (atoms, weights); the step
    and the pairings hand the hooks each run's arrays as they are.
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
        self._dim = check_integer("dim", dim, 1)
        self._n_channels = check_integer("n_channels", n_channels, 1)
        if channel_weights is None:
            channel_weights = np.full(self._n_channels, 1.0 / self._n_channels)
        self._weights = check_weights("channel_weights", channel_weights, self._n_channels, CoefficientError)
        self._sqrt_w = np.sqrt(self._weights)
        self._v_bar_batch = v_bar_batch or _zeros
        self._v_tilde_mean_batch = v_tilde_mean_batch or _zeros
        self._g_batch = g_batch or partial(_zero_channels, self._n_channels)
        self._drift_jacobian_apply = drift_jacobian_apply or _zeros
        self._vtilde_y_apply = vtilde_y_apply or _zeros

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def n_channels(self) -> int:
        return self._n_channels

    @property
    def channel_weights(self) -> np.ndarray:
        return self._weights

    # --- array evaluators: points X (N, d) in the environment (atoms, weights)

    def _drift(self, X, atoms, weights) -> np.ndarray:
        return np.add(self._v_bar_batch(X), self._v_tilde_mean_batch(X, atoms, weights), dtype=float)

    def _noise_matrix(self, X, atoms, weights) -> np.ndarray:
        return np.asarray(self._g_batch(X, atoms, weights), dtype=float)

    def _noise_increment(self, X, atoms, weights, dB) -> np.ndarray:
        return np.einsum("npd,p->nd", self._noise_matrix(X, atoms, weights), self._sqrt_w * dB)

    def _increment(self, X, atoms, weights, dt, eps, dB) -> np.ndarray:
        out = self._drift(X, atoms, weights) * dt
        if eps > 0.0:
            out = out + np.sqrt(eps) * self._noise_increment(X, atoms, weights, dB)
        return out

    # --- point methods -------------------------------------------------------

    def drift(self, X: np.ndarray, measure) -> np.ndarray:
        return self._drift(_points(X, self._dim), *_as_measure(measure))

    def noise_matrix(self, X: np.ndarray, measure) -> np.ndarray:
        return self._noise_matrix(_points(X, self._dim), *_as_measure(measure))

    def noise_increment(self, X: np.ndarray, measure, dB: np.ndarray) -> np.ndarray:
        return self._noise_increment(_points(X, self._dim), *_as_measure(measure), dB)

    def increment(self, X: np.ndarray, measure, dt: float, eps: float,
                  dB: np.ndarray | None) -> np.ndarray:
        """One Euler-Maruyama increment V dt + sqrt(eps) sum_p G_p sqrt(w_p) dB_p."""
        return self._increment(_points(X, self._dim), *_as_measure(measure), dt, eps, dB)

    def drift_jacobian_apply(self, X: np.ndarray, Y: np.ndarray, measure) -> np.ndarray:
        return np.asarray(self._drift_jacobian_apply(_points(X, self._dim), _points(Y, self._dim, "Y"),
                                                     *_as_measure(measure)), dtype=float)

    def vtilde_y_apply(self, X: np.ndarray, base: np.ndarray, tangents: np.ndarray) -> np.ndarray:
        return np.asarray(self._vtilde_y_apply(*(_points(a, self._dim, name) for a, name in
                                                 ((X, "X"), (base, "base"), (tangents, "tangents")))),
                          dtype=float)

    def coupled_step(self, X: np.ndarray, weights: np.ndarray, dt: float, eps: Sequence[float],
                     dB: np.ndarray, Y: np.ndarray | None = None, offsets: np.ndarray | None = None,
                     carriers: Sequence[int] = ()):
        """``NetworkCoefficients.coupled_step`` through the hooks: run b
        moves by its own increment in its own environment, on its own
        increment row ``dB[b]``, and so does the tangent of each carrier, so
        every run is its own step bit for bit.  A (B, N, d) batch is read as
        its (B N, d) reshape."""
        shape = X.shape
        if offsets is None:
            B, N = shape[:2]
            X, weights, offsets = X.reshape(B * N, -1), np.tile(weights, B), range(0, B * N + 1, N)
        newX = np.empty(X.shape)
        for b, e in enumerate(eps):
            rows = slice(offsets[b], offsets[b + 1])
            x = X[rows]
            newX[rows] = x + self._increment(x, x, weights[rows], dt, e, dB[b])
        newX = newX.reshape(shape)
        if Y is None:
            return newX
        newY = np.empty(Y.shape)
        for k, b in enumerate(carriers):
            rows = slice(offsets[b], offsets[b + 1])
            x, w = X[rows], weights[rows]
            jac, inter = self._drift_jacobian_apply(x, Y[k], x, w), self._vtilde_y_apply(x, x, Y[k])
            newY[k] = Y[k] + np.add(jac, inter, dtype=float) * dt + self._noise_increment(x, x, w, dB[b])
        return newX, newY

    def weak_pairings(self, X: np.ndarray, weights: np.ndarray, grads: np.ndarray,
                      hess: np.ndarray | None = None):
        """``NetworkCoefficients.weak_pairings`` one snapshot at a time through
        the hooks, the Ito term against A_i = sum_p w_p G_ip G_ip^T."""
        F, S, N, d = grads.shape
        drift, channels, ito = np.empty((S, F)), np.empty((S, F, self._n_channels)), np.empty((S, F))
        for s, x in enumerate(X):
            drift[s] = grads[:, s].reshape(F, -1) @ (weights[:, None] * self._drift(x, x, weights)).reshape(-1)
            if hess is None:
                continue
            G = self._noise_matrix(x, x, weights)                           # (N, P, d)
            wG = weights[:, None, None] * G
            channels[s] = np.tensordot(grads[:, s], wG, axes=([1, 2], [0, 2]))
            ito[s] = hess[:, s].reshape(F, -1) @ np.einsum("npk,p,npl->nkl", wG, self._weights, G).reshape(-1)
        return (drift, None, None) if hess is None else (drift, channels, ito)

    def loss(self, params):
        raise CoefficientError("loss requires network mode coefficients")
