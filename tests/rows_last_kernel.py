"""The network step kernel as it was on particle-major rows (..., N, P).

``RowsLastCoefficients`` is ``NetworkCoefficients`` with the methods whose
operation order the channel-first layout changed copied back verbatim:
the pre-activation, ``_assemble``, ``_contract``, the two feature matrices,
``predictions`` and ``residuals`` (through the feature matrix), ``sgd_step``,
``coupled_step``, ``weak_pairings``, ``_jacobian`` and ``_beta``.  It is the
oracle of the kernel that replaced them: that kernel only reassociates sums,
so it agrees with this one to 1e-13, and this one is, bit for bit, the
per-run steps it was checked against before.
"""

from typing import Sequence

import numpy as np

from meanfield_sgd.coefficients import NetworkCoefficients, _as_measure, _points


def rows_last(coeffs: NetworkCoefficients) -> "RowsLastCoefficients":
    """The network of ``coeffs`` on the particle-major kernel."""
    return RowsLastCoefficients(coeffs.dataset, coeffs.activation, allow_unbounded=True)


class RowsLastCoefficients(NetworkCoefficients):
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

    def predictions(self, measure) -> np.ndarray:
        """<Phi(., theta_p), mu> for every data atom; shape (P,)."""
        atoms, weights = _as_measure(measure, self.dim)
        return weights @ self.feature_matrix(atoms)

    def residuals(self, measure) -> np.ndarray:
        """f_p - <Phi(., theta_p), mu>; the per-data-atom fit residuals."""
        return self._f - self.predictions(measure)

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

    @staticmethod
    def _beta(c, phi, dphi, tc, s) -> np.ndarray:
        """beta_p = (1/N) sum_j grad Phi(base_j, theta_p) . tangent_j from the jet at the base,
        (..., P) from a jet (..., N, P) that may lead with a carrier axis."""
        return ((tc[..., None, :] @ phi)[..., 0, :]
                + np.einsum("...j,...jp,...jp->...p", c, dphi, s)) / phi.shape[-2]
