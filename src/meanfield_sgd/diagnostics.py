"""Falsifiable checks of the structural identities on recorded trajectories.

Every diagnostic is a pure function of recorded artifacts (a trajectory plus
noise metadata); nothing here re-simulates.  Quadrature is left-point (Ito)
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.spatial.distance import pdist

from .dynamics import NoisePath, Trajectory
from .measures import EmpiricalMeasure

__all__ = [
    "TestFunction",
    "standard_panel",
    "smfe_weak_residual",
    "smfe_weak_residual_panel",
    "qv_check",
    "qv_check_panel",
    "f_n_functional",
    "min_pairwise_distance",
    "moment_track",
    "BudgetExceeded",
    "write_report",
]


class BudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class TestFunction:
    """Smooth test function with exact gradient and Hessian, batch-evaluated.

    ``jet(X, order)`` evaluates the function once at the points X (N, d) and
    returns the tuple (value (N,), grad (N, d), hess (N, d, d)) cut after the
    ``order``-th derivative; ``value``, ``grad`` and ``hess`` each read one
    entry of it.
    """

    name: str
    jet: Callable[[np.ndarray, int], tuple[np.ndarray, ...]]
    bounded: bool = True

    def value(self, X: np.ndarray) -> np.ndarray:
        return self.jet(X, 0)[0]

    def grad(self, X: np.ndarray) -> np.ndarray:
        return self.jet(X, 1)[1]

    def hess(self, X: np.ndarray) -> np.ndarray:
        return self.jet(X, 2)[2]


def _jet(order: int, value: np.ndarray, *derivatives: Callable[[], np.ndarray]) -> tuple:
    """The value, then the first ``order`` derivatives; each derivative is a
    closure over what the jet computed for the value, called only if asked."""
    return (value, *(d() for d in derivatives[:order]))


def _zero_hess(X: np.ndarray) -> np.ndarray:
    return np.zeros((X.shape[0], X.shape[1], X.shape[1]))


def _constant(d: int) -> TestFunction:
    def jet(X, order):
        return _jet(order, np.ones(X.shape[0]), lambda: np.zeros_like(X), lambda: _zero_hess(X))

    return TestFunction("const", jet)


def _coordinate(k: int, d: int) -> TestFunction:
    def grad(X):
        g = np.zeros_like(X)
        g[:, k] = 1.0
        return g

    def jet(X, order):
        return _jet(order, X[:, k].copy(), lambda: grad(X), lambda: _zero_hess(X))

    return TestFunction(f"x{k + 1}", jet, bounded=False)


def _product(k: int, l: int, d: int) -> TestFunction:
    def grad(X):
        g = np.zeros_like(X)
        g[:, k] += X[:, l]
        g[:, l] += X[:, k]
        return g

    def hess(X):
        h = _zero_hess(X)
        h[:, k, l] += 1.0
        h[:, l, k] += 1.0
        return h

    def jet(X, order):
        return _jet(order, X[:, k] * X[:, l], lambda: grad(X), lambda: hess(X))

    return TestFunction(f"x{k + 1}x{l + 1}", jet, bounded=False)


def gaussian_bump(center: Sequence[float], width: float, name: str | None = None) -> TestFunction:
    """exp(-|x - c|^2 / (2 s^2)) with exact derivatives."""
    c = np.asarray(center, dtype=float)
    s2 = float(width) ** 2

    def jet(X, order):
        diff = X - c
        v = np.exp(-np.einsum("nd,nd->n", diff, diff) / (2 * s2))

        def hess():
            outer = np.einsum("ni,nj->nij", diff, diff) / s2**2
            return v[:, None, None] * (outer - np.eye(c.size)[None, :, :] / s2)

        return _jet(order, v, lambda: -v[:, None] * diff / s2, hess)

    return TestFunction(name or f"bump({','.join(f'{x:g}' for x in c)};{width:g})", jet)


def trig_wave(freq: Sequence[int], phase: str = "sin", name: str | None = None) -> TestFunction:
    """sin/cos(k . x) for an integer frequency vector with |k_j| <= 3."""
    k = np.asarray(freq, dtype=float)
    if np.max(np.abs(k)) > 3:
        raise ValueError("trig wave frequency must be <= 3 per axis")
    if phase not in ("sin", "cos"):
        raise ValueError(f"phase must be 'sin' or 'cos' (got {phase!r})")
    fn, dfn = (np.sin, np.cos) if phase == "sin" else (np.cos, lambda z: -np.sin(z))

    def jet(X, order):
        z = X @ k
        v = fn(z)
        return _jet(order, v, lambda: dfn(z)[:, None] * k[None, :],
                    lambda: -v[:, None, None] * np.einsum("i,j->ij", k, k)[None, :, :])

    return TestFunction(name or f"{phase}({','.join(f'{x:g}' for x in k)})", jet)


def standard_panel(d: int, include_unbounded: bool = True) -> list[TestFunction]:
    """Constant, coordinates, one quadratic, two bumps and two waves."""
    panel = [_constant(d)]
    if include_unbounded:
        panel.extend(_coordinate(k, d) for k in range(d))
        panel.append(_product(0, min(1, d - 1), d))
    panel.append(gaussian_bump(np.zeros(d), 1.0, name="bump0"))
    panel.append(gaussian_bump(np.full(d, 0.5), 0.75, name="bump1"))
    panel.append(trig_wave([1] * d, "sin"))
    panel.append(trig_wave([2] + [1] * (d - 1), "cos"))
    return panel


# --------------------------------------------------------------------------
# stacked panel: every test function's pairings through one contraction
# --------------------------------------------------------------------------


def stack_panel(phis: Sequence[TestFunction], X: np.ndarray,
                order: int) -> tuple[np.ndarray, ...]:
    """The stacked jet of a panel at the points X: values (F, N), then up to
    ``order`` gradients (F, N, d) and Hessians (F, N, d, d), from one jet
    call per panel member."""
    return tuple(map(np.stack, zip(*(phi.jet(X, order) for phi in phis))))


def pair_panel(stack: np.ndarray, field: np.ndarray) -> np.ndarray:
    """One value per panel member: the sum over points of grad phi . v for an
    (N, d) field v, or of D2 phi : M for an (N, d, d) field M; one matmul."""
    return stack.reshape(stack.shape[0], -1) @ field.reshape(-1)


def _step_pairings(coeffs, X: np.ndarray, omega: np.ndarray, eps: float,
                   phis: Sequence[TestFunction]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The weak-form pairings of a whole panel at one step, mu_s = (X, omega).

    Returns <phi, mu_s> of every member, shape (F,), its drift
    <grad phi . V, mu_s> + (eps/2) <D2 phi : A, mu_s>, shape (F,), and for
    eps > 0 the channel pairings <grad phi . G_p, mu_s>, shape (F, P) (None at
    eps = 0), all from one panel jet.  The Ito term uses
    A_i = sum_p w_p G_ip G_ip^T, formed once per step, so every pairing is one
    matmul over the stacked panel.
    """
    mu = (X, omega)
    values, grads, *hess = stack_panel(phis, X, 2 if eps > 0.0 else 1)
    drift = pair_panel(grads, omega[:, None] * coeffs.drift(X, mu))
    if eps == 0.0:
        return values @ omega, drift, None
    G = coeffs.noise_matrix(X, mu)                                 # (N, P, d)
    scaled = G * np.sqrt(coeffs.channel_weights)[None, :, None]
    A = np.matmul(scaled.transpose(0, 2, 1), scaled)              # (N, d, d)
    drift = drift + 0.5 * eps * pair_panel(hess[0], omega[:, None, None] * A)
    channels = np.tensordot(grads, omega[:, None, None] * G, axes=([1, 2], [0, 2]))
    return values @ omega, drift, channels


# --------------------------------------------------------------------------
# weak-form residual of the stochastic mean-field equation
# --------------------------------------------------------------------------


def smfe_weak_residual_panel(traj: Trajectory, noise: NoisePath | None, coeffs,
                             eps: float, panel: Iterable[TestFunction]) -> dict:
    """Weak-form residuals for a whole panel, sharing per-step coefficients.

    R(phi) = <phi, mu_T> - <phi, mu_0>
             - sum_s [ <grad phi . V(., mu_s), mu_s> + (eps/2) <D2 phi : A(., mu_s), mu_s> ] dt
             - sqrt(eps) sum_s sum_p <grad phi . G(., mu_s, theta_p), mu_s> sqrt(w_p) dB_p.

    ``eps`` must be the noise scale the trajectory was run at.  Each member's
    jet runs once per snapshot: <phi, mu_0> comes with step 0's derivatives.
    """
    if not traj.is_full_resolution:
        raise ValueError("weak residual needs a full-resolution trajectory")
    if eps != traj.eps:
        raise ValueError(f"eps={eps!r} does not match the trajectory's eps={traj.eps!r}")
    if eps > 0.0:
        if noise is None or traj.noise_meta != noise.meta:
            raise ValueError("noise does not match the trajectory provenance")
    phis = list(panel)
    omega = traj.weights
    sqrt_w = np.sqrt(coeffs.channel_weights)
    integral = np.zeros(len(phis))
    # <phi, mu_T>; <phi, mu_0> comes with step 0, or is <phi, mu_T> on a run of no steps
    end = start = stack_panel(phis, traj.positions[-1], 0)[0] @ omega
    for s in range(traj.n_snapshots - 1):
        values, drift, channels = _step_pairings(coeffs, traj.positions[s], omega, eps, phis)
        start = values if s == 0 else start
        integral += drift * traj.dt
        if channels is not None:
            integral += np.sqrt(eps) * (channels @ (sqrt_w * noise.increments[s]))
    res = end - start - integral
    return {phi.name: float(r) for phi, r in zip(phis, res)}


def smfe_weak_residual(traj: Trajectory, noise: NoisePath | None, coeffs,
                       eps: float, phi: TestFunction) -> float:
    """Single-test-function form of :func:`smfe_weak_residual_panel`."""
    return smfe_weak_residual_panel(traj, noise, coeffs, eps, [phi])[phi.name]


# --------------------------------------------------------------------------
# quadratic variation
# --------------------------------------------------------------------------


def qv_check_panel(traj: Trajectory, coeffs, panel: Iterable[TestFunction],
                   window: tuple[float, float] | None = None) -> dict:
    """Realized vs predicted quadratic variation of <phi, mu_t> on a window,
    as a (realized, predicted) pair per panel member.

    realized:  sum over steps of (Delta<phi, mu> - drift dt)^2
    predicted: eps * sum over steps of sum_p w_p <grad phi . G(., mu_s, theta_p), mu_s>^2 dt
    (the channel form of the double integral against Atilde).
    """
    if not traj.is_full_resolution:
        raise ValueError("qv check needs a full-resolution trajectory")
    phis = list(panel)
    eps = traj.eps
    omega = traj.weights
    dt = traj.dt
    lo, hi = window if window is not None else (traj.times[0], traj.times[-1])
    steps = [s for s in range(traj.n_snapshots - 1)
             if lo - 1e-12 <= traj.times[s] <= hi - dt + 1e-12]
    if window is not None and not steps:
        raise ValueError(f"window must be an interval holding a step of the run on "
                         f"[{traj.times[0]:g}, {traj.times[-1]:g}] (got {window!r})")
    predicted = np.zeros(len(phis))
    values, drifts = [], []
    for s in steps:
        v, drift, channels = _step_pairings(coeffs, traj.positions[s], omega, eps, phis)
        values.append(v)
        drifts.append(drift)
        if channels is not None:
            predicted += eps * (channels**2 @ coeffs.channel_weights) * dt
    if steps:
        values.append(stack_panel(phis, traj.positions[steps[-1] + 1], 0)[0] @ omega)
    realized = np.zeros(len(phis))
    for before, after, drift in zip(values, values[1:], drifts):
        realized += (after - before - drift * dt) ** 2
    return {phi.name: (float(r), float(p)) for phi, r, p in zip(phis, realized, predicted)}


def qv_check(traj: Trajectory, coeffs, phi: TestFunction,
             window: tuple[float, float] | None = None) -> tuple[float, float]:
    """Single-test-function form of :func:`qv_check_panel`."""
    return qv_check_panel(traj, coeffs, [phi], window)[phi.name]


# --------------------------------------------------------------------------
# atomic-class functional
# --------------------------------------------------------------------------


def f_n_functional(mu: EmpiricalMeasure, n: int) -> float:
    """Product-measure integral of prod_{i<j} |z^i - z^j|^2 over n-tuples.

    Vanishes exactly iff the measure has at most n - 1 distinct atoms.
    Cost is O(N^n); n = 4 is capped at N <= 200.
    """
    if n < 2 or n > 4:
        raise BudgetExceeded("n must be between 2 and 4")
    N = mu.n_atoms
    if n == 4 and N > 200:
        raise BudgetExceeded(f"n = 4 allows at most 200 atoms (got {N})")
    w = mu.weights
    diff = mu.atoms[:, None, :] - mu.atoms[None, :, :]
    D = np.einsum("ijk,ijk->ij", diff, diff)
    if n == 2:
        return float(np.einsum("i,j,ij->", w, w, D))
    if n == 3:
        return float(np.einsum("i,j,k,ij,ik,jk->", w, w, w, D, D, D, optimize=True))
    # n == 4: accumulate over the fourth index, folding its distance factors
    # into the weights of an inner triple sum
    total = 0.0
    for l in range(N):
        wl = w * D[:, l]
        total += w[l] * float(np.einsum("i,j,k,ij,ik,jk->", wl, wl, wl, D, D, D, optimize=True))
    return float(total)


def min_pairwise_distance(traj: Trajectory) -> tuple[np.ndarray, float]:
    """Per-step minimum distance over initially distinct pairs, plus the
    global-min / initial-min ratio."""
    d0 = pdist(traj.positions[0])
    mask = d0 > 0.0
    if not np.any(mask):
        raise ValueError("no initially distinct pairs to monitor")
    curve = np.empty(traj.n_snapshots)
    for s in range(traj.n_snapshots):
        curve[s] = pdist(traj.positions[s])[mask].min()
    return curve, float(curve.min() / d0[mask].min())


def moment_track(traj: Trajectory, p: int) -> tuple[float, float]:
    """sup over snapshots of <|x|^p, mu_t> and its ratio to 1 + initial."""
    if p not in (2, 4):
        raise ValueError("moment order p must be 2 or 4")
    sup = 0.0
    for s in range(traj.n_snapshots):
        norms2 = np.einsum("nd,nd->n", traj.positions[s], traj.positions[s])
        m = float(traj.weights @ (norms2 if p == 2 else norms2**2))
        sup = max(sup, m)
    norms2 = np.einsum("nd,nd->n", traj.positions[0], traj.positions[0])
    m0 = float(traj.weights @ (norms2 if p == 2 else norms2**2))
    return sup, sup / (1.0 + m0)


def write_report(rows: Iterable[tuple], path):
    """Structured text report: one row per (phi, seed, metric, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phi seed metric value\n")
        for phi_name, seed, metric, value in rows:
            fh.write(f"{phi_name} {seed} {metric} {value:.17g}\n")
