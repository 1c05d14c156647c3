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

    ``value``: (N, d) -> (N,);  ``grad``: (N, d) -> (N, d);
    ``hess``: (N, d) -> (N, d, d).
    """

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    bounded: bool = True


def _constant(d: int) -> TestFunction:
    return TestFunction(
        "const",
        lambda X: np.ones(X.shape[0]),
        lambda X: np.zeros_like(X),
        lambda X: np.zeros((X.shape[0], X.shape[1], X.shape[1])),
    )


def _coordinate(k: int, d: int) -> TestFunction:
    def grad(X):
        g = np.zeros_like(X)
        g[:, k] = 1.0
        return g

    return TestFunction(
        f"x{k + 1}",
        lambda X: X[:, k].copy(),
        grad,
        lambda X: np.zeros((X.shape[0], X.shape[1], X.shape[1])),
        bounded=False,
    )


def _product(k: int, l: int, d: int) -> TestFunction:
    def value(X):
        return X[:, k] * X[:, l]

    def grad(X):
        g = np.zeros_like(X)
        g[:, k] += X[:, l]
        g[:, l] += X[:, k]
        return g

    def hess(X):
        h = np.zeros((X.shape[0], X.shape[1], X.shape[1]))
        h[:, k, l] += 1.0
        h[:, l, k] += 1.0
        return h

    return TestFunction(f"x{k + 1}x{l + 1}", value, grad, hess, bounded=False)


def gaussian_bump(center: Sequence[float], width: float, name: str | None = None) -> TestFunction:
    """exp(-|x - c|^2 / (2 s^2)) with exact derivatives."""
    c = np.asarray(center, dtype=float)
    s2 = float(width) ** 2

    def value(X):
        diff = X - c
        return np.exp(-np.einsum("nd,nd->n", diff, diff) / (2 * s2))

    def grad(X):
        diff = X - c
        return -value(X)[:, None] * diff / s2

    def hess(X):
        diff = X - c
        v = value(X)
        outer = np.einsum("ni,nj->nij", diff, diff) / s2**2
        eye = np.eye(c.size)[None, :, :] / s2
        return v[:, None, None] * (outer - eye)

    return TestFunction(name or f"bump({','.join(f'{x:g}' for x in c)};{width:g})",
                        value, grad, hess)


def trig_wave(freq: Sequence[int], phase: str = "sin", name: str | None = None) -> TestFunction:
    """sin/cos(k . x) for an integer frequency vector with |k_j| <= 3."""
    k = np.asarray(freq, dtype=float)
    if np.max(np.abs(k)) > 3:
        raise ValueError("trig wave frequency must be <= 3 per axis")
    fn, dfn = (np.sin, np.cos) if phase == "sin" else (np.cos, lambda z: -np.sin(z))
    sign2 = -1.0

    def value(X):
        return fn(X @ k)

    def grad(X):
        return dfn(X @ k)[:, None] * k[None, :]

    def hess(X):
        return sign2 * fn(X @ k)[:, None, None] * np.einsum("i,j->ij", k, k)[None, :, :]

    return TestFunction(name or f"{phase}({','.join(f'{x:g}' for x in k)})", value, grad, hess)


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
                hessians: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients (F, N, d) and, unless ``hessians`` is False, Hessians
    (F, N, d, d) of every panel member at the points X."""
    grads = np.stack([phi.grad(X) for phi in phis])
    return grads, np.stack([phi.hess(X) for phi in phis]) if hessians else None


def pair_panel(stack: np.ndarray, field: np.ndarray) -> np.ndarray:
    """One value per panel member: the sum over points of grad phi . v for an
    (N, d) field v, or of D2 phi : M for an (N, d, d) field M; one matmul."""
    return stack.reshape(stack.shape[0], -1) @ field.reshape(-1)


def _panel_values(phis: Sequence[TestFunction], X: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """<phi, mu> for every panel member, mu = (X, omega)."""
    return np.stack([phi.value(X) for phi in phis]) @ omega


def _step_pairings(coeffs, X: np.ndarray, omega: np.ndarray, eps: float,
                   phis: Sequence[TestFunction]) -> tuple[np.ndarray, np.ndarray | None]:
    """The weak-form pairings of a whole panel at one step, mu_s = (X, omega).

    Returns the drift <grad phi . V, mu_s> + (eps/2) <D2 phi : A, mu_s> of
    every member, shape (F,), and for eps > 0 the channel pairings
    <grad phi . G_p, mu_s>, shape (F, P) (None at eps = 0).  The Ito term
    uses A_i = sum_p w_p G_ip G_ip^T, formed once per step, so every pairing
    is one matmul over the stacked panel.
    """
    mu = (X, omega)
    grads, hess = stack_panel(phis, X, hessians=eps > 0.0)
    drift = pair_panel(grads, omega[:, None] * coeffs.drift(X, mu))
    if eps == 0.0:
        return drift, None
    G = coeffs.noise_matrix(X, mu)                                 # (N, P, d)
    scaled = G * np.sqrt(coeffs.channel_weights)[None, :, None]
    A = np.matmul(scaled.transpose(0, 2, 1), scaled)              # (N, d, d)
    drift = drift + 0.5 * eps * pair_panel(hess, omega[:, None, None] * A)
    channels = np.tensordot(grads, omega[:, None, None] * G, axes=([1, 2], [0, 2]))
    return drift, channels


# --------------------------------------------------------------------------
# weak-form residual of the stochastic mean-field equation
# --------------------------------------------------------------------------


def smfe_weak_residual_panel(traj: Trajectory, noise: NoisePath | None, coeffs,
                             eps: float, panel: Iterable[TestFunction]) -> dict:
    """Weak-form residuals for a whole panel, sharing per-step coefficients.

    R(phi) = <phi, mu_T> - <phi, mu_0>
             - sum_s [ <grad phi . V(., mu_s), mu_s> + (eps/2) <D2 phi : A(., mu_s), mu_s> ] dt
             - sqrt(eps) sum_s sum_p <grad phi . G(., mu_s, theta_p), mu_s> sqrt(w_p) dB_p.

    ``eps`` must be the noise scale the trajectory was run at.
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
    for s in range(traj.n_snapshots - 1):
        drift, channels = _step_pairings(coeffs, traj.positions[s], omega, eps, phis)
        integral += drift * traj.dt
        if channels is not None:
            integral += np.sqrt(eps) * (channels @ (sqrt_w * noise.increments[s]))
    res = (_panel_values(phis, traj.positions[-1], omega)
           - _panel_values(phis, traj.positions[0], omega) - integral)
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
    realized = np.zeros(len(phis))
    predicted = np.zeros(len(phis))
    before = None
    for s in range(traj.n_snapshots - 1):
        t = traj.times[s]
        if t < lo - 1e-12 or t > hi - dt + 1e-12:
            continue
        if before is None:
            before = _panel_values(phis, traj.positions[s], omega)
        after = _panel_values(phis, traj.positions[s + 1], omega)
        drift, channels = _step_pairings(coeffs, traj.positions[s], omega, eps, phis)
        if channels is not None:
            predicted += eps * (channels**2 @ coeffs.channel_weights) * dt
        realized += (after - before - drift * dt) ** 2
        before = after
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
