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

from ._checks import check_integer, check_real, check_vector
from .dynamics import NoisePath, Trajectory
from .measures import EmpiricalMeasure

__all__ = [
    "TestFunction",
    "standard_panel",
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


def _check_dim(name: str, d: int, X: np.ndarray) -> None:
    """Refuse points of another dimension than the test function's, naming both."""
    if X.shape[1] != d:
        raise ValueError(f"test function {name} is {d}-dimensional but the points are "
                         f"{X.shape[1]}-dimensional")


def _constant(d: int) -> TestFunction:
    def jet(X, order):
        _check_dim("const", d, X)
        return _jet(order, np.ones(X.shape[0]), lambda: np.zeros_like(X), lambda: _zero_hess(X))

    return TestFunction("const", jet)


def _coordinate(k: int, d: int) -> TestFunction:
    def grad(X):
        g = np.zeros_like(X)
        g[:, k] = 1.0
        return g

    name = f"x{k + 1}"

    def jet(X, order):
        _check_dim(name, d, X)
        return _jet(order, X[:, k].copy(), lambda: grad(X), lambda: _zero_hess(X))

    return TestFunction(name, jet, bounded=False)


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

    name = f"x{k + 1}x{l + 1}"

    def jet(X, order):
        _check_dim(name, d, X)
        return _jet(order, X[:, k] * X[:, l], lambda: grad(X), lambda: hess(X))

    return TestFunction(name, jet, bounded=False)


def gaussian_bump(center: Sequence[float], width: float, name: str | None = None) -> TestFunction:
    """exp(-|x - c|^2 / (2 s^2)) with exact derivatives; the width s must be a
    real in (1e-75, 1e75), so that s^4 is a normal float."""
    c = check_vector("center", center)
    if check_real("width", width, low=1e-75) >= 1e75:
        raise ValueError(f"width must be a finite real < 1e75 (got {width!r})")
    s2 = float(width) ** 2
    d = c.size
    name = name or f"bump({','.join(f'{x:g}' for x in c)};{width:g})"

    def jet(X, order):
        _check_dim(name, d, X)
        diff = X - c
        v = np.exp(-np.einsum("nd,nd->n", diff, diff) / (2 * s2))

        # the derivatives one coordinate column at a time, each element by
        # the same operations as the broadcast -v diff / s2 and
        # v (diff diff^T / s2^2 - I / s2): an off-diagonal x - 0.0 is x, and
        # the outer product's einsum summed into zeros (-0.0 reads +0.0)
        def grad():
            g, minus_v = np.empty_like(diff), -v
            for a in range(d):
                g[:, a] = minus_v * diff[:, a] / s2
            return g

        def hess():
            h = np.empty((X.shape[0], d, d))
            for a in range(d):
                h[:, a, a] = v * (diff[:, a] * diff[:, a] / s2**2 - 1.0 / s2)
                for b in range(a):
                    h[:, a, b] = h[:, b, a] = v * ((0.0 + diff[:, a] * diff[:, b]) / s2**2)
            return h

        return _jet(order, v, grad, hess)

    return TestFunction(name, jet)


def trig_wave(freq: Sequence[int], phase: str = "sin", name: str | None = None) -> TestFunction:
    """sin/cos(k . x) for an integer frequency vector with |k_j| <= 3."""
    k = check_vector("freq", freq)
    if not (np.all(np.abs(k) <= 3) and np.all(k == np.round(k))):
        raise ValueError(f"freq must be a non-empty vector of integers with |k_j| <= 3 (got {freq!r})")
    if phase not in ("sin", "cos"):
        raise ValueError(f"phase must be 'sin' or 'cos' (got {phase!r})")
    fn, dfn = (np.sin, np.cos) if phase == "sin" else (np.cos, lambda z: -np.sin(z))
    d, kk = k.size, np.einsum("i,j->ij", k, k)
    name = name or f"{phase}({','.join(f'{x:g}' for x in k)})"

    def jet(X, order):
        _check_dim(name, d, X)
        z = X @ k
        v = fn(z)

        # column a of the gradient is dfn(z) k_a, entry (a, b) of the
        # Hessian -v (k k^T)_ab: the broadcast products, column by column
        def grad():
            dz, g = dfn(z), np.empty((X.shape[0], d))
            for a in range(d):
                g[:, a] = dz * k[a]
            return g

        def hess():
            h, minus_v = np.empty((X.shape[0], d, d)), -v
            for a in range(d):
                for b in range(a + 1):
                    h[:, a, b] = h[:, b, a] = minus_v * kk[a, b]
            return h

        return _jet(order, v, grad, hess)

    return TestFunction(name, jet)


def standard_panel(d: int) -> list[TestFunction]:
    """Constant, coordinates, one quadratic, two bumps and two waves."""
    check_integer("d", d, 1)
    return [_constant(d), *(_coordinate(k, d) for k in range(d)), _product(0, min(1, d - 1), d),
            gaussian_bump(np.zeros(d), 1.0, name="bump0"),
            gaussian_bump(np.full(d, 0.5), 0.75, name="bump1"),
            trig_wave([1] * d, "sin"), trig_wave([2] + [1] * (d - 1), "cos")]


# --------------------------------------------------------------------------
# stacked panel: every test function's pairings, chunk by chunk of snapshots
# --------------------------------------------------------------------------


def stack_panel(phis: Sequence[TestFunction], X: np.ndarray,
                order: int) -> tuple[np.ndarray, ...]:
    """The stacked jet of a panel at the points X: values (F, N), then up to
    ``order`` gradients (F, N, d) and Hessians (F, N, d, d), from one jet
    call per panel member, each written into the stack as it comes."""
    stacks = None
    for f, phi in enumerate(phis):
        jet = phi.jet(X, order)
        if stacks is None:
            stacks = tuple(np.empty((len(phis),) + part.shape) for part in jet)
        for stack, part in zip(stacks, jet):
            stack[f] = part
    return stacks


def pair_panel(stack: np.ndarray, field: np.ndarray) -> np.ndarray:
    """One value per panel member: the sum over points of grad phi . v for an
    (N, d) field v, or of D2 phi : M for an (N, d, d) field M; one matmul."""
    return stack.reshape(stack.shape[0], -1) @ field.reshape(-1)


# a chunk of snapshots holds about this many points: 20 snapshots at N = 200
_CHUNK_POINTS = 4096


def chunk_length(n_particles: int) -> int:
    """Snapshots per chunk of the weak-form pairings at N = ``n_particles``."""
    return max(1, _CHUNK_POINTS // n_particles)


def check_panel(panel: Iterable[TestFunction]) -> list[TestFunction]:
    """The panel as a list, one member per name: a residual is reported by
    name, so an empty panel or a repeated name is refused."""
    phis = list(panel)
    if not phis:
        raise ValueError("panel must hold at least one test function")
    names = [phi.name for phi in phis]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"panel must name each member once (repeated: {', '.join(repeated)})")
    return phis


def check_record(name: str, traj: Trajectory, noise: NoisePath | None = None, driven: bool = False):
    """Refuse the trajectory ``traj``, named ``name``, unless it records
    every step and, when ``driven``, was driven by the NoisePath ``noise``."""
    if not traj.is_full_resolution:
        raise ValueError(f"{name} must be a full-resolution trajectory (got snapshot_stride {traj.snapshot_stride})")
    if driven and (noise is None or traj.noise_meta != noise.meta):
        raise ValueError(f"noise must be the NoisePath {name} was driven by, {traj.noise_meta} "
                         f"(got {noise if noise is None else noise.meta})")


def _pairings(coeffs, positions: np.ndarray, omega: np.ndarray, eps: float,
              phis: Sequence[TestFunction]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The weak-form pairings of a whole panel over K + 1 snapshots
    ``positions`` (K + 1, N, d) on the weights ``omega``, mu_s = (X_s, omega).

    Returns <phi, mu_s> at every snapshot, shape (K + 1, F); the drift
    <grad phi . V, mu_s> + (eps/2) <D2 phi : A, mu_s> of the K steps, shape
    (K, F); and for eps > 0 their channel pairings <grad phi . G_p, mu_s>,
    shape (K, F, P) (None at eps = 0).  The snapshots go in chunks of about
    ``_CHUNK_POINTS`` points: one stacked panel jet on a chunk's points and one
    ``coeffs.weak_pairings`` call, so each point's jet runs once.  The
    pairings at the last snapshot are not used.
    """
    n_snapshots, n, d = positions.shape
    F, length = len(phis), chunk_length(n)
    values, drift, channels = [], [], []
    for lo in range(0, n_snapshots, length):
        X = positions[lo:lo + length]
        S = X.shape[0]
        v, grads, *hess = stack_panel(phis, X.reshape(-1, d), 2 if eps > 0.0 else 1)
        hess = hess[0].reshape(F, S, n, d, d) if hess else None
        dr, ch, ito = coeffs.weak_pairings(X, omega, grads.reshape(F, S, n, d), hess)
        # a pairwise sum along each row: accurate, and one order for every
        # snapshot, so the constant's value is the same float at each
        values.append((v.reshape(F, S, n) * omega).sum(-1).T)
        drift.append(dr if ito is None else dr + 0.5 * eps * ito)
        channels.append(ch)
    drift = np.concatenate(drift)[:-1]
    channels = np.concatenate(channels)[:-1] if eps > 0.0 else None
    return np.concatenate(values), drift, channels


# --------------------------------------------------------------------------
# weak-form residual of the stochastic mean-field equation
# --------------------------------------------------------------------------


def smfe_weak_residual_panel(traj: Trajectory, noise: NoisePath | None, coeffs,
                             eps: float, panel: Iterable[TestFunction]) -> dict:
    """Weak-form residuals for a whole panel, sharing per-step coefficients.

    R(phi) = <phi, mu_T> - <phi, mu_0>
             - sum_s [ <grad phi . V(., mu_s), mu_s> + (eps/2) <D2 phi : A(., mu_s), mu_s> ] dt
             - sqrt(eps) sum_s sum_p <grad phi . G(., mu_s, theta_p), mu_s> sqrt(w_p) dB_p.

    ``eps`` must be the noise scale the trajectory was run at.  The pairings
    of every step come from ``_pairings``, chunk by chunk of snapshots.
    """
    if eps != traj.eps:
        raise ValueError(f"eps must be the noise scale traj was run at, {traj.eps!r} (got {eps!r})")
    check_record("traj", traj, noise, driven=eps > 0.0)
    phis = check_panel(panel)
    values, drift, channels = _pairings(coeffs, traj.positions, traj.weights, eps, phis)
    integral = drift.sum(0) * traj.dt
    if channels is not None:
        dB = np.sqrt(coeffs.channel_weights) * noise.increments[:len(drift)]
        integral += np.sqrt(eps) * np.einsum("sfp,sp->f", channels, dB)
    res = values[-1] - values[0] - integral
    return {phi.name: float(r) for phi, r in zip(phis, res)}


# --------------------------------------------------------------------------
# quadratic variation
# --------------------------------------------------------------------------


def qv_check_panel(traj: Trajectory, coeffs, panel: Iterable[TestFunction],
                   window: tuple[float, float] | None = None) -> dict:
    """Realized vs predicted quadratic variation of <phi, mu_t> on a window,
    as a (realized, predicted) pair per panel member.

    realized:  sum over steps of (Delta<phi, mu> - drift dt)^2
    predicted: eps * sum over steps of sum_p w_p <grad phi . G(., mu_s, theta_p), mu_s>^2 dt
    (the channel form of the double integral against Atilde).  The window
    (the whole run by default) must hold a step.
    """
    check_record("traj", traj)
    phis = check_panel(panel)
    dt = traj.dt
    lo, hi = window if window is not None else (traj.times[0], traj.times[-1])
    starts = traj.times[:-1]
    steps = np.flatnonzero((lo - 1e-12 <= starts) & (starts <= hi - dt + 1e-12))
    if not steps.size:
        raise ValueError(f"window must be an interval holding a step of the run on "
                         f"[{traj.times[0]:g}, {traj.times[-1]:g}] (got {window!r})")
    values, drift, channels = _pairings(coeffs, traj.positions[steps[0]:steps[-1] + 2],
                                        traj.weights, traj.eps, phis)
    realized = ((np.diff(values, axis=0) - drift * dt) ** 2).sum(0)
    predicted = np.zeros(len(phis))
    if channels is not None:
        predicted = traj.eps * ((channels**2 @ coeffs.channel_weights).sum(0) * dt)
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
    if check_integer("n", n, 2) > 4:
        raise BudgetExceeded(f"n must be at most 4 (got {n})")
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


# the candidate pairs of a chunk may be at most this share of the pairs;
# beyond it every snapshot of the chunk takes its own pdist
_CANDIDATE_SHARE = 0.125


def _pair_rows(n: int, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, at the indices ``flat`` of a condensed
    distance vector over n points (pdist's order)."""
    starts = np.arange(n) * (2 * n - np.arange(n) - 1) // 2    # pair (i, i + 1)
    i = np.searchsorted(starts, flat, side="right") - 1
    return i, flat - starts[i] + i + 1


def _pair_distances(X: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|X[:, i] - X[:, j]| for snapshots X (S, N, d), the squares summed one
    coordinate after the other: pdist's operations, bit for bit."""
    sq = 0.0
    for a in range(X.shape[2]):
        c = X[:, i, a] - X[:, j, a]
        sq = sq + c * c
    return np.sqrt(sq)


def min_pairwise_distance(traj: Trajectory) -> tuple[np.ndarray, float]:
    """Per-snapshot minimum distance over initially distinct pairs, plus the
    global-min / initial-min ratio.

    The snapshots go in chunks of ``chunk_length(N)``.  At a chunk's first
    snapshot a one ``pdist`` gives the minimum m_a; with delta the largest
    displacement |x_i(s) - x_i(a)| in the chunk, a pair farther apart than
    m_a + 4 delta at a stays farther than m_a + 2 delta, and the pair at m_a
    nearer, so only the pairs within m_a + 4 delta (and a relative margin
    for rounding) are measured at the chunk's snapshots, by pdist's
    operations.  A chunk with a non-finite displacement, or with candidates
    for more than an eighth of the pairs, takes one ``pdist`` per snapshot.
    """
    positions = traj.positions
    n_snapshots, n = positions.shape[:2]
    d0 = pdist(positions[0])
    mask = d0 > 0.0
    if not np.any(mask):
        raise ValueError("traj must start with two distinct particles, a pair to monitor")
    curve = np.empty(n_snapshots)
    length = chunk_length(n)
    for lo in range(0, n_snapshots, length):
        X = positions[lo:lo + length]
        anchor = d0 if lo == 0 else pdist(X[0])
        # a coordinate at inf or out of range reads nan or inf, as in pdist,
        # without a warning
        with np.errstate(invalid="ignore", over="ignore"):
            disp = X - X[0]
            delta = np.sqrt(np.einsum("snd,snd->sn", disp, disp).max())
            if np.isfinite(delta):
                near = anchor <= (anchor[mask].min() + 4.0 * delta) * (1.0 + 1e-12)
                flat = np.flatnonzero(near & mask)
                if flat.size <= _CANDIDATE_SHARE * anchor.size:
                    curve[lo:lo + len(X)] = _pair_distances(X, *_pair_rows(n, flat)).min(axis=1)
                    continue
        for s in range(len(X)):
            curve[lo + s] = pdist(X[s])[mask].min()
    return curve, float(curve.min() / d0[mask].min())


def moment_track(traj: Trajectory, p: int) -> tuple[float, float]:
    """sup over snapshots of <|x|^p, mu_t> and its ratio to 1 + initial."""
    if p not in (2, 4):
        raise ValueError(f"p must be 2 or 4 (got {p!r})")
    norms2 = np.einsum("snd,snd->sn", traj.positions, traj.positions)
    moments = (norms2 if p == 2 else norms2**2) @ traj.weights     # (S,)
    sup = float(moments.max())
    return sup, sup / (1.0 + float(moments[0]))


def write_report(rows: Iterable[tuple], path):
    """Structured text report: one row per (phi, seed, metric, value)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phi seed metric value\n")
        for phi_name, seed, metric, value in rows:
            fh.write(f"{phi_name} {seed} {metric} {value:.17g}\n")
