"""Measure containers and the two metrics the convergence rates live in.

``w2`` is exact on every input, through one of three backends: the quantile
coupling in one dimension, an optimal assignment for uniform measures (of
unequal cardinalities m and n too, replicated to lcm(m, n) atoms), and the
transport linear program otherwise.  ``SortedAtoms.of`` checks the
snapshots of a run once and sorts each at most once, and ``w2_sup`` takes
the sup over snapshots of W2 between two runs without checking again,
solving (and sorting) only the snapshots that a coupling bound cannot rule
out.  The negative-order Sobolev norm is evaluated spectrally on a periodic
box that contains all atoms: for an atomic or tangent field the Fourier
coefficients are exact finite sums, so no meshing is involved.
``HalfLattice`` computes them on the half of the lattice that real fields
need, as one real product per point set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

__all__ = [
    "EmpiricalMeasure",
    "SignedAtomicField",
    "SpectralBoxError",
    "SpectralGrid",
    "HalfLattice",
    "SortedAtoms",
    "w2",
    "w2_detailed",
    "w2_sup",
    "moment",
    "sobolev_neg_norm",
    "spectral_coefficients",
    "pair",
    "write_field",
]

_WEIGHT_TOL = 1e-12


class SpectralBoxError(ValueError):
    """An atom or base point lies outside the open spectral box."""


def _checked(atoms: np.ndarray, weights) -> np.ndarray:
    """The weights of atoms (..., N, d) as floats, once the atoms are checked
    finite and the weights a probability vector over the N atoms."""
    if atoms.shape[-2] == 0:
        raise ValueError("empirical measure needs at least one atom")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (atoms.shape[-2],):
        raise ValueError("weights must match the number of atoms")
    # a sum is finite only if every entry is (one that overflows is rejected too)
    if not math.isfinite(atoms.sum()):
        raise ValueError("atoms must be finite")
    total = weights.sum()
    if not math.isfinite(total):
        raise ValueError("weights must be finite")
    if np.any(weights <= 0):
        raise ValueError("weights must be strictly positive")
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1 (got {total!r})")
    return weights


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atoms in R^d representing a probability measure."""

    atoms: np.ndarray    # (N, d)
    weights: np.ndarray  # (N,)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = _checked(atoms, self.weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def uniform(cls, atoms: np.ndarray) -> "EmpiricalMeasure":
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        n = atoms.shape[0]
        return cls(atoms, np.full(n, 1.0 / n))

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


class SignedAtomicField:
    """A signed atomic distribution, in one of two representations.

    * atomic: atoms with signed weights, acting as phi -> sum_i s_i phi(X_i)
    * tangent: base points X_i with tangent vectors Y_i and weight 1/N each,
      acting as phi -> (1/N) sum_i grad phi(X_i) . Y_i

    The tangent representation always pairs to zero against constants.
    """

    def __init__(self, kind: str, atoms: np.ndarray, payload: np.ndarray):
        if kind not in ("atomic", "tangent"):
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        payload = np.asarray(payload, dtype=float)
        if kind == "atomic":
            if payload.shape != (self.atoms.shape[0],):
                raise ValueError("atomic field needs one signed weight per atom")
        else:
            payload = np.atleast_2d(payload)
            if payload.shape != self.atoms.shape:
                raise ValueError("tangent field needs one tangent vector per base point")
        self.payload = payload

    @classmethod
    def atomic(cls, atoms: np.ndarray, signed_weights: np.ndarray) -> "SignedAtomicField":
        return cls("atomic", atoms, signed_weights)

    @classmethod
    def tangent(cls, base: np.ndarray, tangents: np.ndarray) -> "SignedAtomicField":
        return cls("tangent", base, tangents)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class SpectralGrid:
    """Periodic box and frequency cutoff for the H^{-J} surrogate norm."""

    r_box: float
    k_max: int
    j: int

    def __post_init__(self):
        if self.r_box <= 0:
            raise ValueError("r_box must be positive")
        if self.k_max < 8:
            raise ValueError("k_max must be at least 8")
        if self.j < 1:
            raise ValueError("sobolev order j must be a positive integer")

    def check_inside(self, points: np.ndarray):
        """Raise SpectralBoxError unless every coordinate lies in the open box."""
        if points.size and np.max(np.abs(points)) >= self.r_box:
            raise SpectralBoxError(
                f"atom at |coordinate| {np.max(np.abs(points)):.6g} outside the open box "
                f"(-{self.r_box:.6g}, {self.r_box:.6g})^d"
            )


# --------------------------------------------------------------------------
# Wasserstein-2
# --------------------------------------------------------------------------

_ASSIGNMENT_MAX = 2000


class SortedAtoms:
    """Measures on N atoms made ready for W2: one measure (N, d), or a run's
    snapshots (S, N, d) with ``at(s)`` the s-th.  Atoms are checked finite
    and weights checked once, for the whole stack.  A measure's atoms are
    sorted, lexicographically so that the coupling is fixed when costs tie,
    with its weights in the same order: one measure at once, a snapshot of a
    stack when ``at`` first reads it, and each at most once (``w2_sup``
    solves few of a run's snapshots).  ``given`` is the caller's array
    itself, in the caller's particle order (a reference, not a copy), and a
    stack keeps its ``weights`` (N,) in that order: ``w2_sup`` bounds W2 by
    the coupling of equal particle indices on them."""

    def __init__(self, given: np.ndarray, weights: np.ndarray, uniform: bool):
        self.given = given      # (..., N, d), the atoms in the caller's order
        self.uniform = uniform  # every weight is 1/N
        if given.ndim == 2:
            order = np.lexsort(given.T[::-1])
            self.atoms, self.weights = given[order], weights[order]
        else:
            self.weights = weights
            self._sorted: list = [None] * given.shape[0]

    @classmethod
    def of(cls, atoms: np.ndarray, weights: np.ndarray) -> "SortedAtoms":
        atoms = np.asarray(atoms, dtype=float)
        weights = _checked(atoms, weights)
        return cls(atoms, weights, bool(np.allclose(weights, 1.0 / weights.size, atol=1e-12)))

    def at(self, s: int) -> "SortedAtoms":
        if self._sorted[s] is None:
            self._sorted[s] = SortedAtoms(self.given[s], self.weights, self.uniform)
        return self._sorted[s]


def _w2_quantile_1d(xa, wa, xb, wb) -> float:
    """Exact squared W2 between weighted 1-d measures on sorted atoms via
    CDF coupling."""
    ca = np.cumsum(wa)
    cb = np.cumsum(wb)
    # merge the two sets of CDF breakpoints; between consecutive levels both
    # quantile functions are constant
    levels = np.union1d(ca, cb)
    levels = levels[levels <= 1.0 + 1e-15]
    segs = np.diff(np.concatenate(([0.0], levels)))
    mids = levels - 0.5 * segs
    qa = xa[np.minimum(np.searchsorted(ca, mids, side="right"), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, mids, side="right"), xb.size - 1)]
    return float(np.sum(segs * (qa - qb) ** 2))


def _w2_assignment(xa: np.ndarray, xb: np.ndarray) -> float:
    """Exact squared W2 between uniform measures on m and n sorted atoms:
    each atom replicated to lcm(m, n) equal atoms, one optimal assignment."""
    size = math.lcm(xa.shape[0], xb.shape[0])
    cost = cdist(xa, xb, "sqeuclidean")
    if cost.shape != (size, size):
        cost = np.repeat(np.repeat(cost, size // xa.shape[0], axis=0), size // xb.shape[0], axis=1)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / size)


def _w2_lp(xa, wa, xb, wb) -> float:
    """Exact squared W2 between weighted measures: the transport linear
    program over the (m, n) plan, solved by HiGHS."""
    m, n = xa.shape[0], xb.shape[0]
    marginals = sparse.vstack([sparse.kron(sparse.identity(m), np.ones((1, n))),
                               sparse.kron(np.ones((1, m)), sparse.identity(n))])
    res = linprog(cdist(xa, xb, "sqeuclidean").ravel(), A_eq=marginals,
                  b_eq=np.concatenate([wa, wb]), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"W2 transport program failed: {res.message}")
    return float(res.fun)


def w2_detailed(mu, nu) -> tuple[float, dict]:
    """Exact Wasserstein-2 distance plus the backend that computed it.

    ``mu`` and ``nu`` are EmpiricalMeasures, or SortedAtoms of one measure
    (checked and sorted once per run).  The backends, all exact:

    * ``quantile``: one dimension, any weights, by the quantile coupling;
    * ``assignment``: uniform weights on m and n atoms with lcm(m, n) <= 2000;
      a uniform measure is unchanged when each atom is replicated to
      lcm(m, n) / m equal atoms, and between two uniform measures of equal
      cardinality an optimal assignment is an optimal plan
      (Birkhoff-von Neumann);
    * ``lp``: everything else, general weights in d >= 2 or a larger lcm,
      by the transport linear program.
    """
    a, b = (m if isinstance(m, SortedAtoms) else SortedAtoms.of(m.atoms, m.weights) for m in (mu, nu))
    dim = a.atoms.shape[1]
    if dim != b.atoms.shape[1]:
        raise ValueError(f"dimension mismatch: {dim} vs {b.atoms.shape[1]}")
    if dim == 1:
        val, backend = _w2_quantile_1d(a.atoms[:, 0], a.weights, b.atoms[:, 0], b.weights), "quantile"
    elif a.uniform and b.uniform and math.lcm(a.atoms.shape[0], b.atoms.shape[0]) <= _ASSIGNMENT_MAX:
        val, backend = _w2_assignment(a.atoms, b.atoms), "assignment"
    else:
        val, backend = _w2_lp(a.atoms, a.weights, b.atoms, b.weights), "lp"
    return float(np.sqrt(max(val, 0.0))), {"backend": backend}


def w2(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    return w2_detailed(mu, nu)[0]


# relative slack on the coupling bound: it covers the rounding of the bound's
# sum and of the solved cost's sum, at most about 2 N 2^-53 at N <= 2000
_BOUND_MARGIN = 1e-10


def _index_bound(a: SortedAtoms, b: SortedAtoms) -> np.ndarray:
    """U_s = mean_i |x_i(s) - y_i(s)|^2 over the atoms in the callers' order,
    an upper bound on W2^2(s) when both stacks put one same weight on each of
    their N <= _ASSIGNMENT_MAX atoms (the index coupling is then a plan and
    an exact backend serves the pair); +inf for every s otherwise."""
    n = a.given.shape[-2]
    if (a.given.shape != b.given.shape or n > _ASSIGNMENT_MAX
            or np.any(a.weights != a.weights.flat[0]) or np.any(b.weights != b.weights.flat[0])):
        return np.full(a.given.shape[0], np.inf)
    diff = a.given - b.given
    return np.einsum("snd,snd->s", diff, diff) / n


def w2_sup(a: SortedAtoms, b: SortedAtoms) -> tuple[float, str]:
    """max over s of W2 between snapshot s of ``a`` and snapshot s of ``b``
    (S >= 1), and the one backend that served the solves.

    When both measures put the same weight on each of their N <= 2000
    atoms, the coupling of equal particle indices is a plan, so
    U_s = mean_i |x_i(s) - y_i(s)|^2, in the caller's order, bounds W2^2(s)
    (``_index_bound``).  Snapshots are solved in descending U_s, and the loop
    stops at the first one with U_s <= best^2 (1 - 1e-10): no later snapshot
    can beat the best, so the sup is the float the exhaustive max returns.
    Otherwise U_s is +inf and every snapshot is solved, in order.
    """
    n_snap = a.given.shape[0]
    if n_snap != b.given.shape[0]:
        raise ValueError(f"snapshot count mismatch: {n_snap} vs {b.given.shape[0]}")
    if n_snap == 0:
        raise ValueError("w2_sup needs at least one snapshot")
    bound = _index_bound(a, b)
    order = np.argsort(-bound, kind="stable")
    best, info = w2_detailed(a.at(order[0]), b.at(order[0]))
    for s in order[1:]:
        if bound[s] <= best * best * (1.0 - _BOUND_MARGIN):
            break
        best = max(best, w2_detailed(a.at(s), b.at(s))[0])
    return best, info["backend"]


def moment(mu: EmpiricalMeasure, p: int) -> float:
    """<|x|^p, mu> for p in {2, 4}."""
    if p not in (2, 4):
        raise ValueError("moment order p must be 2 or 4")
    norms2 = np.einsum("nd,nd->n", mu.atoms, mu.atoms)
    return float(mu.weights @ (norms2 if p == 2 else norms2**2))


# --------------------------------------------------------------------------
# spectral negative Sobolev norm
# --------------------------------------------------------------------------


class HalfLattice:
    """Fourier coefficients and the H^{-J} norm of a SpectralGrid in ``dim``
    dimensions, as one real product per point set.

    With the lattice axes split into the leading axes 0..dim-2 and the last
    axis, a coefficient is c(k', k) = sum_i w_i A_i(k') B_i(k), where A_i is
    the product of the phase rows e^{-i pi k_a x_ia / R} of the leading axes
    and B_i that of the last.  Every field here is real, so c(-k) = conj(c(k)):
    axis 0 runs over k_0 >= 0 when dim >= 2, the other leading axes over
    -k_max..k_max, and the last axis over its half row k >= 0 only.  The
    product P = sum_i (w_i A_i) (x) B_i of the complex rows viewed as (re, im)
    pairs of floats is one real matmul, of shape (m, *lead, 2, k_max+1, 2)
    over the (re, im) part of A, the last axis and the (re, im) part of B.
    Its four entries per lattice point give both signs of the last axis,

        c(k', +k) = (P_rr - P_ii) + i (P_ri + P_ir),
        c(k', -k) = (P_rr + P_ii) + i (P_ir - P_ri),

    so |c(k', +k)|^2 + |c(k', -k)|^2 = 2 (P_rr^2 + P_ri^2 + P_ir^2 + P_ii^2)
    (at k = 0, B is real and P_ri = P_ii = 0), and the norm is a weighted sum
    of P^2 that doubles k_0 > 0 and k > 0.  The phase rows are cumulative
    powers of one e^{-i pi x / R} per coordinate.  In dim 1 there is no
    leading axis and the product is a sum over points.
    """

    def __init__(self, grid: SpectralGrid, dim: int):
        self.grid = grid
        self.dim = dim
        k = np.arange(grid.k_max + 1)
        lead = ([k] + [np.concatenate([-k[:0:-1], k])] * (dim - 2)) if dim > 1 else []
        self.lead = len(lead)
        # k_a along axis a of a product (*lead, 2, k_max+1, 2)
        modes = [m.reshape([-1 if b == a else 1 for b in range(self.lead)] + [1, 1, 1])
                 for a, m in enumerate(lead)] + [k.reshape([1] * self.lead + [1, -1, 1])]
        waves = [np.pi / grid.r_box * m for m in modes]
        # -i w maps (re, im) to w (im, -re): a turn of the (re, im) pairs of A
        # (axis -3) for a leading axis, of those of B (axis -1) for the last
        sign = np.array([1.0, -1.0])
        self._turns = [(-3, w * sign[:, None, None]) for w in waves[:-1]] + [(-1, waves[-1] * sign)]
        weights = (1.0 + sum(w**2 for w in waves)) ** (-grid.j)
        # a k > 0 of the last axis holds -k too, and so does a k_0 > 0 of axis 0
        weights = weights * np.where(modes[-1] > 0, 2.0, 1.0)
        if dim > 1:
            weights = weights * np.where(modes[0] > 0, 2.0, 1.0)
        weights = np.broadcast_to(weights, tuple(m.size for m in lead) + (2, k.size, 2))
        self.shape = weights.shape
        self._weights = weights.ravel() / (2.0 * grid.r_box) ** dim

    def warn_tail(self):
        """Warn, at the caller's caller, when k_max leaves a relative
        spectral tail above 1e-8."""
        grid = self.grid
        tail = (1.0 + (np.pi * grid.k_max / grid.r_box) ** 2) ** (-grid.j + self.dim / 2.0)
        if tail > 1e-8:
            warnings.warn(
                f"k_max={grid.k_max} leaves a relative spectral tail ~{tail:.2e} (> 1e-8); "
                "increase k_max or j",
                stacklevel=3,
            )

    def _phases(self, coords: np.ndarray, half: bool) -> np.ndarray:
        """e^{-i pi k x / R} for each coordinate x, over k in 0..k_max when
        ``half``, else over -k_max..k_max."""
        k_max = self.grid.k_max
        out = np.empty(coords.shape + (k_max + 1 if half else 2 * k_max + 1,), dtype=complex)
        powers = out[..., out.shape[-1] - k_max - 1:]
        powers[..., 0] = 1.0
        powers[..., 1:] = np.exp(-1j * np.pi / self.grid.r_box * coords)[..., None]
        np.cumprod(powers, axis=-1, out=powers)
        if not half:
            np.conjugate(out[..., :k_max:-1], out=out[..., :k_max])
        return out

    def transform(self, points: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """The real product P that holds sum_i w_im e^{-i pi k . x_i / R},
        for points (..., N, dim) and real weights (..., N, m), by default
        unit weights (m = 1).

        Returns shape (..., m, *self.shape).  Raises SpectralBoxError when a
        point lies outside the open box.
        """
        self.grid.check_inside(points)
        rows = points.shape[:-1]
        acc = weights
        for a in range(self.lead):
            ph = self._phases(points[..., a], a == 0)
            acc = ph if acc is None else (acc[..., :, None] * ph[..., None, :]).reshape(*rows, -1)
        if self.lead == 0:
            acc = (np.ones(rows + (1,)) if acc is None else acc).astype(complex)
        half = self._phases(points[..., -1], True)
        out = np.swapaxes(acc.view(float), -1, -2) @ half.view(float)
        return out.reshape(*points.shape[:-2], -1, *self.shape)

    def tangent(self, parts: np.ndarray) -> np.ndarray:
        """sum_a (-i pi k_a / R) parts_a: the product of a tangent field from
        the products (..., dim, *self.shape) of its tangent components, each
        part's (re, im) pairs turned along axis a."""
        return sum(turn * np.flip(np.take(parts, a, axis=-1 - len(self.shape)), axis)
                   for a, (axis, turn) in enumerate(self._turns))

    def coefficients(self, field: SignedAtomicField) -> np.ndarray:
        """The product of an atomic or a tangent field."""
        if field.kind == "atomic":
            return self.transform(field.atoms, field.payload[:, None])[0]
        return self.tangent(self.transform(field.atoms, field.payload / field.atoms.shape[0]))

    def norms(self, products: np.ndarray) -> np.ndarray:
        """The truncated H^{-J} norm of products (..., *self.shape), over
        any leading axes."""
        squares = products * products
        return np.sqrt(squares.reshape(*products.shape[:products.ndim - len(self.shape)], -1)
                       @ self._weights)

    def full(self, product: np.ndarray) -> np.ndarray:
        """The complex coefficients of one product on the whole lattice
        {-k_max..k_max}^dim: the last axis by the +-k identities, then, in
        dim >= 2, k_0 < 0 by c(-k) = conj(c(k))."""
        rr, ri = product[..., 0, :, 0], product[..., 0, :, 1]
        ir, ii = product[..., 1, :, 0], product[..., 1, :, 1]
        plus = (rr - ii) + 1j * (ri + ir)
        minus = (rr + ii) + 1j * (ir - ri)
        coeffs = np.concatenate([minus[..., :0:-1], plus], axis=-1)
        if self.dim == 1:
            return coeffs
        return np.concatenate([np.flip(coeffs[1:]).conj(), coeffs], axis=0)


def spectral_coefficients(field: SignedAtomicField, grid: SpectralGrid) -> np.ndarray:
    """Fourier coefficients <e^{-i pi k . x / R}, f> on the truncated lattice.

    Returns a complex array of shape (2*k_max+1,)*dim indexed by k in
    {-k_max..k_max}^dim.  Exact finite sums over atoms; for the tangent
    representation the test function gradient is applied analytically.
    """
    lattice = HalfLattice(grid, field.dim)
    return lattice.full(lattice.coefficients(field))


def sobolev_neg_norm(field: SignedAtomicField, grid: SpectralGrid) -> float:
    """Truncated spectral H^{-J} norm of a signed atomic or tangent field."""
    lattice = HalfLattice(grid, field.dim)
    lattice.warn_tail()
    return float(lattice.norms(lattice.coefficients(field)))


def sobolev_neg_norm_diff(
    field_a: SignedAtomicField, field_b: SignedAtomicField, grid: SpectralGrid
) -> float:
    """H^{-J} norm of field_a - field_b without forming the combined field."""
    if field_a.dim != field_b.dim:
        raise ValueError("field dimension mismatch")
    lattice = HalfLattice(grid, field_a.dim)
    lattice.warn_tail()
    return float(lattice.norms(lattice.coefficients(field_a) - lattice.coefficients(field_b)))


# --------------------------------------------------------------------------
# pairing with test functions
# --------------------------------------------------------------------------


def pair(field: SignedAtomicField, phi) -> float:
    """<phi, f>: atomic fields pair by values, tangent fields by gradients.

    ``phi`` must expose ``value(points)`` and, for tangent fields,
    ``grad(points)``, as diagnostics.TestFunction does from one jet call.
    """
    if field.kind == "atomic":
        vals = np.asarray(phi.value(field.atoms), dtype=float)
        return float(field.payload @ vals)
    grads = np.asarray(phi.grad(field.atoms), dtype=float)
    n = field.atoms.shape[0]
    return float(np.einsum("nd,nd->", grads, field.payload) / n)


# --------------------------------------------------------------------------
# columnar text serialization
# --------------------------------------------------------------------------


def write_field(field: SignedAtomicField, path):
    """Columnar text: a tag line, then one row per atom."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# field kind={field.kind} dim={field.dim}\n")
        for i in range(field.atoms.shape[0]):
            coords = " ".join(f"{v:.17g}" for v in field.atoms[i])
            if field.kind == "atomic":
                fh.write(f"{coords} {field.payload[i]:.17g}\n")
            else:
                tang = " ".join(f"{v:.17g}" for v in field.payload[i])
                fh.write(f"{coords} {tang}\n")

