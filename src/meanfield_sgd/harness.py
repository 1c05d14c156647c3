"""Experiment orchestration: coupled-run rate studies and reproducible tables.

Each experiment follows the same seed hygiene: replica ``r`` uses seed
``base_seed + r``; within a replica every coupled run (different noise
scales, different particle counts, the tangent system) consumes one shared
NoisePath and one shared initial ensemble.  One runner owns that policy
(``Replica``) and turns every grid cell into rows, a diverged cell into a
``failed`` row.  Experiments emit a long-format ResultTable whose rows are
reproducible functions of (config, seed).
"""

from __future__ import annotations

import csv
import hashlib
import json
import numbers
import os
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy

from . import __version__ as code_version
from .coefficients import ACTIVATIONS, Dataset, NetworkCoefficients, SyntheticCoefficients
from .diagnostics import TestFunction, gaussian_bump
from .dynamics import (
    InitialSpec,
    IntegratorConfig,
    NoisePath,
    SimulationError,
    Trajectory,
    _check_box,
    _check_integer,
    _record_indices,
    run_sgd,
    sample_initial,
    seeded_rng,
    simulate_coupled,
)
from .dynamics import simulate, simulate_transport  # noqa: F401  perfbench/tracer.py traces them at these names
from .fluctuations import _check_sobolev_order, clt_distance, eta_eps
from .fluctuations import solve_tangent  # noqa: F401  perfbench/tracer.py traces it at this name
from .measures import SortedAtoms, SpectralBoxError, SpectralGrid, w2, w2_sup

__all__ = [
    "ExperimentConfig",
    "Replica",
    "ResultTable",
    "SlopeFit",
    "fit_slope",
    "reference_config",
    "build_coefficients",
    "build_initial_spec",
    "w2_sq_to_uniform_1d",
    "write_run_meta",
    "exp_lln_rate",
    "exp_particle_rate",
    "exp_clt_rate",
    "exp_sgd_compare",
    "exp_commute",
]


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


_BOUNDED_ACTIVATIONS = tuple(name for name, act in ACTIVATIONS.items() if not act.unbounded_derivative)
_SYNTHETIC_PARAMS = ("kappa", "gamma", "g_amp", "g_freq")
# fixed statistics: the bootstrap resamples, seed and interval level of
# fit_slope and of the sgd-compare trend gate, and the particle-rate noise scale
_SLOPE_BOOT, _SLOPE_SEED, SLOPE_LEVEL = 400, 0, 0.95
_TREND_BOOT, _TREND_SEED, TREND_LEVEL = 500, 7, 0.9
_PARTICLE_RATE_EPS = 0.05


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    """Instance, grids and replication plan for one experiment family; a bad
    field raises ValueError naming it when the config is built."""

    # instance
    instance: str = "network"                  # "network" | "synthetic-1d"
    dataset_rows: tuple = ()                   # ((theta.., weight, label), ...)
    dataset_file: str | None = None
    activation: str = "tanh"
    synthetic_params: tuple = (("kappa", 0.5), ("gamma", 0.5), ("g_amp", 0.5), ("g_freq", 1.0))
    mu0_kind: str = "uniform"
    mu0_low: tuple = (-1.0, -1.0)
    mu0_high: tuple = (1.0, 1.0)
    n_particles: int = 200
    # grids
    eps_grid: tuple = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    m_grid: tuple = (50, 100, 200)
    alpha_grid: tuple = (0.1, 0.03, 0.01)
    dt: float = 1e-3
    horizon: float = 1.0
    sobolev_j: int = 5
    k_max: int = 64
    r_box: float | None = None                 # None -> auto-size to 1.2x bounding box
    snapshot_stride: int = 10
    clt_snapshot_stride: int = 50
    # replication
    replicas: int = 50
    base_seed: int = 2024
    threads: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        for name, allowed in (("instance", ("network", "synthetic-1d")),
                              ("activation", _BOUNDED_ACTIVATIONS), ("mu0_kind", ("uniform",))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {list(allowed)} (got {getattr(self, name)!r})")
        params = self.synthetic_params
        if not (isinstance(params, (tuple, list))
                and all(isinstance(kv, (tuple, list)) and len(kv) == 2 and kv[0] in _SYNTHETIC_PARAMS
                        and _is_number(kv[1]) and np.isfinite(kv[1]) for kv in params)
                and len({kv[0] for kv in params}) == len(params)):
            raise ValueError(f"synthetic_params must be (name, finite number) pairs with distinct names "
                             f"from {list(_SYNTHETIC_PARAMS)} (got {params!r})")
        if self.instance == "network" and not (self.dataset_rows or self.dataset_file):
            raise ValueError("dataset_rows must be non-empty, or dataset_file given, "
                             "for a network instance")
        for name in ("eps_grid", "m_grid", "alpha_grid", "mu0_low", "mu0_high"):
            grid = getattr(self, name)
            if not (isinstance(grid, (tuple, list)) and all(map(_is_number, grid))):
                raise ValueError(f"{name} must be a sequence of numbers (got {grid!r})")
        if not all(float(m).is_integer() for m in self.m_grid):
            raise ValueError(f"m_grid must be whole particle counts (got {self.m_grid!r})")
        for name, low in (("n_particles", 1), ("replicas", 1), ("threads", 1), ("snapshot_stride", 1),
                          ("clt_snapshot_stride", 1), ("sobolev_j", 1), ("k_max", 8), ("base_seed", 0)):
            _check_integer(name, getattr(self, name), low)
        for name in ("dt", "r_box") if self.r_box is not None else ("dt",):
            value = getattr(self, name)
            if not (_is_number(value) and np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite (got {value!r})")
        if not (_is_number(self.horizon) and np.isfinite(self.horizon) and self.horizon >= 0):
            raise ValueError(f"horizon must be nonnegative and finite (got {self.horizon!r})")
        rows = self.dataset_rows
        if not (isinstance(rows, (tuple, list))
                and all(isinstance(row, (tuple, list)) and all(map(_is_number, row)) for row in rows)):
            raise ValueError(f"dataset_rows must be a sequence of rows of numbers (got {rows!r})")
        lengths = {len(row) for row in rows}
        if len(lengths) > 1 or min(lengths, default=3) < 3:
            raise ValueError("dataset_rows must be rows of one length >= 3: theta.., weight, label")
        _check_box(self.mu0_low, self.mu0_high, ("mu0_low", "mu0_high"))
        # the parameter dimension, where the config fixes it; a dataset_file
        # fixes it when build_coefficients reads the file
        if self.instance == "synthetic-1d" or not self.dataset_file:
            self.check_box_dimension(1 if self.instance == "synthetic-1d" else lengths.pop() - 1)

    def check_box_dimension(self, dim: int):
        """ValueError naming mu0_low unless the initial box is ``dim``-dimensional."""
        if len(self.mu0_low) != dim:
            raise ValueError(f"mu0_low must be of length {dim}, the parameter dimension "
                             f"(got {len(self.mu0_low)})")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object (got {type(data).__name__})")
        for key in sorted(set(data) - {f.name for f in fields(cls)}):
            raise ValueError(f"{key} must be an ExperimentConfig field")
        # JSON arrays become the tuples the fields hold; any other value is
        # left for the field's own check
        for key in ("dataset_rows", "synthetic_params", "eps_grid", "m_grid", "alpha_grid",
                    "mu0_low", "mu0_high"):
            if isinstance(data.get(key), list):
                data[key] = tuple(tuple(v) if isinstance(v, list) else v for v in data[key])
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def validate_for_rates(self, slope_grid: str | None = None):
        """Check the grids of a replicated experiment before any run; the
        experiment that fits a log-log slope over ``slope_grid`` needs three
        points on it."""
        for name in ("eps_grid", "m_grid", "alpha_grid"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size == 0:
                raise ValueError(f"{name} must be non-empty")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite (got {arr.tolist()})")
            if np.any(arr <= 0):
                raise ValueError(f"{name} must be strictly positive (got {arr.tolist()})")
            if not (np.all(np.diff(arr) > 0) or np.all(np.diff(arr) < 0)):
                raise ValueError(f"{name} must be sorted without repeats (got {arr.tolist()})")
        if slope_grid is not None and len(getattr(self, slope_grid)) < 3:
            raise ValueError(f"{slope_grid} must be at least 3 points to fit a slope "
                             f"(got {list(getattr(self, slope_grid))})")
        if self.replicas < 10:
            raise ValueError("rate experiments need at least 10 replicas")


_REFERENCE_DATASET = tuple(
    (theta, 0.2, 0.5 * float(np.sin(np.pi * theta))) for theta in (-1.0, -0.5, 0.0, 0.5, 1.0)
)


def reference_config(**overrides) -> ExperimentConfig:
    """The tanh reference instance used by the rate experiments."""
    cfg = ExperimentConfig(dataset_rows=_REFERENCE_DATASET)
    return replace(cfg, **overrides) if overrides else cfg


def build_coefficients(cfg: ExperimentConfig):
    if cfg.instance == "synthetic-1d":
        return _synthetic_1d(**dict(cfg.synthetic_params))
    if cfg.dataset_file:
        data = Dataset.from_file(cfg.dataset_file)
    else:
        data = Dataset.from_rows(np.asarray(cfg.dataset_rows, dtype=float))
    coeffs = NetworkCoefficients(data, ACTIVATIONS[cfg.activation])
    cfg.check_box_dimension(coeffs.dim)
    return coeffs


def _synthetic_1d(kappa=0.5, gamma=0.5, g_amp=0.5, g_freq=1.0) -> SyntheticCoefficients:
    """V(x, mu) = -kappa x + gamma (<y, mu> - x), G_p = +-g_amp sin(g_freq x)
    on two equal channels, with the exact linearisations of V."""
    kappa, gamma, g_amp, g_freq = (float(v) for v in (kappa, gamma, g_amp, g_freq))
    signs = np.array([1.0, -1.0])

    def g_batch(X, atoms, weights):
        vals = g_amp * np.sin(g_freq * X[:, 0])
        return vals[:, None, None] * signs[None, :, None]

    return SyntheticCoefficients(
        dim=1,
        n_channels=2,
        v_bar_batch=lambda X: -kappa * X,
        v_tilde_mean_batch=lambda X, atoms, weights: gamma * ((weights @ atoms)[None, :] - X),
        g_batch=g_batch,
        drift_jacobian_apply=lambda X, Y, atoms, weights: -(kappa + gamma) * Y,
        vtilde_y_apply=lambda X, base, tangents: np.full(X.shape, gamma * tangents.mean(axis=0)),
    )


def build_initial_spec(cfg: ExperimentConfig) -> InitialSpec:
    return InitialSpec(low=cfg.mu0_low, high=cfg.mu0_high)


# --------------------------------------------------------------------------
# result table
# --------------------------------------------------------------------------


RESULTS_HEADER = ("experiment", "param", "seed", "metric", "value")
RESULTS_SCHEMA_VERSION = 1


@dataclass
class ResultTable:
    """Long-format rows plus derived summary rows.

    Every row is stamped with the config hash and code version of the run
    (exposed on the table and written to summary.csv / run-meta.json; the
    results.csv header stays fixed to experiment,param,seed,metric,value).
    ``w2_backends`` counts the W2 cells each backend served; ``failures``
    names each failed cell and the error that failed it.
    """

    config: ExperimentConfig
    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    w2_backends: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)

    @property
    def config_hash(self) -> str:
        return self.config.config_hash()

    @property
    def code_version(self) -> str:
        return code_version

    def add_summary(self, **fields):
        fields.setdefault("config_hash", self.config_hash)
        fields.setdefault("code_version", self.code_version)
        self.summary.append(fields)

    def w2_backend_counts(self) -> str:
        """Each W2 backend with the cells it served, e.g. ``assignment:150``."""
        return " ".join(f"{name}:{count}" for name, count in sorted(self.w2_backends.items()))

    def _select(self, metric: str, param) -> list:
        key = None if param is None else str(param)
        return [r for r in self.rows if r[3] == metric and (key is None or r[1] == key)]

    def values(self, metric: str, param=None) -> np.ndarray:
        return np.asarray([r[4] for r in self._select(metric, param)], dtype=float)

    def values_by_seed(self, metric: str, param=None) -> dict:
        return {r[2]: r[4] for r in self._select(metric, param)}

    def matrix(self, cells: Sequence[tuple]) -> np.ndarray:
        """(replicas, len(cells)) matrix of the distinct ``(metric, param)``
        cells, replicas in row (seed) order, from one pass over the rows.  A
        replica with a failed (nan) or absent cell is dropped with a warning;
        a repeated cell raises ValueError and a cell with no rows KeyError."""
        column = {(metric, str(param)): k for k, (metric, param) in enumerate(cells)}
        if len(column) < len(cells):
            metric, param = next(c for k, c in enumerate(cells) if column[c[0], str(c[1])] != k)
            raise ValueError(f"cells must be distinct (got {metric} at param {param} more than once)")
        seeds, where, values = {}, [], []
        for _, param, seed, metric, value in self.rows:
            k = column.get((metric, param))
            if k is not None:
                where.append((seeds.setdefault(seed, len(seeds)), k))
                values.append(value)
        missing = sorted(set(range(len(cells))) - {k for _, k in where})
        if missing:
            names = ", ".join(f"{cells[k][0]} at param {cells[k][1]}" for k in missing)
            raise KeyError(f"no rows for {names}")
        matrix = np.full((len(seeds), len(cells)), np.nan)
        matrix[tuple(zip(*where))] = values
        bad = np.isnan(matrix).any(axis=1)
        if bad.any():
            warnings.warn(f"excluding {int(bad.sum())} replica(s) with failed cells")
            matrix = matrix[~bad]
        return matrix

    def write(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "results.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(RESULTS_HEADER)
            for row in self.rows:
                writer.writerow([row[0], row[1], row[2], row[3], f"{row[4]:.17g}"])
        keys = list(dict.fromkeys(k for entry in self.summary for k in entry))
        with open(os.path.join(out_dir, "summary.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for entry in self.summary:
                writer.writerow([entry.get(k, "") for k in keys])
        write_run_meta(self.config, out_dir, self.failures)


def write_run_meta(config: ExperimentConfig, out_dir, failures: Sequence[dict] = ()):
    """run-meta.json, one schema for every subcommand: the config echo, its
    hash, the code, numpy, scipy and results-schema versions, and one entry
    (experiment, param, seed, error) per failed cell."""
    meta = {
        "config": json.loads(config.to_json()),
        "config_hash": config.config_hash(),
        "code_version": code_version,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "schema_version": RESULTS_SCHEMA_VERSION,
        "failures": list(failures),
    }
    with open(os.path.join(out_dir, "run-meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# slope fitting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    ci_low: float | None = None
    ci_high: float | None = None


def _ols_slopes(x: np.ndarray, y: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The least-squares slope of each row of y (B, n) on x (n,), over the
    points where ``ok`` (B, n) holds, at least 2 of them per row."""
    n = ok.sum(axis=1, keepdims=True)
    dx = np.where(ok, x - np.where(ok, x, 0.0).sum(axis=1, keepdims=True) / n, 0.0)
    dy = np.where(ok, y - np.where(ok, y, 0.0).sum(axis=1, keepdims=True) / n, 0.0)
    return (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)


def fit_slope(params: Sequence[float], values) -> SlopeFit:
    """Ordinary least squares on log-log, bootstrap CI (level SLOPE_LEVEL)
    over replicas.

    ``values`` is either a vector of per-parameter means or a (replicas,
    n_params) matrix; nonpositive means are excluded with a warning.
    """
    params = np.asarray(params, dtype=float)
    matrix = np.atleast_2d(np.asarray(values, dtype=float))
    if matrix.shape[1] != params.size:
        raise ValueError("values do not match the parameter grid")
    means = matrix.mean(axis=0)
    mask = means > 0
    if not np.all(mask):
        warnings.warn(f"excluding {int((~mask).sum())} nonpositive metric value(s) from the fit")
    if mask.sum() < 3:
        raise ValueError("need at least 3 positive grid points to fit a slope")
    logx = np.log(params[mask])
    slope, intercept = np.polyfit(logx, np.log(means[mask]), 1)
    ci_low = ci_high = None
    if matrix.shape[0] > 1:
        n_rep = matrix.shape[0]
        # one draw of every resample's replicas, the stream of one draw per resample
        picks = seeded_rng(_SLOPE_SEED, "slope-bootstrap").integers(0, n_rep, size=(_SLOPE_BOOT, n_rep))
        # resample means (resamples, points), summed replica by replica as
        # ``mean`` sums them, without the (resamples, replicas, points) gather
        columns = matrix[:, mask]
        resampled = sum(columns[picks[:, r]] for r in range(n_rep)) / n_rep
        ok = resampled > 0
        fits = ok.sum(axis=1) >= 3
        boot = _ols_slopes(logx, np.log(np.where(ok, resampled, 1.0))[fits], ok[fits])
        boot = boot[np.isfinite(boot)]
        if boot.size:
            ci_low, ci_high = np.percentile(boot, [50 - 50 * SLOPE_LEVEL, 50 + 50 * SLOPE_LEVEL])
    return SlopeFit(float(slope), float(intercept), ci_low, ci_high)


# --------------------------------------------------------------------------
# the replica runner
# --------------------------------------------------------------------------


# what a grid cell may raise and still leave rows: a diverged run, or an atom
# outside a fixed spectral box
_CELL_ERRORS = (SimulationError, SpectralBoxError)


def _parallel(fn: Callable, items: Iterable, threads: int) -> list:
    if threads <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


class Replica:
    """The coupled runs of one replica.

    Every run consumes the one NoisePath of ``seed``, and runs of the same
    particle count start from the same atoms: ``seed`` draws the shared
    ensemble, ``seed * 1000003 + M`` the ensemble of an M-particle run.  A
    run is named by the arguments of ``run``, a tuple (eps, n, per_m) whose
    tail may be left out.  Each run is computed once and kept in
    ``results``, a failed one as the error it raised, so a base run that
    several cells share fails each of them.  The runs an experiment names
    together in ``coupled`` are integrated as one batch, whatever their
    sizes: runs of one size as its (B, N, d) reshape, bit for bit their
    own runs, and runs of different sizes as one segmented batch, equal to
    their own runs to rounding (``coupled_step``).  Coefficients and noise
    are built on first use, in the process that runs the cells.
    """

    def __init__(self, config: ExperimentConfig, seed: int, stride: int, coeffs=None):
        self.config = config
        self.seed = seed
        self.base = IntegratorConfig(dt=config.dt, horizon=config.horizon, eps=0.0,
                                     snapshot_stride=stride)
        self.results: dict = {}
        self.w2_backends: Counter = Counter()
        if coeffs is not None:
            self.coeffs = coeffs

    @cached_property
    def coeffs(self):
        return build_coefficients(self.config)

    @cached_property
    def noise(self) -> NoisePath:
        return NoisePath(self.seed, self.config.dt, self.base.n_steps, self.coeffs.n_channels)

    def shared(self, key, compute: Callable):
        """``compute()``, evaluated once per key; its failure is raised again
        at every later call."""
        if key not in self.results:
            try:
                self.results[key] = compute()
            except _CELL_ERRORS as exc:
                self.results[key] = exc
        value = self.results[key]
        if isinstance(value, Exception):
            raise value
        return value

    def initial(self, n: int | None = None, per_m: bool = False):
        """n initial atoms (default n_particles): the shared ensemble, or with
        ``per_m`` the ensemble of the n-particle run."""
        n = self.config.n_particles if n is None else int(n)
        seed = self.seed * 1000003 + n if per_m else self.seed
        return self.shared(("initial", n, per_m),
                           lambda: sample_initial(build_initial_spec(self.config), n, seed))

    def _key(self, eps: float, n: int | None = None, per_m: bool = False) -> tuple:
        return ("run", float(eps), self.config.n_particles if n is None else int(n), bool(per_m))

    def run(self, eps: float, n: int | None = None, per_m: bool = False) -> Trajectory:
        """The run at noise scale eps (0: the transport run) from
        ``initial(n, per_m)``, integrated alone unless ``coupled`` kept it."""
        self.coupled([(eps, n, per_m)])
        return self.shared(self._key(eps, n, per_m), None)

    def coupled(self, runs: Iterable[tuple], tangent: bool = False):
        """Integrate the runs ``run(*a)`` for every ``a`` of ``runs`` not yet
        kept, and with ``tangent`` the tangent solve, as one batch
        (``simulate_coupled``), whatever their sizes.  Each is kept under
        the key that ``run`` / ``tangent`` read; a diverged one as its own
        error."""
        keys = {self._key(*a): a for a in runs}
        if tangent:
            keys[("tangent",)] = (0.0,)
        keys = {key: a for key, a in keys.items() if key not in self.results}
        if not keys:
            return
        try:
            integrated = simulate_coupled([(self.initial(*a[1:]), a[0]) for a in keys.values()],
                                          self.coeffs, self.base, self.noise,
                                          tangent=("tangent",) in keys)
        except _CELL_ERRORS as exc:
            integrated = [exc] * len(keys)
        self.results.update(zip(keys, integrated))

    def snapshots(self, eps: float, n: int | None = None, per_m: bool = False) -> SortedAtoms:
        """The snapshots of ``run(eps, n, per_m)``, checked and sorted once for
        every W2 cell of the replica that compares against them."""
        run = self.run(eps, n, per_m)
        return self.shared(("snapshots", *self._key(eps, n, per_m)[1:]),
                           lambda: SortedAtoms.of(run.positions, run.weights))

    def sup_w2_sq(self, a: tuple, b: tuple) -> float:
        """sup_t W2^2 between the runs ``run(*a)`` and ``run(*b)``, counting the
        backend that served it in ``w2_backends``.  ``w2_sup`` solves only the
        snapshots that the particle-index coupling bound leaves open: runs of
        one ensemble are coupled, and one solve usually settles the sup."""
        sup, backend = w2_sup(self.snapshots(*a), self.snapshots(*b))
        self.w2_backends[backend] += 1
        return sup * sup

    def tangent(self) -> Trajectory:
        """The transport run of the shared ensemble, with its tangents: the
        tangent member of ``coupled``."""
        self.coupled([], tangent=True)   # keeps the run, or its error, under ("tangent",)
        return self.shared(("tangent",), None)


def _guarded_cell(rows: list, failures: list, experiment: str, param, seed: int, metric: str, fn):
    """Run one grid cell; a simulation failure or spectral box violation
    becomes a recorded failure row plus a nan metric, and an entry of
    ``failures`` with its error, instead of killing the experiment."""
    try:
        rows.append((experiment, str(param), seed, metric, float(fn())))
    except _CELL_ERRORS as exc:
        warnings.warn(f"{experiment} cell param={param} seed={seed} failed: {exc}")
        failures.append({"experiment": experiment, "param": str(param), "seed": seed, "error": str(exc)})
        rows.append((experiment, str(param), seed, "failed", 1.0))
        rows.append((experiment, str(param), seed, metric, float("nan")))


def _replica_rows(experiment: str, cells: Callable, rep: Replica) -> tuple[list, Counter, list]:
    rows, failures = [], []
    for param, metric, fn in cells(rep):
        _guarded_cell(rows, failures, experiment, param, rep.seed, metric, fn)
    return rows, rep.w2_backends, failures


def _run_replicas(experiment: str, cells: Callable, config: ExperimentConfig,
                  replicas: Iterable[Replica] | None = None) -> "ResultTable":
    """A table of every replica's rows, in seed order.

    ``cells(rep)`` lists the (param, metric, thunk) grid cells of replica
    ``rep`` and each becomes rows through _guarded_cell.  Replica r runs on
    seed base_seed + r, by default with the snapshot stride of the config;
    the worker count changes no number.
    """
    if replicas is None:
        replicas = (Replica(config, config.base_seed + r, config.snapshot_stride)
                    for r in range(config.replicas))
    per_replica = _parallel(partial(_replica_rows, experiment, cells), replicas, config.threads)
    return ResultTable(config, [row for rows, _, _ in per_replica for row in rows],
                       w2_backends=sum((backends for _, backends, _ in per_replica), Counter()),
                       failures=[f for _, _, failures in per_replica for f in failures])


def _grid_summary(table: "ResultTable", experiment: str, metric: str, params,
                  fit_row: dict, stderr: bool = True) -> np.ndarray | None:
    """Per-param mean (and stderr) summary rows over the replicas whose cells
    all succeeded, returning their (replicas, params) matrix.  When no replica
    did, ``fit_row`` is written flagged ``all_cells_failed`` and None returned."""
    matrix = table.matrix([(metric, p) for p in params])
    if matrix.shape[0] == 0:
        table.add_summary(experiment=experiment, **fit_row, all_cells_failed=True)
        return None
    for k, param in enumerate(params):
        column = matrix[:, k]
        spread = {"stderr": column.std(ddof=1) / np.sqrt(matrix.shape[0])} if stderr else {}
        table.add_summary(experiment=experiment, param=str(param), metric=metric,
                          mean=column.mean(), **spread)
    return matrix


def w2_sq_to_uniform_1d(samples: np.ndarray, low: float, high: float) -> float:
    """Exact squared W2 between an empirical measure and Uniform[low, high]."""
    if not high > low:
        raise ValueError(f"high must be > low for a uniform law (got low={low!r}, high={high!r})")
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    m = x.size
    c = high - low
    q = np.arange(m + 1) / m
    # integral of (x_i - low - c q)^2 over [q_i, q_{i+1}] in closed form
    a_left = x - low - c * q[:-1]
    a_right = x - low - c * q[1:]
    return float(np.sum(a_left**3 - a_right**3) / (3.0 * c))


# --------------------------------------------------------------------------
# LLN rate: E sup_t W2^2(mu^eps, mu^0) vs eps
# --------------------------------------------------------------------------


def _lln_cells(rep: Replica) -> list:
    rep.coupled([(eps,) for eps in (*rep.config.eps_grid, 0.0)])
    return [(eps, "sup_w2_sq", partial(rep.sup_w2_sq, (float(eps),), (0.0,)))
            for eps in rep.config.eps_grid]


def _eps_rate_summary(table: ResultTable, experiment: str, metric: str,
                      **fit_fields) -> ResultTable:
    """Per-eps mean and stderr rows, then the log-log slope of the means."""
    eps_grid = table.config.eps_grid
    matrix = _grid_summary(table, experiment, metric, eps_grid,
                           dict(metric="slope", slope=float("nan")))
    if matrix is None:
        return table
    if np.all(matrix.mean(axis=0) < 1e-20):
        # degenerate noise (G = 0 up to rounding): no slope to fit
        table.add_summary(experiment=experiment, metric="slope", slope=float("nan"),
                          degenerate=True)
        return table
    fit = fit_slope(eps_grid, matrix)
    table.add_summary(experiment=experiment, metric="slope", slope=fit.slope,
                      intercept=fit.intercept, ci_low=fit.ci_low, ci_high=fit.ci_high,
                      **fit_fields)
    return table


def exp_lln_rate(config: ExperimentConfig) -> ResultTable:
    config.validate_for_rates("eps_grid")
    table = _run_replicas("lln-rate", _lln_cells, config)
    return _eps_rate_summary(table, "lln-rate", "sup_w2_sq", w2_backends=table.w2_backend_counts())


# --------------------------------------------------------------------------
# particle sampling rate and dynamic amplification
# --------------------------------------------------------------------------


def _particle_cells(eps: float, n_ref: int, rep: Replica) -> list:
    low, high = float(rep.config.mu0_low[0]), float(rep.config.mu0_high[0])
    rep.coupled([*((eps, m, True) for m in map(int, rep.config.m_grid)), (eps, n_ref)])
    ref = rep.initial(n_ref).as_measure()

    def amplification(m: int, gap: float) -> float:
        return rep.sup_w2_sq((eps, m, True), (eps, n_ref)) / gap if gap > 0 else np.nan

    cells = []
    for m in map(int, rep.config.m_grid):
        start = rep.initial(m, per_m=True)
        gap = w2(start.as_measure(), ref) ** 2
        cells += [
            (m, "w2_sq_initial", partial(w2_sq_to_uniform_1d, start.positions[:, 0], low, high)),
            (m, "w2_sq_initial_vs_ref", partial(float, gap)),
            (m, "amplification", partial(amplification, m, gap)),
        ]
    return cells


def exp_particle_rate(config: ExperimentConfig) -> ResultTable:
    config.validate_for_rates("m_grid")
    if config.instance != "synthetic-1d":
        raise ValueError("the particle-rate experiment runs on the 1-d synthetic instance")
    if np.any(np.asarray(config.mu0_high) <= np.asarray(config.mu0_low)):
        raise ValueError(f"mu0_high must be > mu0_low: the initial law is compared with a "
                         f"uniform one (got mu0_low={config.mu0_low!r}, mu0_high={config.mu0_high!r})")
    n_ref = 20 * int(max(config.m_grid))
    table = _run_replicas("particle-rate", partial(_particle_cells, _PARTICLE_RATE_EPS, n_ref), config)
    m_grid = [int(m) for m in config.m_grid]
    static = table.matrix([("w2_sq_initial", m) for m in m_grid])
    fit = fit_slope(m_grid, static)
    table.add_summary(experiment="particle-rate", metric="slope_initial", slope=fit.slope,
                      intercept=fit.intercept, ci_low=fit.ci_low, ci_high=fit.ci_high)
    for k, m in enumerate(m_grid):
        amps = table.matrix([("amplification", m)])[:, 0]   # the replicas whose cell ran
        table.add_summary(experiment="particle-rate", param=str(m), metric="amplification",
                          mean=float(amps.mean()) if amps.size else np.nan,
                          stderr=float(amps.std(ddof=1) / np.sqrt(amps.size)) if amps.size > 1 else np.nan)
        table.add_summary(experiment="particle-rate", param=str(m), metric="w2_sq_initial",
                          mean=float(static[:, k].mean()),
                          stderr=float(static[:, k].std(ddof=1) / np.sqrt(static.shape[0])))
    return table


# --------------------------------------------------------------------------
# CLT rate: E sup_t ||eta^eps - eta||^2_{-J} vs eps
# --------------------------------------------------------------------------


def _clt_runs(rep: Replica) -> dict:
    """The eps runs and the tangent solve (the transport run) of one clt-rate
    replica, one batch, each kept, or the error it raised, for the box and
    then the norms."""
    rep.coupled([(eps,) for eps in rep.config.eps_grid], tangent=True)
    return rep.results


def _clt_cells(grid: SpectralGrid, rep: Replica) -> list:
    eps_grid = [float(eps) for eps in rep.config.eps_grid]

    def sup_sq() -> dict:
        """sup_t ||eta^eps - eta||^2_{-J} per eps, in one pass over the
        snapshots; an eps run that failed or leaves the box maps to the error
        that fails its cell alone."""
        tangent = rep.tangent()
        out, paths = {}, {}
        for eps in eps_grid:
            try:
                run = rep.run(eps)
                grid.check_inside(run.positions)
            except _CELL_ERRORS as exc:
                out[eps] = exc
            else:
                paths[eps] = eta_eps(run, tangent, eps)
        if paths:
            sups, _ = clt_distance(list(paths.values()), tangent, grid)
            out.update(zip(paths, sups * sups))
        return out

    def cell(eps: float) -> float:
        value = rep.shared(("sup_hneg_sq",), sup_sq)[eps]
        if isinstance(value, Exception):
            raise value
        return value

    return [(eps, "sup_hneg_sq", partial(cell, eps)) for eps in eps_grid]


def exp_clt_rate(config: ExperimentConfig) -> ResultTable:
    config.validate_for_rates("eps_grid")
    _check_sobolev_order("sobolev_j", config.sobolev_j, len(config.mu0_low))
    replicas = [Replica(config, config.base_seed + r, config.clt_snapshot_stride)
                for r in range(config.replicas)]
    for rep, results in zip(replicas, _parallel(_clt_runs, replicas, config.threads)):
        rep.results = results
    if config.r_box is not None:
        r_box = float(config.r_box)
    else:
        # global bounding box over every kept run, the tangent solve included,
        # 20% margin; nan when every run failed, and then no cell reaches the norm
        r_box = 1.2 * max((float(np.max(np.abs(run.positions)))
                           for rep in replicas for run in rep.results.values()
                           if isinstance(run, Trajectory)), default=np.nan)
    grid = SpectralGrid(r_box=r_box, k_max=config.k_max, j=config.sobolev_j)
    table = _run_replicas("clt-rate", partial(_clt_cells, grid), config, replicas)
    return _eps_rate_summary(table, "clt-rate", "sup_hneg_sq", r_box=r_box)


# --------------------------------------------------------------------------
# SGD vs stochastic mean-field comparison
# --------------------------------------------------------------------------


def _sgd_phi_panel(dim: int) -> list[TestFunction]:
    return [gaussian_bump(np.zeros(dim), 1.0, name="bump0"),
            gaussian_bump(np.full(dim, 0.5), 0.75, name="bump1")]


def _sgd_snapshots(config: ExperimentConfig) -> range:
    return range(_record_indices(int(round(config.horizon / config.dt)),
                                 config.snapshot_stride).size)


def _sgd_values(rep: Replica, m: int, panel: list) -> np.ndarray:
    """<phi, mu_t> of the eps = 1/M stochastic mean-field run and <phi, nu_t>
    of SGD with alpha = 1/M, P = 1 and time embedding floor(M t), both from
    the same M atoms, per snapshot and phi (smfe first)."""
    chain = run_sgd(rep.coeffs, m, alpha=1.0 / m, batch_size=1,
                    n_steps=int(np.ceil(m * rep.config.horizon)), seed=rep.seed,
                    initial=rep.initial(m, per_m=True).positions)
    traj = rep.run(1.0 / m, m, per_m=True)
    steps = np.minimum(np.floor(m * traj.times).astype(int), chain.n_steps)
    positions = np.stack([traj.positions, chain.positions[steps]])    # (2, S, M, d)
    atoms = positions.reshape(-1, positions.shape[-1])
    values = np.stack([phi.value(atoms).reshape(positions.shape[:-1]) @ traj.weights
                       for phi in panel])                              # (phi, 2, S)
    return values.transpose(2, 0, 1).ravel()


def _sgd_cells(rep: Replica) -> list:
    rep.coupled([(1.0 / m, m, True) for m in map(int, rep.config.m_grid)])
    panel = _sgd_phi_panel(rep.coeffs.dim)
    metrics = [f"{kind}:{phi.name}:{s}" for s in _sgd_snapshots(rep.config)
               for phi in panel for kind in ("smfe", "sgd")]
    cells = []
    for m in map(int, rep.config.m_grid):
        values = partial(rep.shared, ("sgd", m), partial(_sgd_values, rep, m, panel))
        cells += [(m, metric, lambda i=i, v=values: v()[i]) for i, metric in enumerate(metrics)]
    return cells


def _sgd_series(table: "ResultTable", phi_name: str, m_grid: Sequence[int]) -> np.ndarray:
    """(M, smfe|sgd, snapshots, replicas) array of <phi, mu_t> and <phi, nu_t>
    over the replicas that ran at every M of ``m_grid``, in one table read."""
    snapshots = _sgd_snapshots(table.config)
    matrix = table.matrix([(f"{kind}:{phi_name}:{s}", m) for m in m_grid
                           for kind in ("smfe", "sgd") for s in snapshots])
    return matrix.T.reshape(len(m_grid), 2, len(snapshots), matrix.shape[0])


def exp_sgd_compare(config: ExperimentConfig) -> ResultTable:
    config.validate_for_rates()
    table = _run_replicas("sgd-compare", _sgd_cells, config)
    for m in map(int, config.m_grid):
        for phi in _sgd_phi_panel(len(config.mu0_low)):
            ((smfe, sgd),) = _sgd_series(table, phi.name, [m])
            g = w2_replica = np.nan   # unless some replica ran at this M
            if smfe.shape[1]:
                g = max(abs(a.mean() - b.mean()) for a, b in zip(smfe, sgd))
                # distance between the replica distributions of <phi, .> at T
                a, b = np.sort(smfe[-1]), np.sort(sgd[-1])
                w2_replica = float(np.sqrt(np.mean((a - b) ** 2)))
            table.add_summary(experiment="sgd-compare", param=str(m),
                              metric=f"g:{phi.name}", mean=g,
                              sqrt_m_g=float(np.sqrt(m) * g))
            table.add_summary(experiment="sgd-compare", param=str(m),
                              metric=f"w2_replica:{phi.name}", mean=w2_replica)
    return table


def sgd_trend_gate(table: ResultTable, phi_name: str, m_grid: Sequence[int]) -> tuple[bool, list]:
    """Check sqrt(M) g(M) non-increasing in M within a bootstrap CI.

    For each adjacent pair M1 < M2 of the grid, in ascending order, the gate
    fails only when the bootstrap CI of the increment sqrt(M2) g(M2) -
    sqrt(M1) g(M1) lies entirely above zero.  It also fails when no replica
    ran at every M.  Fewer than two distinct M, or a repeated one, raise
    ValueError; an unknown ``phi_name`` or an M not in the table KeyError.
    """
    m_grid = sorted(int(m) for m in m_grid)
    if len(set(m_grid)) < 2:
        raise ValueError(f"m_grid must hold at least two distinct M for a trend (got {m_grid})")
    rng = seeded_rng(_TREND_SEED, "sgd-trend")
    series = _sgd_series(table, phi_name, m_grid)
    n_rep = series.shape[-1]
    if n_rep == 0:
        return False, []
    sqrt_m = np.sqrt(m_grid)

    def stat(idx: np.ndarray) -> np.ndarray:
        means = series[..., idx].mean(axis=-1)    # (M, smfe|sgd, S)
        return sqrt_m * np.abs(means[:, 0] - means[:, 1]).max(axis=-1)

    base = stat(np.arange(n_rep))
    boots = np.array([stat(rng.integers(0, n_rep, size=n_rep)) for _ in range(_TREND_BOOT)])
    lo_q, hi_q = 100 * (1 - TREND_LEVEL) / 2, 100 * (1 + TREND_LEVEL) / 2
    lo, hi = np.percentile(np.diff(boots, axis=1), [lo_q, hi_q], axis=0)
    return not np.any(lo > 0), [tuple(map(float, v)) for v in zip(np.diff(base), lo, hi)]


# --------------------------------------------------------------------------
# commuting-limits square
# --------------------------------------------------------------------------


def _commute_cells(n_ref: int, rep: Replica) -> list:
    cell = partial(rep.sup_w2_sq, b=(0.0, n_ref))
    alpha_min = float(min(rep.config.alpha_grid))
    rep.coupled([(alpha_min, n_ref), (0.0, n_ref)])
    cells = []
    for m in map(int, rep.config.m_grid):
        rep.coupled([(alpha, m, True) for alpha in (*rep.config.alpha_grid, 0.0)])
        cells += [(f"{m}:{alpha}", "sup_w2_sq", partial(cell, (float(alpha), m, True)))
                  for alpha in rep.config.alpha_grid]
        # alpha -> 0 edge at this M
        cells.append((f"{m}:0", "sup_w2_sq", partial(cell, (0.0, m, True))))
    # M -> infinity edge at the smallest noise scale
    cells.append((f"ref:{alpha_min}", "sup_w2_sq", partial(cell, (alpha_min, n_ref, False))))
    return cells


def exp_commute(config: ExperimentConfig) -> ResultTable:
    config.validate_for_rates()
    n_ref = 5 * int(max(config.m_grid))
    table = _run_replicas("commute", partial(_commute_cells, n_ref), config)
    m_grid = [int(m) for m in config.m_grid]
    alphas = [float(a) for a in config.alpha_grid]
    matrix = _grid_summary(table, "commute", "sup_w2_sq",
                           [f"{m}:{alpha}" for m in m_grid for alpha in alphas],
                           dict(metric="surface_fit"), stderr=False)
    if matrix is None:
        return table
    design = np.array([[alpha, 1.0 / m] for m in m_grid for alpha in alphas])
    target = np.array([column.mean() for column in matrix.T])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.linalg.norm(design @ coef - target) / np.linalg.norm(target))
    edges = table.matrix([("sup_w2_sq", f"{max(m_grid)}:0"), ("sup_w2_sq", f"ref:{min(alphas)}")])
    table.add_summary(experiment="commute", metric="surface_fit", c_alpha=float(coef[0]),
                      c_inv_m=float(coef[1]), rel_residual=residual,
                      endpoint_alpha_then_m=float(edges[:, 0].mean()),
                      endpoint_m_then_alpha=float(edges[:, 1].mean()),
                      w2_backends=table.w2_backend_counts())
    return table
