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
import ctypes
import glob
import hashlib
import itertools
import json
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
from ._checks import check_box, check_integer, check_real, check_vector, is_real
from .coefficients import ACTIVATIONS, Dataset, NetworkCoefficients, SyntheticCoefficients
from .diagnostics import TestFunction, gaussian_bump
from .dynamics import (
    InitialSpec,
    IntegratorConfig,
    NoisePath,
    SgdChain,
    SimulationError,
    Trajectory,
    _record_indices,
    embedded_step,
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
_TREND_CHUNK = 50   # trend-gate resamples averaged per gather
_PARTICLE_RATE_EPS = 0.05


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
        for name in ("dataset_file", "out_dir"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValueError(f"{name} must be a path or null (got {getattr(self, name)!r})")
        params = self.synthetic_params
        if not (isinstance(params, (tuple, list))
                and all(isinstance(kv, (tuple, list)) and len(kv) == 2 and kv[0] in _SYNTHETIC_PARAMS
                        and is_real(kv[1], finite=True) for kv in params)
                and len({kv[0] for kv in params}) == len(params)):
            raise ValueError(f"synthetic_params must be (name, finite number) pairs with distinct names "
                             f"from {list(_SYNTHETIC_PARAMS)} (got {params!r})")
        for name in ("eps_grid", "m_grid", "alpha_grid", "mu0_low", "mu0_high"):
            grid = getattr(self, name)
            if not (isinstance(grid, (tuple, list)) and all(map(is_real, grid))):
                raise ValueError(f"{name} must be a sequence of numbers (got {grid!r})")
        if not all(float(m).is_integer() for m in self.m_grid):
            raise ValueError(f"m_grid must be whole particle counts (got {self.m_grid!r})")
        for name, low in (("n_particles", 1), ("replicas", 1), ("threads", 1), ("snapshot_stride", 1),
                          ("clt_snapshot_stride", 1), ("sobolev_j", 1), ("k_max", 8), ("base_seed", 0)):
            check_integer(name, getattr(self, name), low)
        IntegratorConfig(self.dt, self.horizon)   # dt, horizon and a whole number of steps
        if self.r_box is not None:
            check_real("r_box", self.r_box)
        rows = self.dataset_rows
        if not (isinstance(rows, (tuple, list))
                and all(isinstance(row, (tuple, list)) and all(map(is_real, row)) for row in rows)):
            raise ValueError(f"dataset_rows must be a sequence of rows of numbers (got {rows!r})")
        check_box(self.mu0_low, self.mu0_high, ("mu0_low", "mu0_high"))
        # the parameter dimension: 1, or the data's input width plus the output weight
        dim = 1 if self.instance == "synthetic-1d" else _dataset(self).input_dim + 1
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
        """The hash of the results' config: the worker count and the output
        directory change no number, so they are hashed at their defaults."""
        data = {**asdict(self), "threads": 1, "out_dir": None}
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]

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
            raise ValueError(f"replicas must be at least 10 for a rate experiment (got {self.replicas})")


_REFERENCE_DATASET = tuple(
    (theta, 0.2, 0.5 * float(np.sin(np.pi * theta))) for theta in (-1.0, -0.5, 0.0, 0.5, 1.0)
)


def reference_config(**overrides) -> ExperimentConfig:
    """The tanh reference instance used by the rate experiments."""
    cfg = ExperimentConfig(dataset_rows=_REFERENCE_DATASET)
    return replace(cfg, **overrides) if overrides else cfg


def _dataset(cfg: ExperimentConfig) -> Dataset:
    """The dataset of ``dataset_file``, else of ``dataset_rows``; one that
    cannot be read, or is no table of (theta.., weight, label) rows whose
    weights sum to 1, raises ValueError naming the field it came from."""
    name, read = ("dataset_file", Dataset.from_file) if cfg.dataset_file else ("dataset_rows", Dataset.from_rows)
    try:
        return read(getattr(cfg, name))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{name} must be a table of rows (theta.., weight, label) of numbers "
                         f"(got {getattr(cfg, name)!r}: {exc})") from exc


def build_coefficients(cfg: ExperimentConfig):
    if cfg.instance == "synthetic-1d":
        return _synthetic_1d(**dict(cfg.synthetic_params))
    return NetworkCoefficients(_dataset(cfg), ACTIVATIONS[cfg.activation])


def _synthetic_1d(kappa=0.5, gamma=0.5, g_amp=0.5, g_freq=1.0) -> SyntheticCoefficients:
    """V(x, mu) = -kappa x + gamma (<y, mu> - x), G_p = +-g_amp sin(g_freq x)
    on two equal channels, with the exact linearisations of V."""
    kappa, gamma, g_amp, g_freq = (float(v) for v in (kappa, gamma, g_amp, g_freq))
    return SyntheticCoefficients(
        dim=1,
        n_channels=2,
        v_bar_batch=lambda X: -kappa * X,
        v_tilde_mean_batch=lambda X, atoms, weights: gamma * ((weights @ atoms)[None, :] - X),
        g_apply=lambda X, atoms, weights, c: g_amp * np.sin(g_freq * X) * (c[0] - c[1]),
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

    @cached_property
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
            # every row in one formatting pass, unless a field holds a comma,
            # quote or line break and so needs csv's quoting
            n = len(self.rows)
            text = ("%s,%s,%d,%s,%.17g\r\n" * n) % tuple(itertools.chain.from_iterable(self.rows))
            if '"' in text or text.count(",") > 4 * n or text.count("\r") > n or text.count("\n") > n:
                writer.writerows([*row[:4], f"{row[4]:.17g}"] for row in self.rows)
            else:
                fh.write(text)
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

    ``params`` must be finite, strictly positive and free of repeats.
    ``values`` is either a vector of per-parameter means or a (replicas,
    n_params) matrix; nonpositive or non-finite means are excluded with a
    warning.
    """
    params = check_vector("params", params)
    if np.any(params <= 0) or np.unique(params).size < params.size:
        raise ValueError(f"params must be strictly positive and free of repeats (got {params.tolist()})")
    matrix = np.atleast_2d(np.asarray(values, dtype=float))
    if matrix.shape[1] != params.size:
        raise ValueError(f"values must be one column per parameter (got {matrix.shape[1]} for {params.size})")
    means = matrix.mean(axis=0)
    mask = np.isfinite(means) & (means > 0)
    if not np.all(mask):
        warnings.warn(f"excluding {int((~mask).sum())} nonpositive or non-finite metric value(s) from the fit")
    if mask.sum() < 3:
        raise ValueError(f"values must have a positive mean at 3 grid points or more to fit a slope "
                         f"(got {int(mask.sum())})")
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
# particle rows a pack of replicas integrates as one batch: a step of one
# sgd-compare replica's 350 rows is mostly call overhead, 39 us alone and
# 14-18 us a replica when 5 to 11 share it; a step of lln-rate's runs costs
# 45 / 34 / 31 / 68 ns a row at 1200 / 3600 / 6000 / 9600 rows.  6144 ran
# lln-rate 5% faster and sgd-compare 2% slower (2-core Xeon host)
_PACK_ROWS = 4096


def _one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread in this process, if it has
    one: workers that each run a threaded BLAS oversubscribe the cores.
    Without the library or its setter this does nothing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        ctypes.CDLL(libs[0]).scipy_openblas_set_num_threads64_(1)
    except (IndexError, OSError, AttributeError):
        pass


def _parallel(fn: Callable, items: Iterable, threads: int) -> list:
    """``fn`` of every item, in order: in this process, taking each item as
    it comes, or with ``threads`` > 1 in a pool of that many workers, or one
    per item if fewer (a pool forks all its workers at once), each with one
    BLAS thread."""
    if threads <= 1:
        return [fn(item) for item in items]
    items = list(items)
    with ProcessPoolExecutor(max_workers=min(threads, len(items)), initializer=_one_blas_thread) as ex:
        return list(ex.map(fn, items))


def _run_key(config: ExperimentConfig, eps: float, n: int | None = None, per_m: bool = False,
             kind: str = "run") -> tuple:
    """The key of the run ``Replica.run(eps, n, per_m)``, or with ``kind``
    "tangent" (eps 0, n_particles) of the tangent solve."""
    return (kind, float(eps), config.n_particles if n is None else int(n), bool(per_m))


class Replica:
    """The coupled runs of one replica.

    Every run consumes the one NoisePath of ``seed``, and runs of the same
    particle count start from the same atoms: ``seed`` draws the shared
    ensemble, ``seed * 1000003 + M`` the ensemble of an M-particle run.
    What a replica integrates is named by its key in ``results``: a run
    ``("run", eps, n, per_m)`` (``_run_key``), the tangent solve
    ``("tangent", 0.0, n_particles, False)`` and the SGD chain of M atoms
    ``("chain", M)``.  Each is computed once and kept there, a failed one as
    the error it raised, so a base run that several cells share fails each
    of them.  An experiment names its keys once, as a list, and the runner
    integrates them for a pack of consecutive replicas (``_couple``) before
    the cells read them through ``kept``; a key no pack integrated is
    integrated alone.  Coefficients and noise are built on first use, in the
    process that runs the cells.
    """

    def __init__(self, config: ExperimentConfig, seed: int, stride: int):
        self.config = config
        self.seed = seed
        self.base = IntegratorConfig(dt=config.dt, horizon=config.horizon, eps=0.0,
                                     snapshot_stride=stride)
        self.results: dict = {}
        self.w2_backends: Counter = Counter()

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

    def kept(self, key: tuple):
        """What ``key`` names, integrated alone unless a pack kept it; its
        failure is raised."""
        _couple([self], [key])
        return self.shared(key, None)

    def run(self, eps: float, n: int | None = None, per_m: bool = False) -> Trajectory:
        """The run at noise scale eps (0: the transport run) from
        ``initial(n, per_m)``."""
        return self.kept(_run_key(self.config, eps, n, per_m))

    def snapshots(self, eps: float, n: int | None = None, per_m: bool = False) -> SortedAtoms:
        """The snapshots of ``run(eps, n, per_m)``, checked and sorted once for
        every W2 cell of the replica that compares against them."""
        run = self.run(eps, n, per_m)
        return self.shared(("snapshots", *_run_key(self.config, eps, n, per_m)[1:]),
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
        """The transport run of the shared ensemble, with its tangents."""
        return self.kept(_run_key(self.config, 0.0, kind="tangent"))

    def chain(self, m: int) -> SgdChain:
        """The SGD chain from ``initial(m, per_m=True)`` at alpha = 1/M and
        batch size 1, over ceil(M T) steps on the batches of ``seed``."""
        return self.kept(("chain", int(m)))


def _couple(pack: Sequence[Replica], keys: Sequence[tuple]):
    """Integrate the ``keys`` that the replicas of ``pack`` have not kept:
    the run and tangent keys of them all as one ``simulate_coupled`` batch,
    each on its replica's noise path, the tangent solves carrying one
    tangent system each; then the chain keys of each M as one lockstep
    ``run_sgd`` call, each chain on its replica's batch stream.  Each is
    kept under its key, a diverged one as its own error."""
    todo = [(rep, key) for rep in pack for key in keys if key[0] != "chain" and key not in rep.results]
    if todo:
        try:
            integrated = simulate_coupled([(rep.initial(*key[2:]), key[1]) for rep, key in todo],
                                          pack[0].coeffs, pack[0].base, [rep.noise for rep, _ in todo],
                                          tangent=[b for b, (_, key) in enumerate(todo) if key[0] == "tangent"])
        except _CELL_ERRORS as exc:
            integrated = [exc] * len(todo)
        for (rep, key), result in zip(todo, integrated):
            rep.results[key] = result
    # the chains come after the runs' batch is freed: before it, a pack's
    # chains (0.9 MB at the sgd-compare benchmark config) add to its peak;
    # every run and tangent key is kept by now
    for key in keys:
        todo = [rep for rep in pack if key not in rep.results]
        if todo:
            m = key[1]
            batch = run_sgd(pack[0].coeffs, m, alpha=1.0 / m, batch_size=1,
                            n_steps=int(embedded_step(m, pack[0].config.horizon, up=True)),
                            seed=[rep.seed for rep in todo],
                            initial=np.stack([rep.initial(m, per_m=True).positions for rep in todo]))
            for rep, chain in zip(todo, batch.chains()):
                rep.results[key] = chain


def _guarded_cell(rows: list, failures: list, experiment: str, param, seed: int, metric, fn):
    """Run one grid cell, which names one metric, or a tuple of them and gives
    one value per name.  A simulation failure or spectral box violation
    becomes, for each name, a recorded failure row plus a nan metric, and an
    entry of ``failures`` with its error, instead of killing the experiment."""
    names = (metric,) if isinstance(metric, str) else metric
    param = str(param)
    try:
        values = fn()
    except _CELL_ERRORS as exc:
        for name in names:
            warnings.warn(f"{experiment} cell param={param} seed={seed} failed: {exc}")
            failures.append({"experiment": experiment, "param": param, "seed": seed, "error": str(exc)})
            rows.append((experiment, param, seed, "failed", 1.0))
            rows.append((experiment, param, seed, name, float("nan")))
        return
    values = [float(values)] if isinstance(metric, str) else np.asarray(values, dtype=float).tolist()
    rows.extend((experiment, param, seed, name, value) for name, value in zip(names, values, strict=True))


def _pack_rows(experiment: str, cells: Callable, keys: list, pack: list) -> tuple[list, Counter, list]:
    """The rows, W2 backends and failures of the replicas of ``pack``, once
    their ``keys`` are integrated (``_couple``)."""
    _couple(pack, keys)
    rows, backends, failures = [], Counter(), []
    for rep in pack:
        for param, metric, fn in cells(rep):
            _guarded_cell(rows, failures, experiment, param, rep.seed, metric, fn)
        backends += rep.w2_backends
    return rows, backends, failures


def _replica_packs(config: ExperimentConfig, stride: int, keys: list):
    """Replica r on seed base_seed + r and snapshot ``stride``, consecutive
    replicas in packs, each pack made when it is asked for: as many as keep
    the particle rows of the run and tangent ``keys`` within _PACK_ROWS (at
    least one), and at least one pack per worker."""
    rows = sum(key[2] for key in keys if key[0] != "chain")
    size = max(1, min(_PACK_ROWS // rows, -(-config.replicas // config.threads)))
    return ([Replica(config, config.base_seed + r, stride) for r in range(start, min(start + size, config.replicas))]
            for start in range(0, config.replicas, size))


def _run_replicas(experiment: str, cells: Callable, config: ExperimentConfig, keys: list,
                  packs: Iterable[list] | None = None) -> "ResultTable":
    """A table of every replica's rows, in seed order.

    ``keys`` lists what every replica integrates (see ``Replica``), named
    once for the experiment; ``cells(rep)`` lists the (param, metric, thunk)
    grid cells of replica ``rep``, which only read what those keys name, a
    cell of several metrics as a tuple of names, and each becomes rows
    through _guarded_cell.  Replicas pack as ``_replica_packs`` makes them,
    with the snapshot stride of the config, or come in the given ``packs``;
    a pack integrates its keys (``_couple``, a no-op for what it has kept),
    then runs its cells before the next is made, so memory holds one pack at
    a time.  Neither the packs nor the worker count change a number.
    """
    if packs is None:
        packs = _replica_packs(config, config.snapshot_stride, keys)
    per_pack = _parallel(partial(_pack_rows, experiment, cells, keys), packs, config.threads)
    return ResultTable(config, [row for rows, _, _ in per_pack for row in rows],
                       w2_backends=sum((backends for _, backends, _ in per_pack), Counter()),
                       failures=[f for _, _, failures in per_pack for f in failures])


def _mean_row(column: np.ndarray, stderr: bool = True) -> dict:
    """The mean (and stderr) of one summary cell over the replicas of
    ``column``: nan mean with none, nan stderr below two, and no numpy
    warning on either."""
    n = column.size
    row = {"mean": column.mean() if n else np.nan}
    if stderr:
        row["stderr"] = column.std(ddof=1) / np.sqrt(n) if n > 1 else np.nan
    return row


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
        table.add_summary(experiment=experiment, param=str(param), metric=metric,
                          **_mean_row(matrix[:, k], stderr))
    return matrix


def w2_sq_to_uniform_1d(samples: np.ndarray, low: float, high: float) -> float:
    """Exact squared W2 between an empirical measure, its finite ``samples``,
    and Uniform[low, high] for finite bounds."""
    x = np.sort(check_vector("samples", samples))
    if not is_real(low, finite=True):
        raise ValueError(f"low must be a finite real (got {low!r})")
    if not (is_real(high, finite=True) and high > low):
        raise ValueError(f"high must be > low, and finite, for a uniform law (got low={low!r}, high={high!r})")
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


def _lln_runs(config: ExperimentConfig) -> list:
    return [_run_key(config, eps) for eps in (*config.eps_grid, 0.0)]


def _lln_cells(rep: Replica) -> list:
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
    table = _run_replicas("lln-rate", _lln_cells, config, _lln_runs(config))
    return _eps_rate_summary(table, "lln-rate", "sup_w2_sq", w2_backends=table.w2_backend_counts())


# --------------------------------------------------------------------------
# particle sampling rate and dynamic amplification
# --------------------------------------------------------------------------


def _particle_runs(eps: float, n_ref: int, config: ExperimentConfig) -> list:
    return [*(_run_key(config, eps, m, True) for m in config.m_grid), _run_key(config, eps, n_ref)]


def _particle_cells(eps: float, n_ref: int, rep: Replica) -> list:
    low, high = float(rep.config.mu0_low[0]), float(rep.config.mu0_high[0])
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
        raise ValueError(f"instance must be synthetic-1d: the particle-rate experiment runs on the 1-d "
                         f"synthetic instance (got {config.instance!r})")
    if np.any(np.asarray(config.mu0_high) <= np.asarray(config.mu0_low)):
        raise ValueError(f"mu0_high must be > mu0_low: the initial law is compared with a "
                         f"uniform one (got mu0_low={config.mu0_low!r}, mu0_high={config.mu0_high!r})")
    n_ref = 20 * int(max(config.m_grid))
    table = _run_replicas("particle-rate", partial(_particle_cells, _PARTICLE_RATE_EPS, n_ref), config,
                          _particle_runs(_PARTICLE_RATE_EPS, n_ref, config))
    m_grid = [int(m) for m in config.m_grid]
    static = table.matrix([("w2_sq_initial", m) for m in m_grid])
    fit = fit_slope(m_grid, static)
    table.add_summary(experiment="particle-rate", metric="slope_initial", slope=fit.slope,
                      intercept=fit.intercept, ci_low=fit.ci_low, ci_high=fit.ci_high)
    for k, m in enumerate(m_grid):
        amps = table.matrix([("amplification", m)])[:, 0]   # the replicas whose cell ran
        table.add_summary(experiment="particle-rate", param=str(m), metric="amplification", **_mean_row(amps))
        table.add_summary(experiment="particle-rate", param=str(m), metric="w2_sq_initial",
                          **_mean_row(static[:, k]))
    return table


# --------------------------------------------------------------------------
# CLT rate: E sup_t ||eta^eps - eta||^2_{-J} vs eps
# --------------------------------------------------------------------------


def _clt_pack(keys: list, pack: list) -> list:
    """The ``results`` of each replica of a clt-rate ``pack`` once its eps
    runs and tangent solves (the transport runs), its ``keys``, are
    integrated as one batch, each run kept, or the error it raised, for the
    box and then the norms."""
    _couple(pack, keys)
    return [rep.results for rep in pack]


def _clt_cells(grid: SpectralGrid | None, rep: Replica) -> list:
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
    keys = [*(_run_key(config, eps) for eps in config.eps_grid), _run_key(config, 0.0, kind="tangent")]
    # every pack is integrated before the box is sized, then runs its cells
    packs = list(_replica_packs(config, config.clt_snapshot_stride, keys))
    for pack, kept in zip(packs, _parallel(partial(_clt_pack, keys), packs, config.threads)):
        for rep, results in zip(pack, kept):
            rep.results = results
    if config.r_box is not None:
        r_box = float(config.r_box)
    else:
        # global bounding box over every kept run, the tangent solve included,
        # 20% margin; nan when every run failed, and then no cell reaches the grid
        r_box = 1.2 * max((float(np.max(np.abs(run.positions)))
                           for pack in packs for rep in pack for run in rep.results.values()
                           if isinstance(run, Trajectory)), default=np.nan)
    grid = None if np.isnan(r_box) else SpectralGrid(r_box=r_box, k_max=config.k_max, j=config.sobolev_j)
    table = _run_replicas("clt-rate", partial(_clt_cells, grid), config, keys, packs)
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
    of its SGD chain (``Replica.chain``: alpha = 1/M, P = 1) at the step
    floor(M t) of the time embedding, both from the same M atoms, per
    snapshot and phi (smfe first).  It only reads the run and the chain,
    which the pack integrated."""
    chain, traj = rep.chain(m), rep.run(1.0 / m, m, per_m=True)
    steps = np.minimum(embedded_step(m, traj.times), chain.n_steps)
    positions = np.stack([traj.positions, chain.positions[steps]])    # (2, S, M, d)
    atoms = positions.reshape(-1, positions.shape[-1])
    values = np.stack([phi.value(atoms).reshape(positions.shape[:-1]) @ traj.weights
                       for phi in panel])                              # (phi, 2, S)
    return values.transpose(2, 0, 1).ravel()


def _sgd_runs(config: ExperimentConfig) -> list:
    """The eps = 1/M run at each M, then the SGD chain at each M."""
    m_grid = [int(m) for m in config.m_grid]
    return [*(_run_key(config, 1.0 / m, m, True) for m in m_grid), *(("chain", m) for m in m_grid)]


def _sgd_cells(rep: Replica) -> list:
    """One cell per M, naming its metrics ``kind:phi:snapshot`` in the order
    of _sgd_values."""
    panel = _sgd_phi_panel(rep.coeffs.dim)
    metrics = tuple(f"{kind}:{phi.name}:{s}" for s in _sgd_snapshots(rep.config)
                    for phi in panel for kind in ("smfe", "sgd"))
    return [(m, metrics, partial(_sgd_values, rep, m, panel)) for m in map(int, rep.config.m_grid)]


def _sgd_read(table: "ResultTable", phi_names: Sequence[str], m_grid: Sequence[int]) -> np.ndarray:
    """(phi, M, smfe|sgd, snapshots, replicas) array of <phi, mu_t> and
    <phi, nu_t>, replicas on the contiguous last axis, over the replicas that
    ran at every M of ``m_grid``, in one table read."""
    snapshots = _sgd_snapshots(table.config)
    matrix = table.matrix([(f"{kind}:{phi}:{s}", m) for phi in phi_names for m in m_grid
                           for kind in ("smfe", "sgd") for s in snapshots])
    return np.ascontiguousarray(matrix.T).reshape(len(phi_names), len(m_grid), 2, len(snapshots),
                                                   matrix.shape[0])


def _sgd_series(table: "ResultTable", phi_name: str, m_grid: Sequence[int]) -> np.ndarray:
    """(M, smfe|sgd, snapshots, replicas) array of ``phi_name`` (_sgd_read)."""
    return _sgd_read(table, [phi_name], m_grid)[0]


def exp_sgd_compare(config: ExperimentConfig) -> ResultTable:
    config.validate_for_rates()
    table = _run_replicas("sgd-compare", _sgd_cells, config, _sgd_runs(config))
    names = [phi.name for phi in _sgd_phi_panel(len(config.mu0_low))]
    for m in map(int, config.m_grid):
        # one read per M, so a replica that failed at this M drops out here only
        for name, ((smfe, sgd),) in zip(names, _sgd_read(table, names, [m])):
            g = w2_replica = np.nan   # unless some replica ran at this M
            if smfe.shape[1]:
                g = np.abs(smfe.mean(axis=1) - sgd.mean(axis=1)).max()
                # distance between the replica distributions of <phi, .> at T
                a, b = np.sort(smfe[-1]), np.sort(sgd[-1])
                w2_replica = float(np.sqrt(np.mean((a - b) ** 2)))
            table.add_summary(experiment="sgd-compare", param=str(m),
                              metric=f"g:{name}", mean=g,
                              sqrt_m_g=float(np.sqrt(m) * g))
            table.add_summary(experiment="sgd-compare", param=str(m),
                              metric=f"w2_replica:{name}", mean=w2_replica)
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
    series = _sgd_series(table, phi_name, m_grid)
    n_rep = series.shape[-1]
    if n_rep == 0:
        return False, []
    sqrt_m = np.sqrt(m_grid)[:, None]

    def stat(idx: np.ndarray) -> np.ndarray:
        """sqrt(M) g(M) of each resample, a row of ``idx``: (resamples, M)."""
        means = series[..., idx].mean(axis=-1)    # (M, smfe|sgd, S, resamples)
        return (sqrt_m * np.abs(means[:, 0] - means[:, 1]).max(axis=1)).T

    base = stat(np.arange(n_rep)[None])[0]
    # one draw of every resample's replicas, the stream of one draw per
    # resample; their means in chunks of _TREND_CHUNK resamples, near 1 MB each
    picks = seeded_rng(_TREND_SEED, "sgd-trend").integers(0, n_rep, size=(_TREND_BOOT, n_rep))
    boots = np.concatenate([stat(picks[k:k + _TREND_CHUNK]) for k in range(0, _TREND_BOOT, _TREND_CHUNK)])
    lo_q, hi_q = 100 * (1 - TREND_LEVEL) / 2, 100 * (1 + TREND_LEVEL) / 2
    lo, hi = np.percentile(np.diff(boots, axis=1), [lo_q, hi_q], axis=0)
    return not np.any(lo > 0), [tuple(map(float, v)) for v in zip(np.diff(base), lo, hi)]


# --------------------------------------------------------------------------
# commuting-limits square
# --------------------------------------------------------------------------


def _commute_runs(n_ref: int, config: ExperimentConfig) -> list:
    """The runs of the alpha grid and alpha = 0 at each M, then the smallest
    alpha and alpha = 0 at the reference size."""
    return [*(_run_key(config, alpha, m, True) for m in config.m_grid for alpha in (*config.alpha_grid, 0.0)),
            _run_key(config, min(config.alpha_grid), n_ref), _run_key(config, 0.0, n_ref)]


def _commute_cells(n_ref: int, rep: Replica) -> list:
    cell = partial(rep.sup_w2_sq, b=(0.0, n_ref))
    alpha_min = float(min(rep.config.alpha_grid))
    cells = []
    for m in map(int, rep.config.m_grid):
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
    table = _run_replicas("commute", partial(_commute_cells, n_ref), config, _commute_runs(n_ref, config))
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
