"""The argument boundary: every bad value fails where it enters, as a
ValueError whose message starts with the name of what it was given for.

Two hypothesis properties draw arguments of wrong type, sign, finiteness and
shape (bools, strings, None, nan, inf, nested lists, fractional counts,
integers beyond the float range) among valid ones: one over the JSON config
and the run it builds, one over the direct constructors and the scalar
arguments of the integrators.  Each draw either succeeds, raises such a
ValueError, or, valid but diverging, raises SimulationError; anything else
(a TypeError, IndexError, ZeroDivisionError, OverflowError or numpy
RuntimeWarning) fails the property.  Valid draws are
tiny, and a config's run goes through ``Replica.run``, which starts no
worker process whatever ``threads`` says.  The faults these properties were
written against are kept below as explicit examples.
"""

import json
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meanfield_sgd import dynamics
from meanfield_sgd.cli import main as cli_main
from meanfield_sgd.coefficients import CoefficientError, Dataset, SyntheticCoefficients
from meanfield_sgd.diagnostics import (f_n_functional, gaussian_bump, min_pairwise_distance, moment_track,
                                       qv_check_panel, smfe_weak_residual_panel, standard_panel, trig_wave)
from meanfield_sgd.dynamics import (InitialSpec, IntegratorConfig, NoisePath, ParticleEnsemble, SimulationError,
                                    picard_solve, run_sgd, sample_initial, simulate, simulate_coupled,
                                    step_interacting)
from meanfield_sgd.fluctuations import (TangentEnsemble, clt_distance, eta_eps, solve_tangent, tangent_step,
                                        weak_residual_linear)
from meanfield_sgd.harness import (ExperimentConfig, Replica, build_coefficients, build_initial_spec,
                                   exp_lln_rate, exp_particle_rate, fit_slope, reference_config)
from meanfield_sgd.measures import (EmpiricalMeasure, SignedAtomicField, SortedAtoms, SpectralGrid,
                                    sobolev_neg_norm_diff, w2_detailed, w2_sup)

nan, inf = float("nan"), float("inf")

REF = reference_config()
COEFFS = build_coefficients(REF)
ENS = sample_initial(build_initial_spec(REF), 3, 0)
CFG = IntegratorConfig(dt=0.01, horizon=0.02)
NOISE = NoisePath(0, 0.01, 2, COEFFS.n_channels)
RUN = simulate(ENS, COEFFS, replace(CFG, eps=0.01), NOISE)
RUN0 = simulate(ENS, COEFFS, CFG, None)
MU = EmpiricalMeasure.uniform(np.arange(6.0).reshape(3, 2))
TANGENT = solve_tangent(ENS.positions, COEFFS, CFG, NOISE)
PATH = eta_eps(RUN, TANGENT, 0.01)
SYNTHETIC_1D = build_coefficients(reference_config(instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,)))
NOISE_1D = NoisePath(0, 0.01, 2, SYNTHETIC_1D.n_channels)

# wrong in type, sign, finiteness or shape for every argument drawn here
WRONG = [True, False, "x", "0.1", None, nan, inf, -inf, -1, 0, -0.5, 2.5, 1e308, [], [0.5], [[1, 2]],
         ["x"], [None], [True], [nan], [10**400], {"a": 1}]
# also wrong for a real-valued argument; a valid count, too large to run, for an integer one
BEYOND_FLOAT = 10**400


def _named(exc: Exception, names) -> bool:
    """Whether the message of ``exc`` starts with '<one of names> must'."""
    return re.match(rf"^({'|'.join(map(re.escape, names))}) must\b", str(exc)) is not None


# --------------------------------------------------------------------------
# the config and its run
# --------------------------------------------------------------------------

FIELDS = [f.name for f in fields(ExperimentConfig)]
ROWS_2D = [[-1.0, 0.5, 0.1], [1.0, 0.5, -0.2]]
VALID_CONFIG = {
    "instance": ["network", "synthetic-1d"],
    "dataset_rows": [ROWS_2D, [[0.0, 1.0, 0.6, 0.3], [1.0, -1.0, 0.4, -0.1]]],
    "dataset_file": [None],
    "activation": ["tanh", "sigmoid", "smoothed-relu"],
    "synthetic_params": [[["kappa", 0.5]], [["gamma", -0.2], ["g_freq", 2]]],
    "mu0_kind": ["uniform"],
    "mu0_low": [[-1.0, -1.0], [-1.0], [0.5, 0.5]],
    "mu0_high": [[1.0, 1.0], [1.0], [0.5, 0.5]],
    "n_particles": [1, 3],
    "eps_grid": [[0.1, 0.01], [0.0], []],
    "m_grid": [[2, 4], [3.0]],
    "alpha_grid": [[0.1]],
    "dt": [0.01, 0.02],
    "horizon": [0.0, 0.02, 0.04],
    "sobolev_j": [1, 5],
    "k_max": [8, 16],
    "r_box": [None, 2.0],
    "snapshot_stride": [1, 2],
    "clt_snapshot_stride": [1, 3],
    "replicas": [1, 10],
    "base_seed": [0, 7],
    "threads": [1, 2],
    "out_dir": [None, "out"],
}
assert sorted(VALID_CONFIG) == sorted(FIELDS)
# a string is a valid type for these two, so none is drawn for them as a wrong value
PATHS = ("dataset_file", "out_dir")
REALS = ("dt", "horizon", "r_box")
# what a config's run names when it refuses it: the run's eps, or a part of
# the dataset that dataset_rows spells out
RUN_NAMES = FIELDS + ["eps", "rows", "atoms", "weights", "labels"]


def _config_value(key: str):
    wrong = [v for v in WRONG if not (key in PATHS and isinstance(v, str))]
    if key in REALS:
        wrong.append(BEYOND_FLOAT)
    return st.sampled_from(VALID_CONFIG[key] + wrong)


config_objects = st.lists(st.sampled_from(sorted(FIELDS)), max_size=4, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _config_value(key) for key in keys}))


def check_config(overrides: dict):
    """Build the tiny config ``overrides`` changes and run its first eps."""
    obj = {"dataset_rows": ROWS_2D, "n_particles": 3, "dt": 0.01, "horizon": 0.02, **overrides}
    try:
        cfg = ExperimentConfig.from_json(json.dumps(obj))
    except ValueError as exc:
        assert _named(exc, FIELDS), f"{obj}: {exc}"
        return
    eps = cfg.eps_grid[0] if cfg.eps_grid else 0.0
    try:
        traj = Replica(cfg, cfg.base_seed, 1).run(eps)
    except SimulationError:
        return   # a valid config may describe a run that diverges
    except ValueError as exc:
        assert _named(exc, RUN_NAMES), f"{obj}: {exc}"
        return
    assert traj.positions.shape[1:] == (cfg.n_particles, len(cfg.mu0_low))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_objects)
def test_config_builds_and_runs_or_names_its_field(overrides):
    check_config(overrides)


@pytest.mark.parametrize("overrides", [
    {},
    {"instance": "synthetic-1d", "mu0_low": [-1.0], "mu0_high": [1.0]},
    {"eps_grid": [-0.5]}, {"eps_grid": [nan]}, {"eps_grid": [BEYOND_FLOAT]},
    {"dt": 0.3, "horizon": 1.0}, {"dt": 1e-300, "horizon": 1e300}, {"dt": True}, {"horizon": None},
    {"dataset_file": 5}, {"dataset_file": True}, {"out_dir": 5},
    {"dataset_rows": [[0.0, 2.0, 0.0], [1.0, -1.0, 0.0]]},
    {"dataset_rows": [[0.0, 1e308, 0.0], [1.0, 1e308, 0.0]]},
    {"m_grid": [BEYOND_FLOAT]}, {"synthetic_params": [["kappa", BEYOND_FLOAT]]},
], ids=["valid", "synthetic", "negative-eps", "nan-eps", "eps-beyond-float", "horizon-off-the-grid",
        "step-count-overflow", "bool-dt", "none-horizon", "int-dataset-file", "bool-dataset-file",
        "int-out-dir", "negative-data-weight", "overflowing-data-weights", "m-beyond-float",
        "kappa-beyond-float"])
def test_config_examples(overrides):
    check_config(overrides)


# --------------------------------------------------------------------------
# direct calls
# --------------------------------------------------------------------------


def _jets(phis, d):
    for phi in phis:
        phi.jet(np.zeros((2, d)), 2)


def _bump(center, width):
    _jets([gaussian_bump(center, width)], len(center))


def _wave(freq, phase):
    _jets([trig_wave(freq, phase)], len(freq))


def _panel(d):
    _jets(standard_panel(d), d)


# target -> (call, {argument: valid values}, names a refusal may start with,
# the arguments that are real numbers)
TARGETS = {
    "IntegratorConfig": (IntegratorConfig, {"dt": [0.01, 0.02], "horizon": [0.0, 0.02, 0.04],
                                            "eps": [0.0, 0.1], "snapshot_stride": [1, 2]},
                         (), ("dt", "horizon", "eps")),
    "NoisePath": (NoisePath, {"seed": [0, 3], "dt": [0.01], "n_steps": [0, 2], "n_channels": [1, 3]},
                  (), ("dt",)),
    "SpectralGrid": (SpectralGrid, {"r_box": [2.0], "k_max": [8, 16], "j": [1, 5]}, (), ("r_box",)),
    "InitialSpec": (InitialSpec, {"low": [[-1.0, -1.0], [0]], "high": [[1.0, 1.0], [0.5]]}, (), ()),
    "Dataset.from_rows": (Dataset.from_rows, {"rows": [ROWS_2D, [[0.3, 1.0, 0.0]]]},
                          ("atoms", "weights", "labels"), ()),
    "SyntheticCoefficients": (SyntheticCoefficients, {"dim": [1, 2], "n_channels": [1, 2],
                                                      "channel_weights": [None, [0.5, 0.5], [1.0]]}, (), ()),
    "gaussian_bump": (_bump, {"center": [[0.0, 0.0], [0.5]], "width": [0.5, 1, 2.0]}, (), ("width",)),
    "trig_wave": (_wave, {"freq": [[1, 2], [-3]], "phase": ["sin", "cos"]}, (), ()),
    "standard_panel": (_panel, {"d": [1, 2, 3]}, (), ()),
    "f_n_functional": (lambda n: f_n_functional(MU, n), {"n": [2, 3, 4]}, (), ()),
    "run_sgd": (lambda **kw: run_sgd(COEFFS, initial=ENS.positions, **kw),
                {"n_particles": [3], "alpha": [0.01, 0.1], "batch_size": [1, 2], "n_steps": [0, 2],
                 "seed": [0, 5]}, (), ("alpha",)),
    "picard_solve": (lambda **kw: picard_solve(ENS, COEFFS, CFG, None, **kw),
                     {"tol": [1e-6, 1.0], "max_iter": [1, 2]}, (), ("tol",)),
    "eta_eps": (lambda eps: eta_eps(RUN, RUN0, eps), {"eps": [0.01, 1.0]}, (), ("eps",)),
    "simulate_coupled": (lambda eps: simulate_coupled([(ENS, 0.01), (ENS, eps)], COEFFS, CFG, NOISE),
                         {"eps": [0.0, 0.01]}, (), ("eps",)),
}


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(TARGETS)))
    _, valid, _, reals = TARGETS[name]
    kwargs = {arg: draw(st.sampled_from(values + WRONG + ([BEYOND_FLOAT] if arg in reals else [])))
              for arg, values in valid.items()}
    return name, kwargs


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(calls())
def test_direct_call_succeeds_or_names_its_argument(call):
    name, kwargs = call
    fn, valid, names, _ = TARGETS[name]
    try:
        fn(**kwargs)
    except SimulationError:
        pass   # valid arguments may describe a run that diverges
    except ValueError as exc:
        assert _named(exc, [*valid, *names]), f"{name}({kwargs}): {exc}"


# --------------------------------------------------------------------------
# the faults the properties were written against
# --------------------------------------------------------------------------


@pytest.mark.parametrize("make, field, error", [
    (lambda: simulate_coupled([(ENS, -0.5)], COEFFS, CFG, NOISE), "eps", ValueError),
    (lambda: simulate_coupled([(ENS, nan)], COEFFS, CFG, NOISE), "eps", ValueError),
    (lambda: SyntheticCoefficients(dim=1, n_channels=2, channel_weights=[nan, nan]), "channel_weights",
     CoefficientError),
    (lambda: SyntheticCoefficients(dim=1, n_channels=0), "n_channels", ValueError),
    (lambda: SyntheticCoefficients(dim=2.5), "dim", ValueError),
    (lambda: SyntheticCoefficients(dim=True), "dim", ValueError),
    (lambda: f_n_functional(MU, 2.5), "n", ValueError),
    (lambda: IntegratorConfig(dt=True, horizon=1.0), "dt", ValueError),
    (lambda: NoisePath(0, True, 1, 1), "dt", ValueError),
    (lambda: SpectralGrid(r_box=True, k_max=8, j=1), "r_box", ValueError),
    (lambda: eta_eps(RUN, RUN0, True), "eps", ValueError),
    (lambda: run_sgd(COEFFS, 3, True, 1, 2, 0, ENS.positions), "alpha", ValueError),
    (lambda: picard_solve(ENS, COEFFS, CFG, None, tol=True), "tol", ValueError),
    (lambda: IntegratorConfig(dt="x", horizon=1.0), "dt", ValueError),
    (lambda: IntegratorConfig(dt=0.1, horizon=None), "horizon", ValueError),
    (lambda: NoisePath(0, "0.1", 1, 1), "dt", ValueError),
    (lambda: run_sgd(COEFFS, 3, "x", 1, 2, 0, ENS.positions), "alpha", ValueError),
    (lambda: picard_solve(ENS, COEFFS, CFG, None, tol="x"), "tol", ValueError),
    (lambda: IntegratorConfig(dt=1e-300, horizon=1e300), "horizon", ValueError),
    (lambda: reference_config(dt=0.3, horizon=1.0), "horizon", ValueError),
    (lambda: reference_config(dataset_file=5), "dataset_file", ValueError),
    (lambda: run_sgd(COEFFS, 3, 0.1, 1, 2, -1, ENS.positions), "seed", ValueError),
    (lambda: Dataset.from_rows([[0.0, 0.5], [1.0]]), "rows", CoefficientError),
    (lambda: EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5])), "weights", ValueError),
    (lambda: Dataset.from_rows([BEYOND_FLOAT]), "rows", CoefficientError),
    (lambda: gaussian_bump([0.0, 0.0], 1e308), "width", ValueError),
    (lambda: gaussian_bump([0.0, 0.0], 1e-200), "width", ValueError),
    (lambda: IntegratorConfig(dt=0.01, horizon=1e-12), "horizon", ValueError),
    (lambda: IntegratorConfig(dt=1e308, horizon=0.02), "horizon", ValueError),
    (lambda: Dataset(atoms=[[0.0], [1.0]], weights=[1.0], labels=[0.0, 0.0]), "weights", CoefficientError),
    (lambda: Dataset(atoms=[[0.0], [1.0]], weights=[0.5, 0.5], labels=[0.0]), "labels", CoefficientError),
    (lambda: ParticleEnsemble(np.zeros((3, 2)), np.full(2, 0.5)), "weights", ValueError),
    (lambda: step_interacting(ENS, COEFFS, replace(CFG, eps=0.01), None), "dB", SimulationError),
    (lambda: simulate(ENS, COEFFS, replace(CFG, eps=0.01), None), "noise", SimulationError),
    (lambda: simulate_coupled([(ENS, 0.01), (ENS, 0.0)], COEFFS, CFG, [NOISE]), "noise", ValueError),
    (lambda: run_sgd(SyntheticCoefficients(dim=2), 3, 0.1, 1, 2, 0, ENS.positions), "coeffs", ValueError),
    (lambda: run_sgd(COEFFS, 4, 0.1, 1, 2, 0, ENS.positions), "initial", ValueError),
    (lambda: TangentEnsemble(np.zeros((3, 2)), np.zeros((2, 2))), "tangents", ValueError),
    (lambda: eta_eps(RUN, replace(RUN0, dt=0.02), 0.01), "traj_zero", ValueError),
    (lambda: eta_eps(RUN, replace(RUN0, positions=RUN0.positions + 1.0), 0.01), "traj_zero", ValueError),
    (lambda: clt_distance([], RUN0, SpectralGrid(2.0, 8, 5)), "eta_paths", ValueError),
    (lambda: weak_residual_linear(replace(RUN0, tangents=np.zeros_like(RUN0.positions), snapshot_stride=2),
                                  COEFFS, NOISE, standard_panel(2)), "tangent_traj", ValueError),
    (lambda: qv_check_panel(replace(RUN, snapshot_stride=2), COEFFS, standard_panel(2)), "traj", ValueError),
    (lambda: moment_track(RUN, 3), "p", ValueError),
    (lambda: SignedAtomicField("signed", np.zeros((2, 2)), np.zeros(2)), "kind", ValueError),
    (lambda: SignedAtomicField.atomic(np.zeros((3, 2)), np.zeros(2)), "payload", ValueError),
    (lambda: SignedAtomicField.tangent(np.zeros((3, 2)), np.zeros((2, 2))), "payload", ValueError),
    (lambda: sobolev_neg_norm_diff(SignedAtomicField.atomic(np.zeros((1, 2)), [1.0]),
                                   SignedAtomicField.atomic(np.zeros((1, 1)), [1.0]), SpectralGrid(2.0, 8, 5)),
     "field_b", ValueError),
    (lambda: fit_slope([1.0, 2.0, 3.0], [1.0, 2.0]), "values", ValueError),
    (lambda: exp_particle_rate(reference_config(replicas=10)), "instance", ValueError),
    (lambda: reference_config(dataset_rows=((0.0, 2.0, 1.0),)), "dataset_rows", ValueError),
    (lambda: reference_config(dataset_rows=((0.0, 1.0, nan),)), "dataset_rows", ValueError),
    (lambda: reference_config(dataset_rows=((0.0, 0.5, 1.0), (1.0, 0.5))), "dataset_rows", ValueError),
    (lambda: smfe_weak_residual_panel(replace(RUN, snapshot_stride=2), NOISE, COEFFS, 0.01, standard_panel(2)),
     "traj", ValueError),
    (lambda: smfe_weak_residual_panel(RUN, NOISE, COEFFS, 0.02, standard_panel(2)), "eps", ValueError),
    (lambda: smfe_weak_residual_panel(RUN, NoisePath(1, 0.01, 2, COEFFS.n_channels), COEFFS, 0.01,
                                      standard_panel(2)), "noise", ValueError),
    (lambda: smfe_weak_residual_panel(RUN, None, COEFFS, 0.01, standard_panel(2)), "noise", ValueError),
    (lambda: min_pairwise_distance(replace(RUN, positions=np.zeros_like(RUN.positions))), "traj", ValueError),
    (lambda: NOISE.coarsened(3), "factor", ValueError),
    (lambda: simulate(ENS, COEFFS, replace(CFG, eps=0.01), NoisePath(0, 0.01, 2, 3)), "noise", SimulationError),
    (lambda: simulate(ENS, COEFFS, replace(CFG, eps=0.01), NoisePath(0, 0.01, 1, COEFFS.n_channels)), "noise",
     SimulationError),
    (lambda: simulate(ENS, COEFFS, replace(CFG, eps=0.01), NoisePath(0, 0.02, 2, COEFFS.n_channels)), "noise",
     SimulationError),
    (lambda: eta_eps(RUN, replace(RUN0, times=RUN0.times + 0.5), 0.01), "traj_zero", ValueError),
    (lambda: clt_distance([replace(PATH, times=PATH.times + 0.5)], TANGENT, SpectralGrid(4.0, 8, 5)), "eta_paths",
     ValueError),
    (lambda: clt_distance([replace(PATH, reference=PATH.reference + 1.0)], TANGENT, SpectralGrid(4.0, 8, 5)),
     "eta_paths", ValueError),
    (lambda: weak_residual_linear(TANGENT, COEFFS, NoisePath(1, 0.01, 2, COEFFS.n_channels), standard_panel(2)),
     "noise", ValueError),
    (lambda: exp_lln_rate(reference_config(replicas=5)), "replicas", ValueError),
    (lambda: fit_slope([1.0, 2.0], [1.0, 2.0]), "values", ValueError),
    (lambda: w2_detailed(MU, EmpiricalMeasure.uniform(np.zeros((2, 1)))), "nu", ValueError),
    (lambda: w2_sup(*(SortedAtoms.of(np.zeros((s, 3, 2)), np.full(3, 1 / 3)) for s in (2, 3))), "b", ValueError),
    (lambda: w2_sup(*(SortedAtoms.of(np.zeros((0, 3, 2)), np.full(3, 1 / 3)) for _ in range(2))), "a", ValueError),
    (lambda: COEFFS.drift(np.zeros((3, 3)), MU), "X", CoefficientError),
    (lambda: COEFFS.drift_jacobian_apply(np.zeros((3, 2)), np.zeros((3, 3)), MU), "Y", CoefficientError),
    (lambda: COEFFS.loss(np.zeros((0, 2))), "params", CoefficientError),
    (lambda: solve_tangent(np.zeros((0, 2)), COEFFS, CFG, NOISE), "initial_base", ValueError),
    (lambda: solve_tangent(np.zeros((2, 3, 2)), COEFFS, CFG, NOISE), "initial_base", ValueError),
    (lambda: solve_tangent(np.zeros((4, 2)), SYNTHETIC_1D, CFG, NOISE_1D), "initial_base", ValueError),
    (lambda: tangent_step(TangentEnsemble.at_rest(np.zeros((0, 2))), COEFFS, CFG, NOISE.increments[0]), "base",
     ValueError),
    (lambda: tangent_step(TangentEnsemble.at_rest(np.zeros((4, 2))), SYNTHETIC_1D, CFG, NOISE_1D.increments[0]),
     "base", ValueError),
    (lambda: step_interacting(ParticleEnsemble(np.empty((0, 2)), np.empty(0)), COEFFS, CFG, None), "positions",
     ValueError),
    (lambda: step_interacting(ParticleEnsemble.uniform(np.zeros((4, 2))), SYNTHETIC_1D, CFG, None), "positions",
     ValueError),
    (lambda: picard_solve(ParticleEnsemble.uniform(np.zeros((3, 3))), COEFFS, CFG, None, tol=1e-6), "positions",
     ValueError),
], ids=["coupled-negative-eps", "coupled-nan-eps", "synthetic-nan-weights", "synthetic-no-channels",
        "synthetic-fractional-dim", "synthetic-bool-dim", "f-n-fractional-n", "integrator-bool-dt",
        "noise-bool-dt", "grid-bool-r-box", "eta-bool-eps", "sgd-bool-alpha", "picard-bool-tol",
        "integrator-string-dt", "integrator-none-horizon", "noise-string-dt", "sgd-string-alpha",
        "picard-string-tol", "integrator-step-count-overflow", "config-horizon-off-the-grid",
        "config-int-dataset-file", "sgd-negative-seed", "ragged-rows", "weight-above-one",
        "rows-beyond-float", "bump-width-squared-overflows", "bump-width-squared-underflows",
        "integrator-horizon-below-one-step", "integrator-dt-beyond-the-horizon", "dataset-one-weight-two-atoms",
        "dataset-one-label-two-atoms", "ensemble-two-weights-three-particles", "step-noisy-without-increments",
        "simulate-noisy-without-path", "coupled-one-path-two-runs", "sgd-synthetic-coefficients",
        "sgd-initial-of-another-size", "tangents-of-another-shape", "eta-different-time-steps",
        "eta-different-initial-atoms", "clt-distance-no-paths", "weak-linear-subsampled-tangents",
        "qv-subsampled-run", "moment-track-odd-order", "field-unknown-kind", "atomic-field-weight-count",
        "tangent-field-vector-count", "norm-diff-of-two-dimensions", "slope-values-off-the-grid",
        "particle-rate-on-a-network", "config-rows-weights-sum-to-2", "config-rows-nan-label",
        "config-ragged-rows", "weak-subsampled-run", "weak-eps-of-another-run", "weak-noise-of-another-run",
        "weak-noisy-without-path", "collision-no-distinct-pair", "noise-coarsened-off-its-steps",
        "noise-of-another-channel-count", "noise-shorter-than-the-run", "noise-of-another-dt",
        "eta-shifted-grid", "clt-distance-shifted-grid", "clt-distance-other-transport-run",
        "weak-linear-noise-of-another-run", "rate-five-replicas", "slope-two-points", "w2-of-two-dimensions",
        "w2-sup-snapshot-counts", "w2-sup-no-snapshot", "coefficients-points-of-another-dimension",
        "coefficients-tangents-of-another-dimension", "loss-of-no-parameters", "tangent-empty-base",
        "tangent-base-of-three-axes", "tangent-2d-base-synthetic-1d", "tangent-step-empty-base",
        "tangent-step-2d-base-synthetic-1d", "step-empty-ensemble", "step-2d-points-synthetic-1d",
        "picard-3d-points"])
def test_fault_is_refused_naming_its_argument(monkeypatch, make, field, error):
    """Each fault is refused where it enters, before the coefficients step a
    point: an integrator or a one-step function refuses points of another
    dimension, or none, before its first step."""
    steps = []
    for coeffs in (COEFFS, SYNTHETIC_1D):
        for name in ("coupled_step", "increment"):
            monkeypatch.setattr(coeffs, name, lambda *a, **k: steps.append(a))
    with pytest.raises(error, match=rf"^{field} must"):
        make()
    assert steps == []


# an exploding drift: a run from these points goes non-finite at step 83
EXPLODING = build_coefficients(reference_config(instance="synthetic-1d", mu0_low=(-1.0,), mu0_high=(1.0,),
                                                synthetic_params=(("kappa", -1e6),)))
EXPLODING_CFG = IntegratorConfig(dt=5e-3, horizon=0.5)
EXPLODING_NOISE = NoisePath(0, 5e-3, 100, EXPLODING.n_channels)
EXPLODING_ENS = ParticleEnsemble.uniform(np.linspace(-1.0, 1.0, 3)[:, None])


@pytest.mark.parametrize("integrate, message", [
    (lambda: solve_tangent(EXPLODING_ENS.positions, EXPLODING, EXPLODING_CFG, EXPLODING_NOISE),
     "^non-finite state"),
    (lambda: simulate_coupled([(EXPLODING_ENS, 0.01), (EXPLODING_ENS, 0.0)], EXPLODING, EXPLODING_CFG,
                              EXPLODING_NOISE, tangent=[1]), "^non-finite state"),
    (lambda: simulate(EXPLODING_ENS, EXPLODING, EXPLODING_CFG, None), "^non-finite state"),
    (lambda: picard_solve(EXPLODING_ENS, EXPLODING, EXPLODING_CFG, None, tol=1e-6), "^non-finite state"),
    (lambda: run_sgd(COEFFS, 3, 1e100, 1, 5, 0, ENS.positions), "^SGD diverged"),
], ids=["solve_tangent", "simulate_coupled", "simulate", "picard_solve", "run_sgd"])
def test_diverging_integrators_fail_without_numpy_warnings(integrate, message):
    """Every integrator's loop is ``_integrate``'s, which alone silences
    numpy's overflow warnings: a diverging run ends in its own SimulationError
    (each entry of a coupled batch), where an overflow on the way would
    escape under the error filter as a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = integrate()
        except SimulationError as exc:
            out = [exc]
    assert all(isinstance(run, SimulationError) and re.match(message, str(run)) for run in out), out


def test_coupled_eps_checked_before_any_step(monkeypatch):
    """A bad eps anywhere in the batch is refused before the first step."""
    steps = []
    monkeypatch.setattr(COEFFS, "coupled_step", lambda *a, **k: steps.append(a))
    with pytest.raises(ValueError, match=r"^eps must be a finite real >= 0 \(got -0.5\)"):
        simulate_coupled([(ENS, 0.01), (ENS, 0.0), (ENS, -0.5)], COEFFS, CFG, NOISE)
    assert steps == []


# runs a batch cannot step: no particle, another dimension than the
# coefficients', weights that are not a probability vector, a later start
BAD_RUNS = {
    "zero-particles": (ParticleEnsemble(np.empty((0, 2)), np.empty(0)), "positions"),
    "other-dimension": (ParticleEnsemble(np.zeros((3, 3)), np.full(3, 1 / 3)), "positions"),
    "weights-not-a-probability-vector": (ParticleEnsemble(np.zeros((10, 2)), np.full(10, 0.5)), "weights"),
    "later-start": (ParticleEnsemble(ENS.positions, ENS.weights, time=0.5), "time"),
}


@pytest.mark.parametrize("coupled", [True, False], ids=["simulate_coupled", "simulate"])
@pytest.mark.parametrize("bad", sorted(BAD_RUNS))
def test_bad_runs_refused_once_before_any_step(monkeypatch, coupled, bad):
    """Each run is checked once per call, before the first step, and a bad
    one is refused naming its field; a lone run starts at its own time."""
    run, field = BAD_RUNS[bad]
    if field == "time" and not coupled:
        np.testing.assert_allclose(simulate(run, COEFFS, CFG, None).times, [0.5, 0.51, 0.52])
        return
    steps, checks, check_weights = [], [], dynamics.check_weights
    monkeypatch.setattr(COEFFS, "coupled_step", lambda *a, **k: steps.append(a))
    monkeypatch.setattr(dynamics, "check_weights", lambda *a: checks.append(a) or check_weights(*a))
    with pytest.raises(ValueError, match=rf"^{field} must"):
        if coupled:
            simulate_coupled([(ENS, 0.01), (run, 0.0)], COEFFS, CFG, NOISE)
        else:
            simulate(run, COEFFS, replace(CFG, eps=0.01), NOISE)
    assert steps == [] and len(checks) <= 2


def test_cli_simulate_refuses_a_negative_eps(tmp_path, capsys):
    """``simulate`` with eps_grid [-0.5] fails naming eps and writes no
    trajectory, where it used to write a transport run labelled eps=-0.5."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_rows": ROWS_2D, "n_particles": 3, "horizon": 0.01,
                                "eps_grid": [-0.5]}))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("meanfield-sgd simulate: error: eps must")
    assert not (tmp_path / "out" / "trajectory.txt").exists()


@pytest.mark.parametrize("command, overrides, field", [
    ("lln-rate", {"n_particles": 10, "replicas": 5}, "replicas"),
    ("simulate", {"n_particles": 3, "eps_grid": [-0.5]}, "eps"),
], ids=["rate-five-replicas", "simulate-negative-eps"])
def test_refused_command_leaves_no_output_directory(tmp_path, capsys, command, overrides, field):
    """A command refused before it writes a file exits 2 with one line naming
    the field and makes no output directory: the directory is made with the
    first file, where it used to be made before the command ran."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_rows": ROWS_2D, "horizon": 0.05, **overrides}))
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"meanfield-sgd {command}: error: {field} must") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_refuses_rows_weighing_2_before_any_output(tmp_path, capsys):
    """rows whose weights sum to 2 are refused naming dataset_rows when the
    config is built, before the output directory is made; they used to
    build a config and fail at the first coefficient build naming weights."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_rows": [[0.0, 2.0, 1.0]], "n_particles": 3, "horizon": 0.01}))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("meanfield-sgd simulate: error: dataset_rows must") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_rows_are_renormalized_when_the_config_is_built():
    """rows and a file weigh alike: a sum in [0.99, 1.01] warns and is
    renormalized when the config is built."""
    with pytest.warns(UserWarning, match="renormalizing to 1"):
        cfg = reference_config(dataset_rows=((-1.0, 0.5, 0.0), (1.0, 0.499, 0.5)))
    with pytest.warns(UserWarning, match="renormalizing to 1"):
        weights = build_coefficients(cfg).channel_weights
    np.testing.assert_allclose(weights.sum(), 1.0, rtol=0, atol=1e-15)


def test_positive_horizon_of_zero_steps_is_refused():
    """a horizon of 0 is a run of its initial snapshot; a positive one must
    hold at least one step, where it used to be read as 0 steps."""
    assert IntegratorConfig(dt=0.01, horizon=0.0).n_steps == 0
    assert IntegratorConfig(dt=0.01, horizon=0.01).n_steps == 1
    with pytest.raises(ValueError, match="^horizon must"):
        reference_config(dt=0.01, horizon=1e-12)


@pytest.mark.parametrize("text", [None, "", "1 2 x\n", "-1 0.5\n1 0.5 0.5\n", "-1 0.3 0\n1 0.3 0.5\n"],
                         ids=["missing", "empty", "not-numbers", "ragged", "weights-off"])
def test_dataset_file_is_read_when_the_config_is_built(tmp_path, text):
    """A missing or malformed dataset_file is refused naming it when the
    config is built, not by the first replica's open or loadtxt."""
    path = tmp_path / "data.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match="^dataset_file must"), warnings.catch_warnings():
        warnings.simplefilter("ignore")   # loadtxt warns on an empty file
        ExperimentConfig(dataset_file=str(path), n_particles=3, horizon=0.01)


def test_dataset_file_fixes_the_box_dimension(tmp_path):
    """the box must have the file's width minus 1 coordinates."""
    path = tmp_path / "data.txt"
    path.write_text("-1 0.5 0.0\n1 0.5 0.5\n")
    cfg = ExperimentConfig(dataset_file=str(path), n_particles=3, horizon=0.01)
    assert Replica(cfg, 0, 1).run(0.0).positions.shape[1:] == (3, 2)
    with pytest.raises(ValueError, match="^mu0_low must be of length 2"):
        replace(cfg, mu0_low=(-1.0,), mu0_high=(1.0,))
