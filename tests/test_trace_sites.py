"""The benchmark's span tracer (``perfbench/tracer.py``) wraps package call
sites by name from outside ``src/``.  A refactor that renames or bypasses
one breaks ``python3 perfbench/run.py --trace 1``; these tests catch that in
the tier-1 suite."""

import importlib.util
import inspect
import os

import numpy as np
import pytest

from meanfield_sgd import dynamics, fluctuations
from meanfield_sgd.harness import build_coefficients, build_initial_spec, reference_config

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "tracer.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

SITES = tracer.call_sites()


@pytest.mark.parametrize("owner, attr, name", SITES,
                         ids=[f"{tracer._label(o)}.{a}" for o, a, _ in SITES])
def test_call_site_resolves(owner, attr, name):
    found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(found), f"{name} is traced at {tracer._label(owner)}.{attr}, which is gone"


@pytest.mark.parametrize("step", [dynamics.step_interacting, fluctuations.tangent_step],
                         ids=["step_interacting", "tangent_step"])
def test_step_keeps_the_benchmark_signature(step):
    """perfbench/workloads.py times ``step(state, coeffs, cfg, dB)`` positionally."""
    params = list(inspect.signature(step).parameters.values())
    assert [p.name for p in params[1:]] == ["coeffs", "cfg", "dB"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


def test_integrators_reach_the_traced_steps():
    """simulate and solve_tangent call their step through the module name the
    tracer wraps, and the tracer restores every original on exit."""
    cfg = reference_config(n_particles=5, dt=1e-2, horizon=3e-2)
    coeffs = build_coefficients(cfg)
    initial = dynamics.sample_initial(build_initial_spec(cfg), 5, 0)
    noise = dynamics.NoisePath(0, 1e-2, 3, coeffs.n_channels)
    run = dynamics.IntegratorConfig(dt=1e-2, horizon=3e-2, eps=1e-2)
    originals = [(o, a, o.__dict__.get(a) if isinstance(o, type) else getattr(o, a))
                 for o, a, _ in SITES]
    with tracer.Tracer() as t:
        dynamics.simulate(initial, coeffs, run, noise)
        fluctuations.solve_tangent(initial.positions, coeffs, run, noise)
    names = np.array(t.names)[np.frombuffer(t.name_id, dtype=np.int32)]
    assert np.count_nonzero(names == tracer.STEP_SPAN) == 3
    assert np.count_nonzero(names == "fluctuations.tangent_step") == 3
    for owner, attr, original in originals:
        now = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr)
        assert now is original
