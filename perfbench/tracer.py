"""Span tracer that wraps the package's call sites from outside ``src/``.

Every wrapped call becomes a span (name, start, end, parent) held in compact
in-memory arrays and written once, at the end of a run.  A wrapper is
installed at each place the package actually looks a name up (a module
global such as ``harness.simulate``, or a class attribute such as
``NetworkCoefficients.drift``), so the same function reached through two
modules gets two wrappers that share one canonical span name.  Installation
fails loudly when a call site no longer exists, so a refactor that renames a
public function cannot silently drop a layer; removal restores the original
objects and checks that it did.

The layer of a span is the prefix of its canonical name (``dynamics.simulate``
belongs to ``dynamics``).  The command-line module is folded into ``harness``.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = ("coefficients", "dynamics", "fluctuations", "measures", "diagnostics", "harness")
# spans whose time is replica work rather than orchestration
WORK_LAYERS = ("coefficients", "dynamics", "fluctuations", "measures")
EXPERIMENTS = ("harness.exp_lln_rate", "harness.exp_clt_rate", "harness.exp_sgd_compare")
AGGREGATES = ("harness.fit_slope", "harness.sgd_trend_gate")
IO_SPANS = ("harness.cli", "harness.write")
STEP_SPAN = "dynamics.step_interacting"
FEATURE_SPANS = ("coefficients.feature_matrix", "coefficients.grad_feature_matrix")


class TracerError(RuntimeError):
    """A call site is missing, a wrapper leaked, or the spans do not add up."""


def call_sites() -> list[tuple[object, str, str]]:
    """(owner, attribute, canonical span name) for every traced call site."""
    from meanfield_sgd import cli, coefficients, diagnostics, dynamics, fluctuations, harness, measures

    net = coefficients.NetworkCoefficients
    return [
        # coefficients: evaluators reached through the coefficient object
        *[(net, m, f"coefficients.{m}") for m in (
            "drift", "noise_increment", "noise_matrix", "residuals", "feature_matrix",
            "grad_feature_matrix", "drift_jacobian_apply", "vtilde_y_apply")],
        # dynamics
        (harness, "simulate", "dynamics.simulate"),
        (dynamics, "simulate", "dynamics.simulate"),
        (harness, "simulate_transport", "dynamics.simulate_transport"),
        (dynamics, "step_interacting", STEP_SPAN),
        (harness, "run_sgd", "dynamics.run_sgd"),
        (harness, "sample_initial", "dynamics.sample_initial"),
        (dynamics, "sample_initial", "dynamics.sample_initial"),
        (dynamics.NoisePath, "__init__", "dynamics.noise_path"),
        (dynamics.NoisePath, "coarsened", "dynamics.noise_path"),
        # fluctuations
        (harness, "solve_tangent", "fluctuations.solve_tangent"),
        (fluctuations, "tangent_step", "fluctuations.tangent_step"),
        (harness, "eta_eps", "fluctuations.eta_eps"),
        (harness, "clt_distance", "fluctuations.clt_distance"),
        # measures
        (harness, "w2", "measures.w2"),
        (measures, "w2_detailed", "measures.w2_detailed"),
        (fluctuations, "sobolev_neg_norm_diff", "measures.hneg"),
        (measures, "sobolev_neg_norm", "measures.hneg"),
        (measures, "spectral_coefficients", "measures.spectral_coefficients"),
        # diagnostics (called from the benchmark through the module)
        (diagnostics, "smfe_weak_residual_panel", "diagnostics.weak_residual"),
        (diagnostics, "qv_check", "diagnostics.qv"),
        (diagnostics, "min_pairwise_distance", "diagnostics.collision"),
        (diagnostics, "moment_track", "diagnostics.moments"),
        (diagnostics, "write_report", "diagnostics.write_report"),
        # harness, with the command line folded in as io
        (cli, "main", "harness.cli"),
        (harness.ResultTable, "write", "harness.write"),
        (harness.ResultTable, "values", "harness.lookup"),
        (harness.ResultTable, "values_by_seed", "harness.lookup"),
        (cli, "exp_lln_rate", "harness.exp_lln_rate"),
        (cli, "exp_clt_rate", "harness.exp_clt_rate"),
        (harness, "exp_sgd_compare", "harness.exp_sgd_compare"),
        (harness, "fit_slope", "harness.fit_slope"),
        (harness, "sgd_trend_gate", "harness.sgd_trend_gate"),
        (harness, "build_coefficients", "harness.build_coefficients"),
        (cli, "build_coefficients", "harness.build_coefficients"),
    ]


class Tracer:
    """Records spans of wrapped calls; use as a context manager per pass."""

    def __init__(self):
        self._sites = call_sites()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.pass_id = array("i")
        self._stack = [-1]
        self._pass = 0
        self._saved: list[tuple[object, str, object]] = []
        # per-pass extras read from call results
        self.sgd_steps = 0
        self.w2_exact = 0
        self.rows = 0
        self.failed_rows = 0

    # --- installation -----------------------------------------------------

    def __enter__(self):
        self.sgd_steps = self.w2_exact = self.rows = self.failed_rows = 0
        for owner, attr, name in self._sites:
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self._restore()
                raise TracerError(f"call site {_label(owner)}.{attr} is gone; "
                                  f"update perfbench/tracer.py so layer {name.split('.')[0]} stays measured")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        self._restore()
        self._pass += 1
        return False

    def _restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        leaked = [f"{_label(o)}.{a}" for o, a, orig in self._saved
                  if (o.__dict__.get(a) if isinstance(o, type) else getattr(o, a)) is not orig]
        self._saved = []
        if leaked:
            raise TracerError(f"wrappers left installed: {leaked}")

    def _wrap(self, fn, name: str):
        sid = self._name_ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end, pass_id = self.name_id, self.parent, self.start, self.end, self.pass_id
        extra = self._extra_hook(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            pass_id.append(self._pass)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if extra is not None:
                extra(args, result)
            return result

        return wrapper

    def _extra_hook(self, name: str):
        if name == "dynamics.run_sgd":
            def hook(args, chain):
                self.sgd_steps += chain.n_steps
            return hook
        if name == "measures.w2_detailed":
            def hook(args, result):
                self.w2_exact += result[1].get("backend") in ("assignment", "quantile")
            return hook
        if name == "harness.write":
            def hook(args, result):
                rows = args[0].rows
                self.rows += len(rows)
                self.failed_rows += sum(1 for r in rows if r[3] == "failed")
            return hook
        return None

    # --- analysis ---------------------------------------------------------

    def pass_metrics(self, wall_s: float, cells: int) -> dict[str, float]:
        """Per-layer metrics of the most recent traced pass, timed ``wall_s``."""
        sel = np.flatnonzero(np.frombuffer(self.pass_id, dtype=np.int32) == self._pass - 1)
        if sel.size == 0:
            raise TracerError("the traced pass recorded no spans")
        first = sel[0]
        names = np.frombuffer(self.name_id, dtype=np.int32)[sel]
        parent = np.frombuffer(self.parent, dtype=np.int32)[sel].copy()
        parent[parent >= 0] -= first
        start = np.frombuffer(self.start)[sel]
        end = np.frombuffer(self.end)[sel]
        dur = end - start
        inner = parent >= 0
        if np.any(dur < 0) or np.any(start[inner] < start[parent[inner]]) \
                or np.any(end[inner] > end[parent[inner]]):
            raise TracerError("spans are not properly nested")
        child = np.zeros(sel.size)
        np.add.at(child, parent[inner], dur[inner])
        self_t = dur - child
        roots = np.flatnonzero(~inner)
        other = wall_s - float(dur[roots].sum())
        if other < 0:
            raise TracerError(f"root spans exceed the pass wall time by {-other:.3g} s")

        def mask(*wanted):
            ids = [self._name_ids[w] for w in wanted if w in self._name_ids]
            return np.isin(names, ids)

        def count(*wanted):
            return int(mask(*wanted).sum())

        def self_s(*wanted):
            return float(self_t[mask(*wanted)].sum())

        def incl_s(*wanted):
            return float(dur[mask(*wanted)].sum())

        def us_per_call(*wanted):
            n = count(*wanted)
            return 1e6 * incl_s(*wanted) / n if n else 0.0

        layer_of = np.array([n.split(".")[0] for n in self.names])[names]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self_t[layer_of == layer].sum())
        out["other.self_s"] = other
        gap = sum(out[f"{layer}.self_s"] for layer in LAYERS) + other - wall_s
        if abs(gap) > 1e-9 * max(1.0, wall_s):
            raise TracerError(f"layer self times miss the traced wall time by {gap:.3g} s")

        steps = count(STEP_SPAN)
        in_step = _has_ancestor(parent, mask(STEP_SPAN))
        feature_in_step = int((mask(*FEATURE_SPANS) & in_step).sum())
        hneg = count("measures.hneg")
        w2_calls = count("measures.w2_detailed")
        out.update({
            "coefficients.drift.calls": count("coefficients.drift"),
            "coefficients.drift.us_per_call": us_per_call("coefficients.drift"),
            "coefficients.noise_increment.calls": count("coefficients.noise_increment"),
            "coefficients.noise_increment.us_per_call": us_per_call("coefficients.noise_increment"),
            "coefficients.noise_matrix.calls": count("coefficients.noise_matrix"),
            "coefficients.noise_matrix.us_per_call": us_per_call("coefficients.noise_matrix"),
            "coefficients.tangent_terms.us_per_call":
                us_per_call("coefficients.drift_jacobian_apply", "coefficients.vtilde_y_apply"),
            "coefficients.feature_evals_per_step": feature_in_step / steps if steps else 0.0,
            "dynamics.steps": steps,
            "dynamics.us_per_step": us_per_call(STEP_SPAN),
            "dynamics.simulate_per_cell": count("dynamics.simulate") / cells,
            "dynamics.run_sgd.self_s": self_s("dynamics.run_sgd"),
            "dynamics.sgd_steps": self.sgd_steps,
            "fluctuations.tangent_step.us_per_call": us_per_call("fluctuations.tangent_step"),
            "fluctuations.eta_eps.self_s": self_s("fluctuations.eta_eps"),
            "fluctuations.clt_distance.self_s": self_s("fluctuations.clt_distance"),
            "measures.w2.calls": w2_calls,
            "measures.w2.us_per_call": us_per_call("measures.w2_detailed"),
            "measures.w2.self_s": self_s("measures.w2", "measures.w2_detailed"),
            "measures.w2.exact_frac": self.w2_exact / w2_calls if w2_calls else 0.0,
            "measures.hneg.calls": hneg,
            "measures.hneg.us_per_call": us_per_call("measures.hneg"),
            "measures.spectral_coefficients.calls": count("measures.spectral_coefficients"),
            "measures.spectral_coefficients_per_norm":
                count("measures.spectral_coefficients") / hneg if hneg else 0.0,
            "diagnostics.weak_residual.self_s": self_s("diagnostics.weak_residual"),
            "diagnostics.qv.self_s": self_s("diagnostics.qv"),
            "diagnostics.collision.self_s": self_s("diagnostics.collision"),
            "diagnostics.moments.self_s": self_s("diagnostics.moments"),
            "harness.rows": self.rows,
            "harness.lookups": count("harness.lookup"),
            "harness.aggregate_s": _aggregate_s(parent, start, end, layer_of,
                                                mask(*EXPERIMENTS), mask(*AGGREGATES)),
            "harness.io_s": self_s(*IO_SPANS),
            "harness.failed_cells": self.failed_rows,
            "trace.wall_s": wall_s,
        })
        return out

    def write(self, path: str):
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), pass_id=np.frombuffer(self.pass_id, np.int32))


def _label(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


def _has_ancestor(parent: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """True where some proper ancestor of the span is flagged."""
    out = np.zeros(parent.size, dtype=bool)
    for i in range(parent.size):  # parents precede children
        p = parent[i]
        out[i] = p >= 0 and (flagged[p] or out[p])
    return out


def _aggregate_s(parent, start, end, layer_of, is_exp, is_agg) -> float:
    """Experiment time after the last replica-work span, plus fits and gates
    run outside an experiment."""
    n = parent.size
    exp_of = np.full(n, -1)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            exp_of[i] = p if is_exp[p] else exp_of[p]
    work = np.isin(layer_of, WORK_LAYERS)
    total = 0.0
    for e in np.flatnonzero(is_exp):
        inside = work & (exp_of == e)
        last = end[inside].max() if inside.any() else start[e]
        total += end[e] - last
    total += float((end - start)[is_agg & (exp_of < 0)].sum())
    return float(total)
