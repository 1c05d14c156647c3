"""Benchmark of the meanfield-sgd laboratory: time to a verified result.

    python3 perfbench/run.py --workload lln-rate --seed 0 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` in a
single process with the BLAS pinned to one thread.  Each workload is a
closed loop of experiment passes on the inputs ``--seed`` makes (see
workloads.py).

With ``--trace 0`` the run reports, as medians over the passes of the run:
``wall_s`` (one pass: experiment, fit or gate, results written), ``cpu_s``
(user plus system CPU of the pass), ``setup_s`` (a fresh interpreter from
start to its first experiment call, median of several) and ``peak_rss_mb``
(peak resident set of the run's process).  Pass times and the per-layer
times are expressed at reference host speed by a sampler that runs inside
each pass (calibrate.py); the raw times are kept in the facts file.  With
``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the traced passes (tracer.py) and the tracing
overhead, then times single layer calls at N in {200, 2000, 20000}.

Every run first makes one untraced pass on reference seed ``seed % 2`` and
compares its headline outputs with ``perfbench/reference.json``, recorded
before any optimisation, within relative tolerance ``RTOL``; that pass also
warms caches.  The measured passes then run on ``--seed`` and must agree
bit for bit with each other, traced or not.  ``attempted`` counts grid
cells and compared outputs; ``failed`` counts failed grid cells and
deviating outputs, so ``failed / attempted`` is the run's failed fraction.

The last line of standard output is the JSON result.  The run facts
(machine, versions, BLAS, git SHA, config hashes, every pass time) go to
``perfbench/out/<workload>-seed<n>-trace<t>.json`` and, on the line before,
to standard output; traced spans go to ``perfbench/out/<workload>-seed<n>-spans.npz``.

Other modes: ``--smoke`` runs every workload on tiny configs, traced and
untraced, and checks that each metric of BENCHMARK.json is emitted with its
unit; ``--record`` rewrites the reference outputs; ``--probe-setup`` is the
child process that measures set-up time.
"""

import os

# pinned before numpy is imported anywhere in this process or its children
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join("perfbench", "out")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = (0, 1)
# perturbing every drift evaluation by 1e-15 relative (beyond what a
# reassociated kernel does) moves the outputs by at most 4e-10 relative; a
# change of behaviour moves them by far more
RTOL = 1e-7
MIN_PASSES = 3          # measured passes per untraced run
MIN_TRACED = 2          # traced (and interleaved untraced) passes per traced run
SETUP_PROBES = 5
WORKLOAD_NAMES = ("lln-rate", "clt-rate", "sgd-compare", "structural")


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if "us_per_" in name or "_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if "_per_" in name:
        return "count/" + name.rsplit("_per_", 1)[1]
    return "count"


def deviations(got: dict, want: dict, rtol: float) -> list[str]:
    """Output names that are missing or differ by more than ``rtol`` (0: bitwise)."""
    bad = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
            ok = a is not None and a == b
        else:
            ok = abs(a - b) <= rtol * max(abs(a), abs(b))  # False for nan
        if not ok:
            bad.append(key)
    return bad


class Ledger:
    """Grid cells and headline outputs attempted, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, po, want: dict | None, rtol: float):
        self.attempted += po.cells
        self.failed += po.failed_rows
        if po.failed_rows:
            self.problems.append(f"{label}: {po.failed_rows} failed cell(s)")
        if want is None:
            return
        bad = deviations(po.outputs, want, rtol)
        self.attempted += len(set(po.outputs) | set(want))
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{label}: outputs differ: {bad}")


def probe_setup(name: str, smoke: bool) -> float:
    """Seconds from starting a fresh interpreter to its first experiment call.

    Not rescaled for host speed: the speed sampler runs cold in an importing
    interpreter and scatters more than the raw time does.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", name]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
    return ready - t0


def run_facts(workload, seed: int, ref_seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "meanfield_sgd")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src_hash.update(fname.encode() + b"\0" + fh.read())
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                                 capture_output=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = None  # a source checkout without git metadata
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "config_hash": workload.config_hash(seed),
        "reference_config_hash": workload.config_hash(ref_seed),
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object (plus run facts)."""
    from calibrate import measured
    from workloads import WORKLOADS, size_sweep

    setup = [probe_setup(name, smoke) for _ in range(0 if trace else 1 if smoke else SETUP_PROBES)]
    workload = WORKLOADS[name](os.path.join(OUT, name), smoke)
    ledger = Ledger()

    ref_seed = seed % len(REFERENCE_SEEDS)
    reference = None
    if not smoke:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[name][str(ref_seed)]
    ledger.add(f"reference seed {ref_seed}", workload.collect(workload.run_pass(ref_seed)),
               reference, RTOL)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()

    def traced_pass():
        with tracer:
            return workload.run_pass(seed)

    walls, cpus, raw_walls, factors, traced_walls, layers = [], [], [], [], [], []
    first = None
    begin = time.perf_counter()
    while len(walls) < (MIN_TRACED if trace else MIN_PASSES) \
            or (time.perf_counter() - begin) * (len(walls) + 1) / len(walls) <= seconds:
        m = measured(lambda: workload.run_pass(seed))
        po = workload.collect(m.result)
        first = first or po.outputs
        ledger.add(f"pass {len(walls)}", po, first, 0.0)
        raw_walls.append(m.wall_s)
        factors.append(m.factor)
        walls.append(m.wall_s * m.factor)
        cpus.append(m.cpu_s * m.factor)
        if trace:
            m = measured(traced_pass)
            po = workload.collect(m.result)
            ledger.add(f"traced pass {len(traced_walls)}", po, first, 0.0)
            traced_walls.append(m.wall_s * m.factor)
            # spans include the sampler's kernels pro rata; scale them out
            gross = m.wall_s + m.kernel_s
            scale = m.factor * m.wall_s / gross
            layers.append({k: v * scale if unit_of(k) in ("s", "us") else v
                           for k, v in tracer.pass_metrics(gross, po.cells).items()})

    if trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        metrics.update(size_sweep(smoke))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    facts = run_facts(workload, seed, ref_seed)
    facts.update(workload=name, seed=seed, trace=int(trace), smoke=smoke, seconds=seconds,
                 rtol=RTOL, reference_seed=ref_seed, pass_walls_s=walls, pass_cpu_s=cpus,
                 raw_pass_walls_s=raw_walls, pass_speed_factors=factors, traced_walls_s=traced_walls,
                 setup_probes_s=setup,
                 wall_quartiles_s=statistics.quantiles(walls, n=4),
                 problems=ledger.problems, failed_frac=ledger.failed / ledger.attempted,
                 outputs=first)
    tag = f"{name}-seed{seed}"
    with open(os.path.join(OUT, f"{tag}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "metrics": metrics}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"{tag}-spans.npz"))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "facts": facts,
    }


def smoke() -> int:
    """Every workload on a tiny config, untraced and traced; checks names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        raise RuntimeError("BENCHMARK.json and run.py list different workloads")
    for name in WORKLOAD_NAMES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run(name, seed=0, seconds=0.0, trace=trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise RuntimeError(f"{name} trace={trace}: metrics differ: "
                                   f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"]:
                raise RuntimeError(f"{name} trace={trace}: {result['facts']['problems']}")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    return 0


def record() -> int:
    """Rewrite reference.json from one pass per workload and reference seed."""
    from workloads import WORKLOADS

    table = {}
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name](os.path.join(OUT, name), smoke=False)
        table[name] = {str(s): workload.collect(workload.run_pass(s)).outputs for s in REFERENCE_SEEDS}
        print(f"recorded {name}")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--probe-setup", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isdir(os.path.join(SRC, "meanfield_sgd")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT, exist_ok=True)
    if args.probe_setup:
        from workloads import WORKLOADS

        WORKLOADS[args.probe_setup](os.path.join(OUT, args.probe_setup), args.smoke)
        print("ready", flush=True)
        return 0
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    facts = result.pop("facts")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
