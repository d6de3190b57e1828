"""hjvisc benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload {sweep,adjoint,generic} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. One process, one caller, closed loop:
after set-up and a warm-up, passes over the workload's fixed operations run
back to back until S seconds have passed. HJVISC_THREADS is removed from the
environment, so the sweep thread pool stays off.

--trace 0 reports the end-to-end metrics (setup_s, pass_s, ok_frac,
peak_rss_mb, oracle_err). --trace 1 alternates untraced and traced passes
and reports the per-layer metrics of spans.py plus the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The full record, with
the machine description, goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import time

_T0 = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
THREAD_VARS = ("HJVISC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_hjvisc():
    """Import the checkout's own package; exit 1 when ./src does not hold it."""
    if not (SRC / "hjvisc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hjvisc package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import hjvisc

    if Path(hjvisc.__file__).resolve().parent != SRC / "hjvisc":
        sys.exit(f"perfbench: imported hjvisc from {hjvisc.__file__}, not {SRC}")
    return hjvisc


def _setup_probes(args) -> list[float]:
    """Set-up time of fresh processes: spawn to ready for the first operation."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = _monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _machine(seen_env: dict[str, str | None]) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env_seen": seen_env,
        "git_commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "adjoint", "generic"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print the ready time and exit")
    args = parser.parse_args()

    seen_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.pop("HJVISC_THREADS", None)
    hv = _import_hjvisc()
    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](hv, args.seed, workdir)
        if args.setup_probe:
            print(f"ready {_monotonic()!r}")
            return 0
        own_setup = _monotonic() - _T0
        setups = _setup_probes(args)
        warm = workload.warmup()
        return _measure(args, hv, workload, warm, setups, own_setup, seen_env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, hv, workload, warm, setups, own_setup, seen_env) -> int:
    from spans import Tracer, installed, layer_metrics

    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    oracle: list[float] = []
    # the warm-up's checks count; its operations are not measured
    attempted = failed = 0
    correct = warm.correct
    problems: list[str] = list(warm.problems)
    tracer = None
    deadline = time.perf_counter() + args.seconds
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        if use_trace:
            tracer = Tracer()
            with installed(hv, tracer):
                start = time.perf_counter()
                outcome = workload.run_pass()
                traced.append(time.perf_counter() - start)
            layers.append(layer_metrics(tracer))
        else:
            start = time.perf_counter()
            outcome = workload.run_pass()
            plain.append(time.perf_counter() - start)
        attempted += outcome.attempted
        failed += outcome.failed
        correct = correct and outcome.correct
        problems.extend(outcome.problems)
        oracle.append(outcome.oracle_err)
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break

    q1, pass_s, q3 = _quartiles(plain)
    summary = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_err": statistics.median(oracle),
    }
    if args.trace:
        metrics = {k: statistics.median(layer[k] for layer in layers)
                   for k in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(traced) / pass_s - 1.0
    else:
        metrics = summary
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} "
                 "do not match BENCHMARK.json")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seeded input: {workload.seeded or 'none'} {json.dumps(workload.inputs)}")
    print(f"  setup_s     {summary['setup_s']:.4f} s   median of {len(setups)} fresh "
          f"processes (this process: {own_setup:.4f} s)")
    print(f"  pass_s      {pass_s:.4f} s   median of {len(plain)} untraced passes "
          f"(q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  fail_frac   {failed / attempted:.4f}     {failed} of {attempted} operations "
          f"failed (ok_frac {summary['ok_frac']:.4f})")
    print(f"  peak_rss_mb {summary['peak_rss_mb']:.1f} MB")
    print(f"  oracle_err  {summary['oracle_err']:.6g}")
    if args.trace:
        print(f"  traced passes {len(traced)}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in metrics.items()))
    for why in dict.fromkeys(problems):
        print(f"  check failed: {why}")
    machine = _machine(seen_env)
    print(f"  machine {json.dumps(machine)}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "seeded": workload.seeded, "inputs": workload.inputs,
        "machine": machine, "setup_samples_s": setups,
        "setup_this_process_s": own_setup, "pass_samples_s": plain,
        "traced_pass_samples_s": traced, "summary": summary,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "correct": correct, "problems": sorted(set(problems)),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if tracer is not None:
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
