"""Outside-in tracing of hjvisc: spans recorded around calls into each module.

Nothing under src/ is edited. While a `Tracer` is installed, each public
function on the list below is replaced, at the module attribute its caller
looks up, by a wrapper that records a span (name, start, end, parent span)
and counts what the call did. Spans go into flat in-memory arrays, two per
Fokker-Planck step at most, so tracing one `adjoint` pass (about 6.5e5
spans) costs about 16 MB and no file I/O; the spans are written out once,
after the run. Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

import numpy as np

_clock = time.perf_counter

# Span names, in the order their ids are assigned.
SPANS = (
    "cli", "harness", "viscous", "tridiag", "inviscid.ode", "inviscid.lf",
    "adjoint.stationary", "adjoint.average", "adjoint.fp_first_yield",
    "adjoint.fp_step", "core.density_check", "measures.ergodic",
    "measures.extract", "measures.action", "regularize.supconv",
    "regularize.defect",
)
_ID = {name: i for i, name in enumerate(SPANS)}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def begin(self, span_id: int) -> int:
        idx = len(self.start)
        self.name.append(span_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(_clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _clock()
        self.stack.pop()

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def wrap(self, span: str, fn: Callable,
             on_result: Callable[[Tracer, Any], None] | None = None) -> Callable:
        span_id = _ID[span]

        def traced(*args, **kwargs):
            idx = self.begin(span_id)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.count(f"{span}.errors")
                raise
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    def stream(self, gen: Iterable) -> Iterator:
        """Re-yield a generator, timing each next() as its own span.

        The first next() (factorization plus the initial snapshot) is the
        `adjoint.fp_first_yield` span; every later one is one time step.
        """
        it = iter(gen)
        span_id = _ID["adjoint.fp_first_yield"]
        step_id = _ID["adjoint.fp_step"]
        while True:
            idx = self.begin(span_id)
            try:
                item = next(it)
            except StopIteration:
                self.name[idx] = -1  # the exhausting call did no step
                return
            finally:
                self.finish(idx)
            span_id = step_id
            yield item

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (spans, total seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        keep = a["name"] >= 0
        names = a["name"][keep]
        size = len(SPANS)
        calls = np.bincount(names, minlength=size)
        total = np.bincount(names, weights=dur[keep], minlength=size)
        self_s = np.bincount(names, weights=own[keep], minlength=size)
        return {s: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, s in enumerate(SPANS)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, span_names=np.array(SPANS), **self.arrays())


def _viscous_report(tracer: Tracer, out) -> None:
    report = out[1]
    tracer.count("viscous.newton_iters", report.iterations)
    tracer.count("viscous.continuation_levels", report.continuation_steps)
    tracer.count("viscous.unconverged", int(not report.converged))


def _lf_report(tracer: Tracer, out) -> None:
    tracer.count("inviscid.lf_sweeps", out[1].iterations)


def _sweep_result(tracer: Tracer, result) -> None:
    tracer.count("harness.points", len(result.records) + len(result.failed_lambdas))
    tracer.count("harness.failed_points", len(result.failed_lambdas))


def _swaps(hv) -> list[tuple[Any, str, str, Callable | None]]:
    """(module, attribute, span, result hook) for every traced call site.

    The attributes named by the calling layer (viscous -> tridiag,
    harness -> viscous, ...) sit next to the entry points the benchmark
    itself calls (cli.main, the adjoint and measures functions).
    """
    cli, harness, viscous = hv.cli, hv.harness, hv.viscous
    adjoint, measures = hv.adjoint, hv.measures
    swaps = [
        (viscous, "solve_cyclic_tridiagonal", "tridiag", None),
        (adjoint, "solve_cyclic_tridiagonal", "tridiag", None),
        (adjoint, "DensityField", "core.density_check", None),
        (cli, "run_sweep", "harness", _sweep_result),
        (cli, "sup_convolution", "regularize.supconv", None),
        (cli, "subsolution_defect", "regularize.defect", None),
        (cli, "main", "cli", None),
        (adjoint, "solve_adjoint_stationary", "adjoint.stationary", None),
        (adjoint, "stationary_from_transient", "adjoint.average", None),
        (measures, "estimate_ergodic_constant", "measures.ergodic", None),
        (measures, "extract_measure", "measures.extract", None),
        (measures, "measure_action", "measures.action", None),
    ]
    for mod in (harness, measures, cli, viscous):
        swaps.append((mod, "solve_viscous", "viscous", _viscous_report))
    for mod in (harness, cli):
        swaps.append((mod, "solve_pendulum_ode", "inviscid.ode", None))
        swaps.append((mod, "solve_discounted_lax_friedrichs", "inviscid.lf", _lf_report))
    return swaps


@contextmanager
def installed(hv, tracer: Tracer) -> Iterator[Tracer]:
    """Swap in the traced functions; restore the originals on exit."""
    saved = []
    try:
        for mod, attr, span, hook in _swaps(hv):
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(span, original, hook))
        evolve = hv.adjoint.evolve_fokker_planck
        saved.append((hv.adjoint, "evolve_fokker_planck", evolve))
        hv.adjoint.evolve_fokker_planck = \
            lambda *a, **k: tracer.stream(evolve(*a, **k))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass: every per_layer metric of
    BENCHMARK.json but trace.overhead_frac, which needs untraced passes."""
    t = tracer.layer_totals()
    c = tracer.counts
    tri_calls, tri_total, _ = t["tridiag"]
    return {
        "viscous.self_s": t["viscous"][2],
        "viscous.calls": t["viscous"][0],
        "viscous.newton_iters": c.get("viscous.newton_iters", 0),
        "viscous.continuation_levels": c.get("viscous.continuation_levels", 0),
        "viscous.unconverged": c.get("viscous.unconverged", 0),
        "tridiag.busy_s": tri_total,
        "tridiag.calls": tri_calls,
        "tridiag.us_per_call": 1e6 * tri_total / tri_calls if tri_calls else 0.0,
        "tridiag.errors": c.get("tridiag.errors", 0),
        "inviscid.ode_s": t["inviscid.ode"][1],
        "inviscid.ode_calls": t["inviscid.ode"][0],
        "inviscid.lf_s": t["inviscid.lf"][1],
        "inviscid.lf_calls": t["inviscid.lf"][0],
        "inviscid.lf_sweeps": c.get("inviscid.lf_sweeps", 0),
        "adjoint.fp_step_self_s": t["adjoint.fp_step"][2],
        "adjoint.fp_steps": t["adjoint.fp_step"][0],
        "adjoint.fp_first_yield_s": t["adjoint.fp_first_yield"][1],
        "adjoint.average_self_s": t["adjoint.average"][2],
        "adjoint.stationary_self_s": t["adjoint.stationary"][2],
        "core.density_checks": t["core.density_check"][0],
        "core.density_check_s": t["core.density_check"][1],
        "measures.ergodic_self_s": t["measures.ergodic"][2],
        "measures.extract_s": t["measures.extract"][1],
        "measures.action_s": t["measures.action"][1],
        "regularize.supconv_s": t["regularize.supconv"][1],
        "regularize.defect_s": t["regularize.defect"][1],
        "harness.self_s": t["harness"][2],
        "harness.points": c.get("harness.points", 0),
        "harness.failed_points": c.get("harness.failed_points", 0),
        "cli.self_s": t["cli"][2],
    }
