"""Span tracing of geodet's public functions, from the benchmark's side.

The traced run replaces each listed public function by a wrapper that
records a span (name, start, end, parent, instance id, attributes), under
every name the package binds it to, so calls through ``from .x import f``
are traced too.  The benchmark's own potential callables are counted and
timed as leaf regions without a span per call: their time is charged to
the enclosing span as child time, so self times stay exact.  Spans stay in
memory and are written out when the run ends.  ``src/`` is not modified.
"""

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import geodet  # noqa: F401 - the modules below must be loaded before patching
import geodet.cli  # noqa: F401
import geodet.validation  # noqa: F401

LAYERS = ("interval", "geometry", "galerkin", "gelfand_yaglom", "heat", "cli", "validation")

# cancellation depth (decimal digits) at which the oracle leaves float64
DEEP_DIGITS = 9.0


def _arguments(sig, args, kwargs):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _nodes(a, result):
    return {"nodes": len(result[0])}


def _dim(a, result):
    return {"dim": result.dimension}


def _solve_steps(a, result):
    steps = a["steps"]
    return {"rk4_steps": steps + max(steps // 2, 8)}


def _degenerate_steps(a, result):
    steps = a["steps"] + a["steps"] % 2
    return {"rk4_steps": 2 * steps}


def _zeta_steps(a, result):
    # the deflated route propagates J and K once more at an even step count
    if result.route != "deflated":
        return {}
    return _degenerate_steps(a, result)


def _oracle(a, result):
    spec, t = a["spec"], a["t"]
    th = abs(float(a["theta"])) % (2.0 * math.pi)
    th = 2.0 * math.pi - th if th > math.pi else th
    d = spec.R * th
    digits = d * d / (4.0 * t) / math.log(10.0)
    return {"deep": digits > DEEP_DIGITS, "degree": spec.max_degree}


def _records(a, result):
    return {"records": len(result)}


# module -> {public function: attribute extractor or None}
WRAPPED = {
    "interval": {"mode_quadrature": _nodes},
    "geometry": {"jacobi_endomorphism": None},
    "galerkin": {
        "assemble_hessian_fourier": _dim,
        "fredholm_det": None,
        "fredholm_det_deflated": None,
        "assemble_hessian_piecewise": _dim,
        "fredholm_det_piecewise": None,
        "hessian_trace": None,
        "evaluation_map_jacobian": None,
    },
    "gelfand_yaglom": {
        "solve_jacobi_ode": _solve_steps,
        "gy_ratio": None,
        "gy_degenerate_ratio": _degenerate_steps,
        "zeta_det_jacobi": _zeta_steps,
        "zeta_det_dirichlet_laplacian": None,
    },
    "heat": {
        "sphere_heat_kernel": _oracle,
        "heat_limit_validation": None,
        "nondegenerate_limit_prediction": None,
        "antipodal_limit_via_Sxy": None,
    },
    "cli": {"main": None, "build_report": None},
    "validation": {"run_validation": _records},
}


@dataclass
class Span:
    name: str
    parent: int
    instance: int
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and leaf regions
    attrs: dict = None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _Leaf:
    """Callable that counts and times calls into a benchmark-owned function."""

    def __init__(self, tracer, fn, record):
        self._tracer, self._fn, self._record = tracer, fn, record

    def __call__(self, *args):
        t0 = time.perf_counter()
        out = self._fn(*args)
        dt = time.perf_counter() - t0
        self._record[0] += 1
        self._record[1] += dt
        stack = self._tracer.stack
        if stack:
            self._tracer.spans[stack[-1]].child_s += dt
        return out


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = -1
        self.potential = [0, 0.0]  # calls, seconds

    def wrap(self, name, fn, extract=None):
        sig = inspect.signature(fn) if extract else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.instance)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]].child_s += span.end - span.start
            if extract:
                span.attrs = extract(_arguments(sig, args, kwargs), result)
            return result

        return wrapper

    def potential_hook(self, potential):
        """Wrap one of the benchmark's potential callables as a leaf region."""
        return _Leaf(self, potential, self.potential)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                row = {"id": i, "name": sp.name, "parent": sp.parent, "instance": sp.instance,
                       "start": sp.start, "end": sp.end, "self_ms": 1e3 * sp.self_s}
                if sp.attrs:
                    row["attrs"] = sp.attrs
                fh.write(json.dumps(row) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding of the WRAPPED functions in geodet's modules."""
    modules = [m for name, m in sys.modules.items() if name == "geodet" or name.startswith("geodet.")]
    patches = []
    try:
        for modname, funcs in WRAPPED.items():
            home = sys.modules["geodet." + modname]
            for fname, extract in funcs.items():
                orig = getattr(home, fname)
                wrapper = tracer.wrap(f"{modname}.{fname}", orig, extract)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, orig in reversed(patches):
            setattr(mod, attr, orig)


def per_layer_metrics(tracer: Tracer, failed_instances, plain_s, traced_s, process_s=0.0):
    """The per-layer metrics of BENCHMARK.json from the recorded spans.

    ``.ms`` figures are summed self times; counts are exact.
    ``failed_instances`` holds the instance ids that failed their check;
    ``plain_s`` and ``traced_s`` are the summed wall times of the
    instances run untraced and traced; ``process_s`` is the CLI's
    out-of-process time (interpreter start plus import).
    """
    spans = tracer.spans
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    layer_ms = {layer: 0.0 for layer in LAYERS}
    attr_sum = defaultdict(float)
    attr_max = defaultdict(float)
    oracle_ms = {True: 0.0, False: 0.0}
    oracle_useful = 0
    for sp in spans:
        ms = 1e3 * sp.self_s
        self_ms[sp.name] += ms
        calls[sp.name] += 1
        layer_ms[sp.layer] += ms
        attrs = sp.attrs or {}
        for key in ("nodes", "rk4_steps", "records"):
            attr_sum[key] += attrs.get(key, 0)
        if "dim" in attrs:
            attr_max[sp.name] = max(attr_max[sp.name], attrs["dim"])
        if sp.name == "heat.sphere_heat_kernel":
            oracle_ms[attrs["deep"]] += ms
            attr_max["degree"] = max(attr_max["degree"], attrs["degree"])
            oracle_useful += sp.instance not in failed_instances
    potential_ms = 1e3 * tracer.potential[1]
    layer_ms["geometry"] += potential_ms
    top_level_s = sum(sp.end - sp.start for sp in spans if sp.parent < 0)
    oracle_calls = calls["heat.sphere_heat_kernel"]
    mains = calls["cli.main"]

    metrics = {
        "interval.mode_quadrature.ms": self_ms["interval.mode_quadrature"],
        "interval.quadrature_nodes": attr_sum["nodes"],
        "geometry.potential.evals": tracer.potential[0],
        "geometry.potential.ms": potential_ms,
        "geometry.jacobi_endomorphism.ms": self_ms["geometry.jacobi_endomorphism"],
        "galerkin.assemble_hessian_fourier.ms": self_ms["galerkin.assemble_hessian_fourier"],
        "galerkin.fourier_dim_max": attr_max["galerkin.assemble_hessian_fourier"],
        "galerkin.fredholm_det.self_ms": self_ms["galerkin.fredholm_det"],
        "galerkin.assemble_hessian_piecewise.ms": self_ms["galerkin.assemble_hessian_piecewise"],
        "galerkin.fredholm_det_piecewise.self_ms": self_ms["galerkin.fredholm_det_piecewise"],
        "galerkin.piecewise_dim_max": attr_max["galerkin.assemble_hessian_piecewise"],
        "gelfand_yaglom.solve_jacobi_ode.calls": calls["gelfand_yaglom.solve_jacobi_ode"],
        "gelfand_yaglom.solve_jacobi_ode.ms": self_ms["gelfand_yaglom.solve_jacobi_ode"],
        "gelfand_yaglom.rk4_steps": attr_sum["rk4_steps"],
        "gelfand_yaglom.zeta_det_jacobi.self_ms": self_ms["gelfand_yaglom.zeta_det_jacobi"],
        "gelfand_yaglom.gy_degenerate_ratio.self_ms": self_ms["gelfand_yaglom.gy_degenerate_ratio"],
        "heat.sphere_heat_kernel.calls": oracle_calls,
        "heat.oracle_shallow.ms": oracle_ms[False],
        "heat.oracle_deep.ms": oracle_ms[True],
        "heat.spectrum_degree_max": attr_max["degree"],
        "heat.heat_limit_validation.self_ms": self_ms["heat.heat_limit_validation"],
        "heat.oracle_useful_frac": oracle_useful / oracle_calls if oracle_calls else 0.0,
        "cli.process_ms": 1e3 * process_s,
        "cli.main.self_ms": self_ms["cli.main"],
        "cli.solve_calls_per_invocation": _library_spans_under_main(spans) / mains if mains else 0.0,
        "validation.run_validation.ms": self_ms["validation.run_validation"],
        "validation.records": attr_sum["records"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = layer_ms[layer]
    metrics.update({
        "trace.outside_ms": 1e3 * (traced_s - top_level_s),
        "trace.instances": tracer.instance + 1,
        "trace.untraced_ms": 1e3 * plain_s,
        "trace.traced_ms": 1e3 * traced_s,
        "trace.overhead_ms": 1e3 * (traced_s - plain_s),
        "trace.overhead_frac": (traced_s - plain_s) / plain_s if plain_s else 0.0,
    })
    return metrics


def _library_spans_under_main(spans) -> int:
    """Spans of library layers (not cli) that run inside some cli.main span."""
    under = [False] * len(spans)
    count = 0
    for i, sp in enumerate(spans):
        parent = sp.parent
        under[i] = parent >= 0 and (under[parent] or spans[parent].name == "cli.main")
        count += under[i] and sp.layer != "cli"
    return count
