"""Per-layer tracing from outside the program.

The tracer replaces the name each *calling* module binds (``from .x import f``
makes a second binding, so wrapping ``twotime.x.f`` alone would miss calls
made through ``twotime.y.f``) with a wrapper that records a span: id, parent
id, request, name, start, end and a few attributes.  Spans stay in memory
and are written out as JSON lines when the run ends.  A layer's self time is
its span time minus the time of its child spans.

Each request is one root span; ``layer_metrics`` turns the spans into the
per-layer metrics of BENCHMARK.json (per request, so runs of different
length compare) and runs the self-check: a layer the workload is built to
exercise must record calls, otherwise a wrapper sits on the wrong binding.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name); a callable name derives it from the call.
BINDINGS = (
    ("twotime.cli", "parse_scenario", "scenario.parse_scenario"),
    ("twotime.cli", "run", "cli.run"),
    ("twotime.cli", "_normalized_series", "route.regression"),
    ("twotime.cli", "phase_space_series",
     lambda args, kwargs: "route." + (args[2] if len(args) > 2 else kwargs["method"])),
    ("twotime.analysis", "classify", "analysis.classify"),
    ("twotime.phasespace", "integrate", "quadrature.integrate"),
    ("twotime.phasespace", "kernel_quadratic", "propagator.kernel_quadratic"),
    ("twotime.phasespace", "normal_order_coeffs", "hilbert.normal_order_coeffs"),
    ("twotime.correlators", "unitary_matrix", "dynamics.unitary_matrix"),
    ("twotime.phasespace", "unitary_matrix", "dynamics.unitary_matrix"),
    ("twotime.propagator", "unitary_matrix", "dynamics.unitary_matrix"),
    ("twotime.dynamics", "unitary_matrix", "dynamics.unitary_matrix"),
    ("twotime.dynamics", "expm", "dynamics.expm"),
    ("twotime.dynamics", "lindblad_generator", "dynamics.lindblad_generator"),
    ("twotime.correlators", "propagated_map", "dynamics.propagated_map"),
    ("twotime.dynamics", "propagated_map", "dynamics.propagated_map"),
    ("twotime.hilbert", "DensityMatrix.validate", "hilbert.validate"),
)

ROUTES = ("regression", "propagator", "qfunction_two_variable", "qfunction_derivative")
PHASE_SPACE_ROUTES = ROUTES[1:]

# Metrics that must be nonzero on each workload (the traced-run self-check).
_SHARED = ("route.regression.s", "hilbert.validate.calls", "scenario.parse_scenario.s",
           "analysis.classify.s", "cli.run.self_s")
_OPEN = ("dynamics.expm.calls", "dynamics.lindblad_generator.s",
         "dynamics.propagated_map.calls", "correlators.regression.self_s")
EXPECTED_NONZERO = {
    "closed_triangle": _SHARED + (
        "quadrature.integrate.calls", "quadrature.integrate.gh_s",
        "quadrature.integrate.mc_s", "quadrature.integrate.mc_samples",
        "propagator.kernel_quadratic.calls", "hilbert.normal_order_coeffs.calls",
        "dynamics.unitary_matrix.calls", "phasespace.phase_space_series.self_s",
        "route.propagator.s", "route.qfunction_two_variable.s",
        "route.qfunction_derivative.s"),
    "open_regression": _SHARED + _OPEN,
    "open_sweep": _SHARED + _OPEN,
}

# name -> unit, in the order BENCHMARK.json lists the per-layer metrics.
UNITS = {
    "trace.request_s": "s/req",
    "quadrature.integrate.calls": "count/req",
    "quadrature.integrate.gh_s": "s/req",
    "quadrature.integrate.mc_s": "s/req",
    "quadrature.integrate.mc_samples": "count/req",
    "propagator.kernel_quadratic.calls": "count/req",
    "propagator.kernel_quadratic.s": "s/req",
    "phasespace.phase_space_series.self_s": "s/req",
    "hilbert.normal_order_coeffs.calls": "count/req",
    "hilbert.normal_order_coeffs.s": "s/req",
    "dynamics.unitary_matrix.calls": "count/req",
    "dynamics.unitary_matrix.s": "s/req",
    "dynamics.expm.calls": "count/req",
    "dynamics.expm.s": "s/req",
    "dynamics.expm.max_dim": "rows",
    "dynamics.expm.calls_after_first": "count",
    "dynamics.lindblad_generator.s": "s/req",
    "dynamics.propagated_map.calls": "count/req",
    "dynamics.propagated_map.hit_ratio": "ratio",
    "correlators.regression.self_s": "s/req",
    "hilbert.validate.calls": "count/req",
    "hilbert.validate.s": "s/req",
    "scenario.parse_scenario.s": "s/req",
    "analysis.classify.s": "s/req",
    "cli.run.self_s": "s/req",
    **{f"route.{r}.s": "s/req" for r in ROUTES},
    "trace.overhead_frac": "ratio",
}

CALIBRATION_CALLS = 20000


def _attributes(name: str, args) -> dict | None:
    if name == "quadrature.integrate":
        cfg = args[1]
        return {"engine": cfg.engine, "samples": cfg.sample_count}
    if name == "dynamics.expm":
        return {"dim": int(args[0].shape[0])}
    return None


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end, attrs)
        self._stack: list[int] = []
        self._request = None
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def wrap(self, fn, span_name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name if isinstance(span_name, str) else span_name(args, kwargs)
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer._request, name, start, end,
                                     _attributes(name, args)))

        return traced

    @contextlib.contextmanager
    def request(self, request_name: str):
        self._request = request_name
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, request_name, "request", start, end, None))
            self._request = None

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding in BINDINGS for the duration of the block."""
        patched = []
        try:
            for module_name, attr, span_name in BINDINGS:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                setattr(owner, leaf, self.wrap(original, span_name))
                patched.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(patched):
                setattr(owner, leaf, original)

    def span_cost(self) -> float:
        """Seconds one wrapped call adds over a bare call, measured on a no-op."""
        probe = Tracer()
        noop = lambda: None
        wrapped = probe.wrap(noop, "calibration")
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        return max(time.perf_counter() - t0 - bare, 0.0) / CALIBRATION_CALLS

    def layer_metrics(self, workload: str, n_requests: int) -> tuple[dict, list[str]]:
        """(per-layer metrics, self-check problems) from the recorded spans."""
        child_time = defaultdict(float)
        name_of, parent_of = {}, {}
        for sid, parent, _, name, start, end, _ in self.spans:
            name_of[sid], parent_of[sid] = name, parent
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        gh_s = mc_s = mc_samples = max_dim = 0
        expm_after_first = expm_under_map = 0
        first_request = min((s[2] for s in self.spans if s[3] == "request"), default=None)
        for sid, parent, request, name, start, end, attrs in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_s[name] += duration - child_time[sid]
            if name == "quadrature.integrate":
                if attrs["engine"] == "gauss_hermite_tensor":
                    gh_s += duration
                else:
                    mc_s += duration
                    mc_samples += attrs["samples"]
            elif name == "dynamics.expm":
                max_dim = max(max_dim, attrs["dim"])
                expm_after_first += request != first_request
                ancestor = parent
                while ancestor is not None and name_of[ancestor] != "dynamics.propagated_map":
                    ancestor = parent_of[ancestor]
                expm_under_map += ancestor is not None

        per = lambda x: x / n_requests
        maps = calls["dynamics.propagated_map"]
        n_spans = len(self.spans) - calls["request"]
        values = {
            "trace.request_s": per(total["request"]),
            "quadrature.integrate.gh_s": per(gh_s),
            "quadrature.integrate.mc_s": per(mc_s),
            "quadrature.integrate.mc_samples": per(mc_samples),
            "phasespace.phase_space_series.self_s":
                per(sum(self_s[f"route.{r}"] for r in PHASE_SPACE_ROUTES)),
            "dynamics.expm.max_dim": max_dim,
            "dynamics.expm.calls_after_first": expm_after_first,
            "dynamics.propagated_map.hit_ratio": 1.0 - expm_under_map / maps if maps else 0.0,
            "correlators.regression.self_s": per(self_s["route.regression"]),
            "cli.run.self_s": per(self_s["cli.run"]),
            "trace.overhead_frac": n_spans * self.span_cost() / total["request"],
        }
        for metric in UNITS:
            layer, _, kind = metric.rpartition(".")
            if metric not in values:
                values[metric] = per(calls[layer] if kind == "calls" else total[layer])
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in UNITS.items()}
        problems = [f"{m} is zero on {workload}: its wrapper sits on a name no call goes through"
                    for m in EXPECTED_NONZERO[workload] if not values[m]]
        return metrics, problems

    def summary(self, metrics: dict) -> list[str]:
        """Human-readable lines: every metric, with seconds also as a share of request time."""
        request_s = metrics["trace.request_s"]["value"]
        lines = []
        for name, m in metrics.items():
            share = f"  ({m['value'] / request_s:6.1%} of request time)" \
                if m["unit"] == "s/req" and name != "trace.request_s" else ""
            lines.append(f"{name} = {m['value']:.6g} {m['unit']}{share}")
        return lines

    def write(self, path, header: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({"environment": header}) + "\n")
            for sid, parent, request, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")
