"""Scenario files: flat key-value text with dotted sections.

Grammar (one `key = value` per line, `#` starts a comment):

    name = thermal_steady
    system.omega = 1.0            # rad/time
    system.xi = 0.0               # complex accepted: 0.2+0.1j
    system.eta = 0.0
    system.kappa = 1.0
    system.n_thermal = 0.5
    system.initial = thermal 0.5  # vacuum | coherent A | fock N | thermal NBAR
                                  # | superposition W:N, W:N, ...
    system.cutoff = 40
    system.t_prepare = 20.0       # defaults: 20/kappa if kappa > 0 else 0
    system.trace_budget = 1e-8
    tau.start = 0.0
    tau.stop = 5.0
    tau.count = 20
    methods = regression          # comma-separated subset of the four tags
    integration.engine = gauss_hermite_tensor
    integration.nodes_per_axis = 24
    integration.sample_count = 1000000
    integration.seed = 42
    lmax = 12
    outputs.series_path = thermal_series.csv
    outputs.report_path = thermal_report.txt

Every default that influenced a run is echoed into the report so results are
reproducible from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidStateError, ScenarioSchemaError, ScenarioSemanticError
from .correlators import METHOD_TAGS, InitialState, SystemSpec
from .dynamics import DampingChannel, QuadraticHamiltonian
from .hilbert import FockCutoff
from .phasespace import _require_phase_space_scenario
from .quadrature import IntegrationConfig

PHASE_SPACE_TAGS = ("propagator", "qfunction_two_variable", "qfunction_derivative")

_KNOWN_KEYS = {
    "name", "methods", "lmax",
    "system.omega", "system.xi", "system.eta", "system.kappa", "system.n_thermal",
    "system.initial", "system.cutoff", "system.t_prepare", "system.trace_budget",
    "tau.start", "tau.stop", "tau.count",
    "integration.engine", "integration.nodes_per_axis", "integration.sample_count",
    "integration.seed",
    "outputs.series_path", "outputs.report_path",
}

_DEFAULTS = {
    "system.omega": 0.0,
    "system.xi": 0j,
    "system.eta": 0j,
    "system.kappa": 0.0,
    "system.n_thermal": 0.0,
    "system.initial": "vacuum",
    "system.cutoff": 40,
    "system.trace_budget": 1e-8,
    "integration.engine": "gauss_hermite_tensor",
    "integration.nodes_per_axis": 24,
    "integration.sample_count": 1_000_000,
    "integration.seed": 42,
    "lmax": 12,
}


@dataclass
class Scenario:
    name: str
    system: SystemSpec
    taus: np.ndarray
    methods: tuple
    integration: IntegrationConfig
    L_max: int
    series_path: str
    report_path: str
    settings: dict = field(default_factory=dict)  # effective values, for the report


def _finite(value, raw: str, key: str, line_no: int):
    if not np.isfinite(value):
        raise ScenarioSchemaError(f"line {line_no}: {key} must be finite, got {raw!r}")
    return value


def _parse_complex(raw: str, key: str, line_no: int) -> complex:
    try:
        return _finite(complex(raw.replace(" ", "")), raw, key, line_no)
    except ValueError:
        raise ScenarioSchemaError(f"line {line_no}: {key} expects a number, got {raw!r}")


def _parse_float(raw: str, key: str, line_no: int) -> float:
    try:
        return _finite(float(raw), raw, key, line_no)
    except ValueError:
        raise ScenarioSchemaError(f"line {line_no}: {key} expects a real number, got {raw!r}")


def _parse_int(raw: str, key: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioSchemaError(f"line {line_no}: {key} expects an integer, got {raw!r}")


def _parse_initial(raw: str, line_no: int) -> InitialState:
    parts = raw.split(None, 1)
    kind = parts[0].lower()
    arg = parts[1].strip() if len(parts) > 1 else ""
    try:
        if kind == "vacuum":
            return InitialState.vacuum()
        if kind == "coherent":
            return InitialState.coherent(complex(arg.replace(" ", "")))
        if kind == "fock":
            return InitialState.fock(int(arg))
        if kind == "thermal":
            return InitialState.thermal(float(arg))
        if kind == "superposition":
            terms = []
            for chunk in arg.split(","):
                w, n = chunk.split(":")
                terms.append((complex(w.strip()), int(n)))
            return InitialState.superposition(terms)
    except (ValueError, IndexError):
        raise ScenarioSchemaError(
            f"line {line_no}: malformed system.initial value {raw!r}"
        )
    except InvalidStateError as exc:
        raise ScenarioSchemaError(f"line {line_no}: system.initial {raw!r}: {exc}")
    raise ScenarioSchemaError(
        f"line {line_no}: unknown initial state kind {kind!r} "
        "(vacuum|coherent|fock|thermal|superposition)"
    )


def check_semantics(scn: Scenario) -> Scenario:
    """Apply the rules that span sections; returns the scenario unchanged.

    ``parse_scenario`` runs these on every file, and the CLI runs them again
    after its command-line overrides.
    """
    if any(m in PHASE_SPACE_TAGS for m in scn.methods):
        _require_phase_space_scenario(scn.system)
    if "qfunction_derivative" in scn.methods and scn.L_max > scn.system.cutoff.n_max:
        raise ScenarioSemanticError(
            "lmax must not exceed system.cutoff for the qfunction_derivative method"
        )
    return scn


def parse_scenario(path) -> Scenario:
    """Parse and validate a scenario file, applying documented defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioSchemaError(f"cannot read scenario file {path}: {exc}")

    raw: dict = {}
    lines: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioSchemaError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ScenarioSchemaError(f"line {line_no}: unknown key {key!r}")
        if key in raw:
            raise ScenarioSchemaError(f"line {line_no}: duplicate key {key!r}")
        if not value:
            raise ScenarioSchemaError(f"line {line_no}: empty value for {key!r}")
        raw[key] = value
        lines[key] = line_no

    def has(key):
        return key in raw

    def get(key, parser=None):
        if key in raw:
            if parser is None:
                return raw[key]
            return parser(raw[key], key, lines[key])
        return _DEFAULTS[key]

    for required in ("name", "tau.start", "tau.stop", "tau.count", "methods"):
        if required not in raw:
            raise ScenarioSchemaError(f"missing required key {required!r}")

    name = raw["name"]
    kappa = get("system.kappa", _parse_float)
    n_thermal = get("system.n_thermal", _parse_float)
    omega = get("system.omega", _parse_float)
    xi = get("system.xi", _parse_complex)
    eta = get("system.eta", _parse_complex)
    cutoff_n = get("system.cutoff", _parse_int)
    trace_budget = get("system.trace_budget", _parse_float)

    if has("system.t_prepare"):
        t_prepare = _parse_float(raw["system.t_prepare"], "system.t_prepare",
                                 lines["system.t_prepare"])
    else:
        t_prepare = 20.0 / kappa if kappa > 0 else 0.0
    if t_prepare < 0:
        raise ScenarioSchemaError("system.t_prepare must be >= 0")
    if trace_budget <= 0:
        raise ScenarioSchemaError("system.trace_budget must be > 0")

    initial = (_parse_initial(raw["system.initial"], lines["system.initial"])
               if has("system.initial") else InitialState.vacuum())

    tau_start = _parse_float(raw["tau.start"], "tau.start", lines["tau.start"])
    tau_stop = _parse_float(raw["tau.stop"], "tau.stop", lines["tau.stop"])
    tau_count = _parse_int(raw["tau.count"], "tau.count", lines["tau.count"])
    if tau_start < 0:
        raise ScenarioSchemaError("tau.start must be >= 0")
    if tau_count < 2:
        raise ScenarioSchemaError("tau.count must be >= 2")
    if tau_stop <= tau_start:
        raise ScenarioSchemaError("tau.stop must exceed tau.start")

    methods = tuple(m.strip() for m in raw["methods"].split(",") if m.strip())
    if not methods:
        raise ScenarioSchemaError("methods list is empty")
    for m in methods:
        if m not in METHOD_TAGS:
            raise ScenarioSchemaError(
                f"line {lines['methods']}: unknown method {m!r} (choose from {METHOD_TAGS})"
            )
    if len(set(methods)) != len(methods):
        raise ScenarioSchemaError("methods list contains duplicates")

    engine = get("integration.engine")
    try:
        integration = IntegrationConfig(
            engine=engine,
            nodes_per_axis=get("integration.nodes_per_axis", _parse_int),
            sample_count=get("integration.sample_count", _parse_int),
            seed=get("integration.seed", _parse_int),
        )
    except ValueError as exc:
        raise ScenarioSchemaError(str(exc))

    L_max = get("lmax", _parse_int)
    if L_max < 1:
        raise ScenarioSchemaError("lmax must be >= 1")

    try:
        system = SystemSpec(
            hamiltonian=QuadraticHamiltonian(omega=omega, xi=xi, eta=eta),
            channel=DampingChannel(kappa=kappa, n_thermal=n_thermal),
            initial_state=initial,
            cutoff=FockCutoff(cutoff_n),
            t_prepare=t_prepare,
            trace_budget=trace_budget,
        )
    except ValueError as exc:
        raise ScenarioSchemaError(str(exc))

    settings = {
        "name": name,
        "system.omega": omega, "system.xi": xi, "system.eta": eta,
        "system.kappa": kappa, "system.n_thermal": n_thermal,
        "system.initial": raw.get("system.initial", "vacuum"),
        "system.cutoff": cutoff_n, "system.t_prepare": t_prepare,
        "system.trace_budget": trace_budget,
        "tau.start": tau_start, "tau.stop": tau_stop, "tau.count": tau_count,
        "methods": ", ".join(methods),
        "integration.engine": integration.engine,
        "integration.nodes_per_axis": integration.nodes_per_axis,
        "integration.sample_count": integration.sample_count,
        "integration.seed": integration.seed,
        "lmax": L_max,
    }
    defaulted = sorted(k for k in _DEFAULTS if k not in raw)
    if not has("system.t_prepare"):
        defaulted.append("system.t_prepare")
    settings["defaulted_keys"] = ", ".join(sorted(defaulted)) if defaulted else "(none)"

    return check_semantics(Scenario(
        name=name,
        system=system,
        taus=np.linspace(tau_start, tau_stop, tau_count),
        methods=methods,
        integration=integration,
        L_max=L_max,
        series_path=raw.get("outputs.series_path", f"{name}_series.csv"),
        report_path=raw.get("outputs.report_path", f"{name}_report.txt"),
        settings=settings,
    ))
