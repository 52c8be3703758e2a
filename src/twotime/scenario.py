"""Scenario files: flat key-value text with dotted sections.

Grammar (one `key = value` per line, `#` starts a comment):

    name = thermal_steady
    system.omega = 1.0            # rad/time
    system.xi = 0.0               # complex accepted: 0.2+0.1j or 0.2 + 0.1j
    system.eta = 0.0
    system.kappa = 1.0
    system.n_thermal = 0.5
    system.initial = thermal 0.5  # vacuum | coherent A | fock N | thermal NBAR
                                  # | superposition W:N, W:N, ...
    system.cutoff = 40
    system.t_prepare = 20.0       # defaults: 20/kappa if kappa > 0 else 0
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

``_SCHEMA`` holds each key's parser and default; the defaults are the
library's own (``QuadraticHamiltonian``, ``DampingChannel``,
``IntegrationConfig``, ``DEFAULT_N_MAX``, ``DEFAULT_L_MAX``).  Every setting
that influenced a run is echoed into the report, with the keys that took
their default, so results are reproducible from the report alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidStateError, ScenarioSchemaError, ScenarioSemanticError
from .correlators import METHOD_TAGS, InitialState, SystemSpec
from .dynamics import DampingChannel, QuadraticHamiltonian
from .hilbert import DEFAULT_L_MAX, DEFAULT_N_MAX, FockCutoff
from .phasespace import _require_phase_space_scenario
from .quadrature import ENGINES, IntegrationConfig

PHASE_SPACE_TAGS = ("propagator", "qfunction_two_variable", "qfunction_derivative")
# spaces next to a +/- sign are dropped, so "0.2 + 0.1j" parses; any other space is an error
_SIGN_SPACE = re.compile(r"\s+(?=[+-])|(?<=[+-])\s+")


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


def _finite(value, raw: str, key: str, where: str):
    if not np.isfinite(value):
        raise ScenarioSchemaError(f"{where}: {key} must be finite, got {raw!r}")
    return value


def _complex(text: str) -> complex:
    return complex(_SIGN_SPACE.sub("", text))


def _parse_text(raw: str, key: str, where: str) -> str:
    return raw


def _parse_complex(raw: str, key: str, where: str) -> complex:
    try:
        return _finite(_complex(raw), raw, key, where)
    except ValueError:
        raise ScenarioSchemaError(f"{where}: {key} expects a number, got {raw!r}")


def _parse_float(raw: str, key: str, where: str) -> float:
    try:
        return _finite(float(raw), raw, key, where)
    except ValueError:
        raise ScenarioSchemaError(f"{where}: {key} expects a real number, got {raw!r}")


def _parse_int(raw: str, key: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioSchemaError(f"{where}: {key} expects an integer, got {raw!r}")


def _at_least(low, parse):
    def parse_bounded(raw: str, key: str, where: str):
        value = parse(raw, key, where)
        if value < low:
            raise ScenarioSchemaError(f"{where}: {key} must be >= {low}")
        return value
    return parse_bounded


def _parse_engine(raw: str, key: str, where: str) -> str:
    if raw not in ENGINES:
        raise ScenarioSchemaError(
            f"{where}: unknown integration engine {raw!r} (choose from {ENGINES})")
    return raw


def _parse_initial(raw: str, key: str, where: str) -> InitialState:
    parts = raw.split(None, 1)
    kind = parts[0].lower()
    arg = parts[1].strip() if len(parts) > 1 else ""
    try:
        if kind == "vacuum":
            return InitialState.vacuum()
        if kind == "coherent":
            return InitialState.coherent(_complex(arg))
        if kind == "fock":
            return InitialState.fock(int(arg))
        if kind == "thermal":
            return InitialState.thermal(float(arg))
        if kind == "superposition":
            terms = []
            for chunk in arg.split(","):
                w, n = chunk.split(":")
                terms.append((_complex(w.strip()), int(n)))
            return InitialState.superposition(terms)
    except (ValueError, IndexError):
        raise ScenarioSchemaError(f"{where}: malformed {key} value {raw!r}")
    except InvalidStateError as exc:
        raise ScenarioSchemaError(f"{where}: {key} {raw!r}: {exc}")
    raise ScenarioSchemaError(
        f"{where}: unknown initial state kind {kind!r} "
        "(vacuum|coherent|fock|thermal|superposition)"
    )


def _parse_methods(raw: str, key: str, where: str) -> tuple:
    methods = tuple(m.strip() for m in raw.split(",") if m.strip())
    if not methods:
        raise ScenarioSchemaError(f"{where}: methods list is empty")
    for m in methods:
        if m not in METHOD_TAGS:
            raise ScenarioSchemaError(
                f"{where}: unknown method {m!r} (choose from {METHOD_TAGS})")
    if len(set(methods)) != len(methods):
        raise ScenarioSchemaError(f"{where}: methods list contains duplicates")
    return methods


_REQUIRED = object()
# key -> (parser, default), in report order; a None default is derived in parse_scenario
_SCHEMA = {
    "name": (_parse_text, _REQUIRED),
    "system.omega": (_parse_float, QuadraticHamiltonian.omega),
    "system.xi": (_parse_complex, QuadraticHamiltonian.xi),
    "system.eta": (_parse_complex, QuadraticHamiltonian.eta),
    "system.kappa": (_at_least(0, _parse_float), DampingChannel.kappa),
    "system.n_thermal": (_at_least(0, _parse_float), DampingChannel.n_thermal),
    "system.initial": (_parse_initial, InitialState.vacuum()),
    "system.cutoff": (_at_least(1, _parse_int), DEFAULT_N_MAX),
    "system.t_prepare": (_at_least(0, _parse_float), None),
    "tau.start": (_at_least(0, _parse_float), _REQUIRED),
    "tau.stop": (_parse_float, _REQUIRED),
    "tau.count": (_at_least(2, _parse_int), _REQUIRED),
    "methods": (_parse_methods, _REQUIRED),
    "integration.engine": (_parse_engine, IntegrationConfig.engine),
    "integration.nodes_per_axis": (_parse_int, IntegrationConfig.nodes_per_axis),
    "integration.sample_count": (_parse_int, IntegrationConfig.sample_count),
    "integration.seed": (_at_least(0, _parse_int), IntegrationConfig.seed),
    "lmax": (_at_least(1, _parse_int), DEFAULT_L_MAX),
    "outputs.series_path": (_parse_text, None),
    "outputs.report_path": (_parse_text, None),
}


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
    """Parse and validate a scenario file; a key it omits takes its ``_SCHEMA`` default."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioSchemaError(f"cannot read scenario file {path}: {exc}")

    raw, given, lines = {}, {}, {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioSchemaError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ScenarioSchemaError(f"line {line_no}: unknown key {key!r}")
        if key in raw:
            raise ScenarioSchemaError(f"line {line_no}: duplicate key {key!r}")
        if not value:
            raise ScenarioSchemaError(f"line {line_no}: empty value for {key!r}")
        raw[key] = value
        lines[key] = f"line {line_no}"
        given[key] = _SCHEMA[key][0](value, key, lines[key])

    v = {}
    for key, (_, default) in _SCHEMA.items():
        if default is _REQUIRED and key not in given:
            raise ScenarioSchemaError(f"missing required key {key!r}")
        v[key] = given.get(key, default)
    name, kappa = v["name"], v["system.kappa"]
    if v["system.t_prepare"] is None:
        v["system.t_prepare"] = 20.0 / kappa if kappa > 0 else 0.0
    if v["tau.stop"] <= v["tau.start"]:
        raise ScenarioSchemaError(f"{lines['tau.stop']}: tau.stop must exceed tau.start")

    engine = v["integration.engine"]
    size_key = ("integration.nodes_per_axis" if engine == "gauss_hermite_tensor"
                else "integration.sample_count")
    try:
        integration = IntegrationConfig(
            engine=engine,
            nodes_per_axis=v["integration.nodes_per_axis"],
            sample_count=v["integration.sample_count"],
            seed=v["integration.seed"],
        )
    except ValueError as exc:
        # the schema checked engine and seed; what is left is the engine's size
        # key, which its default satisfies, so the file sets it
        raise ScenarioSchemaError(f"{lines[size_key]}: {exc}")
    system = SystemSpec(
        hamiltonian=QuadraticHamiltonian(v["system.omega"], v["system.xi"], v["system.eta"]),
        channel=DampingChannel(kappa, v["system.n_thermal"]),
        initial_state=v["system.initial"],
        cutoff=FockCutoff(v["system.cutoff"]),
        t_prepare=v["system.t_prepare"],
    )

    settings = {key: val for key, val in v.items() if not key.startswith("outputs.")}
    settings["system.initial"] = raw.get("system.initial", "vacuum")
    settings["defaulted_keys"] = sorted(settings.keys() - raw.keys())

    return check_semantics(Scenario(
        name=name,
        system=system,
        taus=np.linspace(v["tau.start"], v["tau.stop"], v["tau.count"]),
        methods=v["methods"],
        integration=integration,
        L_max=v["lmax"],
        series_path=v["outputs.series_path"] or f"{name}_series.csv",
        report_path=v["outputs.report_path"] or f"{name}_report.txt",
        settings=settings,
    ))
