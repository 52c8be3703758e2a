"""Analytic oracles for the rows of a ``twotime run`` series CSV.

The oracles read the scenario settings (the same key/value pairs the request
file holds), never the program's own model, and apply the acceptance suite's
absolute tolerance of 1e-5 (widened to three standard errors on Monte Carlo
rows, as the program's own cross-validation does):

* closed free oscillator from a coherent state: g1 = exp(i omega tau), g2 = 1;
* damped free oscillator, any start: g1 = exp((i omega - kappa/2) tau) on
  every row, and g2(0) = m2(t) / n(t)^2 with
  n(t) = n_th + (n0 - n_th) exp(-kappa t) and dm2/dt = -2 kappa m2 + 4 kappa n_th n;
* stationary thermal start (n0 = n_th): g2 = 1 + exp(-kappa tau) on every row.

These hold under both the n(t)^2 and the n(t) n(t+tau) normalisation of g2:
g2 is checked away from tau = 0 only for stationary states, where both agree.
Closed driven or squeezed requests have no row oracle; the program's own
pairwise cross-validation (exit code 2 on failure) covers them.
"""

from __future__ import annotations

import cmath
import math

TOL = 1e-5
CSV_HEADER = "tau,method,g1_re,g1_im,g2,abs_err"


def parse_rows(csv_text: str) -> list[tuple]:
    """(tau, method, g1, g2, abs_err) per data row; raises ValueError on a bad file."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    rows = []
    for line in lines[1:]:
        tau, method, re, im, g2, err = line.split(",")
        rows.append((float(tau), method, complex(float(re), float(im)), float(g2), float(err)))
    return rows


def _initial_moments(initial: str) -> tuple[float, float]:
    """(n0, m2_0) = (<adag a>, <adag^2 a^2>) of the scenario's initial state."""
    kind, _, arg = initial.partition(" ")
    if kind == "vacuum":
        return 0.0, 0.0
    if kind == "coherent":
        n0 = abs(complex(arg.replace(" ", ""))) ** 2
        return n0, n0 * n0
    if kind == "fock":
        n = int(arg)
        return float(n), float(n * (n - 1))
    if kind == "thermal":
        nb = float(arg)
        return nb, 2.0 * nb * nb
    if kind == "superposition":
        terms = [(abs(complex(w.strip())) ** 2, int(n)) for w, n in
                 (chunk.split(":") for chunk in arg.split(","))]
        norm = sum(p for p, _ in terms)
        return (sum(p * n for p, n in terms) / norm,
                sum(p * n * (n - 1) for p, n in terms) / norm)
    raise ValueError(f"unknown initial state {initial!r}")


def _damped_moments(n0, m2_0, n_th, kappa, t) -> tuple[float, float]:
    """n(t) and m2(t) for thermal damping of a free mode (closed-form ODE solution)."""
    decay = math.exp(-kappa * t)
    a = 4.0 * n_th * (n0 - n_th)
    b = m2_0 - 2.0 * n_th * n_th - a
    return n_th + (n0 - n_th) * decay, 2.0 * n_th * n_th + a * decay + b * decay * decay


def _row_expectations(settings: dict):
    """Function tau -> (expected g1 or None, expected g2 or None), or None if no row oracle."""
    num = lambda key: float(complex(settings.get(key, "0").replace(" ", "")).real)
    free = (complex(settings.get("system.xi", "0").replace(" ", "")) == 0
            and complex(settings.get("system.eta", "0").replace(" ", "")) == 0)
    if not free:
        return None
    omega, kappa, n_th = num("system.omega"), num("system.kappa"), num("system.n_thermal")
    initial = settings.get("system.initial", "vacuum")
    if kappa == 0:
        if not initial.startswith("coherent") or _initial_moments(initial)[0] == 0:
            return None
        return lambda tau: (cmath.exp(1j * omega * tau), 1.0)

    t = num("system.t_prepare") if "system.t_prepare" in settings else 20.0 / kappa
    n0, m2_0 = _initial_moments(initial)
    n_t, m2_t = _damped_moments(n0, m2_0, n_th, kappa, t)
    stationary = initial.startswith("thermal") and n0 == n_th

    def expect(tau):
        g1 = cmath.exp((1j * omega - kappa / 2.0) * tau)
        if stationary:
            return g1, 1.0 + math.exp(-kappa * tau)
        return g1, (m2_t / (n_t * n_t) if tau == 0 else None)

    return expect


def perturb_g1(csv_text: str, delta: float = 1e-4) -> str:
    """Copy of a series CSV with the real part of the first row's g1 moved by delta."""
    lines = csv_text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + delta)
    lines[1] = ",".join(cells)
    return "".join(lines)


def check(settings: dict, csv_text: str) -> list[str]:
    """Problems found in one series CSV; an empty list means every row passed."""
    try:
        rows = parse_rows(csv_text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    methods = [m.strip() for m in settings["methods"].split(",")]
    start, stop = float(settings["tau.start"]), float(settings["tau.stop"])
    count = int(settings["tau.count"])
    taus = [start + (stop - start) * k / (count - 1) for k in range(count)]
    expected_layout = [(tau, m) for m in methods for tau in taus]
    if len(rows) != len(expected_layout):
        return [f"{len(rows)} rows, expected {len(expected_layout)}"]

    problems = []
    expect = _row_expectations(settings)
    for (tau, method, g1, g2, err), (want_tau, want_method) in zip(rows, expected_layout):
        if method != want_method or abs(tau - want_tau) > 1e-12 * max(1.0, abs(stop)):
            problems.append(f"row ({tau!r}, {method}) where ({want_tau!r}, {want_method}) belongs")
            continue
        if expect is None:
            continue
        tol = max(TOL, 3.0 * err)
        want_g1, want_g2 = expect(tau)
        if abs(g1 - want_g1) > tol:
            problems.append(f"{method} tau={tau:.6g}: |g1 - oracle| = {abs(g1 - want_g1):.2e}")
        if want_g2 is not None and abs(g2 - want_g2) > tol:
            problems.append(f"{method} tau={tau:.6g}: |g2 - oracle| = {abs(g2 - want_g2):.2e}")
    return problems
