"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from twotime.analysis import ANTIBUNCHED, BUNCHED, SUB_POISSONIAN, SUPER_POISSONIAN, classify
from twotime.correlators import InitialState, SystemSpec, regression_raw, regression_series
from twotime.dynamics import DampingChannel, QuadraticHamiltonian
from twotime.hilbert import FockCutoff
from twotime.phasespace import _g_propagator, _g_raw, phase_space_series
from twotime.propagator import kernel_numeric, kernel_quadratic
from twotime.quadrature import IntegrationConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

QUAD = IntegrationConfig(nodes_per_axis=24)
PHASE_METHODS = ("propagator", "qfunction_two_variable", "qfunction_derivative")

HARMONIC = QuadraticHamiltonian(omega=1.0)
DRIVEN = QuadraticHamiltonian(omega=1.0, eta=0.5)
SQUEEZED = QuadraticHamiltonian(omega=1.0, xi=0.2)


def closed_system(H, alpha0, t_prepare, n_max=40):
    return SystemSpec(H, DampingChannel(), InitialState.coherent(alpha0),
                      FockCutoff(n_max), t_prepare=t_prepare)


TRIANGLE = [
    ("harmonic+coherent", closed_system(HARMONIC, 1.0, 0.0), np.linspace(0, 2 * np.pi, 10)),
    ("driven+vacuum", closed_system(DRIVEN, 0.0, 1.0), np.linspace(0, 2.0, 10)),
    ("squeezed+vacuum", closed_system(SQUEEZED, 0.0, 1.0), np.linspace(0, 1.0, 10)),
]


def _report(n, elapsed, detail):
    print(f"\n[acceptance] criterion {n}: PASS ({elapsed:.1f} s) -- {detail}", flush=True)


def test_criterion_1_coherent_poissonian():
    """All four methods give g2 = 1 for a closed coherent state."""
    t0 = time.time()
    sys_spec = closed_system(HARMONIC, 1.0, 0.0)
    taus = np.linspace(0, 2 * np.pi, 20)

    worst = {}
    s_reg = regression_series(sys_spec, taus)
    worst["regression"] = float(np.max(np.abs(s_reg.g2 - 1.0)))
    for method in PHASE_METHODS:
        s = phase_space_series(sys_spec, taus, method, QUAD)
        worst[method] = float(np.max(np.abs(s.g2 - 1.0)))
    for method, dev in worst.items():
        assert dev <= 1e-5, f"{method}: |g2 - 1| = {dev:.2e} > 1e-5"

    # Monte Carlo path at its own 3-sigma tolerance
    mc = IntegrationConfig(engine="monte_carlo_gaussian", sample_count=100_000, seed=42)
    s_mc = phase_space_series(sys_spec, taus[::4], "propagator", mc)
    mc_ok = np.abs(s_mc.g2 - 1.0) <= 3 * np.maximum(s_mc.error_estimate, 1e-12)
    assert np.all(mc_ok), f"MC path deviations {np.abs(s_mc.g2 - 1.0)} vs 3 sigma"

    elapsed = time.time() - t0
    assert elapsed <= 120, f"runtime {elapsed:.1f} s exceeds 2 min budget"
    detail = ", ".join(f"{m} {d:.1e}" for m, d in worst.items())
    _report(1, elapsed, f"max |g2-1|: {detail}")


def test_criterion_2_fock_antibunching():
    """Damped |1>: g2(0) = 0 to 1e-9 and flagged antibunched, sub-Poissonian."""
    t0 = time.time()
    sys_spec = SystemSpec(HARMONIC, DampingChannel(kappa=1.0, n_thermal=0.0),
                          InitialState.fock(1), FockCutoff(10), t_prepare=0.0)
    series = regression_series(sys_spec, np.linspace(0, 3, 10))
    assert abs(series.g2[0]) <= 1e-9, f"g2(0) = {series.g2[0]:.2e}"
    report = classify(series)
    assert report.bunching == ANTIBUNCHED
    assert report.classification_zero == SUB_POISSONIAN
    elapsed = time.time() - t0
    assert elapsed <= 10, f"runtime {elapsed:.1f} s exceeds 10 s budget"
    _report(2, elapsed, f"g2(0) = {series.g2[0]:.1e}, {report.bunching}, "
                        f"{report.classification_zero}")


def test_criterion_3_thermal_bunching():
    """Steady-state thermal light: g2 = 1 + exp(-k tau), |g1| = exp(-k tau/2)."""
    t0 = time.time()
    sys_spec = SystemSpec(HARMONIC, DampingChannel(kappa=1.0, n_thermal=0.5),
                          InitialState.thermal(0.5), FockCutoff(25), t_prepare=20.0)
    taus = np.linspace(0, 5, 20)
    s2 = regression_series(sys_spec, taus)
    dev_g2 = float(np.max(np.abs(s2.g2 - (1 + np.exp(-taus)))))
    assert dev_g2 <= 1e-4, f"g2 deviation {dev_g2:.2e}"
    s1 = regression_series(sys_spec, taus)
    dev_g1 = float(np.max(np.abs(np.abs(s1.g1) - np.exp(-taus / 2))))
    assert dev_g1 <= 1e-6, f"|g1| deviation {dev_g1:.2e}"
    report = classify(s2)
    assert report.bunching == BUNCHED
    assert report.classification_zero == SUPER_POISSONIAN
    elapsed = time.time() - t0
    assert elapsed <= 30, f"runtime {elapsed:.1f} s exceeds 30 s budget"
    _report(3, elapsed, f"g2 dev {dev_g2:.1e}, |g1| dev {dev_g1:.1e}, "
                        f"{report.bunching}, {report.classification_zero}")


def test_criterion_4_method_triangle():
    """Propagator and both Q-function routes reproduce the regression correlator."""
    t0 = time.time()
    summary = []
    for label, sys_spec, taus in TRIANGLE:
        _, oracle, _, _ = regression_raw(sys_spec, taus)
        for method in PHASE_METHODS:
            values = np.array([
                _g_raw(sys_spec, float(tau), method, QUAD, 12)[0]
                for tau in taus
            ])
            dev = float(np.max(np.abs(values - oracle)))
            assert dev <= 1e-5, f"{label}/{method}: max dev {dev:.2e} > 1e-5"
            summary.append(f"{label}/{method} {dev:.1e}")
    # Monte Carlo alternative at 10^6 samples on the first scenario
    mc = IntegrationConfig(engine="monte_carlo_gaussian", sample_count=1_000_000, seed=42)
    label, sys_spec, taus = TRIANGLE[0]
    _, oracles, _, _ = regression_raw(sys_spec, taus[:3])
    for tau, oracle in zip(taus[:3], oracles):
        value, err = _g_raw(sys_spec, float(tau), "propagator", mc, 12)
        assert abs(value - oracle) <= 3 * err, (
            f"MC {label} tau={tau:.2f}: dev {abs(value - oracle):.2e} vs 3 sigma {3 * err:.2e}"
        )
    elapsed = time.time() - t0
    assert elapsed <= 600, f"runtime {elapsed:.1f} s exceeds 10 min budget"
    _report(4, elapsed, "; ".join(summary))


def test_criterion_5_kernel_validation():
    """Closed-form kernels vs the truncated-Fock oracle on an amplitude grid."""
    t0 = time.time()
    cut = FockCutoff(60)
    amps = [-2.0, -1.0 + 0.5j, 0.0, 0.8 - 0.6j, 2.0j]  # all |a| <= 2
    worst = 0.0
    for H in (HARMONIC, DRIVEN, SQUEEZED):
        k = kernel_quadratic(H, 0.9)
        for a in amps:
            for b in amps:
                num = kernel_numeric(H, 0.9, a, b, cut)
                rel = abs(k.evaluate(a, b) - num) / abs(num)
                worst = max(worst, rel)
    assert worst <= 1e-6, f"kernel relative error {worst:.2e} > 1e-6"
    elapsed = time.time() - t0
    assert elapsed <= 60, f"runtime {elapsed:.1f} s exceeds 1 min budget"
    _report(5, elapsed, f"worst relative error {worst:.1e} over 75 grid points")


def test_criterion_6_five_variable_consistency():
    """Full 5-variable MC form agrees with the collapsed 3-variable quadrature."""
    t0 = time.time()
    sys_spec = closed_system(HARMONIC, 1.0, 0.0)
    mc = IntegrationConfig(engine="monte_carlo_gaussian", sample_count=1_000_000, seed=42)
    details = []
    for tau in (0.7, np.pi / 2):
        collapsed, _ = _g_propagator(sys_spec, tau, QUAD, collapse=True)
        full, err = _g_propagator(sys_spec, tau, mc, collapse=False)
        dev = abs(full - collapsed)
        assert dev <= 3 * err, f"tau={tau:.3f}: dev {dev:.2e} vs 3 sigma {3 * err:.2e}"
        details.append(f"tau={tau:.2f} dev/sigma={dev / err:.2f}")
    elapsed = time.time() - t0
    assert elapsed <= 300, f"runtime {elapsed:.1f} s exceeds 5 min budget"
    _report(6, elapsed, "; ".join(details))


def test_criterion_7_truncation_stability():
    """Criteria 1-4 results move by < 1e-7 when n_max grows by 10."""
    t0 = time.time()
    shifts = []

    # criterion 1/4 closed scenarios: every cutoff-dependent route
    probe_taus = np.array([0.0, 0.8, 1.9])
    for label, sys_spec, _ in TRIANGLE:
        bigger = SystemSpec(sys_spec.hamiltonian, sys_spec.channel, sys_spec.initial_state,
                            FockCutoff(sys_spec.cutoff.n_max + 10), t_prepare=sys_spec.t_prepare)
        for method in ("qfunction_two_variable", "qfunction_derivative"):
            for tau in probe_taus:
                a, _ = _g_raw(sys_spec, float(tau), method, QUAD, 12)
                b, _ = _g_raw(bigger, float(tau), method, QUAD, 12)
                shifts.append((f"{label}/{method}", abs(a - b)))
        _, ga, _, _ = regression_raw(sys_spec, probe_taus)
        _, gb, _, _ = regression_raw(bigger, probe_taus)
        shifts.append((f"{label}/regression", float(np.max(np.abs(ga - gb)))))
    # the collapsed propagator route never consumes the cutoff: exactly stable

    # criterion 2: damped Fock state
    for n_max in ((10, 20),):
        pair = []
        for n in n_max:
            sys_spec = SystemSpec(HARMONIC, DampingChannel(kappa=1.0), InitialState.fock(1),
                                  FockCutoff(n), t_prepare=0.0)
            pair.append(regression_series(sys_spec, np.linspace(0, 3, 10)).g2)
        shifts.append(("fock/regression", float(np.max(np.abs(pair[0] - pair[1])))))

    # criterion 3: thermal steady state
    pair = []
    for n in (25, 35):
        sys_spec = SystemSpec(HARMONIC, DampingChannel(kappa=1.0, n_thermal=0.5),
                              InitialState.thermal(0.5), FockCutoff(n), t_prepare=20.0)
        s = regression_series(sys_spec, np.linspace(0, 5, 20))
        pair.append(np.concatenate([s.g2, np.abs(s.g1)]))
    shifts.append(("thermal/regression", float(np.max(np.abs(pair[0] - pair[1])))))

    worst_label, worst = max(shifts, key=lambda kv: kv[1])
    assert worst < 1e-7, f"{worst_label} shifted by {worst:.2e} >= 1e-7"
    elapsed = time.time() - t0
    _report(7, elapsed, f"worst shift {worst:.1e} ({worst_label})")


def test_criterion_8_determinism(tmp_path):
    """Two consecutive CLI runs produce byte-identical CSVs (including MC)."""
    t0 = time.time()
    for scenario in ("thermal_steady.cfg", "coherent_mc.cfg"):
        path = SCENARIO_DIR / scenario
        outs = []
        for run_dir in ("first", "second"):
            out = tmp_path / scenario / run_dir
            out.mkdir(parents=True)
            proc = subprocess.run(
                [sys.executable, "-m", "twotime.cli", "run", str(path), "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            csvs = list(out.glob("*_series.csv"))
            assert len(csvs) == 1
            outs.append(csvs[0].read_bytes())
        assert outs[0] == outs[1], f"{scenario}: repeated runs differ"
    elapsed = time.time() - t0
    _report(8, elapsed, "thermal and Monte Carlo scenarios byte-identical")
