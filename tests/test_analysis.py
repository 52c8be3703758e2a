import numpy as np
import pytest

from twotime.analysis import (
    ANTIBUNCHED,
    BUNCHED,
    NEITHER,
    POISSONIAN,
    SUB_POISSONIAN,
    SUPER_POISSONIAN,
    classify,
)
from twotime.correlators import CorrelationSeries, InitialState, SystemSpec, regression_series
from twotime.dynamics import DampingChannel, QuadraticHamiltonian
from twotime.hilbert import FockCutoff


def series(taus, g2, mean_n=1.0, errors=None, tag="regression"):
    taus = np.asarray(taus, dtype=float)
    return CorrelationSeries(
        tau_grid=taus,
        g1=np.ones(len(taus), dtype=complex),
        g2=np.asarray(g2, dtype=float),
        mean_n=mean_n,
        method_tag=tag,
        error_estimate=errors if errors is not None else np.zeros(len(taus)),
    )


class TestThermal:
    def test_bunched_super_poissonian(self):
        taus = np.linspace(0, 5, 20)
        rep = classify(series(taus, 1 + np.exp(-taus)))
        assert rep.bunching == BUNCHED
        assert rep.classification_zero == SUPER_POISSONIAN
        assert rep.conclusive
        assert rep.critical_time == taus[-1]

    def test_regression_driven_series(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=1.0, n_thermal=0.5),
                         InitialState.thermal(0.5), FockCutoff(22), t_prepare=20.0)
        rep = classify(regression_series(sys, np.linspace(0, 5, 20)))
        assert rep.bunching == BUNCHED
        assert rep.classification_zero == SUPER_POISSONIAN


class TestCoherent:
    def test_flat_unity_poissonian_neither(self):
        rep = classify(series(np.linspace(0, 2, 10), np.ones(10)))
        assert rep.bunching == NEITHER
        assert rep.classification_zero == POISSONIAN
        assert all(c == POISSONIAN for c in rep.classification_per_tau)
        assert not rep.conclusive  # all differences inside the band


class TestFock:
    def test_flat_zero_is_antibunched(self):
        # single-quantum case: g2 identically zero; the sub-Poissonian pin
        # at zero counts as antibunching even though nothing rises
        rep = classify(series(np.linspace(0, 3, 8), np.zeros(8)))
        assert rep.bunching == ANTIBUNCHED
        assert rep.classification_zero == SUB_POISSONIAN
        assert rep.critical_time == 3.0

    def test_rising_series_antibunched(self):
        taus = np.linspace(0, 3, 10)
        rep = classify(series(taus, 1 - np.exp(-taus)))
        assert rep.bunching == ANTIBUNCHED
        assert rep.classification_zero == SUB_POISSONIAN
        assert rep.conclusive

    def test_damped_fock_regression(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=1.0),
                         InitialState.fock(1), FockCutoff(8))
        rep = classify(regression_series(sys, np.linspace(0, 3, 10)))
        assert rep.bunching == ANTIBUNCHED
        assert rep.classification_zero == SUB_POISSONIAN
        assert abs(rep.g2_zero) < 1e-12


class TestBandSemantics:
    def test_band_from_monte_carlo_errors(self):
        errs = np.full(6, 0.01)
        rep = classify(series(np.linspace(0, 1, 6), np.ones(6), errors=errs))
        assert rep.tolerance_band == pytest.approx(0.03)

    def test_wide_band_makes_thermal_inconclusive(self):
        taus = np.linspace(0, 5, 20)
        rep = classify(series(taus, 1 + np.exp(-taus)), band=5.0)
        assert rep.bunching == NEITHER
        assert not rep.conclusive

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            classify(series([0, 1], [1, 1]), band=0.0)

    def test_minimum_prefix_of_two_points(self):
        # only one grid point drops: no class declared
        rep = classify(series([0.0, 0.5, 1.0], [2.0, 1.5, 2.0]))
        assert rep.bunching == NEITHER


class TestInvariances:
    def test_rescaling_unnormalized_fields_is_irrelevant(self):
        taus = np.linspace(0, 4, 12)
        g2 = 1 + np.exp(-taus)
        a = classify(series(taus, g2, mean_n=1.0))
        b = classify(series(taus, g2, mean_n=7.3))
        assert a == b

    def test_deterministic(self):
        taus = np.linspace(0, 4, 12)
        g2 = 1 + np.exp(-taus)
        assert classify(series(taus, g2)) == classify(series(taus, g2))

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            classify(series([], []))
