import numpy as np
import pytest
from scipy.linalg import expm

import twotime.correlators as correlators
import twotime.dynamics as dynamics
import twotime.phasespace as phasespace
from twotime.correlators import (
    CorrelationSeries,
    InitialState,
    SystemSpec,
    regression_raw,
    regression_series,
)
from twotime.dynamics import DampingChannel, QuadraticHamiltonian
from twotime.errors import SelfCheckError, ZeroDenominatorError
from twotime.hilbert import FockCutoff
from twotime.quadrature import IntegrationConfig


def closed_coherent(alpha0=1.0, n_max=30, omega=1.0, t_prepare=0.0):
    return SystemSpec(
        QuadraticHamiltonian(omega=omega),
        DampingChannel(),
        InitialState.coherent(alpha0),
        FockCutoff(n_max),
        t_prepare=t_prepare,
    )


def damped_thermal(kappa=1.0, nbar=0.5, n_max=25, t_prepare=20.0):
    return SystemSpec(
        QuadraticHamiltonian(omega=1.0),
        DampingChannel(kappa=kappa, n_thermal=nbar),
        InitialState.thermal(nbar),
        FockCutoff(n_max),
        t_prepare=t_prepare,
    )


class TestG1:
    def test_coherent_free_phase(self):
        taus = np.linspace(0, 2 * np.pi, 9)
        s = regression_series(closed_coherent(), taus)
        assert np.max(np.abs(s.g1 - np.exp(1j * taus))) < 1e-10
        assert np.max(np.abs(np.abs(s.g1) - 1)) < 1e-10

    def test_zero_delay_normalized(self):
        s = regression_series(closed_coherent(), np.array([0.0, 0.5]))
        assert abs(s.g1[0] - 1.0) < 1e-12

    def test_damped_magnitude_decay(self):
        taus = np.linspace(0, 4, 9)
        s = regression_series(damped_thermal(), taus)
        assert np.max(np.abs(np.abs(s.g1) - np.exp(-taus / 2))) < 1e-6

    def test_vacuum_rejected(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.vacuum(), FockCutoff(10))
        with pytest.raises(ZeroDenominatorError):
            regression_series(sys, np.array([0.0, 0.1]))


class TestG2:
    def test_coherent_poissonian(self):
        s = regression_series(closed_coherent(), np.linspace(0, 2 * np.pi, 12))
        assert np.max(np.abs(s.g2 - 1)) < 1e-8

    def test_fock_one_zero_delay(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=1.0),
                         InitialState.fock(1), FockCutoff(8))
        s = regression_series(sys, np.array([0.0, 0.5]))
        assert abs(s.g2[0]) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_fock_n_zero_delay(self, n):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.5),
                         InitialState.fock(n), FockCutoff(12))
        s = regression_series(sys, np.array([0.0, 0.1]))
        assert abs(s.g2[0] - (1 - 1 / n)) < 1e-10
        assert s.g2[0] < 1  # classical bound violated: sub-Poissonian

    def test_thermal_bunching_curve(self):
        taus = np.linspace(0, 5, 11)
        s = regression_series(damped_thermal(), taus)
        assert np.max(np.abs(s.g2 - (1 + np.exp(-taus)))) < 1e-4

    def test_nonnegative(self):
        for sys in (closed_coherent(0.6), damped_thermal(),
                    SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.5),
                               InitialState.superposition([(0.8, 0), (0.6, 2)]),
                               FockCutoff(15))):
            s = regression_series(sys, np.linspace(0, 3, 7))
            assert np.all(s.g2 >= -1e-12)


class TestUnnormalized:
    def test_coherent_half_period(self):
        _, G_late, _, _ = regression_raw(closed_coherent(), [np.pi])
        assert abs(G_late[0] - (-1.0)) < 1e-10

    def test_vacuum_is_zero(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.vacuum(), FockCutoff(10))
        _, G_late, _, _ = regression_raw(sys, [0.7])
        assert abs(G_late[0]) < 1e-14

    def test_zero_delay_is_mean_photon_number(self):
        sys = closed_coherent(alpha0=1.2)
        _, G_late, _, _ = regression_raw(sys, [0.0])
        assert abs(G_late[0] - 1.44) < 1e-10

    def test_g2_zero_delay_moment(self):
        # <adag adag a a> = |alpha|^4 for a coherent state
        sys = closed_coherent(alpha0=1.1)
        _, _, _, G2 = regression_raw(sys, [0.0])
        assert abs(G2[0].real - 1.1**4) < 1e-9


class TestStationarity:
    def test_two_preparation_times_agree(self):
        taus = np.linspace(0, 3, 7)
        a = regression_series(damped_thermal(t_prepare=20.0), taus)
        b = regression_series(damped_thermal(t_prepare=25.0), taus)
        assert np.max(np.abs(a.g2 - b.g2)) < 1e-6
        ga = regression_series(damped_thermal(t_prepare=20.0), taus)
        gb = regression_series(damped_thermal(t_prepare=25.0), taus)
        assert np.max(np.abs(ga.g1 - gb.g1)) < 1e-6


class TestTruncationStability:
    def test_cutoff_bump_invariance(self):
        taus = np.linspace(0, 2, 5)
        a = regression_series(closed_coherent(n_max=30), taus)
        b = regression_series(closed_coherent(n_max=40), taus)
        assert np.max(np.abs(a.g2 - b.g2)) < 1e-10
        assert np.max(np.abs(a.g1 - b.g1)) < 1e-10


class TestSeriesContract:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            regression_series(closed_coherent(), np.array([0.0, 0.5, 0.3]))

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            regression_series(closed_coherent(), np.array([-0.1, 0.2]))

    def test_method_tag_guard(self):
        with pytest.raises(ValueError):
            CorrelationSeries(np.array([0.0]), np.array([1 + 0j]), np.array([1.0]),
                              1.0, "fancy_method")

    def test_nonuniform_grid_supported(self):
        taus = np.array([0.0, 0.1, 0.4, 1.0, 2.5])
        s = regression_series(damped_thermal(), taus)
        assert np.max(np.abs(s.g2 - (1 + np.exp(-taus)))) < 1e-4

    @pytest.mark.parametrize("taus, steps", [
        (np.linspace(0, 5, 20), 1),
        (np.linspace(0.5, 5, 20), 2),
        (np.array([0.0, 0.1, 0.4, 1.0, 2.5]), 4),
    ], ids=["linspace", "linspace_offset", "nonuniform"])
    def test_one_map_per_distinct_step(self, taus, steps, monkeypatch):
        # np.linspace increments differ in the last bit; they share one map
        durations = []
        original = correlators.propagated_map

        def recording_map(H, ch, tau, cutoff):
            durations.append(tau)
            return original(H, ch, tau, cutoff)

        monkeypatch.setattr(correlators, "propagated_map", recording_map)
        s = regression_series(damped_thermal(t_prepare=0.0), taus)
        assert len(set(durations)) == steps
        assert abs(sum(durations) - taus[-1]) < 1e-12
        assert np.max(np.abs(s.g2 - (1 + np.exp(-taus)))) < 1e-4

    @pytest.mark.parametrize("initial, prepare_blocks", [
        (InitialState.fock(2), 1),
        (InitialState.coherent(0.5), 2 * FockCutoff(12).dim - 1),
    ], ids=["fock", "coherent"])
    def test_heisenberg_step_builds_three_blocks(self, initial, prepare_blocks, monkeypatch):
        # preparing touches the blocks rho0 occupies; each tau step only the
        # coherence orders -1, +1 and 0 of a, adag and adag a
        built = []

        def recording_expm(m):
            built.append(m.shape[0])
            return expm(m)

        monkeypatch.setattr(dynamics, "expm", recording_expm)
        dynamics.propagated_map.cache_clear()
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.8, n_thermal=0.1),
                         initial, FockCutoff(12), t_prepare=1.0)
        regression_series(sys, np.linspace(0.0, 2.0, 5))
        assert len(built) == prepare_blocks + 3

    def test_prepared_state_built_once(self):
        sys = damped_thermal()
        rho = sys.prepared_state()
        assert sys.prepared_state() is rho
        assert not rho.mat.flags.writeable


class TestSelfChecks:
    def test_conjugacy_gap_raises(self, monkeypatch):
        monkeypatch.setattr(correlators, "CONJUGACY_TOL", -1.0)
        with pytest.raises(SelfCheckError, match="conjugacy"):
            regression_series(damped_thermal(), np.linspace(0, 1, 3))

    def test_g2_imaginary_residue_raises(self, monkeypatch):
        raw = correlators.regression_raw

        def tilted(sys, taus):
            mean_n, G_late, G_early, G2 = raw(sys, taus)
            return mean_n, G_late, G_early, G2 + 1e-6j

        monkeypatch.setattr(correlators, "regression_raw", tilted)
        with pytest.raises(SelfCheckError, match="imaginary"):
            regression_series(damped_thermal(), np.linspace(0, 1, 3))

    def test_phase_space_g2_imaginary_part_raises(self, monkeypatch):
        monkeypatch.setattr(phasespace, "integrate",
                            lambda *args, **kwargs: (1.0 + 1e-3j, 0.0))
        with pytest.raises(SelfCheckError, match="imaginary"):
            phasespace._g2_raw(closed_coherent(), 0.0, 0.5, "propagator",
                               IntegrationConfig(), 12)

    def test_q_derivative_g2_self_check_names_lmax(self, monkeypatch):
        monkeypatch.setattr(phasespace, "integrate",
                            lambda *args, **kwargs: (1.0 + 1e-3j, 0.0))
        with pytest.raises(SelfCheckError, match="qfunction_derivative at lmax = 20"):
            phasespace._g2_raw(closed_coherent(), 0.0, 0.5, "qfunction_derivative",
                               IntegrationConfig(), 20)
