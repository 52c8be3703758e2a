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
from twotime.hilbert import FockCutoff, ladder_matrices
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


class TestDenseSchrodingerReference:
    """regression_raw against exp(L tau) of the dense generator on the deformed states."""

    @pytest.mark.parametrize("H, initial", [
        (QuadraticHamiltonian(omega=1.0), InitialState.coherent(0.6 + 0.3j)),
        (QuadraticHamiltonian(omega=1.1, xi=0.15), InitialState.coherent(0.4)),
        (QuadraticHamiltonian(omega=0.9, eta=0.3), InitialState.fock(1)),
    ], ids=["free", "squeezed", "driven"])
    @pytest.mark.parametrize("taus", [
        np.linspace(0.0, 3.0, 12),
        np.linspace(0.4, 3.0, 12),
        np.array([0.0, 0.1, 0.35, 1.0, 2.2]),
    ], ids=["linspace", "linspace_offset", "nonuniform"])
    def test_numerators_match_dense_map(self, H, initial, taus):
        cut = FockCutoff(9)
        ch = DampingChannel(kappa=0.8, n_thermal=0.2)
        sys = SystemSpec(H, ch, initial, cut, t_prepare=0.5)
        d = cut.dim
        blocks, layout = dynamics._generator_blocks(H, ch, cut)
        L = np.zeros((d * d, d * d), dtype=complex)  # assembled from the generator's blocks
        for block, idx in zip(blocks, layout.members):
            L[np.ix_(idx, idx)] = block
        rho = (expm(0.5 * L) @ initial.build(cut).mat.reshape(-1)).reshape(d, d)
        a, adag = ladder_matrices(cut)
        expected = []
        for tau in taus:
            M = expm(tau * L)
            evolved = [(M @ y.reshape(-1)).reshape(d, d) for y in (a @ rho, rho @ adag,
                                                                   a @ rho @ adag)]
            expected.append([np.trace(op @ y) for op, y in zip((adag, a, adag @ a), evolved)])
        mean_n, *G = regression_raw(sys, taus)
        assert abs(mean_n - np.trace(adag @ a @ rho).real) < 1e-12
        assert np.max(np.abs(np.array(G) - np.array(expected).T)) < 1e-12


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

    @pytest.mark.parametrize("taus", [[0.0, np.nan, 1.0], [np.nan], [0.0, np.inf]],
                             ids=["nan_inside", "nan_alone", "inf"])
    @pytest.mark.parametrize("route", [
        lambda sys, taus: regression_series(sys, taus),
        lambda sys, taus: phasespace.phase_space_series(sys, taus, "propagator",
                                                        IntegrationConfig()),
    ], ids=["regression", "phase_space"])
    def test_non_finite_tau_rejected(self, route, taus):
        with pytest.raises(ValueError, match="finite"):
            route(closed_coherent(), np.array(taus))

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
        correlators._evolved_observables.cache_clear()
        s = regression_series(damped_thermal(t_prepare=0.0), taus)
        assert len(set(durations)) == steps
        assert abs(sum(durations) - taus[-1]) < 1e-12
        assert np.max(np.abs(s.g2 - (1 + np.exp(-taus)))) < 1e-4

    @pytest.mark.parametrize("initial, prepare_exps", [
        (InitialState.fock(2), 1),
        (InitialState.coherent(0.5), FockCutoff(12).dim),
    ], ids=["fock", "coherent"])
    def test_heisenberg_step_builds_three_blocks(self, initial, prepare_exps, monkeypatch):
        # preparing touches the blocks rho0 occupies, one exponential per order
        # |m - n| since orders +k and -k are conjugate; each tau step only the
        # coherence orders -1, +1 and 0 of a, adag and adag a: two exponentials
        built = []

        def recording_expm(m):
            built.append(m.shape[0])
            return expm(m)

        monkeypatch.setattr(dynamics, "expm", recording_expm)
        dynamics.propagated_map.cache_clear()
        correlators._evolved_observables.cache_clear()
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.8, n_thermal=0.1),
                         initial, FockCutoff(12), t_prepare=1.0)
        regression_series(sys, np.linspace(0.0, 2.0, 5))
        assert len(built) == prepare_exps + 2

    def test_prepared_state_built_once(self):
        sys = damped_thermal()
        rho = sys.prepared_state()
        assert sys.prepared_state() is rho
        assert not rho.mat.flags.writeable


class TestEvolvedObservablesCache:
    """A damped mode's evolved observables are cached on its dynamics and grid only."""

    DYNAMICS = {
        "free": QuadraticHamiltonian(omega=1.0),
        "squeezed": QuadraticHamiltonian(omega=1.0, xi=0.2),  # two parity blocks
    }
    GRIDS = {"linspace": np.linspace(0.0, 3.0, 7),
             "nonuniform": np.array([0.0, 0.1, 0.4, 1.0, 2.5])}

    @staticmethod
    def systems(H):
        # two starts at two preparation times, one dynamics
        ch = DampingChannel(kappa=0.8, n_thermal=0.1)
        return [SystemSpec(H, ch, start, FockCutoff(12), t_prepare=t_prepare)
                for start in (InitialState.fock(2), InitialState.coherent(0.5 + 0.3j))
                for t_prepare in (0.0, 0.7)]

    @staticmethod
    def bits(raw):
        return [np.asarray(x).tobytes() for x in raw]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("name", DYNAMICS)
    def test_starts_share_one_entry_bit_for_bit(self, name, grid):
        systems, taus = self.systems(self.DYNAMICS[name]), self.GRIDS[grid]
        cold = []
        for sys in systems:
            correlators._evolved_observables.cache_clear()
            cold.append(self.bits(regression_raw(sys, taus)))
        correlators._evolved_observables.cache_clear()
        warm = [self.bits(regression_raw(sys, taus)) for sys in systems]
        info = correlators._evolved_observables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        assert warm == cold

    def test_cached_arrays_are_read_only(self):
        sys, taus = self.systems(self.DYNAMICS["free"])[0], self.GRIDS["linspace"]
        correlators._evolved_observables.cache_clear()
        regression_raw(sys, taus)
        rows, stack = correlators._evolved_observables(
            sys.hamiltonian, sys.channel, sys.cutoff, correlators._grid_steps(taus))
        assert correlators._evolved_observables.cache_info().hits == 1
        assert stack.shape == (len(taus), len(rows), 3)
        assert not rows.flags.writeable and not stack.flags.writeable

    def test_grid_over_budget_is_not_retained(self, monkeypatch):
        sys = self.systems(self.DYNAMICS["free"])[3]
        rows, _ = correlators._stepped_observables(sys.hamiltonian, sys.channel, sys.cutoff, ())
        fits = correlators.EVOLVED_BYTES // (len(rows) * 3 * 16)
        taus = np.linspace(0.0, 5.0, 2 * fits + 3)  # stepped in three chunks
        steps = correlators._grid_steps(taus)
        correlators._evolved_observables.cache_clear()
        chunked = self.bits(regression_raw(sys, taus))
        # the entry keeps the occupied rows only, and a warm request hits it
        assert self.bits(regression_raw(sys, taus)) == chunked
        info = correlators._evolved_observables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        entry_rows, stack = correlators._evolved_observables(
            sys.hamiltonian, sys.channel, sys.cutoff, steps)
        assert stack is None and np.array_equal(entry_rows, rows)
        # the entry was sized under the old budget, so a new one needs a cleared cache
        monkeypatch.setattr(correlators, "EVOLVED_BYTES", 1 << 30)
        correlators._evolved_observables.cache_clear()
        assert self.bits(regression_raw(sys, taus)) == chunked
        _, stack = correlators._evolved_observables(
            sys.hamiltonian, sys.channel, sys.cutoff, steps)
        assert stack.shape == (len(taus), len(rows), 3)

    def test_grid_sized_by_occupied_rows(self):
        # at cutoff 40 a free mode occupies 121 of 1681 rows: 20 taus of d^2
        # rows would exceed the budget, of the occupied rows they fit
        ch = DampingChannel(kappa=1.0, n_thermal=0.2)
        systems = [SystemSpec(QuadraticHamiltonian(omega=1.0), ch, InitialState.fock(n),
                              FockCutoff(40), t_prepare=0.5) for n in (1, 2)]
        taus = np.linspace(0.0, 5.0, 20)
        assert len(taus) * FockCutoff(40).dim ** 2 * 3 * 16 > correlators.EVOLVED_BYTES
        correlators._evolved_observables.cache_clear()
        for sys in systems:
            regression_raw(sys, taus)
        info = correlators._evolved_observables.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_warm_request_lays_out_no_rows(self, monkeypatch):
        # cutoff 40, 20 taus: d^2 rows would exceed the budget, the occupied
        # rows fit, so a warm request reads the cache and gathers nothing
        ch = DampingChannel(kappa=1.0, n_thermal=0.2)
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), ch, InitialState.fock(1),
                         FockCutoff(40), t_prepare=0.5)
        taus = np.linspace(0.0, 5.0, 20)
        correlators._evolved_observables.cache_clear()
        cold = self.bits(regression_raw(sys, taus))
        calls = []
        layout = correlators.occupied_rows
        monkeypatch.setattr(correlators, "occupied_rows",
                            lambda *args: calls.append(args) or layout(*args))
        assert self.bits(regression_raw(sys, taus)) == cold
        assert calls == []

    def test_closed_mode_is_not_cached(self):
        correlators._evolved_observables.cache_clear()
        regression_raw(closed_coherent(), self.GRIDS["linspace"])
        assert correlators._evolved_observables.cache_info().misses == 0


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

    @staticmethod
    def tilted_integrals(monkeypatch, err):
        monkeypatch.setattr(phasespace, "integrate",
                            lambda pgs, cfg: [(1.0 + 1e-3j, err) for _ in pgs])

    def test_phase_space_g2_imaginary_part_raises(self, monkeypatch):
        self.tilted_integrals(monkeypatch, 0.0)
        with pytest.raises(SelfCheckError, match="propagator: g2 imaginary residue 1.00e-03"):
            phasespace.phase_space_series(closed_coherent(), np.array([0.0, 0.5]),
                                          "propagator", IntegrationConfig())

    def test_q_derivative_g2_self_check_names_method(self, monkeypatch):
        # this route integrates in closed form, without phasespace.integrate
        monkeypatch.setattr(phasespace, "_qderiv_integrals",
                            lambda sys, t, cases, L_max: ((1.0 + 1e-3j, 0.0) for _ in cases))
        with pytest.raises(SelfCheckError, match="qfunction_derivative: g2 imaginary"):
            phasespace.phase_space_series(closed_coherent(), np.array([0.0, 0.5]),
                                          "qfunction_derivative", IntegrationConfig(), L_max=20)

    def test_g2_imaginary_tolerance_follows_monte_carlo_error(self, monkeypatch):
        # 3 sigma_g2 = 3 hypot(1e-3, 2e-3) > 1e-3, so the residue is noise
        self.tilted_integrals(monkeypatch, 1e-3)
        s = phasespace.phase_space_series(closed_coherent(), np.array([0.0, 0.5]),
                                          "propagator", IntegrationConfig())
        assert np.all(s.g2 == 1.0)
