import math

import numpy as np
import pytest
from conftest import lifted

from twotime.correlators import InitialState, SystemSpec, regression_raw
from twotime.dynamics import DampingChannel, QuadraticHamiltonian
from twotime.errors import (InstabilityError, MeasureConventionError, ScenarioSemanticError,
                            ZeroDenominatorError)
from twotime import phasespace, quadrature
from twotime.hilbert import FockCutoff, normal_order_coeffs
from twotime.phasespace import (
    _g_propagator,
    _g_raw,
    _integral,
    _measure_selftest,
    phase_space_series,
)
from twotime.quadrature import IntegrationConfig, integrate

QUAD = IntegrationConfig(nodes_per_axis=24)
MC = IntegrationConfig(engine="monte_carlo_gaussian", sample_count=500_000, seed=42)
METHODS = ("propagator", "qfunction_two_variable", "qfunction_derivative")


def g(sys, t, tau, method, cfg=QUAD, L_max=12):
    return _g_raw(sys, t, tau, method, cfg, L_max)[0]


def g2(sys, t, tau, method):
    """Normalized g2, with the route's own tau = 0 mean photon number."""
    numerator = _integral(sys, t, tau, method, QUAD, 12, "g2")[0].real
    return numerator / g(sys, t, 0.0, method).real ** 2


def scenario(kind: str, n_max=40) -> SystemSpec:
    if kind == "harmonic":
        return SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                          InitialState.coherent(1.0), FockCutoff(n_max), t_prepare=0.0)
    if kind == "driven":
        return SystemSpec(QuadraticHamiltonian(omega=1.0, eta=0.5), DampingChannel(),
                          InitialState.vacuum(), FockCutoff(n_max), t_prepare=1.0)
    if kind == "squeezed":
        return SystemSpec(QuadraticHamiltonian(omega=1.0, xi=0.2), DampingChannel(),
                          InitialState.vacuum(), FockCutoff(n_max), t_prepare=1.0)
    raise ValueError(kind)


class TestFirstOrderRoutes:
    @pytest.mark.parametrize("kind", ["harmonic", "driven", "squeezed"])
    @pytest.mark.parametrize("tau", [0.0, 0.8])
    def test_methods_match_regression(self, kind, tau):
        sys = scenario(kind)
        oracle = regression_raw(sys, [tau])[1][0]
        t = sys.t_prepare
        assert abs(g(sys, t, tau, "propagator") - oracle) < 1e-10
        assert abs(g(sys, t, tau, "qfunction_two_variable") - oracle) < 1e-10
        assert abs(g(sys, t, tau, "qfunction_derivative") - oracle) < 1e-7

    def test_vacuum_gives_zero(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.vacuum(), FockCutoff(20), t_prepare=0.0)
        assert abs(g(sys, 0.0, 0.4, "propagator")) < 1e-10
        assert abs(g(sys, 0.0, 0.4, "qfunction_two_variable")) < 1e-10
        assert abs(g(sys, 0.0, 0.4, "qfunction_derivative")) < 1e-10

    def test_open_system_rejected(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.5),
                         InitialState.coherent(1.0), FockCutoff(20))
        with pytest.raises(ScenarioSemanticError, match="closed dynamics.*kappa = 0.5"):
            g(sys, 0.0, 0.1, "propagator")

    def test_noncoherent_initial_rejected(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.fock(1), FockCutoff(20))
        with pytest.raises(ScenarioSemanticError, match="coherent"):
            g(sys, 0.0, 0.1, "qfunction_two_variable")


class TestPairwiseAgreement:
    """Direct method-to-method checks, independent of the regression oracle."""

    def test_q2var_tracks_propagator_on_grid(self):
        sys = scenario("harmonic")
        taus = np.linspace(0, 2.0, 5)
        for tau in taus:
            a = g(sys, 0.0, float(tau), "propagator")
            b = g(sys, 0.0, float(tau), "qfunction_two_variable")
            assert abs(a - b) < 1e-5

    def test_qderiv_tracks_propagator_and_oracle(self):
        sys = scenario("harmonic")
        taus = np.linspace(0, 2.0, 5)
        _, oracle, _, _ = regression_raw(sys, taus)
        for tau, o in zip(taus, oracle):
            a = g(sys, 0.0, float(tau), "propagator")
            d = g(sys, 0.0, float(tau), "qfunction_derivative")
            assert abs(d - a) < 1e-5
            assert abs(d - o) < 1e-5


class TestCollapseConsistency:
    def test_collapsed_quadrature_vs_full_monte_carlo(self):
        sys = scenario("harmonic")
        tau = 0.7
        collapsed, _ = _g_propagator(sys, 0.0, tau, QUAD, collapse=True)
        full, err = _g_propagator(sys, 0.0, tau, MC, collapse=False)
        assert abs(full - collapsed) < 3 * err

    def test_full_form_needs_monte_carlo(self):
        from twotime.errors import QuadratureDimensionError

        sys = scenario("harmonic")
        with pytest.raises(QuadratureDimensionError):
            _g_propagator(sys, 0.0, 0.5, QUAD, collapse=False)


class TestMeasureSelfTest:
    def test_passes_silently_on_consistent_value(self):
        _measure_selftest(1.0 + 0j, 1.0, "alpha")

    def test_pi_factor_diagnosed(self):
        with pytest.raises(MeasureConventionError, match="pi\\^1"):
            _measure_selftest(np.pi * 1.0, 1.0, "alpha")

    def test_generic_mismatch_reported(self):
        with pytest.raises(MeasureConventionError, match="no integer pi-power"):
            _measure_selftest(1.37, 1.0, "alpha")

    def test_q2var_zero_delay_selftest_runs_clean(self):
        sys = scenario("driven")
        value = g(sys, sys.t_prepare, 0.0, "qfunction_two_variable")
        assert abs(value.imag) < 1e-12


class TestSecondOrderRoutes:
    @pytest.mark.parametrize("kind", ["harmonic", "driven", "squeezed"])
    @pytest.mark.parametrize("method", METHODS)
    def test_g2_matches_regression(self, kind, method):
        sys = scenario(kind)
        tau = 0.9
        mean_n, _, _, G2 = regression_raw(sys, [tau])
        oracle = G2[0].real / mean_n**2
        got = g2(sys, sys.t_prepare, tau, method)
        assert abs(got - oracle) < 1e-5

    def test_coherent_factorization(self):
        sys = scenario("harmonic")
        for method in METHODS:
            got = g2(sys, 0.0, 1.3, method)
            assert abs(got - 1.0) < 1e-5

    def test_squeezed_zero_delay_highercutoff(self):
        sys = scenario("squeezed", n_max=60)
        mean_n, _, _, G2 = regression_raw(sys, [0.0])
        oracle = G2[0].real / mean_n**2
        for method in METHODS:
            got = g2(sys, sys.t_prepare, 0.0, method)
            assert abs(got - oracle) < 1e-4


class TestHusimiNormalization:
    """Cross-module invariant: the Q-function integrates to one."""

    @pytest.mark.parametrize("state", ["coherent", "thermal", "superposition"])
    def test_q_integrates_to_one(self, state):
        from scipy.special import gammaln

        from twotime.hilbert import coherent_dm, superposition_dm, thermal_dm
        from twotime.quadrature import PolyGaussian, integrate

        cut = FockCutoff(25)
        rho = {
            "coherent": lambda: coherent_dm(1.0, cut),
            "thermal": lambda: thermal_dm(0.8, cut),
            "superposition": lambda: superposition_dm([(0.6, 0), (0.8, 3)], cut),
        }[state]()
        # Q(a) = (1/pi) e^{-|a|^2} sum_nm rho_nm abar^n a^m / sqrt(n! m!)
        pg = PolyGaussian(1)
        pg.add_abs2(0, -1.0)
        norm = np.exp(-0.5 * gammaln(np.arange(cut.dim) + 1.0))
        # tiny coefficients stay in: the monomial moments grow factorially, so
        # a dropped rho_nn/n! term would still cost O(rho_nn) in the integral
        weighted = (norm[:, None] * norm[None, :]) * rho.mat / np.pi
        rows, cols = np.nonzero(weighted)
        for n, m in zip(rows, cols):
            pg.poly_add((m,), (n,), weighted[n, m])
        # Fock polynomials up to level 25 need > 25 nodes per axis for the
        # quadrature to hold every monomial exactly
        value, _ = integrate(lifted(pg), IntegrationConfig(nodes_per_axis=32))
        assert abs(value - 1.0) < 1e-9


class TestLmaxGuard:
    def test_route_rejects_insufficient_expansion_order(self):
        from twotime.errors import LMaxInsufficientError

        sys = scenario("harmonic")  # alpha0 = 1 has support beyond level 6
        with pytest.raises(LMaxInsufficientError):
            g(sys, 0.0, 0.3, "qfunction_derivative", L_max=6)


class TestSeries:
    def test_series_normalization_and_tags(self):
        sys = scenario("driven")
        taus = np.linspace(0, 1.5, 4)
        s = phase_space_series(sys, taus, "propagator", QUAD)
        assert s.method_tag == "propagator"
        assert abs(s.g1[0] - 1.0) < 1e-9
        assert np.all(s.error_estimate == 0)

    def test_monte_carlo_series_carries_errors(self):
        sys = scenario("harmonic")
        cfg = IntegrationConfig(engine="monte_carlo_gaussian", sample_count=50_000, seed=2)
        s = phase_space_series(sys, np.array([0.0, 0.5]), "propagator", cfg)
        assert np.all(s.error_estimate > 0)

    def test_monte_carlo_errors_propagate_mean_n(self):
        # coherent_mc's settings; each row's error is the larger of the g1 and
        # g2 standard errors, hypot-combined with that of the mean photon number
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.coherent(1.0), FockCutoff(40))
        cfg = IntegrationConfig(engine="monte_carlo_gaussian", sample_count=100_000, seed=42)
        taus = np.linspace(0.0, 3.0, 5)
        s = phase_space_series(sys, taus, "propagator", cfg)
        n, e_n = _g_raw(sys, 0.0, 0.0, "propagator", cfg, 12)
        m = n.real
        for tau, err in zip(taus, s.error_estimate):
            gv, ge = _g_raw(sys, 0.0, tau, "propagator", cfg, 12)
            g2v, g2e = _integral(sys, 0.0, tau, "propagator", cfg, 12, "g2")
            assert err == max(np.hypot(ge / m, abs(gv) * e_n / m**2),
                              np.hypot(g2e / m**2, 2 * abs(g2v.real) * e_n / m**3))

    @pytest.mark.parametrize("method", METHODS)
    def test_vacuum_series_has_no_normalization(self, method):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.vacuum(), FockCutoff(12))
        with pytest.raises(ZeroDenominatorError, match="mean photon number"):
            phase_space_series(sys, np.linspace(0.0, 1.0, 3), method, QUAD)

    @pytest.mark.parametrize("L_max", [4, 12, 20, 30])
    def test_vacuum_rejected_above_derivative_roundoff(self, L_max):
        # the route's vacuum n is roundoff of either sign: 4e-14 at L_max = 4,
        # 3.9e-9 at 20 (above MEAN_N_FLOOR), -2.9e-6 at 30
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.vacuum(), FockCutoff(30))
        with pytest.raises(ZeroDenominatorError, match="mean photon number"):
            phase_space_series(sys, np.linspace(0.0, 1.0, 3), "qfunction_derivative", QUAD,
                               L_max)

    @pytest.mark.parametrize("omega, match", [
        (1.0, "mean photon number 9.32e-01 is not resolved .* roundoff .* lower lmax"),
        (1e300, "mean photon number 9.32e-01 is not resolved .* roundoff .* lower lmax"),
    ])
    def test_lost_mean_n_is_instability_not_vacuum(self, omega, match):
        # n = 0.25 at cutoff 40: the default lmax 12 resolves it, lmax 40 loses it
        # to the tables' roundoff; n is read at tau = 0, where the map is the
        # identity whatever omega (omega^2 = inf included)
        sys = SystemSpec(QuadraticHamiltonian(omega=omega), DampingChannel(),
                         InitialState.coherent(0.5), FockCutoff(40))
        with pytest.raises(InstabilityError, match=match) as info:
            phase_space_series(sys, np.linspace(0.0, 1.0, 3), "qfunction_derivative", QUAD, 40)
        assert "vacuum" not in str(info.value)

    def test_quadrature_node_doubling_stable(self):
        sys = scenario("squeezed")
        tau = 0.6
        a = g(sys, sys.t_prepare, tau, "propagator", IntegrationConfig(nodes_per_axis=24))
        b = g(sys, sys.t_prepare, tau, "propagator", IntegrationConfig(nodes_per_axis=48))
        assert abs(a - b) < 1e-7


class TestCaches:
    """The node-grid cache and the pieces a series shares change no bit of any integral."""

    SYSTEMS = {
        "free": (QuadraticHamiltonian(omega=1.0), InitialState.coherent(0.8 + 0.3j)),
        "driven": (QuadraticHamiltonian(omega=1.0, eta=0.5), InitialState.vacuum()),
        "squeezed": (QuadraticHamiltonian(omega=1.0, xi=0.2), InitialState.vacuum()),
        "amplifying": (QuadraticHamiltonian(omega=0.1, xi=0.5), InitialState.coherent(0.5)),
    }

    @staticmethod
    def clear_caches():
        quadrature._gh_grid.cache_clear()

    @staticmethod
    def integral(sys, tau, method, cfg, kind):
        return _integral(sys, 0.5, tau, method, cfg, 20, kind)

    def cold(self, sys, tau, method, cfg, kind):
        self.clear_caches()
        return self.integral(sys, tau, method, cfg, kind)

    @pytest.mark.parametrize("name", list(SYSTEMS))
    @pytest.mark.parametrize("method", METHODS)
    def test_warm_equals_cold_bit_for_bit(self, name, method, monkeypatch):
        H, initial = self.SYSTEMS[name]
        sys = SystemSpec(H, DampingChannel(), initial, FockCutoff(30), t_prepare=0.5)
        cfg = IntegrationConfig(nodes_per_axis=16)
        cases = [(tau, kind) for tau in (0.0, 0.7) for kind in ("late", "g2")]
        cold = [self.cold(sys, tau, method, cfg, kind) for tau, kind in cases]
        self.clear_caches()
        warm = [self.integral(sys, tau, method, cfg, kind) for tau, kind in cases]
        assert repr(warm) == repr(cold)
        if method != "qfunction_derivative":
            return
        # the closed form calls no engine, so no engine setting changes a bit
        def no_engine(*args):
            raise AssertionError("qfunction_derivative called an integration engine")

        monkeypatch.setattr(phasespace, "integrate", no_engine)
        taus = np.linspace(0.0, 1.5, 4)
        series = [phase_space_series(sys, taus, method, c, 20)
                  for c in (IntegrationConfig(nodes_per_axis=8), IntegrationConfig(), MC)]
        for s in series:
            assert s.g1.tobytes() == series[0].g1.tobytes()
            assert s.g2.tobytes() == series[0].g2.tobytes()
            assert s.mean_n == series[0].mean_n
            assert not np.any(s.error_estimate)

    def test_grid_sizes_never_collide(self):
        sys = scenario("driven", n_max=30)
        coarse, fine = IntegrationConfig(nodes_per_axis=16), IntegrationConfig(nodes_per_axis=24)
        cold = self.cold(sys, 0.7, "propagator", fine, "late")
        self.clear_caches()
        self.integral(sys, 0.7, "propagator", coarse, "late")
        assert repr(self.integral(sys, 0.7, "propagator", fine, "late")) == repr(cold)

    def test_series_builds_one_coupling_per_tau(self, monkeypatch):
        calls, builds = [], []
        monkeypatch.setattr(phasespace, "integrate",
                            lambda pgs, cfg: calls.append(pgs) or integrate(pgs, cfg))
        build = quadrature._coupling_factors
        monkeypatch.setattr(quadrature, "_coupling_factors",
                            lambda *args: builds.append(args) or build(*args))
        taus = np.linspace(0.0, 1.5, 4)
        phase_space_series(scenario("driven", n_max=30), taus, "propagator",
                           IntegrationConfig(nodes_per_axis=16))
        assert len(builds) == len(taus)
        # one engine call integrates the n integral and every g1 and g2 of the grid
        assert [len(pgs) for pgs in calls] == [2 * len(taus)]

    @pytest.mark.parametrize("method, builds", [("propagator", 5),
                                                ("qfunction_two_variable", 4)])
    def test_series_builds_each_kernel_once(self, method, builds, monkeypatch):
        # one kernel per tau, shared by its g1 and g2 integrands and, at tau = 0,
        # by the n integral; the propagator route adds the t-kernel
        durations = []
        original = phasespace.kernel_quadratic

        def recording_kernel(H, t):
            durations.append(t)
            return original(H, t)

        monkeypatch.setattr(phasespace, "kernel_quadratic", recording_kernel)
        taus = np.linspace(0.0, 1.5, 4)
        phase_space_series(scenario("driven", n_max=30), taus, method, QUAD)
        assert len(durations) <= builds
        assert set(taus) <= set(durations)

    def test_series_expands_prepared_state_twice(self, monkeypatch):
        calls = []
        monkeypatch.setattr(phasespace, "normal_order_coeffs",
                            lambda *a, **k: calls.append(a) or normal_order_coeffs(*a, **k))
        self.clear_caches()
        phase_space_series(scenario("driven", n_max=30), np.linspace(0.0, 1.5, 4),
                           "qfunction_derivative", QUAD)
        assert len(calls) == 2  # rho(t) for g1, a rho(t) adag for g2

    @pytest.mark.parametrize("shifted", [False, True])
    def test_resummation_undoes_normal_order(self, shifted):
        # sum_k C[a-k, b-k] / k! telescopes to rho[a, b] / sqrt(a! b!)
        sys = scenario("driven", n_max=30)
        psi = phasespace._prepared_vector(sys, 1.0)
        if shifted:
            psi = np.sqrt(np.arange(1, 31)) * psi[1:]
        size = 13
        fact = np.array([math.factorial(k) for k in range(size)], dtype=float)
        rho = np.outer(psi[:size], np.conj(psi[:size])) / np.sqrt(np.outer(fact, fact))
        R = phasespace._prepared_q_tables(sys, 1.0, 12, shifted, 2)[0]
        assert np.max(np.abs(R[:size] - rho)) < 1e-12
        assert not np.any(R[size:])
