import numpy as np
import pytest

from twotime.correlators import InitialState, SystemSpec, regression_raw
from twotime.dynamics import DampingChannel, QuadraticHamiltonian
from twotime.errors import MeasureConventionError
from twotime.hilbert import FockCutoff
from twotime.phasespace import (
    _g_raw,
    _measure_selftest,
    g2_via_phase_space,
    g_via_propagator,
    g_via_q_derivative,
    g_via_q_two_variable,
    phase_space_series,
)
from twotime.quadrature import IntegrationConfig

QUAD = IntegrationConfig(nodes_per_axis=24)
MC = IntegrationConfig(engine="monte_carlo_gaussian", sample_count=500_000, seed=42)
METHODS = ("propagator", "qfunction_two_variable", "qfunction_derivative")


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
        assert abs(g_via_propagator(sys, t, tau, QUAD) - oracle) < 1e-10
        assert abs(g_via_q_two_variable(sys, t, tau, QUAD) - oracle) < 1e-10
        assert abs(g_via_q_derivative(sys, t, tau, 12, QUAD) - oracle) < 1e-7

    def test_vacuum_gives_zero(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.vacuum(), FockCutoff(20), t_prepare=0.0)
        assert abs(g_via_propagator(sys, 0.0, 0.4, QUAD)) < 1e-10
        assert abs(g_via_q_two_variable(sys, 0.0, 0.4, QUAD)) < 1e-10
        assert abs(g_via_q_derivative(sys, 0.0, 0.4, 12, QUAD)) < 1e-10

    def test_open_system_rejected(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.5),
                         InitialState.coherent(1.0), FockCutoff(20))
        with pytest.raises(ValueError, match="closed dynamics"):
            g_via_propagator(sys, 0.0, 0.1, QUAD)

    def test_noncoherent_initial_rejected(self):
        sys = SystemSpec(QuadraticHamiltonian(omega=1.0), DampingChannel(),
                         InitialState.fock(1), FockCutoff(20))
        with pytest.raises(ValueError, match="coherent"):
            g_via_q_two_variable(sys, 0.0, 0.1, QUAD)


class TestPairwiseAgreement:
    """Direct method-to-method checks, independent of the regression oracle."""

    def test_q2var_tracks_propagator_on_grid(self):
        sys = scenario("harmonic")
        taus = np.linspace(0, 2.0, 5)
        for tau in taus:
            a = g_via_propagator(sys, 0.0, float(tau), QUAD)
            b = g_via_q_two_variable(sys, 0.0, float(tau), QUAD)
            assert abs(a - b) < 1e-5

    def test_qderiv_tracks_propagator_and_oracle(self):
        sys = scenario("harmonic")
        taus = np.linspace(0, 2.0, 5)
        _, oracle, _, _ = regression_raw(sys, taus)
        for tau, o in zip(taus, oracle):
            a = g_via_propagator(sys, 0.0, float(tau), QUAD)
            d = g_via_q_derivative(sys, 0.0, float(tau), 12, QUAD)
            assert abs(d - a) < 1e-5
            assert abs(d - o) < 1e-5


class TestCollapseConsistency:
    def test_collapsed_quadrature_vs_full_monte_carlo(self):
        sys = scenario("harmonic")
        tau = 0.7
        collapsed = g_via_propagator(sys, 0.0, tau, QUAD, collapse=True)
        full, err = __import__("twotime.phasespace", fromlist=["_g_propagator"])._g_propagator(
            sys, 0.0, tau, MC, collapse=False)
        assert abs(full - collapsed) < 3 * err

    def test_full_form_needs_monte_carlo(self):
        from twotime.errors import QuadratureDimensionError

        sys = scenario("harmonic")
        with pytest.raises(QuadratureDimensionError):
            g_via_propagator(sys, 0.0, 0.5, QUAD, collapse=False)


class TestOrderingHermiticity:
    @pytest.mark.parametrize("method", METHODS)
    def test_late_equals_conj_early(self, method):
        sys = scenario("driven")
        late, _ = _g_raw(sys, sys.t_prepare, 0.8, method, QUAD, 12, ordering="late")
        early, _ = _g_raw(sys, sys.t_prepare, 0.8, method, QUAD, 12, ordering="early")
        assert abs(late - np.conj(early)) < 1e-9


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
        value = g_via_q_two_variable(sys, sys.t_prepare, 0.0, QUAD)
        assert abs(value.imag) < 1e-12


class TestSecondOrderRoutes:
    @pytest.mark.parametrize("kind", ["harmonic", "driven", "squeezed"])
    @pytest.mark.parametrize("method", METHODS)
    def test_g2_matches_regression(self, kind, method):
        sys = scenario(kind)
        tau = 0.9
        mean_n, _, _, G2 = regression_raw(sys, [tau])
        oracle = G2[0].real / mean_n**2
        got = g2_via_phase_space(sys, sys.t_prepare, tau, method, QUAD)
        assert abs(got - oracle) < 1e-5

    def test_coherent_factorization(self):
        sys = scenario("harmonic")
        for method in METHODS:
            got = g2_via_phase_space(sys, 0.0, 1.3, method, QUAD)
            assert abs(got - 1.0) < 1e-5

    def test_squeezed_zero_delay_highercutoff(self):
        sys = scenario("squeezed", n_max=60)
        mean_n, _, _, G2 = regression_raw(sys, [0.0])
        oracle = G2[0].real / mean_n**2
        for method in METHODS:
            got = g2_via_phase_space(sys, sys.t_prepare, 0.0, method, QUAD)
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
        value, _ = integrate(pg, IntegrationConfig(nodes_per_axis=32))
        assert abs(value - 1.0) < 1e-9


class TestLmaxGuard:
    def test_route_rejects_insufficient_expansion_order(self):
        from twotime.errors import LMaxInsufficientError

        sys = scenario("harmonic")  # alpha0 = 1 has support beyond level 6
        with pytest.raises(LMaxInsufficientError):
            g_via_q_derivative(sys, 0.0, 0.3, 6, QUAD)


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

    def test_quadrature_node_doubling_stable(self):
        sys = scenario("squeezed")
        tau = 0.6
        a = g_via_propagator(sys, sys.t_prepare, tau, IntegrationConfig(nodes_per_axis=24))
        b = g_via_propagator(sys, sys.t_prepare, tau, IntegrationConfig(nodes_per_axis=48))
        assert abs(a - b) < 1e-7
