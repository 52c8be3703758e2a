import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from twotime import dynamics, propagator
from twotime.dynamics import QuadraticHamiltonian
from twotime.errors import CutoffTooSmallError, InstabilityError
from twotime.hilbert import FockCutoff, coherent_overlap
from twotime.propagator import bogoliubov_map, kernel_harmonic, kernel_numeric, kernel_quadratic
from twotime.quadrature import IntegrationConfig, PolyGaussian, integrate

HARMONIC = QuadraticHamiltonian(omega=1.0)
DRIVEN = QuadraticHamiltonian(omega=1.0, eta=0.5)
SQUEEZED = QuadraticHamiltonian(omega=1.0, xi=0.2)
CUT = FockCutoff(40)
AMPS = [-1.2, -0.3 + 0.8j, 0.5j, 1.4]


def heisenberg_ode_oracle(H: QuadraticHamiltonian, t: float):
    """Independent (mu, nu, lam) from the linear Heisenberg equations."""

    def rhs(s, y):
        mu, nu, lam = y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]
        dmu = -1j * (H.omega * mu + H.xi * np.conj(nu))
        dnu = -1j * (H.omega * nu + H.xi * np.conj(mu))
        dlam = -1j * (H.omega * lam + H.xi * np.conj(lam) + H.eta)
        return [dmu.real, dmu.imag, dnu.real, dnu.imag, dlam.real, dlam.imag]

    sol = solve_ivp(rhs, (0, t), [1, 0, 0, 0, 0, 0], rtol=1e-12, atol=1e-14)
    y = sol.y[:, -1]
    return y[0] + 1j * y[1], y[2] + 1j * y[3], y[4] + 1j * y[5]


class TestHarmonicKernel:
    def test_zero_time_is_overlap(self):
        k = kernel_harmonic(1.0, 0.0)
        for a, b in [(0.4, -0.2j), (1.5, 1.0 + 1.0j)]:
            assert abs(k.evaluate(a, b) - coherent_overlap(a, b)) < 1e-14

    def test_half_period_sign_flip(self):
        # omega t = pi maps |x> to |-x>: K = <x|-x> = exp(-2 x^2)
        k = kernel_harmonic(1.0, np.pi)
        for x in (0.3, 1.0, 1.7):
            assert abs(k.evaluate(x, x) - np.exp(-2 * x * x)) < 1e-12

    def test_against_fock_oracle(self):
        k = kernel_harmonic(1.0, 0.7)
        num = kernel_numeric(HARMONIC, 0.7, 1 + 0.5j, 0.3, CUT)
        assert abs(k.evaluate(1 + 0.5j, 0.3) - num) / abs(num) < 1e-8


class TestQuadraticKernel:
    def test_free_case_reduces_exactly(self):
        k = kernel_quadratic(QuadraticHamiltonian(omega=0.8), 1.1)
        ref = kernel_harmonic(0.8, 1.1)
        assert k == ref

    def test_zero_time_invariants(self):
        k = kernel_quadratic(DRIVEN, 0.0)
        assert abs(k.B - 1) < 1e-12
        for c in (k.A, k.C, k.D, k.E, k.F):
            assert abs(c) < 1e-12

    def test_displacement_vacuum_overlap(self):
        # |<0|U(t)|0>| = exp(-|eta|^2 t^2 / 2) for a pure drive
        eta, t = 1.0, 0.8
        k = kernel_quadratic(QuadraticHamiltonian(eta=eta), t)
        assert abs(abs(k.evaluate(0, 0)) - np.exp(-abs(eta * t) ** 2 / 2)) < 1e-10
        num = kernel_numeric(QuadraticHamiltonian(eta=eta), t, 0, 0, CUT)
        assert abs(k.evaluate(0, 0) - num) < 1e-10

    def test_squeezed_against_fock_oracle(self):
        k = kernel_quadratic(SQUEEZED, 0.5)
        num = kernel_numeric(SQUEEZED, 0.5, 0, 0, CUT)
        assert abs(k.evaluate(0, 0) - num) / abs(num) < 1e-6

    @pytest.mark.parametrize("H", [HARMONIC, DRIVEN, SQUEEZED])
    def test_grid_against_fock_oracle(self, H):
        k = kernel_quadratic(H, 0.9)
        for a in AMPS:
            for b in AMPS:
                num = kernel_numeric(H, 0.9, a, b, CUT)
                assert abs(k.evaluate(a, b) - num) / abs(num) < 1e-7

    @pytest.mark.parametrize("H,t,n_max", [
        # omega = |xi|: the 2x2 block of the Heisenberg generator is defective
        (QuadraticHamiltonian(omega=0.5, xi=0.5), 1.0, 40),
        # nearly two periods: the argument of conj(mu) in A winds past pi
        (QuadraticHamiltonian(omega=1.0, xi=0.2, eta=0.5), 12.0, 60),
        # omega = |xi| with a drive: lam grows as t^2 and Lam as t^3
        (QuadraticHamiltonian(omega=0.5, xi=0.5, eta=0.3), 2.0, 60),
        # omega < 0 and six turns backwards of conj(mu)
        (QuadraticHamiltonian(omega=-1.0, xi=0.3, eta=0.4j), 40.0, 60),
    ], ids=["exceptional_point", "many_periods", "degenerate_driven", "many_windings"])
    def test_closed_form_against_fock_oracle(self, H, t, n_max):
        k = kernel_quadratic(H, t)
        for a in AMPS:
            for b in AMPS:
                num = kernel_numeric(H, t, a, b, FockCutoff(n_max))
                assert abs(k.evaluate(a, b) - num) / abs(num) < 1e-7

    def test_build_calls_no_expm(self, monkeypatch):
        # the map is in closed form, the degenerate driven case included
        calls = []
        for module in (scipy.linalg, dynamics):
            monkeypatch.setattr(module, "expm", lambda m: calls.append(m.shape))
        kernel_quadratic(QuadraticHamiltonian(omega=0.5, xi=0.5, eta=0.3), 2.0)
        bogoliubov_map(QuadraticHamiltonian(omega=1.0, xi=0.2, eta=0.5), 2.0)
        assert calls == []

    def test_unitarity_identity(self):
        # |B|^2 = 1 - 4|C|^2 for every unitary quadratic kernel
        for H, t in [(SQUEEZED, 1.3), (QuadraticHamiltonian(omega=0.5, xi=0.3j, eta=0.2), 0.9)]:
            k = kernel_quadratic(H, t)
            assert abs(abs(k.B) ** 2 - (1 - 4 * abs(k.C) ** 2)) < 1e-10

    def test_extreme_squeezing_stays_normalizable(self):
        # unitary dynamics keeps |C| < 1/2 for any finite squeezing
        k = kernel_quadratic(QuadraticHamiltonian(xi=1.0), 2.0)
        assert abs(k.C) < 0.5

    def test_instability_guard_fires(self):
        # 1 - 2|C| rounds to zero or below in floating point
        with pytest.raises(InstabilityError):
            kernel_quadratic(QuadraticHamiltonian(xi=1.0), 30.0)

    @pytest.mark.parametrize("omega,xi,eta,t", [
        (0.1, 0.5, 0.7, 40.0),  # margin 1 eps
        (0.0, 0.4, 0.3, 40.0),  # 112 eps
        (0.0, 1.0, 0.0, 15.0),  # 842 eps
    ])
    def test_instability_guard_fires_without_a_correct_digit(self, omega, xi, eta, t):
        # a positive margin of a few hundred eps carries no correct digit
        with pytest.raises(InstabilityError):
            kernel_quadratic(QuadraticHamiltonian(omega=omega, xi=xi, eta=eta), t)

    @pytest.mark.parametrize("H,t,message", [
        (QuadraticHamiltonian(xi=1.0), 30.0, "1 - 2|C| = 0 < 2.2e-11 at t = 30.0; squeezing"),
        (QuadraticHamiltonian(omega=1.0, eta=1e200), 0.5,
         "kernel coefficient(s) A not finite at t = 0.5; the kernel overflows"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_instability_message_names_its_cause(self, H, t, message):
        # an overflowed coefficient is not blamed on the margin, which is 1 here,
        # and numpy's overflow warnings do not precede the error
        with pytest.raises(InstabilityError) as info:
            kernel_quadratic(H, t)
        assert str(info.value).startswith(message)

    def test_map_is_identity_at_zero_time(self):
        # omega^2 overflows, so the series at t = 0 would read -inf * 0
        assert bogoliubov_map(QuadraticHamiltonian(omega=1e300), 0.0) == (1, 0, 0)

    @pytest.mark.parametrize("H,t", [
        (QuadraticHamiltonian(omega=1e300), 0.5),  # omega^2 = inf, then inf * 0 = nan
        (QuadraticHamiltonian(omega=1.0, xi=1e300), 0.5),  # |xi| ** 2 raises OverflowError
        (QuadraticHamiltonian(xi=10.0), 100.0),  # cmath.cos overflows: cosh(1000)
    ])
    def test_non_finite_map_raises(self, H, t):
        with pytest.raises(InstabilityError) as info:
            bogoliubov_map(H, t)
        assert str(info.value).startswith(
            f"Bogoliubov map not finite at t = {t} for omega = {H.omega}, xi = {H.xi}, "
            f"eta = {H.eta}; the map overflows double precision")

    def test_small_accurate_margin_still_builds(self):
        k = kernel_quadratic(QuadraticHamiltonian(omega=0.1, xi=0.5, eta=0.7), 12.0)
        assert 1e-5 < 1 - 2 * abs(k.C) < 2e-5

    @pytest.mark.parametrize("H,t", [(DRIVEN, 0.8), (SQUEEZED, 0.5),
                                     (QuadraticHamiltonian(omega=1.0, xi=0.1j, eta=0.3), 1.2)])
    def test_heisenberg_coefficients(self, H, t):
        got = bogoliubov_map(H, t)
        expected = heisenberg_ode_oracle(H, t)
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-10


REGIMES = {
    "oscillating": QuadraticHamiltonian(omega=1.0, xi=0.2, eta=0.5),
    "amplifying": QuadraticHamiltonian(omega=0.1, xi=0.5, eta=0.7),
    "exceptional_point": QuadraticHamiltonian(omega=0.5, xi=0.5, eta=0.3),
    "driven_only": QuadraticHamiltonian(omega=1.0, eta=0.5),
}


class TestClosedFormMap:
    """The closed-form map against the reference exponential of _generator."""

    @staticmethod
    def reference_row(H, t):
        return expm(t * propagator._generator(H))[0]

    @pytest.mark.parametrize("t", [0.3, 4.0, 12.0, 40.0])
    @pytest.mark.parametrize("name", REGIMES)
    def test_map_matches_expm(self, name, t):
        ref = self.reference_row(REGIMES[name], t)
        got = np.array(propagator._map_row(REGIMES[name], t))
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
        assert bogoliubov_map(REGIMES[name], t) == propagator._map_row(REGIMES[name], t)[:3]

    @pytest.mark.parametrize("name,t", [(name, t) for name in REGIMES for t in (0.3, 4.0, 40.0)
                                        if (name, t) != ("amplifying", 40.0)])
    def test_kernel_matches_expm(self, name, t, monkeypatch):
        # at t = 40 the amplifying kernel trips the instability guard (tested above)
        H = REGIMES[name]
        k = kernel_quadratic(H, t)
        monkeypatch.setattr(propagator, "_map_row", self.reference_row)
        ref = kernel_quadratic(H, t)
        for c in "ABCDEF":
            assert abs(getattr(k, c) - getattr(ref, c)) < 1e-12 * max(1.0, abs(getattr(ref, c)))

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_series_and_closed_form_meet(self, t, sign):
        # |w2| t^2 = 1 switches from the Taylor series to cos/sin (cosh/sinh)
        w2 = sign / (t * t)
        below = np.array(propagator._series(w2 * (1 - 4e-16), t))
        above = np.array(propagator._series(w2 * (1 + 4e-16), t))
        assert np.all(np.abs(below - above) < 1e-14 * np.abs(above))


class TestNumericKernel:
    def test_zero_time_overlap(self):
        assert abs(kernel_numeric(HARMONIC, 0.0, 0.8, -0.4j, CUT)
                   - coherent_overlap(0.8, -0.4j)) < 1e-10

    def test_harmonic_consistency_grid(self):
        k = kernel_harmonic(1.0, 0.7)
        pts = np.array([-1.5, -0.5, 0.0, 0.7, 1.5])
        for a in pts:
            for b in pts:
                num = kernel_numeric(HARMONIC, 0.7, a, b, CUT)
                assert abs(k.evaluate(a, b) - num) / abs(num) < 1e-8

    def test_conjugation_identity(self):
        # K*(a2, t | a3, 0) = <a3|Udag(t)|a2>
        from twotime.dynamics import unitary_matrix
        from twotime.hilbert import coherent_vector

        a2, a3 = 0.6 + 0.2j, -0.4
        lhs = np.conj(kernel_numeric(DRIVEN, 1.1, a2, a3, CUT))
        U = unitary_matrix(DRIVEN, 1.1, CUT)
        rhs = np.vdot(coherent_vector(a3, CUT), U.conj().T @ coherent_vector(a2, CUT))
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.filterwarnings("ignore::twotime.errors.CutoffWarning")
    def test_cutoff_rejection(self):
        with pytest.raises(CutoffTooSmallError):
            kernel_numeric(HARMONIC, 0.5, 4.0, 0.0, FockCutoff(8))


class TestKernelIntegrals:
    """Reproducing property and unitarity sum rule via the integration engine."""

    CFG = IntegrationConfig(nodes_per_axis=24)

    @pytest.mark.parametrize("H", [HARMONIC, DRIVEN, SQUEEZED])
    def test_reproducing_property(self, H):
        # int d2a1/pi K(a,t|a1,0) <a1|b> = K(a,t|b,0)
        t, alpha, beta = 0.9, 0.7 + 0.3j, -0.4 + 0.1j
        k = kernel_quadratic(H, t)
        pg = PolyGaussian(1)
        # K(alpha, t | z, 0) as a function of the integration variable z
        pg.add_const(k.A + k.B * np.conj(alpha) * 0)  # A only; B term is linear in z
        pg.add_linear(0, k.B * np.conj(alpha))
        if k.C != 0:
            pg.add_const(k.C * np.conj(alpha) ** 2)
        if k.D != 0:
            pg.add_holo(0, 0, k.D)
        if k.E != 0:
            pg.add_const(k.E * np.conj(alpha))
        if k.F != 0:
            pg.add_linear(0, k.F)
        pg.add_const(-abs(alpha) ** 2 / 2)
        pg.add_abs2(0, -0.5)
        # overlap <z|beta>
        pg.add_linear_conj(0, beta)
        pg.add_abs2(0, -0.5)
        pg.add_const(-abs(beta) ** 2 / 2)
        pg.add_const(-np.log(np.pi))
        value, _ = integrate(pg, self.CFG)
        assert abs(value - k.evaluate(alpha, beta)) < 1e-10

    @pytest.mark.parametrize("H", [HARMONIC, DRIVEN, SQUEEZED])
    def test_unitarity_sum_rule(self, H):
        # int d2a/pi |K(a,t|b,0)|^2 = 1
        t, beta = 1.2, 0.6 - 0.2j
        k = kernel_quadratic(H, t)
        pg = PolyGaussian(1)
        for conj in (False, True):
            B = np.conj(k.B) if conj else k.B
            C = np.conj(k.C) if conj else k.C
            E = np.conj(k.E) if conj else k.E
            add_out = pg.add_linear if conj else pg.add_linear_conj
            pg.add_const((np.conj(k.A) if conj else k.A))
            add_out(0, B * (np.conj(beta) if conj else beta))
            if C != 0:
                (pg.add_holo if conj else pg.add_anti)(0, 0, C)
            if k.D != 0:
                pg.add_const((np.conj(k.D) if conj else k.D) * beta ** 2
                             if not conj else np.conj(k.D * beta ** 2))
            if E != 0:
                add_out(0, E)
            if k.F != 0:
                pg.add_const(np.conj(k.F * beta) if conj else k.F * beta)
            pg.add_abs2(0, -0.5)
            pg.add_const(-abs(beta) ** 2 / 2)
        pg.add_const(-np.log(np.pi))
        value, _ = integrate(pg, self.CFG)
        assert abs(value - 1.0) < 1e-9


def test_import_leaves_out_ode_solvers():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, twotime.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
