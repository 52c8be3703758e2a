import numpy as np
import pytest
from scipy.linalg import expm

import twotime.dynamics as dynamics
from twotime.dynamics import (
    DampingChannel,
    QuadraticHamiltonian,
    evolve_lindblad,
    evolve_unitary,
    hamiltonian_matrix,
    lindblad_generator,
    propagated_map,
    steady_state,
)
from twotime.errors import CutoffTooSmallError
from twotime.hilbert import (
    DensityMatrix,
    FockCutoff,
    coherent_dm,
    fock_dm,
    ladder_matrices,
    thermal_dm,
)


class TestHamiltonianMatrix:
    def test_free_oscillator_diagonal(self):
        H = hamiltonian_matrix(QuadraticHamiltonian(omega=1.0), FockCutoff(2))
        assert np.allclose(H, np.diag([0.0, 1.0, 2.0]), atol=1e-15)

    def test_drive_element(self):
        H = hamiltonian_matrix(QuadraticHamiltonian(eta=1.0), FockCutoff(3))
        assert abs(H[0, 1] - 1.0) < 1e-15
        assert abs(H[1, 0] - 1.0) < 1e-15

    def test_squeeze_element(self):
        # <2|H|0> = (xi/2) <2|adag^2|0> = (xi/2) sqrt(2)
        H = hamiltonian_matrix(QuadraticHamiltonian(xi=1.0), FockCutoff(3))
        assert abs(H[2, 0] - np.sqrt(2) / 2) < 1e-15

    def test_exactly_hermitian(self):
        H = hamiltonian_matrix(
            QuadraticHamiltonian(omega=0.7, xi=0.2 + 0.1j, eta=0.4 - 0.3j), FockCutoff(12)
        )
        assert np.array_equal(H, H.conj().T)


class TestUnitary:
    def test_zero_time_is_identity(self):
        rho = coherent_dm(0.8, FockCutoff(25))
        out = evolve_unitary(rho, QuadraticHamiltonian(omega=2.0), 0.0)
        assert np.max(np.abs(out.mat - rho.mat)) == 0

    def test_coherent_rotation(self):
        # omega t = pi/2 turns |1> into |-i| up to the cutoff tail
        cut = FockCutoff(30)
        rho = evolve_unitary(coherent_dm(1.0, cut), QuadraticHamiltonian(omega=1.0), np.pi / 2)
        assert np.max(np.abs(rho.mat - coherent_dm(-1j, cut).mat)) < 1e-8

    def test_purity_and_spectrum_conserved(self):
        rng = np.random.default_rng(5)
        dim = 21
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho0 = DensityMatrix((m @ m.conj().T) / np.trace(m @ m.conj().T).real, FockCutoff(20))
        H = QuadraticHamiltonian(omega=1.0, eta=0.3)
        rho1 = evolve_unitary(rho0, H, 2.3)
        p0 = np.trace(rho0.mat @ rho0.mat).real
        p1 = np.trace(rho1.mat @ rho1.mat).real
        assert abs(p0 - p1) < 1e-9
        s0 = np.sort(np.linalg.eigvalsh(rho0.mat))
        s1 = np.sort(np.linalg.eigvalsh(rho1.mat))
        assert np.max(np.abs(s0 - s1)) < 1e-9

    def test_reverse_evolution(self):
        cut = FockCutoff(25)
        H = QuadraticHamiltonian(omega=1.3, eta=0.2)
        rho = coherent_dm(0.5, cut)
        back = evolve_unitary(evolve_unitary(rho, H, 0.9), H, -0.9)
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-10

    @pytest.mark.filterwarnings("ignore::twotime.errors.CutoffWarning")
    def test_squeezing_leak_aborts(self):
        with pytest.raises(CutoffTooSmallError):
            evolve_unitary(coherent_dm(1.0, FockCutoff(8)), QuadraticHamiltonian(xi=1.0), 2.5)


class TestLindblad:
    def test_kappa_zero_matches_unitary(self):
        cut = FockCutoff(20)
        rho = coherent_dm(0.7, cut)
        H = QuadraticHamiltonian(omega=1.1)
        a = evolve_unitary(rho, H, 1.7)
        b = evolve_lindblad(rho, H, DampingChannel(kappa=0.0), 1.7)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-8

    def test_damped_mean_amplitude(self):
        # adjoint equation d<a>/dt = (-i omega - kappa/2) <a>
        cut = FockCutoff(25)
        H = QuadraticHamiltonian(omega=1.0)
        ch = DampingChannel(kappa=0.8)
        a, _ = ladder_matrices(cut)
        rho = evolve_lindblad(coherent_dm(1.0, cut), H, ch, 1.5)
        got = np.trace(a @ rho.mat)
        expected = 1.0 * np.exp((-1j * 1.0 - 0.4) * 1.5)
        assert abs(got - expected) < 1e-6

    def test_thermal_fixed_point(self):
        cut = FockCutoff(25)
        ch = DampingChannel(kappa=1.0, n_thermal=0.5)
        rho = evolve_lindblad(fock_dm(0, cut), QuadraticHamiltonian(omega=1.0), ch, 20.0)
        assert abs(rho.mean_photon_number() - 0.5) < 1e-4

    def test_steady_state_is_thermal(self):
        cut = FockCutoff(20)
        ch = DampingChannel(kappa=1.0, n_thermal=0.5)
        ss = steady_state(QuadraticHamiltonian(omega=1.0), ch, cut)
        assert np.max(np.abs(ss.mat - thermal_dm(0.5, cut).mat)) < 1e-6

    def test_long_time_matches_steady_state(self):
        # populations relax at rate kappa, so a diagonal start reaches the
        # thermal state to e^{-20}; coherent starts keep e^{-kappa t/2} tails
        cut = FockCutoff(18)
        H = QuadraticHamiltonian(omega=0.7)
        ch = DampingChannel(kappa=1.0, n_thermal=0.3)
        evolved = evolve_lindblad(fock_dm(1, cut), H, ch, 20.0)
        ss = steady_state(H, ch, cut)
        assert np.max(np.abs(evolved.mat - ss.mat)) < 1e-6


class TestPropagatedMap:
    def test_zero_duration_identity(self):
        P = propagated_map(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.5), 0.0,
                           FockCutoff(6))
        assert np.max(np.abs(P.map.toarray() - np.eye(49))) < 1e-12

    def test_semigroup_composition(self):
        cut = FockCutoff(10)
        H = QuadraticHamiltonian(omega=1.0, eta=0.2)
        ch = DampingChannel(kappa=0.7, n_thermal=0.2)
        m1 = propagated_map(H, ch, 0.3, cut).map
        m2 = propagated_map(H, ch, 0.7, cut).map
        m3 = propagated_map(H, ch, 1.0, cut).map
        assert np.max(np.abs((m1 @ m2 - m3).toarray())) <= 1e-8

    def test_steady_state_unchanged(self):
        cut = FockCutoff(12)
        H = QuadraticHamiltonian(omega=1.0)
        ch = DampingChannel(kappa=1.0, n_thermal=0.4)
        ss = steady_state(H, ch, cut)
        out = propagated_map(H, ch, 2.0, cut).apply(ss.mat)
        assert np.max(np.abs(out - ss.mat)) < 1e-8

    def test_trace_preserving(self):
        cut = FockCutoff(10)
        P = propagated_map(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=1.0), 1.3, cut)
        rng = np.random.default_rng(2)
        m = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
        rho = (m @ m.conj().T) / np.trace(m @ m.conj().T).real
        assert abs(np.trace(P.apply(rho)).real - 1.0) < 1e-9

    def test_completely_positive_choi(self):
        cut = FockCutoff(8)
        P = propagated_map(QuadraticHamiltonian(omega=0.9), DampingChannel(kappa=0.6, n_thermal=0.1),
                           0.8, cut)
        d = P.dim
        choi = P.map.toarray().reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
        eigs = np.linalg.eigvalsh(choi)
        assert eigs.min() >= -1e-8

    # a phase-invariant H keeps the coherence order m - n (2d - 1 blocks of at
    # most d rows), squeezing keeps the parity of m + n, a drive couples all
    @pytest.mark.parametrize("H, n_blocks", [
        (QuadraticHamiltonian(omega=1.0), 2 * FockCutoff(8).dim - 1),
        (QuadraticHamiltonian(omega=1.0, xi=0.2), 2),
        (QuadraticHamiltonian(omega=1.0, eta=0.3), 1),
    ], ids=["free", "squeezed", "driven"])
    def test_block_map_matches_dense_expm(self, H, n_blocks, monkeypatch):
        cut = FockCutoff(8)
        ch = DampingChannel(kappa=0.9, n_thermal=0.3)
        block_rows = []

        def recording_expm(m):
            block_rows.append(m.shape[0])
            return expm(m)

        monkeypatch.setattr(dynamics, "expm", recording_expm)
        propagated_map.cache_clear()
        t = 0.7
        P = propagated_map(H, ch, t, cut)
        dense = expm(lindblad_generator(H, ch, cut).toarray() * t)
        assert np.max(np.abs(P.map.toarray() - dense)) < 1e-12
        assert len(block_rows) == n_blocks
        assert sum(block_rows) == cut.dim**2
        if H.is_free:
            assert max(block_rows) <= cut.dim

    @pytest.mark.parametrize("H", [
        QuadraticHamiltonian(omega=1.0),
        QuadraticHamiltonian(omega=1.0, xi=0.2),
        QuadraticHamiltonian(omega=1.0, eta=0.3),
    ], ids=["free", "squeezed", "driven"])
    def test_adjoint_duality(self, H):
        # Tr[adjoint(O) rho] = Tr[O apply(rho)] for arbitrary complex O and rho
        cut = FockCutoff(8)
        P = propagated_map(H, DampingChannel(kappa=0.9, n_thermal=0.3), 0.7, cut)
        rng = np.random.default_rng(11)
        O, rho = (rng.standard_normal((2, 9, 9)) + 1j * rng.standard_normal((2, 9, 9))) / 9
        assert abs(np.trace(P.adjoint(O) @ rho) - np.trace(O @ P.apply(rho))) < 1e-12

    def test_apply_builds_only_touched_blocks(self, monkeypatch):
        # coherence orders 0 and +1 only: the other 2d - 3 blocks stay zero
        cut = FockCutoff(8)
        H = QuadraticHamiltonian(omega=1.0)
        ch = DampingChannel(kappa=0.9, n_thermal=0.3)
        block_rows = []

        def recording_expm(m):
            block_rows.append(m.shape[0])
            return expm(m)

        monkeypatch.setattr(dynamics, "expm", recording_expm)
        propagated_map.cache_clear()
        rho = np.diag(np.arange(1.0, 10.0)) + np.diag(np.full(8, 0.5j), 1)
        out = propagated_map(H, ch, 0.7, cut).apply(rho)
        dense = expm(lindblad_generator(H, ch, cut).toarray() * 0.7) @ rho.reshape(-1)
        assert np.max(np.abs(out.reshape(-1) - dense)) < 1e-12
        assert sorted(block_rows) == [cut.dim - 1, cut.dim]

    def test_block_exponentials_read_only(self):
        P = propagated_map(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.5), 0.4,
                           FockCutoff(6))
        P.apply(coherent_dm(0.5, FockCutoff(6)).mat)
        assert len(P._exps) == 2 * FockCutoff(6).dim - 1
        for E in P._exps.values():
            with pytest.raises(ValueError):
                E[0, 0] = 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            propagated_map(QuadraticHamiltonian(), DampingChannel(kappa=1.0), -0.1, FockCutoff(4))


def test_generator_annihilates_thermal():
    cut = FockCutoff(15)
    ch = DampingChannel(kappa=1.0, n_thermal=0.5)
    L = lindblad_generator(QuadraticHamiltonian(omega=1.0), ch, cut)
    resid = L @ thermal_dm(0.5, cut).mat.reshape(-1)
    assert np.max(np.abs(resid)) < 1e-12
