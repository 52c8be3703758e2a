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
    occupied_rows,
    propagated_map,
    unitary_matrix,
)
from twotime.errors import CutoffTooSmallError, SelfCheckError
from twotime.hilbert import (
    DensityMatrix,
    FockCutoff,
    coherent_dm,
    fock_dm,
    ladder_matrices,
    thermal_dm,
)

FREE = QuadraticHamiltonian(omega=1.0)
SQUEEZED = QuadraticHamiltonian(omega=1.0, xi=0.2)
DRIVEN = QuadraticHamiltonian(omega=1.0, eta=0.3)
DRIVEN_SQUEEZED = QuadraticHamiltonian(omega=0.7, xi=0.2 + 0.1j, eta=0.4 - 0.3j)
HAMILTONIANS = [FREE, SQUEEZED, DRIVEN, DRIVEN_SQUEEZED]
H_IDS = ["free", "squeezed", "driven", "driven_squeezed"]


def thermal_matrix(n_thermal, cut):
    """The thermal state on the cutoff: diagonal, geometric with ratio n / (n + 1)."""
    p = (n_thermal / (1.0 + n_thermal)) ** np.arange(cut.dim)
    return np.diag(p / p.sum()).astype(complex)


def dense_generator(H, ch, cut):
    """L = kron(K, I) + kron(I, conj K) + sum_c rate_c kron(c, conj c), dense."""
    a, adag = ladder_matrices(cut)
    eye = np.eye(cut.dim)
    jumps = [(ch.kappa * (ch.n_thermal + 1.0), a), (ch.kappa * ch.n_thermal, adag)]
    K = -1j * hamiltonian_matrix(H, cut)
    for rate, c in jumps:
        K = K - 0.5 * rate * (c.conj().T @ c)
    L = np.kron(K, eye) + np.kron(eye, K.conj())
    for rate, c in jumps:
        L = L + rate * np.kron(c, c.conj())
    return L


def block_generator(H, ch, cut):
    """L as a dense d^2 x d^2 array, assembled from ``lindblad_generator``'s blocks."""
    L = np.zeros((cut.dim**2, cut.dim**2), dtype=complex)
    members = dynamics._layout(cut, dynamics._grading_class(H)).members
    for block, idx in zip(lindblad_generator(H, ch, cut), members):
        L[np.ix_(idx, idx)] = block
    return L


def dense_map(P):
    """The map as a dense d^2 x d^2 array: column k is ``P.apply`` of the k-th unit matrix."""
    units = np.eye(P.dim**2, dtype=complex).reshape(-1, P.dim, P.dim)
    return np.stack([P.apply(u).reshape(-1) for u in units], axis=1)


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

    @pytest.mark.parametrize("H", [QuadraticHamiltonian(omega=1.0, eta=0.5),
                                   QuadraticHamiltonian(omega=1.0, xi=0.2),
                                   QuadraticHamiltonian(omega=0.5, xi=0.5, eta=0.3),
                                   QuadraticHamiltonian(omega=1.0, xi=0.1j, eta=0.3)])
    @pytest.mark.parametrize("t", [0.9, 4.0])
    def test_eigh_unitary_matches_expm(self, H, t):
        cut = FockCutoff(40)
        U = unitary_matrix(H, t, cut)
        assert np.max(np.abs(U - expm(-1j * t * hamiltonian_matrix(H, cut)))) < 1e-13

    @pytest.mark.parametrize("omega", [0.0, 0.8, -1.3])
    def test_free_unitary_bit_identical_to_expm(self, omega):
        cut = FockCutoff(40)
        H = QuadraticHamiltonian(omega=omega)
        assert np.array_equal(unitary_matrix(H, 1.1, cut),
                              expm(-1j * 1.1 * hamiltonian_matrix(H, cut)))


class TestLindblad:
    @pytest.mark.parametrize("kappa, n_thermal", [
        (-1.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (1.0, -0.1), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_rates_must_be_finite_and_nonnegative(self, kappa, n_thermal):
        with pytest.raises(ValueError, match="finite"):
            DampingChannel(kappa=kappa, n_thermal=n_thermal)

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

    def test_long_time_matches_steady_state(self):
        # populations relax at rate kappa, so a diagonal start reaches the
        # thermal state to e^{-20}; coherent starts keep e^{-kappa t/2} tails
        cut = FockCutoff(18)
        H = QuadraticHamiltonian(omega=0.7)
        ch = DampingChannel(kappa=1.0, n_thermal=0.3)
        evolved = evolve_lindblad(fock_dm(1, cut), H, ch, 20.0)
        assert np.max(np.abs(evolved.mat - thermal_matrix(ch.n_thermal, cut))) < 1e-6


class TestPropagatedMap:
    def test_zero_duration_identity(self):
        P = propagated_map(QuadraticHamiltonian(omega=1.0), DampingChannel(kappa=0.5), 0.0,
                           FockCutoff(6))
        assert np.max(np.abs(dense_map(P) - np.eye(49))) < 1e-12

    def test_semigroup_composition(self):
        cut = FockCutoff(10)
        H = QuadraticHamiltonian(omega=1.0, eta=0.2)
        ch = DampingChannel(kappa=0.7, n_thermal=0.2)
        m1, m2, m3 = (dense_map(propagated_map(H, ch, t, cut)) for t in (0.3, 0.7, 1.0))
        assert np.max(np.abs(m1 @ m2 - m3)) <= 1e-8

    def test_steady_state_unchanged(self):
        cut = FockCutoff(12)
        H = QuadraticHamiltonian(omega=1.0)
        ch = DampingChannel(kappa=1.0, n_thermal=0.4)
        ss = thermal_matrix(ch.n_thermal, cut)
        out = propagated_map(H, ch, 2.0, cut).apply(ss)
        assert np.max(np.abs(out - ss)) < 1e-8

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
        choi = dense_map(P).reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
        eigs = np.linalg.eigvalsh(choi)
        assert eigs.min() >= -1e-8

    # a phase-invariant H keeps the coherence order m - n (2d - 1 blocks of at
    # most d rows, one exponential per order |m - n| since orders +k and -k are
    # conjugate), squeezing keeps the parity of m + n, a drive couples all
    @pytest.mark.parametrize("H, exp_rows", [
        (QuadraticHamiltonian(omega=1.0), list(range(1, FockCutoff(8).dim + 1))),
        (QuadraticHamiltonian(omega=1.0, xi=0.2), [40, 41]),
        (QuadraticHamiltonian(omega=1.0, eta=0.3), [81]),
    ], ids=["free", "squeezed", "driven"])
    def test_block_map_matches_dense_expm(self, H, exp_rows, monkeypatch):
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
        dense = expm(dense_generator(H, ch, cut) * t)
        assert np.max(np.abs(dense_map(P) - dense)) < 1e-12
        assert sorted(block_rows) == exp_rows

    @pytest.mark.parametrize("H", [
        QuadraticHamiltonian(omega=1.0),
        QuadraticHamiltonian(omega=1.0, xi=0.2),
        QuadraticHamiltonian(omega=1.0, eta=0.3),
    ], ids=["free", "squeezed", "driven"])
    def test_adjoint_duality(self, H):
        # the compact Heisenberg step on vec(O.T), traced against vec(rho) on the
        # occupied rows, is Tr[O apply(rho)] for an arbitrary complex O and for
        # the regression observables, which occupy only some blocks
        cut = FockCutoff(8)
        ch = DampingChannel(kappa=0.9, n_thermal=0.3)
        P = propagated_map(H, ch, 0.7, cut)
        rng = np.random.default_rng(11)
        O, rho = (rng.standard_normal((2, 9, 9)) + 1j * rng.standard_normal((2, 9, 9))) / 9
        a, adag = ladder_matrices(cut)
        for ops in ([O], [adag, a, adag @ a]):
            columns = np.stack([op.T.reshape(-1) for op in ops], axis=1)
            rows, spans = occupied_rows(H, ch, cut, columns)
            C = columns[rows]
            P.heisenberg(C, spans)
            expected = [np.trace(op @ P.apply(rho)) for op in ops]
            assert np.max(np.abs(C.T @ rho.reshape(-1)[rows] - expected)) < 1e-12

    @pytest.mark.parametrize("H, rows", [
        (QuadraticHamiltonian(omega=1.0), 3 * 9 - 2),
        (QuadraticHamiltonian(omega=1.0, xi=0.2), 81),
        (QuadraticHamiltonian(omega=1.0, eta=0.3), 81),
    ], ids=["free", "squeezed", "driven"])
    def test_occupied_rows_cover_the_observables(self, H, rows):
        # coherence orders -1, +1 and 0 (d - 1, d - 1 and d rows) for a free
        # mode; both parity blocks when squeezed; the one block when driven
        cut = FockCutoff(8)
        a, adag = ladder_matrices(cut)
        columns = np.stack([op.T.reshape(-1) for op in (adag, a, adag @ a)], axis=1)
        got, spans = occupied_rows(H, DampingChannel(kappa=0.9, n_thermal=0.3), cut, columns)
        assert len(got) == rows and len(set(got)) == rows
        assert not np.any(np.delete(columns, got, axis=0))
        assert spans[-1][1].stop == rows

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
        dense = expm(dense_generator(H, ch, cut) * 0.7) @ rho.reshape(-1)
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
    L = block_generator(QuadraticHamiltonian(omega=1.0), ch, cut)
    resid = L @ thermal_dm(0.5, cut).mat.reshape(-1)
    assert np.max(np.abs(resid)) < 1e-12


class TestGenerator:
    @pytest.mark.parametrize("H", HAMILTONIANS + [
        QuadraticHamiltonian(), QuadraticHamiltonian(xi=0.3), QuadraticHamiltonian(eta=0.2 - 0.1j),
    ], ids=H_IDS + ["free_omega_0", "squeezed_omega_0", "driven_omega_0"])
    @pytest.mark.parametrize("n_thermal", [0.0, 0.3])
    @pytest.mark.parametrize("kappa", [0.0, 0.9])
    @pytest.mark.parametrize("n_max", [1, 2, 8])
    def test_matches_dense_kron_reference(self, H, n_thermal, kappa, n_max):
        # the blocks, placed on their members, are the dense generator exactly
        cut = FockCutoff(n_max)
        ch = DampingChannel(kappa=kappa, n_thermal=n_thermal)
        assert np.array_equal(block_generator(H, ch, cut), dense_generator(H, ch, cut))
        parts = np.concatenate([b.ravel() for b in lindblad_generator(H, ch, cut)]).view(float)
        assert not np.any(np.signbit(parts[parts == 0]))  # every zero part is +0.0

    @pytest.mark.parametrize("H", HAMILTONIANS, ids=H_IDS)
    @pytest.mark.parametrize("n_thermal", [0.0, 0.3])
    @pytest.mark.parametrize("n_max", range(3, 11))
    def test_grading_labels_are_the_connected_components(self, H, n_thermal, n_max):
        from scipy.sparse.csgraph import connected_components

        cut = FockCutoff(n_max)
        ch = DampingChannel(kappa=0.9, n_thermal=n_thermal)
        _, labels = connected_components(abs(dense_generator(H, ch, cut)), directed=False)
        assert np.array_equal(dynamics._generator_blocks(H, ch, cut)[1].labels, labels)

    @pytest.mark.parametrize("H, kappa, n_max", [
        (SQUEEZED, 0.9, 1), (FREE, 0.0, 4), (SQUEEZED, 0.0, 4), (DRIVEN, 0.0, 4),
        (DRIVEN_SQUEEZED, 0.0, 4),
    ], ids=["squeezed_cutoff_1", "free_closed", "squeezed_closed", "driven_closed",
            "driven_squeezed_closed"])
    def test_grading_blocks_join_whole_components(self, H, kappa, n_max):
        # adag^2 vanishes at cutoff 1, and without damping nothing links |m><n| to
        # |m-1><n-1|: a grading block may then hold several components, never part of one
        from scipy.sparse.csgraph import connected_components

        cut = FockCutoff(n_max)
        ch = DampingChannel(kappa=kappa, n_thermal=0.3)
        labels = dynamics._generator_blocks(H, ch, cut)[1].labels
        n_parts, parts = connected_components(abs(dense_generator(H, ch, cut)), directed=False)
        assert all(len(set(labels[parts == p])) == 1 for p in range(n_parts))
        M = dense_map(propagated_map(H, ch, 0.7, cut))
        assert np.max(np.abs(M - expm(dense_generator(H, ch, cut) * 0.7))) < 1e-12

    def test_coupling_between_blocks_raises(self, monkeypatch):
        # a layout that places K's first superdiagonal would join |0><0|
        # (coherence order 0) and |1><0| (order +1), which lie in different blocks
        monkeypatch.setitem(dynamics._GRADINGS, "free", ((0, 1), 0))
        dynamics._layout.cache_clear()
        dynamics._generator_blocks.cache_clear()
        with pytest.raises(SelfCheckError, match="couples two"):
            dynamics._generator_blocks(FREE, DampingChannel(kappa=0.9), FockCutoff(4))

    def test_entry_off_the_class_diagonals_raises(self, monkeypatch):
        # a drive read as the free class would drop K's first off-diagonals
        monkeypatch.setattr(dynamics, "_grading_class", lambda H: "free")
        with pytest.raises(SelfCheckError, match="off the diagonals"):
            lindblad_generator(DRIVEN, DampingChannel(kappa=0.9), FockCutoff(4))

    @pytest.mark.parametrize("n_thermal", [0.0, 0.3])
    @pytest.mark.parametrize("n_max", [1, 8, 22])
    def test_mirrored_exponentials_are_conjugates(self, n_thermal, n_max):
        # L keeps hermiticity: the block of order +k is the conjugate of order -k's,
        # and so is its exponential, bit for bit once every zero part is +0.0
        # (at n_thermal = 0 the blocks are triangular, and conj gives their
        # zeros a -0.0 imaginary part), so a map conjugates the one it has
        cut = FockCutoff(n_max)
        H, ch = QuadraticHamiltonian(omega=0.8), DampingChannel(kappa=0.9, n_thermal=n_thermal)
        blocks, layout = dynamics._generator_blocks(H, ch, cut)
        mirrored = [b for b, pair in enumerate(layout.pairs) if pair < b]
        assert len(mirrored) == cut.dim - 1
        for t in (0.05, 0.7, 4.0):
            P = propagated_map(H, ch, t, cut)
            for b in mirrored:
                E, E_pair = expm(blocks[b] * t) + 0.0, np.conj(expm(blocks[layout.pairs[b]] * t))
                assert np.array_equal(E.view(np.uint64), (E_pair + 0.0).view(np.uint64))
                assert np.array_equal(E.view(np.uint64), P._block_exp(b).view(np.uint64))
        for H in (SQUEEZED, DRIVEN):  # each block is its own pair
            pairs = dynamics._generator_blocks(H, ch, cut)[1].pairs
            assert np.array_equal(pairs, np.arange(len(pairs)))

    def test_modes_at_one_cutoff_share_only_the_layout(self):
        dynamics._layout.cache_clear()
        cut = FockCutoff(12)
        one = lindblad_generator(FREE, DampingChannel(kappa=0.9, n_thermal=0.3), cut)
        two = lindblad_generator(QuadraticHamiltonian(omega=0.6), DampingChannel(kappa=0.4), cut)
        info = dynamics._layout.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert not any(np.shares_memory(x, y) for x in one for y in two)
        assert not any(np.array_equal(x, y) for x, y in zip(one, two))

    @pytest.mark.parametrize("H", HAMILTONIANS, ids=H_IDS)
    def test_steady_state_matches_full_null_space(self, H):
        # L has a one-dimensional null space, and a long damped evolution
        # reaches it: coherences decay as e^{-kappa t/2}, e^{-18} here
        from scipy.linalg import null_space

        cut = FockCutoff(8)
        ch = DampingChannel(kappa=0.9, n_thermal=0.3)
        ns = null_space(dense_generator(H, ch, cut), rcond=1e-10)
        assert ns.shape[1] == 1
        rho = ns[:, 0].reshape(cut.dim, cut.dim)
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / np.trace(rho).real
        evolved = evolve_lindblad(fock_dm(0, cut), H, ch, 40.0)
        assert np.max(np.abs(evolved.mat - rho)) < 1e-6
