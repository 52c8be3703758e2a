import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twotime.errors import CutoffWarning, LMaxInsufficientError
from twotime.hilbert import (
    DensityMatrix,
    FockCutoff,
    coherent_dm,
    coherent_overlap,
    coherent_vector,
    fock_dm,
    husimi_q,
    ladder_matrices,
    normal_order_coeffs,
    reconstruct_from_normal_order,
    reconstruction_residual,
    superposition_dm,
    thermal_dm,
    two_variable_q,
)

COMPLEX_AMPS = st.builds(
    complex,
    st.floats(-1.5, 1.5, allow_nan=False),
    st.floats(-1.5, 1.5, allow_nan=False),
)


def random_density(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestLadder:
    def test_nmax1_matrix(self):
        a, adag = ladder_matrices(FockCutoff(1))
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(adag, a.conj().T)

    def test_ladder_action(self):
        a, _ = ladder_matrices(FockCutoff(3))
        e3 = np.zeros(4)
        e3[3] = 1
        out = a @ e3
        expected = np.zeros(4)
        expected[2] = np.sqrt(3)
        assert np.allclose(out, expected, atol=1e-15)

    def test_commutator_identity_except_truncation_row(self):
        cut = FockCutoff(7)
        a, adag = ladder_matrices(cut)
        comm = a @ adag - adag @ a
        eye = np.eye(cut.dim)
        assert np.allclose(comm[:-1], eye[:-1], atol=1e-14)
        # the last diagonal entry absorbs the truncation
        assert abs(comm[-1, -1] + cut.n_max) < 1e-12


class TestCoherent:
    def test_vacuum(self):
        v = coherent_vector(0.0, FockCutoff(5))
        assert v[0] == 1.0 and np.all(v[1:] == 0)

    def test_norm_deficit_small(self):
        v = coherent_vector(1.0, FockCutoff(30))
        assert abs(1 - np.vdot(v, v).real) < 1e-10

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, -1.3 + 0.9j, 2j])
    def test_normalization(self, alpha):
        v = coherent_vector(alpha, FockCutoff(40))
        assert abs(1 - np.vdot(v, v).real) < 1e-10

    @given(a=COMPLEX_AMPS, b=COMPLEX_AMPS)
    @settings(max_examples=40, deadline=None)
    def test_overlap_matches_closed_form(self, a, b):
        cut = FockCutoff(40)
        va, vb = coherent_vector(a, cut), coherent_vector(b, cut)
        assert abs(np.vdot(vb, va) - coherent_overlap(b, a)) < 1e-10

    def test_cutoff_warning(self):
        with pytest.warns(CutoffWarning):
            coherent_vector(4.0, FockCutoff(10))


class TestHusimi:
    def test_vacuum_at_origin(self):
        rho = fock_dm(0, FockCutoff(10))
        assert abs(husimi_q(rho, 0.0) - 1 / np.pi) < 1e-14

    @pytest.mark.parametrize("alpha", [0.3, 1.0 + 0.5j, -1.2j])
    def test_vacuum_general(self, alpha):
        rho = fock_dm(0, FockCutoff(30))
        assert abs(husimi_q(rho, alpha) - np.exp(-abs(alpha) ** 2) / np.pi) < 1e-12

    def test_thermal_origin(self):
        # sum_n pbar^n/(1+nbar)^{n+1} |<0|n>|^2 collapses to the n = 0 term
        rho = thermal_dm(1.0, FockCutoff(40))
        assert abs(husimi_q(rho, 0.0) - 1 / (2 * np.pi)) < 1e-10

    def test_nonnegative(self):
        rho = superposition_dm([(1, 0), (1, 3)], FockCutoff(12))
        for alpha in (0, 0.7, 1j, -0.4 + 0.2j):
            assert husimi_q(rho, alpha) >= 0


class TestTwoVariableQ:
    def test_diagonal_reduces_to_husimi(self):
        rho = DensityMatrix(random_density(9, 3), FockCutoff(8))
        for alpha in (0.4, 0.9j, -0.6 + 0.3j):
            q = two_variable_q(rho, alpha, alpha)
            assert abs(q - husimi_q(rho, alpha)) < 1e-13

    def test_vacuum_closed_form(self):
        rho = fock_dm(0, FockCutoff(25))
        a, a2 = 0.8, 0.5j
        expected = np.exp(-(abs(a) ** 2 + abs(a2) ** 2) / 2) / np.pi
        assert abs(two_variable_q(rho, a, a2) - expected) < 1e-12

    def test_coherent_state_overlap_product(self):
        # <a2|a0><a0|a>/pi against the closed-form overlaps
        cut = FockCutoff(40)
        rho = coherent_dm(1.0, cut)
        got = two_variable_q(rho, 1.0, 1j)
        expected = coherent_overlap(1j, 1.0) * coherent_overlap(1.0, 1.0).conjugate() / np.pi
        assert abs(got - expected) < 1e-12

    @pytest.mark.filterwarnings("ignore::twotime.errors.CutoffWarning")
    @given(seed=st.integers(0, 1000), a=COMPLEX_AMPS, b=COMPLEX_AMPS)
    @settings(max_examples=30, deadline=None)
    def test_conjugate_symmetry(self, seed, a, b):
        rho = DensityMatrix(random_density(8, seed), FockCutoff(7))
        assert abs(two_variable_q(rho, a, b) - np.conj(two_variable_q(rho, b, a))) < 1e-12


class TestNormalOrder:
    def test_vacuum_coefficients(self):
        rho = fock_dm(0, FockCutoff(20))
        exp = normal_order_coeffs(rho, L_max=10)
        for l in range(11):
            for m in range(11):
                expected = (-1.0) ** l / math.factorial(l) if l == m else 0.0
                assert abs(exp[l, m] - expected) < 1e-12

    def test_identity_roundtrip_small_cutoff(self):
        # at L_max = n_max the series terminates exactly on the truncated space
        cut = FockCutoff(3)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4, cut)
        exp = normal_order_coeffs(rho, L_max=3)
        assert reconstruction_residual(exp, rho) <= 1e-8

    def test_trace_identity_small_cutoff(self):
        # Tr rho = sum_l C_ll * sum_{n>=l} n!/(n-l)! on the truncated space
        cut = FockCutoff(3)
        rng = np.random.default_rng(11)
        p = rng.random(4)
        rho = DensityMatrix(np.diag(p / p.sum()).astype(complex), cut)
        exp = normal_order_coeffs(rho, L_max=3)
        total = 0.0
        for l in range(4):
            weight = sum(
                math.factorial(n) / math.factorial(n - l) for n in range(l, 4)
            )
            total += exp[l, l] * weight
        assert abs(total - 1.0) < 1e-10

    def test_coherent_roundtrip(self):
        rho = coherent_dm(1.0, FockCutoff(40))
        exp = normal_order_coeffs(rho, L_max=12)
        assert reconstruction_residual(exp, rho) <= 1e-8

    def test_superposition_roundtrip(self):
        rho = superposition_dm([(0.6, 0), (0.8, 2)], FockCutoff(30))
        exp = normal_order_coeffs(rho, L_max=8)
        assert reconstruction_residual(exp, rho) <= 1e-8

    def test_truncated_polynomial_tracks_husimi(self):
        # finite-L_max reading of the coefficient polynomial vs the exact Q
        rho = coherent_dm(0.8, FockCutoff(40))
        exp = normal_order_coeffs(rho, L_max=12)
        l = np.arange(13)
        for alpha in (0.2, 0.5 + 0.3j, -0.9j):
            mono = alpha ** l
            poly = np.conj(mono) @ exp @ mono / np.pi
            assert abs(poly - husimi_q(rho, alpha)) < 1e-9

    def test_support_above_lmax_rejected(self):
        rho = thermal_dm(1.5, FockCutoff(40))
        with pytest.raises(LMaxInsufficientError):
            normal_order_coeffs(rho, L_max=6)

    @pytest.mark.parametrize("L_max", [12, 30])
    def test_matches_loop_reference(self, L_max):
        # the per-entry sum C_lm = sum_k (-1)^k rho[l-k, m-k] / (k! sqrt((l-k)! (m-k)!)),
        # summed term by term; the shifted-diagonal slices only reorder rounding
        rho = DensityMatrix(random_density(L_max + 1, L_max), FockCutoff(L_max))
        C = normal_order_coeffs(rho, L_max, check_roundtrip=False)
        ref = np.zeros_like(C)
        scale = np.zeros(C.shape)
        for l in range(L_max + 1):
            for m in range(L_max + 1):
                for k in range(min(l, m) + 1):
                    term = ((-1) ** k * rho.mat[l - k, m - k]
                            / (math.factorial(k) * math.sqrt(math.factorial(l - k)
                                                             * math.factorial(m - k))))
                    ref[l, m] += term
                    scale[l, m] += abs(term)
        assert np.all(np.abs(C - ref) <= 1e-13 * scale)

    def test_reconstruct_restricted_block(self):
        rho = fock_dm(2, FockCutoff(12))
        exp = normal_order_coeffs(rho, L_max=6)
        rec = reconstruct_from_normal_order(exp, rho.cutoff)
        assert np.max(np.abs(rec[:7, :7] - rho.mat[:7, :7])) <= 1e-8

    @staticmethod
    def matrix_power_reference(C, cutoff):
        # sum_lm C_lm adag^l a^m from products of ladder-matrix powers
        a = ladder_matrices(cutoff)[0]
        a_pows = [np.eye(cutoff.dim, dtype=complex)]
        for _ in range(len(C) - 1):
            a_pows.append(a_pows[-1] @ a)
        out = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
        for l, row in enumerate(C):
            out += a_pows[l].conj().T @ sum(c * a_pows[m] for m, c in enumerate(row))
        return out

    @pytest.mark.parametrize("n_max, L_max", [(12, 12), (40, 12), (40, 20), (60, 30)])
    def test_closed_form_matches_matrix_powers(self, n_max, L_max):
        cut = FockCutoff(n_max)
        mat = np.zeros((cut.dim, cut.dim), dtype=complex)
        mat[:L_max + 1, :L_max + 1] = random_density(L_max + 1, n_max + L_max)
        C = normal_order_coeffs(DensityMatrix(mat, cut), L_max, check_roundtrip=False)
        ref = self.matrix_power_reference(C, cut)
        rec = reconstruct_from_normal_order(C, cut)
        assert np.max(np.abs(rec - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_closed_form_finite_at_large_cutoff(self):
        rho = fock_dm(2, FockCutoff(250))
        rec = reconstruct_from_normal_order(normal_order_coeffs(rho, L_max=6), rho.cutoff)
        assert np.all(np.isfinite(rec))


class TestDensityMatrixContracts:
    def test_validate_passes_for_states(self):
        for rho in (
            coherent_dm(1.0, FockCutoff(30)),
            thermal_dm(0.5, FockCutoff(25)),
            fock_dm(3, FockCutoff(10)),
        ):
            rho.validate()

    def test_trace_leak_detected(self):
        from twotime.errors import CutoffTooSmallError

        bad = DensityMatrix(np.eye(4, dtype=complex) * 0.2, FockCutoff(3))
        with pytest.raises(CutoffTooSmallError):
            bad.validate()

    def test_hermiticity_enforced(self):
        from twotime.errors import InvalidStateError

        m = np.eye(3, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(InvalidStateError):
            DensityMatrix(m / np.trace(m).real, FockCutoff(2)).validate()
