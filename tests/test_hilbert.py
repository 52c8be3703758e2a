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
    ladder_matrices,
    normal_order_coeffs,
    superposition_dm,
    thermal_dm,
)

COMPLEX_AMPS = st.builds(
    complex,
    st.floats(-1.5, 1.5, allow_nan=False),
    st.floats(-1.5, 1.5, allow_nan=False),
)


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


def roundtrip_residual(C, rho):
    # max entrywise error of the inverted table on the [0..L_max]^2 block, where
    # every term of <r|adag^l a^m|r'> (l <= r, m <= r') is in the table
    edge = len(C)
    rec = matrix_power_reference(C, rho.cutoff)
    return np.max(np.abs(rec[:edge, :edge] - rho.mat[:edge, :edge]))


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
        assert roundtrip_residual(exp, rho) <= 1e-8

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
        assert roundtrip_residual(exp, rho) <= 1e-8

    def test_superposition_roundtrip(self):
        rho = superposition_dm([(0.6, 0), (0.8, 2)], FockCutoff(30))
        exp = normal_order_coeffs(rho, L_max=8)
        assert roundtrip_residual(exp, rho) <= 1e-8

    def test_truncated_polynomial_tracks_husimi(self):
        # finite-L_max reading of the coefficient polynomial vs the exact Q
        rho = coherent_dm(0.8, FockCutoff(40))
        exp = normal_order_coeffs(rho, L_max=12)
        l = np.arange(13)
        for alpha in (0.2, 0.5 + 0.3j, -0.9j):
            mono = alpha ** l
            poly = np.conj(mono) @ exp @ mono / np.pi
            v = coherent_vector(alpha, rho.cutoff)
            assert abs(poly - np.vdot(v, rho.mat @ v) / np.pi) < 1e-9

    def test_support_above_lmax_rejected(self):
        rho = thermal_dm(1.5, FockCutoff(40))
        with pytest.raises(LMaxInsufficientError):
            normal_order_coeffs(rho, L_max=6)

    @pytest.mark.parametrize("L_max", [12, 30])
    def test_matches_loop_reference(self, L_max):
        # the per-entry sum C_lm = sum_k (-1)^k rho[l-k, m-k] / (k! sqrt((l-k)! (m-k)!)),
        # summed term by term; the shifted-diagonal slices only reorder rounding
        rho = DensityMatrix(random_density(L_max + 1, L_max), FockCutoff(L_max))
        C = normal_order_coeffs(rho, L_max)
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
        assert roundtrip_residual(exp, rho) <= 1e-8


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
