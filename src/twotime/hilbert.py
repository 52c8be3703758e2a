"""Truncated Fock-space representation of a single bosonic mode.

Provides ladder operators, common states (coherent, Fock, thermal,
superpositions), the Husimi Q-function and its two-variable relative, and
the normal-order coefficient expansion of a density operator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CutoffTooSmallError,
    CutoffWarning,
    InvalidStateError,
    LMaxInsufficientError,
    ReconstructionError,
)

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
DEFAULT_TRACE_BUDGET = 1e-8
DEFAULT_N_MAX = 40
DEFAULT_L_MAX = 12  # normal-order expansion order of ``normal_order_coeffs``


@dataclass(frozen=True)
class FockCutoff:
    """Truncation of the mode at photon number ``n_max`` (dimension n_max+1)."""

    n_max: int

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be a positive integer, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass
class DensityMatrix:
    """State of the mode as a complex matrix over the truncated Fock basis.

    ``validate`` enforces finite entries, hermiticity, positivity up to
    numerical noise and a trace within ``DEFAULT_TRACE_BUDGET`` of one;
    evolution code calls it after every step so that truncation leakage is an
    audited, not silent, failure.
    """

    mat: np.ndarray
    cutoff: FockCutoff
    trace_defect: float = 0.0  # |1 - tr| recorded by whoever produced the state

    def validate(self) -> "DensityMatrix":
        m = self.mat
        if m.shape != (self.cutoff.dim, self.cutoff.dim):
            raise InvalidStateError(
                f"matrix shape {m.shape} does not match cutoff dim {self.cutoff.dim}"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidStateError("density matrix has non-finite entries")
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise InvalidStateError(f"hermiticity defect {herm:.3e} > {HERMITICITY_TOL}")
        defect = abs(1.0 - float(np.real(np.trace(m))))
        if defect > DEFAULT_TRACE_BUDGET:
            raise CutoffTooSmallError(
                f"trace leakage {defect:.3e} exceeds budget {DEFAULT_TRACE_BUDGET:.3e}; "
                "raise n_max"
            )
        lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
        if lo < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"eigenvalue {lo:.3e} below floor {EIGENVALUE_FLOOR}")
        self.trace_defect = defect
        return self

    def mean_photon_number(self) -> float:
        n = np.arange(self.cutoff.dim)
        return float(np.real(np.sum(n * np.diag(self.mat))))


def ladder_matrices(cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices on the truncated basis.

    a[n-1, n] = sqrt(n); creation is the conjugate transpose.  The commutator
    [a, a^dag] equals the identity except on the last row, which is the
    truncation artifact callers must keep their states away from.
    """
    d = cutoff.dim
    a = np.zeros((d, d), dtype=complex)
    ns = np.arange(1, d)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def _log_factorial(n: np.ndarray | int) -> np.ndarray:
    """log(n!) elementwise, from ``math.lgamma``."""
    n = np.asarray(n, dtype=float)
    return np.array([math.lgamma(k + 1.0) for k in n.flat]).reshape(n.shape)


def coherent_vector(alpha: complex, cutoff: FockCutoff) -> np.ndarray:
    """Truncated expansion of |alpha> with c_n = exp(-|a|^2/2) a^n / sqrt(n!).

    Warns when the norm deficit exceeds 1e-6, i.e. when the cutoff is too
    small to hold the state; coefficients are kept raw (no renormalization)
    so that cutoff errors stay visible downstream.
    """
    alpha = complex(alpha)
    if not (np.isfinite(alpha.real) and np.isfinite(alpha.imag)):
        raise ValueError("coherent amplitude must be finite")
    n = np.arange(cutoff.dim)
    if alpha == 0:
        v = np.zeros(cutoff.dim, dtype=complex)
        v[0] = 1.0
        return v
    # log-domain magnitudes avoid overflow of alpha**n / sqrt(n!)
    log_mag = n * np.log(abs(alpha)) - 0.5 * _log_factorial(n) - abs(alpha) ** 2 / 2.0
    phase = np.exp(1j * n * np.angle(alpha))
    v = np.exp(log_mag) * phase
    deficit = abs(1.0 - float(np.vdot(v, v).real))
    if deficit > 1e-6:
        warnings.warn(
            f"coherent state |alpha|={abs(alpha):.3g} has norm deficit "
            f"{deficit:.2e} at n_max={cutoff.n_max}",
            CutoffWarning,
            stacklevel=2,
        )
    return v


def coherent_overlap(beta: complex, alpha: complex) -> complex:
    """Closed form <beta|alpha> = exp(-|a|^2/2 - |b|^2/2 + conj(b) a)."""
    beta, alpha = complex(beta), complex(alpha)
    return np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(beta) * alpha)


def fock_vector(n: int, cutoff: FockCutoff) -> np.ndarray:
    if not 0 <= n <= cutoff.n_max:
        raise CutoffTooSmallError(f"Fock level {n} outside cutoff n_max={cutoff.n_max}")
    v = np.zeros(cutoff.dim, dtype=complex)
    v[n] = 1.0
    return v


def density_from_vector(psi: np.ndarray, cutoff: FockCutoff) -> DensityMatrix:
    rho = np.outer(psi, psi.conj())
    return DensityMatrix(rho, cutoff)


def coherent_dm(alpha: complex, cutoff: FockCutoff) -> DensityMatrix:
    return density_from_vector(coherent_vector(alpha, cutoff), cutoff)


def fock_dm(n: int, cutoff: FockCutoff) -> DensityMatrix:
    return density_from_vector(fock_vector(n, cutoff), cutoff)


def thermal_dm(n_thermal: float, cutoff: FockCutoff) -> DensityMatrix:
    """Thermal state with mean occupation n_thermal, renormalized on the cutoff."""
    if n_thermal < 0:
        raise ValueError("n_thermal must be >= 0")
    if n_thermal == 0:
        return fock_dm(0, cutoff)
    n = np.arange(cutoff.dim)
    p = np.exp(n * np.log(n_thermal / (1.0 + n_thermal))) / (1.0 + n_thermal)
    tail = 1.0 - p.sum()
    if tail > 1e-6:
        raise CutoffTooSmallError(
            f"thermal tail {tail:.2e} beyond n_max={cutoff.n_max}; raise the cutoff"
        )
    return DensityMatrix(np.diag(p / p.sum()).astype(complex), cutoff)


def superposition_dm(terms, cutoff: FockCutoff) -> DensityMatrix:
    """Pure superposition sum_k w_k |n_k> from (weight, fock level) pairs."""
    psi = np.zeros(cutoff.dim, dtype=complex)
    for weight, level in terms:
        psi += complex(weight) * fock_vector(int(level), cutoff)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("superposition has zero norm")
    return density_from_vector(psi / norm, cutoff)


def husimi_q(rho: DensityMatrix, alpha: complex) -> float:
    """Husimi function Q(alpha) = <alpha|rho|alpha> / pi, real and >= 0."""
    v = coherent_vector(alpha, rho.cutoff)
    q = complex(np.vdot(v, rho.mat @ v)) / np.pi
    if abs(q.imag) > 1e-12:
        raise InvalidStateError(f"Q imaginary residue {q.imag:.2e} exceeds 1e-12")
    return q.real


def two_variable_q(rho: DensityMatrix, alpha: complex, alpha2: complex) -> complex:
    """Off-diagonal Q-like kernel <alpha2|rho|alpha> / pi.

    Reduces to ``husimi_q`` at alpha2 == alpha and is conjugate-symmetric for
    hermitian rho: Q(a, a2) == conj(Q(a2, a)).
    """
    v = coherent_vector(alpha, rho.cutoff)
    w = coherent_vector(alpha2, rho.cutoff)
    return complex(np.vdot(w, rho.mat @ v)) / np.pi


def _shifted_diagonal_sum(T: np.ndarray, weights, rows: int | None = None) -> np.ndarray:
    """sum_k weights[k] T shifted k places down the diagonal, on T's block.

    Slice k adds weights[k] T[:n-k, :n-k] to out[k:n, k:] (n = len(T)); rows
    below n, up to ``rows``, stay zero.
    """
    n = len(T)
    out = np.zeros((n if rows is None else rows, n), dtype=complex)
    for k, w in enumerate(weights):
        out[k:n, k:] += w * T[:n - k, :n - k]
    return out


def normal_order_coeffs(
    rho: DensityMatrix, L_max: int = DEFAULT_L_MAX, check_roundtrip: bool = True
) -> np.ndarray:
    """Coefficients C_lm of rho = sum_lm C_lm adag^l a^m, an (L_max+1)^2 array.

    Aggregates |n><m| = sum_k (-1)^k / k! adag^(n+k) a^(m+k) / sqrt(n! m!)
    into C_lm = sum_k (-1)^k rho[l-k, m-k] / (k! sqrt((l-k)! (m-k)!)), one
    shifted diagonal slice of X[l, m] = rho[l, m] / sqrt(l! m!) per k
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)).  Factorials enter
    through floating logs so the table stays finite well past l ~ 20.
    """
    if L_max < 1:
        raise ValueError("L_max must be >= 1")
    if L_max > rho.cutoff.n_max:
        raise ValueError("L_max must not exceed the Fock cutoff")
    pops = np.real(np.diag(rho.mat))
    tail = float(np.sum(pops[L_max + 1 :]))
    if tail > 1e-10:
        raise LMaxInsufficientError(
            f"state has population {tail:.2e} above Fock level {L_max}; "
            "raise L_max or shrink the state"
        )
    size = L_max + 1
    log_fact = _log_factorial(np.arange(size))
    inv_sqrt = np.exp(-0.5 * log_fact)
    X = rho.mat[:size, :size] * np.outer(inv_sqrt, inv_sqrt)
    C = _shifted_diagonal_sum(X, (-1.0) ** np.arange(size) * np.exp(-log_fact))
    if check_roundtrip:
        err = reconstruction_residual(C, rho)
        if err > 1e-8:
            raise ReconstructionError(
                f"normal-order roundtrip residual {err:.2e} > 1e-8 "
                f"(L_max={L_max}, n_max={rho.cutoff.n_max})"
            )
    return C


def reconstruct_from_normal_order(C: np.ndarray, cutoff: FockCutoff) -> np.ndarray:
    """Evaluate sum_lm C_lm adag^l a^m on the truncated space, in closed form.

    <r|adag^l a^m|r'> = sqrt(r! r'!) / j! when r - l = r' - m = j >= 0, so
    shift j adds C times that weight to the window r, r' in [j, j + L_max].
    The weights come from log-factorials and stay finite at any cutoff.
    """
    d = cutoff.dim
    log_fact = _log_factorial(np.arange(d))
    out = np.zeros((d, d), dtype=complex)
    for j in range(d):
        n = min(len(C), d - j)
        half = np.exp(0.5 * (log_fact[j:j + n] - log_fact[j]))
        out[j:j + n, j:j + n] += C[:n, :n] * np.outer(half, half)
    return out


def reconstruction_residual(C: np.ndarray, rho: DensityMatrix) -> float:
    """Max entrywise roundtrip error on the [0..L_max]^2 block, L_max = len(C) - 1.

    Matrix elements <r|adag^l a^m|r'> vanish unless l <= r and m <= r', so on
    that block the truncated table contains every contributing term and the
    roundtrip is exact up to floating point.  Rows above L_max are dominated
    by the missing cancellations of the (infinite) tail and carry no
    information about the state, which must live at or below L_max anyway.
    """
    rec = reconstruct_from_normal_order(C, rho.cutoff)
    edge = min(len(C), rho.cutoff.dim)
    block = np.s_[:edge, :edge]
    return float(np.max(np.abs(rec[block] - rho.mat[block])))
