"""Truncated Fock-space representation of a single bosonic mode.

Provides ladder operators, common states (coherent, Fock, thermal,
superpositions) and the normal-order coefficient expansion of a density
operator.
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


def normal_order_coeffs(rho: DensityMatrix, L_max: int = DEFAULT_L_MAX) -> np.ndarray:
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
    return _shifted_diagonal_sum(X, (-1.0) ** np.arange(size) * np.exp(-log_fact))
