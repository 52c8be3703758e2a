"""Coherent-state propagator K(alpha,t|beta,0) = <alpha|U(t)|beta>.

For a quadratic Hamiltonian it is a Gaussian fixed by the exact Bogoliubov
map U^dag a U = mu a + nu adag + lam and the factorisation U = e^(i phi)
D(lam) U_q into a displacement and the undriven evolution (Perelomov,
*Generalized Coherent States*, ch. 5); a truncated-Fock numeric oracle
validates it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, InstabilityError
from .dynamics import QuadraticHamiltonian, unitary_matrix
from .hilbert import FockCutoff, coherent_vector

# 1 - 2|C| = 1/(|mu|(|mu| + |nu|)) exactly, but it is computed with an absolute
# rounding error of about eps; below this floor its relative error exceeds the
# 1e-5 cross-validation tolerance
MARGIN_FLOOR = 1e5 * np.finfo(float).eps


@dataclass(frozen=True)
class GaussianKernel:
    """K = exp(A + B conj(a) b + C conj(a)^2 + D b^2 + E conj(a) + F b
              - |a|^2/2 - |b|^2/2) with a the final and b the initial amplitude."""

    A: complex
    B: complex
    C: complex
    D: complex
    E: complex
    F: complex

    def evaluate(self, alpha, beta):
        """K(alpha, t | beta, 0); accepts scalars or broadcastable arrays."""
        alpha = np.asarray(alpha, dtype=complex)
        beta = np.asarray(beta, dtype=complex)
        ac = np.conj(alpha)
        out = np.exp(
            self.A
            + self.B * ac * beta
            + self.C * ac * ac
            + self.D * beta * beta
            + self.E * ac
            + self.F * beta
            - np.abs(alpha) ** 2 / 2
            - np.abs(beta) ** 2 / 2
        )
        return complex(out) if out.ndim == 0 else out


def kernel_harmonic(omega: float, t: float) -> GaussianKernel:
    """Free-oscillator kernel: B = exp(-i omega t), all other coefficients zero."""
    return GaussianKernel(0.0, np.exp(-1j * omega * t), 0.0, 0.0, 0.0, 0.0)


def _generator(H: QuadraticHamiltonian) -> np.ndarray:
    """N = [[M, e_3], [0, 0]] with M as in bogoliubov_map; the first row of
    expm(N t) is (mu, nu, lam, Lam) with Lam = int_0^t lam ds.  The closed
    form of ``_map_row`` is checked against it."""
    xi, eta = complex(H.xi), complex(H.eta)
    return np.array([[-1j * H.omega, -1j * xi, -1j * eta, 0.0],
                     [1j * np.conj(xi), 1j * H.omega, 1j * np.conj(eta), 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [0.0, 0.0, 0.0, 0.0]])


def _series(w2: float, t: float) -> tuple[complex, complex, complex, complex]:
    """(c0, c1, c2, c3) with c_j = t^j sum_k (-w2 t^2)^k / (2k + j)!.

    Closed forms cos(W t), sin(W t)/W, (1 - cos W t)/W^2 and
    (t - sin(W t)/W)/W^2 with W = sqrt(w2); the Taylor series below
    |w2 t^2| = 1, where those cancel (w2 = 0 included).
    """
    x = -w2 * t * t
    if abs(x) < 1:
        cs = []
        for j in range(4):
            term = t ** j / math.factorial(j)
            total = term
            for k in range(12):  # the first term left out is below x^12 / 24!
                term *= x / ((2 * k + j + 1) * (2 * k + j + 2))
                total += term
            cs.append(total)
        return tuple(cs)
    W = cmath.sqrt(w2)
    cos, sinc = cmath.cos(W * t), cmath.sin(W * t) / W
    return cos, sinc, (1 - cos) / w2, (t - sinc) / w2


def _map_row(H: QuadraticHamiltonian, t: float) -> tuple[complex, complex, complex, complex]:
    """(mu, nu, lam, Lam), the first row of expm(t _generator(H)), in closed form.

    The 2x2 block M2 = [[-i omega, -i xi], [i conj(xi), i omega]] squares to
    -w2 with w2 = omega^2 - |xi|^2, so every power series in M2 t collapses:
    exp(M2 t) = c0 + c1 M2, and with v = (-i eta, i conj(eta)) the drive
    column is lam = e1.(c1 + c2 M2) v and its time integral Lam =
    e1.(c2 + c3 M2) v (c_j from ``_series``).
    """
    omega, xi, eta = float(H.omega), complex(H.xi), complex(H.eta)
    c0, c1, c2, c3 = _series(omega * omega - abs(xi) ** 2, t)
    m2v = -omega * eta + xi * eta.conjugate()  # e1.M2 v
    return (c0 - 1j * omega * c1, -1j * xi * c1,
            -1j * eta * c1 + c2 * m2v, -1j * eta * c2 + c3 * m2v)


def bogoliubov_map(H: QuadraticHamiltonian, t: float):
    """(mu, nu, lam) with U(t)^dag a U(t) = mu a + nu adag + lam.

    (a, adag, 1) evolves under d/dt v = M v with
    M = [[-i omega, -i xi, -i eta], [i conj(xi), i omega, i conj(eta)], [0, 0, 0]],
    so (mu, nu, lam) is the first row of expm(M t) (see ``_map_row``).  At
    t = 0 it is the identity (1, 0, 0) for any H; at t > 0 a map that
    overflows double precision raises InstabilityError.
    """
    t = float(t)
    if t == 0:
        return 1 + 0j, 0j, 0j
    try:
        row = _map_row(H, t)[:3]
        finite = all(cmath.isfinite(c) for c in row)
    except OverflowError:
        finite = False
    if not finite:
        raise InstabilityError(
            f"Bogoliubov map not finite at t = {t} for omega = {H.omega}, xi = {H.xi}, "
            f"eta = {H.eta}; the map overflows double precision")
    return row


def _coefficients(mu, nu, lam):
    """Kernel coefficients (B, C, D, E, F) of the map (mu, nu, lam)."""
    B = 1.0 / np.conj(mu)
    C = nu * B / 2
    E = lam - 2 * C * np.conj(lam)
    return B, C, -np.conj(nu) * B / 2, E, -mu * np.conj(lam) - np.conj(nu) * (E - lam)


def kernel_quadratic(H: QuadraticHamiltonian, t: float) -> GaussianKernel:
    """Kernel for a general quadratic Hamiltonian, from its Bogoliubov map.

    <beta|a U|alpha> = (B alpha + 2C conj(beta) + E) K and U^dag a U =
    mu a + nu adag + lam give B = 1/conj(mu), C = nu B/2, D = -conj(nu) B/2,
    E = lam - 2C conj(lam) and F = -mu conj(lam) - conj(nu)(E - lam);
    inversely mu = 1/conj(B), nu = 2C/B and lam = (E + 2C conj(E)) / |B|^2,
    since |B|^2 = 1 - 4|C|^2.  U = e^(i phi) D(lam) U_q with phi' =
    -Re(conj(eta) lam) gives A = log<0|U|0> = i omega t/2 - log(conj(mu))/2
    - conj(lam) E/2 - i Re(conj(eta) Lam), the log continued along [0, t] and
    (mu, nu, lam, Lam) from ``_map_row``.  Raises
    InstabilityError when 1 - 2|C| falls below MARGIN_FLOOR (extreme
    squeezing) or a coefficient overflows.
    """
    if H.is_free:
        return kernel_harmonic(H.omega, t)
    t = float(t)
    mu, nu, lam, Lam = _map_row(H, t)
    # arg conj(mu) continued along [0, t]: Re mu > 0 throughout if omega^2 <=
    # |xi|^2, else it stays within pi/2 of sign(omega) sqrt(omega^2 - |xi|^2) t
    theta = np.angle(np.conj(mu))
    gap = H.omega ** 2 - abs(H.xi) ** 2
    if gap > 0:
        theta += 2 * np.pi * np.round((np.sign(H.omega) * np.sqrt(gap) * t - theta) / (2 * np.pi))
    with np.errstate(all="ignore"):  # an overflow is reported below, as InstabilityError
        B, C, D, E, F = _coefficients(mu, nu, lam)
        A = (0.5j * H.omega * t - 0.5 * (np.log(abs(mu)) + 1j * theta)
             - np.conj(lam) * E / 2 - 1j * (np.conj(H.eta) * Lam).real)
    bad = [name for name, c in zip("ABCDEF", (A, B, C, D, E, F)) if not np.isfinite(c)]
    if bad:
        raise InstabilityError(f"kernel coefficient(s) {', '.join(bad)} not finite at "
                               f"t = {t}; the kernel overflows double precision")
    margin = 1 - 2 * abs(C)
    if not margin >= MARGIN_FLOOR:
        raise InstabilityError(
            f"1 - 2|C| = {margin:.3g} < {MARGIN_FLOOR:.2g} at t = {t}; squeezing has "
            "left the normalizable-kernel regime in floating point"
        )
    return GaussianKernel(A, B, C, D, E, F)


def kernel_numeric(
    H: QuadraticHamiltonian,
    t: float,
    alpha: complex,
    beta: complex,
    cutoff: FockCutoff,
) -> complex:
    """Truncated-Fock oracle <alpha|exp(-iHt)|beta>."""
    va = coherent_vector(alpha, cutoff)
    vb = coherent_vector(beta, cutoff)
    for amp, v in ((alpha, va), (beta, vb)):
        deficit = abs(1.0 - float(np.vdot(v, v).real))
        if deficit > 1e-6:
            raise CutoffTooSmallError(
                f"|amp|={abs(amp):.3g} loses norm {deficit:.2e} at n_max={cutoff.n_max}"
            )
    U = unitary_matrix(H, t, cutoff)
    return complex(np.vdot(va, U @ vb))
