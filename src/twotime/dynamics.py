"""Time evolution: quadratic Hamiltonians, unitary and Markovian-damped dynamics.

The open-system channel is a single thermal damping bath (rate kappa, mean
occupation n_thermal) in Lindblad form.  Its generator L is a sparse CSR
matrix.  L often splits into independent blocks: a phase-invariant generator
(xi = eta = 0) keeps the coherence order m - n of |m><n| fixed, which gives
2d - 1 blocks of at most d rows; squeezing alone keeps the parity of m + n,
which gives two.  exp(L tau) is block diagonal with the same pattern, so it
is built with one small dense ``expm`` per connected block of L's sparsity
graph and stored as a sparse map.  A connected generator is a single block.
Maps are cached per distinct duration, since correlators reuse the same map
across a whole tau grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg import expm, null_space
from scipy.sparse.csgraph import connected_components

from .hilbert import DEFAULT_TRACE_BUDGET, DensityMatrix, FockCutoff, ladder_matrices


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = omega adag a + (xi adag^2 + conj(xi) a^2)/2 + (eta adag + conj(eta) a)."""

    omega: float = 0.0
    xi: complex = 0.0
    eta: complex = 0.0

    def key(self) -> tuple:
        return (float(self.omega), complex(self.xi), complex(self.eta))

    @property
    def is_free(self) -> bool:
        return self.xi == 0 and self.eta == 0


@dataclass(frozen=True)
class DampingChannel:
    """Thermal damping at rate kappa into a bath with mean occupation n_thermal."""

    kappa: float = 0.0
    n_thermal: float = 0.0

    def __post_init__(self):
        if self.kappa < 0 or self.n_thermal < 0:
            raise ValueError("kappa and n_thermal must be >= 0")


def hamiltonian_matrix(H: QuadraticHamiltonian, cutoff: FockCutoff) -> np.ndarray:
    """Fock matrix of the Hamiltonian; exactly hermitian by symmetrization."""
    a, adag = ladder_matrices(cutoff)
    m = H.omega * (adag @ a)
    if H.xi != 0:
        m = m + (H.xi * (adag @ adag) + np.conj(H.xi) * (a @ a)) / 2.0
    if H.eta != 0:
        m = m + H.eta * adag + np.conj(H.eta) * a
    return (m + m.conj().T) / 2.0


def lindblad_generator(
    H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff
) -> sparse.csr_matrix:
    """Sparse generator L with d rho/dt = L vec(rho).

    L = -i[H, .] + kappa (n+1) D[a] + kappa n D[adag],
    D[c] rho = c rho cdag - (cdag c rho + rho cdag c)/2,
    assembled as K rho + rho Kdag + sum_c rate_c c rho cdag with the
    effective K = -i H - sum_c rate_c cdag c / 2.  The vec convention is
    row-major (C order): vec(A rho B) = kron(A, B.T) vec(rho).
    """
    a, adag = ladder_matrices(cutoff)
    jumps = []
    if ch.kappa > 0:
        jumps = [(ch.kappa * (ch.n_thermal + 1.0), a)]
        if ch.n_thermal > 0:
            jumps.append((ch.kappa * ch.n_thermal, adag))
    K = -1j * hamiltonian_matrix(H, cutoff)
    for rate, c in jumps:
        K = K - 0.5 * rate * (c.conj().T @ c)
    eye = sparse.identity(cutoff.dim, dtype=complex, format="csr")
    L = sparse.kron(K, eye, format="csr") + sparse.kron(eye, K.conj(), format="csr")
    for rate, c in jumps:
        L = L + rate * sparse.kron(c, c.conj(), format="csr")
    L.eliminate_zeros()
    return L


@dataclass
class Propagated:
    """Reusable linear map rho(tau) = unvec(map @ vec(rho)); ``map`` is sparse CSR."""

    map: sparse.csr_matrix
    duration: float
    dim: int

    def apply(self, rho_mat: np.ndarray) -> np.ndarray:
        return (self.map @ rho_mat.reshape(-1)).reshape(self.dim, self.dim)


@lru_cache(maxsize=32)
def unitary_matrix(H: QuadraticHamiltonian, t: float, cutoff: FockCutoff) -> np.ndarray:
    """exp(-i H t) on the truncated basis, cached per (H, t, cutoff)."""
    U = expm(-1j * t * hamiltonian_matrix(H, cutoff))
    U.flags.writeable = False
    return U


@lru_cache(maxsize=8)  # a scenario uses one generator for all its durations
def _generator_blocks(
    H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Dense diagonal blocks of L, and the (row, col) in L of their raveled entries.

    A connected block of L's sparsity graph couples to no index outside it,
    so exp(L tau) has the same blocks, each the exponential of its block of L.
    """
    L = lindblad_generator(H, ch, cutoff).tocoo()
    n_blocks, labels = connected_components(abs(L), directed=False)
    sizes = np.bincount(labels, minlength=n_blocks)
    starts = np.cumsum(sizes) - sizes
    members = np.argsort(labels, kind="stable")  # indices of L, block by block
    local = np.empty_like(members)  # position of each index within its block
    local[members] = np.arange(len(members)) - np.repeat(starts, sizes)
    offsets = np.cumsum(sizes**2) - sizes**2  # where each raveled block starts
    flat = np.zeros(np.sum(sizes**2), dtype=complex)
    k = labels[L.row]
    flat[offsets[k] + local[L.row] * sizes[k] + local[L.col]] = L.data
    blocks = tuple(flat[o:o + n * n].reshape(n, n) for o, n in zip(offsets, sizes))
    groups = np.split(members, starts[1:])
    rows = np.concatenate([np.repeat(g, len(g)) for g in groups])
    cols = np.concatenate([np.tile(g, len(g)) for g in groups])
    return blocks, rows, cols


@lru_cache(maxsize=32)
def propagated_map(
    H: QuadraticHamiltonian,
    ch: DampingChannel,
    tau: float,
    cutoff: FockCutoff,
) -> Propagated:
    """Superoperator M(tau) = expm(L tau), one dense expm per block of L, cached per duration."""
    if tau < 0:
        raise ValueError("tau must be >= 0 for the damped map")
    blocks, rows, cols = _generator_blocks(H, ch, cutoff)
    data = np.concatenate([expm(Lb * tau).ravel() for Lb in blocks])
    size = cutoff.dim**2
    return Propagated(sparse.csr_matrix((data, (rows, cols)), shape=(size, size)),
                      float(tau), cutoff.dim)


def evolve_unitary(
    rho0: DensityMatrix,
    H: QuadraticHamiltonian,
    t: float,
    trace_budget: float = DEFAULT_TRACE_BUDGET,
) -> DensityMatrix:
    """rho(t) = U(t) rho0 U(t)^dag; negative t runs the evolution backwards."""
    U = unitary_matrix(H, t, rho0.cutoff)
    out = DensityMatrix(U @ rho0.mat @ U.conj().T, rho0.cutoff)
    return out.validate(trace_budget)


def evolve_lindblad(
    rho0: DensityMatrix,
    H: QuadraticHamiltonian,
    ch: DampingChannel,
    t: float,
    trace_budget: float = DEFAULT_TRACE_BUDGET,
) -> DensityMatrix:
    """Damped evolution for t >= 0; kappa = 0 reduces to the unitary path."""
    if t < 0:
        raise ValueError("t must be >= 0 for damped evolution")
    if ch.kappa == 0:
        return evolve_unitary(rho0, H, t, trace_budget)
    M = propagated_map(H, ch, t, rho0.cutoff)
    out = DensityMatrix(M.apply(rho0.mat), rho0.cutoff)
    return out.validate(trace_budget)


def steady_state(
    H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff
) -> DensityMatrix:
    """Null-space state of the generator (kappa > 0 required for uniqueness)."""
    if ch.kappa <= 0:
        raise ValueError("steady state requires kappa > 0")
    L = lindblad_generator(H, ch, cutoff)
    ns = null_space(L.toarray(), rcond=1e-10)
    if ns.shape[1] == 0:
        raise RuntimeError("generator null space is empty at this tolerance")
    rho = ns[:, 0].reshape(cutoff.dim, cutoff.dim)
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho, cutoff).validate()
