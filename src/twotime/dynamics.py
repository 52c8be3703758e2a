"""Time evolution: quadratic Hamiltonians, unitary and Markovian-damped dynamics.

The open-system channel is a single thermal damping bath (rate kappa, mean
occupation n_thermal) in Lindblad form.  Its generator L is a sparse CSR
matrix.  L often splits into independent blocks: a phase-invariant generator
(xi = eta = 0) keeps the coherence order m - n of |m><n| fixed, which gives
2d - 1 blocks of at most d rows; squeezing alone keeps the parity of m + n,
which gives two.  exp(L tau) is block diagonal with the same pattern.  A map
builds one small dense ``expm`` of a block the first time it is applied to
(or, in the Heisenberg picture, adjoint-applied to) a matrix with a nonzero
entry in that block, and keeps it.  A connected generator is a single block.
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

from .hilbert import DensityMatrix, FockCutoff, ladder_matrices


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = omega adag a + (xi adag^2 + conj(xi) a^2)/2 + (eta adag + conj(eta) a)."""

    omega: float = 0.0
    xi: complex = 0j
    eta: complex = 0j

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


class Propagated:
    """Linear map M(tau) = exp(L tau), exponentiated block by block on first use.

    ``apply(rho)`` is rho(tau) = M(rho); ``adjoint(op)`` is the Heisenberg
    picture map, with Tr[adjoint(op) rho] = Tr[op apply(rho)] for every rho.
    Both exponentiate only the blocks in which their argument has a nonzero
    entry; each block's exponential is read-only and kept for later calls.
    """

    def __init__(self, blocks, members, labels, duration: float, dim: int):
        self.blocks = blocks  # dense diagonal blocks of L
        self.members = members  # vec indices of each block
        self.labels = labels  # block of each vec index
        self.duration = duration
        self.dim = dim
        self._exps: dict[int, np.ndarray] = {}

    def _block_exp(self, b: int) -> np.ndarray:
        E = self._exps.get(b)
        if E is None:
            E = expm(self.blocks[b] * self.duration)
            E.flags.writeable = False
            self._exps[b] = E
        return E

    def _act(self, v: np.ndarray, transpose: bool) -> np.ndarray:
        out = np.zeros(v.shape, dtype=complex)
        for b in np.unique(self.labels[np.flatnonzero(v)]):
            idx = self.members[b]
            E = self._block_exp(b)
            out[idx] = (E.T if transpose else E) @ v[idx]
        return out

    def apply(self, rho_mat: np.ndarray) -> np.ndarray:
        return self._act(rho_mat.reshape(-1), False).reshape(self.dim, self.dim)

    def adjoint(self, op: np.ndarray) -> np.ndarray:
        # Tr[X Y] = vec(X.T) . vec(Y), so the adjoint acts as M.T on vec(op.T)
        return self._act(op.T.reshape(-1), True).reshape(self.dim, self.dim).T

    @property
    def map(self) -> sparse.csr_matrix:
        """The whole superoperator as sparse CSR; exponentiates every block."""
        M = sparse.block_diag([self._block_exp(b) for b in range(len(self.blocks))],
                              format="csr")
        position = np.argsort(np.concatenate(self.members))  # row of M of each vec index
        return M[position][:, position]


@lru_cache(maxsize=32)
def unitary_matrix(H: QuadraticHamiltonian, t: float, cutoff: FockCutoff) -> np.ndarray:
    """exp(-i H t) on the truncated basis, cached per (H, t, cutoff)."""
    U = expm(-1j * t * hamiltonian_matrix(H, cutoff))
    U.flags.writeable = False
    return U


@lru_cache(maxsize=8)  # a scenario uses one generator for all its durations
def _generator_blocks(
    H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray]:
    """Dense diagonal blocks of L, the vec indices of each, and each index's block.

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
    return blocks, tuple(np.split(members, starts[1:])), labels


@lru_cache(maxsize=32)
def propagated_map(
    H: QuadraticHamiltonian,
    ch: DampingChannel,
    tau: float,
    cutoff: FockCutoff,
) -> Propagated:
    """Map M(tau) = expm(L tau), cached per duration; blocks are exponentiated on first use."""
    if tau < 0:
        raise ValueError("tau must be >= 0 for the damped map")
    return Propagated(*_generator_blocks(H, ch, cutoff), float(tau), cutoff.dim)


def evolve_unitary(rho0: DensityMatrix, H: QuadraticHamiltonian, t: float) -> DensityMatrix:
    """rho(t) = U(t) rho0 U(t)^dag; negative t runs the evolution backwards."""
    U = unitary_matrix(H, t, rho0.cutoff)
    out = DensityMatrix(U @ rho0.mat @ U.conj().T, rho0.cutoff)
    return out.validate()


def evolve_lindblad(
    rho0: DensityMatrix, H: QuadraticHamiltonian, ch: DampingChannel, t: float
) -> DensityMatrix:
    """Damped evolution for t >= 0; kappa = 0 reduces to the unitary path."""
    if t < 0:
        raise ValueError("t must be >= 0 for damped evolution")
    if ch.kappa == 0:
        return evolve_unitary(rho0, H, t)
    M = propagated_map(H, ch, t, rho0.cutoff)
    out = DensityMatrix(M.apply(rho0.mat), rho0.cutoff)
    return out.validate()


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
