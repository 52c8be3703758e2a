"""Time evolution: quadratic Hamiltonians, unitary and Markovian-damped dynamics.

The open-system channel is a single thermal damping bath (rate kappa, mean
occupation n_thermal) in Lindblad form.  Its generator L is CSR, built from
index arithmetic on d x d operators, and block diagonal by its phase grading:
a phase-invariant H (xi = eta = 0) keeps the coherence order m - n of |m><n|
(2d - 1 blocks of at most d rows), squeezing alone its parity (two), and a
drive couples all.  exp(L tau) has the same blocks.  A map builds a block's
dense ``expm`` the first time it acts on a vector nonzero there, and keeps it;
``occupied_rows`` gathers the blocks a set of Heisenberg observables occupies.
``propagated_map`` caches the last 32 maps on (H, channel, duration, cutoff):
a uniform tau grid steps with one duration, and a preparation reuses its own.

Closed evolution needs no SciPy: ``unitary_matrix`` exponentiates the
Hamiltonian through ``numpy.linalg.eigh``.  Only the damped path (the
generator, the block ``expm`` and ``steady_state``) imports SciPy, on first
use, so ``import twotime`` and every closed run load none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import InstabilityError, SelfCheckError
from .hilbert import DensityMatrix, FockCutoff, ladder_matrices

if TYPE_CHECKING:
    from scipy import sparse


def expm(m: np.ndarray) -> np.ndarray:
    """Dense matrix exponential, ``scipy.linalg.expm`` imported on first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(m)


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
        if not (0 <= self.kappa < np.inf and 0 <= self.n_thermal < np.inf):
            raise ValueError("kappa and n_thermal must be finite and >= 0")


def hamiltonian_matrix(H: QuadraticHamiltonian, cutoff: FockCutoff) -> np.ndarray:
    """Fock matrix of the Hamiltonian; exactly hermitian by symmetrization."""
    a, adag = ladder_matrices(cutoff)
    with np.errstate(all="ignore"):  # an overflow is reported below, as InstabilityError
        m = H.omega * (adag @ a)
        if H.xi != 0:
            m = m + (H.xi * (adag @ adag) + np.conj(H.xi) * (a @ a)) / 2.0
        if H.eta != 0:
            m = m + H.eta * adag + np.conj(H.eta) * a
        m = (m + m.conj().T) / 2.0
    if not np.isfinite(m).all():
        row, col = np.argwhere(~np.isfinite(m))[0]
        raise InstabilityError(f"double-precision overflow: Hamiltonian matrix entry "
                               f"H[{row}, {col}] is not finite at cutoff {cutoff.n_max}")
    return m


def lindblad_generator(
    H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff
) -> sparse.csr_matrix:
    """Sparse generator L with d rho/dt = L vec(rho), as canonical CSR.

    L = -i[H, .] + kappa (n+1) D[a] + kappa n D[adag],
    D[c] rho = c rho cdag - (cdag c rho + rho cdag c)/2,
    is K rho + rho Kdag + sum_c rate_c c rho cdag with the effective
    K = -i H - sum_c rate_c cdag c / 2.  In row-major (C order) vec,
    vec(A rho B) = kron(A, B.T) vec(rho); the entries of each Kronecker term
    come from the nonzeros of its two d x d factors.  They are sorted into CSR
    directly, the two on each diagonal entry summed and exact zeros dropped.
    """
    from scipy import sparse

    a, adag = ladder_matrices(cutoff)
    jumps = [(ch.kappa * (ch.n_thermal + 1.0), a), (ch.kappa * ch.n_thermal, adag)]
    jumps = [(rate, c) for rate, c in jumps if rate > 0]
    K = -1j * hamiltonian_matrix(H, cutoff)
    for rate, c in jumps:
        K = K - 0.5 * rate * (c.conj().T @ c)
    d, eye = cutoff.dim, np.eye(cutoff.dim)
    terms = []
    for rate, A, B in [(1, K, eye), (1, eye, K.conj())] + [(r, c, c.conj()) for r, c in jumps]:
        (i, j), (k, m) = np.nonzero(A), np.nonzero(B)  # rate kron(A, B) from the nonzeros
        terms.append((rate * (A[i, j][:, None] * B[k, m]),  # entry (i d + k, j d + m)
                      (i[:, None] * d + k) * d * d + j[:, None] * d + m))
    vals, keys = (np.concatenate([t[x].ravel() for t in terms]) for x in range(2))
    order = np.argsort(keys, kind="stable")  # row-major; the terms come in sorted runs
    keys, vals = keys[order], vals[order]  # only a diagonal key comes twice
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    data = np.add.reduceat(vals, starts)
    data += 0.0  # +0.0 for every zero real or imaginary part, whatever the term order
    keep = data != 0
    rows, cols = np.divmod(keys[starts[keep]], d * d)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=d * d))))
    return sparse.csr_matrix((data[keep], cols, indptr), shape=(d * d, d * d))


class Propagated:
    """Linear map M(tau) = exp(L tau), exponentiated block by block on first use.

    ``apply(rho)`` is rho(tau) = M(rho).  ``heisenberg(C, spans)`` steps compact
    columns C = vec(O.T)[rows], laid out by ``occupied_rows``, in place to
    vec(O(tau).T) = M.T vec(O.T), since Tr[O M(Y)] = vec(O.T) . M vec(Y).  Both
    exponentiate only the blocks their argument occupies; each block's
    exponential is read-only and kept for later calls.
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

    def apply(self, rho_mat: np.ndarray) -> np.ndarray:
        v = rho_mat.reshape(-1)
        out = np.zeros(v.shape, dtype=complex)
        for b in np.unique(self.labels[np.flatnonzero(v)]):
            idx = self.members[b]
            out[idx] = self._block_exp(b) @ v[idx]
        return out.reshape(self.dim, self.dim)

    def heisenberg(self, C: np.ndarray, spans) -> None:
        """M.T on compact columns C in place, one E_b.T @ C[span] per occupied block b."""
        for b, span in spans:
            C[span] = self._block_exp(b).T @ C[span]


@lru_cache(maxsize=32)
def unitary_matrix(H: QuadraticHamiltonian, t: float, cutoff: FockCutoff) -> np.ndarray:
    """exp(-i H t) on the truncated basis, cached per (H, t, cutoff).

    A free H is diagonal, so U is the exponential of its diagonal (what
    ``expm`` itself does with a diagonal matrix); any other H is hermitian,
    H = V diag(E) V^dag, and U = V diag(exp(-i E t)) V^dag.
    """
    Hm = hamiltonian_matrix(H, cutoff)
    if H.is_free:
        U = np.diag(np.exp(np.diag(-1j * t * Hm)))
    else:
        E, V = np.linalg.eigh(Hm)
        U = (V * np.exp(-1j * t * E)) @ V.conj().T
    U.flags.writeable = False
    return U


@lru_cache(maxsize=8)  # a scenario uses one generator for all its durations
def _generator_blocks(
    H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray]:
    """Dense diagonal blocks of L, the vec indices of each, and each index's block.

    The blocks are L's phase grading (the coherence order m - n of |m><n| for a
    free H, its parity under squeezing alone, one block under a drive), numbered by
    lowest vec index.  No entry of L couples two (checked), so exp(L tau) has them too.
    """
    L = lindblad_generator(H, ch, cutoff)
    m, n = np.divmod(np.arange(L.shape[0]), cutoff.dim)
    grade = m - n if H.is_free else (m - n) % 2 if H.eta == 0 else 0 * m
    _, first, labels = np.unique(grade, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[labels]
    r = np.repeat(np.arange(len(labels)), np.diff(L.indptr))  # row of each entry
    k = labels[r]
    if np.any(k != labels[L.indices]):
        raise SelfCheckError("the Lindblad generator couples two of its phase-grading blocks")
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    members = np.argsort(labels, kind="stable")  # indices of L, block by block
    local = np.empty_like(members)  # position of each index within its block
    local[members] = np.arange(len(members)) - np.repeat(starts, sizes)
    offsets = np.cumsum(sizes**2) - sizes**2  # where each raveled block starts
    flat = np.zeros(np.sum(sizes**2), dtype=complex)
    flat[offsets[k] + local[r] * sizes[k] + local[L.indices]] = L.data
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


def occupied_rows(H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff,
                  columns: np.ndarray) -> tuple[np.ndarray, list[tuple[int, slice]]]:
    """Vec indices of the blocks of L in which any column (d^2, k) is nonzero, block by
    block, and each block's label and slice of them: the rows ``heisenberg`` steps."""
    _, members, labels = _generator_blocks(H, ch, cutoff)
    occupied = np.unique(labels[np.any(columns != 0, axis=1)])
    ends = np.cumsum([len(members[b]) for b in occupied])
    spans = [(b, slice(end - len(members[b]), end)) for b, end in zip(occupied, ends)]
    return np.concatenate([members[b] for b in occupied]), spans


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
    """Null space of L's block holding the diagonal (kappa > 0 makes it unique)."""
    if ch.kappa <= 0:
        raise ValueError("steady state requires kappa > 0")
    from scipy.linalg import null_space

    blocks, members, labels = _generator_blocks(H, ch, cutoff)
    ns = null_space(blocks[labels[0]], rcond=1e-10)
    if ns.shape[1] == 0:
        raise RuntimeError("generator null space is empty at this tolerance")
    rho = np.zeros((cutoff.dim, cutoff.dim), dtype=complex)
    rho.flat[members[labels[0]]] = ns[:, 0]
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho, cutoff).validate()
