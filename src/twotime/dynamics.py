"""Time evolution: quadratic Hamiltonians, unitary and Markovian-damped dynamics.

The open-system channel is a single thermal damping bath (rate kappa, mean
occupation n_thermal) in Lindblad form.  Its generator L is block diagonal by
its phase grading: a phase-invariant H (xi = eta = 0) keeps the coherence
order m - n of |m><n| (2d - 1 blocks of at most d rows), squeezing alone its
parity (two), and a drive couples all.  Where each entry of L lands in which
dense block depends only on the cutoff and that grading class, so a
``GeneratorLayout`` of positions is built once per (cutoff, class) and
cached, and each mode's ``lindblad_generator`` writes its values straight
into its blocks.  exp(L tau) has the same blocks.  A map builds a block's
dense ``expm`` the first time it acts on a vector nonzero there, and keeps
it.  L keeps hermiticity, so the block of order +k is the conjugate of the
block of order -k, and a map conjugates the exponential of the one it has.
``occupied_rows`` gathers the blocks a set of Heisenberg observables occupies.
``propagated_map`` caches the last 32 maps on (H, channel, duration, cutoff):
a uniform tau grid steps with one duration, and a preparation reuses its own.

Closed evolution needs no SciPy: ``unitary_matrix`` exponentiates the
Hamiltonian through ``numpy.linalg.eigh``.  Only the block ``expm`` of the
damped path imports SciPy (``scipy.linalg``), on first use, so
``import twotime`` and every closed run load none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InstabilityError, SelfCheckError
from .hilbert import DensityMatrix, FockCutoff, ladder_matrices

# (|omega| + |xi|) t bounds the phase a quadratic H accumulates in time t, and
# the phase carries a rounding error of about eps times itself; above this
# limit (about 4.5e10) that error exceeds the 1e-5 cross-validation tolerance
PHASE_LIMIT = 1e-5 / np.finfo(float).eps


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


def _require_resolved_phase(H: QuadraticHamiltonian, t: float, what: str):
    """Raise InstabilityError if the phase (|omega| + |xi|) |t| of ``what`` exceeds PHASE_LIMIT."""
    phase = (abs(H.omega) + abs(H.xi)) * abs(t)
    if phase > PHASE_LIMIT:
        raise InstabilityError(
            f"{what} at t = {t}: the phase (|omega| + |xi|) t = {phase:.3g} exceeds "
            f"{PHASE_LIMIT:.3g}, so its rounding error exceeds the 1e-5 "
            "cross-validation tolerance")


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


# each grading class of L: the diagonals (offsets j - i) on which K can be nonzero, and
# the modulus of the coherence order m - n of |m><n| that every term keeps (0: the order)
_GRADINGS = {"free": ((0,), 0), "parity": ((-2, 0, 2), 2), "single": ((-2, -1, 0, 1, 2), 1)}


def _grading_class(H: QuadraticHamiltonian) -> str:
    """A phase-invariant H keeps the coherence order, squeezing alone its parity, a drive none."""
    return "free" if H.is_free else "parity" if H.eta == 0 else "single"


@dataclass(frozen=True, eq=False)
class GeneratorLayout:
    """Where each entry of L lands in its dense blocks, for one cutoff and grading class.

    Block b holds the vec indices ``members[b]`` of one grade in ascending
    order, blocks are numbered by lowest vec index, and ``labels`` is the
    block of each index.  ``pairs[b]`` is the block of the transposes |n><m|
    of b's |m><n|, in the same order: L keeps hermiticity, so its entries are
    the conjugates of b's.  ``k_pos`` and ``kc_pos`` are the positions, in
    the raveled blocks, of kron(K, 1) and kron(1, conj K) over K's diagonals
    ``band``; ``jumps`` holds, for c = a and adag, the rate-free values
    c[i, j] conj(c)[k, m] of kron(c, conj c) and their positions.  Block b is
    raveled at ``spans[b]`` = (start, stop, rows).
    """

    dim: int
    labels: np.ndarray
    members: tuple[np.ndarray, ...]
    pairs: np.ndarray
    spans: tuple[tuple[int, int, int], ...]
    band: tuple[np.ndarray, np.ndarray]
    k_pos: np.ndarray
    kc_pos: np.ndarray
    jumps: tuple[tuple[np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=32)  # one per cutoff and class, shared by every damped mode with them
def _layout(cutoff: FockCutoff, kind: str) -> GeneratorLayout:
    """The ``GeneratorLayout`` of a cutoff and grading class.

    Raises SelfCheckError if a term of L would couple two of its blocks.
    """
    diagonals, modulus = _GRADINGS[kind]
    d = cutoff.dim
    r = np.arange(d)
    m, n = np.divmod(np.arange(d * d), d)
    grade = m - n if modulus == 0 else (m - n) % modulus
    _, first, labels = np.unique(grade, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[labels]
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    members = np.argsort(labels, kind="stable")  # vec indices, block by block
    local = np.empty_like(members)  # position of each index within its block
    local[members] = np.arange(len(members)) - np.repeat(starts, sizes)
    offsets = np.cumsum(sizes**2) - sizes**2  # where each raveled block starts

    def positions(rows, cols):  # of the entries (rows, cols) of L in the raveled blocks
        k = labels[rows]
        if np.any(k != labels[cols]):
            raise SelfCheckError("the Lindblad generator couples two of its phase-grading blocks")
        return offsets[k] + local[rows] * sizes[k] + local[cols]

    i, j = np.nonzero(np.isin(r - r[:, None], diagonals))
    jumps = []
    for c in ladder_matrices(cutoff):
        (ci, cj), (ck, cm) = np.nonzero(c), np.nonzero(c.conj())
        jumps.append((c[ci, cj][:, None] * c.conj()[ck, cm],  # entry (i d + k, j d + m)
                      positions(ci[:, None] * d + ck, cj[:, None] * d + cm)))
    heads = members[starts]
    return GeneratorLayout(
        d, labels, tuple(np.split(members, starts[1:])), labels[heads % d * d + heads // d],
        tuple((int(o), int(o + n * n), int(n)) for o, n in zip(offsets, sizes)), (i, j),
        positions(i[:, None] * d + r, j[:, None] * d + r),
        positions(r[:, None] * d + i, r[:, None] * d + j), tuple(jumps))


def lindblad_generator(
    H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff
) -> tuple[np.ndarray, ...]:
    """The dense diagonal blocks of the generator L with d rho/dt = L vec(rho).

    L = -i[H, .] + kappa (n+1) D[a] + kappa n D[adag],
    D[c] rho = c rho cdag - (cdag c rho + rho cdag c)/2,
    is K rho + rho Kdag + sum_c rate_c c rho cdag with the effective
    K = -i H - sum_c rate_c cdag c / 2.  In row-major (C order) vec,
    vec(A rho B) = kron(A, B.T) vec(rho).  L is block diagonal by its phase
    grading: the coherence order m - n of |m><n| for a free H, its parity
    under squeezing alone, one block under a drive.  Block b holds the vec
    indices of one grade in ascending order, and blocks are numbered by
    lowest vec index.  K, conj K and each rate times its jump's products are
    written at the positions of the ``GeneratorLayout`` of the cutoff and
    grading class, the two on each diagonal entry summed.  Raises
    SelfCheckError if K has an entry off the diagonals of its class.
    """
    layout = _layout(cutoff, _grading_class(H))
    a, adag = ladder_matrices(cutoff)
    rates = (ch.kappa * (ch.n_thermal + 1.0), ch.kappa * ch.n_thermal)
    K = -1j * hamiltonian_matrix(H, cutoff)
    for rate, c in zip(rates, (a, adag)):
        if rate > 0:
            K = K - 0.5 * rate * (c.conj().T @ c)
    band = K[layout.band]
    if np.count_nonzero(band) != np.count_nonzero(K):
        raise SelfCheckError("K has an entry off the diagonals of its grading class")
    flat = np.zeros(layout.spans[-1][1], dtype=complex)
    flat[layout.k_pos] = band[:, None]
    flat[layout.kc_pos] += np.conj(band)
    for rate, (products, pos) in zip(rates, layout.jumps):
        if rate > 0:
            flat[pos] += rate * products
    flat += 0.0  # +0.0 for every zero real or imaginary part, whatever the term order
    return tuple(flat[start:stop].reshape(n, n) for start, stop, n in layout.spans)


class Propagated:
    """Linear map M(tau) = exp(L tau), exponentiated block by block on first use.

    ``apply(rho)`` is rho(tau) = M(rho).  ``heisenberg(C, spans)`` steps compact
    columns C = vec(O.T)[rows], laid out by ``occupied_rows``, in place to
    vec(O(tau).T) = M.T vec(O.T), since Tr[O M(Y)] = vec(O.T) . M vec(Y).  Both
    exponentiate only the blocks their argument occupies; each block's
    exponential is read-only and kept for later calls.  Of a conjugate pair of
    blocks only the lower-numbered one is exponentiated, and the other's
    exponential is its conjugate; every zero part of either is +0.0, so both
    equal ``expm`` of their own block with its zero parts made +0.0.
    """

    def __init__(self, blocks, layout: GeneratorLayout, duration: float):
        self.blocks = blocks  # dense diagonal blocks of L
        self.layout = layout
        self.duration = duration
        self.dim = layout.dim
        self._exps: dict[int, np.ndarray] = {}

    def _block_exp(self, b: int) -> np.ndarray:
        E = self._exps.get(b)
        if E is None:
            pair = self.layout.pairs[b]
            E = np.conj(self._block_exp(pair)) if pair < b else expm(self.blocks[b] * self.duration)
            E += 0.0  # +0.0 for every zero part; conj makes the imaginary ones -0.0
            E.flags.writeable = False
            self._exps[b] = E
        return E

    def apply(self, rho_mat: np.ndarray) -> np.ndarray:
        v = rho_mat.reshape(-1)
        out = np.zeros(v.shape, dtype=complex)
        for b in np.unique(self.layout.labels[np.flatnonzero(v)]):
            idx = self.layout.members[b]
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
    H = V diag(E) V^dag, and U = V diag(exp(-i E t)) V^dag.  A phase above
    PHASE_LIMIT raises InstabilityError.
    """
    Hm = hamiltonian_matrix(H, cutoff)
    _require_resolved_phase(H, t, "unitary exp(-iHt)")
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
) -> tuple[tuple[np.ndarray, ...], GeneratorLayout]:
    """The dense diagonal blocks of L (``lindblad_generator``) and their layout."""
    return lindblad_generator(H, ch, cutoff), _layout(cutoff, _grading_class(H))


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
    return Propagated(*_generator_blocks(H, ch, cutoff), float(tau))


def occupied_rows(H: QuadraticHamiltonian, ch: DampingChannel, cutoff: FockCutoff,
                  columns: np.ndarray) -> tuple[np.ndarray, list[tuple[int, slice]]]:
    """Vec indices of the blocks of L in which any column (d^2, k) is nonzero, block by
    block, and each block's label and slice of them: the rows ``heisenberg`` steps."""
    layout = _generator_blocks(H, ch, cutoff)[1]
    members = layout.members
    occupied = np.unique(layout.labels[np.any(columns != 0, axis=1)])
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
