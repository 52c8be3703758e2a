"""Reference one- and two-time correlators via the quantum regression theorem.

A two-time average Tr[O M(tau)(Y)] pairs an observable O with a deformed
state Y (a rho, rho adag or a rho adag) evolved by the map M that evolves
single-time averages.  The regression route reads it in the Heisenberg
picture, Tr[M^dag(tau)(O) Y]: the three observables adag, a and adag a are
evolved together and traced against the fixed deformed states.  A damped mode
holds them as one compact array over the generator blocks they occupy (for a
phase-invariant mode the coherence orders -1, +1 and 0), so only those blocks
are exponentiated.  The evolved array depends only on H, the bath, the cutoff
and the tau grid, not on the initial state or t_prepare, so it is cached on
those four (``_evolved_observables``, read-only, within EVOLVED_BYTES).  Only
a request whose dynamics and grid were seen before gains: a sweep of starts
steps once and then only traces (every perfbench open_sweep request after
the first), fresh dynamics gain nothing (open_regression).  Closed modes
step U^dag O U per series, uncached, since an entry would hold 3 d^2 numbers
per tau (closed_triangle gains nothing).  Both operator orderings are
computed and checked for conjugacy; series store the <adag(t+tau) a(t)>
ordering, whose free-oscillator phase is exp(+i omega tau).

``normalized_series`` turns the numerators of every route, this one and the
phase-space routes alike, into normalized g1 and g2 with their errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidStateError, SelfCheckError, ZeroDenominatorError
from .dynamics import (
    DampingChannel,
    QuadraticHamiltonian,
    evolve_lindblad,
    occupied_rows,
    propagated_map,
    unitary_matrix,
)
from .hilbert import (
    DensityMatrix,
    FockCutoff,
    coherent_dm,
    fock_dm,
    ladder_matrices,
    superposition_dm,
    thermal_dm,
)

MEAN_N_FLOOR = 1e-12
CONJUGACY_TOL = 1e-9

# A damped mode's evolved observables are kept for the last four dynamics and
# grids, each stack only if it fits EVOLVED_BYTES (1 MiB); a larger grid's
# entry keeps its occupied rows alone, and the grid is stepped anew on every
# call, that many bytes at a time.
EVOLVED_BYTES = 1 << 20

METHOD_TAGS = ("regression", "propagator", "qfunction_two_variable", "qfunction_derivative")


@dataclass(frozen=True)
class InitialState:
    """One of coherent(alpha0), fock(n), thermal(nbar), superposition of Fock levels."""

    kind: str
    amplitude: complex = 0.0
    n: int = 0
    n_thermal: float = 0.0
    terms: tuple = ()

    def __post_init__(self):
        if not np.isfinite(self.amplitude):
            raise InvalidStateError(f"coherent amplitude must be finite, got {self.amplitude}")
        if not 0 <= self.n_thermal < np.inf:
            raise InvalidStateError(
                f"thermal occupation must be finite and >= 0, got {self.n_thermal}")
        levels = [level for _, level in self.terms] if self.kind == "superposition" else [self.n]
        if min(levels, default=0) < 0:
            raise InvalidStateError(f"Fock level must be >= 0, got {min(levels)}")
        if self.kind == "superposition":
            psi: dict = {}
            for weight, level in self.terms:
                psi[level] = psi.get(level, 0) + weight
            if not (np.all(np.isfinite(list(psi.values()))) and any(psi.values())):
                raise InvalidStateError("superposition weights must be finite with nonzero norm")

    @classmethod
    def coherent(cls, alpha0: complex) -> "InitialState":
        return cls(kind="coherent", amplitude=complex(alpha0))

    @classmethod
    def vacuum(cls) -> "InitialState":
        return cls(kind="coherent", amplitude=0.0)

    @classmethod
    def fock(cls, n: int) -> "InitialState":
        return cls(kind="fock", n=int(n))

    @classmethod
    def thermal(cls, n_thermal: float) -> "InitialState":
        return cls(kind="thermal", n_thermal=float(n_thermal))

    @classmethod
    def superposition(cls, terms) -> "InitialState":
        return cls(kind="superposition", terms=tuple((complex(w), int(n)) for w, n in terms))

    def build(self, cutoff: FockCutoff) -> DensityMatrix:
        if self.kind == "coherent":
            return coherent_dm(self.amplitude, cutoff)
        if self.kind == "fock":
            return fock_dm(self.n, cutoff)
        if self.kind == "thermal":
            return thermal_dm(self.n_thermal, cutoff)
        if self.kind == "superposition":
            return superposition_dm(self.terms, cutoff)
        raise ValueError(f"unknown initial state kind {self.kind!r}")


@dataclass(frozen=True)
class SystemSpec:
    """Everything that fixes a correlation scenario before the tau grid."""

    hamiltonian: QuadraticHamiltonian
    channel: DampingChannel
    initial_state: InitialState
    cutoff: FockCutoff
    t_prepare: float = 0.0

    def prepared_state(self) -> DensityMatrix:
        """rho(t_prepare), built and validated once per spec; its matrix is read-only."""
        return self._prepared

    @cached_property
    def _prepared(self) -> DensityMatrix:
        rho = self.initial_state.build(self.cutoff).validate()
        if self.t_prepare != 0:
            rho = evolve_lindblad(rho, self.hamiltonian, self.channel, self.t_prepare)
        rho.mat.flags.writeable = False
        return rho

    @property
    def closed(self) -> bool:
        return self.channel.kappa == 0


@dataclass
class CorrelationSeries:
    """g1/g2 on a tau grid, tagged with the method that produced it."""

    tau_grid: np.ndarray
    g1: np.ndarray  # complex, normalized; <adag(t+tau) a(t)> / <adag a>
    g2: np.ndarray  # real, normalized
    mean_n: float
    method_tag: str
    error_estimate: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.error_estimate is None:
            self.error_estimate = np.zeros_like(self.tau_grid, dtype=float)
        if self.method_tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method_tag!r}")


def _check_tau_grid(taus: np.ndarray) -> np.ndarray:
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or len(taus) == 0 or not np.all(np.isfinite(taus)):
        raise ValueError("tau grid must be a nonempty 1-d array of finite values")
    if taus[0] < 0:
        raise ValueError("negative tau is not supported; correlators use tau >= 0")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau grid must be strictly ascending")
    return taus


def _grid_steps(taus: np.ndarray) -> tuple:
    """The durations that step an ascending grid: tau_0, then each increment.

    Uses the semigroup property: one map per distinct increment, applied
    sequentially, instead of one map per tau.  A grid whose increments agree
    to 1e-12 relative (np.linspace rounding) steps with its single mean
    increment, so it needs one map besides the step from 0 to its first tau.
    A tuple, so that it can key a cache.
    """
    increments = np.diff(taus)
    if len(increments):
        mean = (taus[-1] - taus[0]) / len(increments)
        if np.all(np.abs(increments - mean) <= 1e-12 * mean):
            increments = np.full_like(increments, mean)
    return tuple(np.concatenate(([taus[0]], increments)))


def _closed_traces(sys: SystemSpec, steps: tuple, ops, states) -> np.ndarray:
    """(n_tau, k) array of Tr[O(tau) Y] for each pair of ops and states, O(tau) = U^dag O U."""
    states_T = [y.T for y in states]  # Tr[O Y] = sum(O * Y.T)
    out = []
    for dt in steps:
        if dt > 0:
            U = unitary_matrix(sys.hamiltonian, dt, sys.cutoff)
            ops = [U.conj().T @ op @ U for op in ops]
        out.append([np.sum(op * y) for op, y in zip(ops, states_T)])
    return np.array(out)


def _stepped_observables(H: QuadraticHamiltonian, channel: DampingChannel, cutoff: FockCutoff,
                         steps: tuple):
    """(rows, stacks): M^dag(tau_k) of adag, a and adag a on the rows they occupy.

    The columns vec(O.T) are gathered once on the rows ``occupied_rows`` lays
    out and stepped by ``heisenberg`` of each map from ``propagated_map``.
    ``stacks`` yields them in grid order, as many taus at a time as fit
    EVOLVED_BYTES (at least one): stack[k] is the (len(rows), 3) array at the
    k-th tau of its chunk.  It steps only as it is read.
    """
    a, adag = ladder_matrices(cutoff)
    C = np.stack([op.T.reshape(-1) for op in (adag, a, adag @ a)], axis=1)
    rows, spans = occupied_rows(H, cutoff, C)
    C = C[rows]
    chunk = max(1, EVOLVED_BYTES // C.nbytes)

    def stacks():
        for lo in range(0, len(steps), chunk):
            part = steps[lo:lo + chunk]
            stack = np.empty((len(part),) + C.shape, dtype=complex)
            for k, dt in enumerate(part):
                if dt > 0:
                    propagated_map(H, channel, dt, cutoff).heisenberg(C, spans)
                stack[k] = C
            yield stack

    return rows, stacks()


@lru_cache(maxsize=4)
def _evolved_observables(H: QuadraticHamiltonian, channel: DampingChannel,
                         cutoff: FockCutoff, steps: tuple) -> tuple[np.ndarray, np.ndarray | None]:
    """Read-only (rows, stack) of ``_stepped_observables``, or (rows, None) over EVOLVED_BYTES.

    A stack holds three complex numbers per tau and occupied row; one that
    does not fit is never stepped here, so the entry keeps only the rows.
    Neither depends on the initial state or t_prepare, so they are cached on
    the dynamics and the grid steps alone.
    """
    rows, stacks = _stepped_observables(H, channel, cutoff, steps)
    rows.flags.writeable = False
    if len(steps) * len(rows) * 3 * 16 > EVOLVED_BYTES:
        return rows, None
    stack = next(stacks)
    stack.flags.writeable = False
    return rows, stack


def _evolved(sys: SystemSpec, steps: tuple):
    """(rows, stacks) of the evolved observables: the cached stack, else chunks stepped anew."""
    args = (sys.hamiltonian, sys.channel, sys.cutoff, steps)
    rows, stack = _evolved_observables(*args)
    if stack is None:
        return _stepped_observables(*args)
    return rows, [stack]


def regression_raw(sys: SystemSpec, taus):
    """Unnormalized numerators for both g1 orderings and for g2 on the whole grid.

    Returns (mean_n, G_late, G_early, G2) with
    G_late[k]  = <adag(t+tau_k) a(t)>   = Tr[adag M(tau)(a rho)] = Tr[M^dag(tau)(adag) a rho]
    G_early[k] = <adag(t) a(t+tau_k)>   = Tr[a M(tau)(rho adag)] = Tr[M^dag(tau)(a) rho adag]
    G2[k]      = <adag(t) adag(t+tau) a(t+tau) a(t)> = Tr[M^dag(tau)(adag a) a rho adag]

    G_late is exactly the object the phase-space routes compute, so
    cross-method comparisons can avoid any normalization ambiguity.
    """
    taus = _check_tau_grid(taus)
    rho_t = sys.prepared_state()
    a, adag = ladder_matrices(sys.cutoff)
    number = adag @ a
    mean_n = float(np.real(np.trace(number @ rho_t.mat)))

    rho = rho_t.mat
    deformed = [a @ rho, rho @ adag, a @ rho @ adag]
    steps = _grid_steps(taus)
    if sys.closed:
        G = _closed_traces(sys, steps, [adag, a, number], deformed).T
    else:
        rows, stacks = _evolved(sys, steps)
        Y = np.stack([y.reshape(-1) for y in deformed], axis=1)[rows]
        G = np.concatenate([(stack * Y).sum(axis=1) for stack in stacks]).T
    if not np.all(np.isfinite(G)):
        raise SelfCheckError(
            "regression numerators are not finite; the evolution overflowed "
            "(rates or durations too large for double precision)"
        )
    G_late, G_early, G2 = G

    conj_gap = np.max(np.abs(G_late - np.conj(G_early)))
    if conj_gap > CONJUGACY_TOL * max(1.0, mean_n):
        raise SelfCheckError(
            f"ordering conjugacy violated by {conj_gap:.2e}; regression wiring is broken"
        )
    return mean_n, G_late, G_early, G2


def normalized_series(taus, method_tag: str, mean_n: float, G1, G2,
                      e_n=0.0, e1=0.0, e2=0.0) -> CorrelationSeries:
    """The one rule that turns any route's numerators into a normalized series.

    g1 = G1 / n and g2 = Re G2 / n^2 with n = mean_n, which must reach
    MEAN_N_FLOOR.  error_estimate holds the larger of the two normalized
    standard errors, each propagating the error e_n of n as well as that of
    its numerator (e1 for G1, e2 for G2; zero for exact routes).  Im G2 / n^2
    must stay within max(1e-9, 3 sigma_g2), sigma_g2 the error of g2.
    """
    if mean_n < MEAN_N_FLOOR:
        raise ZeroDenominatorError(
            f"mean photon number {mean_n:.2e} below {MEAN_N_FLOOR}; "
            "normalized correlations are undefined on (near-)vacuum"
        )
    taus = np.asarray(taus, dtype=float)
    err_g1 = np.hypot(e1 / mean_n, np.abs(G1) * e_n / mean_n**2)
    err_g2 = np.hypot(e2 / mean_n**2, 2 * np.abs(G2.real) * e_n / mean_n**3)
    residue = np.abs(G2.imag) / mean_n**2
    tol = np.maximum(1e-9, 3 * err_g2)
    if np.any(residue > tol):
        k = int(np.argmax(residue - tol))
        raise SelfCheckError(
            f"{method_tag}: g2 imaginary residue {residue[k]:.2e} exceeds "
            f"{tol[k]:.2e} at tau = {taus[k]:.6g}"
        )
    return CorrelationSeries(
        tau_grid=taus,
        g1=G1 / mean_n,
        g2=G2.real / mean_n**2,
        mean_n=mean_n,
        method_tag=method_tag,
        error_estimate=np.maximum(err_g1, err_g2),
    )


def regression_series(sys: SystemSpec, taus) -> CorrelationSeries:
    """Normalized g1 and g2 on the tau grid; g1(0) = 1."""
    mean_n, G_late, _, G2 = regression_raw(sys, taus)
    return normalized_series(taus, "regression", mean_n, G_late, G2)
