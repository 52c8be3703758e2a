"""Reference one- and two-time correlators via the quantum regression theorem.

Two-time averages are obtained by propagating deformed states (a rho, or
a rho adag) with the same map that evolves single-time averages, then tracing
against the remaining operator.  Both operator orderings are computed and
checked for conjugacy; series store the <adag(t+tau) a(t)> ordering, whose
free-oscillator phase is exp(+i omega tau).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, SelfCheckError, ZeroDenominatorError
from .dynamics import (
    DampingChannel,
    QuadraticHamiltonian,
    evolve_lindblad,
    propagated_map,
    unitary_matrix,
)
from .hilbert import (
    DEFAULT_TRACE_BUDGET,
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
    trace_budget: float = DEFAULT_TRACE_BUDGET

    def prepared_state(self) -> DensityMatrix:
        rho0 = self.initial_state.build(self.cutoff).validate(self.trace_budget)
        if self.t_prepare == 0:
            return rho0
        return evolve_lindblad(
            rho0, self.hamiltonian, self.channel, self.t_prepare, self.trace_budget
        )

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
    if taus.ndim != 1 or len(taus) == 0:
        raise ValueError("tau grid must be a nonempty 1-d array")
    if taus[0] < 0:
        raise ValueError("negative tau is not supported; correlators use tau >= 0")
    if np.any(np.diff(taus) <= 0):
        raise ValueError("tau grid must be strictly ascending")
    return taus


class _GridPropagator:
    """Evolves a set of deformed matrices along an ascending tau grid.

    Uses the semigroup property: one cached map per distinct grid increment,
    applied sequentially, instead of one map per tau.  A grid whose increments
    agree to 1e-12 relative (np.linspace rounding) steps with its single mean
    increment, so it needs one map besides the step from 0 to its first tau.
    Damped systems apply the sparse block superoperator from
    ``propagated_map``; closed systems use the small unitary sandwich.
    """

    def __init__(self, sys: SystemSpec, taus: np.ndarray):
        self.sys = sys
        increments = np.diff(taus)
        if len(increments):
            mean = (taus[-1] - taus[0]) / len(increments)
            if np.all(np.abs(increments - mean) <= 1e-12 * mean):
                increments = np.full_like(increments, mean)
        self.steps = np.concatenate(([taus[0]], increments))

    def run(self, mats: list[np.ndarray]):
        """Yields (tau_index, evolved_mats) in grid order."""
        sys = self.sys
        current = [m.copy() for m in mats]
        for i, dt in enumerate(self.steps):
            if dt > 0:
                if sys.closed:
                    U = unitary_matrix(sys.hamiltonian, dt, sys.cutoff)
                    current = [U @ m @ U.conj().T for m in current]
                else:
                    M = propagated_map(sys.hamiltonian, sys.channel, dt, sys.cutoff)
                    current = [M.apply(m) for m in current]
            yield i, current


def regression_raw(sys: SystemSpec, taus):
    """Unnormalized numerators for both g1 orderings and for g2 on the whole grid.

    Returns (mean_n, G_late, G_early, G2) with
    G_late[k]  = <adag(t+tau_k) a(t)>   = Tr[adag M(tau)(a rho)]
    G_early[k] = <adag(t) a(t+tau_k)>   = Tr[a M(tau)(rho adag)]
    G2[k]      = <adag(t) adag(t+tau) a(t+tau) a(t)> = Tr[adag a M(tau)(a rho adag)]

    G_late is exactly the object the phase-space routes compute, so
    cross-method comparisons can avoid any normalization ambiguity.
    """
    taus = _check_tau_grid(taus)
    rho_t = sys.prepared_state()
    a, adag = ladder_matrices(sys.cutoff)
    number = adag @ a
    mean_n = float(np.real(np.trace(number @ rho_t.mat)))

    deformed = [a @ rho_t.mat, rho_t.mat @ adag, a @ rho_t.mat @ adag]
    G_late = np.empty(len(taus), dtype=complex)
    G_early = np.empty(len(taus), dtype=complex)
    G2 = np.empty(len(taus), dtype=complex)
    for k, (m_late, m_early, m_two) in _GridPropagator(sys, taus).run(deformed):
        G_late[k] = np.trace(adag @ m_late)
        G_early[k] = np.trace(a @ m_early)
        G2[k] = np.trace(number @ m_two)

    conj_gap = np.max(np.abs(G_late - np.conj(G_early)))
    if conj_gap > CONJUGACY_TOL * max(1.0, mean_n):
        raise SelfCheckError(
            f"ordering conjugacy violated by {conj_gap:.2e}; regression wiring is broken"
        )
    return mean_n, G_late, G_early, G2


def regression_series(sys: SystemSpec, taus) -> CorrelationSeries:
    """Normalized g1 and g2 on the tau grid; g1(0) = 1."""
    mean_n, G_late, _, G2 = regression_raw(sys, taus)
    if mean_n < MEAN_N_FLOOR:
        raise ZeroDenominatorError(
            f"mean photon number {mean_n:.2e} below {MEAN_N_FLOOR}; "
            "normalized correlations are undefined on (near-)vacuum"
        )
    g2 = G2 / mean_n**2
    worst_imag = float(np.max(np.abs(g2.imag)))
    if worst_imag > 1e-9:
        raise SelfCheckError(f"g2 imaginary residue {worst_imag:.2e} exceeds 1e-9")
    return CorrelationSeries(
        tau_grid=np.asarray(taus, dtype=float),
        g1=G_late / mean_n,
        g2=g2.real,
        mean_n=mean_n,
        method_tag="regression",
    )
