"""Seeded request generators for the three benchmark workloads.

A request is a scenario file the program parses like any user input; the
seed never reaches the program.  Each workload yields its requests in
*blocks* whose cost mix does not depend on the seed (every block of
open_regression holds each cutoff 12..22 once, every block of
closed_triangle holds each Hamiltonian once plus one Monte Carlo request),
so a run that stops on a block boundary measures the same mix on every seed.

The same seed yields byte-identical scenario text: numbers are rounded and
printed with ``repr`` and the stream comes from ``random.Random`` seeded
with a string, which is stable across processes and platforms.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

PHASE_SPACE_METHODS = "regression, propagator, qfunction_two_variable, qfunction_derivative"

# Parameter ranges, one line per knob; README.md repeats them in prose.
CLOSED_OMEGA = (0.8, 1.2)
SQUEEZED_OMEGA = (1.0, 1.2)
CLOSED_ALPHA = (0.4, 1.0)  # |alpha0| of a free mode's coherent start
CLOSED_ETA = (0.25, 0.5)
CLOSED_XI = (0.15, 0.2)
CLOSED_CUTOFF = 40
CLOSED_TAU_COUNT = 4
MC_SAMPLES = 100_000

OPEN_CUTOFFS = tuple(range(12, 23))
# Narrow enough that scipy's expm needs about the same number of squarings
# for every request at one cutoff, so per-request cost follows the cutoff.
OPEN_KAPPA = (0.8, 1.2)
OPEN_N_THERMAL = (0.1, 0.3)
OPEN_OMEGA = (0.8, 1.2)
OPEN_T_PREPARE = (0.5, 1.0)
OPEN_FOCK = (1, 2, 3)
OPEN_ALPHA = (0.3, 1.0)
OPEN_TAU_STOP = 5.0
OPEN_TAU_COUNT = 20

SWEEP_CUTOFF = 20
SWEEP_KAPPA = (0.8, 1.2)
SWEEP_N_THERMAL = (0.1, 0.2)
SWEEP_OMEGA = (0.8, 1.2)
SWEEP_T_PREPARE = 0.5
SWEEP_FOCK = (0, 1, 2, 3, 4)
SWEEP_SUPERPOSITION_LEVELS = (0, 1, 2, 3)


@dataclass(frozen=True)
class Request:
    name: str
    kind: str
    settings: dict  # scenario key -> value text, in file order

    @property
    def cfg_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.settings.items())


def _num(x: float) -> str:
    return repr(round(float(x), 6))


def _cnum(z: complex) -> str:
    return f"{_num(z.real)}{'+' if z.imag >= 0 else '-'}{_num(abs(z.imag))}j"


def _coherent(rng: random.Random, lo_hi) -> str:
    return "coherent " + _cnum(cmath.rect(rng.uniform(*lo_hi), rng.uniform(0, 2 * math.pi)))


def _taus(stop: float, count: int) -> dict:
    return {"tau.start": "0.0", "tau.stop": _num(stop), "tau.count": str(count)}


def _closed_gh(rng: random.Random, hamiltonian: str) -> dict:
    if hamiltonian == "free":
        s = {"system.omega": _num(rng.uniform(*CLOSED_OMEGA)),
             "system.initial": _coherent(rng, CLOSED_ALPHA)}
        t_prepare, tau_stop = rng.uniform(0.0, 1.0), rng.uniform(1.0, 3.0)
    elif hamiltonian == "driven":
        # A vacuum start and eta >= 0.25 keep n(t) >= 0.015.  A coherent start
        # can cancel the drive's displacement; near n(t) = 0 the normalised
        # series amplify the routes' absolute errors past the 1e-5 the
        # program's cross-validation allows (see README.md).
        s = {"system.omega": _num(rng.uniform(*CLOSED_OMEGA)),
             "system.eta": _num(rng.uniform(*CLOSED_ETA)),
             "system.initial": "vacuum"}
        t_prepare, tau_stop = rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0)
    else:
        # Vacuum start and omega >= 1 keep the population above the default
        # lmax = 12 below the 1e-10 the qfunction_derivative route requires.
        s = {"system.omega": _num(rng.uniform(*SQUEEZED_OMEGA)),
             "system.xi": _num(rng.uniform(*CLOSED_XI)),
             "system.initial": "vacuum"}
        t_prepare, tau_stop = rng.uniform(0.8, 1.0), rng.uniform(0.5, 1.0)
    s.update({"system.cutoff": str(CLOSED_CUTOFF), "system.t_prepare": _num(t_prepare)})
    s.update(_taus(tau_stop, CLOSED_TAU_COUNT))
    s["methods"] = PHASE_SPACE_METHODS
    return s


def _closed_mc() -> dict:
    """The bundled coherent_mc scenario, verbatim apart from its name.

    Monte Carlo requests are not randomised: the program's 3-sigma
    cross-validation fails on about one in twenty random free coherent
    requests, because the error it reports omits the error of the
    normalising mean photon number.  This configuration is the one
    acceptance criterion 8 runs, so it is known to pass.
    """
    return {
        "system.omega": "1.0",
        "system.initial": "coherent 1.0",
        "system.cutoff": str(CLOSED_CUTOFF),
        "system.t_prepare": "0.0",
        **_taus(3.0, 5),
        "methods": "regression, propagator",
        "integration.engine": "monte_carlo_gaussian",
        "integration.sample_count": str(MC_SAMPLES),
        "integration.seed": "42",
    }


def _closed_triangle(rng: random.Random):
    """Fresh closed systems; three Gauss-Hermite requests, then one Monte Carlo."""
    while True:
        hams = ["free", "driven", "squeezed"]
        rng.shuffle(hams)
        block = [(f"{h}/gauss_hermite", _closed_gh(rng, h)) for h in hams]
        block.append(("free/monte_carlo", _closed_mc()))
        yield block


def _open_initial(rng: random.Random, kind: str, n_thermal: float) -> str:
    if kind == "stationary":
        return f"thermal {_num(n_thermal)}"
    if kind == "thermal":
        return f"thermal {_num(rng.uniform(*OPEN_N_THERMAL))}"
    if kind == "fock":
        return f"fock {rng.choice(OPEN_FOCK)}"
    return _coherent(rng, OPEN_ALPHA)


def _open_regression(rng: random.Random):
    """Fresh damped free oscillators; each block holds every cutoff once."""
    kinds = ("stationary", "thermal", "fock", "coherent")
    while True:
        cutoffs = list(OPEN_CUTOFFS)
        rng.shuffle(cutoffs)
        starts = [kinds[i % len(kinds)] for i in range(len(cutoffs))]
        rng.shuffle(starts)
        block = []
        for cutoff, kind in zip(cutoffs, starts):
            n_thermal = round(rng.uniform(*OPEN_N_THERMAL), 6)
            s = {
                "system.omega": _num(rng.uniform(*OPEN_OMEGA)),
                "system.kappa": _num(rng.uniform(*OPEN_KAPPA)),
                "system.n_thermal": _num(n_thermal),
                "system.initial": _open_initial(rng, kind, n_thermal),
                "system.cutoff": str(cutoff),
                "system.t_prepare": _num(rng.uniform(*OPEN_T_PREPARE)),
            }
            s.update(_taus(OPEN_TAU_STOP, OPEN_TAU_COUNT))
            s["methods"] = "regression"
            block.append((f"damped/{kind}", s))
        yield block


def _sweep_initial(rng: random.Random, kind: str) -> str:
    if kind == "fock":
        return f"fock {rng.choice(SWEEP_FOCK)}"
    if kind == "coherent":
        return _coherent(rng, OPEN_ALPHA)
    if kind == "thermal":
        return f"thermal {_num(rng.uniform(*OPEN_N_THERMAL))}"
    levels = rng.sample(SWEEP_SUPERPOSITION_LEVELS, 2)
    terms = (f"{_cnum(cmath.rect(rng.uniform(0.3, 1.0), rng.uniform(0, 2 * math.pi)))}:{n}"
             for n in sorted(levels))
    return "superposition " + ", ".join(terms)


def _open_sweep(rng: random.Random):
    """One fixed damped cavity per run; requests vary only the initial state."""
    cavity = {
        "system.omega": _num(rng.uniform(*SWEEP_OMEGA)),
        "system.kappa": _num(rng.uniform(*SWEEP_KAPPA)),
        "system.n_thermal": _num(rng.uniform(*SWEEP_N_THERMAL)),
    }
    tail = {"system.cutoff": str(SWEEP_CUTOFF), "system.t_prepare": _num(SWEEP_T_PREPARE)}
    tail.update(_taus(OPEN_TAU_STOP, OPEN_TAU_COUNT))
    tail["methods"] = "regression"
    kinds = ["fock", "coherent", "thermal", "superposition"]
    while True:
        rng.shuffle(kinds)
        yield [(f"damped/{k}", {**cavity, "system.initial": _sweep_initial(rng, k), **tail})
               for k in kinds]


GENERATORS = {
    "closed_triangle": _closed_triangle,
    "open_regression": _open_regression,
    "open_sweep": _open_sweep,
}


def blocks(workload: str, seed: int):
    """Endless stream of request blocks for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    index = 0
    for block in GENERATORS[workload](rng):
        out = []
        for kind, settings in block:
            name = f"r{index:05d}"
            out.append(Request(name, kind, {"name": name, **settings}))
            index += 1
        yield out
