"""Phase-space evaluation routes for two-time correlators of closed dynamics.

Three routes compute g(tau) = <adag(t+tau) a(t)> and the g2 numerator
<adag(t) adag(t+tau) a(t+tau) a(t)> for a coherent-state-prepared mode under
a quadratic Hamiltonian.  Two evaluators serve them, each over one ``kind``
in {"late", "g2"}: the g1 ordering every series stores and the g2 numerator.

* ``_collapsed_integrands`` builds the three-variable integrals of the
  coherent-state-propagator route (``propagator``: the five-fold propagator
  integral with two integrals collapsed by the reproducing property) and of
  the two-variable-Q route (``qfunction_two_variable``: the two-variable
  Q-kernel of the prepared state, from its truncated Fock vector, paired
  with the propagator-composed Q of the evolved projector), which the
  ``quadrature`` engines integrate.  It builds the kernels and Fock factors
  a series' integrands share once, and the series integrates all of them in
  one engine call.  ``_five_variable_integrand`` keeps the uncollapsed
  propagator integral.
* ``_qderiv_integrals`` evaluates the normal-order route
  (``qfunction_derivative``) with no engine.  The coefficient table C_lm of
  the prepared state is resummed into Gaussian-carrying Q-derivative
  polynomials (a term-by-term truncated integral diverges; the resummation
  is the convergent equivalent of substituting (alpha + d/d alpha*) into the
  coefficient polynomial), once per kind and series; the shift/derivative
  applications on the Heisenberg-linear inner factor and the Gaussian
  moments are exact.

``phase_space_series`` is the entry point: it collects the raw integrals of
one route and hands them to ``correlators.normalized_series``; ``_g_raw``
gives the unnormalized g1 correlator alone.  Open-system scenarios are out
of scope here and served by the regression module only.
"""

from __future__ import annotations

import numpy as np

from .errors import (InstabilityError, MeasureConventionError, ScenarioSemanticError,
                     ZeroDenominatorError)
from .correlators import (MEAN_N_FLOOR, CorrelationSeries, SystemSpec, _check_tau_grid,
                          normalized_series)
from .dynamics import unitary_matrix
from .hilbert import (DEFAULT_L_MAX, DensityMatrix, _log_factorial, _shifted_diagonal_sum,
                      coherent_vector, ladder_matrices, normal_order_coeffs)
from .propagator import GaussianKernel, bogoliubov_map, kernel_quadratic
from .quadrature import IntegrationConfig, PolyGaussian, integrate

MEASURE_SELFTEST_TOL = 1e-4  # 10x the quadrature cross-method tolerance


def _require_phase_space_scenario(sys: SystemSpec):
    """The admission rule of every phase-space route, which scenarios check too."""
    if not sys.closed:
        raise ScenarioSemanticError(
            "phase-space methods require closed dynamics (system.kappa = 0); "
            f"scenario sets kappa = {sys.channel.kappa}"
        )
    if sys.initial_state.kind != "coherent":
        raise ScenarioSemanticError(
            "phase-space methods require a coherent (or vacuum) initial state")


def _attach_kernel(pg: PolyGaussian, k: GaussianKernel, out_var, in_var, conj=False,
                   in_val=None):
    """Multiply K(out, t | in, 0) into pg; conj=True attaches the conjugate
    kernel as a function of independent variables (conj(zbar) -> z).

    out_var/in_var are variable indices; in_var may be None with the input
    amplitude fixed at in_val.
    """
    A, B, C, D, E, F = k.A, k.B, k.C, k.D, k.E, k.F
    if conj:
        A, B, C, D, E, F = (np.conj(A), np.conj(B), np.conj(C),
                            np.conj(D), np.conj(E), np.conj(F))
    iv = None if in_var is not None else (np.conj(in_val) if conj else in_val)
    pg.add_const(A)
    # B * (zbar_out z_in), conjugated to B* (z_out zbar_in)
    if in_var is None:
        (pg.add_linear if conj else pg.add_linear_conj)(out_var, B * iv)
    elif conj:
        pg.add_mixed(in_var, out_var, B)
    else:
        pg.add_mixed(out_var, in_var, B)
    if C != 0:
        (pg.add_holo if conj else pg.add_anti)(out_var, out_var, C)
    if D != 0:
        if in_var is None:
            pg.add_const(D * iv * iv)
        else:
            (pg.add_anti if conj else pg.add_holo)(in_var, in_var, D)
    if E != 0:
        (pg.add_linear if conj else pg.add_linear_conj)(out_var, E)
    if F != 0:
        if in_var is None:
            pg.add_const(F * iv)
        else:
            (pg.add_linear_conj if conj else pg.add_linear)(in_var, F)
    pg.add_abs2(out_var, -0.5)
    if in_var is None:
        pg.add_const(-abs(complex(in_val)) ** 2 / 2)
    else:
        pg.add_abs2(in_var, -0.5)


def _linear_factor(n_vars, k: GaussianKernel, out_var, in_var, conj=False,
                   in_val=None) -> dict:
    """Polynomial table of the linear factor in <out|a U|in> = (B in + 2C conj(out) + E) K.

    Arguments follow ``_attach_kernel``: conj=True gives the conjugate factor
    in independent variables, and in_var=None fixes the input at in_val.
    """
    B, C, E = k.B, k.C, k.E
    if conj:
        B, C, E = np.conj(B), np.conj(C), np.conj(E)
    if in_var is None:
        form = _mono(n_vars, B * (np.conj(in_val) if conj else in_val) + E)
    elif conj:
        form = _mono(n_vars, B, zbar_at=in_var)
    else:
        form = _mono(n_vars, B, z_at=in_var)
    if C != 0:
        form.update(_mono(n_vars, 2 * C, z_at=out_var) if conj
                    else _mono(n_vars, 2 * C, zbar_at=out_var))
    if in_var is not None and E != 0:
        form.update(_mono(n_vars, E))
    return form


_IDENTITY_KERNEL = GaussianKernel(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def _poly_multiply(*linear_forms):
    """Product of linear forms given as dicts {(z_powers, zbar_powers): coef}."""
    acc = {((), ()): 1.0}

    def mul(table, form):
        out: dict = {}
        for (p1, q1), c1 in table.items():
            for (p2, q2), c2 in form.items():
                p = tuple(a + b for a, b in zip(p1, p2)) if p1 else p2
                q = tuple(a + b for a, b in zip(q1, q2)) if q1 else q2
                out[(p, q)] = out.get((p, q), 0.0) + c1 * c2
        return out

    for form in linear_forms:
        acc = mul(acc, form)
    return acc


def _mono(n_vars, coef, z_at=None, zbar_at=None):
    p = [0] * n_vars
    q = [0] * n_vars
    if z_at is not None:
        p[z_at] += 1
    if zbar_at is not None:
        q[zbar_at] += 1
    return {(tuple(p), tuple(q)): coef}


def _prepared_vector(sys: SystemSpec, t: float, shifted: bool = False) -> np.ndarray:
    """psi(t) on the Fock basis, or a psi(t) if shifted (the g2 side of both Q routes)."""
    psi = coherent_vector(sys.initial_state.amplitude, sys.cutoff)
    if t != 0:
        psi = unitary_matrix(sys.hamiltonian, t, sys.cutoff) @ psi
    if shifted:
        psi = ladder_matrices(sys.cutoff)[0] @ psi
    return psi


def _mean_n_fock(sys: SystemSpec, t: float) -> float:
    psi = _prepared_vector(sys, t)
    n = np.arange(sys.cutoff.dim)
    return float(np.sum(n * np.abs(psi) ** 2))


def _require_resolved_mean_n(n: float, exact: float, L_max: int):
    """Reject a qfunction_derivative mean photon number that is mostly roundoff.

    The resummed tables cancel terms that grow about twofold per lmax step: a
    vacuum's n is roundoff (2e-11 at lmax 12, 3e-6 at 30; above MEAN_N_FLOOR),
    and a large lmax loses any n.  Resolved means within half its size of the
    Fock-space value; unresolved, n is a vacuum's only below the floor.
    """
    if abs(n - exact) < 0.5 * n:
        return
    where = f"qfunction_derivative at lmax {L_max} (Fock-space value {exact:.2e})"
    if exact < MEAN_N_FLOOR:
        raise ZeroDenominatorError(f"mean photon number {n:.2e} is not resolved by {where}; "
                                   "normalized correlations are undefined on (near-)vacuum")
    if not np.isfinite(n):
        raise InstabilityError(f"mean photon number is not finite on {where}; the resummed "
                               "normal-order tables overflow")
    raise InstabilityError(f"mean photon number {n:.2e} is not resolved by {where}: roundoff "
                           "of the resummed normal-order tables grows about twofold per lmax "
                           f"step; lower lmax (the default is {DEFAULT_L_MAX})")


# ---------------------------------------------------------------------------
# Propagator and two-variable-Q routes: three-variable integrands
# ---------------------------------------------------------------------------

def _collapsed_integrands(sys: SystemSpec, t: float, cases, method: str) -> list[PolyGaussian]:
    """The three-variable integrands of one route at t_prepare t, one per (tau, kind) case.

    Each integrand is over 0 = alpha, 1 = alpha2, 2 = alpha4.  The tau side
    is K(alpha4, tau|alpha, 0) times the conjugate kernel from alpha2, with
    the conjugation swapped for "g2".  The prepared state enters on alpha and
    alpha2 with the same swap: through t-kernels from the initial amplitude
    (propagator) or through the Fock var-factors of psi_t, of a psi_t for g2
    (qfunction_two_variable).  The polynomial is z0 zbar2 for "late"; for
    "g2" it is the product of the annihilation-shifted linear factors of
    <alpha4|a U|alpha2> = (B a2 + 2C conj(a4) + E) K.  g2 keeps the swapped
    orientation: the late one would need a single linear factor, but its
    Monte Carlo variance is several times larger.

    The pieces the integrands share are built once, the prepared state's
    first: the t-kernel, or each kind's Fock factor vector psi(t)/sqrt(n!)
    and its conjugate, then each distinct tau's kernel, which that tau's g1
    and g2 integrands share.
    """
    a0 = complex(sys.initial_state.amplitude)
    if method == "propagator":
        kt = kernel_quadratic(sys.hamiltonian, t)
    else:
        factors = {}
        for kind in dict.fromkeys(kind for _, kind in cases):
            psi = _prepared_vector(sys, t, shifted=kind == "g2")
            w = psi * np.exp(-0.5 * _log_factorial(np.arange(len(psi))))  # psi_n / sqrt(n!)
            factors[kind] = w, np.conj(w)
    kernels = {tau: kernel_quadratic(sys.hamiltonian, tau)
               for tau in dict.fromkeys(tau for tau, _ in cases)}
    pgs = []
    for tau, kind in cases:
        sides = ((0, kind == "g2"), (1, kind == "late"))
        ktau = kernels[tau]
        pg = PolyGaussian(3)
        for var, conj in sides:
            _attach_kernel(pg, ktau, 2, var, conj=conj)
        if method == "propagator":
            for var, conj in sides:
                _attach_kernel(pg, kt, var, None, conj=conj, in_val=a0)
        else:
            w, cw = factors[kind]
            for var, conj in sides:
                pg.add_abs2(var, -0.5)  # <alpha|rho(t)|alpha2> = <alpha|psi><psi|alpha2>
                pg.set_var_factor(var, cw if conj else w, conjugated=not conj)
        if kind == "late":
            forms = [_mono(3, 1.0, z_at=0, zbar_at=2)]
        else:
            forms = [_linear_factor(3, ktau, 2, 0, conj=True), _linear_factor(3, ktau, 2, 1)]
            if method == "propagator":
                forms = [_linear_factor(3, kt, var, None, conj=conj, in_val=a0)
                         for var, conj in sides] + forms
        pg.poly = _poly_multiply(*forms)
        pg.add_const(-3 * np.log(np.pi))
        pgs.append(pg)
    return pgs


def _five_variable_integrand(sys: SystemSpec, t: float, tau: float) -> PolyGaussian:
    """The uncollapsed late-ordering propagator integral over alpha..alpha4."""
    a0 = complex(sys.initial_state.amplitude)
    kt = kernel_quadratic(sys.hamiltonian, t)
    ktau = kernel_quadratic(sys.hamiltonian, tau)
    # vars: 0 = alpha, 1 = alpha1, 2 = alpha2, 3 = alpha3, 4 = alpha4
    pg = PolyGaussian(5)
    _attach_kernel(pg, _IDENTITY_KERNEL, 1, None, in_val=a0)          # <alpha1|alpha0>
    _attach_kernel(pg, _IDENTITY_KERNEL, 3, None, conj=True, in_val=a0)  # <alpha0|alpha3>
    _attach_kernel(pg, ktau, 4, 0)
    _attach_kernel(pg, ktau, 4, 2, conj=True)
    _attach_kernel(pg, kt, 0, 1)
    _attach_kernel(pg, kt, 2, 3, conj=True)
    pg.add_const(-5 * np.log(np.pi))
    pg.poly.update(_mono(5, 1.0, z_at=0, zbar_at=4))
    return pg


def _g_propagator(sys, t, tau, cfg, collapse):
    """(value, err) of <adag(t+tau) a(t)> by the propagator route.

    collapse=False evaluates the full five-variable integral, which only the
    Monte Carlo engine accepts.
    """
    if collapse:
        return _g_raw(sys, t, tau, "propagator", cfg, L_max=None)
    _require_phase_space_scenario(sys)
    return integrate(_five_variable_integrand(sys, float(t), float(tau)), cfg)


def _measure_selftest(value: complex, expected: float, where: str):
    dev = abs(value - expected) / max(abs(expected), 1e-12)
    if dev <= MEASURE_SELFTEST_TOL:
        return
    hint = "no integer pi-power explains the mismatch"
    if abs(value) > 0 and expected > 0:
        k = np.log(abs(value) / expected) / np.log(np.pi)
        if abs(k - round(k)) < 0.02 and round(k) != 0:
            hint = (f"result looks like pi^{int(round(k))} times the mean photon "
                    f"number; check the 1/pi factor on the {where} integral")
    raise MeasureConventionError(
        f"tau=0 self-test failed: integral {value:.6g} vs mean photon number "
        f"{expected:.6g} (rel dev {dev:.2e} > {MEASURE_SELFTEST_TOL}); {hint}"
    )


# ---------------------------------------------------------------------------
# Q-function route: normal-order derivative form
# ---------------------------------------------------------------------------

def _resummed_q_tables(C: np.ndarray, orders: int) -> list[np.ndarray]:
    """Gaussian-stripped Q-derivative polynomials R_j from the C_lm table.

    R_0[a, b] = sum_k C[a-k, b-k] / k! recovers the entire-function part of
    the normal-order symbol (its Gaussian exp(-uv) is reattached by
    ``_qderiv_integrals``), with ``orders`` zero rows below it; R_{j+1} =
    (d/dv - u) R_j realizes d/dv of the symbol.  Row index a tracks powers
    of u (the conjugate variable), column b of v.
    """
    weights = np.exp(-_log_factorial(np.arange(len(C))))
    tables = [_shifted_diagonal_sum(C, weights, len(C) + orders)]
    for _ in range(orders):
        prev = tables[-1]
        nxt = np.zeros_like(prev)
        nxt[:, :-1] += prev[:, 1:] * np.arange(1, prev.shape[1])
        nxt[1:, :] -= prev[:-1, :]
        tables.append(nxt)
    return tables


def _conj_deriv_tables(table: dict) -> list[dict]:
    """Successive d/d zbar of a one-variable polynomial table {(p, q): coef}."""
    out = [table]
    while out[-1]:
        nxt: dict = {}
        for (p, q), coef in out[-1].items():
            if q > 0:
                key = (p, q - 1)
                nxt[key] = nxt.get(key, 0.0) + coef * q
        out.append(nxt)
    return out[:-1]


def _prepared_q_tables(sys: SystemSpec, t: float, L_max: int, shifted: bool,
                       orders: int) -> list[np.ndarray]:
    """``_resummed_q_tables`` of rho(t), or of a rho(t) adag if shifted."""
    psi = _prepared_vector(sys, t, shifted)
    C = normal_order_coeffs(DensityMatrix(np.outer(psi, psi.conj()), sys.cutoff), L_max)
    return _resummed_q_tables(C, orders)


def _qderiv_integrals(sys: SystemSpec, t: float, cases, L_max: int):
    """Iterator of (value, 0.0) over the (tau, kind) cases of ``qfunction_derivative``.

    Each value is the normal-order integral of rho(t), or of a rho(t) adag
    for g2, in closed form.  The inner factor <alpha|...|alpha> is a
    polynomial table {(p, q): coef} in (alpha, conj(alpha)) with
    Bogoliubov-map coefficients, and f_j its d^j/d zbar^j.
    sum_j R_j(u = zbar, v = z) f_j / j! accumulates in one dense (z power,
    zbar power) array, and (1/pi) int z^p zbar^q exp(-|z|^2) d^2z = p!
    delta_pq sums its diagonal.  The R tables do not depend on tau: a
    kind's are built at its first case, so a series expands the prepared
    state once per kind, and a caller that checks the first value does so
    before any later case is evaluated.
    """
    R_by_kind: dict = {}
    for tau, kind in cases:
        mu, nu, lam = bogoliubov_map(sys.hamiltonian, tau)
        cmu, cnu, clam = np.conj(mu), np.conj(nu), np.conj(lam)
        if kind == "late":
            # <alpha| adag(tau) a |alpha> = alpha (mubar abar + nubar a + lambar)
            f_table = {(1, 1): cmu, (2, 0): cnu, (1, 0): clam}
        else:
            # <alpha| adag(tau) a(tau) |alpha> = conj(F) F + |nu|^2 with F = mu a + nu abar + lam
            f_table = {(1, 1): cmu * mu + cnu * nu, (0, 2): cmu * nu,
                       (0, 1): cmu * lam + clam * nu, (2, 0): cnu * mu,
                       (1, 0): cnu * lam + clam * mu, (0, 0): clam * lam + abs(nu) ** 2}
        f_tables = _conj_deriv_tables(f_table)
        if kind not in R_by_kind:
            R_by_kind[kind] = _prepared_q_tables(sys, t, L_max, kind == "g2", len(f_tables) - 1)
        R_tables = R_by_kind[kind]
        n_zbar, n_z = R_tables[0].shape
        coef = np.zeros((n_z + max(p for p, _ in f_table), n_zbar + max(q for _, q in f_table)),
                        dtype=complex)
        for j, ft in enumerate(f_tables):
            RT = R_tables[j].T
            w = 1.0 / float(np.exp(_log_factorial(j)))
            for (pf, qf), cf in ft.items():
                coef[pf:pf + n_z, qf:qf + n_zbar] += (w * cf) * RT
        diag = np.diagonal(coef)
        # p! overflows from p = 171; the caller reports the non-finite mean photon number
        with np.errstate(over="ignore", invalid="ignore"):
            value = complex(diag @ np.exp(_log_factorial(np.arange(len(diag)))))
        yield value, 0.0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _integrals(sys, t, cases, method, cfg, L_max):
    """Iterator of (value, err) over the (tau, kind) cases of one route at t_prepare t.

    The collapsed routes integrate every case in one engine call, and the
    tau = 0 g1 case of the two-variable-Q route is self-tested against the
    Fock mean photon number under quadrature, which catches a misplaced 1/pi.
    ``qfunction_derivative`` evaluates each case in closed form as it is read.
    """
    _require_phase_space_scenario(sys)
    if method == "qfunction_derivative":
        return _qderiv_integrals(sys, t, cases, L_max)
    if method not in ("propagator", "qfunction_two_variable"):
        raise ValueError(f"unknown phase-space method {method!r}")
    results = integrate(_collapsed_integrands(sys, t, cases, method), cfg)
    if method == "qfunction_two_variable" and cfg.engine == "gauss_hermite_tensor":
        for (tau, kind), (value, _) in zip(cases, results):
            if tau == 0 and kind == "late":
                _measure_selftest(value, _mean_n_fock(sys, t), "alpha")
    return iter(results)


def _integral(sys, t, tau, method, cfg, L_max, kind):
    return next(_integrals(sys, float(t), [(float(tau), kind)], method, cfg, L_max))


def _g_raw(sys, t, tau, method, cfg, L_max):
    """(value, err) of <adag(t+tau) a(t)>."""
    return _integral(sys, t, tau, method, cfg, L_max, "late")


def phase_space_series(sys: SystemSpec, taus, method: str, cfg: IntegrationConfig,
                       L_max: int = DEFAULT_L_MAX) -> CorrelationSeries:
    """CorrelationSeries for one phase-space method over a tau grid at t_prepare.

    Collects the raw (value, err) of g1 and of the g2 numerator at each tau
    and normalizes them with ``correlators.normalized_series``, using the
    method's own tau = 0 integral as the mean photon number n.  A grid that
    starts at tau = 0 reuses the n integral as its first g1 row.  The
    prepared state is audited first (``SystemSpec.prepared_state``, shared
    with the regression route), so a state the cutoff does not hold fails on
    its trace leakage before any integral.

    The integrands of ``propagator`` and ``qfunction_two_variable`` are built
    first, sharing their kernels and Fock factors (``_collapsed_integrands``),
    and integrated in one engine call; Gauss-Hermite builds each tau's
    coupling once for all of them, as two n x n^2 factor tables (0.44 MB at
    24 nodes; see ``quadrature._coupling_factors``).  ``qfunction_derivative``
    checks n before it evaluates the other cases and expands the prepared
    state once per kind (``_qderiv_integrals``).
    """
    taus = _check_tau_grid(taus)
    sys.prepared_state()
    t = float(sys.t_prepare)
    cases = [(0.0, "late")] + [(float(tau), kind) for tau in taus
                               for kind in ("late", "g2") if tau != 0 or kind == "g2"]
    raw = _integrals(sys, t, cases, method, cfg, L_max)
    n, e_n = next(raw)
    if method == "qfunction_derivative":
        _require_resolved_mean_n(n.real, _mean_n_fock(sys, t), L_max)
    rows = []
    for tau in taus:
        g1 = (n, e_n) if tau == 0 else next(raw)
        rows.append(g1 + next(raw))
    G1, e1, G2, e2 = map(np.array, zip(*rows))
    return normalized_series(taus, method, n.real, G1, G2, e_n, e1, e2)
