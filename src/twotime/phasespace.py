"""Phase-space evaluation routes for two-time correlators of closed dynamics.

Three routes compute g(tau) = <adag(t+tau) a(t)> for a coherent-state-prepared
mode under a quadratic Hamiltonian:

* ``g_via_propagator``: the five-fold coherent-state-propagator integral, with
  an optional analytic collapse of two integrals via the reproducing property,
  leaving three complex variables.
* ``g_via_q_two_variable``: the triple integral pairing the two-variable
  Q-kernel of the prepared state (built from its truncated Fock vector) with
  the propagator-composed Q of the evolved projector.
* ``g_via_q_derivative``: the normal-order route.  The coefficient table C_lm
  of the prepared state is resummed into Gaussian-carrying Q-derivative
  polynomials (a term-by-term truncated integral diverges; the resummation is
  the convergent equivalent of substituting (alpha + d/d alpha*) into the
  coefficient polynomial), and the shift/derivative applications on the
  Heisenberg-linear inner factor are exact symbolic operations.

``g2_via_phase_space`` extends each route to the four-operator correlator.
Open-system scenarios are out of scope here and served by the regression
module only.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import MeasureConventionError, SelfCheckError
from .correlators import CorrelationSeries, SystemSpec, _check_tau_grid
from .dynamics import unitary_matrix
from .hilbert import coherent_vector, ladder_matrices, normal_order_coeffs
from .propagator import GaussianKernel, bogoliubov_map, kernel_quadratic
from .quadrature import IntegrationConfig, PolyGaussian, integrate

MEASURE_SELFTEST_TOL = 1e-4  # 10x the quadrature cross-method tolerance


def _require_phase_space_scenario(sys: SystemSpec):
    if not sys.closed:
        raise ValueError("phase-space methods require closed dynamics (kappa = 0)")
    if sys.initial_state.kind != "coherent":
        raise ValueError("phase-space methods require a coherent (or vacuum) initial state")


def _attach_kernel(pg: PolyGaussian, k: GaussianKernel, out_var, in_var, conj=False,
                   out_val=None, in_val=None):
    """Multiply K(out, t | in, 0) into pg; conj=True attaches the conjugate
    kernel as a function of independent variables (conj(zbar) -> z).

    out_var/in_var are variable indices, or None with the amplitude fixed at
    out_val/in_val.
    """
    A, B, C, D, E, F = k.A, k.B, k.C, k.D, k.E, k.F
    if conj:
        A, B, C, D, E, F = (np.conj(A), np.conj(B), np.conj(C),
                            np.conj(D), np.conj(E), np.conj(F))
    ov = None if out_var is not None else (out_val if conj else np.conj(out_val))
    iv = None if in_var is not None else (np.conj(in_val) if conj else in_val)
    pg.add_const(A)
    # B * (zbar_out z_in), conjugated to B* (z_out zbar_in)
    if out_var is None and in_var is None:
        pg.add_const(B * ov * iv)
    elif out_var is None:
        (pg.add_linear_conj if conj else pg.add_linear)(in_var, B * ov)
    elif in_var is None:
        (pg.add_linear if conj else pg.add_linear_conj)(out_var, B * iv)
    elif conj:
        pg.add_mixed(in_var, out_var, B)
    else:
        pg.add_mixed(out_var, in_var, B)
    if C != 0:
        if out_var is None:
            pg.add_const(C * ov * ov)
        else:
            (pg.add_holo if conj else pg.add_anti)(out_var, out_var, C)
    if D != 0:
        if in_var is None:
            pg.add_const(D * iv * iv)
        else:
            (pg.add_anti if conj else pg.add_holo)(in_var, in_var, D)
    if E != 0:
        if out_var is None:
            pg.add_const(E * ov)
        else:
            (pg.add_linear if conj else pg.add_linear_conj)(out_var, E)
    if F != 0:
        if in_var is None:
            pg.add_const(F * iv)
        else:
            (pg.add_linear_conj if conj else pg.add_linear)(in_var, F)
    for var, val in ((out_var, out_val), (in_var, in_val)):
        if var is None:
            pg.add_const(-abs(complex(val)) ** 2 / 2)
        else:
            pg.add_abs2(var, -0.5)


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


_IDENTITY_KERNEL = GaussianKernel(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


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


def _fock_factor_coeffs(psi: np.ndarray) -> np.ndarray:
    n = np.arange(len(psi))
    return psi * np.exp(-0.5 * gammaln(n + 1.0))


def _prepared_vector(sys: SystemSpec, t: float) -> np.ndarray:
    psi0 = coherent_vector(sys.initial_state.amplitude, sys.cutoff)
    if t == 0:
        return psi0
    return unitary_matrix(sys.hamiltonian, t, sys.cutoff) @ psi0


def _mean_n_fock(sys: SystemSpec, t: float) -> float:
    psi = _prepared_vector(sys, t)
    n = np.arange(sys.cutoff.dim)
    return float(np.sum(n * np.abs(psi) ** 2))


# ---------------------------------------------------------------------------
# Coherent-state-propagator route
# ---------------------------------------------------------------------------

def _propagator_integrand(sys: SystemSpec, t: float, tau: float, collapse: bool,
                          ordering: str) -> PolyGaussian:
    a0 = complex(sys.initial_state.amplitude)
    kt = kernel_quadratic(sys.hamiltonian, t)
    ktau = kernel_quadratic(sys.hamiltonian, tau)
    if collapse:
        # vars: 0 = alpha, 1 = alpha2, 2 = alpha4
        pg = PolyGaussian(3)
        if ordering == "late":
            _attach_kernel(pg, ktau, 2, 0)
            _attach_kernel(pg, ktau, 2, 1, conj=True)
            _attach_kernel(pg, kt, 0, None, in_val=a0)
            _attach_kernel(pg, kt, 1, None, conj=True, in_val=a0)
            pg.poly.update(_mono(3, 1.0, z_at=0, zbar_at=2))
        else:
            # <adag(t) a(t+tau)>: mirrored conjugation, prefactor from
            # <alpha2|rho adag|alpha> = conj(alpha) <alpha2|rho|alpha> and
            # <alpha4|a U|alpha2> = (B a2 + 2C conj(a4) + E) K
            _attach_kernel(pg, ktau, 2, 0, conj=True)
            _attach_kernel(pg, ktau, 2, 1)
            _attach_kernel(pg, kt, 0, None, conj=True, in_val=a0)
            _attach_kernel(pg, kt, 1, None, in_val=a0)
            pg.poly = _poly_multiply(_mono(3, 1.0, zbar_at=0), _linear_factor(3, ktau, 2, 1))
        pg.add_const(-3 * np.log(np.pi))
        return pg
    if ordering != "late":
        raise ValueError("the full five-variable form implements the late ordering only")
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


def _g_propagator(sys, t, tau, cfg, collapse, ordering="late"):
    _require_phase_space_scenario(sys)
    pg = _propagator_integrand(sys, float(t), float(tau), collapse, ordering)
    return integrate(pg, cfg)


def g_via_propagator(sys: SystemSpec, t: float, tau: float, cfg: IntegrationConfig,
                     collapse: bool = True) -> complex:
    """<adag(t+tau) a(t)> by the coherent-state-propagator integral.

    collapse=True eliminates the alpha1/alpha3 integrals analytically via the
    reproducing property, leaving three complex variables (quadrature
    friendly); collapse=False evaluates the full five-variable integral,
    which only the Monte Carlo engine accepts.
    """
    value, _ = _g_propagator(sys, t, tau, cfg, collapse)
    return value


# ---------------------------------------------------------------------------
# Q-function route: two-variable kernels
# ---------------------------------------------------------------------------

def _q2var_integrand(sys, t, tau, ordering: str) -> PolyGaussian:
    ktau = kernel_quadratic(sys.hamiltonian, tau)
    w = _fock_factor_coeffs(_prepared_vector(sys, t))
    pg = PolyGaussian(3)  # 0 = alpha, 1 = alpha2, 2 = alpha4
    if ordering == "late":
        _attach_kernel(pg, ktau, 2, 0)
        _attach_kernel(pg, ktau, 2, 1, conj=True)
        # <alpha|rho(t)|alpha2> = <alpha|psi><psi|alpha2>
        pg.add_abs2(0, -0.5)
        pg.add_abs2(1, -0.5)
        pg.set_var_factor(0, w, conjugated=True)
        pg.set_var_factor(1, np.conj(w), conjugated=False)
        pg.poly.update(_mono(3, 1.0, z_at=0, zbar_at=2))
    else:
        _attach_kernel(pg, ktau, 2, 0, conj=True)
        _attach_kernel(pg, ktau, 2, 1)
        pg.add_abs2(0, -0.5)
        pg.add_abs2(1, -0.5)
        pg.set_var_factor(0, np.conj(w), conjugated=False)
        pg.set_var_factor(1, w, conjugated=True)
        pg.poly = _poly_multiply(_mono(3, 1.0, zbar_at=0), _linear_factor(3, ktau, 2, 1))
    pg.add_const(-3 * np.log(np.pi))
    return pg


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


def _g_q2var(sys, t, tau, cfg, ordering="late"):
    _require_phase_space_scenario(sys)
    pg = _q2var_integrand(sys, float(t), float(tau), ordering)
    value, err = integrate(pg, cfg)
    if tau == 0 and cfg.engine == "gauss_hermite_tensor":
        _measure_selftest(value, _mean_n_fock(sys, t), "alpha")
    return value, err


def g_via_q_two_variable(sys: SystemSpec, t: float, tau: float,
                         cfg: IntegrationConfig) -> complex:
    """<adag(t+tau) a(t)> by the triple Q-function integral.

    The prepared-state factor is the two-variable Q kernel built from the
    truncated Fock vector; the evolved-projector factor is composed from two
    propagators.  At tau = 0 the result is self-tested against the Fock mean
    photon number, which catches any misplaced 1/pi measure factor.
    """
    value, _ = _g_q2var(sys, t, tau, cfg)
    return value


# ---------------------------------------------------------------------------
# Q-function route: normal-order derivative form
# ---------------------------------------------------------------------------

def _resummed_q_tables(C: np.ndarray, L_max: int, orders: int) -> list[np.ndarray]:
    """Gaussian-stripped Q-derivative polynomials R_j from the C_lm table.

    R_0[a, b] = sum_k C[a-k, b-k] / k! recovers the entire-function part of
    the normal-order symbol (its Gaussian exp(-uv) is reattached by the
    integrand builder); R_{j+1} = (d/dv - u) R_j realizes d/dv of the symbol.
    Row index a tracks powers of u (the conjugate variable), column b of v.
    """
    R = np.zeros((L_max + 1 + orders, L_max + 1), dtype=complex)
    for a in range(L_max + 1):
        for b in range(L_max + 1):
            k = np.arange(0, min(a, b) + 1)
            R[a, b] = np.sum(C[a - k, b - k] * np.exp(-gammaln(k + 1.0)))
    tables = [R]
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


def _q_derivative_value(rho_mat: np.ndarray, cutoff, L_max: int, f_table: dict,
                        cfg: IntegrationConfig):
    from .hilbert import DensityMatrix  # local to avoid cycle noise

    expansion = normal_order_coeffs(DensityMatrix(rho_mat, cutoff), L_max,
                                    check_roundtrip=False)
    f_tables = _conj_deriv_tables(f_table)
    R_tables = _resummed_q_tables(expansion.coeffs, L_max, len(f_tables) - 1)
    pg = PolyGaussian(1)
    pg.add_abs2(0, -1.0)
    inv_pi = 1.0 / np.pi
    for j, ft in enumerate(f_tables):
        R = R_tables[j]
        w = inv_pi / float(np.exp(gammaln(j + 1.0)))
        rows, cols = np.nonzero(R)
        for a, b in zip(rows, cols):
            for (pf, qf), cf in ft.items():
                pg.poly_add((b + pf,), (a + qf,), w * R[a, b] * cf)
    return integrate(pg, cfg)


def _g_qderiv(sys, t, tau, L_max, cfg, ordering="late"):
    _require_phase_space_scenario(sys)
    psi = _prepared_vector(sys, float(t))
    rho_mat = np.outer(psi, psi.conj())
    mu, nu, lam = bogoliubov_map(sys.hamiltonian, float(tau))
    if ordering == "late":
        # <alpha| adag(tau) a |alpha> = alpha (mubar abar + nubar a + lambar)
        f_table = {(1, 1): np.conj(mu), (2, 0): np.conj(nu), (1, 0): np.conj(lam)}
    else:
        # <alpha| adag a(tau) |alpha> = abar (mu a + nu abar + lam)
        f_table = {(1, 1): mu, (0, 2): nu, (0, 1): lam}
    return _q_derivative_value(rho_mat, sys.cutoff, L_max, f_table, cfg)


def g_via_q_derivative(sys: SystemSpec, t: float, tau: float, L_max: int,
                       cfg: IntegrationConfig) -> complex:
    """<adag(t+tau) a(t)> by the normal-order-expansion route.

    Consumes the C_lm table of the prepared state up to L_max and the
    Heisenberg-linear inner factor with Bogoliubov-map coefficients;
    derivative applications are exact polynomial operations.
    """
    value, _ = _g_qderiv(sys, t, tau, L_max, cfg)
    return value


# ---------------------------------------------------------------------------
# Second-order correlator by any phase-space route
# ---------------------------------------------------------------------------

def _g2_numerator_kernelside(sys, t, tau, cfg, fock_t_side: bool):
    """<adag(t) adag(t+tau) a(t+tau) a(t)> as a 3-variable integral.

    fock_t_side=False threads the prepared state through t-kernels and their
    annihilation-shifted linear factors (pure propagator route);
    fock_t_side=True represents a rho(t) adag through the deformed Fock
    vector a psi_t (two-variable-Q route).  The tau side is kernel-built in
    both, with the four linear factors multiplied symbolically.
    """
    a0 = complex(sys.initial_state.amplitude)
    kt = kernel_quadratic(sys.hamiltonian, t)
    ktau = kernel_quadratic(sys.hamiltonian, tau)
    pg = PolyGaussian(3)  # 0 = alpha, 1 = alpha2, 2 = alpha4
    _attach_kernel(pg, ktau, 2, 0, conj=True)   # K*(a4,tau|alpha,0)
    _attach_kernel(pg, ktau, 2, 1)              # K(a4,tau|alpha2,0)
    forms = [_linear_factor(3, ktau, 2, 0, conj=True), _linear_factor(3, ktau, 2, 1)]
    if fock_t_side:
        psi = _prepared_vector(sys, float(t))
        a, _ = ladder_matrices(sys.cutoff)
        w = _fock_factor_coeffs(a @ psi)
        pg.add_abs2(0, -0.5)
        pg.add_abs2(1, -0.5)
        pg.set_var_factor(0, np.conj(w), conjugated=False)  # <a psi|alpha>
        pg.set_var_factor(1, w, conjugated=True)            # <alpha2|a psi>
    else:
        _attach_kernel(pg, kt, 0, None, conj=True, in_val=a0)  # K*(alpha,t|a0,0)
        _attach_kernel(pg, kt, 1, None, in_val=a0)             # K(alpha2,t|a0,0)
        forms = [
            _linear_factor(3, kt, 0, None, conj=True, in_val=a0),
            _linear_factor(3, kt, 1, None, in_val=a0),
        ] + forms
    pg.poly = _poly_multiply(*forms)
    pg.add_const(-3 * np.log(np.pi))
    return integrate(pg, cfg)


def _g2_numerator_qderiv(sys, t, tau, L_max, cfg):
    """Same numerator through the normal-order table of a rho(t) adag."""
    psi = _prepared_vector(sys, float(t))
    a, _ = ladder_matrices(sys.cutoff)
    phi = a @ psi
    rho_def = np.outer(phi, phi.conj())
    mu, nu, lam = bogoliubov_map(sys.hamiltonian, float(tau))
    # <alpha| adag(tau) a(tau) |alpha> = conjF * F + |nu|^2 with
    # F = mu a + nu abar + lam, conjF = mubar abar + nubar a + lambar
    F = {(1, 0): mu, (0, 1): nu, (0, 0): lam}
    Fc = {(0, 1): np.conj(mu), (1, 0): np.conj(nu), (0, 0): np.conj(lam)}
    f2 = _poly_multiply(
        {((p,), (q,)): c for (p, q), c in Fc.items()},
        {((p,), (q,)): c for (p, q), c in F.items()},
    )
    f_table = {(p[0], q[0]): c for (p, q), c in f2.items()}
    f_table[(0, 0)] = f_table.get((0, 0), 0.0) + abs(nu) ** 2
    return _q_derivative_value(rho_def, sys.cutoff, L_max, f_table, cfg)


def g2_via_phase_space(sys: SystemSpec, t: float, tau: float, method: str,
                       cfg: IntegrationConfig, L_max: int = 12) -> float:
    """Normalized g2(tau) by the chosen phase-space method.

    The quartic correlator and the mean photon number are both evaluated by
    the same route, so normalization never mixes methods.
    """
    num, _ = _g2_raw(sys, t, tau, method, cfg, L_max)
    mean_n = _g_raw(sys, t, 0.0, method, cfg, L_max)[0].real
    return num / mean_n**2


def _g2_raw(sys, t, tau, method, cfg, L_max):
    _require_phase_space_scenario(sys)
    if method == "propagator":
        value, err = _g2_numerator_kernelside(sys, t, tau, cfg, fock_t_side=False)
    elif method == "qfunction_two_variable":
        value, err = _g2_numerator_kernelside(sys, t, tau, cfg, fock_t_side=True)
    elif method == "qfunction_derivative":
        value, err = _g2_numerator_qderiv(sys, t, tau, L_max, cfg)
    else:
        raise ValueError(f"unknown phase-space method {method!r}")
    tol = max(1e-9, 3 * err)
    if abs(value.imag) > tol * max(1.0, abs(value)):
        where = method + (f" at lmax = {L_max}" if method == "qfunction_derivative" else "")
        raise SelfCheckError(f"{where}: g2 numerator imaginary part {value.imag:.2e} too large")
    return value.real, err


def _g_raw(sys, t, tau, method, cfg, L_max, ordering="late"):
    if method == "propagator":
        return _g_propagator(sys, t, tau, cfg, collapse=True, ordering=ordering)
    if method == "qfunction_two_variable":
        return _g_q2var(sys, t, tau, cfg, ordering=ordering)
    if method == "qfunction_derivative":
        return _g_qderiv(sys, t, tau, L_max, cfg, ordering=ordering)
    raise ValueError(f"unknown phase-space method {method!r}")


def phase_space_series(sys: SystemSpec, taus, method: str, cfg: IntegrationConfig,
                       t: float | None = None, L_max: int = 12) -> CorrelationSeries:
    """CorrelationSeries for one phase-space method over a tau grid.

    g1 and g2 are normalized with the method's own tau = 0 mean photon
    number n.  error_estimate holds the larger of the two normalized
    standard errors, each propagating the error of n as well as that of its
    numerator (zero under quadrature).
    """
    _require_phase_space_scenario(sys)
    taus = _check_tau_grid(np.asarray(taus, dtype=float))
    if t is None:
        t = sys.t_prepare
    n, e_n = _g_raw(sys, t, 0.0, method, cfg, L_max)
    mean_n = n.real
    g1 = np.empty(len(taus), dtype=complex)
    g2 = np.empty(len(taus), dtype=float)
    errs = np.zeros(len(taus), dtype=float)
    for i, tau in enumerate(taus):
        gv, ge = _g_raw(sys, t, float(tau), method, cfg, L_max)
        g2v, g2e = _g2_raw(sys, t, float(tau), method, cfg, L_max)
        g1[i] = gv / mean_n
        g2[i] = g2v / mean_n**2
        errs[i] = max(
            np.hypot(ge / mean_n, abs(gv) * e_n / mean_n**2),
            np.hypot(g2e / mean_n**2, 2 * abs(g2v) * e_n / mean_n**3),
        )
    return CorrelationSeries(
        tau_grid=taus, g1=g1, g2=g2, mean_n=mean_n,
        method_tag=method, error_estimate=errs,
    )
