"""Phase-space integration engines over complex Gaussian-times-polynomial integrands.

A ``PolyGaussian`` holds the exponent of a Gaussian in n complex variables and
their conjugates plus a polynomial prefactor (and optional per-variable vector
factors such as truncated Fock polynomials).  Both engines consume it:

* ``gauss_hermite_tensor`` tensorizes Gauss-Hermite nodes over the real axes;
  pair couplings enter as node-grid matrices, so integrals up to three complex
  variables reduce to matrix contractions instead of raw 6-axis loops.
* ``monte_carlo_gaussian`` importance-samples from the integrand's own
  Gaussian factor, which makes the weight ratio a bounded polynomial times a
  phase and keeps the estimator variance finite by construction.

Complex measures follow d^2 z = dRe(z) dIm(z); any 1/pi factors belong to the
caller's integrand.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonIntegrableError, QuadratureDimensionError, VarianceWarning

NEGDEF_TOL = -1e-12
MC_CHUNK = 1 << 16
MC_RELATIVE_ERROR_WARN = 0.10


@dataclass
class IntegrationConfig:
    engine: str = "gauss_hermite_tensor"
    nodes_per_axis: int = 24
    sample_count: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if self.engine not in ("gauss_hermite_tensor", "monte_carlo_gaussian"):
            raise ValueError(f"unknown integration engine {self.engine!r}")
        if self.engine == "gauss_hermite_tensor" and self.nodes_per_axis < 8:
            raise ValueError("quadrature needs nodes_per_axis >= 8")
        if self.engine == "monte_carlo_gaussian" and self.sample_count < 10_000:
            raise ValueError("Monte Carlo needs sample_count >= 10^4")


class PolyGaussian:
    """poly(z, conj z) * exp(Q(z, conj z)) over n complex variables.

    Q = sum_ij A[i,j] zbar_i z_j + sum_ij B[i,j] z_i z_j
        + sum_ij C[i,j] zbar_i zbar_j + sum_i u[i] z_i + sum_i v[i] zbar_i + c

    The polynomial is a dict mapping (z powers, zbar powers) to coefficients.
    ``var_factors`` optionally multiplies the integrand by per-variable Fock
    polynomials sum_k w[k] z^k (or zbar^k), kept separate from the monomial
    table so high-degree state vectors do not explode it.
    """

    def __init__(self, n_vars: int):
        if n_vars < 1:
            raise ValueError("need at least one complex variable")
        self.n_vars = n_vars
        self.A = np.zeros((n_vars, n_vars), dtype=complex)
        self.B = np.zeros((n_vars, n_vars), dtype=complex)
        self.C = np.zeros((n_vars, n_vars), dtype=complex)
        self.u = np.zeros(n_vars, dtype=complex)
        self.v = np.zeros(n_vars, dtype=complex)
        self.const = 0.0 + 0.0j
        self.poly: dict = {}
        self.var_factors: list = [None] * n_vars

    # ---- exponent builders -------------------------------------------------
    def add_mixed(self, i: int, j: int, coef: complex):
        """coef * zbar_i z_j"""
        self.A[i, j] += coef

    def add_abs2(self, i: int, coef: complex):
        """coef * |z_i|^2"""
        self.A[i, i] += coef

    def add_holo(self, i: int, j: int, coef: complex):
        """coef * z_i z_j"""
        self.B[i, j] += coef

    def add_anti(self, i: int, j: int, coef: complex):
        """coef * zbar_i zbar_j"""
        self.C[i, j] += coef

    def add_linear(self, i: int, coef: complex):
        """coef * z_i"""
        self.u[i] += coef

    def add_linear_conj(self, i: int, coef: complex):
        """coef * zbar_i"""
        self.v[i] += coef

    def add_const(self, coef: complex):
        self.const += coef

    # ---- polynomial builders -----------------------------------------------
    def poly_add(self, z_powers, zbar_powers, coef: complex):
        key = (tuple(int(p) for p in z_powers), tuple(int(q) for q in zbar_powers))
        self.poly[key] = self.poly.get(key, 0.0) + coef

    def set_var_factor(self, i: int, coeffs: np.ndarray, conjugated: bool):
        """Multiply the integrand by sum_k coeffs[k] * (zbar_i^k if conjugated else z_i^k)."""
        self.var_factors[i] = (np.asarray(coeffs, dtype=complex), bool(conjugated))

    # ---- real-coordinate quadratic form -------------------------------------
    def real_form(self):
        """(S, b, c) with Q = x^T S x + b.x + c over x = (Re z_0, Im z_0, ...)."""
        n = self.n_vars
        d = 2 * n
        S = np.zeros((d, d), dtype=complex)
        b = np.zeros(d, dtype=complex)

        def put(p, q, m):
            if p == q:
                S[p, p] += m
            else:
                S[p, q] += m / 2
                S[q, p] += m / 2

        for i in range(n):
            xi, yi = 2 * i, 2 * i + 1
            for j in range(n):
                xj, yj = 2 * j, 2 * j + 1
                m = self.A[i, j]  # zbar_i z_j
                if m != 0:
                    put(xi, xj, m)
                    put(yi, yj, m)
                    put(xi, yj, 1j * m)
                    put(yi, xj, -1j * m)
                m = self.B[i, j]  # z_i z_j
                if m != 0:
                    put(xi, xj, m)
                    put(yi, yj, -m)
                    put(xi, yj, 1j * m)
                    put(yi, xj, 1j * m)
                m = self.C[i, j]  # zbar_i zbar_j
                if m != 0:
                    put(xi, xj, m)
                    put(yi, yj, -m)
                    put(xi, yj, -1j * m)
                    put(yi, xj, -1j * m)
            b[xi] += self.u[i] + self.v[i]
            b[yi] += 1j * (self.u[i] - self.v[i])
        return S, b, self.const

    def assert_integrable(self):
        S, _, _ = self.real_form()
        top = float(np.max(np.linalg.eigvalsh(S.real)))
        if top > NEGDEF_TOL:
            raise NonIntegrableError(
                f"Gaussian real part has eigenvalue {top:.3e} >= 0; integral diverges"
            )

    # ---- pointwise polynomial part (Monte Carlo) ---------------------------
    def _poly_values(self, z: np.ndarray) -> np.ndarray:
        zb = np.conj(z)
        if self.poly:
            vals = np.zeros(z.shape[0], dtype=complex)
            for (p, q), coef in self.poly.items():
                term = np.full(z.shape[0], coef, dtype=complex)
                for i in range(self.n_vars):
                    if p[i]:
                        term = term * z[:, i] ** p[i]
                    if q[i]:
                        term = term * zb[:, i] ** q[i]
                vals += term
        else:
            vals = np.ones(z.shape[0], dtype=complex)
        for i, fac in enumerate(self.var_factors):
            if fac is not None:
                coeffs, conj = fac
                base = zb[:, i] if conj else z[:, i]
                vals = vals * np.polynomial.polynomial.polyval(base, coeffs)
        return vals


def _gh_grid(n_nodes: int):
    """Complex node grid and total weights for one complex variable."""
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    wmod = w * np.exp(x * x)  # integrate f directly, not f * exp(-x^2)
    z = (x[:, None] + 1j * x[None, :]).ravel()
    wz = np.outer(wmod, wmod).ravel()
    return z, wz


def _pair_matrix(pg: PolyGaussian, i: int, j: int, zi, zj):
    """exp of the (i, j) cross-coupling on the node grid, or None if absent."""
    aij, aji = pg.A[i, j], pg.A[j, i]
    bb = pg.B[i, j] + pg.B[j, i]
    cc = pg.C[i, j] + pg.C[j, i]
    if aij == 0 and aji == 0 and bb == 0 and cc == 0:
        return None
    zic, zjc = np.conj(zi), np.conj(zj)
    expo = (
        aij * np.outer(zic, zj)
        + aji * np.outer(zi, zjc)
        + bb * np.outer(zi, zj)
        + cc * np.outer(zic, zjc)
    )
    return np.exp(expo)


def _diag_vector(pg: PolyGaussian, i: int, z, wz):
    zc = np.conj(z)
    expo = pg.A[i, i] * zc * z + pg.B[i, i] * z * z + pg.C[i, i] * zc * zc
    expo += pg.u[i] * z + pg.v[i] * zc
    d = wz * np.exp(expo)
    if pg.var_factors[i] is not None:
        coeffs, conj = pg.var_factors[i]
        d = d * np.polynomial.polynomial.polyval(zc if conj else z, coeffs)
    return d


def _monomial_vectors(pg: PolyGaussian, z):
    """Per-variable node-grid factors for every polynomial monomial."""
    zc = np.conj(z)
    pows: dict = {}

    def powv(p, q):
        key = (p, q)
        if key not in pows:
            pows[key] = (z**p if p else 1.0) * (zc**q if q else 1.0)
        return pows[key]

    return powv


def _quadrature(pg: PolyGaussian, cfg: IntegrationConfig) -> complex:
    n = pg.n_vars
    if n > 3:
        raise QuadratureDimensionError(
            f"tensor quadrature supports at most 3 complex variables, got {n}; "
            "use the monte_carlo_gaussian engine"
        )
    z, wz = _gh_grid(cfg.nodes_per_axis)
    diag = [_diag_vector(pg, i, z, wz) for i in range(n)]
    powv = _monomial_vectors(pg, z)
    poly = pg.poly if pg.poly else {((0,) * n, (0,) * n): 1.0}
    scale = np.exp(pg.const)

    if n == 1:
        total = 0.0 + 0.0j
        for (p, q), coef in poly.items():
            total += coef * np.sum(diag[0] * powv(p[0], q[0]))
        return scale * total

    if n == 2:
        E = _pair_matrix(pg, 0, 1, z, z)
        total = 0.0 + 0.0j
        for (p, q), coef in poly.items():
            d0 = diag[0] * powv(p[0], q[0])
            d1 = diag[1] * powv(p[1], q[1])
            if E is None:
                total += coef * np.sum(d0) * np.sum(d1)
            else:
                total += coef * (d0 @ E @ d1)
        return scale * total

    # n == 3: contract out the last variable, grouped by its monomial part.
    E01 = _pair_matrix(pg, 0, 1, z, z)
    E02 = _pair_matrix(pg, 0, 2, z, z)
    E12 = _pair_matrix(pg, 1, 2, z, z)
    if E02 is None:
        E02 = np.ones((len(z), len(z)), dtype=complex)
    if E12 is None:
        E12 = np.ones((len(z), len(z)), dtype=complex)
    groups: dict = {}
    for (p, q), coef in poly.items():
        groups.setdefault((p[2], q[2]), []).append((p, q, coef))
    total = 0.0 + 0.0j
    for (p2, q2), members in groups.items():
        d2 = diag[2] * powv(p2, q2)
        if E01 is None:
            # no (0,1) coupling: the k2 sum factorizes into two matvecs
            for p, q, coef in members:
                v0 = (diag[0] * powv(p[0], q[0])) @ E02
                v1 = (diag[1] * powv(p[1], q[1])) @ E12
                total += coef * np.sum(d2 * v0 * v1)
        else:
            T = (E02 * d2[None, :]) @ E12.T  # (k0, k1), summed over k2
            T = T * E01
            for p, q, coef in members:
                d0 = diag[0] * powv(p[0], q[0])
                d1 = diag[1] * powv(p[1], q[1])
                total += coef * (d0 @ T @ d1)
    return scale * total


def _mc_sample(pg: PolyGaussian, cfg: IntegrationConfig) -> tuple[complex, float]:
    S, b, c = pg.real_form()
    SR, bR = S.real, b.real
    d = S.shape[0]
    cov = np.linalg.inv(-2.0 * SR)
    mu = np.linalg.solve(-2.0 * SR, bR)
    chol = np.linalg.cholesky(cov)
    sign, logdet = np.linalg.slogdet(cov)
    req_mu = mu @ SR @ mu + bR @ mu + c.real
    log_norm = 0.5 * d * np.log(2 * np.pi) + 0.5 * logdet
    prefactor = np.exp(req_mu + log_norm)

    SI, bI, cI = S.imag, b.imag, c.imag
    total = 0.0 + 0.0j
    total_sq_re = 0.0
    total_sq_im = 0.0
    count = 0
    remaining = cfg.sample_count
    chunk_idx = 0
    while remaining > 0:
        m = min(MC_CHUNK, remaining)
        ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(chunk_idx,))
        rng = np.random.Generator(np.random.PCG64(ss))
        x = mu + rng.standard_normal((m, d)) @ chol.T
        z = x[:, 0::2] + 1j * x[:, 1::2]
        phase = np.exp(1j * (np.einsum("ni,ij,nj->n", x, SI, x) + x @ bI + cI))
        h = pg._poly_values(z) * phase * prefactor
        total += np.sum(h)
        total_sq_re += np.sum(h.real**2)
        total_sq_im += np.sum(h.imag**2)
        count += m
        remaining -= m
        chunk_idx += 1
    mean = total / count
    var_re = max(total_sq_re / count - mean.real**2, 0.0)
    var_im = max(total_sq_im / count - mean.imag**2, 0.0)
    stderr = float(np.sqrt((var_re + var_im) / count))
    if abs(mean) > 0 and stderr / abs(mean) > MC_RELATIVE_ERROR_WARN:
        warnings.warn(
            f"MC relative standard error {stderr / abs(mean):.1%} exceeds "
            f"{MC_RELATIVE_ERROR_WARN:.0%}; increase sample_count",
            VarianceWarning,
            stacklevel=3,
        )
    return complex(mean), stderr


def integrate(pg: PolyGaussian, cfg: IntegrationConfig):
    """Integrate a PolyGaussian over C^n with d^2z = dx dy.

    Returns (value, error_estimate); the estimate is 0 for the deterministic
    quadrature engine and the combined standard error for Monte Carlo.
    """
    pg.assert_integrable()
    if cfg.engine == "gauss_hermite_tensor":
        return _quadrature(pg, cfg), 0.0
    return _mc_sample(pg, cfg)
