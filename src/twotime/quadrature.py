"""Phase-space integration engines over complex Gaussian-times-polynomial integrands.

A ``PolyGaussian`` holds the exponent of a Gaussian in n complex variables and
their conjugates plus a polynomial prefactor (and optional per-variable vector
factors such as truncated Fock polynomials).  Both engines consume it:

* ``gauss_hermite_tensor`` tensorizes Gauss-Hermite nodes over the real axes.
  It integrates only the shape the routes build, three variables whose
  (0, 1) pair is uncoupled; the sum over the last variable then factorizes
  into one contraction per pair coupling.  A coupling exponent is bilinear
  in the real coordinates, so its node-grid matrix E factors over the real
  and imaginary node indices,
  E[(ik, jk), (il, jl)] = G[ik, (il, jl)] H[jk, (il, jl)], and is never
  formed: two n x n^2 tables (``_coupling_factors``, 0.44 MB at 24 nodes)
  replace the n^2 x n^2 matrix (5.3 MB), and a stack of vectors is
  contracted as one batched matmul with H, one n x n by n x n^2 GEMM per
  vector, plus a G-weighted row sum (``_contract``).
  The node grid is cached (``functools.lru_cache``, read-only arrays).  A
  coupling and its conjugate share one key (``_coupling_key``), so every
  integral at one tau of a phase-space series uses one pair of tables; the
  conjugate side contracts conjugated vectors instead of a copy.  A
  phase-space series is one ``integrate`` call, and the
  engine integrates the whole sequence as one batch, or as a few if it is
  longer than ``GH_CHUNK_BYTES`` allows: one stacked real form and
  ``eigvalsh`` check integrability; one broadcast pass builds the diagonal
  node vectors, one per distinct set of a variable's own terms, with each
  distinct var-factor polynomial evaluated once (a polynomial and its
  conjugate share the evaluation); each distinct coupling is built once and,
  in each of its two orientations, contracted once against the stacked
  (diagonal vector, monomial) rows of every integrand that uses it; and
  each integrand's terms are summed from gathered products.  Every
  integral keeps the arithmetic of its own one-at-a-time evaluation, so a
  batch changes no bit of it: each vector is its own GEMM of one fixed
  shape, whatever the batch holds, so its bits do not depend on how a BLAS
  kernel blocks the rows stacked with it.  ``TestBatch`` checks this, and CI
  also runs it on OpenBLAS's AVX2 (Haswell) kernel, on which one GEMM over
  the stacked rows gave some rows other bits.
* ``monte_carlo_gaussian`` importance-samples from the integrand's own
  Gaussian factor, which makes the weight ratio a bounded polynomial times a
  phase and keeps the estimator variance finite by construction.  Chunk k of
  every integral maps the standard normals of SeedSequence(seed,
  spawn_key=(k,)) through the integral's own mean and Cholesky factor, so all
  integrals of one process with the same seed and variable count share their
  normals (common random numbers).  The leading chunks are drawn once and
  cached (``_normals``, read-only, at most ``MC_NORMALS_BYTES``).  The errors
  of the integrals of one series are therefore correlated, while the
  ``hypot`` propagation of ``correlators.normalized_series`` treats them as
  independent.  A sequence is sampled chunk by chunk: each integrand's mean,
  Cholesky factor and prefactor are computed first, in the calling thread,
  each chunk's normals are fetched once for all of them, and the chunk is
  evaluated as one task per integrand on a pool of one thread per usable CPU
  (at most one per integrand, so a single CPU runs a one-thread pool), since
  numpy releases the GIL inside its loops and GEMM.  Totals, warnings and
  exceptions come back in integrand order, in the calling thread.  The
  normals are stored coordinate-major, g of shape (2n, chunk), and a task
  evaluates its chunk in blocks of ``MC_BLOCK_TILES`` tiles,
  X = chol g[:, block] + mu of shape (2n, block), whose product reads 2n
  contiguous runs: one GEMM, one phase and one complex ``exp`` per block,
  written into buffers each worker allocates once (``_MCScratch``, 1.8 MB at
  n = 3, and 2.4 MB at its peak with the polynomial's rows), then the sums
  of h and |h|^2 per tile of ``MC_TILE`` samples, and the real Gaussian
  prefactor is applied once to the totals.  A column of the block's GEMM
  does not depend on how many columns the block has (a property of the BLAS,
  like the row-side one above, checked by ``TestTiles``), so neither the
  block, nor the worker count, nor the order the tasks run in changes a bit
  of any integral; the tile size changes no sample, only the rounding of
  the sums.

Complex measures follow d^2 z = dRe(z) dIm(z); any 1/pi factors belong to the
caller's integrand.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonIntegrableError, QuadratureDimensionError, VarianceWarning

NEGDEF_TOL = -1e-12
MC_CHUNK = 1 << 16
# The normals cache keeps the first MC_CACHED_CHUNKS chunks of a stream, each
# block at most MC_CACHED_BLOCK numbers (a full chunk of five complex
# variables, the most any route integrates), so it never holds more than
# MC_NORMALS_BYTES (20 MiB).  Later chunks and larger blocks are drawn anew.
MC_CACHED_CHUNKS = 4
MC_CACHED_BLOCK = MC_CHUNK * 10
MC_NORMALS_BYTES = MC_CACHED_CHUNKS * MC_CACHED_BLOCK * 8
# The sums of h and |h|^2 are taken per tile of MC_TILE samples, and the
# samples are computed in blocks of MC_BLOCK_TILES tiles.  Every numpy call
# hands the GIL to the other worker and back; with two workers on a 2-vCPU
# Xeon, the coherent_mc request took 18-27 ms at one tile per block (the
# GIL changed hands about a dozen times per tile), about 21 ms at two and
# 14.0-14.6 ms at four, where the single-threaded engine took 27.5 ms.
MC_TILE = 4096
MC_BLOCK_TILES = 4
MC_RELATIVE_ERROR_WARN = 0.10
# A coupling's factor tables hold 2 nodes^3 complex entries (8.4 MB at 64), and
# its contraction a nodes^3 work table per vector (4.2 MB at 64).
MAX_NODES = 64
# A Gauss-Hermite batch holds about ten node-grid vectors per integrand, and
# sums its terms from gathered arrays of one node-grid vector per term, so it
# takes integrands, and sums terms, GH_CHUNK_BYTES / (16 nodes^2) at a time
# (113 at 24 nodes, 16 at 64): the peak does not grow with the tau grid.
GH_CHUNK_BYTES = 1 << 20
ENGINES = ("gauss_hermite_tensor", "monte_carlo_gaussian")


@dataclass
class IntegrationConfig:
    engine: str = "gauss_hermite_tensor"
    nodes_per_axis: int = 24
    sample_count: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown integration engine {self.engine!r}")
        if self.engine == "gauss_hermite_tensor" and not 8 <= self.nodes_per_axis <= MAX_NODES:
            raise ValueError(f"quadrature needs 8 <= nodes_per_axis <= {MAX_NODES}, "
                             f"got {self.nodes_per_axis}")
        if self.engine == "monte_carlo_gaussian" and self.sample_count < 10_000:
            raise ValueError("Monte Carlo needs sample_count >= 10^4")
        if self.seed < 0:
            raise ValueError("integration.seed must be >= 0")


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
        """(S, b, c) with Q = x^T S x + b.x + c over x = (Re z_0, Im z_0, ...).

        z = P x with P[r, 2r] = 1 and P[r, 2r + 1] = i, and zbar = conj(P) x,
        so each quadratic block is a congruence by P or conj(P) and S is the
        symmetric part of their sum.
        """
        S, P, Pc = _quadratic_form(self.A, self.B, self.C)
        return S, self.u @ P + self.v @ Pc, self.const

    # ---- pointwise polynomial part (Monte Carlo) ---------------------------
    def _poly_values(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """poly(z, conj z) times the var_factors at the columns of X, shape (2 n_vars, samples).

        Rows 2i and 2i + 1 of X hold Re z_i and Im z_i, and the values are
        written to ``out``.  Only the complex (variable, power, conjugated)
        rows that a monomial or vector factor uses are built, each once, and
        shared by all of them; besides them, the evaluation holds one
        temporary row, and only for a second monomial or a vector factor.
        """
        cols: dict = {}

        # not recursive: a self-referencing closure would keep X alive in a
        # reference cycle until the cyclic collector runs
        def col(i, p, conj):
            if (i, 1, conj) not in cols:
                z = np.empty(X.shape[1], dtype=complex)
                z.real, z.imag = X[2 * i], X[2 * i + 1]
                if conj:
                    np.negative(z.imag, out=z.imag)
                cols[i, 1, conj] = z
            if (i, p, conj) not in cols:
                cols[i, p, conj] = cols[i, 1, conj] ** p
            return cols[i, p, conj]

        poly = self.poly or {((0,) * self.n_vars, (0,) * self.n_vars): 1.0}
        work = None
        for index, ((p, q), coef) in enumerate(poly.items()):
            factors = [col(i, k, conj) for i in range(self.n_vars)
                       for k, conj in ((p[i], False), (q[i], True)) if k]
            if index == 0:
                term = out
            else:
                term = work = np.empty_like(out) if work is None else work
            if factors:
                np.multiply(coef, factors[0], out=term)
            else:
                term[...] = coef
            for f in factors[1:]:
                term *= f
            if index:
                out += term
        for i, fac in enumerate(self.var_factors):
            if fac is not None:
                coeffs, conj = fac
                z = col(i, 1, conj)
                # numpy's polyval, c[-1] + z * 0 then c[k] + acc * z, in one row
                work = np.empty_like(out) if work is None else work
                np.multiply(z, 0, out=work)
                work += coeffs[-1]
                for c in coeffs[-2::-1]:
                    work *= z
                    work += c
                out *= work
        return out


def _quadratic_form(A, B, C):
    """(S, P, conj(P)) of the exponent blocks A, B, C: one (n, n) each, or stacks of them.

    S is the real-coordinate matrix of ``PolyGaussian.real_form``, stacked
    like its arguments.
    """
    n = A.shape[-1]
    P = (np.eye(n)[:, :, None] * [1.0, 1j]).reshape(n, 2 * n)
    Pc = P.conj()
    M = P.T @ B @ P + Pc.T @ C @ Pc + Pc.T @ A @ P
    return (M + np.swapaxes(M, -1, -2)) / 2, P, Pc


@lru_cache(maxsize=4)
def _gh_grid(n_nodes: int):
    """Real nodes, complex node grid and total weights for one complex variable.

    Node k of the grid is x[k // n] + i x[k % n].  All arrays are read-only.
    """
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    wmod = w * np.exp(x * x)  # integrate f directly, not f * exp(-x^2)
    z = (x[:, None] + 1j * x[None, :]).ravel()
    wz = np.outer(wmod, wmod).ravel()
    for arr in (x, z, wz):
        arr.flags.writeable = False
    return x, z, wz


def _coupling_factors(n_nodes: int, aij, aji, bb, cc) -> tuple[np.ndarray, np.ndarray]:
    """One-axis factors (G, H) of exp(aij zbar_k z_l + aji z_k zbar_l + bb z_k z_l + cc zbar_k zbar_l).

    With z = x + i y the exponent is bilinear in the real coordinates,
    gxx x_k x_l + gxy x_k y_l + gyx y_k x_l + gyy y_k y_l.  Node k of the
    tensor grid is (ik, jk) with x_k = x[ik] and y_k = x[jk], so the
    coupling matrix factors exactly as
    E[(ik, jk), (il, jl)] = G[ik, (il, jl)] H[jk, (il, jl)], with
    G = Axx[:, :, None] Axy[:, None, :], H = Ayx[:, :, None] Ayy[:, None, :]
    and A = exp(g outer(x, x)): 4 n^2 complex exps and two n x n^2 tables
    instead of the n^2 x n^2 matrix.
    """
    x, _, _ = _gh_grid(n_nodes)
    xx = np.outer(x, x)
    gxx = aij + aji + bb + cc
    gxy = 1j * (aij - aji + bb - cc)
    gyx = 1j * (aji - aij + bb - cc)
    gyy = aij + aji - bb - cc
    Axx, Axy, Ayx, Ayy = (np.exp(g * xx) for g in (gxx, gxy, gyx, gyy))
    G = (Axx[:, :, None] * Axy[:, None, :]).reshape(n_nodes, n_nodes * n_nodes)
    H = (Ayx[:, :, None] * Ayy[:, None, :]).reshape(n_nodes, n_nodes * n_nodes)
    return G, H


def _pair_key(pg: PolyGaussian, i: int, j: int):
    """(aij, aji, bb, cc) of the (i, j) cross-coupling exponent, or None if it vanishes."""
    aij, aji = pg.A[i, j], pg.A[j, i]
    bb = pg.B[i, j] + pg.B[j, i]
    cc = pg.C[i, j] + pg.C[j, i]
    if aij == 0 and aji == 0 and bb == 0 and cc == 0:
        return None
    return aij, aji, bb, cc


def _coupling_key(pg: PolyGaussian, i: int, j: int):
    """(key, conjugated) naming the (i, j) cross-coupling's factor tables, or None if absent.

    The coupling matrix is that of ``_coupling_factors(n_nodes, *key)``, or
    its conjugate if ``conjugated``.  Every integral at one tau couples its
    variables through the same kernel coefficient, met as (aij, aji) on one
    pair and as its conjugate (conj aji, conj aij) on another, so the key is
    whichever of the two has the smaller (re, im) tuple:
    E(aij, aji, bb, cc) = conj(E(conj aji, conj aij, conj cc, conj bb)).
    Conjugation only flips signs, so the two agree bit for bit when bb and cc
    vanish, as in every integrand the routes build; otherwise the sums of the
    exponent run in another order and agree to rounding.
    """
    key = _pair_key(pg, i, j)
    if key is None:
        return None
    aij, aji, bb, cc = key
    mirror = (np.conj(aji), np.conj(aij), np.conj(cc), np.conj(bb))

    def floats(k):
        return tuple(x for c in k for x in (c.real, c.imag))

    return (mirror, True) if floats(mirror) < floats(key) else (key, False)


def _contract(V: np.ndarray, tables, conjugated: bool) -> np.ndarray:
    """The rows of V times the coupling matrix E of ``tables`` = (G, H), or conj(E) if ``conjugated``.

    (v E)[l] = sum_ik G[ik, l] sum_jk v[ik, jk] H[jk, l], so each row is one
    n x n by n x n^2 GEMM with H, the stack one batched ``matmul``, followed
    by a G-weighted sum over ik, and v conj(E) = conj(conj(v) E).  A row's
    GEMM has the same shape whatever the stack holds, so its bits do not
    depend on the other rows.  tables = None couples by ones.
    """
    if tables is None:
        return np.sum(V, axis=1, keepdims=True)
    G, H = tables
    n = G.shape[0]
    if conjugated:
        V = np.conj(V)
    W = np.matmul(V.reshape(len(V), n, n), H)
    W *= G
    out = np.sum(W, axis=1)
    return np.conj(out, out=out) if conjugated else out


def _diag_vectors(pgs, z, wz) -> tuple[np.ndarray, np.ndarray]:
    """(rows, index): the distinct diagonal vectors of a batch, and the row of each variable.

    A variable's diagonal vector is the node weights times the exponential
    of its own exponent terms and its var-factor polynomial; index[k, i] is
    the row of variable i of integrand k.  Variables whose terms agree bit
    for bit share a row.  The distinct exponents are evaluated in one
    broadcast pass, and each distinct polynomial once.
    """
    zc = np.conj(z)
    coefs = np.stack([np.diagonal(np.stack([getattr(pg, m) for pg in pgs]), axis1=1, axis2=2)
                      for m in "ABC"] + [np.stack([pg.u for pg in pgs]),
                                         np.stack([pg.v for pg in pgs])], axis=-1)
    rows_of: dict = {}
    firsts = []  # (integrand, variable) of each row's first use
    index = np.empty(coefs.shape[:2], dtype=int)
    for k, pg in enumerate(pgs):
        for i, fac in enumerate(pg.var_factors):
            key = (coefs[k, i].tobytes(), None if fac is None else (fac[0].tobytes(), fac[1]))
            if key not in rows_of:
                rows_of[key] = len(firsts)
                firsts.append((k, i))
            index[k, i] = rows_of[key]
    A, B, C, u, v = np.array([coefs[k, i] for k, i in firsts]).T[..., None]
    expo = A * zc * z + B * z * z + C * zc * zc
    expo += u * z + v * zc
    rows = wz * np.exp(expo)
    # sum_k w[k] z^k is conj(sum_k conj(w[k]) zbar^k) bit for bit (conjugation
    # only flips signs), so a polynomial and its conjugate share one evaluation
    polys: dict = {}
    for row, (k, i) in enumerate(firsts):
        if pgs[k].var_factors[i] is not None:
            coeffs, conj = pgs[k].var_factors[i]
            base = coeffs if conj else np.conj(coeffs)
            key = base.tobytes()
            if key not in polys:
                polys[key] = np.polynomial.polynomial.polyval(zc, base)
            rows[row] *= polys[key] if conj else np.conj(polys[key])
    return rows, index


def _monomial_vectors(z):
    """z^p conj(z)^q on the node grid, each (p, q) built once."""
    zc = np.conj(z)
    pows: dict = {}

    def powv(p, q):
        key = (p, q)
        if key not in pows:
            pows[key] = (z**p if p else 1.0) * (zc**q if q else 1.0)
        return pows[key]

    return powv


def _check(pgs, gauss_hermite: bool):
    """Raise the error of the first integrand the engine cannot integrate, as alone it would.

    One stacked real form and one stacked ``eigvalsh`` serve every
    integrability check.
    """
    S, _, _ = _quadratic_form(*(np.stack([getattr(pg, m) for pg in pgs]) for m in "ABC"))
    tops = np.max(np.linalg.eigvalsh(S.real), axis=-1)
    for pg, top in zip(pgs, tops):
        if top > NEGDEF_TOL:
            raise NonIntegrableError(
                f"Gaussian real part has eigenvalue {float(top):.3e} >= 0; integral diverges"
            )
        n = pg.n_vars
        if gauss_hermite and (n != 3 or _pair_key(pg, 0, 1) is not None):
            got = f"{n} variables" + (" coupled on (0, 1)" if n == 3 else "")
            raise QuadratureDimensionError(
                "tensor quadrature integrates three complex variables with no (0, 1) "
                f"coupling; got {got}; use the monte_carlo_gaussian engine"
            )


def _quadrature(pgs, cfg: IntegrationConfig) -> list[complex]:
    nodes = cfg.nodes_per_axis
    _, z, wz = _gh_grid(nodes)
    diag, index = _diag_vectors(pgs, z, wz)
    polys = [pg.poly or {((0,) * pg.n_vars, (0,) * pg.n_vars): 1.0} for pg in pgs]
    scales = [np.exp(pg.const) for pg in pgs]
    # without a (0, 1) coupling the k2 sum factorizes: contract every distinct
    # monomial vector of variables 0 and 1 with its coupling to variable 2,
    # each (diagonal row, monomial) once per coupling and all of a coupling's
    # rows in one stack.  An integral is then sum coef * sum(d2 * v0 * v1)
    # over its terms, taken in the order of its terms grouped by their
    # variable-2 monomial.
    powv = _monomial_vectors(z)
    # coupling key -> {conjugated: {(row, p, q): stack row}}; both orientations
    # of a key contract against the one pair of tables built for it
    stacks: dict = {}
    d2_rows: dict = {}  # (row, p, q) of a variable-2 vector -> its row
    terms = []  # per integrand: (coef, d2 row, (coupling, stack row) of v0 and of v1)
    for k, (pg, poly) in enumerate(zip(pgs, polys)):
        sides = []
        for i in (0, 1):
            key, conjugated = _coupling_key(pg, i, 2) or (None, False)
            by_side = stacks.setdefault(key, {})
            sides.append(((key, conjugated), by_side.setdefault(conjugated, {})))
        groups: dict = {}
        for (p, q), coef in poly.items():
            groups.setdefault((p[2], q[2]), []).append((p, q, coef))
        member = []
        for p, q, coef in (term for group in groups.values() for term in group):
            v0, v1 = ((key, rows.setdefault((index[k, i], p[i], q[i]), len(rows)))
                      for i, (key, rows) in enumerate(sides))
            d2_row = d2_rows.setdefault((index[k, 2], p[2], q[2]), len(d2_rows))
            member.append((coef, d2_row, v0, v1))
        terms.append(member)

    offsets, contracted = {}, []
    for key, by_side in stacks.items():
        tables = None if key is None else _coupling_factors(nodes, *key)
        for conjugated, rows in by_side.items():
            out = _contract(np.stack([diag[row] * powv(p, q) for row, p, q in rows]),
                            tables, conjugated)
            offsets[key, conjugated] = sum(map(len, contracted))
            contracted.append(np.broadcast_to(out, (len(rows), len(z))))
    V = np.concatenate(contracted)
    d2 = np.stack([diag[row] * powv(p, q) for row, p, q in d2_rows])
    flat = [(r2, offsets[k0] + r0, offsets[k1] + r1)
            for member in terms for _, r2, (k0, r0), (k1, r1) in member]
    i2, i0, i1 = np.array(flat).T
    step = max(1, GH_CHUNK_BYTES // d2[0].nbytes)
    sums = np.concatenate([np.sum(d2[i2[lo:lo + step]] * V[i0[lo:lo + step]]
                                  * V[i1[lo:lo + step]], axis=1)
                           for lo in range(0, len(flat), step)])
    values, start = [], 0
    for member, scale in zip(terms, scales):
        total = 0.0 + 0.0j
        for (coef, *_), term_sum in zip(member, sums[start:start + len(member)]):
            total += coef * term_sum
        start += len(member)
        values.append(scale * total)
    return values


@lru_cache(maxsize=MC_CACHED_CHUNKS)
def _normals(seed: int, chunk: int, m: int, d: int) -> np.ndarray:
    """Read-only standard normals of chunk ``chunk`` of the stream of ``seed``, stored (d, m).

    Every integral draws chunk k from SeedSequence(seed, spawn_key=(k,)) as m
    samples of d coordinates, so integrals with the same seed and variable
    count share these numbers.  They are kept coordinate-major and
    contiguous, so a tile's columns are d contiguous runs.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk,))
    g = np.random.Generator(np.random.PCG64(ss)).standard_normal((m, d)).T.copy()
    g.flags.writeable = False
    return g


def _chunk_normals(seed: int, chunk: int, m: int, d: int) -> np.ndarray:
    """``_normals``, through the cache for leading chunks of small enough blocks."""
    if chunk < MC_CACHED_CHUNKS and m * d <= MC_CACHED_BLOCK:
        return _normals(seed, chunk, m, d)
    return _normals.__wrapped__(seed, chunk, m, d)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _MCScratch:
    """One worker's block buffers, reused across integrands and chunks.

    X holds a block's real coordinates, Y its phase terms; once Y is built
    from X, the phase is summed into X's memory and its exponential written
    into Y's, so a block needs these two (2n, block) arrays and its values h.
    """

    def __init__(self, d: int):
        block = MC_BLOCK_TILES * MC_TILE
        self.X = np.empty(d * block)
        self.Y = np.empty(d * block)
        self.h = np.empty(block, dtype=complex)


class _MCIntegrand:
    """One integrand's sampler: its Gaussian's mean, Cholesky factor and prefactor, and its sums."""

    def __init__(self, pg: PolyGaussian):
        S, b, c = pg.real_form()
        SR, bR = S.real, b.real
        self.pg = pg
        self.d = S.shape[0]
        cov = np.linalg.inv(-2.0 * SR)
        mu = np.linalg.solve(-2.0 * SR, bR)
        self.chol = np.linalg.cholesky(cov)
        sign, logdet = np.linalg.slogdet(cov)
        req_mu = mu @ SR @ mu + bR @ mu + c.real
        log_norm = 0.5 * self.d * np.log(2 * np.pi) + 0.5 * logdet
        self.prefactor = np.exp(req_mu + log_norm)
        self.SI, self.bI, self.cI = S.imag, b.imag[:, None], c.imag
        self.mu = mu[:, None]
        self.total = 0.0 + 0.0j
        self.total_sq = 0.0

    def add_chunk(self, g: np.ndarray, scratch: _MCScratch):
        """Add the samples of one chunk's normals g, shape (2n, m), to the sums.

        The chunk is evaluated in blocks of MC_BLOCK_TILES tiles, and the sums
        of h and |h|^2 are taken per tile, in tile order.
        """
        d, m = g.shape
        tile = MC_TILE
        for start in range(0, m, MC_BLOCK_TILES * tile):
            n = min(MC_BLOCK_TILES * tile, m - start)
            # rows of X are the real coordinates (Re z_0, Im z_0, ...) of the block
            X = np.matmul(self.chol, g[:, start:start + n], out=scratch.X[:d * n].reshape(d, n))
            X += self.mu
            h = self.pg._poly_values(X, scratch.h[:n])
            # the phase x^T SI x + bI.x + cI, built in one (2n, block) buffer
            Y = np.matmul(self.SI, X, out=scratch.Y[:d * n].reshape(d, n))
            Y += self.bI
            Y *= X
            phase = np.sum(Y, axis=0, out=scratch.X[:n])
            phase += self.cI
            rotation = np.multiply(1j, phase, out=scratch.Y[:2 * n].view(complex))
            h *= np.exp(rotation, out=rotation)
            for lo in range(0, n, tile):
                part = h[lo:lo + tile]
                self.total += part.sum()
                self.total_sq += np.vdot(part, part).real


def _monte_carlo(pgs, cfg: IntegrationConfig) -> list[tuple[complex, float]]:
    """(mean, standard error) of each integrand, chunk by chunk, one worker per usable CPU.

    Each chunk's normals are fetched once and shared by every integrand; its
    integrands are evaluated concurrently, one task per integrand, and the
    next chunk starts when all of them are done.  The results, warnings and
    exceptions come back in integrand order, in the calling thread.
    """
    samplers = [_MCIntegrand(pg) for pg in pgs]
    d = samplers[0].d
    workers = min(len(samplers), _usable_cpus())
    local = threading.local()

    def task(sampler, g):
        if not hasattr(local, "scratch"):
            local.scratch = _MCScratch(d)
        sampler.add_chunk(g, local.scratch)

    def chunks():
        for chunk, start in enumerate(range(0, cfg.sample_count, MC_CHUNK)):
            yield _chunk_normals(cfg.seed, chunk, min(MC_CHUNK, cfg.sample_count - start), d)

    # imported here: it costs about 3 ms, and a Gauss-Hermite run never needs it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        for g in chunks():
            for _ in pool.map(task, samplers, [g] * len(samplers)):
                pass  # reading each result re-raises its task's exception here

    count = cfg.sample_count
    results = []
    for sampler in samplers:
        mean = sampler.prefactor * sampler.total / count
        var = max(sampler.prefactor**2 * sampler.total_sq / count - abs(mean) ** 2, 0.0)
        stderr = float(np.sqrt(var / count))
        if abs(mean) > 0 and stderr / abs(mean) > MC_RELATIVE_ERROR_WARN:
            warnings.warn(
                f"MC relative standard error {stderr / abs(mean):.1%} exceeds "
                f"{MC_RELATIVE_ERROR_WARN:.0%}; increase sample_count",
                VarianceWarning,
                stacklevel=3,
            )
        results.append((complex(mean), stderr))
    return results


def integrate(integrands, cfg: IntegrationConfig):
    """Integrate a PolyGaussian, or a sequence of them, over C^n with d^2z = dx dy.

    Returns (value, error_estimate) for one integrand, and a list of them in
    order for a sequence, whose integrands share one variable count.  The
    estimate is 0 for the deterministic quadrature engine and the combined
    standard error for Monte Carlo.  Gauss-Hermite takes three variables with
    no (0, 1) coupling, and raises ``QuadratureDimensionError`` naming Monte
    Carlo on any other shape; it integrates the sequence in batches of up to
    ``GH_CHUNK_BYTES`` / (16 nodes^2) integrands, a whole series of the
    default grid in one.  Monte Carlo samples the sequence chunk by chunk,
    its integrands concurrently on a pool of one thread per usable CPU.
    """
    single = isinstance(integrands, PolyGaussian)
    pgs = [integrands] if single else list(integrands)
    gauss_hermite = cfg.engine == "gauss_hermite_tensor"
    _check(pgs, gauss_hermite)
    if gauss_hermite:
        step = max(1, GH_CHUNK_BYTES // (16 * cfg.nodes_per_axis**2))
        results = [(value, 0.0) for lo in range(0, len(pgs), step)
                   for value in _quadrature(pgs[lo:lo + step], cfg)]
    else:
        results = _monte_carlo(pgs, cfg)
    return results[0] if single else results
