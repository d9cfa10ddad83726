"""Dominance and walk-summability analysis of sparse systems.

The central object is the residual matrix R with r_ij = -a_ij / a_ii off
the diagonal and zeros on it.  The solver's convergence theory hinges on
the spectral radius of |R| (entrywise magnitudes): strictly below one
means the instance is walk-summable, and a positive vector d certifying
generalized diagonal dominance (|a_ii| d_i > sum_j |a_ij| d_j) exists
exactly in that case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .core import SparseSystem, UndirectedGraph
from .errors import (
    DimensionMismatchError,
    InvalidSystemError,
    NoConvergenceError,
    NonPositiveLambdaError,
    ZeroDiagonalError,
)

RHO_TOL_DEFAULT = 1e-9
#: uniform coupling added while iterating so reducible patterns still mix
EPS_COUPLING = 1e-12
#: dense exact fallback is only attempted up to this size
SQUARING_MAX_N = 2048
SQUARING_ROUNDS = 48

MatrixLike = Union[np.ndarray, sp.spmatrix]


def default_max_iter(n: int) -> int:
    return 10 * n + 1000


@dataclass(frozen=True)
class ResidualMatrix:
    """Off-diagonal residual entries r_ij = -a_ij / a_ii; diagonal is zero."""

    n: int
    entries: tuple[tuple[int, int, float], ...]

    @cached_property
    def _map(self) -> dict:
        return {(i, j): v for i, j, v in self.entries}

    def value(self, i: int, j: int) -> float:
        return self._map.get((i, j), 0.0)

    def as_dense(self) -> np.ndarray:
        r = np.zeros((self.n, self.n))
        for i, j, v in self.entries:
            r[i, j] = v
        return r

    def abs_csr(self) -> sp.csr_matrix:
        """Entrywise magnitudes |R| as a CSR matrix."""
        if not self.entries:
            return sp.csr_matrix((self.n, self.n))
        rows, cols, vals = zip(*self.entries)
        return sp.csr_matrix(
            (np.abs(vals), (rows, cols)), shape=(self.n, self.n))

    def graph(self) -> UndirectedGraph:
        edges = {(min(i, j), max(i, j)) for i, j, _ in self.entries}
        return UndirectedGraph(self.n, sorted(edges))


def residual_matrix(sys: SparseSystem) -> ResidualMatrix:
    """Build R = I - D^-1 A restricted to its off-diagonal entries."""
    out = []
    for i, j, v in sys.entries:
        if i == j:
            if v == 0.0:
                raise ZeroDiagonalError(f"zero diagonal at row {i}")
            continue
        if v != 0.0:
            out.append((i, j, -v / sys.diag[i]))
    return ResidualMatrix(sys.n, tuple(out))


def _as_csr_nonneg(m: MatrixLike) -> sp.csr_matrix:
    if sp.issparse(m):
        csr = m.tocsr().astype(float)
    else:
        arr = np.asarray(m, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatchError(
                f"expected a square matrix, got shape {arr.shape}")
        csr = sp.csr_matrix(arr)
    if csr.shape[0] != csr.shape[1]:
        raise DimensionMismatchError(
            f"expected a square matrix, got shape {csr.shape}")
    if csr.nnz and csr.data.min() < 0:
        raise InvalidSystemError("matrix must be entrywise nonnegative")
    if not np.all(np.isfinite(csr.data)):
        raise InvalidSystemError("matrix has non-finite entries")
    return csr


def _power_bracket(csr: sp.csr_matrix, tol: float, max_iter: int):
    """Power iteration with a certified two-sided bracket on rho.

    The iterate follows x <- (I + M + eps*J) x so that even periodic or
    reducible patterns keep mixing and x stays strictly positive, but the
    bounds are evaluated against the raw M: for any x > 0,
    min_i (Mx)_i/x_i <= rho(M) <= max_i (Mx)_i/x_i, so the tightest
    bounds seen over all iterates certify a shrinking interval.

    Returns (lo, hi, x, iterations, converged).
    """
    n = csr.shape[0]
    x = np.full(n, 1.0 / n)
    lo_best, hi_best = 0.0, math.inf
    it = 0
    for it in range(1, max_iter + 1):
        mx = csr @ x
        ratios = mx / x
        lo_best = max(lo_best, float(ratios.min()))
        hi_best = min(hi_best, float(ratios.max()))
        if hi_best - lo_best <= tol * max(1.0, hi_best):
            return lo_best, hi_best, x, it, True
        y = x + mx + EPS_COUPLING * x.sum()
        x = y / y.sum()
    return lo_best, hi_best, x, it, False


def spectral_radius_nonneg(m: MatrixLike, tol: float = RHO_TOL_DEFAULT,
                           max_iter: Optional[int] = None) -> float:
    """Spectral radius of an entrywise-nonnegative matrix.

    Runs the bracketing power iteration from a strictly positive start
    and returns the bracket midpoint once its width drops below
    tol * max(1, estimate).  Raises NoConvergenceError carrying the best
    bracket when max_iter (default 10n + 1000) is exhausted first; that
    happens for strongly reducible patterns whose regularized Perron
    vector is too skewed for the bracket to close.
    """
    csr = _as_csr_nonneg(m)
    n = csr.shape[0]
    if csr.nnz == 0:
        return 0.0
    if max_iter is None:
        max_iter = default_max_iter(n)
    lo, hi, _, _, ok = _power_bracket(csr, tol, max_iter)
    mid = 0.5 * (lo + hi) if math.isfinite(hi) else lo
    if not ok:
        raise NoConvergenceError(
            f"bracket [{lo:.6g}, {hi:.6g}] still open after {max_iter} "
            "iterations", estimate=mid, lower=lo, upper=hi)
    return mid


def _spectral_radius_squaring(dense: np.ndarray,
                              rounds: int = SQUARING_ROUNDS) -> float:
    """Exact-to-roundoff rho for a nonnegative matrix via norm squaring.

    ||M^(2^k)||_inf ** (1/2^k) converges to rho from above with error
    factor n**(1/2^k); after ~48 normalized squarings the factor is below
    double-precision resolution.  Cost is O(rounds * n^3) dense flops, so
    this is the fallback route for matrices the bracketing iteration
    cannot certify, guarded to n <= SQUARING_MAX_N.
    """
    b = np.asarray(dense, dtype=float)
    s0 = float(np.abs(b).sum(axis=1).max())
    if s0 == 0.0:
        return 0.0
    b = b / s0
    log_rho = math.log(s0)
    for k in range(1, rounds + 1):
        b = b @ b
        s = float(np.abs(b).sum(axis=1).max())
        if s == 0.0:
            return 0.0  # nilpotent
        b = b / s
        log_rho += math.log(s) / (1 << k)
    return math.exp(log_rho)


def is_diagonally_dominant(sys: SparseSystem) -> bool:
    """Strict row dominance: |a_ii| > sum of |a_ij| over j != i, every row."""
    for i in range(sys.n):
        off = sum(abs(v) for j, v in sys.by_row[i].items() if j != i)
        if not abs(sys.diag[i]) > off:
            return False
    return True


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of the dominance / walk-summability analysis.

    walk_summable is three-valued: True / False when the spectral radius
    estimate is certified (or plain dominance already settles it), None
    when the estimate could not be certified at this size.  scaling, when
    present, is a positive vector d validated to make the column-scaled
    matrix strictly diagonally dominant.
    """

    diag_dominant: bool
    rho_abs: float
    rho_tol: float
    walk_summable: Optional[bool]
    scaling: Optional[tuple[float, ...]] = None
    rho_reliable: bool = True


def _validate_scaling(sys: SparseSystem, d: np.ndarray) -> bool:
    if not np.all(np.isfinite(d)) or not np.all(d > 0):
        return False
    for i in range(sys.n):
        off = sum(abs(v) * d[j] for j, v in sys.by_row[i].items() if j != i)
        if not abs(sys.diag[i]) * d[i] > off:
            return False
    return True


def _perron_scaling(sys: SparseSystem, x: np.ndarray
                    ) -> Optional[tuple[float, ...]]:
    """The bracket's iterate x scaled to max 1, if it certifies GDD."""
    d = x / x.max()
    if _validate_scaling(sys, d):
        return tuple(float(v) for v in d)
    return None


def find_gdd_scaling(sys: SparseSystem, rho_tol: float = RHO_TOL_DEFAULT,
                     max_iter: Optional[int] = None
                     ) -> Optional[tuple[float, ...]]:
    """Hunt for a positive d with |a_ii| d_i > sum_j |a_ij| d_j, all rows.

    Already-dominant systems return all-ones.  Otherwise the candidate is
    the (regularization-mixed) Perron direction of |R|, kept only if it
    passes strict validation, so a returned vector is always a genuine
    certificate while None proves nothing.
    """
    ones = np.ones(sys.n)
    if _validate_scaling(sys, ones):
        return tuple(ones)
    csr = residual_matrix(sys).abs_csr()
    if csr.nnz == 0:
        return None  # no off-diagonals and still not dominant: impossible
    if max_iter is None:
        max_iter = default_max_iter(sys.n)
    _, _, x, _, _ = _power_bracket(csr, rho_tol, max_iter)
    return _perron_scaling(sys, x)


def analyze(sys: SparseSystem, rho_tol: float = RHO_TOL_DEFAULT,
            max_iter: Optional[int] = None,
            want_scaling: bool = True) -> DominanceReport:
    """Combined dominance check, rho(|R|) estimate, and verdict.

    The verdict is rho_abs + rho_tol < 1 when the estimate is certified.
    Strict diagonal dominance alone already implies walk-summability, so
    a dominant system is reported True no matter how close the estimate
    sits to one.  If neither the bracketing iteration nor the dense
    squaring fallback (n <= SQUARING_MAX_N) can certify rho, the verdict
    is None (indeterminate) and rho_reliable is False.

    One power bracket serves rho and the scaling.  They equal, bit for
    bit, what spectral_radius_nonneg (or the squaring fallback) and
    find_gdd_scaling return: those run the same bracket on the same |R|.
    """
    dom = is_diagonally_dominant(sys)
    rm = residual_matrix(sys)
    csr = _as_csr_nonneg(rm.abs_csr())
    if max_iter is None:
        max_iter = default_max_iter(sys.n)
    reliable = True
    x = None
    if csr.nnz == 0:
        rho = 0.0
    else:
        lo, hi, x, _, ok = _power_bracket(csr, rho_tol, max_iter)
        rho = 0.5 * (lo + hi) if math.isfinite(hi) else lo
        if not ok:
            if sys.n <= SQUARING_MAX_N:
                rho = _spectral_radius_squaring(np.abs(rm.as_dense()))
            else:
                reliable = False
    if dom:
        walk_summable: Optional[bool] = True
    elif reliable:
        walk_summable = bool(rho + rho_tol < 1.0)
    else:
        walk_summable = None
    scaling = None
    if want_scaling and walk_summable:
        ones = np.ones(sys.n)
        if _validate_scaling(sys, ones):
            scaling = tuple(ones)
        elif x is not None:
            scaling = _perron_scaling(sys, x)
    return DominanceReport(diag_dominant=dom, rho_abs=float(rho),
                           rho_tol=rho_tol, walk_summable=walk_summable,
                           scaling=scaling, rho_reliable=reliable)


def _to_coo(a) -> sp.coo_matrix:
    if sp.issparse(a):
        return a.tocoo()
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"expected a 2-d matrix, got ndim={arr.ndim}")
    return sp.coo_matrix(arr)


def preprocess_overdetermined(a, b: Sequence[float]) -> SparseSystem:
    """Reduce a tall system A x = b (m > n) to the square normal equations.

    Returns the SparseSystem (A^T A) x = A^T b.  A zero column of A leaves
    a zero diagonal and is rejected by the system constructor.
    """
    coo = _to_coo(a)
    m, n = coo.shape
    if m <= n:
        raise DimensionMismatchError(
            f"need strictly more rows than columns, got {m}x{n}")
    bv = np.asarray(b, dtype=float)
    if bv.shape != (m,):
        raise DimensionMismatchError(
            f"right-hand side has shape {bv.shape}, expected ({m},)")
    ata = (coo.T @ coo).tocoo()
    atb = coo.T @ bv
    entries = [(int(i), int(j), float(v))
               for i, j, v in zip(ata.row, ata.col, ata.data) if v != 0.0]
    return SparseSystem(n, entries, atb)


def preprocess_underdetermined(a, b: Sequence[float],
                               lam: float) -> SparseSystem:
    """Regularize a square (zero-padded) rank-deficient system to (A + lam*I).

    lam must be strictly positive; zero-padding a wide system up to square
    shape is the caller's job.
    """
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0):
        raise NonPositiveLambdaError(
            f"regularization weight must be > 0, got {lam!r}")
    coo = _to_coo(a)
    m, n = coo.shape
    if m != n:
        raise DimensionMismatchError(
            f"expected a square (zero-padded) matrix, got {m}x{n}")
    bv = np.asarray(b, dtype=float)
    if bv.shape != (n,):
        raise DimensionMismatchError(
            f"right-hand side has shape {bv.shape}, expected ({n},)")
    vals: dict[tuple[int, int], float] = {}
    for i, j, v in zip(coo.row, coo.col, coo.data):
        if v != 0.0:
            vals[(int(i), int(j))] = vals.get((int(i), int(j)), 0.0) + float(v)
    for i in range(n):
        vals[(i, i)] = vals.get((i, i), 0.0) + float(lam)
    entries = [(i, j, v) for (i, j), v in vals.items() if v != 0.0]
    return SparseSystem(n, entries, bv)
