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
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .core import SparseSystem, UndirectedGraph, check_tolerance
from .errors import (
    DimensionMismatchError,
    InvalidSystemError,
    NoConvergenceError,
)

RHO_TOL_DEFAULT = 1e-9
#: components up to this size get their Perron vector from a dense eig
DENSE_EIG_MAX_N = 64
#: inverse iteration: at most this many steps, shift lambda * (1 + 1e-8)
INVERSE_STEPS = 20
INVERSE_SHIFT = 1e-8

MatrixLike = Union[np.ndarray, sp.spmatrix]


@dataclass(frozen=True, eq=False)
class ResidualMatrix:
    """Off-diagonal residual entries r_ij = -a_ij / a_ii; diagonal is zero.

    The entries are stored once, as a read-only canonical CSR matrix
    ``csr``; stored zeros are kept.
    """

    n: int
    csr: sp.csr_matrix

    def __init__(self, n: int, entries):
        """entries are (i, j, r_ij) triples or an (m, 3) array of them; a
        repeated (i, j) is stored once, as the sum of its values."""
        i, j, v = np.asarray(entries, dtype=float).reshape(-1, 3).T
        csr = sp.csr_matrix((v, (i.astype(np.intp), j.astype(np.intp))),
                            shape=(n, n))
        for a in (csr.data, csr.indices, csr.indptr):
            a.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "csr", csr)

    def value(self, i: int, j: int) -> float:
        indptr, indices = self.csr.indptr, self.csr.indices
        lo, hi = indptr[i], indptr[i + 1]
        k = lo + int(np.searchsorted(indices[lo:hi], j))
        return float(self.csr.data[k]) if k < hi and indices[k] == j else 0.0

    def as_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def graph(self) -> UndirectedGraph:
        rows = np.repeat(np.arange(self.n), np.diff(self.csr.indptr))
        return UndirectedGraph(self.n, np.column_stack((rows,
                                                        self.csr.indices)))


def residual_matrix(sys: SparseSystem) -> ResidualMatrix:
    """Build R = I - D^-1 A restricted to its off-diagonal entries:
    r_ij = -a_ij / a_ii for every stored a_ij != 0 with i != j."""
    keep = (sys.rows != sys.indices) & (sys.data != 0.0)
    rows = sys.rows[keep]
    with np.errstate(all="ignore"):
        vals = -sys.data[keep] / sys.diag[rows]
    return ResidualMatrix(sys.n, np.column_stack((rows, sys.indices[keep],
                                                  vals)))


def _abs_residual_csr(sys: SparseSystem) -> sp.csr_matrix:
    """|R| as a canonical CSR matrix, for _certify."""
    return _as_csr_nonneg(abs(residual_matrix(sys).csr))


def _as_csr_nonneg(m: MatrixLike) -> sp.csr_matrix:
    """A canonical CSR copy: summed duplicates, sorted indices, no zeros."""
    if not sp.issparse(m) and np.ndim(m) != 2:
        raise DimensionMismatchError(
            f"expected a square matrix, got shape {np.shape(m)}")
    csr = sp.csr_matrix(m, dtype=float, copy=True)
    if csr.shape[0] != csr.shape[1]:
        raise DimensionMismatchError(
            f"expected a square matrix, got shape {csr.shape}")
    csr.sum_duplicates()
    csr.eliminate_zeros()
    if csr.nnz and csr.data.min() < 0:
        raise InvalidSystemError("matrix must be entrywise nonnegative")
    if not np.all(np.isfinite(csr.data)):
        raise InvalidSystemError("matrix has non-finite entries")
    return csr


def _cw_bounds(b: sp.csr_matrix, x: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt bounds on rho(b) from a nonnegative x != 0: the
    min of (bx)_i / x_i over the support of x, and the max when x > 0."""
    if not np.all(np.isfinite(x)):
        return 0.0, math.inf
    pos = x > 0
    ratios = (b @ x)[pos] / x[pos]
    return float(ratios.min()), float(ratios.max()) if pos.all() else math.inf


def _perron_vectors(b: sp.csr_matrix):
    """Yield ("perron", |v|) for b's eigenvector v of largest real part,
    then ("inverse", x) per step of inverse iteration with sigma just
    above that eigenvalue, each scaled to max 1.  (sigma I - b)^-1 > 0
    once sigma > rho(b), so the iterates stay positive and resolve the
    tiny Perron entries of trees, whose LU has no fill in minimum-degree
    order."""
    from scipy.sparse.linalg import eigs, splu
    k = b.shape[0]
    if k <= DENSE_EIG_MAX_N:
        w, v = np.linalg.eig(b.toarray())
        i = int(np.argmax(w.real))
    else:
        w, v = eigs(b, k=1, which="LR", v0=np.ones(k))
        i = 0
    x = np.abs(v[:, i].real)
    yield "perron", x / x.max()
    sigma = w[i].real * (1.0 + INVERSE_SHIFT)
    try:
        lu = splu((sp.identity(k, format="csc") * sigma - b).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular: sigma hit an eigenvalue
        return
    for _ in range(INVERSE_STEPS):
        x = np.abs(lu.solve(x))
        yield "inverse", x / x.max()


def _certify(csr: sp.csr_matrix, tol: float):
    """(lo, hi, closed, x, route) for rho of a canonical nonnegative CSR
    matrix: the interval, whether it is within tol, a GDD candidate x
    (max 1) and the route of the component that sets hi.  Each strongly
    connected component starts from its row sums ("dominance"); one open
    above lo gets Perron vectors ("perron", "inverse") until it closes.
    An ARPACK failure keeps the row sums.  tol must be finite and >= 0."""
    check_tolerance(tol)
    from scipy.sparse import csgraph
    from scipy.sparse.linalg import ArpackError
    n = csr.shape[0]
    ncomp, labels = csgraph.connected_components(
        csr, directed=True, connection="strong")
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    inner = labels[rows] == labels[csr.indices]
    sums = np.bincount(rows[inner], csr.data[inner], minlength=n)
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(ncomp))
    ends = np.append(starts[1:], n)
    lo_c = np.minimum.reduceat(sums[order], starts)
    hi_c = np.maximum.reduceat(sums[order], starts)
    route_c = ["dominance"] * ncomp
    x = np.ones(n)
    lo = float(lo_c.max())

    def is_open(c):
        return hi_c[c] - lo_c[c] > tol * max(1.0, hi_c[c]) and hi_c[c] > lo

    for c in sorted(filter(is_open, range(ncomp)), key=lambda c: -hi_c[c]):
        if not is_open(c):
            continue
        nodes = order[starts[c]:ends[c]]
        b = csr[nodes][:, nodes]
        try:
            for route, xc in _perron_vectors(b):
                blo, bhi = _cw_bounds(b, xc)
                lo_c[c] = max(lo_c[c], blo)
                if bhi < hi_c[c]:
                    hi_c[c], route_c[c], x[nodes] = bhi, route, xc
                lo = max(lo, float(lo_c[c]))
                if not is_open(c):
                    break
        except ArpackError:
            pass
    # scale components sinks first (scipy gives them lower labels; the
    # scaling is validated anyway) so that each row's terms from other
    # components fit in the slack of its own
    cross = sp.csr_matrix((csr.data * ~inner, csr.indices, csr.indptr),
                          shape=(n, n))
    slack = x - (csr - cross) @ x
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in np.unique(labels[rows[~inner]]):
            nodes = order[starts[c]:ends[c]]
            need = cross[nodes] @ x / slack[nodes]
            x[nodes] *= max(1.0, 2.0 * need.max())
    top = int(np.argmax(hi_c))
    hi = float(hi_c[top])
    return lo, hi, hi - lo <= tol * max(1.0, hi), x / x.max(), route_c[top]


def spectral_radius_nonneg(m: MatrixLike, tol: float = RHO_TOL_DEFAULT
                           ) -> float:
    """Spectral radius of an entrywise-nonnegative matrix.

    Returns the midpoint of a certified interval (see _certify) once it
    is at most tol * max(1, hi) wide.  Raises NoConvergenceError carrying
    the interval when it stays wider, e.g. when ARPACK does not converge
    within its default iteration count.
    """
    check_tolerance(tol)
    csr = _as_csr_nonneg(m)
    if csr.shape[0] == 0:
        return 0.0
    lo, hi, closed, _, route = _certify(csr, tol)
    if not closed:
        raise NoConvergenceError(
            f"interval [{lo:.6g}, {hi:.6g}] for rho did not close (route "
            f"{route})", estimate=0.5 * (lo + hi), lower=lo, upper=hi)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of the dominance / walk-summability analysis.

    rho(|R|) lies in [rho_lo, rho_hi], certified by the vector route
    names (see _certify); rho_abs is the midpoint, rho_reliable when the
    width is at most rho_tol * max(1, rho_hi).  walk_summable is True
    when rho_hi + rho_tol < 1 or the system is strictly diagonally
    dominant, False when rho_lo - rho_tol > 1, else None.  scaling is
    sought only on a walk-summable verdict; if any, it is a positive d
    validated to make A D strictly dominant.
    """

    diag_dominant: bool
    rho_abs: float
    rho_tol: float
    walk_summable: Optional[bool]
    scaling: Optional[tuple[float, ...]]
    rho_reliable: bool
    rho_lo: float
    rho_hi: float
    route: str


def _validate_scaling(sys: SparseSystem, d: np.ndarray) -> bool:
    """|a_ii| d_i > sum_j |a_ij| d_j in every row, each sum taken in
    column order (np.bincount adds its weights in sequence)."""
    if not np.all(np.isfinite(d)) or not np.all(d > 0):
        return False
    off = sys.rows != sys.indices
    sums = np.bincount(sys.rows[off],
                       np.abs(sys.data[off]) * d[sys.indices[off]], sys.n)
    return bool(np.all(np.abs(sys.diag) * d > sums))


def is_diagonally_dominant(sys: SparseSystem) -> bool:
    """Strict row dominance: |a_ii| > sum of |a_ij| over j != i, every row."""
    return _validate_scaling(sys, np.ones(sys.n))


def _perron_scaling(sys: SparseSystem, x: np.ndarray
                    ) -> Optional[tuple[float, ...]]:
    return tuple(map(float, x)) if _validate_scaling(sys, x) else None


def find_gdd_scaling(sys: SparseSystem, rho_tol: float = RHO_TOL_DEFAULT
                     ) -> Optional[tuple[float, ...]]:
    """Hunt for a positive d with |a_ii| d_i > sum_j |a_ij| d_j, all rows.

    Already-dominant systems return all-ones.  Otherwise the candidate is
    the vector that certified the upper bound on rho(|R|), kept only if
    it passes strict validation, so a returned vector is always a genuine
    certificate while None proves nothing.
    """
    check_tolerance(rho_tol, "rho_tol")
    if is_diagonally_dominant(sys):
        return (1.0,) * sys.n
    abs_r = _abs_residual_csr(sys)
    return _perron_scaling(sys, _certify(abs_r, rho_tol)[3])


def analyze(sys: SparseSystem, rho_tol: float = RHO_TOL_DEFAULT
            ) -> DominanceReport:
    """Combined dominance check, certified rho(|R|) interval, and verdict.

    One certification serves rho and, on a walk-summable verdict, the
    scaling; they equal, bit for bit, what spectral_radius_nonneg and
    find_gdd_scaling return.
    """
    dom = is_diagonally_dominant(sys)
    abs_r = _abs_residual_csr(sys)
    lo, hi, closed, x, route = _certify(abs_r, rho_tol)
    if dom or hi + rho_tol < 1.0:
        walk_summable: Optional[bool] = True
    elif lo - rho_tol > 1.0:
        walk_summable = False
    else:
        walk_summable = None
    scaling = None
    if walk_summable:
        scaling = (1.0,) * sys.n if dom else _perron_scaling(sys, x)
    return DominanceReport(
        diag_dominant=dom, rho_abs=0.5 * (lo + hi), rho_tol=rho_tol,
        walk_summable=walk_summable, scaling=scaling,
        rho_reliable=closed, rho_lo=lo, rho_hi=hi, route=route)
