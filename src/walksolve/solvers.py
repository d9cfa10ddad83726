"""Solver programs: message-passing solver, baselines, dense reference.

The message-passing solver keeps one pair of scalars per directed edge.
With N_i the neighbors of i and incoming pairs (a_{v->i}, b_{v->i}) from
the previous round, node i computes

    a~_i = a_ii - sum_v a_vi * a_iv / a_{v->i}
    b~_i = b_i  - sum_v a_iv * b_{v->i} / a_{v->i}
    x^_i = b~_i / a~_i

and sends to each neighbor j the pair with j's own contribution added
back in:

    a_{i->j} = a~_i + a_ji * a_ij / a_{j->i}
    b_{i->j} = b~_i + a_ij * b_{j->i} / a_{j->i}

so the work per node stays proportional to its degree.  Round 0 sends
(a_ii, b_i) on every edge and estimates x^_i = b_i / a_ii.

On walk-summable instances every a-scalar stays strictly positive; on
acyclic instances the estimates are exact after diameter-many rounds and
the messages are stationary from the round before that.
"""
from __future__ import annotations

import math
import warnings
from typing import Iterator, Optional

import numpy as np

from . import analysis
from .core import (SparseSystem, UndirectedGraph, check_tolerance, diameter,
                   is_acyclic)
from .engine import (ConvergenceTrace, NodeProgram, check_max_rounds,
                     run_rounds)
from .errors import (
    DimensionMismatchError,
    DivergedEstimateError,
    NotWalkSummableError,
    NotWalkSummableWarning,
    SingularMatrixError,
    SingularMessageError,
    SolverError,
    TooLargeError,
    ZeroRowError,
)

#: |estimate| beyond this aborts the run as diverged
ESTIMATE_LIMIT = 1e150
#: incoming scalars at or below 1e-12 * (node's own coefficient scale) fault
SING_EPS_FACTOR = 1e-12
PIVOT_EPS = 1e-14
RESIDUAL_FACTOR = 1e-10
#: bp_solve's round cap on a cyclic system, and walksolve solve's for bp
BP_MAX_ROUNDS = 500
#: bp_solve's step tolerance, and the default of the CLI's --tol
TOL_DEFAULT = 1e-10
#: consensus's array rounds hold three n x n float arrays; above this
#: many floats in all, the run is refused before round 0
MAX_ROUND_FLOATS = 10 ** 8


def _replay(bad: np.ndarray, transition) -> None:
    """Re-run the smallest flagged node's per-node transition, which
    raises its fault, with ``node`` set; no node flagged, nothing happens.
    The array forms only locate the node: the program's own transition
    decides the error's type and message."""
    if not bad.any():
        return
    node = int(np.argmax(bad))
    try:
        transition(node)
    except SolverError as exc:
        exc.node = node
        raise
    raise RuntimeError(f"array form flagged node {node}, but its "
                       "per-node transition did not fault")


def _a_iv(sys: SparseSystem) -> np.ndarray:
    """a_iv over the slots s = (i -> v) of sys.graph, 0.0 where no (i, v)
    is stored.  The last stored key, (n-1, n-1)'s, tops every slot's."""
    g = sys.graph
    stored = sys.rows * sys.n + sys.indices  # ascending: CSR order
    wanted = g.owner * sys.n + g.nbr
    k = np.searchsorted(stored, wanted)
    return np.where(stored[k] == wanted, sys.data[k], 0.0)


def _inbox(g: UndirectedGraph, node: int, values: np.ndarray) -> dict:
    """node's inbox in a fault replay: v -> values[s], s = (node -> v)."""
    s = slice(g.indptr[node], g.indptr[node + 1])
    return dict(zip(g.nbr[s].tolist(), values[s].tolist()))


def _check_estimate(node: int, x_hat: float) -> float:
    if not (abs(x_hat) <= ESTIMATE_LIMIT):
        raise DivergedEstimateError(
            f"node {node}: estimate {x_hat!r} out of range")
    return x_hat


# ---------------------------------------------------------------------------
# message-passing solver


class BPProgram(NodeProgram):
    """The message-passing solver, one node at a time.

    The coefficients are built once, over the slots s = (i -> v) of
    ``sys.graph``: a_iv, a_vi, and each node's singularity threshold,
    SING_EPS_FACTOR times the largest of |a_ii|, |a_iv| and |a_vi|.  A
    node's state is its estimate.
    """

    check_positive_a = True

    def __init__(self, sys: SparseSystem):
        self.sys = sys
        g = sys.graph
        self._a_iv = _a_iv(sys)
        self._a_vi = self._a_iv[g.rev]
        scale = np.abs(sys.diag)
        np.maximum.at(scale, g.owner,
                      np.maximum(np.abs(self._a_iv), np.abs(self._a_vi)))
        self._eps = SING_EPS_FACTOR * scale

    def init_node(self, node: int):
        """Round 0: every edge carries (a_ii, b_i), estimate b_i / a_ii."""
        sys = self.sys
        a_ii, b_i = float(sys.diag[node]), float(sys.b[node])
        if abs(a_ii) <= self._eps[node]:
            raise SingularMessageError(f"node {node}: diagonal {a_ii!r} "
                                       "too small to seed messages")
        x_hat = _check_estimate(node, b_i / a_ii)
        return x_hat, {j: (a_ii, b_i) for j in sys.graph.neighbors[node]}

    def step(self, node: int, state, inbox):
        """One node update from the previous round's incoming pairs.

        inbox maps every neighbor v to its pair (a_{v->i}, b_{v->i}); the
        outbox maps every neighbor j to (a_{i->j}, b_{i->j}).
        """
        sys = self.sys
        g = sys.graph
        s = slice(g.indptr[node], g.indptr[node + 1])
        nbrs = g.neighbors[node]
        eps = float(self._eps[node])
        terms = []
        s_a = 0.0
        s_b = 0.0
        for v, a_iv, a_vi in zip(nbrs, self._a_iv[s].tolist(),
                                 self._a_vi[s].tolist()):
            a_in, b_in = inbox[v]
            if abs(a_in) <= eps:
                raise SingularMessageError(
                    f"node {node}: incoming scalar {a_in!r} from {v} is "
                    "numerically zero")
            iv = 1.0 / a_in
            t_a = a_iv * a_vi * iv
            t_b = a_iv * b_in * iv
            terms.append((t_a, t_b))
            s_a += t_a
            s_b += t_b
        a_tilde = float(sys.diag[node]) - s_a
        b_tilde = float(sys.b[node]) - s_b
        if abs(a_tilde) <= eps:
            raise SingularMessageError(
                f"node {node}: aggregate scalar {a_tilde!r} is numerically "
                "zero")
        x_hat = _check_estimate(node, b_tilde / a_tilde)
        out = {}
        for j, (t_a, t_b) in zip(nbrs, terms):
            a_out = a_tilde + t_a
            b_out = b_tilde + t_b
            if not (math.isfinite(a_out) and math.isfinite(b_out)):
                raise DivergedEstimateError(
                    f"node {node}: outgoing pair to {j} is not finite")
            out[j] = (a_out, b_out)
        return x_hat, out

    def costs(self, deg: np.ndarray, n: int):
        return 2 * deg + 1, 11 * deg + 3, 7 * deg + 5, deg

    def messages(self) -> Iterator:
        """init_node / step for every node at once on the graph's arrays:
        a generator of (estimates, a_msg, b_msg) for rounds 0, 1, 2, ...

        Each expression is the one step evaluates, and the per-node sums
        run in neighbor order (np.bincount adds its weights in sequence),
        so messages and estimates equal the per-node path's bit for bit.
        (a_msg[s], b_msg[s]) is the pair owner[s] sent nbr[s] in the
        round: views into one flat [a | b] array, new every round.  The
        fault mask is built only when a screen trips: min(|a_in| - eps)
        > 0, min(|a~| - eps) > 0, max|x^| <= ESTIMATE_LIMIT and a finite
        message sum.  Each fails on NaN, and x - y > 0 exactly when x > y,
        so a passing screen proves the mask empty; one that trips with no
        fault (the sum overflows) finds it empty, and the run goes on.
        """
        sys = self.sys
        g = sys.graph
        n, m = g.n, len(g.nbr)
        a_ii, b_i, owner, a_iv, eps = (sys.diag, sys.b, g.owner, self._a_iv,
                                       self._eps)
        rev2 = np.concatenate((g.rev, g.rev + m))
        owner2 = np.concatenate((owner, owner + n))
        ab_ii = np.concatenate((a_ii, b_i))
        prod = np.empty((2, m))  # [a_iv * a_vi | a_iv * b_in of the round]
        with np.errstate(over="ignore"):
            np.multiply(a_iv, self._a_vi, out=prod[0])
        eps_slot = eps[owner]
        with np.errstate(all="ignore"):
            x_hat = b_i / a_ii
        bad = (np.abs(a_ii) <= eps) | ~(np.abs(x_hat) <= ESTIMATE_LIMIT)
        _replay(bad, self.init_node)
        msg = ab_ii[owner2]
        while True:
            yield x_hat, msg[:m], msg[m:]
            inc = msg[rev2]
            a_in, b_in = inc[:m], inc[m:]
            with np.errstate(all="ignore"):
                iv = 1.0 / a_in
                np.multiply(a_iv, b_in, out=prod[1])
                terms = (prod * iv).ravel()
                tilde = ab_ii - np.bincount(owner2, terms, 2 * n)
                a_tilde = tilde[:n]
                x_new = tilde[n:] / a_tilde
                msg = tilde[owner2] + terms
                clean = ((np.abs(a_in) - eps_slot).min(initial=np.inf) > 0.0
                         and (np.abs(a_tilde) - eps).min() > 0.0
                         and np.abs(x_new).max() <= ESTIMATE_LIMIT
                         and math.isfinite(msg.sum()))
            if not clean:
                bad = (np.abs(a_tilde) <= eps) | ~(
                    np.abs(x_new) <= ESTIMATE_LIMIT)
                bad[owner[(np.abs(a_in) <= eps_slot) | ~(
                    np.isfinite(msg[:m]) & np.isfinite(msg[m:]))]] = True
                _replay(bad, lambda i: self.step(i, x_hat[i], _inbox(
                    g, i, np.column_stack((a_in, b_in)))))
            x_hat = x_new

    def rounds(self) -> Iterator:
        """The rounds of messages(), whose first is a_msg."""
        for x_hat, a_msg, _ in self.messages():
            yield x_hat, a_msg


def bp_solve(sys: SparseSystem, max_rounds: int = BP_MAX_ROUNDS,
             tol: float = TOL_DEFAULT, force: bool = False,
             reference: Optional[np.ndarray] = None
             ) -> tuple[Optional[np.ndarray], ConvergenceTrace]:
    """Solve by message passing; returns (estimates, trace).

    A strictly diagonally dominant instance is walk-summable and runs at
    once.  Any other instance is analyzed first: unless force=True a
    verdict other than walk-summable raises NotWalkSummableError (forcing
    instead emits NotWalkSummableWarning and runs anyway).  Acyclic
    instances run exactly diameter-many rounds, which is where the
    estimates become exact; cyclic ones run until the estimate delta
    drops below tol or max_rounds is reached.  A negative max_rounds or
    a bad tol raises ValueError before any analysis.  estimates is None
    when round 0 faults, since no round completed; trace.fault says why.
    """
    check_max_rounds(max_rounds)
    check_tolerance(tol)
    if not analysis.is_diagonally_dominant(sys):
        report = analysis.analyze(sys)
        if report.walk_summable is not True:
            verdict = ("indeterminate" if report.walk_summable is None
                       else "not walk-summable")
            if not force:
                raise NotWalkSummableError(
                    f"analysis verdict is {verdict} (rho(|R|) in "
                    f"[{report.rho_lo:.6g}, {report.rho_hi:.6g}]); pass "
                    "force=True to run anyway")
            warnings.warn(
                f"running on an instance whose analysis verdict is {verdict}",
                NotWalkSummableWarning, stacklevel=2)
    g = sys.graph
    program = BPProgram(sys)
    if is_acyclic(g):
        trace = run_rounds(program, diameter(g), reference=reference)
    else:
        trace = run_rounds(program, max_rounds, tol=tol, reference=reference)
    return trace.final_estimates, trace


# ---------------------------------------------------------------------------
# baselines


class JacobiProgram(NodeProgram):
    """Jacobi iteration, one node at a time; a node's state is its
    estimate."""

    def __init__(self, sys: SparseSystem):
        self.sys = sys
        self._a_iv = _a_iv(sys)

    def init_node(self, node: int):
        sys = self.sys
        x_hat = _check_estimate(
            node, float(sys.b[node]) / float(sys.diag[node]))
        return x_hat, {j: x_hat for j in sys.graph.neighbors[node]}

    def step(self, node: int, state, inbox):
        """x^_i <- (b_i - sum_v a_iv * x^_v) / a_ii from neighbor estimates."""
        sys = self.sys
        g = sys.graph
        nbrs = g.neighbors[node]
        acc = float(sys.b[node])
        a_iv = self._a_iv[g.indptr[node]:g.indptr[node + 1]].tolist()
        for v, a in zip(nbrs, a_iv):
            acc -= a * inbox[v]
        x_hat = _check_estimate(node, acc / float(sys.diag[node]))
        return x_hat, {j: x_hat for j in nbrs}

    def costs(self, deg: np.ndarray, n: int):
        return np.ones_like(deg), 2 * deg + 2, 2 * deg + 3, deg

    def rounds(self) -> Iterator:
        """init_node / step for every node at once on the graph's arrays.

        step subtracts the products one at a time from b_i; one bincount
        over b followed by the negated products adds the same terms in
        the same order, so the estimates equal the per-node path's bit
        for bit (b - bincount(products) would not); (-a) * x is -(a * x)
        in IEEE arithmetic.  The fault mask is built only when max|x^|
        exceeds ESTIMATE_LIMIT or is NaN.
        """
        sys = self.sys
        g = sys.graph
        rows = np.concatenate((np.arange(g.n), g.owner))
        weights = np.concatenate((sys.b, np.empty(len(g.nbr))))
        neg_a_iv = -self._a_iv
        with np.errstate(all="ignore"):
            x_hat = sys.b / sys.diag
        _replay(~(np.abs(x_hat) <= ESTIMATE_LIMIT), self.init_node)
        while True:
            yield x_hat, None
            x_in = x_hat[g.nbr]
            with np.errstate(all="ignore"):
                np.multiply(neg_a_iv, x_in, out=weights[g.n:])
                x_new = np.bincount(rows, weights, g.n) / sys.diag
            if not np.abs(x_new).max() <= ESTIMATE_LIMIT:
                _replay(~(np.abs(x_new) <= ESTIMATE_LIMIT),
                        lambda i: self.step(i, x_hat[i], _inbox(g, i, x_in)))
            x_hat = x_new


class ConsensusProgram(NodeProgram):
    """Projection-consensus baseline; violates the locality contracts.

    Messages carry full-length vectors and per-node work grows with the
    global size n, so the engine's accounting flags C2/C3 for this
    program (local_complexity is declared False).

    Each row's nonzero support is built once: its columns and values,
    in CSR order, at positions ptr[i]:ptr[i+1], and its squared norm.  A
    row of norm 0 cannot be projected on and raises ZeroRowError.  A
    node's state is its full-length vector x_i.
    """

    local_complexity = False

    def __init__(self, sys: SparseSystem):
        self.sys = sys
        nonzero = sys.data != 0.0
        self._sup_row = sys.rows[nonzero]
        self._sup_col = sys.indices[nonzero]
        self._sup_val = sys.data[nonzero]
        self._sup_ptr = np.searchsorted(self._sup_row, np.arange(sys.n + 1))
        with np.errstate(over="ignore"):
            self._norm_sq = np.bincount(self._sup_row,
                                        self._sup_val * self._sup_val, sys.n)
        if not self._norm_sq.all():
            raise ZeroRowError(f"row {int(np.argmin(self._norm_sq != 0.0))} "
                               "has zero norm")

    def init_node(self, node: int):
        """x_i(0) = (b_i / a_ii) e_i, which satisfies row i by construction;
        an estimate beyond ESTIMATE_LIMIT faults, as in Jacobi."""
        x = np.zeros(self.sys.n)
        x[node] = _check_estimate(
            node, float(self.sys.b[node]) / float(self.sys.diag[node]))
        return x, {j: x for j in self.sys.graph.neighbors[node]}

    def step(self, node: int, state, inbox):
        """Project the neighborhood disagreement out of this node's vector.

        x_i <- x_i - (1/|N_i|) P_i (|N_i| x_i - sum_v x_v) with P_i the
        orthogonal projector onto the complement of row i, so a_i . x_i = b_i
        is preserved exactly.  Every node carries a full-length vector: this
        baseline deliberately trades locality for per-row consistency.
        """
        nbrs = self.sys.graph.neighbors[node]
        deg = len(nbrs)
        if deg == 0:
            return state, {}
        s = slice(self._sup_ptr[node], self._sup_ptr[node + 1])
        row = list(zip(self._sup_col[s].tolist(), self._sup_val[s].tolist()))
        with np.errstate(all="ignore"):
            z = deg * state
            for v in nbrs:
                z = z - inbox[v]
            w = sum(a_ij * z[j] for j, a_ij in row)
            coef = w / self._norm_sq[node]
            proj = z.copy()
            for j, a_ij in row:
                proj[j] -= coef * a_ij
            x_new = state - proj / deg
        if not np.all(np.isfinite(x_new)):
            raise DivergedEstimateError(
                f"node {node}: consensus vector is not finite")
        return x_new, {j: x_new for j in nbrs}

    def estimate(self, node: int, state) -> float:
        return float(state[node])

    def costs(self, deg: np.ndarray, n: int):
        return (np.full_like(deg, n + 2), (deg + 3) * n + 4 * (deg + 1),
                (deg + 1) * n + 2 * (deg + 1), deg)

    def rounds(self) -> Iterator:
        """init_node / step for every node at once on the graph's arrays.

        Node i's vector is row pos[i] of one (n, n) array, rows in
        degree-descending order.  A round starts each row as deg_i * x_i
        and subtracts the neighbors' rows one slot position at a time,
        from a prefix of the rows, so every row subtracts in neighbor
        order; w sums the row support's terms in CSR order with
        np.bincount, which adds in sequence as sum() does.  Vectors and
        estimates therefore equal the per-node path's bit for bit.
        Isolated nodes, the last rows, keep their vector.  Only a round
        whose sum is not finite builds the per-row mask, which is empty
        when the sum merely overflowed.  Three n x n
        arrays above MAX_ROUND_FLOATS floats are refused with
        TooLargeError before round 0.
        """
        sys = self.sys
        g = sys.graph
        if 3 * g.n * g.n > MAX_ROUND_FLOATS:
            raise TooLargeError(
                f"consensus on {g.n} nodes holds three {g.n} x {g.n} "
                f"arrays, {3 * g.n * g.n:.3g} floats, more than "
                f"{MAX_ROUND_FLOATS:.3g}")
        deg = np.diff(g.indptr)
        order = np.argsort(-deg, kind="stable")
        pos = np.empty_like(order)
        pos[order] = np.arange(g.n)
        deg = deg[order]
        isolated = slice(int(np.count_nonzero(deg)), g.n)
        # slot position p: the k rows with more than p neighbors, and the
        # rows of their p-th neighbors
        gathers = []
        for p in range(int(deg.max(initial=0))):
            k = int(np.count_nonzero(deg > p))
            gathers.append((k, pos[g.nbr[g.indptr[order[:k]] + p]]))
        deg = deg[:, None].astype(float)  # exact: no cast per round
        sup_row, sup_val = self._sup_row, self._sup_val
        sup = (pos[sup_row], self._sup_col)
        diag = (pos, np.arange(g.n))
        with np.errstate(all="ignore"):
            x_hat = sys.b / sys.diag
        _replay(~(np.abs(x_hat) <= ESTIMATE_LIMIT), self.init_node)
        x = np.zeros((g.n, g.n))
        x[diag] = x_hat
        yield x_hat, None
        while True:
            with np.errstate(all="ignore"):
                z = deg * x
                for k, nbrs in gathers:
                    z[:k] -= x[nbrs]
                w = np.bincount(sup_row, sup_val * z[sup], g.n)
                coef = w / self._norm_sq
                z[sup] -= coef[sup_row] * sup_val
                x_new = np.subtract(x, np.divide(z, deg, out=z), out=z)
                x_new[isolated] = x[isolated]
                clean = math.isfinite(x_new.sum())
            if not clean:
                bad = ~np.isfinite(x_new).all(axis=1)
                _replay(bad[pos], lambda i: self.step(
                    i, x[pos[i]], {v: x[pos[v]] for v in g.neighbors[i]}))
            x = x_new
            yield x[diag], None


class GaussSeidelProgram(NodeProgram):
    """Gauss-Seidel, a sequential reference run like the programs: round 0
    is b / diag, each later round one gauss_seidel_sweep.  It has no
    init_node or step, and a sweep is no exchange: it sends nothing."""

    def __init__(self, sys: SparseSystem):
        self.sys = sys

    def costs(self, deg: np.ndarray, n: int):
        # Jacobi's arithmetic, on neighbor values read, not received
        return np.ones_like(deg), 2 * deg + 2, deg + 3, np.zeros_like(deg)

    def rounds(self) -> Iterator:
        """A round with an estimate beyond ESTIMATE_LIMIT, or NaN, raises
        _check_estimate's DivergedEstimateError for its smallest such node
        instead, with ``node`` set."""
        sys = self.sys
        with np.errstate(all="ignore"):
            x = sys.b / sys.diag
        while True:
            _replay(~(np.abs(x) <= ESTIMATE_LIMIT),
                    lambda i: _check_estimate(i, float(x[i])))
            yield x, None
            x = gauss_seidel_sweep(sys, x)


def gauss_seidel_sweep(sys: SparseSystem, x) -> np.ndarray:
    """One in-place sweep in index order; sequential reference only.

    Each row uses the freshest values of earlier rows, so this cannot be
    expressed as one synchronous exchange per edge per round; it exists
    to compare convergence behavior, as GaussSeidelProgram's rounds.
    """
    out = np.array(x, dtype=float)
    if out.shape != (sys.n,):
        raise DimensionMismatchError(
            f"state vector has shape {out.shape}, expected ({sys.n},)")
    xs = out.tolist()
    bounds, cols, vals = (a.tolist() for a in (sys.indptr, sys.indices,
                                               sys.data))
    for i, (acc, a_ii) in enumerate(zip(sys.b.tolist(), sys.diag.tolist())):
        for k in range(bounds[i], bounds[i + 1]):
            if cols[k] != i:
                acc -= vals[k] * xs[cols[k]]
        xs[i] = acc / a_ii
    return np.array(xs)


# ---------------------------------------------------------------------------
# dense reference


def dense_solve(sys: SparseSystem) -> np.ndarray:
    """Direct LU solve with partial pivoting, with pivot and residual checks.

    Raises SingularMatrixError when any pivot magnitude falls at or below
    PIVOT_EPS times the matrix scale, when the solution is not finite,
    or when its residual is not within RESIDUAL_FACTOR * (||A||_inf
    ||x||_inf + ||b||_inf).

    The norm and the residual come from the sparse entries, so the one
    dense matrix, in Fortran order, is factored in place.
    """
    import scipy.linalg
    rows, cols, vals = sys.rows, sys.indices, sys.data
    b = sys.b
    scale = float(np.max(np.bincount(rows, np.abs(vals), sys.n)))
    a = np.zeros((sys.n, sys.n), order="F")
    a[rows, cols] = vals
    with warnings.catch_warnings():
        # the pivot check below turns the degenerate case into an error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, overwrite_a=True,
                                         check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.any(pivots <= PIVOT_EPS * scale):
        k = int(np.argmin(pivots))
        raise SingularMatrixError(
            f"pivot {pivots[k]:.3e} at elimination step {k} below "
            f"{PIVOT_EPS:.0e} * scale {scale:.3e}")
    x = scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("solve gave a non-finite solution")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(sys.residual(x))))
    limit = RESIDUAL_FACTOR * (scale * float(np.max(np.abs(x)))
                               + float(np.max(np.abs(b))))
    if not residual <= limit:
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds trust bound {limit:.3e}")
    return x
