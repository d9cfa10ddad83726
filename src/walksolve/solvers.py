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
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np
import scipy.linalg

from . import analysis
from .core import (SparseSystem, UndirectedGraph, check_tolerance, diameter,
                   is_acyclic)
from .engine import (ConvergenceTrace, NodeFault, NodeProgram,
                     check_max_rounds, run_rounds)
from .errors import (
    DivergedEstimateError,
    NotWalkSummableError,
    NotWalkSummableWarning,
    ProtocolViolationError,
    SingularMatrixError,
    SingularMessageError,
    SolverError,
    ZeroRowError,
)

#: |estimate| beyond this aborts the run as diverged
ESTIMATE_LIMIT = 1e150
#: incoming scalars at or below 1e-12 * (node's own coefficient scale) fault
SING_EPS_FACTOR = 1e-12
PIVOT_EPS = 1e-14
RESIDUAL_FACTOR = 1e-10


@dataclass(frozen=True)
class NodeCoeffs:
    """The slice of the system one node owns, as Python floats."""

    node: int
    a_ii: float
    b_i: float
    neighbors: tuple[int, ...]
    a_row: dict  # v -> a_iv
    prod: dict   # v -> a_iv * a_vi
    #: incoming scalars at or below this fault: SING_EPS_FACTOR times the
    #: largest of |a_ii|, |a_iv| and |a_vi|
    eps_sing: float


def _node_coeffs(sys: SparseSystem, i: int) -> NodeCoeffs:
    """Node i's record, for the per-node path and for fault replay."""
    nbrs = sys.graph.neighbors[i]
    a_ii = float(sys.diag[i])
    a_row = {v: sys.entry(i, v) for v in nbrs}
    a_col = {v: sys.entry(v, i) for v in nbrs}
    scale = max([abs(a_ii)] + [abs(x) for x in a_row.values()]
                + [abs(x) for x in a_col.values()])
    return NodeCoeffs(node=i, a_ii=a_ii, b_i=float(sys.b[i]), neighbors=nbrs,
                      a_row=a_row,
                      prod={v: a_row[v] * a_col[v] for v in nbrs},
                      eps_sing=SING_EPS_FACTOR * scale)


def _replay(bad: np.ndarray, transition) -> None:
    """Re-run the smallest flagged node's per-node transition, which
    raises its fault; no node flagged, nothing happens.

    The array forms only locate the smallest faulting node; the program's
    own transition, called with that node, decides the error type and
    message.
    """
    if not bad.any():
        return
    node = int(np.argmax(bad))
    try:
        transition(node)
    except SolverError as exc:
        raise NodeFault(node, exc) from None
    raise RuntimeError(f"array form flagged node {node}, but its "
                       "per-node transition did not fault")


def _check_graph(sys: SparseSystem, g: UndirectedGraph) -> None:
    """Refuse a graph that is not ``sys.graph`` itself: one of the same
    shape would still run this system's coefficients on another system."""
    if g is not sys.graph:
        raise ProtocolViolationError(
            "program coefficients do not match the system's graph")


def _slot_a_row(sys: SparseSystem, g: UndirectedGraph) -> np.ndarray:
    """a_row over the slots of g, sys's own graph: a_row[s] is a_iv for the
    slot s = (i -> v), 0 when the system stores no (i, v) entry."""
    _check_graph(sys, g)
    stored = sys.rows * sys.n + sys.indices  # ascending: CSR order
    wanted = g.owner * sys.n + g.nbr
    k = np.minimum(np.searchsorted(stored, wanted), len(stored) - 1)
    return np.where(stored[k] == wanted, sys.data[k], 0.0)


def _replay_step(program: NodeProgram, node: int, x_hat: np.ndarray,
                 values: np.ndarray):
    """program.step for node, whose state holds its previous estimate
    x_hat[node] and whose inbox maps each neighbor v to values[s] over
    the node's slots s = (node -> v)."""
    sys = program._sys
    g = sys.graph
    s = slice(g.indptr[node], g.indptr[node + 1])
    state = NodeState(_node_coeffs(sys, node), float(x_hat[node]))
    return program.step(
        node, state, dict(zip(g.nbr[s].tolist(), values[s].tolist())))


def _check_estimate(node: int, x_hat: float) -> float:
    if not (abs(x_hat) <= ESTIMATE_LIMIT):
        raise DivergedEstimateError(
            f"node {node}: estimate {x_hat!r} out of range")
    return x_hat


@dataclass(frozen=True)
class NodeState:
    """A message-passing or Jacobi node: its coefficients and estimate."""

    coeffs: NodeCoeffs
    x_hat: float


# ---------------------------------------------------------------------------
# message-passing solver


class BPProgram(NodeProgram):
    """The message-passing solver, one node at a time."""

    check_positive_a = True

    def __init__(self, sys: SparseSystem):
        self._sys = sys

    def init_node(self, node: int):
        """Round 0: every edge carries (a_ii, b_i), estimate b_i / a_ii."""
        c = _node_coeffs(self._sys, node)
        if abs(c.a_ii) <= c.eps_sing:
            raise SingularMessageError(f"node {c.node}: diagonal {c.a_ii!r} "
                                       "too small to seed messages")
        x_hat = _check_estimate(c.node, c.b_i / c.a_ii)
        return NodeState(c, x_hat), {j: (c.a_ii, c.b_i) for j in c.neighbors}

    def step(self, node: int, state, inbox):
        """One node update from the previous round's incoming pairs.

        inbox maps every neighbor v to its pair (a_{v->i}, b_{v->i}); the
        outbox maps every neighbor j to (a_{i->j}, b_{i->j}).
        """
        c = state.coeffs
        eps = c.eps_sing
        inv = {}
        s_a = 0.0
        s_b = 0.0
        for v in c.neighbors:
            a_in, b_in = inbox[v]
            if abs(a_in) <= eps:
                raise SingularMessageError(
                    f"node {c.node}: incoming scalar {a_in!r} from {v} is "
                    "numerically zero")
            iv = 1.0 / a_in
            inv[v] = (iv, b_in)
            s_a += c.prod[v] * iv
            s_b += c.a_row[v] * b_in * iv
        a_tilde = c.a_ii - s_a
        b_tilde = c.b_i - s_b
        if abs(a_tilde) <= eps:
            raise SingularMessageError(
                f"node {c.node}: aggregate scalar {a_tilde!r} is numerically "
                "zero")
        x_hat = _check_estimate(c.node, b_tilde / a_tilde)
        out = {}
        for j in c.neighbors:
            iv, b_in = inv[j]
            a_out = a_tilde + c.prod[j] * iv
            b_out = b_tilde + c.a_row[j] * b_in * iv
            if not (math.isfinite(a_out) and math.isfinite(b_out)):
                raise DivergedEstimateError(
                    f"node {c.node}: outgoing pair to {j} is not finite")
            out[j] = (a_out, b_out)
        return NodeState(c, x_hat), out

    def estimate(self, node: int, state) -> float:
        return state.x_hat

    def costs(self, deg: np.ndarray, n: int):
        return 2 * deg + 1, 11 * deg + 3, 7 * deg + 5

    def messages(self, g: UndirectedGraph) -> Iterator:
        """init_node / step for every node at once on the graph's arrays:
        a generator of (estimates, a_msg, b_msg) for rounds 0, 1, 2, ...

        Each expression is the one step evaluates, and the per-node sums
        run in neighbor order (np.bincount adds its weights in sequence),
        so messages and estimates equal the per-node path's bit for bit.
        (a_msg[s], b_msg[s]) is the pair owner[s] sent nbr[s] in the
        round; each round makes new arrays and never writes old ones.
        """
        sys = self._sys
        a_row = _slot_a_row(sys, g)
        a_ii, b_i, owner = sys.diag, sys.b, g.owner
        a_col = a_row[g.rev]
        with np.errstate(over="ignore"):
            prod = a_row * a_col
        # NodeCoeffs.eps_sing, from the largest of |a_ii|, |a_iv|, |a_vi|
        scale = np.abs(a_ii)
        np.maximum.at(scale, owner, np.maximum(np.abs(a_row), np.abs(a_col)))
        eps = SING_EPS_FACTOR * scale
        eps_slot = eps[owner]
        with np.errstate(all="ignore"):
            x_hat = b_i / a_ii
        bad = (np.abs(a_ii) <= eps) | ~(np.abs(x_hat) <= ESTIMATE_LIMIT)
        _replay(bad, self.init_node)
        a_msg = a_ii[owner]
        b_msg = b_i[owner]
        while True:
            yield x_hat, a_msg, b_msg
            a_in = a_msg[g.rev]
            b_in = b_msg[g.rev]
            with np.errstate(all="ignore"):
                iv = 1.0 / a_in
                terms_a = prod * iv
                terms_b = (a_row * b_in) * iv
                a_tilde = a_ii - np.bincount(owner, terms_a, g.n)
                b_tilde = b_i - np.bincount(owner, terms_b, g.n)
                x_new = b_tilde / a_tilde
                a_msg = a_tilde[owner] + terms_a
                b_msg = b_tilde[owner] + terms_b
                bad = (np.abs(a_tilde) <= eps) | ~(
                    np.abs(x_new) <= ESTIMATE_LIMIT)
                bad[owner[(np.abs(a_in) <= eps_slot)
                          | ~(np.isfinite(a_msg) & np.isfinite(b_msg))]] = True
            _replay(bad, lambda i: _replay_step(
                self, i, x_hat, np.column_stack((a_in, b_in))))
            x_hat = x_new

    def rounds(self, g: UndirectedGraph) -> Iterator:
        """The rounds of messages(g), whose first is a_msg."""
        for x_hat, a_msg, _ in self.messages(g):
            yield x_hat, a_msg


def bp_solve(sys: SparseSystem, max_rounds: int = 500, tol: float = 1e-10,
             force: bool = False, reference: Optional[np.ndarray] = None
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
        report = analysis.analyze(sys, want_scaling=False)
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
        d = diameter(g)
        trace = run_rounds(sys, program, d, reference=reference)
    else:
        trace = run_rounds(sys, program, max_rounds, tol=tol,
                           reference=reference)
    return trace.final_estimates, trace


# ---------------------------------------------------------------------------
# baselines


class JacobiProgram(NodeProgram):
    """Jacobi iteration, one node at a time."""

    def __init__(self, sys: SparseSystem):
        self._sys = sys

    def init_node(self, node: int):
        c = _node_coeffs(self._sys, node)
        x_hat = _check_estimate(c.node, c.b_i / c.a_ii)
        return NodeState(c, x_hat), {j: x_hat for j in c.neighbors}

    def step(self, node: int, state, inbox):
        """x^_i <- (b_i - sum_v a_iv * x^_v) / a_ii from neighbor estimates."""
        c = state.coeffs
        acc = c.b_i
        for v in c.neighbors:
            acc -= c.a_row[v] * inbox[v]
        x_hat = _check_estimate(c.node, acc / c.a_ii)
        return NodeState(c, x_hat), {j: x_hat for j in c.neighbors}

    def estimate(self, node: int, state) -> float:
        return state.x_hat

    def costs(self, deg: np.ndarray, n: int):
        return np.ones_like(deg), 2 * deg + 2, 2 * deg + 3

    def rounds(self, g: UndirectedGraph) -> Iterator:
        """init_node / step for every node at once on the graph's arrays.

        step subtracts the products one at a time from b_i; one bincount
        over b followed by the negated products adds the same terms in
        the same order, so the estimates equal the per-node path's bit
        for bit (b - bincount(products) would not).
        """
        sys = self._sys
        a_row = _slot_a_row(sys, g)
        rows = np.concatenate((np.arange(g.n), g.owner))
        with np.errstate(all="ignore"):
            x_hat = sys.b / sys.diag
        _replay(~(np.abs(x_hat) <= ESTIMATE_LIMIT), self.init_node)
        while True:
            yield x_hat, None
            x_in = x_hat[g.nbr]
            with np.errstate(all="ignore"):
                acc = np.bincount(rows, np.concatenate(
                    (sys.b, -(a_row * x_in))), g.n)
                x_new = acc / sys.diag
                bad = ~(np.abs(x_new) <= ESTIMATE_LIMIT)
            _replay(bad, lambda i: _replay_step(self, i, x_hat, x_in))
            x_hat = x_new


@dataclass(frozen=True)
class ConsensusNodeState:
    node: int
    neighbors: tuple[int, ...]
    row: dict  # j -> a_ij over the row's support, diagonal included
    row_norm_sq: float
    x: np.ndarray  # this node's full-length solution vector


def _row_support(sys: SparseSystem):
    """(rows, cols, values) of the nonzero entries in CSR order, and each
    row's squared norm summed in that order; a row of norm 0 raises."""
    nonzero = sys.data != 0.0
    rows = sys.rows[nonzero]
    vals = sys.data[nonzero]
    with np.errstate(over="ignore"):
        norm_sq = np.bincount(rows, vals * vals, sys.n)
    if not norm_sq.all():
        raise ZeroRowError(f"row {int(np.argmin(norm_sq != 0.0))} has "
                           "zero norm")
    return rows, sys.indices[nonzero], vals, norm_sq


def _consensus_state(sys: SparseSystem, i: int,
                     x: np.ndarray) -> ConsensusNodeState:
    """Node i's state holding the vector x, as Python floats."""
    s = slice(sys.indptr[i], sys.indptr[i + 1])
    row = {j: v for j, v in zip(sys.indices[s].tolist(),
                                sys.data[s].tolist()) if v != 0.0}
    return ConsensusNodeState(node=i, neighbors=sys.graph.neighbors[i],
                              row=row, x=x,
                              row_norm_sq=sum(v * v for v in row.values()))


class ConsensusProgram(NodeProgram):
    """Projection-consensus baseline; violates the locality contracts.

    Messages carry full-length vectors and per-node work grows with the
    global size n, so the engine's accounting flags C2/C3 for this
    program (local_complexity is declared False).
    """

    local_complexity = False

    def __init__(self, sys: SparseSystem):
        _row_support(sys)  # a row of norm 0 cannot be projected on
        self._sys = sys

    def init_node(self, node: int):
        """x_i(0) = (b_i / a_ii) e_i, which satisfies row i by construction;
        an estimate beyond ESTIMATE_LIMIT faults, as in Jacobi."""
        x = np.zeros(self._sys.n)
        x[node] = _check_estimate(
            node, float(self._sys.b[node]) / float(self._sys.diag[node]))
        state = _consensus_state(self._sys, node, x)
        return state, {j: state.x for j in state.neighbors}

    def step(self, node: int, state, inbox):
        """Project the neighborhood disagreement out of this node's vector.

        x_i <- x_i - (1/|N_i|) P_i (|N_i| x_i - sum_v x_v) with P_i the
        orthogonal projector onto the complement of row i, so a_i . x_i = b_i
        is preserved exactly.  Every node carries a full-length vector: this
        baseline deliberately trades locality for per-row consistency.
        """
        deg = len(state.neighbors)
        if deg == 0:
            return state, {}
        z = deg * state.x
        for v in state.neighbors:
            z = z - inbox[v]
        w = sum(a_ij * z[j] for j, a_ij in state.row.items())
        coef = w / state.row_norm_sq
        proj = z.copy()
        for j, a_ij in state.row.items():
            proj[j] -= coef * a_ij
        x_new = state.x - proj / deg
        if not np.all(np.isfinite(x_new)):
            raise DivergedEstimateError(
                f"node {state.node}: consensus vector is not finite")
        return replace(state, x=x_new), {j: x_new for j in state.neighbors}

    def estimate(self, node: int, state) -> float:
        return float(state.x[node])

    def costs(self, deg: np.ndarray, n: int):
        return (np.full_like(deg, n + 2), (deg + 3) * n + 4 * (deg + 1),
                (deg + 1) * n + 2 * (deg + 1))

    def rounds(self, g: UndirectedGraph) -> Iterator:
        """init_node / step for every node at once on the graph's arrays.

        Row i of one (n, n) array is node i's vector.  A round starts each
        row as deg_i * x_i and subtracts the neighbors' rows one slot
        position at a time, so every row subtracts in neighbor order; w
        sums the row support's terms in CSR order with np.bincount, which
        adds in sequence as sum() does.  Vectors and estimates therefore
        equal the per-node path's bit for bit.  Isolated nodes keep their
        vector.
        """
        sys = self._sys
        _check_graph(sys, g)
        deg = np.diff(g.indptr)
        isolated = np.flatnonzero(deg == 0)
        # slot position p: the nodes with more than p neighbors, and the
        # p-th neighbor of each
        gathers = []
        for p in range(int(deg.max(initial=0))):
            rows = np.flatnonzero(deg > p)
            gathers.append((rows, g.nbr[g.indptr[rows] + p]))
        deg = deg[:, None]
        sup_row, sup_col, sup_val, row_norm_sq = _row_support(sys)
        sup = (sup_row, sup_col)
        with np.errstate(all="ignore"):
            x_hat = sys.b / sys.diag
        _replay(~(np.abs(x_hat) <= ESTIMATE_LIMIT), self.init_node)
        x = np.diag(x_hat)
        yield x_hat, None
        while True:
            with np.errstate(all="ignore"):
                z = deg * x
                for rows, nbrs in gathers:
                    z[rows] -= x[nbrs]
                w = np.bincount(sup_row, sup_val * z[sup], len(x))
                coef = w / row_norm_sq
                z[sup] -= coef[sup_row] * sup_val
                x_new = np.subtract(x, np.divide(z, deg, out=z), out=z)
            x_new[isolated] = x[isolated]
            bad = ~np.isfinite(x_new).all(axis=1)
            bad[isolated] = False
            _replay(bad, lambda i: self.step(
                i, _consensus_state(sys, i, x[i].copy()),
                {v: x[v] for v in g.neighbors[i]}))
            x = x_new
            yield x.diagonal().copy(), None


def gauss_seidel_sweep(sys: SparseSystem, x) -> np.ndarray:
    """One in-place sweep in index order; sequential reference only.

    Each row uses the freshest values of earlier rows, so this cannot be
    expressed as one synchronous exchange per edge per round; it exists
    to compare convergence behavior, not as an engine program.
    """
    out = np.array(x, dtype=float)
    if out.shape != (sys.n,):
        raise ProtocolViolationError(
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
    PIVOT_EPS times the matrix scale, or when the solution's residual
    exceeds RESIDUAL_FACTOR * (||A||_inf ||x||_inf + ||b||_inf).

    The norm and the residual come from the sparse entries, so the one
    dense matrix, in Fortran order, is factored in place.
    """
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
    residual = float(np.max(np.abs(
        np.bincount(rows, vals * x[cols], sys.n) - b)))
    limit = RESIDUAL_FACTOR * (scale * float(np.max(np.abs(x)))
                               + float(np.max(np.abs(b))))
    if residual > limit:
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds trust bound {limit:.3e}")
    return x
