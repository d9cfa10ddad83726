"""Synchronous simulator for per-node message-passing programs.

Rounds are two-phase: every node reads only the messages delivered at the
end of round k-1 (a frozen snapshot) and writes its round-k messages into
an outbox; delivery happens at the barrier after all nodes have stepped.
Node transitions therefore commute and the trace is bit-identical no
matter which order nodes are evaluated in.

A program keeps the system it was built from as ``program.sys`` and runs
on ``sys.graph``.  ``run_rounds`` consumes one generator per run, the
program's ``rounds``, with one set of stop rules, trace rows and fault
records:
  - a program's own array form (the message-passing solver, Jacobi and
    projection consensus).  It runs on the graph's own arrays, its
    directed edges in CSR order (:class:`~walksolve.core.UndirectedGraph`):
    a round gathers the incoming messages along the edges, updates them
    elementwise and sums them per node in neighbor order.  Messages only
    ever travel along edges, so C1 holds by construction.  Consensus
    keeps every node's full-length vector as one row of an (n, n) array.
  - otherwise :func:`node_rounds`, the per-node reference: it calls the
    program's transitions node by node, delivers each value as it was
    sent, and checks C1 on every round.  Tests hold the array forms to it.
  - Gauss-Seidel's sweeps, whose rows read the freshest values of earlier
    rows: a sequential reference, not an exchange, so it sends no messages.
When several nodes fault in one round, the fault of the smallest node id
is reported, so the record does not depend on evaluation order.

Locality contracts enforced or declared here:
  C1  one message per directed edge per round (outbox keys must equal the
      neighbor set exactly; total per round is then 2|E|),
  C2  per-node work O(|N_i|): declared ops_i <= OPS_BOUND_COEFF*(deg_i+1),
  C3  per-node state O(|N_i|): storage_i <= STORAGE_BOUND_COEFF*(deg_i+1).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

import numpy as np

from .core import SparseSystem, check_tolerance
from .errors import (DimensionMismatchError, ProtocolViolationError,
                     SolverError)

#: documented constants for the declared locality bounds
OPS_BOUND_COEFF = 16
STORAGE_BOUND_COEFF = 12
#: the floor of residual_stop's bound, max(RESIDUAL_STOP, sqrt(tol))
RESIDUAL_STOP = 1e-6
#: floats in a run's block of rounds awaiting their log10_mse (256 KB)
ROUND_BLOCK_FLOATS = 2 ** 15


@dataclass(frozen=True)
class RoundAccounting:
    """A round's declared counts and locality verdicts, built once a run."""

    messages_sent: int
    per_node_ops: tuple[int, ...]
    per_node_storage: tuple[int, ...]
    ops_bound_ok: bool
    storage_bound_ok: bool
    local_complexity_declared: bool

    @property
    def violates_local_constraints(self) -> bool:
        return (not self.local_complexity_declared or not self.ops_bound_ok
                or not self.storage_bound_ok)


@dataclass(frozen=True)
class SolverFault:
    """Where and why a run aborted; the trace keeps the completed rounds."""

    node: int
    round: int
    error: str
    cause: str


@dataclass
class TraceRound:
    k: int
    log10_mse: Optional[float]
    max_delta: Optional[float]
    positivity_violations: int
    accounting: RoundAccounting


@dataclass
class ConvergenceTrace:
    """A run's per-round scalars and its last completed round's estimates
    (None when round 0 faults)."""

    rounds: list[TraceRound] = field(default_factory=list)
    stop_reason: str = "max-rounds"
    fault: Optional[SolverFault] = None
    final_estimates: Optional[np.ndarray] = None

    @property
    def total_positivity_violations(self) -> int:
        return sum(r.positivity_violations for r in self.rounds)


class NodeProgram:
    """Interface a distributed program exposes to the engine.

    A program's constructor sets ``sys``, the system it was built from
    and runs on.  Subclasses override the transition hooks and ``costs``;
    ``local_complexity`` declares whether the program keeps per-node work
    and state O(|N_i|) by construction, and ``check_positive_a`` opts into
    the positive-message diagnostic.

    ``init_node`` and ``step`` are the program's per-node update, its
    one statement of the transition: node_rounds, the per-node reference,
    runs them, and a program's ``rounds`` generator, when it is an array
    form, replays them on the node it finds faulting, so they raise every
    fault.  C1 is the one protocol check, made by node_rounds on every
    outbox before delivery, so ``step`` may trust that its inbox holds
    exactly the node's neighbors.

    An outbox maps each neighbor to the value sent to it, and the
    neighbor's next inbox holds that very object.  A program must
    therefore not mutate a value once it has sent it.  A program that
    sets check_positive_a sends sequences whose [0] is the scalar that
    the convergence theory keeps positive; the engine counts the rounds'
    non-positive ones as a diagnostic, not a fault.
    """

    sys: SparseSystem
    local_complexity = True
    check_positive_a = False

    def init_node(self, node: int):
        """Return (state, outbox); the state is whatever the node keeps
        between rounds, and outbox maps neighbor -> value."""
        raise NotImplementedError

    def step(self, node: int, state, inbox: Mapping[int, object]):
        """Return (state, outbox) from the node's state and the
        round-(k-1) snapshot; inbox maps neighbor -> the value it sent
        this node."""
        raise NotImplementedError

    def estimate(self, node: int, state) -> float:
        """The node's estimate from its state, whatever the node keeps
        between rounds; by default the state is the estimate."""
        return state

    def costs(self, deg: np.ndarray, n: int):
        """The cost model: per-node int arrays (ops at round 0, ops in each
        later round, storage, messages sent each round) from the degrees
        deg and the node count n.  Storage counts the floats a node
        retains across rounds, messages included."""
        raise NotImplementedError

    def rounds(self) -> Iterator:
        """This program's rounds: a generator of (estimates, first) for
        rounds 0, 1, 2, ..., where ``first`` holds [0] of every slot's
        message when check_positive_a is set, or None.  The round in which
        a transition faults raises the smallest faulting node's SolverError
        instead, with ``node`` set.  By default the per-node reference
        node_rounds.

        A program's array form computes the same rounds as init_node/step,
        bit for bit, for all nodes at once, and raises each fault by
        replaying the faulting node's init_node or step.
        """
        return node_rounds(self)


def node_rounds(program: NodeProgram) -> Iterator:
    """A program's init_node/step run node by node, in ascending id order:
    the per-node reference for NodeProgram.rounds.

    The first SolverError of a round is therefore the smallest faulting
    node's, raised as is with ``node`` set.  Once every transition of a
    round succeeds, each outbox must address exactly the node's neighbors
    (C1); each value is then delivered, as sent, to its neighbor's inbox
    for the next round to read.
    """
    g = program.sys.graph
    states = inboxes = None
    for k in itertools.count():
        results = []
        for u in range(g.n):
            try:
                results.append(program.step(u, states[u], inboxes[u]) if k
                               else program.init_node(u))
            except SolverError as exc:
                exc.node = u
                raise
        inboxes = [dict() for _ in range(g.n)]
        for u, (_, out) in enumerate(results):
            if set(out) != set(g.neighbors[u]):
                raise ProtocolViolationError(
                    f"node {u} addressed {sorted(out)} at round {k}, "
                    f"expected exactly its neighbors {list(g.neighbors[u])}")
            for v, value in out.items():
                inboxes[v][u] = value
        states = [state for state, _ in results]
        estimates = np.array([program.estimate(u, state)
                              for u, state in enumerate(states)])
        first = None
        if program.check_positive_a:
            first = np.array([inboxes[v][u][0]
                              for u, v in zip(g.owner.tolist(),
                                              g.nbr.tolist())])
        yield estimates, first


def check_max_rounds(max_rounds: int, name: str = "max_rounds") -> int:
    """max_rounds, once it is >= 0; ValueError naming it otherwise."""
    if max_rounds < 0:
        raise ValueError(f"{name} must be >= 0, got {max_rounds}")
    return max_rounds


def delta_stop(delta: float, cur: np.ndarray, tol: float) -> bool:
    """True when delta, the round's max_i |cur_i - prev_i|, is at most
    tol * max(1, max_i |cur_i|).

    A delta that is not finite never stops: inf <= tol * inf would hold.
    """
    return (math.isfinite(delta)
            and delta <= tol * max(1.0, float(np.abs(cur).max())))


def residual_stop(sys: SparseSystem, x: np.ndarray, tol: float) -> bool:
    """True when x's componentwise backward error (Oettli & Prager),
    max_i |b - A x|_i / (|A| |x| + |b|)_i, is at most
    max(RESIDUAL_STOP, sqrt(tol)).

    The error is at most 1, and near 1 for estimates that solve nothing;
    a run stopped by delta_stop(tol) that has converged has an error of
    a few tol.  sqrt(tol) sits midway between, on a log scale.  A row
    whose terms are all 0 has error 0; a term or residual that is not
    finite never stops."""
    with np.errstate(all="ignore"):
        r = np.abs(sys.residual(x))
        scale = np.bincount(sys.rows, np.abs(sys.data * x[sys.indices]),
                            sys.n) + np.abs(sys.b)
        err = np.divide(r, scale, out=np.zeros_like(r), where=r != 0)
    return float(err.max()) <= max(RESIDUAL_STOP, math.sqrt(tol))


def _log10_mses(block: np.ndarray, reference: np.ndarray) -> list[float]:
    """log10 of each row's mean squared error against reference; inf once
    the error overflows.  Squares block, C-contiguous rows of estimates,
    in place; a row's pairwise sum has the bits of its own 1-D sum."""
    with np.errstate(over="ignore"):
        block -= reference
        block *= block
        sums = np.add.reduce(block, axis=1).tolist()
    n = block.shape[1]
    return [-math.inf if (mse := s / n) == 0.0 else math.log10(mse)
            for s in sums]


def run_rounds(program: NodeProgram, max_rounds: int,
               tol: Optional[float] = None,
               reference: Optional[np.ndarray] = None) -> ConvergenceTrace:
    """Drive a node program for up to max_rounds synchronous rounds.

    The stop rules are the solver's two regimes.  Without tol, the run
    is exactly rounds 0..max_rounds and ends "fixed-rounds": an acyclic
    system is exact after diameter-many rounds.  With tol, a finite
    tolerance >= 0, it ends at the first round k >= 1 where
    delta_stop(delta, current, tol) holds, or else "max-rounds": a
    loopy system converges only asymptotically.  A run that stops on
    delta ends "delta" when residual_stop holds for its estimates, and
    "stalled" when it does not: its steps are small, but it has not
    solved the system.  A reference, the solution that log10_mse
    measures against, has shape (n,).

    The run consumes program.rounds() and never asks it for a
    round past max_rounds or after a delta stop.  Round 0 is
    initialization (message-passing programs already send in it).  A
    SolverError raised inside a node transition aborts the run at that
    round's barrier: the trace keeps rounds 0..k-1 and carries a
    SolverFault record for the smallest faulting node, the error's
    ``node``; stop_reason is then "fault".  A SolverError with no node,
    raised outside any transition, propagates.  The trace keeps each
    round's scalars and only the last completed round's estimates, so a
    run's memory does not grow with its round count: rounds wait for
    their log10_mse as rows of one block, min(max_rounds + 1,
    ROUND_BLOCK_FLOATS // n) rows (at least 1), filled when it is full
    and when the run ends.  With tol, delta_stop runs only when delta <=
    tol * max(1, U), U an upper bound on max|estimates| kept from the
    deltas and reset to the exact max whenever the rule runs, or when
    delta or U is not finite.  Every round's
    accounting comes from program.costs: round 0 counts its round-0 ops,
    later rounds their own; positivity violations are counted only in a
    round whose smallest first entry is not positive.
    """
    check_max_rounds(max_rounds)
    if tol is not None:
        check_tolerance(tol)
    g = program.sys.graph
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (g.n,):
            raise DimensionMismatchError(
                f"reference has shape {reference.shape}, expected ({g.n},)")
    deg = np.diff(g.indptr)
    round0_ops, later_ops, storage, sent = program.costs(deg, g.n)
    init_acct, step_acct = (RoundAccounting(
        messages_sent=int(sent.sum()),
        per_node_ops=tuple(ops.tolist()),
        per_node_storage=tuple(storage.tolist()),
        ops_bound_ok=bool(np.all(ops <= OPS_BOUND_COEFF * (deg + 1))),
        storage_bound_ok=bool(np.all(
            storage <= STORAGE_BOUND_COEFF * (deg + 1))),
        local_complexity_declared=program.local_complexity)
        for ops in (round0_ops, later_ops))

    trace = ConvergenceTrace()
    height = min(max_rounds + 1, max(1, ROUND_BLOCK_FLOATS // g.n))
    block = np.empty((height, g.n)) if reference is not None else None
    bound = math.inf  # >= max|estimates|; round 1 evaluates the stop rule

    def fill_log10_mse(rows):
        """Fill the last ``rows`` rounds' log10_mse from block's rows."""
        if block is not None and rows:
            for r, mse in zip(trace.rounds[-rows:],
                              _log10_mses(block[:rows], reference)):
                r.log10_mse = mse

    try:
        for k, (estimates, first) in zip(range(max_rounds + 1),
                                         program.rounds()):
            acct, violations = (step_acct if k else init_acct), 0
            # min is NaN when an entry is, so NaN is counted too
            if (program.check_positive_a
                    and not first.min(initial=math.inf) > 0.0):
                violations = int(np.count_nonzero(~(first > 0.0)))
            prev, trace.final_estimates = trace.final_estimates, estimates
            delta = (float(np.abs(estimates - prev).max())
                     if prev is not None else None)
            trace.rounds.append(TraceRound(
                k=k, log10_mse=None, max_delta=delta,
                positivity_violations=violations, accounting=acct))
            if block is not None:
                block[k % height] = estimates
                if k % height == height - 1:
                    fill_log10_mse(height)
            if tol is None or not k:
                continue
            # |x| <= |prev| + |x - prev|; 1e-12 covers delta's rounding
            bound = (bound + delta) * (1.0 + 1e-12)
            if (math.isfinite(delta) and math.isfinite(bound)
                    and delta > tol * max(1.0, bound)):
                continue  # delta_stop is false
            bound = float(np.abs(estimates).max())
            if delta_stop(delta, estimates, tol):
                fill_log10_mse(len(trace.rounds) % height)
                trace.stop_reason = ("delta" if residual_stop(
                    program.sys, estimates, tol) else "stalled")
                return trace
    except SolverError as exc:
        if exc.node is None:
            raise
        fill_log10_mse(len(trace.rounds) % height)
        trace.stop_reason = "fault"
        trace.fault = SolverFault(node=exc.node, round=len(trace.rounds),
                                  error=type(exc).__name__, cause=str(exc))
        return trace
    fill_log10_mse(len(trace.rounds) % height)
    trace.stop_reason = "fixed-rounds" if tol is None else "max-rounds"
    return trace
