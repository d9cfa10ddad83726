"""Synchronous simulator for per-node message-passing programs.

Rounds are two-phase: every node reads only the messages delivered at the
end of round k-1 (a frozen snapshot) and writes its round-k messages into
an outbox; delivery happens at the barrier after all nodes have stepped.
Node transitions therefore commute and the trace is bit-identical no
matter which order nodes are evaluated in.

A round is computed on one of two paths; ``run_rounds`` drives both with
the same stop rules, trace rows and fault records:
  - the edge-array path, for programs whose ``edge_kernel`` returns a
    kernel (the message-passing solver, Jacobi and projection consensus).
    A kernel runs on the graph's own arrays, its directed edges in CSR
    order (:class:`~walksolve.core.UndirectedGraph`): a round gathers
    the incoming messages along the edges, updates them elementwise and
    sums them per node in neighbor order.  Messages only ever travel
    along edges, so C1 holds by construction.  Consensus keeps every
    node's full-length vector as one row of an (n, n) array.
  - the per-node path, for programs without an array form; tests use it
    as the reference.  Each node's outbox is a dict of
    DirectedEdgeMessage objects, and C1 is checked on every round.
When several nodes fault in one round, the fault of the smallest node id
is reported, so the record does not depend on evaluation order.

Locality contracts enforced or measured here:
  C1  one message per directed edge per round (outbox keys must equal the
      neighbor set exactly; total per round is then 2|E|),
  C2  per-node work O(|N_i|): measured ops_i <= OPS_BOUND_COEFF*(deg_i+1),
  C3  per-node state O(|N_i|): storage_i <= STORAGE_BOUND_COEFF*(deg_i+1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import SparseSystem, UndirectedGraph
from .errors import ProtocolViolationError, SolverError

#: documented constants for the measured locality bounds
OPS_BOUND_COEFF = 16
STORAGE_BOUND_COEFF = 12


@dataclass(frozen=True)
class DirectedEdgeMessage:
    """One directed-edge payload delivered at a round barrier.

    values[0] doubles as the positive-scalar slot: programs that declare
    check_positive_a route the quantity whose positivity the convergence
    theory guarantees through it, and the engine counts violations as a
    diagnostic rather than a fault.
    """

    src: int
    dst: int
    round: int
    values: tuple[float, ...]

    @property
    def a_val(self) -> float:
        return self.values[0]

    @property
    def b_val(self) -> float:
        return self.values[1] if len(self.values) > 1 else 0.0


@dataclass(frozen=True)
class RoundAccounting:
    """Per-round message and resource counts plus locality verdicts."""

    messages_sent: int
    per_node_ops: tuple[int, ...]
    per_node_storage: tuple[int, ...]
    ops_bound_ok: bool
    storage_bound_ok: bool
    local_complexity_declared: bool
    positivity_violations: int = 0

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


class NodeFault(Exception):
    """The SolverError of the smallest node that faulted in a round."""

    def __init__(self, node: int, error: SolverError):
        super().__init__(node, error)
        self.node = node
        self.error = error


@dataclass
class TraceRound:
    k: int
    estimates: np.ndarray
    log10_mse: Optional[float]
    max_delta: Optional[float]
    accounting: RoundAccounting


@dataclass
class ConvergenceTrace:
    rounds: list[TraceRound] = field(default_factory=list)
    stop_reason: str = "max-rounds"
    fault: Optional[SolverFault] = None
    reference: Optional[np.ndarray] = None

    @property
    def final_estimates(self) -> np.ndarray:
        return self.rounds[-1].estimates

    @property
    def total_positivity_violations(self) -> int:
        return sum(r.accounting.positivity_violations for r in self.rounds)


class NodeProgram:
    """Interface a distributed program exposes to the engine.

    Subclasses override the three transition hooks; ``local_complexity``
    declares whether the program keeps per-node work and state O(|N_i|)
    by construction, and ``check_positive_a`` opts into the positive-
    message diagnostic.
    """

    name = "program"
    local_complexity = True
    check_positive_a = False

    def init_node(self, node: int):
        """Return (state, outbox, ops); outbox maps neighbor -> value tuple."""
        raise NotImplementedError

    def step(self, node: int, state, inbox: Mapping[int, DirectedEdgeMessage]):
        """Return (state, outbox, ops) from the round-(k-1) snapshot."""
        raise NotImplementedError

    def estimate(self, node: int, state) -> float:
        raise NotImplementedError

    def storage_floats(self, node: int, state) -> int:
        """Floats the node retains across rounds (messages included)."""
        raise NotImplementedError

    def edge_kernel(self, g: UndirectedGraph):
        """The program's array form on g, run_rounds's ``sys.graph``, or
        None if it has none.

        A kernel computes the same rounds as init_node/step, bit for bit,
        for all nodes at once.  It carries per-node int arrays
        ``init_ops``, ``step_ops`` and ``storage``; ``start()`` computes
        round 0 and ``advance()`` the next round.  Each returns
        (estimates, first), where ``first`` holds values[0] of every
        slot's message when check_positive_a is set, or raises NodeFault
        for the smallest node whose transition faults.  A kernel refuses
        any g but its own system's graph; a program without one has no
        system to compare, and its per-node path runs on any graph.
        """
        return None


def delta_stop(prev: np.ndarray, cur: np.ndarray, tol: float) -> bool:
    """True when max_i |cur_i - prev_i| <= tol * max(1, max_i |cur_i|).

    A delta that is not finite never stops: inf <= tol * inf would hold.
    """
    delta = float(np.max(np.abs(cur - prev)))
    return (math.isfinite(delta)
            and delta <= tol * max(1.0, float(np.max(np.abs(cur)))))


def _log10_mse(estimates: np.ndarray, reference: np.ndarray) -> float:
    mse = float(np.sum((estimates - reference) ** 2)) / len(estimates)
    if mse == 0.0:
        return -math.inf
    return math.log10(mse)


def _node_rounds(program: NodeProgram, g: UndirectedGraph,
                 order: list[int]) -> Iterator[tuple[np.ndarray,
                                                     RoundAccounting]]:
    """Per-node message path: yields (estimates, accounting) per round."""
    n = g.n
    directed_edges = 2 * g.edge_count()
    neighbor_sets = [set(g.neighbors[u]) for u in range(n)]
    bound = [OPS_BOUND_COEFF * (g.degree(u) + 1) for u in range(n)]
    sbound = [STORAGE_BOUND_COEFF * (g.degree(u) + 1) for u in range(n)]
    states: list = [None] * n
    inboxes: list[dict[int, DirectedEdgeMessage]] = [dict() for _ in range(n)]

    def transitions(step):
        """Run every node's transition; the smallest faulting node wins."""
        out = [None] * n
        fault = None
        for u in order:
            try:
                out[u] = step(u)
            except SolverError as exc:
                if fault is None or u < fault.node:
                    fault = NodeFault(u, exc)
        if fault is not None:
            raise fault
        return out

    def finish_round(k: int, results) -> tuple[np.ndarray, RoundAccounting]:
        nonlocal states, inboxes
        states = [r[0] for r in results]
        ops = [r[2] for r in results]
        inboxes = [dict() for _ in range(n)]
        sent = 0
        violations = 0
        for u in order:
            out = results[u][1]
            if set(out) != neighbor_sets[u]:
                raise ProtocolViolationError(
                    f"node {u} addressed {sorted(out)} at round {k}, "
                    f"expected exactly its neighbors {sorted(neighbor_sets[u])}")
            for v, values in out.items():
                msg = DirectedEdgeMessage(src=u, dst=v, round=k,
                                          values=tuple(values))
                if program.check_positive_a and not msg.values[0] > 0.0:
                    violations += 1
                inboxes[v][u] = msg
                sent += 1
        if sent != directed_edges:
            raise ProtocolViolationError(
                f"round {k} sent {sent} messages, expected {directed_edges}")
        storage = tuple(program.storage_floats(u, states[u]) for u in range(n))
        acct = RoundAccounting(
            messages_sent=sent,
            per_node_ops=tuple(ops),
            per_node_storage=storage,
            ops_bound_ok=all(o <= b for o, b in zip(ops, bound)),
            storage_bound_ok=all(s <= b for s, b in zip(storage, sbound)),
            local_complexity_declared=program.local_complexity,
            positivity_violations=violations,
        )
        estimates = np.array([program.estimate(u, states[u])
                              for u in range(n)])
        return estimates, acct

    yield finish_round(0, transitions(program.init_node))
    for k in count(1):
        snapshot, prev = inboxes, states
        yield finish_round(k, transitions(
            lambda u: program.step(u, prev[u], snapshot[u])))


def _edge_rounds(program: NodeProgram, kernel, g: UndirectedGraph
                 ) -> Iterator[tuple[np.ndarray, RoundAccounting]]:
    """Edge-array path: yields (estimates, accounting) per round.

    Costs depend on degrees only, so each round's accounting is one of
    two records built here; a round with positivity violations gets a
    copy that carries its count.
    """
    degree = np.diff(g.indptr)

    def accounting(ops: np.ndarray) -> RoundAccounting:
        storage = kernel.storage
        return RoundAccounting(
            messages_sent=len(g.nbr),
            per_node_ops=tuple(ops.tolist()),
            per_node_storage=tuple(storage.tolist()),
            ops_bound_ok=bool(np.all(ops <= OPS_BOUND_COEFF * (degree + 1))),
            storage_bound_ok=bool(np.all(
                storage <= STORAGE_BOUND_COEFF * (degree + 1))),
            local_complexity_declared=program.local_complexity)

    def row(estimates, first, acct):
        if program.check_positive_a:
            violations = int(np.count_nonzero(~(first > 0.0)))
            if violations:
                acct = replace(acct, positivity_violations=violations)
        return estimates, acct

    yield row(*kernel.start(), accounting(kernel.init_ops))
    acct = accounting(kernel.step_ops)
    while True:
        yield row(*kernel.advance(), acct)


def run_rounds(sys: SparseSystem, program: NodeProgram, max_rounds: int,
               tol: Optional[float] = None,
               reference: Optional[np.ndarray] = None,
               node_order: Optional[Sequence[int]] = None) -> ConvergenceTrace:
    """Drive a node program for up to max_rounds synchronous rounds.

    The stop rules are the solver's two regimes.  Without tol, the run
    is exactly rounds 0..max_rounds and ends "fixed-rounds": an acyclic
    system is exact after diameter-many rounds.  With tol, a finite
    tolerance >= 0, it ends "delta" at the first round k >= 1 where
    delta_stop(previous, current, tol) holds, or else "max-rounds": a
    loopy system converges only asymptotically.

    Round 0 is initialization (it already sends one message per directed
    edge).  A SolverError raised inside a node transition aborts the run
    at that round's barrier: the trace keeps rounds 0..k-1 and carries a
    SolverFault record for the smallest faulting node; stop_reason is
    then "fault".  node_order changes only the evaluation sequence of the
    per-node path, never the trace.
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    g = sys.graph
    n = sys.n
    order = list(range(n)) if node_order is None else list(node_order)
    if sorted(order) != list(range(n)):
        raise ProtocolViolationError("node_order must be a permutation")
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
    kernel = program.edge_kernel(g)
    rounds = (_node_rounds(program, g, order) if kernel is None
              else _edge_rounds(program, kernel, g))

    trace = ConvergenceTrace(reference=reference)
    prev_estimates = None
    for k in range(max_rounds + 1):
        try:
            estimates, acct = next(rounds)
        except NodeFault as fault:
            trace.stop_reason = "fault"
            trace.fault = SolverFault(node=fault.node, round=k,
                                      error=type(fault.error).__name__,
                                      cause=str(fault.error))
            return trace
        mse = _log10_mse(estimates, reference) if reference is not None else None
        delta = (float(np.max(np.abs(estimates - prev_estimates)))
                 if prev_estimates is not None else None)
        trace.rounds.append(TraceRound(k=k, estimates=estimates, log10_mse=mse,
                                       max_delta=delta, accounting=acct))
        if tol is not None and k and delta_stop(prev_estimates, estimates,
                                                tol):
            trace.stop_reason = "delta"
            return trace
        prev_estimates = estimates
    trace.stop_reason = "fixed-rounds" if tol is None else "max-rounds"
    return trace
