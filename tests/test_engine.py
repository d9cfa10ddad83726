import numpy as np
import pytest

from walksolve import analysis
from walksolve.core import (GeneratorSpec, SparseSystem, generate_instance,
                            system_from_edges)
from walksolve.engine import NodeProgram, delta_stop, run_rounds
from walksolve.errors import (DimensionMismatchError, ProtocolViolationError,
                              SingularMessageError)
from walksolve.solvers import (BPProgram, ConsensusProgram, JacobiProgram,
                               bp_solve)
from walksolve.verify import run_message_rounds

from conftest import PerNodeBP
from test_edge_kernel import FAULTING


def test_delta_stop_is_relative():
    a = np.array([1e10, 0.0])
    assert delta_stop(0.5, a, 1e-10)       # 0.5 <= 1e-10 * 1e10
    assert not delta_stop(0.5, a, 1e-12)
    # below 1 the bound is tol itself
    small = np.array([0.5, -0.25])
    assert delta_stop(5e-11, small, 1e-10)
    assert not delta_stop(2e-10, small, 1e-10)


def test_delta_stop_needs_a_finite_delta():
    # an overflow to inf is not convergence, though inf <= tol * inf;
    # inf - inf makes the delta NaN
    assert not delta_stop(np.inf, np.array([np.inf, 1.0]), 1e-10)
    assert not delta_stop(np.nan, np.array([np.inf]), 1e-10)


def test_fixed_rounds_validation(two_node):
    # a negative cap is refused, not read as round 0 only
    with pytest.raises(ValueError, match="max_rounds"):
        run_rounds(JacobiProgram(two_node), -1)


def test_negative_round_counts_are_refused_before_any_round(monkeypatch):
    # a tree runs diameter-many rounds whatever the cap, and the message
    # reader asked for no round at all; both refuse a negative count, as
    # run_rounds does, before any analysis
    tree = generate_instance(GeneratorSpec(kind="random-tree", n=50, seed=1))
    monkeypatch.setattr(analysis, "is_diagonally_dominant",
                        lambda sys: pytest.fail("analysis ran"))
    with pytest.raises(ValueError, match="max_rounds must be >= 0, got -5"):
        bp_solve(tree, max_rounds=-5)
    for rounds in (-1, -2):
        with pytest.raises(ValueError, match="max_rounds must be >= 0"):
            run_message_rounds(tree, rounds)


def test_a_run_reads_no_round_past_its_cap_or_its_stop(two_node):
    # bp faults at round 2 here; a cap of 1 never computes that round
    sys = FAULTING["incoming"]
    trace = run_rounds(BPProgram(sys), 1)
    assert (trace.stop_reason, trace.fault) == ("fixed-rounds", None)
    read = []

    class Counting(JacobiProgram):
        def rounds(self):
            for k, pair in enumerate(super().rounds()):
                read.append(k)
                yield pair

    run_rounds(Counting(two_node), 3)
    assert read == [0, 1, 2, 3]
    read.clear()
    trace = run_rounds(Counting(two_node), 500, tol=1e-10)
    assert trace.stop_reason == "delta"
    assert read == list(range(len(trace.rounds)))


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_tolerance_must_be_finite_and_nonnegative(two_node, tol):
    # a tree runs a fixed number of rounds without tol, and is refused
    # all the same
    tree = generate_instance(GeneratorSpec(kind="random-tree", n=50, seed=1))
    calls = [lambda: run_rounds(JacobiProgram(two_node), 3, tol=tol),
             lambda: bp_solve(tree, tol=tol)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be finite"):
            call()


class _WrongAddressProgram(NodeProgram):
    """Addresses a non-neighbor to trip the per-edge contract."""

    def __init__(self, sys):
        self.sys = sys

    def init_node(self, node):
        return None, {(node + 1) % self.sys.n: (0.0,)}

    def step(self, node, state, inbox):
        return None, {}

    def estimate(self, node, state):
        return 0.0

    def costs(self, deg, n):
        return (np.ones_like(deg),) * 3


def test_outbox_must_match_neighbor_set(two_node):
    sys3 = system_from_edges(3, [(0, 1)], seed=0)
    with pytest.raises(ProtocolViolationError, match="expected exactly"):
        run_rounds(_WrongAddressProgram(sys3), max_rounds=1)


class _RecordingProgram(NodeProgram):
    """Sends a fresh list on every edge each round and records, by
    (sender, receiver, round sent), what it sent and what arrived."""

    check_positive_a = True

    def __init__(self, sys):
        self.sys = sys
        self.sent = {}
        self.received = {}

    def init_node(self, node):
        return self._send(node, 0)

    def step(self, node, k, inbox):
        for v, value in inbox.items():
            self.received[v, node, k - 1] = value
        return self._send(node, k)

    def _send(self, node, k):
        out = {v: [1.0, node, v, k] for v in self.sys.graph.neighbors[node]}
        for v, value in out.items():
            self.sent[node, v, k] = value
        return k + 1, out

    def estimate(self, node, state):
        return 0.0

    def costs(self, deg, n):
        return (np.ones_like(deg),) * 3


def test_per_node_kernel_delivers_the_values_sent():
    sys = generate_instance(GeneratorSpec(kind="loopy-small", n=8, seed=1))
    program = _RecordingProgram(sys)
    trace = run_rounds(program, 3)
    # [0] of every list is the positive scalar the diagnostic reads
    assert trace.total_positivity_violations == 0
    # rounds 1..3 read what rounds 0..2 sent, as the very same objects
    assert sorted(program.received) == sorted(
        key for key in program.sent if key[2] < 3)
    for key, value in program.received.items():
        assert value is program.sent[key], key


def test_init_fault_keeps_empty_trace():
    # a numerically-zero diagonal faults message seeding at round 0
    sys = SparseSystem(2, [(0, 0, 1e-30), (0, 1, -1.0), (1, 0, -1.0),
                           (1, 1, 1.0)], [1.0, 1.0])
    trace = run_rounds(BPProgram(sys), max_rounds=5)
    assert trace.stop_reason == "fault"
    assert trace.fault is not None
    assert trace.fault.round == 0
    assert trace.fault.node == 0
    assert trace.fault.error == "SingularMessageError"
    assert trace.rounds == []


def test_mid_run_fault_keeps_partial_trace():
    # singular 2x2: the aggregate scalar cancels exactly at round 1
    sys = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0),
                           (1, 1, 1.0)], [1.0, 1.0])
    trace = run_rounds(BPProgram(sys), max_rounds=5)
    assert trace.stop_reason == "fault"
    assert trace.fault.round == 1
    assert trace.fault.error == "SingularMessageError"
    assert [r.k for r in trace.rounds] == [0]


def test_both_kernels_report_the_smallest_faulting_node():
    # both aggregates cancel at round 1; node 0 is reported by the
    # per-node kernel and by the array kernel alike
    sys = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0),
                           (1, 1, 1.0)], [1.0, 1.0])
    faults = [run_rounds(cls(sys), max_rounds=5).fault
              for cls in (PerNodeBP, BPProgram)]
    assert [(f.node, f.round) for f in faults] == [(0, 1)] * 2
    assert faults[0] == faults[1]


def test_round_zero_counts_and_stopping(two_node):
    trace = run_rounds(BPProgram(two_node), max_rounds=0)
    assert trace.stop_reason == "fixed-rounds"
    assert [r.k for r in trace.rounds] == [0]
    assert trace.rounds[0].accounting.messages_sent == 2
    assert trace.rounds[0].max_delta is None


def test_delta_stop_reason(two_node):
    trace = run_rounds(JacobiProgram(two_node), max_rounds=500, tol=1e-10)
    assert trace.stop_reason == "delta"
    assert trace.rounds[-1].max_delta <= 1e-10 * max(
        1.0, float(np.max(np.abs(trace.final_estimates))))


@pytest.mark.parametrize("shape", [(1,), (5,), (20, 1), (20, 20)])
def test_run_rounds_refuses_a_reference_of_another_shape(shape):
    # each shape either broadcasts against the 20 estimates into a wrong
    # log10_mse or fails only once round 0 has run; it is refused first
    sys = generate_instance(GeneratorSpec(kind="loopy-small", n=20, seed=0))
    graphs = []

    class Recording(JacobiProgram):
        def rounds(self):
            graphs.append(self.sys.graph)
            return super().rounds()

    with pytest.raises(DimensionMismatchError, match=r"expected \(20,\)"):
        run_rounds(Recording(sys), 3, reference=np.zeros(shape))
    assert not graphs
    with pytest.raises(DimensionMismatchError):
        bp_solve(sys, reference=np.ones(shape))


def test_max_rounds_reason(two_node):
    # a zero tolerance is not reached in three Jacobi rounds
    trace = run_rounds(JacobiProgram(two_node), max_rounds=3, tol=0.0)
    assert trace.stop_reason == "max-rounds"
    assert [r.k for r in trace.rounds] == [0, 1, 2, 3]


def test_log10_mse_tracking(two_node):
    ref = np.array([16.0 / 7.0, 18.0 / 7.0])
    trace = run_rounds(BPProgram(two_node), max_rounds=1, reference=ref)
    assert trace.rounds[0].log10_mse is not None
    # round 1 is exact here, so the mse either underflows to -inf or is tiny
    assert trace.rounds[1].log10_mse < -25


def test_positivity_diagnostic_counts_without_faulting():
    # a strongly coupled triangle drives the aggregate scalars negative;
    # that is a diagnostic count, not a fault
    entries = [(i, i, 1.0) for i in range(3)]
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        entries += [(i, j, -2.0), (j, i, -2.0)]
    sys = SparseSystem(3, entries, [1.0, 1.0, 1.0])
    trace = run_rounds(BPProgram(sys), max_rounds=4)
    assert trace.stop_reason == "fixed-rounds"
    assert trace.total_positivity_violations > 0


def test_accounting_bounds_small_graph(two_node):
    trace = run_rounds(BPProgram(two_node), max_rounds=2)
    for row in trace.rounds:
        acct = row.accounting
        assert acct.messages_sent == 2
        assert acct.ops_bound_ok and acct.storage_bound_ok
        assert acct.local_complexity_declared
        assert not acct.violates_local_constraints
    # declared numbers for degree-1 nodes
    assert trace.rounds[0].accounting.per_node_ops == (3, 3)       # 2d+1
    assert trace.rounds[1].accounting.per_node_ops == (14, 14)     # 11d+3
    assert trace.rounds[1].accounting.per_node_storage == (12, 12)  # 7d+5
    # each program's (init_ops, step_ops, storage) at degrees 0, 1, 3
    # and n = 5, worked out by hand
    deg = np.array([0, 1, 3])
    want = {BPProgram: ([1, 3, 7], [3, 14, 36], [5, 12, 26]),
            JacobiProgram: ([1, 1, 1], [2, 4, 8], [3, 5, 9]),
            ConsensusProgram: ([7, 7, 7], [19, 28, 46], [7, 14, 28])}
    for cls, costs in want.items():
        got = cls(two_node).costs(deg, 5)
        assert [c.tolist() for c in got] == list(costs), cls.__name__


def _compare(monkeypatch, sys):
    """Run the compare command on sys, as if loaded from a file."""
    from walksolve import mmio
    from walksolve.cli import main
    monkeypatch.setattr(mmio, "load_system", lambda matrix, rhs: sys)
    assert main(["compare", "--matrix", "a.mtx", "--rhs", "a.rhs",
                 "--max-iters", "5"]) == 0


def test_runs_on_one_system_share_one_layout(monkeypatch, capsys):
    sys = generate_instance(GeneratorSpec(kind="loopy-small", n=30, seed=2))
    revs = []
    for cls in (BPProgram, JacobiProgram, ConsensusProgram):
        def recording(self, real=cls.rounds):
            revs.append(self.sys.graph.rev)
            return real(self)
        monkeypatch.setattr(cls, "rounds", recording)
    run_rounds(BPProgram(sys), 3)
    run_rounds(JacobiProgram(sys), 3)
    _compare(monkeypatch, sys)
    assert len(revs) == 5
    assert all(rev is sys.graph.rev for rev in revs)


def test_solvers_never_build_the_neighbor_tuples(monkeypatch, capsys):
    tree = generate_instance(GeneratorSpec(kind="random-tree", n=200,
                                           seed=1))
    bp_solve(tree)
    loopy = generate_instance(GeneratorSpec(kind="loopy-small", n=40,
                                            seed=1))
    _compare(monkeypatch, loopy)
    for sys in (tree, loopy):
        assert "neighbors" not in sys.graph.__dict__
