import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walksolve import analysis, engine, solvers
from walksolve.core import (GeneratorSpec, SparseSystem, generate_instance,
                            system_from_edges)
from walksolve.engine import NodeProgram, delta_stop, run_rounds
from walksolve.errors import (DimensionMismatchError, ProtocolViolationError,
                              SingularMessageError, SolverError,
                              TooLargeError)
from walksolve.solvers import (BPProgram, ConsensusProgram, JacobiProgram,
                               bp_solve)
from walksolve.verify import run_message_rounds

from conftest import PerNodeBP, kernel_rounds
from test_edge_kernel import FAULTING, systems


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


def test_a_small_step_that_solves_nothing_stops_stalled():
    # round 1's step of 5e137 passes tol * max|x| ~ 1e139, but the
    # residual is as large as b: the solution is about 1e160
    trace = run_rounds(ConsensusProgram(FAULTING["diverge"]), 4, tol=1e-10)
    assert trace.stop_reason == "stalled"
    assert len(trace.rounds) == 2 and trace.fault is None
    assert not engine.residual_stop(FAULTING["diverge"],
                                    trace.final_estimates, 1e-10)


#: solved to rounding, yet row 1's products cancel, so b - A x = (0, 1)
ILL_SCALED = SparseSystem(2, [(0, 0, 3.0), (1, 0, -1e100), (1, 1, 1.0)],
                          [-2.0, 1.0])


def test_an_ill_scaled_system_solved_to_rounding_stops_delta():
    trace = run_rounds(JacobiProgram(ILL_SCALED), 10, tol=1e-10)
    assert trace.stop_reason == "delta"
    assert trace.final_estimates.tolist() == [-2 / 3, -2e100 / 3]


@pytest.mark.parametrize("tol, stop", [(1e-4, "stalled"), (1e-2, "delta")])
def test_the_backward_error_bound_grows_with_tol(tol, stop):
    # x = (1, 1.1) on 2 x_0 = 2, x_0 + x_1 = 2 has backward error
    # 0.1 / 4.1 at row 1: above sqrt(1e-4), below sqrt(1e-2)
    sys = SparseSystem(2, [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 1.0)],
                       [2.0, 2.0])
    assert engine.residual_stop(sys, np.array([1.0, 1.1]), tol) == (
        stop == "delta")


@st.composite
def generated_systems(draw):
    kind = draw(st.sampled_from(["random-tree", "loopy-small",
                                 "random-sparse"]))
    n = draw(st.integers(3, 60))
    options = (dict(diag_rule="unit", coeff_range=(-0.3, 0.3),
                    density=2.5 / n) if kind == "random-sparse" else {})
    return generate_instance(GeneratorSpec(
        kind=kind, n=n, seed=draw(st.integers(0, 2 ** 32 - 1)), **options))


@settings(max_examples=200, deadline=None)
@given(sys=st.one_of(systems(), generated_systems()),
       cls=st.sampled_from([BPProgram, JacobiProgram, ConsensusProgram]),
       tol=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]))
@example(sys=FAULTING["diverge"], cls=ConsensusProgram, tol=1e-10)
@example(sys=ILL_SCALED, cls=JacobiProgram, tol=1e-10)
def test_no_delta_stop_leaves_a_backward_error_above_the_bound(sys, cls,
                                                               tol):
    try:
        program = cls(sys)
    except SolverError:  # consensus refuses a row of norm 0
        return
    trace = run_rounds(program, 200, tol=tol)
    if trace.stop_reason != "delta":
        return
    x = trace.final_estimates.tolist()
    bound = max(engine.RESIDUAL_STOP, math.sqrt(tol))
    bounds = sys.indptr.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        terms = [float(sys.b[i])] + [-a * x[j] for a, j in zip(
            sys.data[lo:hi].tolist(), sys.indices[lo:hi].tolist())]
        scale = sum(map(abs, terms))
        # the float residual the engine summed is within this of the sum
        slack = (len(terms) + 1) * 2.0 ** -52 * scale
        assert abs(math.fsum(terms)) <= bound * scale + slack


def test_an_oversized_consensus_run_is_refused_before_round_0(monkeypatch):
    sys = generate_instance(GeneratorSpec("loopy-small", 40, 1))
    # three 40 x 40 arrays hold 4800 floats
    monkeypatch.setattr(solvers, "MAX_ROUND_FLOATS", 4799)
    with pytest.raises(TooLargeError, match=(
            "consensus on 40 nodes holds three 40 x 40 arrays, 4.8e[+]03 "
            "floats, more than 4.8e[+]03")):
        run_rounds(ConsensusProgram(sys), 5, tol=1e-10)
    # bp on the same system runs, and so does consensus at the cap
    assert run_rounds(BPProgram(sys), 5).stop_reason == "fixed-rounds"
    monkeypatch.setattr(solvers, "MAX_ROUND_FLOATS", 4800)
    assert run_rounds(ConsensusProgram(sys), 5).stop_reason == "fixed-rounds"


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


# ---------------------------------------------------------------------------
# per-round bookkeeping: a block of rounds' log10_mse, and the stop bound


def _row_log10_mse(estimates, reference):
    """log10_mse from the round's own 1-D sum, one round at a time."""
    with np.errstate(over="ignore"):
        d = estimates - reference
        mse = float(np.add.reduce(d * d)) / len(estimates)
    return -math.inf if mse == 0.0 else math.log10(mse)


@st.composite
def estimate_blocks(draw):
    """(rows of estimates, reference): each row at its own scale up to
    about 1e160, so squares overflow to inf, with rows equal to the
    reference (-inf), entries equal to it, and NaN entries."""
    n = draw(st.integers(1, 5000))
    rows = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    reference = rng.standard_normal(n) * 10.0 ** draw(st.integers(-160, 160))
    scale = 10.0 ** rng.integers(-160, 161, size=(rows, 1))
    block = rng.standard_normal((rows, n)) * scale
    if draw(st.booleans()):
        wild = rng.random((rows, n)) < 0.3
        block[wild] = rng.standard_normal(wild.sum()) * 10.0 ** rng.integers(
            -160, 161, wild.sum())
    if draw(st.booleans()):
        block[rng.random(rows) < 0.5] = reference
    if draw(st.booleans()):
        same = rng.random((rows, n)) < 0.5
        block[same] = np.broadcast_to(reference, (rows, n))[same]
    if draw(st.booleans()):
        block[rng.integers(rows), rng.integers(n)] = math.nan
    return block, reference


@settings(max_examples=100, deadline=None)
@given(case=estimate_blocks())
@example(case=(np.zeros((3, 1)), np.zeros(1)))
@example(case=(np.full((2, 4099), 1e160), np.zeros(4099)))
def test_a_blocks_row_sums_equal_each_rounds_own_sum(case):
    # numpy reduces a C-contiguous row pairwise, as it does a 1-D array
    block, reference = case
    want = [_row_log10_mse(row, reference) for row in block]
    held = np.empty((len(block) + 2, block.shape[1]))
    held[:len(block)] = block
    got = engine._log10_mses(held[:len(block)], reference)
    assert list(map(repr, got)) == list(map(repr, want))


#: Jacobi multiplies this pair's estimates by 10 a round until, past
#: ESTIMATE_LIMIT, node 0 faults at round 150
GROWING = SparseSystem(2, [(0, 0, 1.0), (0, 1, -10.0), (1, 0, -10.0),
                           (1, 1, 1.0)], [1.0, 1.0])

LOOPY_100 = GeneratorSpec(kind="loopy-small", n=100, seed=0)

#: (program, system, max_rounds, tol, stop, rounds kept), each run
#: measured against dense_solve
BLOCK_RUNS = {
    "fault": (JacobiProgram, GROWING, 400, None, "fault", 150),
    "delta": (JacobiProgram, LOOPY_100, 500, 1e-10, "delta", None),
    "cap": (BPProgram, LOOPY_100, 50, 0.0, "max-rounds", 51),
    "fixed": (ConsensusProgram, LOOPY_100, 40, None, "fixed-rounds", 41),
}


def _block_run(case):
    cls, sys, max_rounds, tol, stop, kept = BLOCK_RUNS[case]
    if isinstance(sys, GeneratorSpec):
        sys = generate_instance(sys)
    return cls, sys, max_rounds, tol, solvers.dense_solve(sys), stop, kept


def _trace_key(trace):
    return repr(([(r.k, r.log10_mse, r.max_delta, r.positivity_violations,
                   r.accounting) for r in trace.rounds],
                 trace.stop_reason, trace.fault)), (
        trace.final_estimates.tobytes()
        if trace.final_estimates is not None else None)


def _runs_by_block_height(monkeypatch, program, sys, *args):
    """The run at block heights 1, 7 and the default, which must agree."""
    keys = []
    for floats in (1, 7 * sys.n, engine.ROUND_BLOCK_FLOATS):
        monkeypatch.setattr(engine, "ROUND_BLOCK_FLOATS", floats)
        trace = run_rounds(program(sys), *args)
        keys.append(_trace_key(trace))
    assert keys[0] == keys[1] == keys[2]
    return trace


@pytest.mark.parametrize("case", sorted(BLOCK_RUNS))
def test_a_run_ends_mid_block_with_every_rounds_log10_mse(monkeypatch,
                                                          case):
    cls, sys, max_rounds, tol, reference, stop, kept = _block_run(case)
    trace = _runs_by_block_height(monkeypatch, cls, sys, max_rounds, tol,
                                  reference)
    assert trace.stop_reason == stop
    assert kept is None or len(trace.rounds) == kept
    # the run ends inside a block of 7 rounds and crosses earlier ones
    assert len(trace.rounds) > 7 and len(trace.rounds) % 7
    rounds, _ = kernel_rounds(cls(sys), len(trace.rounds) - 1)
    assert [r.log10_mse for r in trace.rounds] == [
        _row_log10_mse(estimates, reference) for estimates, _ in rounds]


@pytest.mark.parametrize("stage", sorted(FAULTING))
@pytest.mark.parametrize("cls", [BPProgram, JacobiProgram, ConsensusProgram],
                         ids=["bp", "jacobi", "consensus"])
def test_a_fault_fills_the_rounds_of_its_block(monkeypatch, stage, cls):
    sys = FAULTING[stage]
    try:
        cls(sys)
    except SolverError:  # consensus refuses a row of norm 0
        return
    reference = np.arange(1.0, sys.n + 1)
    trace = _runs_by_block_height(monkeypatch, cls, sys, 6, None, reference)
    rounds, _ = kernel_rounds(cls(sys), len(trace.rounds) - 1)
    assert [r.log10_mse for r in trace.rounds] == [
        _row_log10_mse(estimates, reference)
        for estimates, _ in rounds[:len(trace.rounds)]]


class _ScriptedProgram(NodeProgram):
    """Yields a drawn sequence of estimates on a system of n lone nodes."""

    def __init__(self, rounds):
        n = len(rounds[0])
        self.sys = SparseSystem(n, [(i, i, 1.0) for i in range(n)],
                                [1.0] * n)
        self._rounds = rounds

    def costs(self, deg, n):
        return deg + 1, deg + 1, deg + 1

    def rounds(self):
        for estimates in self._rounds:
            yield np.array(estimates), None


def _stop_oracle(sys, rounds, max_rounds, tol):
    """run_rounds' stop, calling delta_stop on every round."""
    deltas, prev = [], None
    for k, estimates in enumerate(rounds[:max_rounds + 1]):
        estimates = np.array(estimates)
        delta = (float(np.abs(estimates - prev).max())
                 if prev is not None else None)
        deltas.append(delta)
        if k and delta_stop(delta, estimates, tol):
            return deltas, ("delta" if engine.residual_stop(
                sys, estimates, tol) else "stalled")
        prev = estimates
    return deltas, "max-rounds"


#: a tie in the step's rounding: 2**54 + 4 - 2 = 2**54 + 2 rounds down to
#: 2**54, and so does 2 + 2**54, one ulp below the estimate 2**54 + 4.
#: The NaN round before makes the rule run, so the bound is exactly 2.
TIE = (math.nan, 2.0, 2.0 ** 54 + 4)
TOL_BELOW_1 = 1.0 - 2.0 ** -53


@st.composite
def estimate_sequences(draw):
    """(tol, rounds): a run's estimates, built from steps that hit the
    stop's threshold exactly, magnitudes growing by 1e100 a round, inf
    and NaN rounds, rounding ties, and arbitrary finite rounds."""
    tol = draw(st.one_of(st.sampled_from([0.0, 1e-12, 1e-3, 0.5,
                                          TOL_BELOW_1, 1.0]),
                         st.floats(0.0, 1.0)))
    n = draw(st.integers(1, 3))
    value = st.floats(-1e6, 1e6) | st.floats(allow_nan=False,
                                             allow_infinity=False)
    rounds = []
    while len(rounds) < 12:
        kind = draw(st.sampled_from(["any", "threshold", "grow",
                                     "nonfinite", "tie"]))
        scale = 2.0 ** draw(st.integers(-40, 40)) * draw(
            st.sampled_from([1.0, -1.0]))
        if kind == "any":
            rounds.append(draw(st.lists(value, min_size=n, max_size=n)))
        elif kind == "threshold":
            # a step of exactly tol * max(1, max|x|): entry 0 holds the
            # max M >= 1 and entry n-1 steps from 0 by tol * M
            big = draw(st.floats(1.0, 1e300))
            base = [0.0] * n
            base[0] = big if n > 1 else 0.0
            step = list(base)
            step[-1] = scale / abs(scale) * tol * max(1.0, abs(base[0]))
            rounds += [base, step]
        elif kind == "grow":
            start = draw(st.lists(value, min_size=n, max_size=n))
            rounds += [[x * 10.0 ** (100 * i) for x in start]
                       for i in range(4)]
        elif kind == "nonfinite":
            bad = draw(st.lists(value | st.sampled_from(
                [math.inf, -math.inf, math.nan]), min_size=n, max_size=n))
            bad[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from([math.inf, -math.inf, math.nan]))
            rounds.append(bad)
        else:
            rounds += [[x * scale] + [0.0] * (n - 1) for x in TIE]
    return tol, rounds


@settings(max_examples=300, deadline=None)
@given(case=estimate_sequences(), max_rounds=st.integers(0, 40))
@example(case=(TOL_BELOW_1, [[x] for x in TIE]), max_rounds=5)
@example(case=(TOL_BELOW_1, [[-10.0], [2.0], [2.0 ** 54 + 4]]), max_rounds=5)
@example(case=(1e-3, [[math.nan], [2.0], [1000.0], [1001.0]]), max_rounds=5)
@example(case=(0.5, [[3.0, 0.0], [3.0, 1.5]]), max_rounds=5)
@example(case=(1e-12, [[1.0], [1e100], [1e200], [1e300], [1e300]]),
         max_rounds=5)
def test_the_stop_bound_stops_where_delta_stop_does(case, max_rounds):
    tol, rounds = case
    program = _ScriptedProgram(rounds)
    with np.errstate(all="ignore"):
        trace = run_rounds(program, max_rounds, tol=tol)
        deltas, stop = _stop_oracle(program.sys, rounds, max_rounds, tol)
    assert repr([r.max_delta for r in trace.rounds]) == repr(deltas)
    assert trace.stop_reason == stop
    assert np.array_equal(trace.final_estimates,
                          np.array(rounds[len(deltas) - 1]), equal_nan=True)
