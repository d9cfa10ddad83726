import re
import tracemalloc

import numpy as np
import pytest

from walksolve import analysis, core
from walksolve.core import GeneratorSpec, SparseSystem, generate_instance
from walksolve.engine import run_rounds
from walksolve.errors import (
    DimensionMismatchError,
    NotWalkSummableError,
    NotWalkSummableWarning,
    SingularMatrixError,
    ZeroRowError,
)
from walksolve.solvers import (
    BPProgram,
    ConsensusProgram,
    JacobiProgram,
    bp_solve,
    dense_solve,
    gauss_seidel_sweep,
)
from walksolve.verify import run_message_rounds

from conftest import PATH3_SOLUTION, TWO_NODE_SOLUTION, kernel_estimates


def _round_zero(program, sys):
    """Every node's round-0 states and outboxes from the program's
    per-node path."""
    states, outboxes = zip(*map(program.init_node, range(sys.n)))
    return list(states), list(outboxes)


def test_bp_init_values(two_node):
    states, outboxes = _round_zero(BPProgram(two_node), two_node)
    assert outboxes == [{1: (2.0, 2.0)}, {0: (2.0, 4.0)}]
    assert states == [1.0, 2.0]


def test_bp_round_hand_values(two_node):
    # node 0 from the round-0 pair (2, 4):
    #   a~ = 2 - (-0.5)(-1)/2 = 1.75,  b~ = 2 - (-1)(4)/2 = 4
    #   x^ = 4/1.75 = 16/7; outgoing puts the removed term back: (2, 2)
    # node 1 from (2, 2): a~ = 1.75, b~ = 4.5, x^ = 18/7, outgoing (2, 4)
    program = BPProgram(two_node)
    states, _ = _round_zero(program, two_node)
    new0, out0 = program.step(0, states[0], {1: (2.0, 4.0)})
    assert new0 == pytest.approx(16.0 / 7.0, abs=1e-15)
    assert out0 == {1: (2.0, 2.0)}
    new1, out1 = program.step(1, states[1], {0: (2.0, 2.0)})
    assert new1 == pytest.approx(18.0 / 7.0, abs=1e-15)
    assert out1 == {0: (2.0, 4.0)}


#: A = [[2, -1], [0, 2]], b = [2, 4], with the (1, 0) entry not stored
#: or stored as 0.0: the edge exists through a_01 alone, and a program
#: must read a_10 = 0, not a_01
ONE_SIDED = {
    "absent": SparseSystem(2, [(0, 0, 2.0), (0, 1, -1.0), (1, 1, 2.0)],
                           [2.0, 4.0]),
    "stored-zero": SparseSystem(2, [(0, 0, 2.0), (0, 1, -1.0), (1, 0, 0.0),
                                    (1, 1, 2.0)], [2.0, 4.0]),
}


@pytest.mark.parametrize("name", sorted(ONE_SIDED))
def test_bp_one_sided_entry_hand_values(name):
    # round 0: x^ = [1, 2], pairs (2, 2) from node 0 and (2, 4) from 1
    # node 0 from (2, 4): a_01 a_10 = 0, so a~ = 2; b~ = 2 - (-1)(4)/2 = 4,
    #   x^ = 2; outgoing puts its terms back: (2 + 0, 4 - 2) = (2, 2)
    # node 1 from (2, 2): a_10 = 0, so a~ = 2, b~ = 4, x^ = 2, and it
    #   sends (2, 4) again; reading a_01 = -1 instead would give x^ = 2.5
    sys = ONE_SIDED[name]
    program = BPProgram(sys)
    states, outboxes = _round_zero(program, sys)
    assert states == [1.0, 2.0]
    assert outboxes == [{1: (2.0, 2.0)}, {0: (2.0, 4.0)}]
    assert program.step(0, states[0], {1: (2.0, 4.0)}) == (2.0,
                                                           {1: (2.0, 2.0)})
    assert program.step(1, states[1], {0: (2.0, 2.0)}) == (2.0,
                                                           {0: (2.0, 4.0)})


@pytest.mark.parametrize("name", sorted(ONE_SIDED))
def test_jacobi_one_sided_entry_hand_values(name):
    # round 0: x^ = [2/2, 4/2] = [1, 2]
    # node 0 from x^_1 = 2: (2 - (-1)(2)) / 2 = 2
    # node 1 from x^_0 = 1: (4 - 0 * 1) / 2 = 2; a_01 = -1 would give 2.5
    sys = ONE_SIDED[name]
    program = JacobiProgram(sys)
    states, outboxes = _round_zero(program, sys)
    assert states == [1.0, 2.0]
    assert outboxes == [{1: 1.0}, {0: 2.0}]
    assert program.step(0, states[0], {1: 2.0}) == (2.0, {1: 2.0})
    assert program.step(1, states[1], {0: 1.0}) == (2.0, {0: 2.0})


def test_bp_messages_path3(path3):
    # hand values: the hub's round-1 pair toward node 0 is
    #   a = 2 - 1/2 = 1.5,  b = 2 + 3/2 = 3.5
    # and leaf pairs never change
    per_round = run_message_rounds(path3, 2)
    assert per_round[0][(1, 0)] == (2.0, 2.0)
    assert per_round[1][(1, 0)] == (1.5, 3.5)
    assert per_round[1][(0, 1)] == (2.0, 1.0)
    assert per_round[1][(2, 1)] == (2.0, 3.0)
    # diameter 2: every pair is stationary from round 1 on, up to the
    # roundoff of recomputing the same value along a different path
    for edge, pair in per_round[1].items():
        assert per_round[2][edge] == pytest.approx(pair, rel=1e-14)


def test_bp_estimates_path3(path3):
    by_k = kernel_estimates(BPProgram(path3), 2)
    assert by_k[0] == pytest.approx([0.5, 1.0, 1.5])
    assert by_k[1] == pytest.approx([4.0 / 3.0, 4.0, 8.0 / 3.0], abs=1e-15)
    assert by_k[2] == pytest.approx(PATH3_SOLUTION, abs=1e-14)


def test_bp_solve_exact_on_trees(two_node, path3):
    x2, t2 = bp_solve(two_node)
    assert t2.stop_reason == "fixed-rounds"
    assert t2.rounds[-1].k == 1  # diameter-many rounds exactly
    assert x2 == pytest.approx(TWO_NODE_SOLUTION, abs=1e-14)
    x3, t3 = bp_solve(path3)
    assert t3.rounds[-1].k == 2
    assert x3 == pytest.approx(PATH3_SOLUTION, abs=1e-14)


def test_bp_solve_round_zero_fault_has_no_estimates():
    # b_i / a_ii = 1e300 / 1e-100 overflows, so round 0 itself faults
    sys = SparseSystem(2, [(0, 0, 1e-100), (0, 1, 1e-101), (1, 0, 1e-101),
                           (1, 1, 1e-100)], [1e300, 1e300])
    x, trace = bp_solve(sys)
    assert x is None
    assert trace.rounds == []
    assert trace.stop_reason == "fault"
    assert (trace.fault.node, trace.fault.round, trace.fault.error) == (
        0, 0, "DivergedEstimateError")


def test_bp_solve_refuses_non_summable():
    entries = [(i, i, 1.0) for i in range(3)]
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        entries += [(i, j, -2.0), (j, i, -2.0)]
    sys = SparseSystem(3, entries, [1.0, 1.0, 1.0])
    with pytest.raises(NotWalkSummableError):
        bp_solve(sys)
    with pytest.warns(NotWalkSummableWarning):
        _, trace = bp_solve(sys, max_rounds=5, force=True)
    assert trace.total_positivity_violations > 0


def test_bp_solve_skips_analysis_on_dominant_systems(monkeypatch):
    sys = generate_instance(GeneratorSpec(kind="random-tree", n=30, seed=4))
    want_x, want = bp_solve(sys)
    real_analyze = analysis.analyze

    def refuse(*args, **kwargs):
        raise AssertionError("analyze ran on a dominant system")

    monkeypatch.setattr(analysis, "analyze", refuse)
    got_x, got = bp_solve(sys)
    assert got.rounds == want.rounds
    assert np.array_equal(got_x, want_x)
    # a non-dominant system is still analyzed, and refused without force
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real_analyze(*args, **kwargs)

    monkeypatch.setattr(analysis, "analyze", spy)
    entries = [(i, i, 1.0) for i in range(3)]
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        entries += [(i, j, -2.0), (j, i, -2.0)]
    with pytest.raises(NotWalkSummableError):
        bp_solve(SparseSystem(3, entries, [1.0, 1.0, 1.0]))
    assert len(calls) == 1


def test_bp_solve_converges_on_loopy_dominant():
    sys = generate_instance(GeneratorSpec(kind="loopy-small", n=12, seed=9,
                                          coeff_range=(-0.8, -0.4)))
    ref = dense_solve(sys)
    x, trace = bp_solve(sys, max_rounds=400, tol=1e-12)
    assert trace.stop_reason == "delta"
    assert np.max(np.abs(x - ref)) < 1e-9


def test_jacobi_hand_values(two_node):
    states, _ = _round_zero(JacobiProgram(two_node), two_node)
    assert states == [1.0, 2.0]
    by_k = kernel_estimates(JacobiProgram(two_node), 2)
    assert by_k[1] == pytest.approx([2.0, 2.25])
    assert by_k[2] == pytest.approx([2.125, 2.5])


def test_jacobi_matches_residual_power_series(two_node):
    # x^(k) must equal sum_{l=0..k} R^l D^-1 b; the l = 0 term is the
    # initialization, so a sum started at l = 1 would be one round off
    r = np.array([[0.0, 0.5], [0.25, 0.0]])
    db = np.array([1.0, 2.0])
    by_k = kernel_estimates(JacobiProgram(two_node), 6)
    total = np.zeros(2)
    power = np.eye(2)
    for k in range(7):
        total = total + power @ db
        power = power @ r
        # note: total now holds sum_{l=0..k}
        assert by_k[k] == pytest.approx(total, abs=1e-13)


def test_gauss_seidel_hand_value(two_node):
    out = gauss_seidel_sweep(two_node, [1.0, 2.0])
    assert out == pytest.approx([2.0, 2.5])
    with pytest.raises(DimensionMismatchError, match=re.escape(
            "state vector has shape (3,), expected (2,)")):
        gauss_seidel_sweep(two_node, [1.0, 2.0, 3.0])


def test_gauss_seidel_converges(two_node):
    x = np.array([1.0, 2.0])
    for _ in range(60):
        x = gauss_seidel_sweep(two_node, x)
    assert x == pytest.approx(TWO_NODE_SOLUTION, abs=1e-12)


def test_consensus_hand_round(two_node):
    # node 0: z = x0 - x1 = [1, -2]; row [2, -1] with norm^2 5 gives
    # projection coefficient 4/5, so x0 <- [1.6, 1.2]
    program = ConsensusProgram(two_node)
    states, _ = _round_zero(program, two_node)
    assert np.array_equal(states[0], [1.0, 0.0])
    assert np.array_equal(states[1], [0.0, 2.0])
    new0, out0 = program.step(0, states[0], {1: states[1]})
    assert new0 == pytest.approx([1.6, 1.2], abs=1e-15)
    new1, _ = program.step(1, states[1], {0: states[0]})
    assert new1 == pytest.approx([8.0 / 17.0, 36.0 / 17.0], abs=1e-15)


def test_consensus_preserves_row_consistency(two_node):
    a = two_node.as_dense()
    program = ConsensusProgram(two_node)
    states, _ = _round_zero(program, two_node)
    for _ in range(40):
        inboxes = [{1: states[1]}, {0: states[0]}]
        states = [program.step(i, s, inboxes[i])[0]
                  for i, s in enumerate(states)]
        for i, s in enumerate(states):
            assert abs(a[i] @ s - two_node.b[i]) < 1e-12


def test_consensus_program_flags_locality():
    sys = generate_instance(GeneratorSpec(kind="star", n=40, seed=2))
    trace = run_rounds(ConsensusProgram(sys), max_rounds=2)
    for row in trace.rounds:
        acct = row.accounting
        assert not acct.local_complexity_declared
        assert acct.violates_local_constraints
        # at this size the measured numbers overrun the bounds too
        assert not acct.ops_bound_ok
        assert not acct.storage_bound_ok


def test_dense_solve_values(two_node, path3):
    assert dense_solve(two_node) == pytest.approx(TWO_NODE_SOLUTION,
                                                  abs=1e-14)
    assert dense_solve(path3) == pytest.approx(PATH3_SOLUTION, abs=1e-14)


def test_dense_solve_rejects_singular():
    sys = SparseSystem(2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0),
                           (1, 1, 1.0)], [1.0, 2.0])
    with pytest.raises(SingularMatrixError):
        dense_solve(sys)


def test_dense_solve_refuses_a_solution_that_is_not_finite():
    # x_1 = 1e308 / 0.5 overflows; the limit scale * max|x| is then inf
    sys = SparseSystem(2, [(0, 0, 1.0), (1, 1, 0.5)], [1e308, 1e308])
    with pytest.raises(SingularMatrixError, match="non-finite"):
        dense_solve(sys)


def test_dense_solve_checks_a_residual_that_overflows_without_warning():
    # x = (5e307, 1e308) is exact, but a_01 x_1 = -2e308 overflows in the
    # residual; so does the limit, and the solution is kept
    sys = SparseSystem(2, [(0, 0, 1.0), (0, 1, -2.0), (1, 1, 1.0)],
                       [-1.5e308, 1e308])
    assert dense_solve(sys).tolist() == [5e307, 1e308]


def test_solver_ensemble_agreement_with_dense():
    # every method limits to the same solution on dominant instances
    for seed in range(6):
        sys = generate_instance(GeneratorSpec(
            kind="loopy-small", n=8, seed=seed, coeff_range=(-0.6, -0.2)))
        ref = dense_solve(sys)
        x_bp, _ = bp_solve(sys, max_rounds=400, tol=1e-13)
        assert np.max(np.abs(x_bp - ref)) < 1e-8
        tj = run_rounds(JacobiProgram(sys), max_rounds=2000)
        assert np.max(np.abs(tj.final_estimates - ref)) < 1e-8


def _count_graph_builds(monkeypatch):
    calls = []
    real = core.induced_graph

    def counting(sys):
        calls.append(sys)
        return real(sys)

    monkeypatch.setattr(core, "induced_graph", counting)
    return calls


@pytest.mark.parametrize("spec", [
    GeneratorSpec(kind="random-tree", n=40, seed=1),
    GeneratorSpec(kind="loopy-small", n=40, seed=1),
    # not dominant, so bp_solve analyzes it first
    GeneratorSpec(kind="random-sparse", n=60, seed=1, diag_rule="unit",
                  coeff_range=(-0.3, 0.3), density=2.5 / 60),
])
def test_bp_solve_builds_the_graph_once(monkeypatch, spec):
    sys = generate_instance(spec)
    calls = _count_graph_builds(monkeypatch)
    bp_solve(sys, reference=dense_solve(sys))
    bp_solve(sys)
    assert calls == [sys]


def test_bp_solve_on_a_tree_runs_one_components_pass(monkeypatch):
    # is_acyclic and diameter share the graph's cached components; the
    # other BFS is the diameter's second sweep
    sys = generate_instance(GeneratorSpec(kind="random-tree", n=500, seed=1))
    sources = []
    real = core._bfs

    def counting(bounds, nbr, src, dist):
        sources.append(src)
        return real(bounds, nbr, src, dist)

    monkeypatch.setattr(core, "_bfs", counting)
    bp_solve(sys)
    assert len(sources) == 2


def test_consensus_program_refuses_a_row_whose_norm_underflows():
    # 1e-200 is a valid diagonal, but its square underflows to 0.0, so
    # row 1 has nothing to project on
    sys = SparseSystem(2, [(0, 0, 1.0), (1, 1, 1e-200)], [1.0, 1.0])
    with pytest.raises(ZeroRowError, match="row 1 has zero norm"):
        ConsensusProgram(sys)


def test_consensus_program_keeps_only_the_system():
    # n full-length vectors would be 600 * 600 floats, 2.9 MB
    sys = generate_instance(GeneratorSpec(kind="random-tree", n=600, seed=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        program = ConsensusProgram(sys)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.5e6
    trace = run_rounds(program, max_rounds=1)
    assert len(trace.rounds) == 2


def test_a_consensus_round_adds_no_n_by_n_array():
    # a round holds two n-by-n float arrays at its peak: the new vectors
    # and a gather of neighbor rows.  The bound sits half an array above
    # two, so a third fails it
    n = 300
    sys = generate_instance(GeneratorSpec(kind="loopy-small", n=n, seed=0))
    rounds = ConsensusProgram(sys).rounds()
    next(rounds)  # round 0 builds the vectors
    tracemalloc.start()
    try:
        next(rounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8, peak


def test_bp_solve_memory_does_not_grow_with_rounds():
    # a 2000-node path runs rounds 0..1999; one estimate vector per round
    # would be 2000 * 2000 floats, 32 MB
    n = 2000
    entries = [(i, i, 2.0) for i in range(n)]
    for i in range(n - 1):
        entries += [(i, i + 1, -0.5), (i + 1, i, -0.5)]
    sys = SparseSystem(n, entries, [1.0] * n)
    sys.graph  # built outside the measurement
    tracemalloc.start()
    try:
        x, trace = bp_solve(sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.rounds) == n
    assert x == pytest.approx(dense_solve(sys), abs=1e-12)
    # a bounded number of length-n vectors, plus each trace row's scalars
    assert peak < 96 * 8 * n + 1024 * len(trace.rounds)
