"""The programs' array rounds against the per-node reference.

BPProgram, JacobiProgram and ConsensusProgram run their rounds on
directed-edge arrays; their PerNode* subclasses have no array form and
run on the engine's node_rounds, which is the reference here.  Every
round must agree bit for bit, and so must the fault record.
"""
import hashlib
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PerNodeBP, PerNodeConsensus, PerNodeJacobi, kernel_rounds

from walksolve.core import SparseSystem, UndirectedGraph
from walksolve.engine import run_rounds
from walksolve.errors import SolverError, ZeroRowError
from walksolve.solvers import BPProgram, ConsensusProgram, JacobiProgram
from walksolve.verify import run_message_rounds

PAIRS = ((BPProgram, PerNodeBP), (JacobiProgram, PerNodeJacobi),
         (ConsensusProgram, PerNodeConsensus))
PAIR_IDS = ["bp", "jacobi", "consensus"]


def _same(a, b):
    """Equal, or both NaN: an isolated node's inf estimate has NaN deltas."""
    return a == b or (a != a and b != b)


def _fault_key(exc):
    return exc and (exc.node, type(exc), str(exc))


def _assert_same_rounds(sys, array_cls, node_cls, max_rounds):
    """Both programs' rounds read to max_rounds: every round's estimates
    and first messages, and the fault that ends them, bit for bit."""
    got, got_fault = kernel_rounds(array_cls(sys), max_rounds)
    want, want_fault = kernel_rounds(node_cls(sys), max_rounds)
    assert len(got) == len(want)
    for k, ((a_est, a_first), (b_est, b_first)) in enumerate(zip(got, want)):
        assert np.array_equal(a_est, b_est), k
        assert (a_first is b_first is None
                or np.array_equal(a_first, b_first)), k
    assert _fault_key(got_fault) == _fault_key(want_fault)
    return got


def _assert_same_run(sys, array_cls, node_cls, max_rounds, tol=None,
                     reference=None):
    rounds = _assert_same_rounds(sys, array_cls, node_cls, max_rounds)
    got = run_rounds(array_cls(sys), max_rounds, tol=tol, reference=reference)
    want = run_rounds(node_cls(sys), max_rounds, tol=tol, reference=reference)
    assert got.stop_reason == want.stop_reason
    assert got.fault == want.fault
    assert [r.k for r in got.rounds] == [r.k for r in want.rounds]
    for a, b in zip(got.rounds, want.rounds):
        assert _same(a.log10_mse, b.log10_mse), a.k
        assert _same(a.max_delta, b.max_delta), a.k
        assert a.positivity_violations == b.positivity_violations, a.k
        assert a.accounting == b.accounting, a.k
    # the trace keeps its last completed round's estimates, as stepped
    if got.rounds:
        last = rounds[len(got.rounds) - 1][0]
        assert np.array_equal(got.final_estimates, last)
        assert np.array_equal(want.final_estimates, last)
    else:
        assert got.final_estimates is want.final_estimates is None
    return got


def test_graph_csr_order_and_reverse():
    g = UndirectedGraph(5, [(0, 3), (3, 1), (1, 4), (4, 3), (2, 4)])
    assert g.indptr.tolist() == [0, 1, 3, 4, 7, 10]
    assert g.owner.tolist() == [0, 1, 1, 2, 3, 3, 3, 4, 4, 4]
    assert g.nbr.tolist() == [v for nb in g.neighbors for v in nb]
    assert np.array_equal(g.owner[g.rev], g.nbr)
    assert np.array_equal(g.nbr[g.rev], g.owner)
    assert np.array_equal(g.rev[g.rev], np.arange(10))
    assert np.diff(g.indptr).tolist() == [g.degree(u) for u in range(5)]


# one system per fault stage of BPProgram, with the message it reports
FAULTING = {
    # round 0: the diagonal is too small to seed messages
    "seed": SparseSystem(2, [(0, 0, 1e-30), (0, 1, -1.0), (1, 0, -1.0),
                             (1, 1, 1.0)], [1.0, 1.0]),
    # round 2: hub 1 sends leaf 0 an a-scalar of 2**-45, below 1e-12;
    # every later stage of node 0 stays finite
    "incoming": SparseSystem(4, [(0, 0, 1.0), (1, 1, 1.0 + 2.0 ** -45),
                                 (2, 2, 1.0), (3, 3, 1.0)] + [
        (0, 1, -0.5), (1, 0, -0.5), (1, 2, -1.0), (2, 1, -0.5),
        (1, 3, -1.0), (3, 1, -0.5)], [1.0, 2.0, 3.0, 4.0]),
    # round 1: both aggregates cancel; node 0 is reported
    "aggregate": SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.0), (1, 0, -1.0),
                                  (1, 1, 1.0)], [1.0, 1.0]),
    # round 1: isolated node 0 steps cleanly, the aggregates of 1 and 2
    # cancel, and node 1 is reported
    "aggregate-later": SparseSystem(3, [(0, 0, 1.0), (1, 1, 1.0),
                                        (1, 2, -1.0), (2, 1, -1.0),
                                        (2, 2, 1.0)], [1.0, 1.0, 1.0]),
    # round 0: b_i / a_ii = 1e300 / 1e-100 overflows, beyond ESTIMATE_LIMIT
    "estimate": SparseSystem(2, [(0, 0, 1e-100), (0, 1, 1e-101),
                                 (1, 0, 1e-101), (1, 1, 1e-100)],
                             [1e300, 1e300]),
    # round 1: round-0 estimates 1e149 stay in range, then the aggregate
    # 1 - (1 - 1e-11) ~ 1e-11 is above 1e-12 and the estimate is 2e160
    "diverge": SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.0),
                                (1, 0, -(1.0 - 1e-11)), (1, 1, 1.0)],
                            [1e149, 1e149]),
    # round 1: node 1 sent node 0 its diagonal 1e-12 at round 0, exactly
    # node 0's threshold 1e-12 * 1.0, and a scalar at the threshold faults
    "threshold": SparseSystem(2, [(0, 0, 1.0), (0, 1, -0.5), (1, 0, -0.5),
                                  (1, 1, 1e-12)], [1.0, 1.0]),
    # round 1: products overflow and the outgoing pair is NaN
    "outgoing": SparseSystem(2, [(0, 0, 1e200), (0, 1, 1e200),
                                 (1, 0, 1e200), (1, 1, 1e200)], [1.0, 1.0]),
    # path 0-1-2 with estimates 1e308, finite but beyond ESTIMATE_LIMIT:
    # every program refuses them at round 0
    "overflow": SparseSystem(3, [(0, 0, 1.0), (0, 1, -0.5), (1, 0, -0.5),
                                 (1, 1, 1.0), (1, 2, -0.5), (2, 1, -0.5),
                                 (2, 2, 1.0)], [1e308, 1e308, 1e308]),
    # round 1: the product a_01 * x_1 = 1e160 * 1e150 overflows, in node
    # 0's consensus projection (NaN) and in its Jacobi estimate (-inf);
    # a_01 also scales bp's seeding threshold above the diagonal 1.0
    "projection": SparseSystem(2, [(0, 0, 1.0), (0, 1, 1e160), (1, 0, 1.0),
                                   (1, 1, 1.0)], [1.0, 1e150]),
}


BP_FAULTS = {"seed": (0, 0, "too small to seed messages"),
             "incoming": (0, 2, f"incoming scalar {2.0 ** -45!r} from 1"),
             "aggregate": (0, 1, "aggregate scalar 0.0"),
             "aggregate-later": (1, 1, "aggregate scalar 0.0"),
             "estimate": (0, 0, "estimate inf out of range"),
             "diverge": (0, 1, "estimate 1.99999983"),
             "threshold": (0, 1, "incoming scalar 1e-12 from 1"),
             "outgoing": (0, 1, "outgoing pair to 1 is not finite"),
             "overflow": (0, 0, "estimate 1e+308 out of range"),
             "projection": (0, 0, "diagonal 1.0 too small to seed")}


#: Jacobi faults on its estimates only; it has no messages to fault
JACOBI_FAULTS = {"estimate": (0, 0, "estimate inf out of range"),
                 "overflow": (0, 0, "estimate 1e+308 out of range"),
                 "projection": (0, 1, "estimate -inf out of range")}


#: consensus checks its round-0 estimates, as Jacobi does, and then that
#: each round's vector is finite
CONSENSUS_FAULTS = {"estimate": (0, 0, "estimate inf out of range"),
                    "overflow": (0, 0, "estimate 1e+308 out of range"),
                    "projection": (0, 1, "consensus vector is not finite")}

FAULTS = {BPProgram: BP_FAULTS, JacobiProgram: JACOBI_FAULTS,
          ConsensusProgram: CONSENSUS_FAULTS}


@pytest.mark.parametrize("stage", sorted(FAULTING))
@pytest.mark.parametrize("array_cls,node_cls", PAIRS, ids=PAIR_IDS)
def test_faulting_systems_match(stage, array_cls, node_cls):
    sys = FAULTING[stage]
    trace = _assert_same_run(sys, array_cls, node_cls, 6,
                             reference=np.zeros(sys.n))
    faults = FAULTS[array_cls]
    if stage not in faults:
        assert trace.fault is None
        return
    node, k, cause = faults[stage]
    assert (trace.fault.node, trace.fault.round) == (node, k)
    assert cause in trace.fault.cause
    # rounds 0..k-1 are kept; the faulting round writes no row
    assert len(trace.rounds) == k


@pytest.mark.parametrize("program_cls", [ConsensusProgram, PerNodeConsensus],
                         ids=["array", "per-node"])
def test_consensus_fault_raises_no_numpy_warning(program_cls):
    # node 0's round-1 projection overflows 1e160 * 1e150 and divides
    # inf by the row norm; the step reports that as its fault, silently
    sys = FAULTING["projection"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_rounds(program_cls(sys), 3)
    assert (trace.fault.node, trace.fault.round) == (0, 1)
    assert trace.fault.error == "DivergedEstimateError"


class TaggedBP(BPProgram):
    """BPProgram whose step tags the message of every fault it raises."""

    def step(self, node, state, inbox):
        try:
            return super().step(node, state, inbox)
        except SolverError as exc:
            raise type(exc)(f"tagged: {exc}") from None


def test_array_kernel_replays_the_programs_own_step():
    # the array rounds locate the fault; the program's step raises it
    sys = FAULTING["incoming"]
    trace = run_rounds(TaggedBP(sys), 6)
    assert (trace.fault.node, trace.fault.round) == (0, 2)
    assert trace.fault.error == "SingularMessageError"
    assert trace.fault.cause.startswith("tagged: node 0: incoming scalar")


#: sha256 of the fault lines below: every record's whole text, where
#: test_faulting_systems_match checks substrings of the cause
FAULT_DIGEST = ("76166e8ba313ae65612666986d87d56b"
                "2f190a40f30e3cbb951bf13f15460eab")


def test_fault_records_are_pinned():
    # each run's whole fault record, stop reason and row count, and the
    # node, type and text of the error that ends its rounds
    lines = []
    for stage in sorted(FAULTING):
        sys = FAULTING[stage]
        for cls in sum(zip(*PAIRS), ()):
            trace = run_rounds(cls(sys), 6, reference=np.zeros(sys.n))
            _, exc = kernel_rounds(cls(sys), 6)
            key = exc and (exc.node, type(exc).__name__, str(exc))
            lines.append(f"{stage} {cls.__name__} {trace.fault!r} "
                         f"{trace.stop_reason} {len(trace.rounds)} {key!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FAULT_DIGEST


@pytest.mark.parametrize("cls", sum(zip(*PAIRS), ()),
                         ids=lambda cls: cls.__name__)
def test_rounds_raise_the_nodes_own_error(cls):
    # a direct consumer of rounds() gets the error run_rounds records
    faults = 0
    for sys in FAULTING.values():
        trace = run_rounds(cls(sys), 6)
        _, exc = kernel_rounds(cls(sys), 6)
        if trace.fault is None:
            assert exc is None
            continue
        faults += 1
        assert isinstance(exc, SolverError)
        assert (exc.node, type(exc).__name__, str(exc)) == (
            trace.fault.node, trace.fault.error, trace.fault.cause)
    assert faults >= 3


class NodelessFault(JacobiProgram):
    """Jacobi whose rounds raise a SolverError outside any transition."""

    def rounds(self):
        yield from islice(super().rounds(), 1)
        raise ZeroRowError("raised outside any transition")


def test_a_nodeless_solver_error_propagates():
    with pytest.raises(ZeroRowError, match="outside any transition") as info:
        run_rounds(NodelessFault(FAULTING["incoming"]), 3)
    assert info.value.node is None


def test_jacobi_divergence_matches():
    sys = SparseSystem(3, [(0, 0, 1.0), (0, 1, -1e100), (1, 0, -1e100),
                           (1, 1, 1e-100), (1, 2, -1.0), (2, 1, -1.0),
                           (2, 2, 1.0)], [1.0, 1.0, 1.0])
    trace = _assert_same_run(sys, JacobiProgram, PerNodeJacobi, 6)
    assert trace.fault.error == "DivergedEstimateError"


COEFFS = (-2.0, -1.0, -0.5, -0.3, 0.0, 0.25, 1.0, 2.0)
DIAGS = (1.0, 2.0, 3.0, -1.5, 0.5)
#: magnitudes that fault bp's seeding, overflow or diverge; half the
#: systems draw them, and 1e300 in b
EXTREMES = (1e-100, 1e-30, -1e100, 1e200)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 10))
    edges = set()
    star = draw(st.integers(0, 4)) == 0
    for i in range(1, n):
        # a parent of None starts a new tree, isolated if none joins it
        parent = 0 if star else draw(st.one_of(st.none(),
                                                st.integers(0, i - 1)))
        if parent is not None:
            edges.add((parent, i))
    if n >= 3 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, n))):
            u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if u != v:
                edges.add((min(u, v), max(u, v)))
    wild = draw(st.booleans())
    extreme = st.sampled_from(EXTREMES if wild else (1.0,))
    coeff = st.one_of(st.sampled_from(COEFFS), extreme,
                      st.floats(-1.0, 1.0, allow_subnormal=False))
    diag = st.one_of(st.sampled_from(DIAGS), extreme, st.floats(0.5, 4.0))
    entries = [(i, i, draw(diag)) for i in range(n)]
    for u, v in sorted(edges):
        entries += [(u, v, draw(coeff)), (v, u, draw(coeff))]
    b = draw(st.lists(st.sampled_from((1.0, -2.0, 0.5, 3.0)
                                      + ((1e300,) if wild else ())),
                      min_size=n, max_size=n))
    return SparseSystem(n, entries, b)


#: node 0 joins 1..5; 6 and 7 are isolated, and 7's estimate overflows
#: to inf, which every program refuses at round 0
STAR_AND_ISOLATED = SparseSystem(8, [(i, i, 2.0) for i in range(7)] + [
    (7, 7, 1e-100)] + [e for j in range(1, 6)
                       for e in ((0, j, -0.3), (j, 0, 0.5))],
    [1.0, -2.0, 0.5, 3.0, 1.0, 1.0, -2.0, 1e300])


def _system(n, diag, edges, b):
    """diag on the diagonal, -0.5 on both entries of every edge."""
    entries = [(i, i, diag[i]) for i in range(n)]
    for u, v in edges:
        entries += [(u, v, -0.5), (v, u, -0.5)]
    return SparseSystem(n, entries, b)


#: star 0-1..4: every bp message is finite, and so is every estimate
#: (1e308 / 1e160), but the b-halves sum past the float range, so the
#: array rounds' screen trips every round and finds no fault
SUM_OVERFLOWS = _system(5, [1e160] * 5, [(0, j) for j in range(1, 5)],
                        [1e308] * 5)

# consensus holds its rows in degree-descending order; each of these
# makes that order differ from the node ids
#: degrees 2, 2, 3, 2, 1: ties among 0, 1 and 3 behind node 2
DEGREE_TIES = _system(5, [2.0] * 5, [(0, 1), (1, 2), (2, 3), (3, 0),
                                     (2, 4)], [1.0, -2.0, 0.5, 3.0, 1.0])
#: node 2, isolated, sorts after 0, 1, 3 and 4
ISOLATED_MIDDLE = _system(5, [2.0] * 5, [(0, 1), (3, 4)],
                          [1.0, -2.0, 0.5, 3.0, 1.0])
#: the hub is node 4, the highest id, and sorts first
HUB_LAST = _system(5, [3.0] * 5, [(j, 4) for j in range(4)],
                   [1.0, -2.0, 0.5, 3.0, 1.0])


def test_a_tripped_screen_with_no_fault_runs_on():
    # every round's messages are finite, yet their sum is not
    rounds = list(islice(BPProgram(SUM_OVERFLOWS).messages(), 4))
    for _, a_msg, b_msg in rounds:
        msg = np.concatenate((a_msg, b_msg))
        assert np.isfinite(msg).all()
        with np.errstate(over="ignore"):
            assert msg.sum() == np.inf
    trace = _assert_same_run(SUM_OVERFLOWS, BPProgram, PerNodeBP, 6)
    assert trace.fault is None
    assert len(trace.rounds) == 7


@settings(max_examples=300, deadline=None)
@given(sys=systems(), pair=st.sampled_from(PAIRS),
       max_rounds=st.integers(0, 12), use_tol=st.booleans(),
       use_reference=st.booleans())
@example(sys=STAR_AND_ISOLATED, pair=PAIRS[2], max_rounds=12,
         use_tol=False, use_reference=True)
@example(sys=FAULTING["projection"], pair=PAIRS[2], max_rounds=3,
         use_tol=True, use_reference=False)
@example(sys=SUM_OVERFLOWS, pair=PAIRS[0], max_rounds=6, use_tol=True,
         use_reference=True)
@example(sys=FAULTING["threshold"], pair=PAIRS[0], max_rounds=3, use_tol=False,
         use_reference=False)
@example(sys=DEGREE_TIES, pair=PAIRS[2], max_rounds=8, use_tol=False,
         use_reference=True)
@example(sys=ISOLATED_MIDDLE, pair=PAIRS[2], max_rounds=8, use_tol=False,
         use_reference=True)
@example(sys=HUB_LAST, pair=PAIRS[2], max_rounds=8, use_tol=True,
         use_reference=True)
def test_array_path_equals_per_node_path(sys, pair, max_rounds, use_tol,
                                         use_reference):
    reference = (np.linspace(-1.0, 2.0, sys.n) if use_reference else None)
    tol = 1e-9 if use_tol else None
    _assert_same_run(sys, *pair, max_rounds, tol=tol, reference=reference)


def _per_node_messages(sys, rounds):
    """bp's messages from init_node and step called node by node,
    each round reading the previous round's outboxes."""
    program = BPProgram(sys)
    states, outboxes = zip(*map(program.init_node, range(sys.n)))
    g = sys.graph
    per_round = []
    for k in range(rounds + 1):
        if k:
            inboxes = [{v: outboxes[v][u] for v in g.neighbors[u]}
                       for u in range(sys.n)]
            states, outboxes = zip(*map(program.step, range(sys.n), states,
                                        inboxes))
        per_round.append({(i, j): pair for i, out in enumerate(outboxes)
                          for j, pair in out.items()})
    return per_round


def _bits(run, sys, rounds):
    """Each round's messages as float.hex pairs, or the error raised."""
    try:
        per_round = run(sys, rounds)
    except SolverError as exc:
        return type(exc), str(exc)
    return [{edge: (a.hex(), b.hex()) for edge, (a, b) in msgs.items()}
            for msgs in per_round]


@settings(max_examples=200, deadline=None)
@given(sys=systems(), rounds=st.integers(0, 10))
@example(sys=FAULTING["incoming"], rounds=3)
def test_kernel_messages_equal_per_node_messages(sys, rounds):
    # the message oracle check reads BPProgram.messages; step stays the
    # truth
    assert (_bits(run_message_rounds, sys, rounds)
            == _bits(_per_node_messages, sys, rounds))
