import numpy as np
import pytest

from walksolve.analysis import ResidualMatrix, residual_matrix
from walksolve.core import (
    SEVEN_NODE_TREE_EDGES,
    GeneratorSpec,
    SparseSystem,
    UndirectedGraph,
    generate_instance,
    induced_graph,
    system_from_edges,
)
from walksolve.errors import (
    CyclicGraphError,
    InvalidWalkError,
    NotAnEdgeError,
    SingularMessageError,
    TooLargeError,
)
from walksolve.oracle import (
    Walk,
    message_oracle,
    partial_walk_sum,
    restricted_subgraph,
    unwrap_tree,
    unwrapped_equivalence_check,
    unwrapped_system,
    walk_weight,
)

from test_edge_kernel import FAULTING

LOOPY_FIVE = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))


def test_walk_weight_hand_values(two_node):
    rm = residual_matrix(two_node)
    assert walk_weight(rm, Walk((0,))) == 1.0
    assert walk_weight(rm, Walk((0, 1))) == 0.5
    assert walk_weight(rm, Walk((0, 1, 0))) == 0.125
    assert len(Walk((0, 1, 0))) == 2
    with pytest.raises(InvalidWalkError):
        Walk(())
    with pytest.raises(InvalidWalkError):
        walk_weight(rm, Walk((0, 0)))  # no self edge
    with pytest.raises(InvalidWalkError):
        walk_weight(rm, Walk((0, 5)))


def test_partial_walk_sum_hand_values(two_node):
    rm = residual_matrix(two_node)
    # closed walks at 0: lengths 0, 2, 4 contribute 1, 1/8, 1/64
    assert partial_walk_sum(rm, 0, 0, 4) == pytest.approx(1.140625, abs=0.0)
    # walks 0 -> 1: lengths 1 and 3 contribute 1/2 and (1/2)(1/4)(1/2)
    assert partial_walk_sum(rm, 0, 1, 3) == pytest.approx(0.5625, abs=0.0)
    assert partial_walk_sum(rm, 0, 1, 0) == 0.0
    # the full series limit is (I - R)^-1; entry (0, 0) is 8/7
    assert partial_walk_sum(rm, 0, 0, 10) == pytest.approx(8.0 / 7.0,
                                                           abs=1e-3)


def test_partial_walk_sum_guards():
    big = ResidualMatrix(9, tuple((i, i + 1, 0.1) for i in range(8)))
    with pytest.raises(TooLargeError):
        partial_walk_sum(big, 0, 8, 3)
    small = ResidualMatrix(2, ((0, 1, 0.5), (1, 0, 0.5)))
    with pytest.raises(TooLargeError):
        partial_walk_sum(small, 0, 1, 11)
    with pytest.raises(InvalidWalkError):
        partial_walk_sum(small, 0, 5, 2)
    with pytest.raises(InvalidWalkError):
        partial_walk_sum(small, 0, 1, -1)


def test_restricted_subgraph_seven_node_tree():
    g = UndirectedGraph(7, SEVEN_NODE_TREE_EDGES)
    assert restricted_subgraph(g, 1, 0, 0) == (1,)
    assert restricted_subgraph(g, 1, 0, 1) == (1, 3, 4)
    # from 0 away from 1 everything within reach is {0, 2, 5, 6}
    assert restricted_subgraph(g, 0, 1, 10) == (0, 2, 5, 6)
    with pytest.raises(NotAnEdgeError):
        restricted_subgraph(g, 0, 3, 1)
    with pytest.raises(InvalidWalkError):
        restricted_subgraph(g, 0, 1, -1)


def test_message_oracle_hand_values(path3):
    assert message_oracle(path3, 1, 0, 0) == (2.0, 2.0)
    a, b = message_oracle(path3, 1, 0, 1)
    assert a == pytest.approx(1.5, abs=1e-15)
    assert b == pytest.approx(3.5, abs=1e-15)
    # leaves saturate immediately
    assert message_oracle(path3, 0, 1, 3) == (2.0, 1.0)


def test_message_oracle_requires_acyclic():
    sys = system_from_edges(5, LOOPY_FIVE, seed=0)
    with pytest.raises(CyclicGraphError):
        message_oracle(sys, 0, 1, 1)


def test_unwrap_tree_two_triangles():
    g = UndirectedGraph(5, LOOPY_FIVE)
    tree = unwrap_tree(g, 0, 4)
    assert len(tree.nodes) == 19
    assert tree.layer_sizes() == (1, 3, 3, 6, 6)
    assert tree.nodes[0].orig == 0 and tree.nodes[0].parent is None
    # children come in ascending original id
    assert [nd.orig for nd in tree.nodes[1:4]] == [1, 2, 3]
    with pytest.raises(TooLargeError):
        unwrap_tree(g, 0, 4, max_nodes=10)


def test_unwrap_tree_path_stalls_at_leaves():
    g = UndirectedGraph(3, [(0, 1), (1, 2)])
    tree = unwrap_tree(g, 0, 5)
    # the walk 0-1-2 dead-ends; extra rounds add nothing
    assert len(tree.nodes) == 3
    assert tree.layer_sizes() == (1, 1, 1)
    assert unwrap_tree(g, 1, 5).layer_sizes() == (1, 2)


def test_unwrapped_system_replicates_coefficients():
    sys = system_from_edges(5, LOOPY_FIVE, seed=4)
    tree = unwrap_tree(induced_graph(sys), 0, 1)
    un = unwrapped_system(sys, tree)
    assert un.n == 4
    assert un.diag[0] == sys.diag[0]
    for child in (1, 2, 3):
        nd = tree.nodes[child]
        assert un.diag[child] == sys.diag[nd.orig]
        assert un.b[child] == sys.b[nd.orig]
        assert un.entry(0, child) == sys.entry(0, nd.orig)
        assert un.entry(child, 0) == sys.entry(nd.orig, 0)


def test_unwrapped_equivalence_on_loopy():
    sys = system_from_edges(5, LOOPY_FIVE, seed=11)
    for t in range(5):
        res = unwrapped_equivalence_check(sys, 0, t)
        assert res.ok, (t, res)
    assert unwrapped_equivalence_check(sys, 0, 0).tree_nodes == 1


def test_unwrapped_equivalence_single_node():
    sys = SparseSystem(1, [(0, 0, 2.0)], [3.0])
    res = unwrapped_equivalence_check(sys, 0, 3)
    assert res.ok
    assert res.tree_nodes == 1
    assert res.estimate == 1.5


def test_unwrapped_equivalence_raises_a_node_fault():
    # bp faults at node 0, round 2 on "incoming" and at round 0 on "seed";
    # no round from the fault on has an estimate to compare
    incoming = FAULTING["incoming"]
    for i in range(incoming.n):
        for t in (0, 1):
            assert unwrapped_equivalence_check(incoming, i, t).ok
        for t in (2, 3):
            with pytest.raises(SingularMessageError, match="incoming scalar"):
                unwrapped_equivalence_check(incoming, i, t)
    with pytest.raises(SingularMessageError, match="too small to seed"):
        unwrapped_equivalence_check(FAULTING["seed"], 0, 0)


def test_unwrapped_roots_solve_alike_by_sparse_lu(monkeypatch):
    # with no dense limit every unwrapped system takes the sparse LU;
    # its root value must agree with the dense solve's
    import scipy.sparse.linalg
    from walksolve import oracle
    systems = [system_from_edges(5, LOOPY_FIVE, seed=11)] + [
        generate_instance(GeneratorSpec(kind="loopy-small", n=n, seed=n))
        for n in range(6, 11)]
    cases = [(sys, i, t) for sys in systems for i in range(sys.n)
             for t in range(5)]
    dense = [unwrapped_equivalence_check(*case) for case in cases]
    sparse_calls = []
    real = scipy.sparse.linalg.spsolve
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                        lambda *a: sparse_calls.append(1) or real(*a))
    monkeypatch.setattr(oracle, "DENSE_UNWRAP_LIMIT", 0)
    for case, want in zip(cases, dense):
        got = unwrapped_equivalence_check(*case)
        assert got.ok, case[1:]
        assert got.tree_value == pytest.approx(want.tree_value, rel=1e-13,
                                               abs=1e-13)
    assert len(sparse_calls) == len(cases)


def test_unwrap_validation():
    g = UndirectedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidWalkError):
        unwrap_tree(g, 9, 1)
    with pytest.raises(InvalidWalkError):
        unwrap_tree(g, 0, -1)


def test_message_oracle_equals_engine_on_random_trees():
    # spot ensemble here; the exhaustive version lives in the check suite
    from walksolve.core import GeneratorSpec, generate_instance, diameter
    from walksolve.verify import run_message_rounds
    for seed in range(5):
        sys = generate_instance(GeneratorSpec(kind="random-tree", n=7,
                                              seed=seed))
        d = diameter(induced_graph(sys))
        per_round = run_message_rounds(sys, d)
        for k, msgs in enumerate(per_round):
            for (i, j), (a_bp, b_bp) in msgs.items():
                a_ref, b_ref = message_oracle(sys, i, j, k)
                assert a_bp == pytest.approx(a_ref, rel=1e-12, abs=1e-12)
                assert b_bp == pytest.approx(b_ref, rel=1e-12, abs=1e-12)
