import heapq
import math
import re
from collections import deque
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from walksolve import core
from walksolve.core import (
    DEFAULT_COEFF_RANGE,
    SEVEN_NODE_TREE_EDGES,
    GeneratorSpec,
    SparseSystem,
    UndirectedGraph,
    bfs_distances,
    connected_components,
    diameter,
    generate_instance,
    induced_graph,
    is_acyclic,
    system_from_edges,
)
from walksolve.errors import (InvalidSystemError, MissingDiagonalError,
                              TooLargeError)


def test_entries_are_canonically_sorted():
    sys = SparseSystem(2, [(1, 1, 2.0), (0, 1, -1.0), (0, 0, 2.0),
                           (1, 0, -0.5)], [1.0, 1.0])
    assert sys.entries == ((0, 0, 2.0), (0, 1, -1.0), (1, 0, -0.5),
                           (1, 1, 2.0))


def test_duplicate_entry_rejected():
    with pytest.raises(InvalidSystemError, match="duplicate"):
        SparseSystem(2, [(0, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)], [0.0, 0.0])


def test_out_of_range_entry_rejected():
    with pytest.raises(InvalidSystemError, match="outside"):
        SparseSystem(2, [(0, 0, 1.0), (1, 1, 1.0), (2, 0, 1.0)], [0.0, 0.0])


def test_non_finite_entry_rejected():
    with pytest.raises(InvalidSystemError, match="non-finite"):
        SparseSystem(1, [(0, 0, math.inf)], [0.0])
    with pytest.raises(InvalidSystemError, match="non-finite"):
        SparseSystem(1, [(0, 0, 1.0)], [math.nan])


def test_missing_or_zero_diagonal_rejected():
    with pytest.raises(MissingDiagonalError):
        SparseSystem(2, [(0, 0, 1.0), (0, 1, 1.0)], [0.0, 0.0])
    with pytest.raises(MissingDiagonalError):
        SparseSystem(1, [(0, 0, 0.0)], [0.0])


def test_bad_rhs_length_rejected():
    with pytest.raises(InvalidSystemError, match="length"):
        SparseSystem(2, [(0, 0, 1.0), (1, 1, 1.0)], [0.0])


def test_size_must_be_positive():
    with pytest.raises(InvalidSystemError):
        SparseSystem(0, [], [])


NAN, INF = math.nan, math.inf

#: (n, entries, b) with several faults each, and the exact error of the
#: first: entries in input order (within one, range, then finiteness,
#: then duplication), then the rhs length, a non-finite rhs, the
#: smallest missing diagonal and the smallest zero diagonal
MALFORMED = [
    (2, [(0, 0, 1.0), (2, 0, 1.0), (0, 0, 2.0), (1, 1, 1.0)], [1.0, 1.0],
     InvalidSystemError, "entry (2, 0) outside a 2x2 system"),
    (2, [(0, 0, 1.0), (0, 0, 2.0), (5, 5, 1.0)], [1.0, 1.0],
     InvalidSystemError,
     "duplicate entry at (0, 0); duplicates are an error, not summed"),
    (2, [(0, 0, NAN), (3, 0, 1.0)], [1.0, 1.0],
     InvalidSystemError, "entry (0, 0) has non-finite value nan"),
    (2, [(0, 0, 1.0), (2, 2, INF)], [1.0, 1.0],
     InvalidSystemError, "entry (2, 2) outside a 2x2 system"),
    (2, [(0, 0, 1.0), (0, 0, -INF)], [1.0, 1.0],
     InvalidSystemError, "entry (0, 0) has non-finite value -inf"),
    (2, [(0, 0, 1.0), (-1, 0, 1.0), (1, 1, NAN)], [1.0, 1.0],
     InvalidSystemError, "entry (-1, 0) outside a 2x2 system"),
    (2, [(1, 0, 1.0), (0, 0, 1.0), (1, 1, 1.0), (1, 0, 2.0), (0, 7, 1.0)],
     [1.0, 1.0], InvalidSystemError,
     "duplicate entry at (1, 0); duplicates are an error, not summed"),
    (2, [(0, 0, 1.0), (1, 0, 1.0), (0, 2, 1.0)], [1.0, 1.0],
     InvalidSystemError, "entry (0, 2) outside a 2x2 system"),
    (2, [(0, 0, 1.0), (1, 1, INF)], [1.0],
     InvalidSystemError, "entry (1, 1) has non-finite value inf"),
    (2, [(0, 0, 0.0)], [NAN],
     InvalidSystemError, "right-hand side has length 1, expected 2"),
    (2, [(0, 0, 1.0)], [1.0, INF],
     InvalidSystemError, "right-hand side has non-finite values"),
    (3, [(0, 0, 1.0)], [1.0, 1.0, 1.0],
     MissingDiagonalError, "diagonal entry (1, 1) missing"),
    (3, [(0, 0, 0.0), (2, 2, 1.0)], [1.0, 1.0, 1.0],
     MissingDiagonalError, "diagonal entry (1, 1) missing"),
    (3, [(2, 2, 0.0), (0, 0, 1.0), (1, 1, 0.0)], [1.0, 1.0, 1.0],
     MissingDiagonalError, "diagonal entry (1, 1) is zero"),
]


@pytest.mark.parametrize("n,entries,b,error,message", MALFORMED)
def test_first_offender_is_reported(n, entries, b, error, message):
    with pytest.raises(InvalidSystemError) as info:
        SparseSystem(n, entries, b)
    assert type(info.value) is error
    assert str(info.value) == message


def test_lookup_helpers(two_node):
    assert np.array_equal(two_node.diag, [2.0, 2.0])
    assert two_node.entry(0, 1) == -1.0
    assert two_node.entry(1, 0) == -0.5
    assert two_node.entry(0, 0) == 2.0
    assert np.array_equal(two_node.as_dense(),
                          np.array([[2.0, -1.0], [-0.5, 2.0]]))


def test_graph_rejects_self_loop():
    with pytest.raises(InvalidSystemError, match="self-loop"):
        UndirectedGraph(2, [(0, 0)])


def test_graph_basics():
    g = UndirectedGraph(4, [(2, 0), (0, 1)])
    assert g.neighbors[0] == (1, 2)
    assert g.degree(0) == 2
    assert g.degree(3) == 0
    assert g.edges() == ((0, 1), (0, 2))
    assert g.edge_count() == 2
    assert g.has_edge(1, 0)
    assert not g.has_edge(1, 2)


class _SetGraph:
    """The set-and-sort graph the CSR graph replaced, kept as its oracle."""

    def __init__(self, n, edges):
        sets = [set() for _ in range(n)]
        for u, v in edges:
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self.neighbors = tuple(tuple(sorted(s)) for s in sets)

    def edges(self):
        return tuple((u, v) for u in range(self.n)
                     for v in self.neighbors[u] if u < v)

    def bfs(self, src):
        dist = [-1] * self.n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for v in self.neighbors[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def components(self):
        comps = []
        for s in range(self.n):
            if not any(s in c for c in comps):
                comps.append(tuple(u for u, d in enumerate(self.bfs(s))
                                   if d >= 0))
        return tuple(comps)


@st.composite
def edge_lists(draw):
    """(n, edges): random pairs with repeats, some also reversed, and
    often isolated nodes; as a list or as an (m, 2) array."""
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    pairs = [(u, v) for u, v in draw(st.lists(st.tuples(node, node),
                                              max_size=3 * n)) if u != v]
    pairs += [(v, u) for u, v in pairs[:draw(st.integers(0, len(pairs)))]]
    edges = draw(st.permutations(pairs))
    if draw(st.booleans()):
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return n, edges


@settings(max_examples=200, deadline=None)
@given(case=edge_lists())
@example(case=(1, []))
@example(case=(4, np.zeros((0, 2), dtype=np.int64)))
def test_csr_graph_matches_set_graph(case):
    n, edges = case
    g = UndirectedGraph(n, edges)
    want = _SetGraph(n, edges.tolist() if isinstance(edges, np.ndarray)
                     else edges)
    assert g.neighbors == want.neighbors
    assert g.edges() == want.edges()
    assert g.edge_count() == len(want.edges())
    for u in range(n):
        assert g.degree(u) == len(want.neighbors[u])
        assert bfs_distances(g, u) == want.bfs(u)
        for v in range(n):
            assert g.has_edge(u, v) == (v in want.neighbors[u])
    comps = want.components()
    assert connected_components(g) == comps
    assert is_acyclic(g) == (g.edge_count() == n - len(comps))
    assert diameter(g) == max(max(want.bfs(s)) for s in range(n))


@pytest.mark.parametrize("n,edges,message", [
    (3, [(0, 1), (1, 3), (2, 2)], "edge (1, 3) outside 0..2"),
    (3, [(0, 1), (2, 2), (1, 3)], "self-loop at node 2 not allowed"),
    (3, [(1, 2), (-1, 0)], "edge (-1, 0) outside 0..2"),
    (3, [(0, 1), (0, 1), (1, 0), (1, 1)], "self-loop at node 1 not allowed"),
    # an edge that is both outside and a self-loop is reported as outside
    (3, [(3, 3), (1, 1)], "edge (3, 3) outside 0..2"),
    (1, [(0, 0), (0, 1)], "self-loop at node 0 not allowed"),
    (1, [(0, 1), (0, 0)], "edge (0, 1) outside 0..0"),
    (3, [(0, 1), (2 ** 70 + 1, 0)], f"edge ({2 ** 70 + 1}, 0) outside 0..2"),
])
def test_graph_reports_the_first_bad_edge(n, edges, message):
    with pytest.raises(InvalidSystemError, match=f"^{re.escape(message)}$"):
        UndirectedGraph(n, edges)


def test_induced_graph_sees_one_directional_entries():
    # an edge exists when either direction is stored nonzero
    sys = SparseSystem(2, [(0, 0, 1.0), (1, 1, 1.0), (0, 1, -0.5)],
                       [1.0, 1.0])
    g = induced_graph(sys)
    assert g.has_edge(0, 1)


def test_bfs_and_diameter_on_seven_node_tree():
    g = UndirectedGraph(7, SEVEN_NODE_TREE_EDGES)
    assert bfs_distances(g, 3) == [2, 1, 3, 0, 2, 4, 4]
    assert diameter(g) == 4
    assert is_acyclic(g)
    assert connected_components(g) == ((0, 1, 2, 3, 4, 5, 6),)


def test_disconnected_graph_helpers():
    g = UndirectedGraph(4, [(0, 1)])
    assert bfs_distances(g, 0) == [0, 1, -1, -1]
    assert connected_components(g) == ((0, 1), (2,), (3,))
    assert diameter(g) == 1  # max over components
    assert is_acyclic(g)


@st.composite
def forests(draw):
    """Random forests, relabeled; parentless nodes start new trees."""
    n = draw(st.integers(1, 40))
    perm = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        parent = draw(st.one_of(st.none(), st.integers(0, i - 1)))
        if parent is not None:
            edges.append((perm[parent], perm[i]))
    return UndirectedGraph(n, edges)


def _all_pairs_diameter(g):
    return max(max(bfs_distances(g, s)) for s in range(g.n))


@settings(max_examples=200, deadline=None)
@given(g=forests())
def test_forest_diameter_matches_all_pairs_bfs(g):
    assert is_acyclic(g)
    assert diameter(g) == _all_pairs_diameter(g)


@st.composite
def loopy_graphs(draw):
    """Random graphs with at least one cycle, often with isolated nodes
    and several components."""
    n = draw(st.integers(3, 80))
    a, b, c = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3,
                            unique=True))
    edges = [(a, b), (b, c), (a, c)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(u, v) for u, v in draw(st.lists(pairs, max_size=2 * n))
              if u != v]
    return UndirectedGraph(n, edges)


@st.composite
def mixed_graphs(draw):
    """Disjoint rings, trees, graphs with a cycle and isolated nodes, the
    first part with a cycle, relabeled."""
    kinds = st.sampled_from(["ring", "tree", "loopy", "isolated"])
    edges, n = [], 0
    for kind in [draw(st.sampled_from(["ring", "loopy"]))] + draw(
            st.lists(kinds, max_size=4)):
        k = 1 if kind == "isolated" else draw(st.integers(3, 40))
        part = []
        if kind == "ring":
            part = [(i, (i + 1) % k) for i in range(k)]
        elif kind == "tree":
            part = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
        elif kind == "loopy":
            pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
            part = [(0, 1), (1, 2), (0, 2)] + draw(st.lists(pairs,
                                                            max_size=2 * k))
        edges += [(n + u, n + v) for u, v in part if u != v]
        n += k
    perm = draw(st.permutations(range(n)))
    return UndirectedGraph(n, [(perm[u], perm[v]) for u, v in edges])


# a smaller block splits the fringe into more blocks, and moves the
# double-sweep root down to components of more than 2 * block nodes
@settings(max_examples=400, deadline=None)
@given(g=st.one_of(loopy_graphs(), mixed_graphs()),
       block=st.sampled_from([1, 3, 64, core.BFS_BLOCK]))
def test_cyclic_diameter_matches_all_pairs_bfs(g, block):
    assert not is_acyclic(g)
    with mock.patch.object(core, "BFS_BLOCK", block):
        assert diameter(g) == _all_pairs_diameter(g)


def _two_tailed_ring(n):
    """A ring on the first quarter of the nodes, then five isolated nodes
    and a triangle; the other nodes form two tails that leave the ring at
    opposite sides and interleave, so they end at nodes n-2 and n-1."""
    ring = n // 4
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    tri = ring + 5
    edges += [(tri, tri + 1), (tri + 1, tri + 2), (tri, tri + 2)]
    for side, first in ((0, tri + 3), (ring // 2, tri + 4)):
        tail = [side] + list(range(first, n, 2))
        edges += list(zip(tail, tail[1:]))
    return UndirectedGraph(n, edges)


# 64 sources fill one word and 65 spill into a second; 256 fill one block
# of BFS sources and 257 start a second; above 512 nodes the iFUB root
# comes from a double sweep
@pytest.mark.parametrize("n", [64, 65, 256, 257, 600])
def test_cyclic_diameter_across_word_and_block_boundaries(n):
    ring = UndirectedGraph(n, [(i, (i + 1) % n) for i in range(n)])
    assert diameter(ring) == n // 2
    tails = _two_tailed_ring(n)
    assert diameter(tails) == _all_pairs_diameter(tails)
    spec = GeneratorSpec(kind="loopy-small", n=n, seed=n)
    g = induced_graph(generate_instance(spec))
    assert not is_acyclic(g)
    assert diameter(g) == _all_pairs_diameter(g)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 600), seed=st.integers(0, 2 ** 32 - 1),
       degree=st.sampled_from([0.5, 1.0, 1.5, 2.5]))
@example(n=600, seed=0, degree=1.5)
def test_random_sparse_diameter_matches_all_pairs_bfs(n, seed, degree):
    spec = GeneratorSpec(kind="random-sparse", n=n, seed=seed,
                         density=degree / n, diag_rule="unit",
                         coeff_range=(-0.3, 0.3))
    g = induced_graph(generate_instance(spec))
    assert diameter(g) == _all_pairs_diameter(g)


def _hub_ring(leaves):
    """An 8-ring with a hub on node 4 that holds the leaves: from node 0,
    the deepest level is every leaf."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(4, 8)]
    return UndirectedGraph(9 + leaves, edges + [(8, 9 + i)
                                                for i in range(leaves)])


@pytest.mark.parametrize("block", [1, 3, 64, core.BFS_BLOCK])
@pytest.mark.parametrize("leaves", [300, 600])
def test_a_deepest_level_wider_than_a_block(block, leaves):
    g = _hub_ring(leaves)
    with mock.patch.object(core, "BFS_BLOCK", block):
        assert diameter(g) == _all_pairs_diameter(g) == 6


def test_cyclic_diameter_takes_few_bfs_sources(monkeypatch):
    # a BFS from every node would hand all 2000 nodes to the kernel
    g = induced_graph(generate_instance(GeneratorSpec("loopy-small", 2000, 1)))
    sources = []
    real = core._eccentricities

    def counting(indptr, nbr, src):
        sources.extend(src.tolist())
        return real(indptr, nbr, src)

    monkeypatch.setattr(core, "_eccentricities", counting)
    assert diameter(g) == 25
    assert len(sources) <= g.n // 4


def test_cycle_detection():
    assert not is_acyclic(UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)]))


@pytest.mark.parametrize("kwargs", [
    dict(kind="no-such-kind", n=3, seed=0),
    dict(kind="random-tree", n=0, seed=0),
    dict(kind="random-tree", n=3, seed=-1),
    dict(kind="random-tree", n=3, seed=0, coeff_range=(1.0, 1.0)),
    dict(kind="random-tree", n=3, seed=0, coeff_range=(0.0, 1.0)),
    dict(kind="random-tree", n=3, seed=0, coeff_range=(math.nan, 1.0)),
    dict(kind="random-sparse", n=3, seed=0, density=1.5),
    dict(kind="random-tree", n=3, seed=0, diag_rule="bogus"),
    dict(kind="random-tree", n=3, seed=0, diag_rule="explicit",
         diag_value=0.0),
    dict(kind="path", n=2 ** 32 + 1, seed=0),
])
def test_generator_spec_validation(kwargs):
    with pytest.raises(InvalidSystemError):
        GeneratorSpec(**kwargs)


def test_generation_is_deterministic():
    spec = GeneratorSpec(kind="loopy-small", n=9, seed=42)
    a = generate_instance(spec)
    b = generate_instance(spec)
    assert a.entries == b.entries
    assert np.array_equal(a.b, b.b)
    c = generate_instance(GeneratorSpec(kind="loopy-small", n=9, seed=43))
    assert c.entries != a.entries


def test_edge_order_does_not_change_coefficients():
    # per-edge RNG lanes make the draw independent of enumeration order
    e1 = [(0, 1), (1, 2), (2, 3)]
    e2 = [(2, 3), (0, 1), (1, 2)]
    a = system_from_edges(4, e1, seed=7)
    b = system_from_edges(4, e2, seed=7)
    assert a.entries == b.entries


def _edge_rng(seed, i, j):
    """The scalar lane of edge i < j, the reference for the array lanes."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(1, i, j))))


def _draw_nonzero(rng, lo, hi):
    """The scalar redraw rule: the lane's next nonzero uniform draw."""
    while True:
        v = float(rng.uniform(lo, hi))
        if v != 0.0:
            return v


@st.composite
def lane_cases(draw):
    pairs = draw(st.lists(st.tuples(st.integers(0, 2 ** 32 - 1),
                                    st.integers(0, 2 ** 32 - 1)),
                          min_size=1, max_size=6))
    pairs = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    assume(pairs)
    lo, hi = sorted(draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False),
        min_size=2, max_size=2, unique=True)))
    assume(lo != 0.0 and math.isfinite(hi - lo))
    return pairs, lo, hi


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), case=lane_cases())
@example(seed=0, case=([(0, 1), (0, 2 ** 32 - 1)], -1.0, -0.85))
@example(seed=2 ** 32, case=([(0, 5), (7, 9)], -0.3, 0.3))
@example(seed=2 ** 64 - 1, case=([(0, 1), (3, 4)], 2.5, 1e6))
@example(seed=2 ** 160 + 7, case=([(0, 1), (3, 4)], -1.0, -0.85))
def test_edge_lanes_equal_numpy_scalar_lanes(seed, case):
    # numpy's stream policy (NEP 19) keeps SeedSequence and PCG64 streams
    # stable; if a numpy release changed them, this fails by name
    pairs, lo, hi = case
    u, v = np.array(pairs, dtype=np.int64).T
    got = core._edge_lanes(seed, u, v, lo, hi)
    for k, (i, j) in enumerate(pairs):
        rng = _edge_rng(seed, i, j)
        want = [_draw_nonzero(rng, lo, hi), _draw_nonzero(rng, lo, hi)]
        assert got[k].tolist() == want


def test_zero_draws_are_redrawn_from_their_own_lane(monkeypatch):
    # edge 1's first and edge 3's second draw are stubbed to 0.0
    zeros = {(1, 0), (3, 1)}
    drawn = {k: [] for k in range(5)}
    real = core._EdgeLanes.uniform

    def stub(self, rows, lo, hi):
        d = real(self, rows, lo, hi)
        for pos, k in enumerate(rows.tolist()):
            if (k, len(drawn[k])) in zeros:
                d[pos] = 0.0
            drawn[k].append(float(d[pos]))
        return d

    u, v = np.array([0, 0, 1, 2, 3]), np.array([1, 4, 2, 3, 4])
    plain = core._edge_lanes(9, u, v, -1.0, 1.0)
    monkeypatch.setattr(core._EdgeLanes, "uniform", stub)
    got = core._edge_lanes(9, u, v, -1.0, 1.0)
    assert [len(drawn[k]) for k in range(5)] == [2, 3, 2, 3, 2]
    for k in range(5):
        replay = iter(drawn[k])
        rng = SimpleNamespace(uniform=lambda lo, hi: next(replay))
        assert got[k].tolist() == [_draw_nonzero(rng, -1.0, 1.0),
                                   _draw_nonzero(rng, -1.0, 1.0)]
        lane = _edge_rng(9, int(u[k]), int(v[k]))
        real_draws = [float(lane.uniform(-1.0, 1.0)) for _ in drawn[k]]
        assert got[k].tolist() == [x for x, d in zip(real_draws, drawn[k])
                                   if d != 0.0]
    untouched = [0, 2, 4]
    assert np.array_equal(got[untouched], plain[untouched])


def test_system_from_edges_refuses_what_numpy_lanes_refuse():
    with pytest.raises(InvalidSystemError, match=r"2\*\*32"):
        system_from_edges(2 ** 32 + 1, [(0, 2 ** 32)], seed=0)
    # numpy refuses a range that overflows and a negative seed
    with pytest.raises(OverflowError):
        system_from_edges(2, [(0, 1)], seed=0, coeff_range=(-1e308, 1e308))
    with pytest.raises(ValueError, match="non-negative"):
        system_from_edges(2, [(0, 1)], seed=-1)
    # with no edge nothing is drawn
    system_from_edges(2, [], seed=-1, coeff_range=(-1e308, 1e308))
    assert system_from_edges(2, [(0, 1)], seed=np.uint64(5)).entries == \
        system_from_edges(2, [(0, 1)], seed=5).entries


def test_example1_tree_shape():
    sys = generate_instance(GeneratorSpec(kind="example1-tree", n=7, seed=0))
    g = induced_graph(sys)
    assert g.edges() == SEVEN_NODE_TREE_EDGES
    assert diameter(g) == 4
    # neighbor-count diagonal: degrees are [2, 3, 3, 1, 1, 1, 1]
    assert np.array_equal(sys.diag, [2.0, 3.0, 3.0, 1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(sys.b, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    with pytest.raises(InvalidSystemError, match="7-node"):
        generate_instance(GeneratorSpec(kind="example1-tree", n=6, seed=0))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
def test_random_tree_is_a_tree(n):
    for seed in range(5):
        sys = generate_instance(GeneratorSpec(kind="random-tree", n=n,
                                              seed=seed))
        g = induced_graph(sys)
        assert g.edge_count() == n - 1
        assert is_acyclic(g)
        assert len(connected_components(g)) == 1


def _pairs(edges):
    """A generator's (m, 2) int64 edge array as a list of (u, v) tuples."""
    assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
    return [tuple(e) for e in edges.tolist()]


def _heap_pruefer_tree(n, rng):
    """The former decoder, smallest leaf first from a heap: the reference."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2000), seed=st.integers(0, 2 ** 64 - 1))
@example(n=3, seed=0)
@example(n=2000, seed=1)
def test_pruefer_decoder_equals_the_heap_decoder(n, seed):
    got = core._pruefer_tree(n, core._topology_rng(seed))
    assert _pairs(got) == _heap_pruefer_tree(n, core._topology_rng(seed))


def test_loopy_small_has_a_cycle():
    for seed in range(8):
        n = 3 + seed
        sys = generate_instance(GeneratorSpec(kind="loopy-small", n=n,
                                              seed=seed))
        g = induced_graph(sys)
        assert len(connected_components(g)) == 1
        assert not is_acyclic(g)
        assert g.edge_count() == n - 1 + max(1, n // 5)
    with pytest.raises(InvalidSystemError, match="n >= 3"):
        generate_instance(GeneratorSpec(kind="loopy-small", n=2, seed=0))


def test_random_sparse_density_extremes():
    empty = generate_instance(GeneratorSpec(kind="random-sparse", n=6,
                                            seed=1, density=0.0))
    assert induced_graph(empty).edge_count() == 0
    assert np.array_equal(empty.diag, [1.0] * 6)  # isolated: unit diagonal
    full = generate_instance(GeneratorSpec(kind="random-sparse", n=6,
                                           seed=1, density=1.0))
    assert induced_graph(full).edge_count() == 15


def test_random_sparse_refuses_too_many_expected_edges():
    # 0.3 * 100000 * 99999 / 2 ~ 1.5e9 edges: refused before any draw
    with pytest.raises(TooLargeError, match=r"expects 1\.5e\+09 edges"):
        GeneratorSpec(kind="random-sparse", n=100_000, seed=0, density=0.3)
    # 0.5 * 2001 * 2000 / 2 = 1000500 is over the limit, 999500 is not
    assert core.MAX_RANDOM_SPARSE_EDGES == 10 ** 6
    with pytest.raises(TooLargeError):
        GeneratorSpec(kind="random-sparse", n=2001, seed=0, density=0.5)
    GeneratorSpec(kind="random-sparse", n=2000, seed=0, density=0.5)
    # density is read only by random-sparse
    GeneratorSpec(kind="random-tree", n=100_000, seed=0, density=0.3)


def _pairwise_sparse_edges(n, rng, density):
    """The former generator: one scalar draw per pair, the reference."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < density]


@pytest.mark.parametrize("n,seed,density",
                         [(1, 0, 0.5), (2, 3, 0.9), (50, 7, 0.1),
                          (300, 1, 0.02), (300, 2, 0.6)])
def test_random_sparse_edges_keep_the_pairwise_stream(n, seed, density):
    got = core._random_sparse_edges(n, core._topology_rng(seed), density)
    want = _pairwise_sparse_edges(n, core._topology_rng(seed), density)
    assert _pairs(got) == want


def _row_sparse_edges(n, rng, density):
    """The former generator: one rng.random call per row."""
    edges = []
    for i in range(n):
        hits = np.flatnonzero(rng.random(n - i - 1) < density)
        edges.extend((i, i + 1 + int(j)) for j in hits)
    return edges


@pytest.mark.parametrize("block", [core.SPARSE_DRAW_BLOCK, 7])
@pytest.mark.parametrize("n", [1, 2, 300, 3000])
def test_random_sparse_blocks_keep_the_row_stream(monkeypatch, n, block):
    # a block of 7 doubles splits most rows across rng.random calls
    monkeypatch.setattr(core, "SPARSE_DRAW_BLOCK", block)
    got = core._random_sparse_edges(n, core._topology_rng(n), 2.5 / n)
    assert _pairs(got) == _row_sparse_edges(n, core._topology_rng(n), 2.5 / n)


def test_path_and_star_shapes():
    p = generate_instance(GeneratorSpec(kind="path", n=5, seed=0))
    assert induced_graph(p).edges() == ((0, 1), (1, 2), (2, 3), (3, 4))
    s = generate_instance(GeneratorSpec(kind="star", n=5, seed=0))
    assert induced_graph(s).edges() == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert s.diag[0] == 4.0


def test_diag_rules():
    unit = generate_instance(GeneratorSpec(kind="star", n=4, seed=0,
                                           diag_rule="unit"))
    assert np.array_equal(unit.diag, [1.0, 1.0, 1.0, 1.0])
    fixed = generate_instance(GeneratorSpec(kind="star", n=4, seed=0,
                                            diag_rule="explicit",
                                            diag_value=-2.5))
    assert np.array_equal(fixed.diag, [-2.5, -2.5, -2.5, -2.5])


def test_coefficients_stay_in_range_and_nonzero():
    lo, hi = DEFAULT_COEFF_RANGE
    for seed in range(10):
        sys = generate_instance(GeneratorSpec(kind="loopy-small", n=8,
                                              seed=seed))
        for i, j, v in sys.entries:
            if i != j:
                assert lo <= v < hi
                assert v != 0.0


def test_explicit_rhs_override():
    sys = system_from_edges(3, [(0, 1), (1, 2)], seed=0, b=[5.0, 6.0, 7.0])
    assert np.array_equal(sys.b, [5.0, 6.0, 7.0])
