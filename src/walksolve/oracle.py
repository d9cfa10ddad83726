"""Independent oracles the solver is checked against.

Three routes that never reuse the solver's arithmetic:

* exhaustive walk enumeration against powers of the residual matrix
  R = I - D^-1 A, which both read from the system,
* per-edge message values obtained by Schur-complementing the principal
  submatrix the message can "see" (on acyclic instances),
* unwrapped computation trees whose exact root solution must reproduce a
  cyclic instance's estimate after the same number of rounds.

Exhaustive routes are guarded by size constants; callers that exceed a
guard get TooLargeError rather than silent runtimes.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .analysis import residual_matrix
from .core import SparseSystem, UndirectedGraph, is_acyclic
from .errors import (
    CyclicGraphError,
    InvalidWalkError,
    NotAnEdgeError,
    SingularMatrixError,
    TooLargeError,
    WalksolveError,
)
from .solvers import BPProgram

ENUM_MAX_NODES = 8
ENUM_MAX_LENGTH = 10
#: unwrap_tree refuses trees with more nodes than this
UNWRAP_MAX_NODES = 20000

ENUM_AGREEMENT_TOL = 1e-12
#: an estimate agrees with its unwrapped solve to this relative tolerance
UNWRAP_AGREEMENT_TOL = 1e-10


@dataclass(frozen=True)
class Walk:
    """A node sequence; consecutive nodes must be adjacent in the graph."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) == 0:
            raise InvalidWalkError("a walk needs at least one node")

    def __len__(self) -> int:
        return len(self.nodes) - 1  # number of steps


def walk_weight(sys: SparseSystem, walk: Walk) -> float:
    """Product of residual entries r_uv = -a_uv / a_uu along the walk; 1
    for a single node.

    Steps must follow edges of sys.graph, which is R's pattern (either
    direction stored); the directed entry actually used may still be zero.
    """
    g = sys.graph
    for u in walk.nodes:
        if not 0 <= u < sys.n:
            raise InvalidWalkError(f"walk node {u} outside 0..{sys.n - 1}")
    w = 1.0
    for u, v in zip(walk.nodes, walk.nodes[1:]):
        if not g.has_edge(u, v):
            raise InvalidWalkError(f"({u}, {v}) is not an edge")
        a = sys.entry(u, v)
        w *= -a / float(sys.diag[u]) if a else 0.0  # R stores no zero a_uv
    return w


def _enumerate_walk_sum(r: list[list[float]], g: UndirectedGraph, i: int,
                        j: int, length_cap: int) -> float:
    """Sum of weights over every walk i -> j of length <= length_cap.

    Plain depth-first enumeration with no memoization: the whole point is
    to be an independent route against the matrix-power value.
    """
    total = 0.0

    def extend(u: int, steps: int, weight: float):
        nonlocal total
        if u == j:
            total += weight
        if steps == length_cap:
            return
        for v in g.neighbors[u]:
            extend(v, steps + 1, weight * r[u][v])

    extend(i, 0, 1.0)
    return total


def partial_walk_sum(sys: SparseSystem, i: int, j: int,
                     length_cap: int) -> float:
    """Sum over all i -> j walks up to length_cap, two ways.

    Returns sum_{l=0..length_cap} (R^l)_ij with R = residual_matrix(sys),
    computed by matrix powers, after checking it against the exhaustive
    enumeration to ENUM_AGREEMENT_TOL.  Guards: n <= ENUM_MAX_NODES,
    length_cap <= ENUM_MAX_LENGTH.
    """
    n = sys.n
    if n > ENUM_MAX_NODES or length_cap > ENUM_MAX_LENGTH:
        raise TooLargeError(
            f"enumeration guarded to n <= {ENUM_MAX_NODES}, "
            f"length <= {ENUM_MAX_LENGTH}; got n={n}, length={length_cap}")
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidWalkError(f"endpoints ({i}, {j}) outside 0..{n - 1}")
    if length_cap < 0:
        raise InvalidWalkError(f"length cap must be >= 0, got {length_cap}")
    r = residual_matrix(sys).toarray()
    power = np.eye(n)
    total = 0.0
    for _ in range(length_cap + 1):
        total += power[i, j]
        power = power @ r
    enum = _enumerate_walk_sum(r.tolist(), sys.graph, i, j, length_cap)
    if abs(enum - total) > ENUM_AGREEMENT_TOL * max(1.0, abs(total)):
        raise WalksolveError(
            f"enumeration {enum!r} and matrix powers {total!r} disagree "
            f"for ({i}, {j}, {length_cap})")
    return total


def restricted_subgraph(g: UndirectedGraph, i: int, j: int,
                        k: int) -> tuple[int, ...]:
    """Nodes within k hops of i once the edge (i, j) is removed.

    This is what the round-k message from i to j can have seen.  (i, j)
    must be an edge; k = 0 gives just {i}.
    """
    if not (0 <= i < g.n and 0 <= j < g.n) or not g.has_edge(i, j):
        raise NotAnEdgeError(f"({i}, {j}) is not an edge")
    if k < 0:
        raise InvalidWalkError(f"depth must be >= 0, got {k}")
    dist = {i: 0}
    q = deque([i])
    while q:
        u = q.popleft()
        if dist[u] == k:
            continue
        for v in g.neighbors[u]:
            if u == i and v == j:
                continue
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return tuple(sorted(dist))


def message_oracle(sys: SparseSystem, i: int, j: int,
                   k: int) -> tuple[float, float]:
    """Closed-form (a, b) for the round-k message i -> j on a tree.

    Take S = restricted_subgraph at depth k and the principal submatrix
    A_S; eliminating every node of S but i leaves one scalar equation
    a * x_i = b, whose coefficients are returned.  Equivalent by
    construction: b / a equals component i of solving A_S x = b_S.
    Round 0 is the base case (a_ii, b_i).
    """
    g = sys.graph
    if not is_acyclic(g):
        raise CyclicGraphError(
            "message oracle is defined on acyclic instances only")
    nodes = restricted_subgraph(g, i, j, k)
    rest = [u for u in nodes if u != i]
    a_ii = float(sys.diag[i])
    b_i = float(sys.b[i])
    if not rest:
        return a_ii, b_i
    a = sys.as_dense()
    ridx = np.array(rest)
    a_rr = a[np.ix_(ridx, ridx)]
    a_ir = a[i, ridx]
    a_ri = a[ridx, i]
    b_r = sys.b[ridx]
    try:
        sol = np.linalg.solve(a_rr, np.column_stack([a_ri, b_r]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(
            f"subgraph block for message ({i} -> {j}, round {k}) is "
            f"singular: {exc}") from exc
    return (float(a_ii - a_ir @ sol[:, 0]),
            float(b_i - a_ir @ sol[:, 1]))


@dataclass(frozen=True)
class UnwrappedNode:
    tid: int
    orig: int
    parent: Optional[int]  # tid of the parent replica
    depth: int


@dataclass(frozen=True)
class UnwrappedTree:
    """Replica tree from iteratively growing leaves of the source graph."""

    root_orig: int
    t: int
    nodes: tuple[UnwrappedNode, ...]  # breadth-first, children by orig id

    def layer_sizes(self) -> tuple[int, ...]:
        sizes: dict[int, int] = {}
        for nd in self.nodes:
            sizes[nd.depth] = sizes.get(nd.depth, 0) + 1
        return tuple(sizes[d] for d in sorted(sizes))


def unwrap_tree(g: UndirectedGraph, root: int, t: int) -> UnwrappedTree:
    """Grow the t-round computation tree rooted at a node.

    Start from the root replica; t times over, every current leaf gains
    one child replica per neighbor of its original node except the
    original it came from (children in ascending original id).  A leaf
    whose only neighbor is its parent stays a leaf.  Guarded by
    UNWRAP_MAX_NODES.
    """
    if not 0 <= root < g.n:
        raise InvalidWalkError(f"root {root} outside 0..{g.n - 1}")
    if t < 0:
        raise InvalidWalkError(f"round count must be >= 0, got {t}")
    nodes = [UnwrappedNode(tid=0, orig=root, parent=None, depth=0)]
    frontier = [0]
    for _ in range(t):
        new_frontier = []
        for tid in frontier:
            nd = nodes[tid]
            parent_orig = nodes[nd.parent].orig if nd.parent is not None else None
            kids = [v for v in g.neighbors[nd.orig] if v != parent_orig]
            for v in kids:
                if len(nodes) >= UNWRAP_MAX_NODES:
                    raise TooLargeError(
                        f"unwrapped tree exceeds {UNWRAP_MAX_NODES} nodes")
                child = UnwrappedNode(tid=len(nodes), orig=v, parent=tid,
                                      depth=nd.depth + 1)
                nodes.append(child)
                new_frontier.append(child.tid)
        # older leaves whose only neighbor is their parent never regrow,
        # so expanding just the newest layer matches expanding all leaves
        frontier = new_frontier
    return UnwrappedTree(root_orig=root, t=t, nodes=tuple(nodes))


def unwrapped_system(sys: SparseSystem, tree: UnwrappedTree) -> SparseSystem:
    """Replicate coefficients onto the unwrapped tree's nodes and edges."""
    entries = []
    b = []
    for nd in tree.nodes:
        entries.append((nd.tid, nd.tid, sys.diag[nd.orig]))
        b.append(sys.b[nd.orig])
        if nd.parent is not None:
            p = tree.nodes[nd.parent]
            entries.append((p.tid, nd.tid, sys.entry(p.orig, nd.orig)))
            entries.append((nd.tid, p.tid, sys.entry(nd.orig, p.orig)))
    return SparseSystem(len(tree.nodes), entries, b)


def _solve_root(un: SparseSystem) -> float:
    """Direct solve of the unwrapped system, root component only, by
    sparse LU: a tree's elimination has no fill."""
    import scipy.sparse as sp
    import scipy.sparse.linalg
    mat = sp.csr_matrix((un.data, un.indices, un.indptr), shape=(un.n, un.n))
    return float(scipy.sparse.linalg.spsolve(mat.tocsc(), un.b)[0])


@dataclass(frozen=True)
class UnwrappedCheck:
    ok: bool
    estimate: float    # solver estimate at the root after t rounds
    tree_value: float  # exact root solution of the unwrapped system
    tree_nodes: int
    t: int


def unwrapped_equivalence_check(sys: SparseSystem, i: int,
                                t: int) -> UnwrappedCheck:
    """Does t rounds of message passing at node i equal the unwrapped solve?

    Builds the t-round computation tree at i, replicates the system onto
    it, solves that directly, and compares against the estimate x^_i(t)
    of bp's rounds, as run_rounds drives them, to UNWRAP_AGREEMENT_TOL.
    t = 0 compares the initialization b_i / a_ii.  A node fault in
    rounds 0..t raises that node's SolverError: x^_i(t) does not exist.
    """
    tree = unwrap_tree(sys.graph, i, t)
    estimates, _ = next(islice(BPProgram(sys).rounds(), t, None))
    estimate = float(estimates[i])
    tree_value = _solve_root(unwrapped_system(sys, tree))
    ok = abs(estimate - tree_value) <= UNWRAP_AGREEMENT_TOL * max(
        1.0, abs(tree_value))
    return UnwrappedCheck(ok=ok, estimate=estimate, tree_value=tree_value,
                          tree_nodes=len(tree.nodes), t=t)
