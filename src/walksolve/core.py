"""Sparse systems, their interaction graphs, and seeded instance generators.

Node ids are 0-based everywhere inside the library; text formats that use
1-based ids convert at the I/O boundary only.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidSystemError, MissingDiagonalError, TooLargeError

GENERATOR_KINDS = (
    "example1-tree",
    "random-tree",
    "loopy-small",
    "random-sparse",
    "path",
    "star",
)
DIAG_RULES = ("neighbor-count", "unit", "explicit")

# Fixed 7-node demo tree: node 0 joins 1 and 2, node 1 joins 3 and 4,
# node 2 joins 5 and 6.  Diameter 4.
SEVEN_NODE_TREE_EDGES = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6))

DEFAULT_COEFF_RANGE = (-1.0, -0.85)
#: a random-sparse spec expecting more edges, density * n (n - 1) / 2,
#: is refused before anything is drawn
MAX_RANDOM_SPARSE_EDGES = 10 ** 6
#: random-sparse draws this many pair doubles per rng.random call (512 KB),
#: the last call fewer
SPARSE_DRAW_BLOCK = 2 ** 16
#: the largest n whose keys row * n + col, at most n * n - 1, fit in int64;
#: below 2**32, so that a node id is one word of an edge lane's spawn key
MAX_KEYED_NODES = math.isqrt(np.iinfo(np.int64).max)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _node_ids(given: Sequence, width: int, n: int, kind: str) -> tuple:
    """Read given, m rows of width numbers led by two node ids: the rows
    as floats, the ids as (2, m) int64, and the mask of rows with an id
    not an integer in 0..n-1, whose ids read 0, never truncated.  The
    kind's size n is refused below 1, and with TooLargeError above
    MAX_KEYED_NODES, where keys row * n + col would overflow int64."""
    if n < 1:
        raise InvalidSystemError(f"{kind} size must be >= 1, got {n}")
    if n > MAX_KEYED_NODES:
        raise TooLargeError(f"{kind} size {n}: keys row * n + col overflow "
                            f"int64 above {MAX_KEYED_NODES}")
    read = np.asarray(given, dtype=float).reshape(len(given), width)
    ids = read[:, :2].T.copy()  # contiguous: faster passes
    whole = np.trunc(ids)
    outside = ~((0 <= whole) & (whole < n) & (whole == ids)).all(axis=0)
    return read, np.where(outside, 0, whole).astype(np.int64), outside


def _refuse_fraction(given: Sequence, what: str, id_name: str) -> None:
    """InvalidSystemError when the pair given, named what, has an id that
    is not an integer; id_name names its ids."""
    if not all(float(x).is_integer() for x in given[:2]):
        raise InvalidSystemError(f"{what} ({given[0]}, {given[1]}) has "
                                 f"{id_name} that is not an integer")


def check_tolerance(tol: float, name: str = "tol") -> float:
    """tol, once it is finite and >= 0; ValueError naming it otherwise."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")
    return tol


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """A square sparse system A x = b with every diagonal entry present.

    A is stored once, as read-only compressed sparse row arrays: row i
    has the 0-based columns ``indices[indptr[i]:indptr[i+1]]``, ascending,
    and the values ``data`` at the same positions.  Duplicate (row, col)
    pairs are rejected, not summed; stored zeros are kept.  Every diagonal
    entry (``diag``) must be present and nonzero so that per-node
    normalizations are always defined.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    b: np.ndarray
    diag: np.ndarray

    def __init__(self, n: int, entries: Iterable[tuple[int, int, float]],
                 b: Sequence[float]):
        """entries are (row, col, value) triples or an (m, 3) array."""
        given = entries if isinstance(entries, np.ndarray) else list(entries)
        triples, (rows, cols), outside = _node_ids(given, 3, n, "system")
        vals = triples[:, 2]
        # an entry outside gets a key of its own: it is never a duplicate
        keys = np.where(outside, -1 - np.arange(len(given)), rows * n + cols)
        order = np.argsort(keys, kind="stable")
        repeat = np.zeros(len(given), dtype=bool)
        repeat[order[1:]] = np.diff(keys[order]) == 0
        bad = outside | ~np.isfinite(vals) | repeat
        if bad.any():
            k = int(np.argmax(bad))
            _refuse_fraction(given[k], "entry", "an index")
            row, col, val = (int(given[k][0]), int(given[k][1]),
                             float(given[k][2]))
            if outside[k]:
                raise InvalidSystemError(
                    f"entry ({row}, {col}) outside a {n}x{n} system")
            if not math.isfinite(val):
                raise InvalidSystemError(
                    f"entry ({row}, {col}) has non-finite value {val!r}")
            raise InvalidSystemError(
                f"duplicate entry at ({row}, {col}); duplicates are an "
                "error, not summed")
        bv = np.fromiter(b, dtype=float)
        if len(bv) != n:
            raise InvalidSystemError(
                f"right-hand side has length {len(bv)}, expected {n}")
        if not np.all(np.isfinite(bv)):
            raise InvalidSystemError("right-hand side has non-finite values")
        rows, cols, vals = rows[order], cols[order], vals[order]
        on_diag = rows == cols
        diag = np.full(n, math.nan)  # values are finite: NaN is missing
        diag[rows[on_diag]] = vals[on_diag]
        for fault, what in ((np.isnan(diag), "missing"),
                            (diag == 0.0, "is zero")):
            if fault.any():
                i = int(np.argmax(fault))
                raise MissingDiagonalError(f"diagonal entry ({i}, {i}) {what}")
        object.__setattr__(self, "n", n)
        indptr = np.searchsorted(rows, np.arange(n + 1))
        for name, value in (("indptr", indptr), ("indices", cols),
                            ("data", vals), ("b", bv), ("diag", diag)):
            object.__setattr__(self, name, _read_only(value))

    @property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry, in CSR order."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def residual(self, x: np.ndarray) -> np.ndarray:
        """b - A x, each row's products summed in CSR order."""
        return self.b - np.bincount(self.rows, self.data * x[self.indices],
                                    self.n)

    @cached_property
    def graph(self) -> UndirectedGraph:
        """The interaction graph, built once per system."""
        return induced_graph(self)

    # Views for the oracles and tests; the solvers read the arrays.

    @property
    def entries(self) -> tuple[tuple[int, int, float], ...]:
        """(row, col, value) triples sorted by (row, col)."""
        return tuple(zip(self.rows.tolist(), self.indices.tolist(),
                         self.data.tolist()))

    def entry(self, i: int, j: int) -> float:
        """Value at (i, j); zero when the position is not stored."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        k = lo + int(np.searchsorted(self.indices[lo:hi], j))
        return float(self.data[k]) if k < hi and self.indices[k] == j else 0.0

    def as_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.rows, self.indices] = self.data
        return a


@dataclass(frozen=True, eq=False)
class UndirectedGraph:
    """Simple undirected graph, stored as its directed edges in CSR order.

    Slot s carries the directed edge owner[s] -> nbr[s].  The slots of
    node u are indptr[u]:indptr[u+1], its neighbors ascending, and rev[s]
    is the slot of the reverse edge nbr[s] -> owner[s].  The arrays are
    read-only; ``owner``, ``rev`` and the connected components are
    derived once per graph, and ``sys.graph`` builds the graph once per
    system.
    """

    n: int
    indptr: np.ndarray
    nbr: np.ndarray

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        """edges are (u, v) pairs or an (m, 2) int array; repeated and
        reversed pairs collapse into one edge."""
        given = edges if isinstance(edges, np.ndarray) else list(edges)
        _, (u, v), outside = _node_ids(given, 2, n, "graph")
        bad = outside | (u == v)
        if bad.any():
            k = int(np.argmax(bad))
            _refuse_fraction(given[k], "edge", "a node id")
            a, b = int(given[k][0]), int(given[k][1])
            if outside[k]:
                raise InvalidSystemError(f"edge ({a}, {b}) outside 0..{n - 1}")
            raise InvalidSystemError(f"self-loop at node {a} not allowed")
        # each directed edge once as owner * n + nbr, ascending: CSR order
        # (sorted and masked: numpy 2.4's hash-based np.unique is far slower)
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        slots = keys[np.diff(keys, prepend=-1) != 0]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indptr", _read_only(
            np.searchsorted(slots, np.arange(n + 1) * n)))
        object.__setattr__(self, "nbr", _read_only(slots % n))

    @cached_property
    def owner(self) -> np.ndarray:
        """The node that sends along each slot."""
        return _read_only(np.repeat(np.arange(self.n), np.diff(self.indptr)))

    @cached_property
    def rev(self) -> np.ndarray:
        """The slot of each slot's reverse edge."""
        # slots are sorted by (owner, nbr); listing them by (nbr, owner)
        # instead visits, in turn, the reverse of every slot
        return _read_only(np.lexsort((self.owner, self.nbr)))

    @cached_property
    def _components(self) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
        """Components ordered by smallest member, each in BFS order from
        it, and each node's hop distance from its component's first node;
        is_acyclic, diameter and connected_components share them."""
        bounds, nbr = self.indptr.tolist(), self.nbr.tolist()
        dist = [-1] * self.n
        comps = []
        for start in range(self.n):
            if dist[start] < 0:
                comps.append(tuple(_bfs(bounds, nbr, start, dist)))
        return tuple(comps), dist

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted per-node neighbor tuples, built on first use; a view for
        the oracles and the per-node reference path."""
        bounds, nbr = self.indptr.tolist(), self.nbr.tolist()
        return tuple(tuple(nbr[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Undirected edge list with u < v, sorted."""
        upper = self.owner < self.nbr
        return tuple(zip(self.owner[upper].tolist(),
                         self.nbr[upper].tolist()))

    def edge_count(self) -> int:
        return len(self.nbr) // 2

    def has_edge(self, u: int, v: int) -> bool:
        row = self.nbr[self.indptr[u]:self.indptr[u + 1]]
        k = int(np.searchsorted(row, v))
        return bool(k < len(row) and row[k] == v)


def induced_graph(sys: SparseSystem) -> UndirectedGraph:
    """Interaction graph: i and j are adjacent iff a_ij != 0 or a_ji != 0;
    ``sys.graph`` builds it once per system."""
    off = (sys.rows != sys.indices) & (sys.data != 0.0)
    return UndirectedGraph(sys.n, np.column_stack((sys.rows[off],
                                                   sys.indices[off])))


def _bfs(bounds: list, nbr: list, src: int, dist: list) -> list[int]:
    """The nodes reached from src in BFS order; sets their hop distances
    in dist, where -1 marks a node not reached yet."""
    dist[src] = 0
    order = [src]
    for u in order:  # order grows while it is read: it is the BFS queue
        d = dist[u] + 1
        for v in nbr[bounds[u]:bounds[u + 1]]:
            if dist[v] < 0:
                dist[v] = d
                order.append(v)
    return order


def bfs_distances(g: UndirectedGraph, src: int) -> list[int]:
    """Hop distances from src; -1 marks unreachable nodes."""
    dist = [-1] * g.n
    _bfs(g.indptr.tolist(), g.nbr.tolist(), src, dist)
    return dist


#: sources per bit-parallel BFS block: 4 uint64 words per node
BFS_BLOCK = 256


def _eccentricity(indptr: np.ndarray, nbr: np.ndarray,
                  sources: np.ndarray) -> int:
    """The largest eccentricity among sources in a connected graph with an
    edge, given as CSR arrays, by one BFS from all sources at once.

    Bit s of row v marks node v as reached from sources[s] (word s // 64,
    bit s % 64).  One level ORs each node's neighbours' frontier rows and
    keeps the bits not seen before; the result is the number of levels at
    which some source's reach still grows.
    """
    s = np.arange(len(sources))
    seen = np.zeros((len(indptr) - 1, (len(s) + 63) // 64), dtype=np.uint64)
    seen[sources, s // 64] = np.left_shift(np.uint64(1),
                                           (s % 64).astype(np.uint64))
    front, levels = seen, -1
    while front.any():
        front = np.bitwise_or.reduceat(np.take(front, nbr, axis=0),
                                       indptr[:-1], axis=0)
        front &= ~seen
        seen |= front
        levels += 1
    return levels


def _component_diameter(g: UndirectedGraph, comp: tuple[int, ...],
                        depth: list, lb: int, lists: tuple,
                        forest: bool) -> int:
    """max(lb, diameter of component comp).

    comp lists the component in BFS order from its first node, and depth
    holds each node's hop distance from its component's first node.
    lists holds the graph's indptr and nbr as lists and a distance list,
    -1 on comp.  A tree (any component, when forest says the graph is
    one) takes one sweep from its last node, which ends a longest path.
    Any other component takes iFUB (Crescenzi, Grossi, Habib, Lanzi &
    Marino, Theor. Comput. Sci. 514, 2013): once lb holds the
    eccentricity of every node deeper than i, a longer path would join
    two nodes at most i deep, at most 2i apart; so the deepest nodes go
    BFS_BLOCK at a time until lb >= 2i.  Up to two blocks' worth of nodes
    keep the root comp[0]; a larger component walks its sweep's path
    back to the middle (Magnien, Latapy & Habib, J. Exp. Algorithmics 13,
    2009), a root with fewer deep nodes.
    """
    bounds, adj, dist = lists
    tree = forest or (sum(bounds[v + 1] - bounds[v] for v in comp)
                      == 2 * len(comp) - 2)
    if tree or len(comp) > 2 * BFS_BLOCK:
        u = _bfs(bounds, adj, comp[-1], dist)[-1]
        lb = max(lb, dist[u])
        if tree:
            return lb
        for _ in range((dist[u] + 1) // 2):  # walk back to the middle
            u = next(v for v in adj[bounds[u]:bounds[u + 1]]
                     if dist[v] == dist[u] - 1)
        for v in comp:
            dist[v] = -1
        comp, depth = _bfs(bounds, adj, u, dist), dist
    # the component's own CSR arrays, its nodes renumbered in BFS order
    nodes = np.array(comp)
    level = np.array([depth[v] for v in comp])
    local = np.empty(g.n, dtype=np.int64)
    local[nodes] = np.arange(len(nodes))
    deg = g.indptr[nodes + 1] - g.indptr[nodes]
    indptr = np.concatenate(([0], np.cumsum(deg)))
    nbr = local[g.nbr[np.repeat(g.indptr[nodes] - indptr[:-1], deg)
                      + np.arange(indptr[-1])]]
    lb, top = max(lb, int(level[-1])), len(comp)
    while top and lb < 2 * level[top - 1]:
        lo = max(0, top - BFS_BLOCK)
        lb = max(lb, _eccentricity(indptr, nbr, np.arange(lo, top)))
        top = lo
    return lb


def diameter(g: UndirectedGraph) -> int:
    """Longest shortest path, exact: the maximum over components, 0 on a
    singleton graph.  Components go to ``_component_diameter`` largest
    first, until no component left is large enough to beat the best so
    far."""
    comps, depth = g._components
    forest = is_acyclic(g)
    lists, best = (g.indptr.tolist(), g.nbr.tolist(), [-1] * g.n), 0
    for comp in sorted(comps, key=len, reverse=True):
        if len(comp) - 1 <= best:
            break
        best = _component_diameter(g, comp, depth, best, lists, forest)
    return best


def connected_components(g: UndirectedGraph) -> tuple[tuple[int, ...], ...]:
    """Components as sorted node tuples, ordered by smallest member."""
    return tuple(tuple(sorted(comp)) for comp in g._components[0])


def is_acyclic(g: UndirectedGraph) -> bool:
    """True iff the graph has no undirected cycle (i.e. it is a forest)."""
    m = g.edge_count()  # a forest has fewer edges than nodes
    return m < g.n and m == g.n - len(g._components[0])


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a reproducible random instance.

    ``coeff_range`` is sampled half-open [lo, hi); a draw of exactly 0.0
    is redrawn so no stored off-diagonal can vanish, and lo == 0.0 is
    rejected outright because the included endpoint would zero an edge
    weight.  ``density`` only affects kind "random-sparse", which raises
    TooLargeError when it expects more than MAX_RANDOM_SPARSE_EDGES edges;
    ``diag_value`` only affects diag_rule "explicit".  An ``n`` above
    MAX_KEYED_NODES, which no system or graph takes, raises TooLargeError
    before anything is built; so every node id is below 2**32, and an
    edge's coefficient lane takes each id as one 32-bit word of its spawn
    key.
    """

    kind: str
    n: int
    seed: int
    coeff_range: tuple[float, float] = DEFAULT_COEFF_RANGE
    diag_rule: str = "neighbor-count"
    density: float = 0.1
    diag_value: float = 1.0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise InvalidSystemError(
                f"unknown generator kind {self.kind!r}; "
                f"expected one of {GENERATOR_KINDS}")
        if self.n < 1:
            raise InvalidSystemError(f"n must be >= 1, got {self.n}")
        if self.n > MAX_KEYED_NODES:
            raise TooLargeError(f"n={self.n}: keys row * n + col overflow "
                                f"int64 above {MAX_KEYED_NODES}")
        if not (0 <= self.seed < 2 ** 64):
            raise InvalidSystemError("seed must fit in an unsigned 64-bit int")
        lo, hi = self.coeff_range
        if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
            raise InvalidSystemError(
                f"coeff_range must be a finite (lo, hi) with lo < hi, "
                f"got {self.coeff_range}")
        if lo == 0.0:
            raise InvalidSystemError(
                "coeff_range low endpoint 0.0 would zero an edge weight")
        if not 0.0 <= self.density <= 1.0:
            raise InvalidSystemError("density must lie in [0, 1]")
        expected = self.density * self.n * (self.n - 1) / 2
        if self.kind == "random-sparse" and expected > MAX_RANDOM_SPARSE_EDGES:
            raise TooLargeError(
                f"random-sparse n={self.n} density={self.density:g} expects "
                f"{expected:.3g} edges, more than {MAX_RANDOM_SPARSE_EDGES}")
        if self.diag_rule not in DIAG_RULES:
            raise InvalidSystemError(
                f"unknown diag rule {self.diag_rule!r}; "
                f"expected one of {DIAG_RULES}")
        if self.diag_rule == "explicit" and (
                self.diag_value == 0.0 or not math.isfinite(self.diag_value)):
            raise InvalidSystemError("explicit diagonal must be finite nonzero")


def _topology_rng(seed: int) -> np.random.Generator:
    # Stream split: lane (0,) of the seed is reserved for topology draws,
    # lane (1, i, j) for the coefficients of undirected edge i < j.
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier, high and low words, and its 32-bit limbs
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_LO0, _PCG_LO1 = _PCG_LO & np.uint64(_M32), _PCG_LO >> np.uint64(32)


def _hasher(const: int, mult: int):
    """SeedSequence's running hash: each call xors in the constant,
    advances it by mult, multiplies by it and folds the high half down."""
    def hash_(x: np.ndarray) -> np.ndarray:
        nonlocal const
        x = x ^ np.uint32(const)
        const = const * mult & _M32
        x = x * np.uint32(const)
        return x ^ (x >> np.uint32(16))
    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> np.uint32(16))


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * multiplier + (inc_hi, inc_lo) mod 2**128, on uint64
    halves; the high word of lo times the multiplier's low word is
    summed from 32-bit limbs."""
    lo0, lo1 = lo & np.uint64(_M32), lo >> np.uint64(32)
    p00, p01, p10 = lo0 * _PCG_LO0, lo0 * _PCG_LO1, lo1 * _PCG_LO0
    mid = ((p00 >> np.uint64(32)) + (p01 & np.uint64(_M32))
           + (p10 & np.uint64(_M32)))
    carry = (lo1 * _PCG_LO1 + (p01 >> np.uint64(32))
             + (p10 >> np.uint64(32)) + (mid >> np.uint64(32)))
    new_lo = lo * _PCG_LO + inc_lo
    new_hi = (hi * _PCG_LO + lo * _PCG_HI + carry + inc_hi
              + (new_lo < inc_lo).astype(np.uint64))
    return new_hi, new_lo


class _EdgeLanes:
    """``PCG64(SeedSequence(seed, spawn_key=(1, u, v)))`` for every edge
    (u[k], v[k]) at once, as uint64 arrays of the 128-bit states and
    increments: numpy's seeding and output steps, one element per edge.
    Node ids must be below 2**32, so that each is one spawn-key word."""

    def __init__(self, seed: int, u: np.ndarray, v: np.ndarray):
        seed = operator.index(seed)
        if seed < 0:  # refused as numpy's SeedSequence refuses it
            raise ValueError("expected non-negative integer")
        words = [np.array([seed >> s & _M32], dtype=np.uint32)
                 for s in range(0, max(seed.bit_length(), 1), 32)]
        # SeedSequence pads a spawned sequence's seed words to its pool
        # size of 4, then appends the spawn key
        words += [np.zeros(1, dtype=np.uint32)] * (4 - len(words))
        words += [np.ones(1, dtype=np.uint32), u.astype(np.uint32),
                  v.astype(np.uint32)]
        hash_ = _hasher(_INIT_A, _MULT_A)
        pool = [hash_(w) for w in words[:4]]
        for s in range(4):
            for d in range(4):
                if s != d:
                    pool[d] = _mix(pool[d], hash_(pool[s]))
        for w in words[4:]:
            for d in range(4):
                pool[d] = _mix(pool[d], hash_(w))
        # generate_state(4, uint64): eight words from the pool, paired
        # little-endian
        hash_ = _hasher(_INIT_B, _MULT_B)
        out = [hash_(pool[k % 4]).astype(np.uint64) for k in range(8)]
        w0, w1, w2, w3 = (out[k] | out[k + 1] << np.uint64(32)
                          for k in range(0, 8, 2))
        # PCG64 seeding: inc = (w2:w3) << 1 | 1; state = 0, step, add the
        # initial state (w0:w1), step
        self.inc_hi = w2 << np.uint64(1) | w3 >> np.uint64(63)
        self.inc_lo = w3 << np.uint64(1) | np.uint64(1)
        lo = self.inc_lo + w1
        hi = self.inc_hi + w0 + (lo < w1).astype(np.uint64)
        self.hi, self.lo = _lcg_step(hi, lo, self.inc_hi, self.inc_lo)

    def uniform(self, rows: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """Advance the lanes ``rows`` one step and return each one's
        ``rng.uniform(lo, hi)``: the XSL-RR output's top 53 bits scaled
        to [0, 1), then lo + (hi - lo) * d."""
        s_hi, s_lo = _lcg_step(self.hi[rows], self.lo[rows],
                               self.inc_hi[rows], self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = s_hi, s_lo
        x = s_hi ^ s_lo
        rot = s_hi >> np.uint64(58)
        x = x >> rot | x << (-rot & np.uint64(63))
        return lo + (hi - lo) * ((x >> np.uint64(11)) * 2.0 ** -53)


def _edge_lanes(seed: int, u: np.ndarray, v: np.ndarray, lo: float,
                hi: float) -> np.ndarray:
    """The two coefficients of every edge (u[k], v[k]) as an (m, 2) array:
    the first two nonzero ``rng.uniform(lo, hi)`` draws of the edge's lane
    ``PCG64(SeedSequence(seed, spawn_key=(1, u, v)))``, bit for bit.

    A draw of exactly 0.0 is skipped, and only the lanes that drew one
    draw again, so each edge keeps the values a scalar loop of
    nonzero draws would keep from its lane.
    """
    if not len(u):
        return np.empty((0, 2))
    # refused as numpy's uniform refuses it
    if not math.isfinite(hi - lo):
        raise OverflowError("high - low range exceeds valid bounds")
    lanes = _EdgeLanes(seed, u, v)
    out = np.empty((len(u), 2))
    kept = np.zeros(len(u), dtype=np.intp)
    rows = np.arange(len(u))
    while len(rows):
        d = lanes.uniform(rows, lo, hi)
        took = rows[d != 0.0]
        out[took, kept[took]] = d[d != 0.0]
        kept[took] += 1
        rows = rows[kept[rows] < 2]
    return out


def _pruefer_tree(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random labeled tree from a random Pruefer sequence, as an
    (n - 1, 2) int64 array of edges (u, v) with u < v."""
    if n <= 2:  # nothing to decode: no edge, or the edge (0, 1)
        return np.array([(0, 1)] * (n - 1), dtype=np.int64).reshape(-1, 2)
    seq = rng.integers(0, n, size=n - 2).tolist()
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = []
    # smallest-leaf decoding without a heap: ptr, the last leaf found by
    # scanning up, is used and every leaf above it is not, so the next
    # leaf is a neighbour x < ptr that has just become one, or else the
    # first leaf above ptr
    leaf = ptr = degree.index(1)
    for x in seq:
        leaves.append(leaf)
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    # node n - 1 is never the smallest of two leaves, so it is left last
    leaves.append(leaf)
    u = np.array(leaves, dtype=np.int64)
    v = np.array(seq + [n - 1], dtype=np.int64)
    return np.column_stack((np.minimum(u, v), np.maximum(u, v)))


def _loopy_small_edges(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random connected graph with at least one cycle: tree plus extras,
    as an (m, 2) int64 array of edges (u, v) with u < v."""
    if n < 3:
        raise InvalidSystemError(
            f"loopy-small needs n >= 3 to contain a cycle, got {n}")
    tree = _pruefer_tree(n, rng)
    edges = set(zip(*tree.T.tolist()))
    extra = max(1, n // 5)
    added = []
    # bounded retry loop; a complete graph cannot absorb more edges
    attempts = 0
    while len(added) < extra and attempts < 50 * extra + 100:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in edges:
            continue
        edges.add(e)
        added.append(e)
    # in any order: the graph sorts its slots, and lanes key on (u, v)
    return np.concatenate(
        (tree, np.array(added, dtype=np.int64).reshape(-1, 2)))


def _random_sparse_edges(n: int, rng: np.random.Generator,
                         density: float) -> np.ndarray:
    # one draw per pair i < j, in row order, drawn SPARSE_DRAW_BLOCK pairs
    # at a time: each double takes one 64-bit output, so this is the
    # stream of drawing the pairs one at a time, without an n^2/2 array.
    # Row i's n - 1 - i pairs start at start[i]; start[n] counts them all.
    start = np.concatenate(([0], np.cumsum(np.arange(n - 1, -1, -1))))
    hits = np.concatenate([np.zeros(0, dtype=np.intp)] + [
        lo + np.flatnonzero(rng.random(
            min(SPARSE_DRAW_BLOCK, start[n] - lo)) < density)
        for lo in range(0, start[n], SPARSE_DRAW_BLOCK)])
    row = np.searchsorted(start, hits, side="right") - 1
    return np.column_stack((row, hits - start[row] + row + 1))


def _diag_values(rule: str, degrees: np.ndarray,
                 explicit: float) -> np.ndarray:
    if rule == "neighbor-count":
        # isolated nodes get 1.0 so the diagonal stays nonzero
        return np.maximum(degrees, 1).astype(float)
    if rule == "unit":
        return np.ones(len(degrees))
    return np.full(len(degrees), float(explicit))


def system_from_edges(n: int, edges: Sequence[tuple[int, int]], seed: int,
                      coeff_range: tuple[float, float] = DEFAULT_COEFF_RANGE,
                      diag_rule: str = "neighbor-count",
                      diag_value: float = 1.0) -> SparseSystem:
    """Fill a fixed edge pattern with seeded coefficients.

    ``edges`` are (u, v) pairs or an (m, 2) int array, as UndirectedGraph
    takes them; the generators pass arrays.  Both directions of every
    edge i < j get independent draws from ``coeff_range``: the first two
    nonzero draws of the edge's own lane
    ``PCG64(SeedSequence(seed, spawn_key=(1, i, j)))``, the i->j value
    first, so the result does not depend on edge enumeration order.  The
    lanes of all edges are computed in one array pass, bit-identical to
    numpy's scalar SeedSequence/PCG64 lane; the test
    ``test_edge_lanes_equal_numpy_scalar_lanes`` pins that, and NumPy's
    stream policy (NEP 19) keeps those streams stable.  Node ids are
    below 2**32, so that each is one spawn-key word: the graph refuses an
    n above MAX_KEYED_NODES with TooLargeError.  The right-hand side is
    b_i = i + 1.
    """
    g = UndirectedGraph(n, edges)
    upper = g.owner < g.nbr
    u, v = g.owner[upper], g.nbr[upper]
    lo, hi = coeff_range
    w = _edge_lanes(seed, u, v, lo, hi)
    nodes = np.arange(n)
    rows = np.concatenate((nodes, u, v))
    cols = np.concatenate((nodes, v, u))
    vals = np.concatenate((_diag_values(diag_rule, np.diff(g.indptr),
                                        diag_value), w[:, 0], w[:, 1]))
    return SparseSystem(n, np.column_stack((rows, cols, vals)),
                        np.arange(1.0, n + 1))


def generate_instance(spec: GeneratorSpec) -> SparseSystem:
    """Deterministically build the instance a GeneratorSpec describes.

    Same spec, same system, bit for bit: topology comes from the seed's
    topology lane and every edge weight from that edge's own lane.
    """
    rng = _topology_rng(spec.seed)
    if spec.kind == "example1-tree":
        if spec.n != 7:
            raise InvalidSystemError(
                f"example1-tree is a fixed 7-node shape, got n={spec.n}")
        edges = np.array(SEVEN_NODE_TREE_EDGES, dtype=np.int64)
    elif spec.kind == "random-tree":
        edges = _pruefer_tree(spec.n, rng)
    elif spec.kind == "loopy-small":
        edges = _loopy_small_edges(spec.n, rng)
    elif spec.kind == "random-sparse":
        edges = _random_sparse_edges(spec.n, rng, spec.density)
    else:  # path or star: node i + 1 joins node i or node 0
        tips = np.arange(1, spec.n, dtype=np.int64)
        edges = np.column_stack(
            (tips - 1 if spec.kind == "path" else np.zeros_like(tips), tips))
    return system_from_edges(spec.n, edges, spec.seed,
                             coeff_range=spec.coeff_range,
                             diag_rule=spec.diag_rule,
                             diag_value=spec.diag_value)
