"""Seeded self-verification ensembles.

Each check draws cases from reproducible random instances, each an
implementation route against an independent oracle route, and _run makes
them one CheckResult.  The message-oracle check reads the messages that
bp's rounds in run_rounds are built on, so it checks what a solve
computes.  The walk-sum checks draw systems and read their residual
matrices R = I - D^-1 A from residual_matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

import numpy as np

from .analysis import residual_matrix
from .core import (
    GeneratorSpec,
    SparseSystem,
    diameter,
    generate_instance,
    system_from_edges,
)
from .engine import check_max_rounds
from .errors import SolverError, TooLargeError, WalksolveError
from .oracle import (
    ENUM_MAX_LENGTH,
    ENUM_MAX_NODES,
    message_oracle,
    partial_walk_sum,
    unwrapped_equivalence_check,
)
from .solvers import BPProgram, bp_solve, dense_solve

#: five nodes, two hubs joined through three two-hop paths; smallest
#: multi-cycle shape used across the unwrapped-tree checks
LOOPY_FIVE_EDGES = ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))

MESSAGE_ORACLE_REL_TOL = 1e-12
TREE_EXACT_REL_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    cases: int
    detail: str = ""
    skipped: bool = False


def run_message_rounds(sys: SparseSystem, rounds: int):
    """bp's directed-edge messages, round by round.

    Reads BPProgram.messages, the generator that bp's rounds in
    run_rounds are built on, and returns a list indexed by round k of
    {(i, j): (a, b)} directed-edge message maps, k = 0 .. rounds.  A
    negative round count raises ValueError; a node fault raises that
    node's SolverError.
    """
    check_max_rounds(rounds)
    g = sys.graph
    edges = list(zip(g.owner.tolist(), g.nbr.tolist()))
    return [dict(zip(edges, zip(a_msg.tolist(), b_msg.tolist())))
            for _, a_msg, b_msg in islice(BPProgram(sys).messages(),
                                          rounds + 1)]


def _run(name: str, cases: Iterator[Optional[str]]) -> CheckResult:
    """Count the cases drawn, each None for a pass or its failure's
    detail, up to and including the first failure, which is the result;
    a TooLargeError raised while drawing them (a guard) is a skip."""
    count = 0
    try:
        for count, detail in enumerate(cases, 1):
            if detail is not None:
                return CheckResult(name, False, count, detail)
    except TooLargeError as exc:
        return CheckResult(name, True, count, f"skipped: {exc}", skipped=True)
    return CheckResult(name, True, count)


def check_message_oracle(seed: int = 0, trees: int = 25,
                         max_n: int = 12) -> CheckResult:
    """Every directed-edge message at every round equals its Schur value."""
    def cases():
        for idx in range(trees):
            n = 2 + (idx % (max_n - 1))
            sys = generate_instance(GeneratorSpec(
                kind="random-tree", n=n, seed=seed * 1000 + idx))
            d = diameter(sys.graph)
            per_round = run_message_rounds(sys, d)
            for k, msgs in enumerate(per_round):
                for (i, j), (a_bp, b_bp) in sorted(msgs.items()):
                    a_ref, b_ref = message_oracle(sys, i, j, k)
                    bad = any(abs(got - want) > MESSAGE_ORACLE_REL_TOL * max(
                        1.0, abs(want))
                        for got, want in ((a_bp, a_ref), (b_bp, b_ref)))
                    yield ((f"seed={seed * 1000 + idx} n={n} "
                            f"edge=({i}->{j}) k={k} "
                            f"got=({a_bp!r}, {b_bp!r}) "
                            f"want=({a_ref!r}, {b_ref!r})")
                           if bad else None)
    return _run("message-oracle-trees", cases())


def check_walk_sums(seed: int = 0, instances: int = 20, max_n: int = 5,
                    max_length: int = 8) -> CheckResult:
    """Exhaustive enumeration agrees with matrix powers (self-checking op)."""
    def cases():
        if max_n > ENUM_MAX_NODES or max_length > ENUM_MAX_LENGTH:
            raise TooLargeError(
                f"requested n={max_n}, length={max_length} "
                f"exceed guards ({ENUM_MAX_NODES}, {ENUM_MAX_LENGTH})")
        rng = np.random.default_rng(seed)
        for idx in range(instances):
            n = int(rng.integers(2, max_n + 1))
            sys = generate_instance(GeneratorSpec(
                kind="random-sparse", n=n, seed=seed * 1000 + idx,
                coeff_range=(-0.45, 0.45), diag_rule="unit", density=0.6))
            for _ in range(4):
                i = int(rng.integers(0, n))
                j = int(rng.integers(0, n))
                length = int(rng.integers(0, max_length + 1))
                try:
                    value = partial_walk_sum(sys, i, j, length)
                except WalksolveError as exc:  # a disagreement among them
                    yield (f"seed={seed * 1000 + idx} "
                           f"({i},{j},L={length}): {exc}")
                    return
                yield (None if np.isfinite(value) else
                       f"non-finite walk sum at seed={seed * 1000 + idx}")
    return _run("walk-sum-enumeration", cases())


def _symmetric_magnitude_system(seed: int, n: int) -> SparseSystem:
    """The system A = I - R for a residual R with |r_ij| = |r_ji| and row
    sums < 1, free signs; residual_matrix(A) gives R back exactly."""
    rng = np.random.default_rng(seed)
    cap = 0.9 / max(1, n - 1)
    entries = [(i, i, 1.0) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                mag = float(rng.uniform(0.2 * cap, cap))
                s1 = 1.0 if rng.random() < 0.5 else -1.0
                s2 = 1.0 if rng.random() < 0.5 else -1.0
                entries.append((i, j, -s1 * mag))
                entries.append((j, i, -s2 * mag))
    return SparseSystem(n, entries, np.ones(n))


def check_tail_bound(seed: int = 0, instances: int = 20,
                     max_n: int = 5, max_length: int = 8) -> CheckResult:
    """Partial sums reach the dense inverse within the geometric tail.

    Uses magnitude-symmetric residuals, where |sum_{l>L} (R^l)_ij| <=
    rho^(L+1) / (1 - rho) with rho the spectral radius of |R| holds with
    constant one.
    """
    def cases():
        if max_n > 64 or max_length > 12:
            raise TooLargeError("dense-eigenvalue check capped at n=64, L=12")
        rng = np.random.default_rng(seed + 7)
        for idx in range(instances):
            n = int(rng.integers(2, max_n + 1))
            sys = _symmetric_magnitude_system(seed * 1000 + idx, n)
            r = residual_matrix(sys).toarray()
            rho_bar = float(np.max(np.abs(np.linalg.eigvals(np.abs(r)))))
            if rho_bar >= 1.0:
                yield f"ensemble bug: rho={rho_bar}"
                return
            inv = np.linalg.inv(np.eye(n) - r)
            partial = np.zeros((n, n))
            power = np.eye(n)
            for length in range(0, max_length + 1):
                partial += power  # sum of R^0 .. R^length
                power = power @ r
                bound = rho_bar ** (length + 1) / (1.0 - rho_bar) + 1e-12
                gap = float(np.max(np.abs(inv - partial)))
                yield ((f"seed={seed * 1000 + idx} n={n} L={length} "
                        f"tail={gap!r} bound={bound!r}")
                       if gap > bound else None)
    return _run("walk-sum-tail-bound", cases())


def check_unwrapped(seed: int = 0, instances: int = 6,
                    t_max: int = 5) -> CheckResult:
    """Solver estimate at a node equals the unwrapped-tree exact root."""
    def cases():
        systems = [system_from_edges(5, LOOPY_FIVE_EDGES, seed)] + [
            generate_instance(GeneratorSpec(
                kind="loopy-small", n=6 + (idx % 5), seed=seed * 500 + idx))
            for idx in range(instances)]
        for sidx, sys in enumerate(systems):
            root = sidx % sys.n
            for t in range(t_max + 1):
                try:
                    res = unwrapped_equivalence_check(sys, root, t)
                except SolverError as exc:
                    yield (f"system#{sidx} root={root} t={t} "
                           f"{type(exc).__name__}: {exc}")
                    return
                yield (None if res.ok else
                       f"system#{sidx} root={root} t={t} "
                       f"estimate={res.estimate!r} tree={res.tree_value!r}")
    return _run("unwrapped-equivalence", cases())


def check_tree_exactness(seed: int = 0, trees: int = 25,
                         max_n: int = 32) -> CheckResult:
    """Diameter-many rounds solve trees to direct-solver accuracy."""
    def cases():
        for idx in range(trees):
            n = 2 + (idx * 3) % (max_n - 1)
            sys = generate_instance(GeneratorSpec(
                kind="random-tree", n=n, seed=seed * 2000 + idx))
            x_ref = dense_solve(sys)
            x_hat, _ = bp_solve(sys)
            err = float(np.max(np.abs(x_hat - x_ref)))
            scale = max(1.0, float(np.max(np.abs(x_ref))))
            yield (f"seed={seed * 2000 + idx} n={n} err={err!r}"
                   if err > TREE_EXACT_REL_TOL * scale else None)
    return _run("tree-exactness", cases())


def run_all_checks(seed: int = 0, max_n: Optional[int] = None
                   ) -> list[CheckResult]:
    """Run the whole battery at the requested maximum instance size.

    Checks backed by exhaustive enumeration refuse sizes beyond their
    guards by reporting a skip; the remaining ensembles are clamped to 64
    nodes to keep a verify run interactive.
    """
    def size(default: int, clamp: Optional[int]) -> int:
        return default if max_n is None else max(2, min(max_n, clamp))
    return [
        check_message_oracle(seed, max_n=size(12, 64)),
        check_walk_sums(seed, max_n=size(5, max_n)),
        check_tail_bound(seed, max_n=size(5, 16)),
        check_unwrapped(seed),
        check_tree_exactness(seed, max_n=size(32, 64)),
    ]
