"""Seeded self-verification ensembles.

Each check builds reproducible random instances, runs an implementation
route and an independent oracle route, and reports a CheckResult.  The
message-oracle check reads the messages that bp's rounds in run_rounds
are built on, so it checks what a solve computes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .analysis import ResidualMatrix, residual_matrix
from .core import (
    GeneratorSpec,
    SparseSystem,
    diameter,
    generate_instance,
    system_from_edges,
)
from .engine import NodeFault, check_max_rounds
from .errors import SolverError, TooLargeError
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


def _tree_system(n: int, seed: int) -> SparseSystem:
    return generate_instance(GeneratorSpec(kind="random-tree", n=n, seed=seed))


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
    per_round = []
    try:
        for _, a_msg, b_msg in islice(BPProgram(sys).messages(), rounds + 1):
            per_round.append(dict(zip(edges, zip(a_msg.tolist(),
                                                  b_msg.tolist()))))
    except NodeFault as fault:
        raise fault.error from None
    return per_round


def check_message_oracle(seed: int = 0, trees: int = 25,
                         max_n: int = 12) -> CheckResult:
    """Every directed-edge message at every round equals its Schur value."""
    name = "message-oracle-trees"
    cases = 0
    for idx in range(trees):
        n = 2 + (idx % (max_n - 1))
        sys = _tree_system(n, seed * 1000 + idx)
        d = diameter(sys.graph)
        per_round = run_message_rounds(sys, d)
        for k, msgs in enumerate(per_round):
            for (i, j), (a_bp, b_bp) in sorted(msgs.items()):
                a_ref, b_ref = message_oracle(sys, i, j, k)
                cases += 1
                bad_a = abs(a_bp - a_ref) > MESSAGE_ORACLE_REL_TOL * max(
                    1.0, abs(a_ref))
                bad_b = abs(b_bp - b_ref) > MESSAGE_ORACLE_REL_TOL * max(
                    1.0, abs(b_ref))
                if bad_a or bad_b:
                    return CheckResult(
                        name, False, cases,
                        detail=(f"seed={seed * 1000 + idx} n={n} "
                                f"edge=({i}->{j}) k={k} "
                                f"got=({a_bp!r}, {b_bp!r}) "
                                f"want=({a_ref!r}, {b_ref!r})"))
    return CheckResult(name, True, cases)


def _small_residual(seed: int, n: int) -> ResidualMatrix:
    sys = generate_instance(GeneratorSpec(
        kind="random-sparse", n=n, seed=seed, coeff_range=(-0.45, 0.45),
        diag_rule="unit", density=0.6))
    return residual_matrix(sys)


def check_walk_sums(seed: int = 0, instances: int = 20, max_n: int = 5,
                    max_length: int = 8) -> CheckResult:
    """Exhaustive enumeration agrees with matrix powers (self-checking op)."""
    name = "walk-sum-enumeration"
    if max_n > ENUM_MAX_NODES or max_length > ENUM_MAX_LENGTH:
        return CheckResult(
            name, True, 0, skipped=True,
            detail=(f"skipped: requested n={max_n}, length={max_length} "
                    f"exceed guards ({ENUM_MAX_NODES}, {ENUM_MAX_LENGTH})"))
    rng = np.random.default_rng(seed)
    cases = 0
    for idx in range(instances):
        n = int(rng.integers(2, max_n + 1))
        rm = _small_residual(seed * 1000 + idx, n)
        for _ in range(4):
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            length = int(rng.integers(0, max_length + 1))
            try:
                value = partial_walk_sum(rm, i, j, length)
            except TooLargeError:
                return CheckResult(name, True, cases, skipped=True,
                                   detail="skipped: guard")
            except Exception as exc:  # disagreement raises WalksolveError
                return CheckResult(
                    name, False, cases,
                    detail=f"seed={seed * 1000 + idx} ({i},{j},L={length}): {exc}")
            cases += 1
            if not np.isfinite(value):
                return CheckResult(
                    name, False, cases,
                    detail=f"non-finite walk sum at seed={seed * 1000 + idx}")
    return CheckResult(name, True, cases)


def _symmetric_magnitude_residual(seed: int, n: int) -> ResidualMatrix:
    """Residual with |r_ij| = |r_ji| and row sums < 1, free signs."""
    rng = np.random.default_rng(seed)
    cap = 0.9 / max(1, n - 1)
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                mag = float(rng.uniform(0.2 * cap, cap))
                s1 = 1.0 if rng.random() < 0.5 else -1.0
                s2 = 1.0 if rng.random() < 0.5 else -1.0
                entries.append((i, j, s1 * mag))
                entries.append((j, i, s2 * mag))
    return ResidualMatrix(n, tuple(entries))


def check_tail_bound(seed: int = 0, instances: int = 20,
                     max_n: int = 5, max_length: int = 8) -> CheckResult:
    """Partial sums reach the dense inverse within the geometric tail.

    Uses magnitude-symmetric residuals, where |sum_{l>L} (R^l)_ij| <=
    rho^(L+1) / (1 - rho) with rho the spectral radius of |R| holds with
    constant one.
    """
    name = "walk-sum-tail-bound"
    if max_n > 64 or max_length > 12:
        return CheckResult(name, True, 0, skipped=True,
                           detail="skipped: dense-eigenvalue check capped "
                                  "at n=64, L=12")
    rng = np.random.default_rng(seed + 7)
    cases = 0
    for idx in range(instances):
        n = int(rng.integers(2, max_n + 1))
        rm = _symmetric_magnitude_residual(seed * 1000 + idx, n)
        r = rm.as_dense()
        rho_bar = float(np.max(np.abs(np.linalg.eigvals(np.abs(r)))))
        if rho_bar >= 1.0:
            return CheckResult(name, False, cases,
                               detail=f"ensemble bug: rho={rho_bar}")
        inv = np.linalg.inv(np.eye(n) - r)
        for length in range(0, max_length + 1):
            partial = np.zeros((n, n))
            power = np.eye(n)
            for _ in range(length + 1):
                partial += power
                power = power @ r
            bound = rho_bar ** (length + 1) / (1.0 - rho_bar) + 1e-12
            gap = float(np.max(np.abs(inv - partial)))
            cases += 1
            if gap > bound:
                return CheckResult(
                    name, False, cases,
                    detail=(f"seed={seed * 1000 + idx} n={n} L={length} "
                            f"tail={gap!r} bound={bound!r}"))
    return CheckResult(name, True, cases)


def check_unwrapped(seed: int = 0, instances: int = 6,
                    t_max: int = 5) -> CheckResult:
    """Solver estimate at a node equals the unwrapped-tree exact root."""
    name = "unwrapped-equivalence"
    cases = 0
    systems = [system_from_edges(5, LOOPY_FIVE_EDGES, seed)]
    for idx in range(instances):
        n = 6 + (idx % 5)
        systems.append(generate_instance(GeneratorSpec(
            kind="loopy-small", n=n, seed=seed * 500 + idx)))
    for sidx, sys in enumerate(systems):
        root = sidx % sys.n
        for t in range(t_max + 1):
            try:
                res = unwrapped_equivalence_check(sys, root, t)
            except TooLargeError:
                return CheckResult(name, True, cases, skipped=True,
                                   detail=f"skipped: tree guard at t={t}")
            except SolverError as exc:
                return CheckResult(
                    name, False, cases + 1,
                    detail=(f"system#{sidx} root={root} t={t} "
                            f"{type(exc).__name__}: {exc}"))
            cases += 1
            if not res.ok:
                return CheckResult(
                    name, False, cases,
                    detail=(f"system#{sidx} root={root} t={t} "
                            f"estimate={res.estimate!r} "
                            f"tree={res.tree_value!r}"))
    return CheckResult(name, True, cases)


def check_tree_exactness(seed: int = 0, trees: int = 25,
                         max_n: int = 32) -> CheckResult:
    """Diameter-many rounds solve trees to direct-solver accuracy."""
    name = "tree-exactness"
    cases = 0
    for idx in range(trees):
        n = 2 + (idx * 3) % (max_n - 1)
        sys = _tree_system(n, seed * 2000 + idx)
        x_ref = dense_solve(sys)
        x_hat, _ = bp_solve(sys)
        cases += 1
        err = float(np.max(np.abs(x_hat - x_ref)))
        if err > TREE_EXACT_REL_TOL * max(1.0, float(np.max(np.abs(x_ref)))):
            return CheckResult(
                name, False, cases,
                detail=f"seed={seed * 2000 + idx} n={n} err={err!r}")
    return CheckResult(name, True, cases)


def run_all_checks(seed: int = 0, max_n: Optional[int] = None
                   ) -> list[CheckResult]:
    """Run the whole battery at the requested maximum instance size.

    Checks backed by exhaustive enumeration refuse sizes beyond their
    guards by reporting a skip; the remaining ensembles are clamped to 64
    nodes to keep a verify run interactive.
    """
    walk_n = max_n if max_n is not None else 5
    tail_n = min(max_n, 16) if max_n is not None else 5
    tree_n = min(max_n, 64) if max_n is not None else 12
    exact_n = min(max_n, 64) if max_n is not None else 32
    return [
        check_message_oracle(seed, max_n=max(2, tree_n)),
        check_walk_sums(seed, max_n=max(2, walk_n)),
        check_tail_bound(seed, max_n=max(2, tail_n)),
        check_unwrapped(seed),
        check_tree_exactness(seed, max_n=max(2, exact_n)),
    ]
