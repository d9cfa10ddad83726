"""Command line front end.

Commands: generate, analyze, solve, compare, verify.  Exit codes:
0 converged / all checks pass, 1 verification or input failure,
2 iteration limit reached, 3 solver fault.
"""
from __future__ import annotations

import argparse
import sys as _sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import mmio
from .analysis import RHO_TOL_DEFAULT, analyze
from .core import (DIAG_RULES, GENERATOR_KINDS, DEFAULT_COEFF_RANGE,
                   GeneratorSpec, SparseSystem, diameter, generate_instance,
                   is_acyclic)
from .engine import ConvergenceTrace, DeltaBelow, delta_stop, run_rounds
from .errors import (NotWalkSummableError, SingularMatrixError,
                     WalksolveError)
from .solvers import (ESTIMATE_LIMIT, BPProgram, ConsensusProgram,
                      JacobiProgram, bp_solve, dense_solve,
                      gauss_seidel_sweep)
from .verify import run_all_checks

DENSE_REFERENCE_LIMIT = 5000
METHODS = ("bp", "jacobi", "consensus", "gauss-seidel")


@dataclass(frozen=True)
class RunConfig:
    command: str
    matrix: Optional[str] = None
    rhs: Optional[str] = None
    method: str = "bp"
    max_iters: Optional[int] = None
    tol: float = 1e-10
    seed: int = 0
    out: Optional[str] = None
    kind: str = "random-tree"
    n: Optional[int] = None
    force: bool = False
    coeff_lo: float = DEFAULT_COEFF_RANGE[0]
    coeff_hi: float = DEFAULT_COEFF_RANGE[1]
    diag_rule: str = "neighbor-count"
    diag_value: float = 1.0
    density: float = 0.3
    reference: str = "auto"
    rho_tol: float = RHO_TOL_DEFAULT


def default_max_iter(n: int) -> int:
    """Round cap when --max-iters is not given."""
    return 10 * n + 1000


def _round_cap(cfg: RunConfig, default: int) -> int:
    """--max-iters, or default when it is not given; 0 runs round 0 only."""
    if cfg.max_iters is not None and cfg.max_iters < 0:
        raise WalksolveError(f"--max-iters must be >= 0, got {cfg.max_iters}")
    return default if cfg.max_iters is None else cfg.max_iters


def _fmt(v: float) -> str:
    return "%.17g" % v


def _cell(v: Optional[float]) -> str:
    return "" if v is None else _fmt(v)


def _load(cfg: RunConfig) -> SparseSystem:
    if not cfg.matrix or not cfg.rhs:
        raise WalksolveError("--matrix and --rhs are both required here")
    return mmio.load_system(cfg.matrix, cfg.rhs)


def _reference_solution(sys_: SparseSystem, cfg: RunConfig):
    if cfg.reference == "none":
        return None
    if sys_.n > DENSE_REFERENCE_LIMIT:
        print(f"# reference: skipped, n={sys_.n} exceeds "
              f"{DENSE_REFERENCE_LIMIT}", file=_sys.stderr)
        return None
    try:
        return dense_solve(sys_)
    except SingularMatrixError as exc:
        print(f"# reference: unavailable ({exc})", file=_sys.stderr)
        return None


def _write_lines(lines: list[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _trace_csv(trace: ConvergenceTrace, comments: list[str]) -> list[str]:
    lines = [f"# {c}" for c in comments]
    lines.append("iter,log10_mse,max_delta,messages")
    for row in trace.rounds:
        lines.append(f"{row.k},{_cell(row.log10_mse)},"
                     f"{_cell(row.max_delta)},{row.accounting.messages_sent}")
    if trace.fault is not None:
        f = trace.fault
        lines.append(f"# fault: node {f.node} round {f.round}: {f.error}")
    return lines


def cmd_generate(cfg: RunConfig) -> int:
    if cfg.n is None:
        raise WalksolveError("generate requires --n")
    spec = GeneratorSpec(kind=cfg.kind, n=cfg.n, seed=cfg.seed,
                         coeff_range=(cfg.coeff_lo, cfg.coeff_hi),
                         diag_rule=cfg.diag_rule, diag_value=cfg.diag_value,
                         density=cfg.density)
    sys_ = generate_instance(spec)
    out = cfg.out or "system.mtx"
    rhs = cfg.rhs or mmio.default_rhs_path(out)
    mmio.write_matrix_market(sys_, out)
    mmio.write_rhs(sys_.b, rhs)
    print(f"wrote {sys_.n}-node {cfg.kind} system "
          f"({sys_.graph.edge_count()} undirected edges) to {out} and {rhs}")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    sys_ = _load(cfg)
    g = sys_.graph
    report = analyze(sys_, rho_tol=cfg.rho_tol, want_scaling=True)
    print(f"nodes: {sys_.n}")
    print(f"undirected edges: {g.edge_count()}")
    print(f"acyclic: {'yes' if is_acyclic(g) else 'no'}")
    print(f"diameter: {diameter(g)}")
    print(f"diagonally dominant: {'yes' if report.diag_dominant else 'no'}")
    rel = "certified" if report.rho_reliable else "estimate only"
    print(f"rho(|R|): {_fmt(report.rho_abs)} ({rel}, tol {report.rho_tol:g})")
    print(f"rho interval: [{_fmt(report.rho_lo)}, {_fmt(report.rho_hi)}]")
    print(f"rho route: {report.route}")
    if report.walk_summable is None:
        why = ("margin within tolerance" if report.rho_reliable
               else "interval not closed")
        print(f"walk-summable: indeterminate ({why})")
    else:
        print(f"walk-summable: {'yes' if report.walk_summable else 'no'}")
        if report.rho_reliable:
            print(f"margin to 1: {_fmt(1.0 - report.rho_abs)}")
        else:
            # the verdict holds, but rho is not pinned to within tol
            print("margin to 1: not certified (rho is an estimate)")
    if report.scaling is not None:
        print("scaling certificate: present (validated)")
    return 0


def _gauss_seidel_trace(sys_, max_rounds: int, tol: float, reference):
    """Sequential sweeps; returns (rows, stop_reason, fault) shaped like a
    trace.  A sweep with an estimate beyond ESTIMATE_LIMIT is not a row:
    it stops the run with a fault naming the smallest such node."""
    with np.errstate(all="ignore"):
        x = sys_.b / sys_.diag
    rows = []
    for k in range(max_rounds + 1):
        nxt = gauss_seidel_sweep(sys_, x) if k else x
        over = ~(np.abs(nxt) <= ESTIMATE_LIMIT)
        if over.any():
            return rows, "fault", (f"node {int(np.argmax(over))} round {k}: "
                                   "DivergedEstimateError")
        delta = float(np.max(np.abs(nxt - x))) if k else None
        rows.append((k, _ref_err(nxt, reference), delta))
        if k and delta_stop(x, nxt, tol):
            return rows, "delta", None
        x = nxt
    return rows, "max-rounds", None


def _ref_err(x, reference):
    if reference is None:
        return None
    err = float(np.mean((np.asarray(x) - reference) ** 2))
    return float(np.log10(err)) if err > 0.0 else float("-inf")


_EXIT_BY_REASON = {"fixed-rounds": 0, "delta": 0, "error": 0,
                   "max-rounds": 2, "fault": 3}


def cmd_solve(cfg: RunConfig) -> int:
    sys_ = _load(cfg)
    if cfg.method not in METHODS:
        raise WalksolveError(f"unknown method {cfg.method!r}")
    max_rounds = _round_cap(cfg, 500 if cfg.method == "bp"
                            else default_max_iter(sys_.n))
    reference = _reference_solution(sys_, cfg)

    if cfg.method == "gauss-seidel":
        rows, reason, fault = _gauss_seidel_trace(sys_, max_rounds, cfg.tol,
                                                  reference)
        lines = ["# method: gauss-seidel (sequential-reference, "
                 "not message passing)",
                 "iter,log10_mse,max_delta,messages"]
        for k, lmse, delta in rows:
            lines.append(f"{k},{_cell(lmse)},{_cell(delta)},0")
        if fault is not None:
            lines.append(f"# fault: {fault}")
        _write_lines(lines, cfg.out)
        print(f"method=gauss-seidel rounds={rows[-1][0] if rows else 0} "
              f"stop={reason}", file=_sys.stderr)
        if fault is not None:
            print(f"fault: {fault}", file=_sys.stderr)
        return _EXIT_BY_REASON[reason]

    if cfg.method == "bp":
        try:
            _, trace = bp_solve(sys_, max_rounds=max_rounds,
                                tol=cfg.tol, force=cfg.force,
                                reference=reference, rho_tol=cfg.rho_tol)
        except NotWalkSummableError as exc:
            print(f"error: {exc} (rerun with --force to try anyway)",
                  file=_sys.stderr)
            return 1
    else:
        program = (JacobiProgram(sys_) if cfg.method == "jacobi"
                   else ConsensusProgram(sys_))
        trace = run_rounds(sys_, program, max_rounds=max_rounds,
                           stop=DeltaBelow(cfg.tol), reference=reference)

    comments = [f"method: {cfg.method}", f"stop: {trace.stop_reason}"]
    _write_lines(_trace_csv(trace, comments), cfg.out)
    last = trace.rounds[-1] if trace.rounds else None
    summary = f"method={cfg.method} rounds={last.k if last else 0} " \
              f"stop={trace.stop_reason}"
    if last is not None and last.log10_mse is not None:
        summary += f" log10_mse={_fmt(last.log10_mse)}"
    print(summary, file=_sys.stderr)
    if trace.fault is not None:
        f = trace.fault
        print(f"fault: node {f.node} round {f.round}: {f.error}",
              file=_sys.stderr)
    return _EXIT_BY_REASON[trace.stop_reason]


def cmd_compare(cfg: RunConfig) -> int:
    sys_ = _load(cfg)
    max_rounds = _round_cap(cfg, default_max_iter(sys_.n))
    reference = _reference_solution(sys_, cfg)
    if reference is None:
        print("error: compare needs a dense reference solution",
              file=_sys.stderr)
        return 1
    columns = {}
    comments = []
    for name, program in (("bp", BPProgram(sys_)),
                          ("jacobi", JacobiProgram(sys_)),
                          ("consensus", ConsensusProgram(sys_))):
        trace = run_rounds(sys_, program, max_rounds=max_rounds,
                           stop=DeltaBelow(cfg.tol), reference=reference)
        columns[name] = {row.k: row.log10_mse for row in trace.rounds}
        note = f"method {name}: stop={trace.stop_reason} " \
               f"rounds={trace.rounds[-1].k if trace.rounds else 0}"
        if trace.fault is not None:
            f = trace.fault
            note += f" fault='node {f.node} round {f.round}: {f.error}'"
            print(f"# {note}", file=_sys.stderr)
        comments.append(note)
    last_round = max((max(c) for c in columns.values() if c), default=0)
    lines = [f"# {c}" for c in comments]
    lines.append("iter," + ",".join(columns))
    for k in range(last_round + 1):
        cells = [_cell(columns[m].get(k)) for m in columns]
        lines.append(f"{k}," + ",".join(cells))
    _write_lines(lines, cfg.out)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = run_all_checks(seed=cfg.seed, max_n=cfg.n)
    failed = []
    for res in results:
        if res.skipped:
            print(f"SKIP {res.name}: {res.detail}")
        elif res.ok:
            print(f"PASS {res.name} ({res.cases} cases)")
        else:
            print(f"FAIL {res.name}: {res.detail}")
            failed.append(res)
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed "
              f"(seed {cfg.seed}, first: {failed[0].name})")
        return 1
    print(f"all {len(results)} checks passed (seed {cfg.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="walksolve",
        description="Distributed message-passing solvers for sparse "
                    "linear systems, with walk-sum analysis tools.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("--matrix", help="Matrix Market coordinate file")
        sp.add_argument("--rhs", help="right-hand side, one real per line")

    def add_run(sp):
        sp.add_argument("--max-iters", type=int, dest="max_iters")
        sp.add_argument("--tol", type=float, default=1e-10)
        sp.add_argument("--out", help="write CSV here instead of stdout")
        sp.add_argument("--reference", choices=("auto", "none"),
                        default="auto")

    g = sub.add_parser("generate", help="write a seeded test system")
    g.add_argument("--kind", choices=GENERATOR_KINDS, default="random-tree")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="matrix path (default system.mtx)")
    g.add_argument("--rhs", help="rhs path (default: matrix path with .rhs)")
    g.add_argument("--coeff-lo", type=float, dest="coeff_lo",
                   default=DEFAULT_COEFF_RANGE[0])
    g.add_argument("--coeff-hi", type=float, dest="coeff_hi",
                   default=DEFAULT_COEFF_RANGE[1])
    g.add_argument("--diag-rule", choices=DIAG_RULES, dest="diag_rule",
                   default="neighbor-count")
    g.add_argument("--diag-value", type=float, dest="diag_value", default=1.0)
    g.add_argument("--density", type=float, default=0.3)

    a = sub.add_parser("analyze", help="walk-summability report")
    add_io(a)
    a.add_argument("--tol", type=float, dest="rho_tol",
                   default=RHO_TOL_DEFAULT)

    s = sub.add_parser("solve", help="run one solver, emit a trace CSV")
    add_io(s)
    s.add_argument("--method", choices=METHODS, default="bp")
    s.add_argument("--force", action="store_true",
                   help="run bp even when not certified walk-summable")
    add_run(s)

    c = sub.add_parser("compare", help="bp vs jacobi vs consensus CSV")
    add_io(c)
    add_run(c)

    v = sub.add_parser("verify", help="run the independent check suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--n", type=int, help="cap ensemble sizes")

    return p


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(ns).items() if k in fields and v is not None}
    return RunConfig(**kwargs)


_DISPATCH = {"generate": cmd_generate, "analyze": cmd_analyze,
             "solve": cmd_solve, "compare": cmd_compare,
             "verify": cmd_verify}


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = build_parser().parse_args(argv)
    cfg = config_from_args(ns)
    try:
        return _DISPATCH[cfg.command](cfg)
    except WalksolveError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
