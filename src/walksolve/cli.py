"""Command line front end.

Commands: generate, analyze, solve, compare, verify.  Exit codes:
0 converged / all checks pass, 1 verification or input failure,
2 iteration limit reached, 3 solver fault.
"""
from __future__ import annotations

import argparse
import sys as _sys
from typing import Optional, Sequence

import numpy as np

from . import mmio
from .analysis import RHO_TOL_DEFAULT, analyze
from .core import (DIAG_RULES, GENERATOR_KINDS, DEFAULT_COEFF_RANGE,
                   GeneratorSpec, SparseSystem, check_tolerance, diameter,
                   generate_instance, is_acyclic)
from .engine import ConvergenceTrace, SolverFault, delta_stop, run_rounds
from .errors import (NotWalkSummableError, SingularMatrixError,
                     WalksolveError)
from .solvers import (ESTIMATE_LIMIT, BPProgram, ConsensusProgram,
                      JacobiProgram, bp_solve, dense_solve,
                      gauss_seidel_sweep)
from .verify import run_all_checks

DENSE_REFERENCE_LIMIT = 5000
METHODS = ("bp", "jacobi", "consensus", "gauss-seidel")


def default_max_iter(n: int) -> int:
    """Round cap when --max-iters is not given."""
    return 10 * n + 1000


def _round_cap(args: argparse.Namespace, default: int) -> int:
    """--max-iters, or default when it is not given; 0 runs round 0 only."""
    if args.max_iters is not None and args.max_iters < 0:
        raise WalksolveError(f"--max-iters must be >= 0, got {args.max_iters}")
    return default if args.max_iters is None else args.max_iters


def _tol(tol: float) -> float:
    """--tol, refused unless finite and >= 0."""
    try:
        return check_tolerance(tol, "--tol")
    except ValueError as exc:
        raise WalksolveError(str(exc)) from None


def _fmt(v: float) -> str:
    return "%.17g" % v


def _cell(v: Optional[float]) -> str:
    return "" if v is None else _fmt(v)


def _load(args: argparse.Namespace) -> SparseSystem:
    if not args.matrix or not args.rhs:
        raise WalksolveError("--matrix and --rhs are both required here")
    return mmio.load_system(args.matrix, args.rhs)


def _reference_solution(sys_: SparseSystem, args: argparse.Namespace):
    if args.reference == "none":
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


def _fault_text(f: SolverFault) -> str:
    return f"node {f.node} round {f.round}: {f.error}"


def _trace_csv(trace: ConvergenceTrace, comments: list[str]) -> list[str]:
    lines = [f"# {c}" for c in comments]
    lines.append("iter,log10_mse,max_delta,messages")
    for row in trace.rounds:
        lines.append(f"{row.k},{_cell(row.log10_mse)},"
                     f"{_cell(row.max_delta)},{row.accounting.messages_sent}")
    if trace.fault is not None:
        lines.append(f"# fault: {_fault_text(trace.fault)}")
    return lines


def cmd_generate(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(kind=args.kind, n=args.n, seed=args.seed,
                         coeff_range=(args.coeff_lo, args.coeff_hi),
                         diag_rule=args.diag_rule, diag_value=args.diag_value,
                         density=args.density)
    sys_ = generate_instance(spec)
    out = args.out or "system.mtx"
    rhs = args.rhs or mmio.default_rhs_path(out)
    mmio.write_matrix_market(sys_, out)
    mmio.write_rhs(sys_.b, rhs)
    print(f"wrote {sys_.n}-node {args.kind} system "
          f"({sys_.graph.edge_count()} undirected edges) to {out} and {rhs}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    sys_ = _load(args)
    g = sys_.graph
    report = analyze(sys_, rho_tol=_tol(args.rho_tol))
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
    it stops the run with the fault of the smallest such node."""
    with np.errstate(all="ignore"):
        x = sys_.b / sys_.diag
    rows = []
    for k in range(max_rounds + 1):
        nxt = gauss_seidel_sweep(sys_, x) if k else x
        over = ~(np.abs(nxt) <= ESTIMATE_LIMIT)
        if over.any():
            node = int(np.argmax(over))
            return rows, "fault", SolverFault(
                node=node, round=k, error="DivergedEstimateError",
                cause=f"estimate {float(nxt[node])!r} out of range")
        delta = float(np.max(np.abs(nxt - x))) if k else None
        rows.append((k, _ref_err(nxt, reference), delta))
        if k and delta_stop(delta, nxt, tol):
            return rows, "delta", None
        x = nxt
    return rows, "max-rounds", None


def _ref_err(x, reference):
    if reference is None:
        return None
    err = float(np.mean((np.asarray(x) - reference) ** 2))
    return float(np.log10(err)) if err > 0.0 else float("-inf")


_EXIT_BY_REASON = {"fixed-rounds": 0, "delta": 0, "max-rounds": 2,
                   "fault": 3}


def cmd_solve(args: argparse.Namespace) -> int:
    sys_ = _load(args)
    max_rounds = _round_cap(args, 500 if args.method == "bp"
                            else default_max_iter(sys_.n))
    tol = _tol(args.tol)
    reference = _reference_solution(sys_, args)

    if args.method == "gauss-seidel":
        rows, reason, fault = _gauss_seidel_trace(sys_, max_rounds, tol,
                                                  reference)
        lines = ["# method: gauss-seidel (sequential-reference, "
                 "not message passing)",
                 "iter,log10_mse,max_delta,messages"]
        for k, lmse, delta in rows:
            lines.append(f"{k},{_cell(lmse)},{_cell(delta)},0")
        if fault is not None:
            lines.append(f"# fault: {_fault_text(fault)}")
        _write_lines(lines, args.out)
        print(f"method=gauss-seidel rounds={rows[-1][0] if rows else 0} "
              f"stop={reason}", file=_sys.stderr)
        if fault is not None:
            print(f"fault: {_fault_text(fault)}", file=_sys.stderr)
        return _EXIT_BY_REASON[reason]

    if args.method == "bp":
        try:
            _, trace = bp_solve(sys_, max_rounds=max_rounds, tol=tol,
                                force=args.force, reference=reference)
        except NotWalkSummableError as exc:
            print(f"error: {exc} (rerun with --force to try anyway)",
                  file=_sys.stderr)
            return 1
    else:
        program = (JacobiProgram(sys_) if args.method == "jacobi"
                   else ConsensusProgram(sys_))
        trace = run_rounds(program, max_rounds, tol=tol, reference=reference)

    comments = [f"method: {args.method}", f"stop: {trace.stop_reason}"]
    _write_lines(_trace_csv(trace, comments), args.out)
    last = trace.rounds[-1] if trace.rounds else None
    summary = f"method={args.method} rounds={last.k if last else 0} " \
              f"stop={trace.stop_reason}"
    if last is not None and last.log10_mse is not None:
        summary += f" log10_mse={_fmt(last.log10_mse)}"
    print(summary, file=_sys.stderr)
    if trace.fault is not None:
        print(f"fault: {_fault_text(trace.fault)}", file=_sys.stderr)
    return _EXIT_BY_REASON[trace.stop_reason]


def cmd_compare(args: argparse.Namespace) -> int:
    sys_ = _load(args)
    max_rounds = _round_cap(args, default_max_iter(sys_.n))
    tol = _tol(args.tol)
    reference = _reference_solution(sys_, args)
    if reference is None:
        print("error: compare needs a dense reference solution",
              file=_sys.stderr)
        return 1
    columns = {}
    comments = []
    for name, program in (("bp", BPProgram(sys_)),
                          ("jacobi", JacobiProgram(sys_)),
                          ("consensus", ConsensusProgram(sys_))):
        trace = run_rounds(program, max_rounds, tol=tol, reference=reference)
        columns[name] = {row.k: row.log10_mse for row in trace.rounds}
        note = f"method {name}: stop={trace.stop_reason} " \
               f"rounds={trace.rounds[-1].k if trace.rounds else 0}"
        if trace.fault is not None:
            note += f" fault='{_fault_text(trace.fault)}'"
            print(f"# {note}", file=_sys.stderr)
        comments.append(note)
    last_round = max((max(c) for c in columns.values() if c), default=0)
    lines = [f"# {c}" for c in comments]
    lines.append("iter," + ",".join(columns))
    for k in range(last_round + 1):
        cells = [_cell(columns[m].get(k)) for m in columns]
        lines.append(f"{k}," + ",".join(cells))
    _write_lines(lines, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all_checks(seed=args.seed, max_n=args.n)
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
              f"(seed {args.seed}, first: {failed[0].name})")
        return 1
    print(f"all {len(results)} checks passed (seed {args.seed})")
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


_DISPATCH = {"generate": cmd_generate, "analyze": cmd_analyze,
             "solve": cmd_solve, "compare": cmd_compare,
             "verify": cmd_verify}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except WalksolveError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
