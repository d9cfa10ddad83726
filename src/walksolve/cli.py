"""Command line front end.

Commands: generate, analyze, solve, compare, verify.  Exit codes:
0 converged / all checks pass, 1 verification or input failure (a file
that cannot be read, decoded or written among them, a system too large
for int64 keys, and a consensus run whose arrays are too large, refused
before round 0), 2 iteration limit reached or stalled (the steps met
--tol but the backward error did not), 3 solver fault.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import sys as _sys
from typing import Optional, Sequence

from . import mmio, solvers
from .analysis import RHO_TOL_DEFAULT, analyze
from .core import (DIAG_RULES, GENERATOR_KINDS, GeneratorSpec, SparseSystem,
                   check_tolerance, diameter, generate_instance, is_acyclic)
from .engine import SolverFault, check_max_rounds, run_rounds
from .errors import (NotWalkSummableError, SingularMatrixError,
                     WalksolveError)
from .solvers import (BPProgram, ConsensusProgram, GaussSeidelProgram,
                      JacobiProgram, bp_solve, dense_solve)
from .verify import run_all_checks

DENSE_REFERENCE_LIMIT = 5000
METHODS = ("bp", "jacobi", "consensus", "gauss-seidel")


def default_max_iter(n: int) -> int:
    """Round cap when --max-iters is not given."""
    return 10 * n + 1000


def _checked(check, value, option: str):
    """check(value, option), which refuses the option's value with a
    ValueError naming it; that error as a WalksolveError."""
    try:
        return check(value, option)
    except ValueError as exc:
        raise WalksolveError(str(exc)) from None


def _round_cap(args: argparse.Namespace, default: int) -> int:
    """--max-iters, or default when it is not given; 0 runs round 0 only."""
    return (default if args.max_iters is None
            else _checked(check_max_rounds, args.max_iters, "--max-iters"))


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


def _output(path: Optional[str]):
    """--out, created or truncated before any round runs, or stdout."""
    return open(path, "w") if path else contextlib.nullcontext(_sys.stdout)


def _fault_text(f: SolverFault) -> str:
    return f"node {f.node} round {f.round}: {f.error}"


def _trace_csv(comments: list[str], rows, fault) -> str:
    """Comments, header, (k, log10_mse, max_delta, messages) rows, fault."""
    lines = [f"# {c}" for c in comments]
    lines.append("iter,log10_mse,max_delta,messages")
    for k, mse, delta, sent in rows:
        lines.append(f"{k},{_cell(mse)},{_cell(delta)},{sent}")
    if fault is not None:
        lines.append(f"# fault: {_fault_text(fault)}")
    return "\n".join(lines) + "\n"


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
    rho_tol = _checked(check_tolerance, args.rho_tol, "--tol")
    report = analyze(sys_, rho_tol=rho_tol)
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


_PROGRAMS = {"jacobi": JacobiProgram, "consensus": ConsensusProgram,
             "gauss-seidel": GaussSeidelProgram}
_EXIT_BY_REASON = {"fixed-rounds": 0, "delta": 0, "max-rounds": 2,
                   "stalled": 2, "fault": 3}


def cmd_solve(args: argparse.Namespace) -> int:
    sys_ = _load(args)
    max_rounds = _round_cap(args, solvers.BP_MAX_ROUNDS
                            if args.method == "bp"
                            else default_max_iter(sys_.n))
    tol = _checked(check_tolerance, args.tol, "--tol")
    with _output(args.out) as out:
        reference = _reference_solution(sys_, args)
        if args.method == "bp":
            try:
                _, trace = bp_solve(sys_, max_rounds=max_rounds, tol=tol,
                                    force=args.force, reference=reference)
            except NotWalkSummableError as exc:
                raise WalksolveError(
                    f"{exc} (rerun with --force to try anyway)") from None
        else:
            trace = run_rounds(_PROGRAMS[args.method](sys_), max_rounds,
                               tol=tol, reference=reference)
        rows = [(r.k, r.log10_mse, r.max_delta, r.accounting.messages_sent)
                for r in trace.rounds]
        reason, fault = trace.stop_reason, trace.fault
        comments = ([f"method: {args.method}", f"stop: {reason}"]
                    if args.method != "gauss-seidel" else
                    ["method: gauss-seidel (sequential-reference, not "
                     "message passing)"])
        out.write(_trace_csv(comments, rows, fault))
    summary = (f"method={args.method} "
               f"rounds={rows[-1][0] if rows else 'none'} stop={reason}")
    # a Gauss-Seidel summary names no log10_mse
    if rows and rows[-1][1] is not None and args.method != "gauss-seidel":
        summary += f" log10_mse={_fmt(rows[-1][1])}"
    print(summary, file=_sys.stderr)
    if fault is not None:
        print(f"fault: {_fault_text(fault)}", file=_sys.stderr)
    return _EXIT_BY_REASON[reason]


def cmd_compare(args: argparse.Namespace) -> int:
    sys_ = _load(args)
    max_rounds = _round_cap(args, default_max_iter(sys_.n))
    tol = _checked(check_tolerance, args.tol, "--tol")
    with _output(args.out) as out:
        reference = _reference_solution(sys_, args)
        if reference is None:
            raise WalksolveError("compare needs a dense reference solution")
        columns = {}
        comments = []
        for name, program in (("bp", BPProgram(sys_)),
                              ("jacobi", JacobiProgram(sys_)),
                              ("consensus", ConsensusProgram(sys_))):
            trace = run_rounds(program, max_rounds, tol=tol,
                               reference=reference)
            columns[name] = {row.k: row.log10_mse for row in trace.rounds}
            note = f"method {name}: stop={trace.stop_reason} " \
                   f"rounds={trace.rounds[-1].k if trace.rounds else 'none'}"
            if trace.fault is not None:
                note += f" fault='{_fault_text(trace.fault)}'"
                print(f"# {note}", file=_sys.stderr)
            comments.append(note)
        # a column holds rounds 0, 1, ...: no row for a round none completed
        lines = [f"# {c}" for c in comments]
        lines.append("iter," + ",".join(columns))
        for k in range(max(map(len, columns.values()))):
            cells = [_cell(columns[m].get(k)) for m in columns]
            lines.append(f"{k}," + ",".join(cells))
        out.write("\n".join(lines) + "\n")
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


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: parse_args makes a new Namespace per call."""
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
        sp.add_argument("--tol", type=float, default=solvers.TOL_DEFAULT)
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
                   default=GeneratorSpec.coeff_range[0])
    g.add_argument("--coeff-hi", type=float, dest="coeff_hi",
                   default=GeneratorSpec.coeff_range[1])
    g.add_argument("--diag-rule", choices=DIAG_RULES, dest="diag_rule",
                   default=GeneratorSpec.diag_rule)
    g.add_argument("--diag-value", type=float, dest="diag_value",
                   default=GeneratorSpec.diag_value)
    g.add_argument("--density", type=float, default=GeneratorSpec.density)

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
    except (WalksolveError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
