#!/usr/bin/env python3
"""Self-test of the output checks: corrupted outputs must count as failed.

    python3 bench/selftest.py

Runs one small operation of each kind through walksolve, checks that the
real outputs pass, then feeds corrupted copies (a flipped verdict, an
off-by-one round, a wrong message count, ...) through the same counting
as the benchmark and requires every one of them to count as failed.
Exits 0 when all cases behave, 1 otherwise.
"""
import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

import run

CORRUPTIONS = {
    # check kind -> [(label, function of (stdout, csv, rc) -> same)]
    "analyze": [
        ("flipped verdict", lambda o, c, rc: (
            o.replace("walk-summable: yes", "walk-summable: no"), c, rc)),
        ("diameter off by one", lambda o, c, rc: (
            _bump_line(o, "diameter: "), c, rc)),
        ("edge count off by one", lambda o, c, rc: (
            _bump_line(o, "undirected edges: "), c, rc)),
        ("wrong certified rho", lambda o, c, rc: (
            o.replace("rho(|R|): 0.", "rho(|R|): 0.1"), c, rc)),
    ],
    "bp": [
        ("off-by-one round (last row dropped)", lambda o, c, rc: (
            o, "\n".join(c.splitlines()[:-1]) + "\n", rc)),
        ("message count off by two", lambda o, c, rc: (
            o, _edit_row(c, 1, 3, lambda v: str(int(v) + 2)), rc)),
        ("exit code 2", lambda o, c, rc: (o, c, 2)),
    ],
    "jacobi": [
        ("round-3 error perturbed", lambda o, c, rc: (
            o, _edit_row(c, 3, 1, lambda v: repr(float(v) + 1e-3)), rc)),
        ("stopped one round early", lambda o, c, rc: (
            o, "\n".join(c.splitlines()[:-1]) + "\n", rc)),
    ],
    "compare": [
        ("round-0 error of consensus perturbed", lambda o, c, rc: (
            o, _edit_row(c, 0, 3, lambda v: repr(float(v) + 0.01)), rc)),
        ("bp worse than jacobi at its last round", lambda o, c, rc: (
            o, _bp_above_jacobi(c), rc)),
    ],
}


def _bump_line(text: str, prefix: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            lines[i] = prefix + str(int(line[len(prefix):]) + 1)
    return "\n".join(lines) + "\n"


def _bp_above_jacobi(csv: str) -> str:
    """Last row's bp error set one decade above jacobi's (compare CSV)."""
    jacobi = float(csv.splitlines()[-1].split(",")[2])
    return _edit_row(csv, -1, 1, lambda v: repr(jacobi + 1.0))


def _edit_row(csv: str, row: int, col: int, fn) -> str:
    """Apply fn to one cell of data row ``row`` (0 = first after header)."""
    lines = csv.splitlines()
    data = [i for i, line in enumerate(lines)
            if line and not line.startswith("#")][1:]
    i = data[row]
    cells = lines[i].split(",")
    cells[col] = fn(cells[col])
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from walksolve import cli

    ops = [
        run.Op("bp", run.Instance("tree", "random-tree", 40, 3)),
        run.Op("bp", run.Instance("loopy", "loopy-small", 40, 4)),
        run.Op("jacobi", run.Instance("loopy", "loopy-small", 40, 4)),
        run.Op("compare", run.Instance("loopy", "loopy-small", 40, 4)),
        run.Op("analyze", run.Instance("tree", "random-tree", 40, 3)),
        run.Op("analyze", run.sparse_instance("sparse", 60, 7, 0.3, 2.5)),
    ]
    run.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    ok = True
    try:
        run.set_up(cli, [ops], work)
        real = [run.run_op(cli.main, op, work) for op in ops]
        for r, problems in run.check_results([(False, real)], work):
            if problems:
                ok = False
                print(f"FAIL real output of {r.op.check} {r.op.instance.name}"
                      f" was rejected: {problems}")
        for r in real:
            for label, corrupt in CORRUPTIONS[r.op.check]:
                stdout, csv, rc = corrupt(r.stdout, r.csv, r.rc)
                bad = dataclasses.replace(r, stdout=stdout, csv=csv, rc=rc)
                [(_, problems)] = run.check_results([(False, [bad])], work)
                status = "ok  " if problems else "FAIL"
                ok = ok and bool(problems)
                print(f"{status} {r.op.check} {r.op.instance.name}: {label}"
                      f" -> {'counted as failed' if problems else 'passed'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
