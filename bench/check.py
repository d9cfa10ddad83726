"""Independent checks of walksolve's command outputs.

Nothing here imports walksolve.  Each instance is read back from its
Matrix Market and right-hand-side files with scipy and numpy, and every
expected value is computed from that: the solution by sparse LU, graph
facts by ``scipy.sparse.csgraph``, rho(|R|) by dense eigenvalues or
ARPACK, and the Jacobi iterates by a sparse matrix iteration.  A check
returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

#: the stopping tolerance the commands use when --tol is not given
DELTA_TOL = 1e-10
#: a log10_mse that should equal ours may differ by this much
LOG10_TOL = 1e-6
#: relative agreement required of a certified rho(|R|)
RHO_TOL = 1e-6
#: rho values this close to 1 do not decide a verdict
VERDICT_MARGIN = 1e-6
#: dense eigenvalues up to this size, ARPACK above
DENSE_EIG_MAX_N = 400
#: sources per batch of the all-pairs BFS, to bound its memory
BFS_BATCH = 256


@dataclass
class Instance:
    """One system read from disk, with lazily computed reference facts."""

    matrix: str
    rhs: str

    @cached_property
    def a(self) -> sp.csr_matrix:
        return sp.csr_matrix(scipy.io.mmread(self.matrix))

    @cached_property
    def b(self) -> np.ndarray:
        return np.loadtxt(self.rhs, ndmin=1)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def diag(self) -> np.ndarray:
        return self.a.diagonal()

    @cached_property
    def off(self) -> sp.csr_matrix:
        off = (self.a - sp.diags(self.diag)).tocsr()
        off.eliminate_zeros()
        return off

    @cached_property
    def x_star(self) -> np.ndarray:
        return spla.spsolve(self.a.tocsc(), self.b)

    @cached_property
    def pattern(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency of the induced graph."""
        p = (abs(self.off) + abs(self.off).T).tocsr()
        p.data[:] = 1.0
        return p

    @property
    def edges(self) -> int:
        return self.pattern.nnz // 2

    @cached_property
    def components(self) -> int:
        return csgraph.connected_components(self.pattern, directed=False)[0]

    @property
    def acyclic(self) -> bool:
        return self.edges == self.n - self.components

    @cached_property
    def diameter(self) -> int:
        best = 0
        for start in range(0, self.n, BFS_BATCH):
            idx = np.arange(start, min(start + BFS_BATCH, self.n))
            dist = csgraph.shortest_path(self.pattern, directed=False,
                                         unweighted=True, indices=idx)
            finite = dist[np.isfinite(dist)]
            best = max(best, int(finite.max()))
        return best

    @cached_property
    def dominant(self) -> bool:
        off_sum = np.asarray(abs(self.off).sum(axis=1)).ravel()
        return bool(np.all(np.abs(self.diag) > off_sum))

    @cached_property
    def rho(self) -> float:
        """Spectral radius of |R|, R = I - D^-1 A."""
        abs_r = sp.diags(1.0 / np.abs(self.diag)) @ abs(self.off)
        if abs_r.nnz == 0:
            return 0.0
        if self.n <= DENSE_EIG_MAX_N:
            return float(np.abs(np.linalg.eigvals(abs_r.toarray())).max())
        vals = spla.eigs(abs_r.tocsc(), k=6, which="LM", tol=1e-14,
                         maxiter=100 * self.n, return_eigenvectors=False)
        return float(np.abs(vals).max())

    def log10_mse(self, x: np.ndarray) -> float:
        mse = float(np.mean((x - self.x_star) ** 2))
        return math.log10(mse) if mse > 0.0 else -math.inf

    @cached_property
    def jacobi(self) -> list[tuple[float, float | None, float]]:
        """(log10_mse, max_delta, stop threshold) of each Jacobi round.

        Iterates until the delta rule clearly stops it, or for the CLI's
        default cap of 10n + 1000 rounds.
        """
        x = self.b / self.diag
        rows = [(self.log10_mse(x), None, math.inf)]
        for _ in range(10 * self.n + 1000):
            nxt = (self.b - self.off @ x) / self.diag
            delta = float(np.max(np.abs(nxt - x)))
            limit = DELTA_TOL * max(1.0, float(np.max(np.abs(nxt))))
            rows.append((self.log10_mse(nxt), delta, limit))
            x = nxt
            if delta <= limit * (1.0 - 1e-3):
                break
        return rows


def _close(got, want, rel, abs_=0.0) -> bool:
    if want is None or got is None:
        return got is None and want is None
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rel * abs(want) + abs_


def _num(cell: str):
    return None if cell == "" else float(cell)


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines without '# ', header fields, data rows)."""
    comments, rows, header = [], [], None
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header or [], rows


def _check_round0(inst: Instance, value, label: str) -> list[str]:
    want = inst.log10_mse(inst.b / inst.diag)
    if not _close(value, want, 0.0, LOG10_TOL):
        return [f"{label} round-0 log10_mse {value} != {want}"]
    return []


def _check_jacobi_column(inst: Instance, values: list, label: str,
                         deltas: list | None = None) -> list[str]:
    ref = inst.jacobi
    if len(values) > len(ref):
        return [f"{label}: {len(values)} rounds, the Jacobi iteration "
                f"stops after {len(ref)}"]
    for k, lm in enumerate(values):
        if not _close(lm, ref[k][0], 0.0, LOG10_TOL):
            return [f"{label} round {k}: log10_mse {lm} != {ref[k][0]}"]
        if deltas is not None and not _close(
                deltas[k], ref[k][1], 1e-6,
                1e-12 * float(np.max(np.abs(inst.x_star)))):
            return [f"{label} round {k}: max_delta {deltas[k]} != {ref[k][1]}"]
    return []


def check_solve(inst: Instance, method: str, tree: bool, rc: int,
                csv: str) -> list[str]:
    """Trace of ``walksolve solve --method bp|jacobi`` (default options)."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    comments, header, rows = parse_csv(csv)
    if header != ["iter", "log10_mse", "max_delta", "messages"] or not rows:
        return problems + [f"bad CSV header {header} or no rows"]
    stop = "fixed-rounds" if method == "bp" and tree else "delta"
    if f"stop: {stop}" not in comments:
        problems.append(f"stop reason {comments}, expected {stop}")
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        problems.append("iter column is not 0, 1, 2, ...")
    if any(int(r[3]) != 2 * inst.edges for r in rows):
        problems.append(f"messages differ from 2|E| = {2 * inst.edges}")
    lmse = [_num(r[1]) for r in rows]
    deltas = [_num(r[2]) for r in rows]
    problems += _check_round0(inst, lmse[0], method)
    scale = float(np.mean(inst.x_star ** 2))
    if method == "jacobi":
        problems += _check_jacobi_column(inst, lmse, "jacobi", deltas)
        ref = inst.jacobi
        if len(rows) < len(ref) and ref[len(rows) - 1][1] is not None:
            _, delta, limit = ref[len(rows) - 1]
            if delta > limit * (1.0 + 1e-3):
                problems.append(f"jacobi stopped at round {len(rows) - 1} "
                                f"with delta {delta} above {limit}")
    elif tree:
        if len(rows) - 1 != inst.diameter:
            problems.append(f"tree ran {len(rows) - 1} rounds, diameter is "
                            f"{inst.diameter}")
        # exact after diameter rounds: error at the level of rounding
        if not lmse[-1] <= math.log10(scale) - 20:
            problems.append(f"tree final log10_mse {lmse[-1]} is not at "
                            "rounding level")
    else:
        limit = DELTA_TOL * max(1.0, float(np.max(np.abs(inst.x_star))))
        if deltas[-1] is None or deltas[-1] > limit * (1.0 + 1e-3):
            problems.append(f"bp stopped with max_delta {deltas[-1]} above "
                            f"{limit}")
        if not lmse[-1] <= math.log10(scale) - 12:
            problems.append(f"bp final log10_mse {lmse[-1]} has not "
                            "converged")
    return problems


def check_compare(inst: Instance, max_iters: int, rc: int,
                  csv: str) -> list[str]:
    """Table of ``walksolve compare --max-iters N``."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    comments, header, rows = parse_csv(csv)
    methods = ["bp", "jacobi", "consensus"]
    if header != ["iter"] + methods or not rows:
        return problems + [f"bad CSV header {header} or no rows"]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        problems.append("iter column is not 0, 1, 2, ...")
    cols = {m: [_num(r[i + 1]) for r in rows] for i, m in enumerate(methods)}
    for m in methods:
        col = cols[m]
        last = max((k for k, v in enumerate(col) if v is not None), default=-1)
        if last > max_iters:
            problems.append(f"{m} ran {last} rounds, cap is {max_iters}")
        note = [c for c in comments if c.startswith(f"method {m}:")]
        if not note or f"rounds={last}" not in note[0].split():
            problems.append(f"{m}: comment {note} does not match {last} rows")
        if last < 0:
            problems.append(f"{m} column is empty")
            continue
        problems += _check_round0(inst, col[0], m)
    jac = [v for v in cols["jacobi"] if v is not None]
    problems += _check_jacobi_column(inst, jac, "compare jacobi")
    bp = [v for v in cols["bp"] if v is not None]
    if bp and jac:
        k = len(bp) - 1
        j = jac[min(k, len(jac) - 1)]
        if bp[-1] > j:
            problems.append(f"bp log10_mse {bp[-1]} at round {k} is above "
                            f"jacobi's {j}")
    return problems


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_analyze(inst: Instance, rc: int, stdout: str) -> list[str]:
    """Report of ``walksolve analyze``."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    rep = parse_report(stdout)
    yes_no = {True: "yes", False: "no"}
    want = {
        "nodes": str(inst.n),
        "undirected edges": str(inst.edges),
        "acyclic": yes_no[inst.acyclic],
        "diameter": str(inst.diameter),
        "diagonally dominant": yes_no[inst.dominant],
    }
    for key, value in want.items():
        if rep.get(key) != value:
            problems.append(f"{key}: got {rep.get(key)!r}, expected {value!r}")
    rho_line = rep.get("rho(|R|)", "")
    try:
        rho = float(rho_line.split()[0])
    except (IndexError, ValueError):
        return problems + [f"unreadable rho line {rho_line!r}"]
    verdict = rep.get("walk-summable", "").split(" ")[0]
    if abs(inst.rho - 1.0) > VERDICT_MARGIN:
        expected = yes_no[inst.rho < 1.0]
        if verdict != expected:
            problems.append(f"verdict {verdict!r}, rho(|R|) = {inst.rho:.6g} "
                            f"gives {expected!r}")
    if "(certified" in rho_line and not _close(rho, inst.rho, RHO_TOL):
        problems.append(f"certified rho {rho} != {inst.rho}")
    if verdict in ("yes", "no"):
        margin = rep.get("margin to 1")
        if margin is None or not _close(float(margin), 1.0 - rho, 0.0, 1e-12):
            problems.append(f"margin {margin!r} is not 1 - rho")
    return problems
