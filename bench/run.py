#!/usr/bin/env python3
"""Benchmark of the walksolve command line, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process imports walksolve from ``src/``, writes every input of the
workload with ``walksolve generate`` (instance seeds derive from --seed),
runs one warm-up operation, and then times whole passes of the workload's
operations through the in-process entry point ``walksolve.cli.main`` until
--seconds would be exceeded (at least one pass).  Afterwards every output
is checked against values computed independently from the input files
(bench/check.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1 (bench/tracing.py).  See bench/README.md.
"""
import os

# BLAS pinned to one thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

T0 = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
#: set-up runs this many times per run; setup_s reports the median
SETUP_REPEATS = 3
#: instance sets per run; untraced pass p runs set p % INSTANCE_SETS
INSTANCE_SETS = 4
COMPARE_MAX_ITERS = 60


def _since_process_start() -> float:
    """Seconds since this process started (10 ms resolution on Linux)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T0


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Instance:
    """One ``walksolve generate`` call; files are <name>.mtx / <name>.rhs."""

    name: str
    kind: str
    n: int
    seed: int
    options: tuple = ()

    def argv(self, work: Path) -> list[str]:
        return ["generate", "--kind", self.kind, "--n", str(self.n),
                "--seed", str(self.seed), "--out",
                str(work / f"{self.name}.mtx"), *self.options]


@dataclass(frozen=True)
class Op:
    """One timed command on one instance; ``check`` names its checker."""

    check: str  # "bp", "jacobi", "analyze" or "compare"
    instance: Instance
    known_fault: str = ""

    def argv(self, work: Path) -> list[str]:
        m = str(work / f"{self.instance.name}.mtx")
        io_args = ["--matrix", m, "--rhs", m[:-4] + ".rhs"]
        out = ["--out", str(self.csv(work))]
        if self.check in ("bp", "jacobi"):
            return ["solve", *io_args, "--method", self.check, *out]
        if self.check == "compare":
            return ["compare", *io_args, "--max-iters",
                    str(COMPARE_MAX_ITERS), *out]
        return ["analyze", *io_args]

    def csv(self, work: Path) -> Path:
        return work / f"{self.instance.name}.{self.check}.csv"


def sparse_instance(name, n, seed, coeff, degree):
    """random-sparse, unit diagonal, coefficients in [-coeff, coeff)."""
    return Instance(name, "random-sparse", n, seed, (
        "--diag-rule", "unit", "--coeff-lo", repr(-coeff),
        "--coeff-hi", repr(coeff), "--density", repr(degree / n)))


#: analyze reports "indeterminate" here, yet rho(|R|) = 0.6268 < 1
CERTIFY_FAULT = sparse_instance("fault-n3000-s5", 3000, 5, 0.3, 2.5)


def workload_ops(name: str, seed: int, iset: int) -> list[Op]:
    """The operations of one pass on instance set ``iset``.

    Instance i of set k gets generator seed 1000 * seed + 100 * k + i.
    Every set has the same kinds and sizes, so passes on different sets
    do the same kind of work, and a run's per-operation medians are
    taken over as many instances as it has passes.  A pass takes 7-9 s
    on a 2-core machine, so a 40 s run has 4 or 5 passes.  Most
    operations take 0.5-1 s.  The first operation of set 0 is also the
    warm-up.
    """
    s = 1000 * seed + 100 * iset
    if name == "solve":
        def loopy(i, n):
            return Instance(f"s{iset}-loopy{i}", "loopy-small", n, s + i)

        def tree(i, n):
            return Instance(f"s{iset}-tree{i}", "random-tree", n, s + i)

        return [Op("bp", tree(0, 300)), Op("bp", loopy(1, 300)),
                Op("jacobi", loopy(2, 200)), Op("compare", loopy(3, 100)),
                Op("bp", tree(4, 400)), Op("bp", loopy(5, 300)),
                Op("jacobi", loopy(6, 200)), Op("compare", loopy(7, 100)),
                Op("bp", tree(8, 600))]
    if name == "certify":
        ops = []
        for i in range(2):
            # walk-summable but not dominant; not walk-summable; dominant
            for j, (coeff, degree) in enumerate(((0.3, 2.5), (0.6, 4.0),
                                                 (0.1, 2.0))):
                k = 3 * i + j
                ops.append(Op("analyze", sparse_instance(
                    f"s{iset}-sparse{k}", 300, s + k, coeff, degree)))
        ops.append(Op("analyze", CERTIFY_FAULT, known_fault=(
            "analyze gives no verdict above 2048 nodes when the power "
            "bracket does not close (analysis.py, SQUARING_MAX_N)")))
        return ops
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("solve", "certify")


# ---------------------------------------------------------------------------
# running


@dataclass
class Result:
    op: Op
    cpu: float
    wall: float
    rc: object  # exit code, or the exception an operation raised
    stdout: str
    csv: str


def run_op(main, op: Op, work: Path) -> Result:
    """Time one operation; gc.collect and output handling are untimed."""
    argv = op.argv(work)
    csv_path = op.csv(work)
    if csv_path.exists():
        csv_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # reported as a failed operation
        rc = f"raised {type(exc).__name__}: {exc}"
    cpu = time.process_time() - c0
    wall = time.perf_counter() - w0
    csv = csv_path.read_text() if csv_path.exists() else ""
    return Result(op, cpu, wall, rc, out.getvalue(), csv)


def set_up(cli, sets: list[list[Op]], work: Path, tracer=None) -> float:
    """Write every set's inputs and run the warm-up; returns seconds."""
    t0 = time.perf_counter()
    instances = list(dict.fromkeys(op.instance for ops in sets
                                   for op in ops))
    with tracer if tracer is not None else contextlib.nullcontext():
        for inst in instances:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(inst.argv(work))
            if rc != 0:
                raise RuntimeError(f"generate {inst} exited with {rc}")
    run_op(cli.main, sets[0][0], work)
    return time.perf_counter() - t0


def run_passes(cli, sets, work, seconds, tracer=None):
    """Whole passes until the next would end after ``seconds``.

    Untraced runs cycle through the instance sets.  With a tracer, every
    pass runs set 0, so counts repeat exactly, and passes alternate
    untraced / traced (at least one of each).  Returns
    [(traced, [Result, ...]), ...].
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        ops = sets[0 if tracer is not None else len(passes) % len(sets)]
        with tracer if traced else contextlib.nullcontext():
            passes.append((traced, [run_op(cli.main, op, work)
                                    for op in ops]))
        took = time.perf_counter() - t0
        need = 2 if tracer is not None else 1
        elapsed = time.perf_counter() - start
        if len(passes) >= need and elapsed + took > seconds:
            return passes


def check_results(passes, work: Path) -> list[tuple[Result, list[str]]]:
    import check  # scipy.io and csgraph stay out of the measured set-up

    instances = {}

    def inst(op):
        name = op.instance.name
        if name not in instances:
            m = str(work / f"{name}.mtx")
            instances[name] = check.Instance(m, m[:-4] + ".rhs")
        return instances[name]

    out = []
    for _, results in passes:
        for r in results:
            op = r.op
            try:
                if not isinstance(r.rc, int):
                    problems = [f"no exit code: {r.rc}"]
                elif op.check == "analyze":
                    problems = check.check_analyze(inst(op), r.rc, r.stdout)
                elif op.check == "compare":
                    problems = check.check_compare(
                        inst(op), COMPARE_MAX_ITERS, r.rc, r.csv)
                else:
                    problems = check.check_solve(
                        inst(op), op.check, op.instance.kind == "random-tree",
                        r.rc, r.csv)
            except Exception as exc:  # unreadable output: op failed
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            out.append((r, problems))
    return out


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_s, passes, peak_rss_mb) -> dict:
    """Per-operation medians over the run's passes.

    This machine's speed drifts: it runs up to a third faster for a few
    seconds at a time.  The median of an operation's passes skips those
    bursts, where a mean or a single pass does not.  A pass figure is
    the sum of its operations' medians, and op_cpu_s_p50 is the median
    of the operations' median CPU times.
    """
    runs = [rs for _, rs in passes]
    cpu = [statistics.median(rs[i].cpu for rs in runs)
           for i in range(len(runs[0]))]
    wall = [statistics.median(rs[i].wall for rs in runs)
            for i in range(len(runs[0]))]
    print(f"op_cpu_s_p50 over {len(cpu)} operations x {len(runs)} "
          f"passes = {len(cpu) * len(runs)} samples")
    return {
        "setup_s": setup_s,
        "op_cpu_s_p50": statistics.median(cpu),
        "pass_cpu_s": sum(cpu),
        "pass_s": sum(wall),
        "peak_rss_mb": peak_rss_mb,
    }


def _layer_values(t, scale: float) -> dict:
    def s(*names):
        return sum(t.time[n] for n in names) * scale

    def c(value):
        v = value * scale
        return int(v) if v == int(v) else v

    return {
        "core.generate_s": s("generate_instance"),
        "core.system_build_s": s("SparseSystem"),
        "core.induced_graph_s": s("induced_graph"),
        "core.induced_graph_calls": c(t.calls["induced_graph"]),
        "core.diameter_s": s("diameter"),
        "core.diameter_calls": c(t.calls["diameter"]),
        "mmio.read_s": s("read_matrix_market", "read_rhs"),
        "mmio.write_s": s("write_matrix_market", "write_rhs"),
        "mmio.bytes_read": c(t.counts["bytes_read"]),
        "analysis.analyze_s": s("analyze"),
        "analysis.analyze_calls": c(t.calls["analyze"]),
        "analysis.spectral_radius_s": s("spectral_radius_nonneg"),
        "analysis.find_gdd_scaling_s": s("find_gdd_scaling"),
        "analysis.residual_matrix_s": s("residual_matrix"),
        "analysis.analyze_self_s": t.self_time["analyze"] * scale,
        "engine.run_rounds_s": s("run_rounds"),
        "engine.self_s": t.self_time["run_rounds"] * scale,
        "engine.rounds": c(t.counts["rounds"]),
        "engine.messages": c(t.counts["messages"]),
        "engine.node_ops": c(t.counts["node_ops"]),
        "solvers.program_setup_s": s("program_setup"),
        "solvers.bp_step_s": s("bp_step"),
        "solvers.jacobi_step_s": s("jacobi_step"),
        "solvers.consensus_step_s": s("consensus_step"),
        "solvers.dense_solve_s": s("dense_solve"),
        "cli.self_s": t.self_time["main"] * scale,
    }


def per_layer(setup_tracer, pass_tracer, passes) -> dict:
    """One traced set-up's generate step plus the mean traced pass."""
    traced = [sum(r.cpu for r in rs) for t, rs in passes if t]
    plain = [sum(r.cpu for r in rs) for t, rs in passes if not t]
    a = _layer_values(setup_tracer, 1.0)
    b = _layer_values(pass_tracer, 1.0 / len(traced))
    out = {k: a[k] + b[k] for k in a}
    rounds_s = out["engine.run_rounds_s"]
    out["engine.messages_per_s"] = (out["engine.messages"] / rounds_s
                                    if rounds_s > 0 else 0.0)
    out["trace.overhead"] = (statistics.median(traced)
                             / statistics.median(plain) - 1.0)
    print(f"traced {len(traced)} of {len(passes)} passes; overhead "
          f"{out['trace.overhead']:+.3f} of the untraced pass CPU")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    config = ROOT / "BENCHMARK.json"
    package = SRC / "walksolve" / "__init__.py"
    if not package.is_file() or not config.is_file():
        print(f"error: run from a walksolve checkout; {SRC / 'walksolve'} or "
              f"{config} is missing", file=sys.stderr)
        return 2
    spec = json.loads(config.read_text())
    sys.path.insert(0, str(SRC))
    from walksolve import cli
    if Path(cli.__file__).resolve().parent != SRC / "walksolve":
        print(f"error: imported walksolve from {cli.__file__}",
              file=sys.stderr)
        return 2
    import tracing

    import_s = _since_process_start()
    sets = [workload_ops(args.workload, args.seed, k)
            for k in range(INSTANCE_SETS)]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_tracer = tracing.Tracer() if args.trace else None
        reps = [set_up(cli, sets, work,
                       setup_tracer if i == SETUP_REPEATS - 1 else None)
                for i in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(reps)
        print(f"set-up: start and imports {import_s:.3f} s, repetitions "
              + " ".join(f"{t:.3f}" for t in reps) + " s")
        pass_tracer = tracing.Tracer() if args.trace else None
        passes = run_passes(cli, sets, work, args.seconds, pass_tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = check_results(passes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for traced, rs in passes:
        print(f"pass ({'traced' if traced else 'untraced'}): cpu "
              f"{sum(r.cpu for r in rs):.3f} s, wall "
              f"{sum(r.wall for r in rs):.3f} s, {len(rs)} operations")
    failed = [(r, probs) for r, probs in checked if probs]
    reports = {}
    for r, probs in failed:
        tag = f" [known fault: {r.op.known_fault}]" if r.op.known_fault else ""
        line = f"{r.op.check} {r.op.instance.name}: {'; '.join(probs)}{tag}"
        reports[line] = reports.get(line, 0) + 1
    for line, count in reports.items():
        print(f"FAILED x{count} {line}")
    if args.trace:
        values = per_layer(setup_tracer, pass_tracer, passes)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setup_s, passes, peak_rss_mb)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": all(r.op.known_fault for r, _ in failed),
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
