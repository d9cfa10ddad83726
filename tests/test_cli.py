import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walksolve import cli, engine, solvers
from walksolve.analysis import DominanceReport
from walksolve.cli import main
from walksolve.core import GeneratorSpec, SparseSystem, generate_instance
from walksolve.mmio import write_matrix_market, write_rhs
from test_edge_kernel import FAULTING


def _generate(tmp_path, capsys=None):
    mtx = str(tmp_path / "sys.mtx")
    rhs = str(tmp_path / "sys.rhs")
    args = ["generate", "--kind", "example1-tree", "--n", "7",
            "--seed", "1", "--out", mtx, "--rhs", rhs]
    assert main(args) == 0
    if capsys is not None:
        capsys.readouterr()  # drop the generate banner
    return mtx, rhs


def _write_system(tmp_path, sys_):
    mtx, rhs = str(tmp_path / "m.mtx"), str(tmp_path / "m.rhs")
    write_matrix_market(sys_, mtx)
    write_rhs(sys_.b, rhs)
    return mtx, rhs


def test_generate_reports_paths(tmp_path, capsys):
    mtx, rhs = _generate(tmp_path)
    out = capsys.readouterr().out
    assert "wrote 7-node example1-tree system" in out
    assert "(6 undirected edges)" in out
    assert mtx in out and rhs in out


def test_generate_requires_n(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--out", str(tmp_path / "x.mtx")])


def test_generate_refuses_an_oversized_random_sparse(tmp_path, capsys):
    # the default density 0.1 expects ~5e8 edges at n = 100000
    out = tmp_path / "big.mtx"
    assert main(["generate", "--kind", "random-sparse", "--n", "100000",
                 "--seed", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: random-sparse n=100000 ")
    assert "more than 1000000" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_generate_defaults_are_the_generator_specs(tmp_path, capsys):
    # no --density: the CLI writes the library's own random-sparse system
    out = tmp_path / "cli.mtx"
    assert main(["generate", "--kind", "random-sparse", "--n", "40",
                 "--seed", "3", "--out", str(out)]) == 0
    mtx, rhs = _write_system(tmp_path, generate_instance(
        GeneratorSpec("random-sparse", 40, 3)))
    assert out.read_bytes() == Path(mtx).read_bytes()
    assert (tmp_path / "cli.rhs").read_bytes() == Path(rhs).read_bytes()


def test_analyze_tree(tmp_path, capsys):
    mtx, rhs = _generate(tmp_path, capsys)
    assert main(["analyze", "--matrix", mtx, "--rhs", rhs]) == 0
    out = capsys.readouterr().out
    assert "nodes: 7" in out
    assert "acyclic: yes" in out
    assert "diameter: 4" in out
    assert "walk-summable: yes" in out
    assert "(certified" in out
    assert "rho interval: [" in out
    assert "rho route: " in out
    assert "scaling certificate: present (validated)" in out


def _report(text):
    return dict(line.split(": ", 1) for line in text.splitlines())


def test_analyze_prints_no_margin_from_an_uncertified_rho(tmp_path, capsys,
                                                          monkeypatch):
    # a 2500-node tree's interval closes after inverse iteration, so its
    # margin is printed; when ARPACK fails, dominance still gives the
    # verdict but rho is only the midpoint of the row-sum bounds, and no
    # margin to 1 may be printed from it
    import scipy.sparse.linalg
    mtx = str(tmp_path / "tree.mtx")
    assert main(["generate", "--kind", "random-tree", "--n", "2500",
                 "--seed", "7", "--out", mtx]) == 0
    capsys.readouterr()
    argv = ["analyze", "--matrix", mtx, "--rhs", mtx[:-4] + ".rhs"]
    assert main(argv) == 0
    rep = _report(capsys.readouterr().out)
    rho = float(rep["rho(|R|)"].split()[0])
    assert rho == pytest.approx(0.9397732837272, abs=1e-12)
    assert rep["rho(|R|)"].endswith("(certified, tol 1e-09)")
    assert rep["rho route"] == "inverse"
    assert rep["walk-summable"] == "yes"
    assert float(rep["margin to 1"]) == 1.0 - rho

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", None, None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    assert main(argv) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["rho(|R|)"].endswith("(estimate only, tol 1e-09)")
    assert rep["rho route"] == "dominance"
    lo, hi = (float(v) for v in rep["rho interval"].strip("[]").split(", "))
    assert lo <= 0.9397732837272 <= hi
    assert rep["walk-summable"] == "yes"
    assert rep["margin to 1"] == "not certified (rho is an estimate)"


def test_solve_bp_on_tree(tmp_path, capsys):
    mtx, rhs = _generate(tmp_path, capsys)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs,
                 "--method", "bp", "--max-iters", "10"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert "# method: bp" in lines
    # acyclic instance: the solver schedules exactly diameter rounds
    assert "# stop: fixed-rounds" in lines
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "iter,log10_mse,max_delta,messages"
    # tree with 6 undirected edges sends 12 messages per round
    first = next(l for l in lines if l.startswith("1,"))
    assert first.endswith(",12")
    last = [l for l in lines if not l.startswith(("#", "iter"))][-1]
    assert last.startswith("4,")
    assert float(last.split(",")[1]) < -20.0
    assert "method=bp" in captured.err
    assert "stop=fixed-rounds" in captured.err


def test_solve_writes_csv_to_file(tmp_path, capsys):
    mtx, rhs = _generate(tmp_path, capsys)
    out = tmp_path / "trace.csv"
    assert main(["solve", "--matrix", mtx, "--rhs", rhs,
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# method: bp\n")
    assert "iter,log10_mse,max_delta,messages" in text
    assert capsys.readouterr().out == ""


def test_solve_jacobi_hits_round_cap(tmp_path, capsys):
    mtx, rhs = _generate(tmp_path, capsys)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs,
                 "--method", "jacobi", "--max-iters", "3",
                 "--tol", "1e-14"])
    captured = capsys.readouterr()
    assert code == 2
    assert "stop=max-rounds" in captured.err


def test_solve_gauss_seidel_is_labeled_sequential(tmp_path, capsys):
    mtx, rhs = _generate(tmp_path, capsys)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs,
                 "--method", "gauss-seidel", "--max-iters", "200"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == ("# method: gauss-seidel (sequential-reference, "
                        "not message passing)")
    # sequential sweeps pass no messages
    assert all(l.endswith(",0") for l in lines[2:])


def test_solve_bp_refuses_without_certificate(tmp_path, capsys):
    sys_ = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.5),
                            (1, 0, -1.5), (1, 1, 1.0)], (1.0, 1.0))
    mtx, rhs = _write_system(tmp_path, sys_)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--method", "bp"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not walk-summable (rho(|R|) in [1.5, 1.5])" in captured.err
    assert "rerun with --force" in captured.err


def test_solve_fault_exits_three(tmp_path, capsys):
    # singular pair: the round-1 belief coefficient cancels to zero
    sys_ = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.0),
                            (1, 0, -1.0), (1, 1, 1.0)], (1.0, 2.0))
    mtx, rhs = _write_system(tmp_path, sys_)
    from walksolve.errors import NotWalkSummableWarning
    with pytest.warns(NotWalkSummableWarning):
        code = main(["solve", "--matrix", mtx, "--rhs", rhs,
                     "--method", "bp", "--force"])
    captured = capsys.readouterr()
    assert code == 3
    assert "# reference: unavailable" in captured.err
    assert "fault: node" in captured.err
    assert "# fault: node" in captured.out


def test_solve_bp_round_zero_fault_exits_three(tmp_path, capsys):
    # dominant, but b_i / a_ii = 1e300 / 1e-100 overflows at round 0
    sys_ = SparseSystem(2, [(0, 0, 1e-100), (0, 1, 1e-101),
                            (1, 0, 1e-101), (1, 1, 1e-100)], (1e300, 1e300))
    mtx, rhs = _write_system(tmp_path, sys_)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--method", "bp"])
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.out.splitlines()
    assert "# stop: fault" in lines
    assert lines[-2:] == ["iter,log10_mse,max_delta,messages",
                          "# fault: node 0 round 0: DivergedEstimateError"]
    assert "method=bp rounds=none stop=fault" in captured.err


def _run_in_process(*args):
    """The CLI in a separate process, so that stderr is what a user sees
    rather than what pytest's capture collects."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from walksolve.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *args],
        capture_output=True, text=True, env=env, check=False)


def test_solve_consensus_fault_writes_no_numpy_warning(tmp_path):
    # A = [[1, 1e160], [1, 1]], b = [1, 1e150]: node 0's round-1
    # projection overflows
    sys_ = SparseSystem(2, [(0, 0, 1.0), (0, 1, 1e160), (1, 0, 1.0),
                            (1, 1, 1.0)], (1.0, 1e150))
    mtx, rhs = _write_system(tmp_path, sys_)
    run = _run_in_process("solve", "--matrix", mtx, "--rhs", rhs, "--method",
                          "consensus", "--max-iters", "3")
    assert run.returncode == 3
    assert "# fault: node 0 round 1: DivergedEstimateError" in run.stdout
    assert "RuntimeWarning" not in run.stderr


def test_solve_gauss_seidel_overflow_is_not_converged(tmp_path, capsys):
    # the sweeps grow 1e30-fold until they overflow to inf
    sys_ = SparseSystem(2, [(0, 0, 1e-30), (0, 1, -1.0),
                            (1, 0, -1.0), (1, 1, 1.0)], (1.0, 1.0))
    mtx, rhs = _write_system(tmp_path, sys_)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs,
                 "--method", "gauss-seidel", "--max-iters", "20"])
    captured = capsys.readouterr()
    # round 5 passes ESTIMATE_LIMIT (1e150): a fault, as in the engine
    assert code == 3
    assert "rounds=4 stop=fault" in captured.err
    lines = captured.out.splitlines()
    assert [l.split(",")[0] for l in lines[2:-1]] == ["0", "1", "2", "3", "4"]
    assert lines[-1] == "# fault: node 0 round 5: DivergedEstimateError"
    assert "inf" not in captured.out and "nan" not in captured.out


@pytest.mark.parametrize("command", [
    ["solve", "--method", "jacobi"], ["solve", "--method", "consensus"],
    ["solve", "--method", "gauss-seidel"], ["compare"]],
    ids=["jacobi", "consensus", "gauss-seidel", "compare"])
def test_an_overflowing_error_reads_inf_without_a_numpy_warning(
        tmp_path, capsys, command):
    # the solution is about 1e160, so every squared error overflows; a
    # numpy RuntimeWarning would fail this test, as warnings are errors
    mtx, rhs = _write_system(tmp_path, FAULTING["diverge"])
    main([*command, "--matrix", mtx, "--rhs", rhs, "--max-iters", "4"])
    captured = capsys.readouterr()
    rows = [l.split(",") for l in captured.out.splitlines()
            if l[:1].isdigit()]
    assert rows[0][:2] == ["0", "inf"]
    assert "Warning" not in captured.err


def test_compare_writes_no_row_when_every_method_faults_at_round_zero(
        tmp_path, capsys):
    # b_0 / a_00 = 1e160 is beyond ESTIMATE_LIMIT, so no method completes
    # round 0, while the solution (4e160, 2e160) / 3 has a reference
    mtx, rhs = _write_system(tmp_path, SparseSystem(
        2, [(0, 0, 1.0), (0, 1, -0.5), (1, 0, -0.5), (1, 1, 1.0)],
        [1e160, 1.0]))
    assert main(["compare", "--matrix", mtx, "--rhs", rhs]) == 0
    captured = capsys.readouterr()
    notes = [f"# method {m}: stop=fault rounds=none fault='node 0 round 0: "
             "DivergedEstimateError'" for m in ("bp", "jacobi", "consensus")]
    assert captured.err.splitlines() == notes
    assert captured.out.splitlines() == notes + ["iter,bp,jacobi,consensus"]


def test_rounds_none_is_no_completed_round_and_rounds_0_is_round_0(
        tmp_path, capsys):
    # "estimate" faults at round 0 and "diverge" after round 0 completed
    mtx, rhs = _write_system(tmp_path, FAULTING["estimate"])
    assert main(["solve", "--matrix", mtx, "--rhs", rhs,
                 "--method", "gauss-seidel"]) == 3
    assert "method=gauss-seidel rounds=none stop=fault" in \
        capsys.readouterr().err
    mtx, rhs = _write_system(tmp_path, FAULTING["diverge"])
    assert main(["compare", "--matrix", mtx, "--rhs", rhs]) == 0
    assert ("# method bp: stop=fault rounds=0 fault='node 0 round 1: "
            in capsys.readouterr().err)


def test_a_stalled_run_exits_two(tmp_path, capsys):
    # consensus's round-1 step passes --tol, but b - A x is as large as b
    mtx, rhs = _write_system(tmp_path, FAULTING["diverge"])
    assert main(["solve", "--matrix", mtx, "--rhs", rhs, "--method",
                 "consensus", "--max-iters", "4"]) == 2
    captured = capsys.readouterr()
    assert "# stop: stalled" in captured.out.splitlines()
    assert "method=consensus rounds=1 stop=stalled" in captured.err


@pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
def test_every_loop_stalls_when_no_residual_is_small_enough(
        tmp_path, capsys, monkeypatch, method):
    mtx, rhs = _generate(tmp_path)
    argv = ["solve", "--matrix", mtx, "--rhs", rhs, "--method", method]
    assert main(argv) == 0
    assert "stop=delta" in capsys.readouterr().err
    monkeypatch.setattr(engine, "residual_stop", lambda *args: False)
    assert main(argv) == 2
    assert "stop=stalled" in capsys.readouterr().err


def test_an_oversized_consensus_run_is_refused(tmp_path, capsys,
                                               monkeypatch):
    mtx, rhs = _generate(tmp_path)
    capsys.readouterr()
    # three 7 x 7 arrays hold 147 floats
    monkeypatch.setattr(solvers, "MAX_ROUND_FLOATS", 146)
    argv = ["solve", "--matrix", mtx, "--rhs", rhs, "--method"]
    assert main(argv + ["consensus"]) == 1
    assert capsys.readouterr().err == (
        "error: consensus on 7 nodes holds three 7 x 7 arrays, 147 floats, "
        "more than 146\n")
    assert main(argv + ["bp"]) == 0


def test_analyze_refuses_a_residual_that_overflows(tmp_path, capsys):
    # |r_01| = a_01 / a_00 = 1e600 is not a float
    sys_ = SparseSystem(2, [(0, 0, 1e-300), (0, 1, 1e300), (1, 1, 1.0)],
                        (1.0, 1.0))
    mtx, rhs = _write_system(tmp_path, sys_)
    assert main(["analyze", "--matrix", mtx, "--rhs", rhs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix has non-finite entries\n"


def test_analyze_writes_no_numpy_warning_on_a_cross_overflow(tmp_path):
    from test_analysis import CROSS_OVERFLOW
    mtx, rhs = _write_system(tmp_path, CROSS_OVERFLOW)
    run = _run_in_process("analyze", "--matrix", mtx, "--rhs", rhs)
    assert run.returncode == 0
    assert "Warning" not in run.stderr
    rep = _report(run.stdout)
    assert rep["rho(|R|)"] == "0 (certified, tol 1e-09)"
    assert rep["walk-summable"] == "yes"


@pytest.mark.parametrize("command", [["solve", "--method", "jacobi"],
                                     ["compare"]], ids=["solve", "compare"])
def test_a_non_finite_reference_is_unavailable(tmp_path, capsys, command):
    # the solution (1e308, 2e308) does not fit in floats
    mtx, rhs = _write_system(tmp_path, SparseSystem(
        2, [(0, 0, 1.0), (1, 1, 0.5)], [1e308, 1e308]))
    main(command + ["--matrix", mtx, "--rhs", rhs])
    assert capsys.readouterr().err.startswith(
        "# reference: unavailable (solve gave a non-finite solution)\n")


def test_parse_errors_exit_one_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n2 2\n")
    rhs = tmp_path / "bad.rhs"
    rhs.write_text("1.0\n2.0\n")
    code = main(["analyze", "--matrix", str(bad), "--rhs", str(rhs)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err
    assert "line 2" in captured.err


def test_missing_paths_exit_one(capsys):
    assert main(["solve", "--matrix", "only.mtx"]) == 1
    assert "both required" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing-matrix", "non-utf8-rhs",
                                  "solve-out-dir", "generate-out-dir"])
def test_file_errors_are_error_lines_not_tracebacks(tmp_path, capsys, case):
    mtx, rhs = _generate(tmp_path, capsys)
    nowhere = str(tmp_path / "missing" / "out")
    if case == "non-utf8-rhs":
        Path(rhs).write_bytes(b"abc\xff\n")
    args = {"missing-matrix": ["analyze", "--matrix", nowhere, "--rhs", rhs],
            "non-utf8-rhs": ["analyze", "--matrix", mtx, "--rhs", rhs],
            "solve-out-dir": ["solve", "--matrix", mtx, "--rhs", rhs,
                              "--out", nowhere],
            "generate-out-dir": ["generate", "--n", "5", "--out", nowhere],
            }[case]
    run = _run_in_process(*args)
    assert run.returncode == 1
    assert run.stderr.startswith("error: ")
    assert "Traceback" not in run.stderr


def test_compare_emits_three_columns(tmp_path, capsys):
    mtx, rhs = _generate(tmp_path, capsys)
    code = main(["compare", "--matrix", mtx, "--rhs", rhs,
                 "--max-iters", "8"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "iter,bp,jacobi,consensus"
    assert any(l.startswith("# method bp: stop=") for l in lines)
    assert any(l.startswith("# method jacobi: stop=") for l in lines)
    assert any(l.startswith("# method consensus: stop=") for l in lines)
    data = [l for l in lines if not l.startswith("#")][1:]
    assert all(len(l.split(",")) == 4 for l in data)


def test_verify_command_passes(capsys):
    assert main(["verify", "--seed", "3", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "checks passed" in out
    assert "FAIL" not in out


def test_verify_prints_a_skipped_check(capsys):
    # enumeration is guarded to 8 nodes; a skip is not a failure
    assert main(["verify", "--n", "9"]) == 0
    out = capsys.readouterr().out
    assert ("SKIP walk-sum-enumeration: skipped: requested n=9, length=8 "
            "exceed guards (8, 10)\n") in out
    assert out.endswith("all 5 checks passed (seed 0)\n")


@pytest.mark.parametrize("tol, stop, last, code",
                         [(0.0, "max-rounds", 3, 2), (1e300, "delta", 1, 0)])
def test_solve_reads_bps_run_defaults_from_solvers(tmp_path, capsys,
                                                   monkeypatch, tol, stop,
                                                   last, code):
    sig = inspect.signature(solvers.bp_solve).parameters
    assert sig["max_rounds"].default == solvers.BP_MAX_ROUNDS == 500
    assert sig["tol"].default == solvers.TOL_DEFAULT == 1e-10
    mtx, rhs = _loopy(tmp_path, capsys)
    monkeypatch.setattr(solvers, "BP_MAX_ROUNDS", 3)
    monkeypatch.setattr(solvers, "TOL_DEFAULT", tol)
    cli.build_parser.cache_clear()  # --tol's default is read at build
    try:
        assert main(["solve", "--matrix", mtx, "--rhs", rhs]) == code
    finally:
        cli.build_parser.cache_clear()
    out = capsys.readouterr().out
    assert f"# stop: {stop}" in out.splitlines()
    assert _rows(out)[-1].startswith(f"{last},")


def test_trace_is_deterministic(tmp_path):
    mtx, rhs = _generate(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["solve", "--matrix", mtx, "--rhs", rhs,
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_non_finite_input_reports_the_file_line(tmp_path, capsys):
    mtx = tmp_path / "nan.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n1 1 1.0\n2 2 nan\n")
    rhs = tmp_path / "ok.rhs"
    rhs.write_text("1.0\n1.0\n")
    argv = ["analyze", "--matrix", str(mtx), "--rhs", str(rhs)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: line 4: entry (2, 2) has non-finite value nan\n")
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n1 1 1.0\n2 2 1.0\n")
    rhs.write_text("1.0\ninf\n")
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: line 2: non-finite value 'inf'\n")


def test_compare_builds_the_graph_once(tmp_path, capsys, monkeypatch):
    from walksolve import core
    mtx = str(tmp_path / "loopy.mtx")
    assert main(["generate", "--kind", "loopy-small", "--n", "30",
                 "--seed", "2", "--out", mtx]) == 0
    calls = []
    real = core.induced_graph
    monkeypatch.setattr(core, "induced_graph",
                        lambda sys: calls.append(sys) or real(sys))
    assert main(["compare", "--matrix", mtx, "--rhs", mtx[:-4] + ".rhs",
                 "--max-iters", "20"]) == 0
    assert len(calls) == 1


def _loopy(tmp_path, capsys):
    mtx = str(tmp_path / "loopy.mtx")
    assert main(["generate", "--kind", "loopy-small", "--n", "30",
                 "--seed", "2", "--out", mtx]) == 0
    capsys.readouterr()
    return mtx, mtx[:-4] + ".rhs"


def _rows(out):
    return [l for l in out.splitlines() if not l.startswith(("#", "iter"))]


@pytest.mark.parametrize("method", ["bp", "jacobi", "consensus",
                                    "gauss-seidel"])
def test_max_iters_zero_runs_round_zero_only(tmp_path, capsys, method):
    mtx, rhs = _loopy(tmp_path, capsys)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs,
                 "--method", method, "--max-iters", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert [r.split(",")[0] for r in _rows(captured.out)] == ["0"]
    assert "stop=max-rounds" in captured.err


def test_compare_max_iters_zero_writes_round_zero_only(tmp_path, capsys):
    mtx, rhs = _loopy(tmp_path, capsys)
    assert main(["compare", "--matrix", mtx, "--rhs", rhs,
                 "--max-iters", "0"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [r.split(",")[0] for r in rows] == ["0"]


def test_bp_on_a_tree_runs_diameter_rounds_despite_max_iters_zero(
        tmp_path, capsys):
    mtx, rhs = _generate(tmp_path, capsys)
    assert main(["solve", "--matrix", mtx, "--rhs", rhs,
                 "--max-iters", "0"]) == 0
    assert _rows(capsys.readouterr().out)[-1].startswith("4,")


@pytest.mark.parametrize("command", [
    ["solve", "--method", "bp"], ["solve", "--method", "jacobi"],
    ["solve", "--method", "consensus"], ["solve", "--method", "gauss-seidel"],
    ["compare"]], ids=["bp", "jacobi", "consensus", "gauss-seidel", "compare"])
def test_negative_max_iters_is_an_input_error(tmp_path, capsys, command):
    mtx, rhs = _loopy(tmp_path, capsys)
    code = main(command + ["--matrix", mtx, "--rhs", rhs,
                           "--max-iters", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: --max-iters must be >= 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_analyze_refuses_a_bad_tolerance(capsys, tol):
    # rho(|R|) is 1.61 here; a tolerance of -1 once printed "yes"
    golden = Path(__file__).resolve().parent / "golden"
    code = main(["analyze",
                 "--matrix", str(golden / "sparse-not-summable.mtx"),
                 "--rhs", str(golden / "sparse-not-summable.rhs"),
                 f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"error: --tol must be finite and >= 0, "
                            f"got {float(tol)!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", [
    ["solve", "--method", "bp"], ["solve", "--method", "jacobi"],
    ["solve", "--method", "consensus"], ["solve", "--method", "gauss-seidel"],
    ["compare"]], ids=["bp", "jacobi", "consensus", "gauss-seidel", "compare"])
def test_bad_tolerance_is_an_input_error(tmp_path, capsys, monkeypatch,
                                         command, tol):
    from walksolve import cli
    mtx, rhs = _loopy(tmp_path, capsys)

    def refuse(sys_):
        raise AssertionError("the reference was computed")

    monkeypatch.setattr(cli, "dense_solve", refuse)
    code = main(command + ["--matrix", mtx, "--rhs", rhs, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (f"error: --tol must be finite and >= 0, "
                            f"got {float(tol)!r}\n")
    assert captured.out == ""


def test_analyze_reports_a_margin_within_tolerance_as_indeterminate(
        tmp_path, capsys):
    # rho(|R|) = 1 is certified, within tol of 1 from both sides, and its
    # Perron vector (1, 0.5) makes no row strictly dominant
    mtx, rhs = _write_system(tmp_path, SparseSystem(
        2, [(0, 0, 1.0), (0, 1, -2.0), (1, 0, 0.5), (1, 1, 1.0)], [1, 1]))
    assert main(["analyze", "--matrix", mtx, "--rhs", rhs]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["walk-summable"] == "indeterminate (margin within tolerance)"
    assert rep["rho(|R|)"] == "1 (certified, tol 1e-09)"
    assert "margin to 1" not in rep
    assert "scaling certificate" not in rep


def test_analyze_certifies_nothing_from_a_row_sum_rounded_down(tmp_path,
                                                               capsys):
    # each row of |R| sums to 1 + 2**-54 exactly, 1 - 2**-53 in floats
    from test_analysis import _k6
    mtx, rhs = _write_system(tmp_path, _k6())
    assert main(["analyze", "--matrix", mtx, "--rhs", rhs]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["diagonally dominant"] == "no"
    assert rep["walk-summable"] == "indeterminate (margin within tolerance)"
    assert "margin to 1" not in rep
    assert "scaling certificate" not in rep


def test_analyze_reports_an_open_interval_as_indeterminate(tmp_path, capsys,
                                                           monkeypatch):
    mtx, rhs = _generate(tmp_path, capsys)
    report = DominanceReport(
        diag_dominant=False, rho_abs=1.0, rho_tol=1e-9, walk_summable=None,
        scaling=None, rho_reliable=False, rho_lo=0.5, rho_hi=1.5,
        route="inverse")
    monkeypatch.setattr(cli, "analyze", lambda sys_, rho_tol: report)
    assert main(["analyze", "--matrix", mtx, "--rhs", rhs]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["rho(|R|)"] == "1 (estimate only, tol 1e-09)"
    assert rep["walk-summable"] == "indeterminate (interval not closed)"
    assert "margin to 1" not in rep


def test_analyze_certifies_by_a_validated_scaling_within_tolerance(
        tmp_path, capsys):
    # rho(|R|) = 0.614 is certified, and 0.614 + 0.5 is not below 1; but
    # the vector that certified it is a validated scaling, which proves
    # rho < 1 by itself
    mtx = str(tmp_path / "sparse.mtx")
    assert main(["generate", "--kind", "random-sparse", "--n", "40",
                 "--seed", "3", "--coeff-lo", "-0.3", "--coeff-hi", "0.3",
                 "--diag-rule", "unit", "--density", "0.1",
                 "--out", mtx]) == 0
    capsys.readouterr()
    assert main(["analyze", "--matrix", mtx, "--rhs", mtx[:-4] + ".rhs",
                 "--tol", "0.5"]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["walk-summable"] == "yes"
    assert rep["rho(|R|)"].endswith("(certified, tol 0.5)")
    assert float(rep["margin to 1"]) == pytest.approx(1 - 0.614, abs=1e-3)
    assert rep["scaling certificate"] == "present (validated)"


@pytest.mark.parametrize("method", ["jacobi", "gauss-seidel"])
def test_reference_none_leaves_log10_mse_empty(tmp_path, capsys,
                                               monkeypatch, method):
    from walksolve import cli
    mtx, rhs = _loopy(tmp_path, capsys)

    def refuse(sys_):
        raise AssertionError("the reference was computed")

    monkeypatch.setattr(cli, "dense_solve", refuse)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--method", method,
                 "--max-iters", "3", "--reference", "none"])
    captured = capsys.readouterr()
    assert code == 2
    rows = [r.split(",") for r in _rows(captured.out)]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert all(r[1] == "" for r in rows)
    assert "log10_mse" not in captured.err


def test_reference_is_skipped_above_the_dense_limit(tmp_path, capsys,
                                                    monkeypatch):
    from walksolve import cli
    mtx, rhs = _loopy(tmp_path, capsys)
    monkeypatch.setattr(cli, "DENSE_REFERENCE_LIMIT", 10)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--method",
                 "jacobi", "--max-iters", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("# reference: skipped, n=30 exceeds 10\n")
    assert all(r.split(",")[1] == "" for r in _rows(captured.out))


@pytest.mark.parametrize("reference", ["none", "auto"])
def test_compare_without_a_reference_exits_one(tmp_path, capsys,
                                               monkeypatch, reference):
    # with --reference auto the 30-node system is above a limit of 10
    from walksolve import cli
    mtx, rhs = _loopy(tmp_path, capsys)
    monkeypatch.setattr(cli, "DENSE_REFERENCE_LIMIT", 10)
    code = main(["compare", "--matrix", mtx, "--rhs", rhs,
                 "--reference", reference])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.endswith(
        "error: compare needs a dense reference solution\n")


def test_the_parser_is_built_once_and_calls_share_no_arguments(
        tmp_path, capsys, monkeypatch):
    from walksolve import cli
    mtx, rhs = _generate(tmp_path, capsys)
    seen = []
    monkeypatch.setitem(cli._DISPATCH, "solve",
                        lambda args: seen.append(args) or 0)
    io_args = ["solve", "--matrix", mtx, "--rhs", rhs]
    assert main(io_args + ["--force", "--max-iters", "3"]) == 0
    assert main(io_args) == 0
    assert (seen[0].force, seen[0].max_iters) == (True, 3)
    assert (seen[1].force, seen[1].max_iters) == (False, None)
    assert seen[0] is not seen[1]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", [["solve", "--method", m]
                                     for m in ("bp", "jacobi", "consensus",
                                               "gauss-seidel")]
                         + [["compare"]], ids=" ".join)
def test_an_unwritable_out_fails_before_any_round(tmp_path, capsys,
                                                  monkeypatch, command):
    from walksolve import cli
    mtx, rhs = _generate(tmp_path, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("ran before --out was opened")

    for name in ("dense_solve", "run_rounds", "bp_solve"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "missing" / "x.csv"
    code = main(command + ["--matrix", mtx, "--rhs", rhs, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ")
    assert str(out) in captured.err


def test_a_refused_run_leaves_its_out_empty(tmp_path, capsys):
    # --out is opened before the run refuses, as shell redirection is
    sys_ = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.5),
                            (1, 0, -1.5), (1, 1, 1.0)], (1.0, 1.0))
    mtx, rhs = _write_system(tmp_path, sys_)
    for command in (["solve", "--method", "bp"],
                    ["compare", "--reference", "none"]):
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        assert main(command + ["--matrix", mtx, "--rhs", rhs,
                               "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == ""


def test_an_rhs_that_is_not_utf8_names_itself_and_its_line(tmp_path, capsys):
    mtx, rhs = _generate(tmp_path, capsys)
    bad = tmp_path / "bad.rhs"
    bad.write_bytes(b"abc\xff\n")
    assert main(["analyze", "--matrix", mtx, "--rhs", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: line 1: {bad} is not UTF-8 text "
                            "(invalid start byte)\n")
