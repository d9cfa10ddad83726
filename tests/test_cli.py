import os
import subprocess
import sys
from pathlib import Path

import pytest

from walksolve.cli import main
from walksolve.mmio import write_matrix_market, write_rhs


def _generate(tmp_path, capsys=None):
    mtx = str(tmp_path / "sys.mtx")
    rhs = str(tmp_path / "sys.rhs")
    args = ["generate", "--kind", "example1-tree", "--n", "7",
            "--seed", "1", "--out", mtx, "--rhs", rhs]
    assert main(args) == 0
    if capsys is not None:
        capsys.readouterr()  # drop the generate banner
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
    # the default density 0.3 expects ~1.5e9 edges at n = 100000
    out = tmp_path / "big.mtx"
    assert main(["generate", "--kind", "random-sparse", "--n", "100000",
                 "--seed", "0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: random-sparse n=100000 ")
    assert "more than 1000000" in captured.err
    assert list(tmp_path.iterdir()) == []


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
    from walksolve.core import SparseSystem
    sys_ = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.5),
                            (1, 0, -1.5), (1, 1, 1.0)], (1.0, 1.0))
    mtx, rhs = str(tmp_path / "m.mtx"), str(tmp_path / "m.rhs")
    write_matrix_market(sys_, mtx)
    write_rhs(sys_.b, rhs)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--method", "bp"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not walk-summable (rho(|R|) in [1.5, 1.5])" in captured.err
    assert "rerun with --force" in captured.err


def test_solve_fault_exits_three(tmp_path, capsys):
    from walksolve.core import SparseSystem
    # singular pair: the round-1 belief coefficient cancels to zero
    sys_ = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.0),
                            (1, 0, -1.0), (1, 1, 1.0)], (1.0, 2.0))
    mtx, rhs = str(tmp_path / "m.mtx"), str(tmp_path / "m.rhs")
    write_matrix_market(sys_, mtx)
    write_rhs(sys_.b, rhs)
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
    from walksolve.core import SparseSystem
    # dominant, but b_i / a_ii = 1e300 / 1e-100 overflows at round 0
    sys_ = SparseSystem(2, [(0, 0, 1e-100), (0, 1, 1e-101),
                            (1, 0, 1e-101), (1, 1, 1e-100)], (1e300, 1e300))
    mtx, rhs = str(tmp_path / "m.mtx"), str(tmp_path / "m.rhs")
    write_matrix_market(sys_, mtx)
    write_rhs(sys_.b, rhs)
    code = main(["solve", "--matrix", mtx, "--rhs", rhs, "--method", "bp"])
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.out.splitlines()
    assert "# stop: fault" in lines
    assert lines[-2:] == ["iter,log10_mse,max_delta,messages",
                          "# fault: node 0 round 0: DivergedEstimateError"]
    assert "method=bp rounds=0 stop=fault" in captured.err


def test_solve_consensus_fault_writes_no_numpy_warning(tmp_path):
    # A = [[1, 1e160], [1, 1]], b = [1, 1e150]: node 0's round-1
    # projection overflows.  A separate process, so that stderr is what a
    # user sees rather than what pytest's warning capture collects.
    from walksolve.core import SparseSystem
    sys_ = SparseSystem(2, [(0, 0, 1.0), (0, 1, 1e160), (1, 0, 1.0),
                            (1, 1, 1.0)], (1.0, 1e150))
    mtx, rhs = str(tmp_path / "m.mtx"), str(tmp_path / "m.rhs")
    write_matrix_market(sys_, mtx)
    write_rhs(sys_.b, rhs)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from walksolve.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "solve", "--matrix", mtx, "--rhs",
         rhs, "--method", "consensus", "--max-iters", "3"],
        capture_output=True, text=True, env=env, check=False)
    assert run.returncode == 3
    assert "# fault: node 0 round 1: DivergedEstimateError" in run.stdout
    assert "RuntimeWarning" not in run.stderr


def test_solve_gauss_seidel_overflow_is_not_converged(tmp_path, capsys):
    from walksolve.core import SparseSystem
    # the sweeps grow 1e30-fold until they overflow to inf
    sys_ = SparseSystem(2, [(0, 0, 1e-30), (0, 1, -1.0),
                            (1, 0, -1.0), (1, 1, 1.0)], (1.0, 1.0))
    mtx, rhs = str(tmp_path / "m.mtx"), str(tmp_path / "m.rhs")
    write_matrix_market(sys_, mtx)
    write_rhs(sys_.b, rhs)
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
    # rho(|R|) = 0.614 is certified, but 0.614 + 0.5 is not below 1
    mtx = str(tmp_path / "sparse.mtx")
    assert main(["generate", "--kind", "random-sparse", "--n", "40",
                 "--seed", "3", "--coeff-lo", "-0.3", "--coeff-hi", "0.3",
                 "--diag-rule", "unit", "--density", "0.1",
                 "--out", mtx]) == 0
    capsys.readouterr()
    assert main(["analyze", "--matrix", mtx, "--rhs", mtx[:-4] + ".rhs",
                 "--tol", "0.5"]) == 0
    rep = _report(capsys.readouterr().out)
    assert rep["walk-summable"] == "indeterminate (margin within tolerance)"
    assert rep["rho(|R|)"].endswith("(certified, tol 0.5)")
    assert "margin to 1" not in rep
    assert "scaling certificate" not in rep


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
