"""The benchmark's per-layer tracer still finds what it wraps.

bench/tracing.py replaces walksolve functions and program methods by
name; a rename in walksolve would otherwise break only ``--trace 1``
runs of the benchmark.  The module is imported from its file, unchanged.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from walksolve import cli, engine

from conftest import PerNodeBP

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing):
    """Every attribute a Tracer may replace, with its current value."""
    modules = [m for name, m in sys.modules.items()
               if name == "walksolve" or name.startswith("walksolve.")]
    out = {}
    for mod_name, attr in tracing.FUNCTIONS:
        for mod in modules:
            if hasattr(mod, attr):
                out[(mod.__name__, attr)] = getattr(mod, attr)
    for mod_name, cls_name, method, _ in tracing.METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        out[(cls_name, method)] = cls.__dict__[method]
    return out


def test_tracer_spans_a_solve_and_an_analyze(tracing, tmp_path, capsys):
    mtx = str(tmp_path / "loopy.mtx")
    rhs = str(tmp_path / "loopy.rhs")
    assert cli.main(["generate", "--kind", "loopy-small", "--n", "20",
                     "--seed", "3", "--out", mtx]) == 0
    io_args = ["--matrix", mtx, "--rhs", rhs]
    before = _bindings(tracing)
    with tracing.Tracer() as tracer:
        assert cli.main(["solve", *io_args, "--method", "jacobi"]) == 0
        assert cli.main(["analyze", *io_args]) == 0
    capsys.readouterr()
    for span in ("SparseSystem", "induced_graph", "run_rounds", "analyze",
                 "program_setup", "main"):
        assert tracer.calls[span] > 0, span
    assert tracer.counts["rounds"] > 0
    assert tracer.counts["bytes_read"] > 0
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_tracer_spans_the_per_node_transitions(tracing, path3):
    # the per-node kernel calls BPProgram's own init_node and step, the
    # methods the tracer wraps: one bp_step span per node and round
    with tracing.Tracer() as tracer:
        trace = engine.run_rounds(PerNodeBP(path3), 2)
    assert trace.fault is None
    assert tracer.calls["bp_step"] == path3.n * 3
    assert tracer.calls["run_rounds"] == 1
    assert tracer.self_time["run_rounds"] < tracer.time["run_rounds"]
