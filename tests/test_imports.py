"""Which parts of scipy each command loads.

The solvers are numpy arithmetic; scipy serves the dense reference
(``scipy.linalg``) and the analysis and oracles (``scipy.sparse``).  Each
case runs in a fresh interpreter and reads ``sys.modules`` after the
call, so that a module-level scipy import anywhere in the package shows.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
TREE = ["--matrix", str(GOLDEN / "random-tree.mtx"),
        "--rhs", str(GOLDEN / "random-tree.rhs")]

#: imports the package, runs ``cli.main`` on the arguments if any, then
#: prints the loaded scipy modules as the last line of stdout
PROBE = """\
import json, sys
import walksolve
if sys.argv[1:]:
    from walksolve import cli
    code = cli.main(sys.argv[1:])
else:
    code = 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


def _probe(*args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(HERE.parent / "src"), os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=cwd,
                         capture_output=True, text=True, env=env, check=True)
    out, _, last = run.stdout.rstrip("\n").rpartition("\n")
    return out, set(json.loads(last))


@pytest.mark.parametrize("args, loaded", [
    ([], set()),
    (["generate", "--kind", "random-tree", "--n", "20", "--seed", "3",
      "--out", "t.mtx"], set()),
    (["solve", "--method", "bp", *TREE, "--out", "bp.csv"], {"scipy.linalg"}),
    (["solve", "--method", "jacobi", "--reference", "none", *TREE,
      "--out", "jacobi.csv"], set()),
], ids=["import", "generate", "solve-bp", "solve-jacobi-no-reference"])
def test_a_command_loads_only_the_scipy_it_uses(tmp_path, args, loaded):
    _, modules = _probe(*args, cwd=tmp_path)
    assert {"scipy.linalg", "scipy.sparse"} & modules == loaded
    if not loaded:
        assert modules == set()


def test_analyze_loads_scipy_sparse_and_prints_the_same_report(tmp_path):
    out, modules = _probe("analyze", *TREE, cwd=tmp_path)
    assert "scipy.sparse" in modules
    assert out + "\n" == (GOLDEN / "random-tree.analyze.txt").read_text()
