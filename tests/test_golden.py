"""Byte-for-byte pins of what the command line writes.

Each file under tests/golden/ is one output of a ``walksolve`` command on
a seeded instance: the generated ``.mtx``/``.rhs`` files, ``analyze``
stdout, ``solve`` and ``compare`` CSVs, and ``runs.txt`` with every
command's exit code and stderr.  The test reruns the commands in a
temporary directory and compares the bytes.  After a deliberate change
of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from walksolve.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: generator arguments per instance; both random-sparse systems have a
#: unit diagonal and are not dominant: +-0.3 at mean degree 2.5 is
#: certified walk-summable, +-0.6 at mean degree 4 is not walk-summable
GENERATED = {
    "example1-tree": ["--kind", "example1-tree", "--n", "7"],
    "random-tree": ["--kind", "random-tree", "--n", "50"],
    "loopy-small": ["--kind", "loopy-small", "--n", "30"],
    "sparse-certified": ["--kind", "random-sparse", "--n", "60",
                         "--diag-rule", "unit", "--coeff-lo", "-0.3",
                         "--coeff-hi", "0.3", "--density", repr(2.5 / 60)],
    "sparse-not-summable": ["--kind", "random-sparse", "--n", "60",
                            "--diag-rule", "unit", "--coeff-lo", "-0.6",
                            "--coeff-hi", "0.6", "--density", repr(4 / 60)],
}

#: written by hand, entries out of order: (1, 3) has no reverse entry;
#: (3, 2) is a stored zero whose reverse is not zero; (1, 4) and (4, 1)
#: are both stored zeros, so nodes 1 and 4 are not joined
HAND_MTX = """\
%%MatrixMarket matrix coordinate real general
4 4 13
2 2 3
1 1 4
1 2 -1
4 3 1
1 3 0.5
3 2 0
1 4 0
2 1 -1.25
3 3 2.5
2 3 -0.75
4 1 0
3 4 -0.25
4 4 -2
"""
HAND_RHS = "1\n-2\n0.5\n3\n"

INSTANCES = (*GENERATED, "hand")
SOLVED = ("loopy-small", "sparse-certified", "hand")
METHODS = ("bp", "jacobi", "consensus", "gauss-seidel")
COMPARED = ("loopy-small", "sparse-certified")
#: keeps consensus, which converges slowly, to a short CSV
MAX_ITERS = "40"


def _run(label, argv, log):
    """main(argv) with stdout captured; logs its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    log.append(f"{argv[0]} {label}: exit {rc}\n")
    log.extend(f"  {line}\n" for line in err.getvalue().splitlines())
    return out.getvalue()


def produce(work: Path) -> dict:
    """Run every pinned command in ``work``; returns {file name: bytes}."""
    files = {}
    log = []
    (work / "hand.mtx").write_text(HAND_MTX)
    (work / "hand.rhs").write_text(HAND_RHS)
    for name, args in GENERATED.items():
        _run(name, ["generate", *args, "--seed", "1", "--out",
                    str(work / f"{name}.mtx")], log)
        for ext in ("mtx", "rhs"):
            files[f"{name}.{ext}"] = (work / f"{name}.{ext}").read_bytes()

    def io_args(name):
        return ["--matrix", str(work / f"{name}.mtx"),
                "--rhs", str(work / f"{name}.rhs")]

    for name in INSTANCES:
        files[f"{name}.analyze.txt"] = _run(
            name, ["analyze", *io_args(name)], log).encode()
    runs = [(name, method, ["solve", "--method", method])
            for name in SOLVED for method in METHODS]
    runs += [(name, "compare", ["compare"]) for name in COMPARED]
    for name, label, command in runs:
        csv = work / f"{name}.{label}.csv"
        _run(csv.stem, [*command, *io_args(name), "--max-iters", MAX_ITERS,
                        "--out", str(csv)], log)
        files[csv.name] = csv.read_bytes()
    files["runs.txt"] = "".join(log).encode()
    return files


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


def test_golden_file_set(produced):
    assert sorted(produced) == sorted(p.name for p in GOLDEN.glob("*"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*")))
def test_output_matches_golden(produced, name):
    assert produced.get(name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = produce(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*"):
        stale.unlink()
    for fname, data in outputs.items():
        (GOLDEN / fname).write_bytes(data)
    print(f"wrote {len(outputs)} files to {GOLDEN}", file=sys.stderr)
