"""Bit identity of the array rounds at the benchmark's widths.

The per-node comparisons stop at n <= 10 and the golden CSVs at n <= 60.
These digests cover each program's run_rounds on generated systems of
100-600 nodes, where the array forms' screens and row layout act.  The
first hashes every round's max_delta, the stop reason, the fault record
and the last round's estimate bytes.  The second hashes what a run
measures against a dense reference: every round's log10_mse against
dense_solve and its positivity_violations.  The pinned values were
recorded before the round kernels were last rewritten; a rewrite that
changes any bit moves them.

dense_solve's LU takes different bits at n >= 300 with one OpenBLAS
thread and with two, so the second digest is computed in a child
process with BLAS pinned to one thread, as the benchmark runs.  So is
the third, which runs bp and Jacobi for 700 rounds and consensus for
200 with tol=0.0 against dense_solve and hashes every round's log10_mse
and max_delta, the stop and the fault: its runs cross the engine's
blocks of rounds (ROUND_BLOCK_FLOATS) and end at the cap or at a delta
stop in the middle of one.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

from walksolve.core import GeneratorSpec, generate_instance
from walksolve.engine import run_rounds
from walksolve.solvers import (BPProgram, ConsensusProgram, JacobiProgram,
                               dense_solve)

DIGEST = "6b60527f7b0aa045962ddfc9b5d4da542c9d1e39cba0e7657d54dc166d2d6f2d"
REFERENCE_DIGEST = (
    "78adcdadc90976f92a35cf65d00ed6f0631c48cf08b5b993d480340beae24936")
LONG_DIGEST = (
    "3fc9c4e35cffce86a0f72eca63b35e6a020d95fa06cbf58cf401106fd4c9e467")


def _systems():
    for kind in ("loopy-small", "random-tree"):
        for n in (100, 300, 600):
            for seed in (0, 1):
                yield kind, n, seed, generate_instance(
                    GeneratorSpec(kind=kind, n=n, seed=seed))


def round_digest() -> str:
    h = hashlib.sha256()
    for kind, n, seed, sys in _systems():
        for cls in (BPProgram, JacobiProgram, ConsensusProgram):
            trace = run_rounds(cls(sys), 60, tol=1e-10)
            h.update(repr((kind, n, seed, cls.__name__,
                           [r.max_delta for r in trace.rounds],
                           trace.stop_reason,
                           trace.fault)).encode())
            h.update(trace.final_estimates.tobytes())
    return h.hexdigest()


def reference_digest() -> str:
    h = hashlib.sha256()
    for kind, n, seed, sys in _systems():
        reference = dense_solve(sys)
        for cls in (BPProgram, JacobiProgram, ConsensusProgram):
            trace = run_rounds(cls(sys), 60, tol=1e-10, reference=reference)
            h.update(repr((kind, n, seed, cls.__name__,
                           [r.log10_mse for r in trace.rounds],
                           [r.positivity_violations
                            for r in trace.rounds])).encode())
    return h.hexdigest()


def long_digest() -> str:
    h = hashlib.sha256()
    for n in (100, 300):
        for seed in (0, 1):
            sys = generate_instance(
                GeneratorSpec(kind="loopy-small", n=n, seed=seed))
            reference = dense_solve(sys)
            runs = [(BPProgram, 700), (JacobiProgram, 700)]
            if n == 100:
                runs.append((ConsensusProgram, 200))
            for cls, max_rounds in runs:
                trace = run_rounds(cls(sys), max_rounds, tol=0.0,
                                   reference=reference)
                h.update(repr((n, seed, cls.__name__,
                               [r.log10_mse for r in trace.rounds],
                               [r.max_delta for r in trace.rounds],
                               trace.stop_reason, trace.fault)).encode())
    return h.hexdigest()


def _one_blas_thread(name: str) -> str:
    """The digest function ``name`` of this module, computed in a child
    process with BLAS pinned to one thread."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, (
                   str(here.parent / "src"), str(here),
                   os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-c", f"from test_round_digest import "
         f"{name}; print({name}())"],
        capture_output=True, text=True, env=env, check=True)
    return run.stdout.strip()


def test_array_rounds_keep_their_bits_at_benchmark_scale():
    assert round_digest() == DIGEST


def test_reference_side_round_bits_hold_at_benchmark_scale():
    assert _one_blas_thread("reference_digest") == REFERENCE_DIGEST


def test_long_runs_keep_their_bits_across_round_blocks():
    assert _one_blas_thread("long_digest") == LONG_DIGEST
