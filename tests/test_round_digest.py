"""Bit identity of the array rounds at the benchmark's widths.

The per-node comparisons stop at n <= 10 and the golden CSVs at n <= 60.
This digest covers each program's run_rounds on generated systems of
100-600 nodes, where the array forms' screens and row layout act: every
round's max_delta, the stop reason, the fault record and the last
round's estimate bytes.  The pinned value was recorded before the
round kernels were last rewritten; a rewrite that changes any bit moves
it.
"""
import hashlib

from walksolve.core import GeneratorSpec, generate_instance
from walksolve.engine import run_rounds
from walksolve.solvers import BPProgram, ConsensusProgram, JacobiProgram

DIGEST = "6b60527f7b0aa045962ddfc9b5d4da542c9d1e39cba0e7657d54dc166d2d6f2d"


def round_digest() -> str:
    h = hashlib.sha256()
    for kind in ("loopy-small", "random-tree"):
        for n in (100, 300, 600):
            for seed in (0, 1):
                sys = generate_instance(GeneratorSpec(kind=kind, n=n,
                                                      seed=seed))
                for cls in (BPProgram, JacobiProgram, ConsensusProgram):
                    trace = run_rounds(cls(sys), 60, tol=1e-10)
                    h.update(repr((kind, n, seed, cls.__name__,
                                   [r.max_delta for r in trace.rounds],
                                   trace.stop_reason,
                                   trace.fault)).encode())
                    h.update(trace.final_estimates.tobytes())
    return h.hexdigest()


def test_array_rounds_keep_their_bits_at_benchmark_scale():
    assert round_digest() == DIGEST
