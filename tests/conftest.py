from itertools import islice

import numpy as np
import pytest

from walksolve.core import SparseSystem
from walksolve.engine import node_rounds
from walksolve.errors import SolverError
from walksolve.solvers import BPProgram, ConsensusProgram, JacobiProgram

# Roster lines collected by test_acceptance; replayed after the run so
# the per-criterion verdicts survive output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance roster")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def two_node():
    # A = [[2, -1], [-0.5, 2]], b = [2, 4]; solution worked out by hand:
    # det = 3.5, x = [ (2*2 + 1*4)/3.5, (0.5*2 + 2*4)/3.5 ] = [16/7, 18/7]
    entries = [(0, 0, 2.0), (0, 1, -1.0), (1, 0, -0.5), (1, 1, 2.0)]
    return SparseSystem(2, entries, [2.0, 4.0])


@pytest.fixture
def path3():
    # A = [[2,-1,0],[-1,2,-1],[0,-1,2]], b = [1,2,3]; elimination by hand
    # gives x = [2.5, 4, 3.5]
    entries = [(0, 0, 2.0), (0, 1, -1.0),
               (1, 0, -1.0), (1, 1, 2.0), (1, 2, -1.0),
               (2, 1, -1.0), (2, 2, 2.0)]
    return SparseSystem(3, entries, [1.0, 2.0, 3.0])


TWO_NODE_SOLUTION = np.array([16.0 / 7.0, 18.0 / 7.0])
PATH3_SOLUTION = np.array([2.5, 4.0, 3.5])


class PerNodeBP(BPProgram):
    """BPProgram without its array form: runs on node_rounds."""

    rounds = node_rounds


class PerNodeJacobi(JacobiProgram):
    """JacobiProgram without its array form: runs on node_rounds."""

    rounds = node_rounds


class PerNodeConsensus(ConsensusProgram):
    """ConsensusProgram without its array form: runs on node_rounds."""

    rounds = node_rounds


def kernel_rounds(program, rounds):
    """Rounds 0..rounds of program.rounds, which run_rounds drives, as a
    list of (estimates, first) pairs, and the SolverError that ended them
    early, or None.  The trace keeps no per-round estimates, so tests that
    check every round read the generator themselves."""
    out = []
    try:
        for pair in islice(program.rounds(), rounds + 1):
            out.append(pair)
    except SolverError as exc:
        return out, exc
    return out, None


def kernel_estimates(program, rounds):
    """Every round's estimates, 0..rounds, of a run that must not fault."""
    out, exc = kernel_rounds(program, rounds)
    assert exc is None, exc
    return [estimates for estimates, _ in out]
