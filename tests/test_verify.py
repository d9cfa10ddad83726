import numpy as np
import pytest

from walksolve import oracle, verify
from walksolve.cli import main
from walksolve.core import SparseSystem
from walksolve.errors import WalksolveError
from walksolve.oracle import UnwrappedCheck
from walksolve.solvers import BPProgram
from walksolve.verify import (
    check_message_oracle,
    check_tail_bound,
    check_tree_exactness,
    check_unwrapped,
    check_walk_sums,
    run_all_checks,
    run_message_rounds,
)

from test_edge_kernel import FAULTING


def test_run_message_rounds_shape(path3):
    per_round = run_message_rounds(path3, 3)
    assert len(per_round) == 4
    for msgs in per_round:
        assert sorted(msgs) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_all_checks_pass_at_defaults():
    results = run_all_checks(seed=0)
    assert len(results) == 5
    for res in results:
        assert res.ok, res
        assert not res.skipped
        assert res.cases > 0


def test_checks_pass_under_other_seeds():
    for res in run_all_checks(seed=12345):
        assert res.ok, res


def test_guarded_checks_skip_beyond_limits():
    results = run_all_checks(seed=0, max_n=40)
    by_name = {r.name: r for r in results}
    assert by_name["walk-sum-enumeration"].skipped
    assert by_name["walk-sum-tail-bound"].ok  # clamped, not skipped
    assert by_name["message-oracle-trees"].ok


def _flip_b_sign(g, a_msg, b_msg):
    return a_msg, -b_msg


def _swap_reverse_edges(g, a_msg, b_msg):
    # every edge carries the message of its reverse edge
    return a_msg[g.rev], b_msg[g.rev]


@pytest.mark.parametrize("mutation", [_flip_b_sign, _swap_reverse_edges])
def test_message_oracle_check_catches_mutations(mutation, monkeypatch):
    # the generator's messages are corrupted in every round after round 0
    def messages(self, real=BPProgram.messages):
        for k, (x_hat, a_msg, b_msg) in enumerate(real(self)):
            yield (x_hat, *(mutation(self.sys.graph, a_msg, b_msg) if k
                            else (a_msg, b_msg)))
    monkeypatch.setattr(BPProgram, "messages", messages)
    res = check_message_oracle(seed=0, trees=10)
    assert not res.ok
    assert "edge" in res.detail and "want" in res.detail


def test_individual_checks_report_cases():
    assert check_walk_sums(seed=3, instances=5).cases > 0
    assert check_tail_bound(seed=3, instances=5).cases > 0
    assert check_unwrapped(seed=3, instances=2).cases > 0
    assert check_tree_exactness(seed=3, trees=5).cases == 5


def test_unwrapped_check_reports_a_node_fault(monkeypatch, capsys):
    # the check's first system becomes one where bp faults at node 0,
    # round 2; verify reports it and goes on to the other checks
    monkeypatch.setattr(verify, "system_from_edges",
                        lambda n, edges, seed: FAULTING["incoming"])
    res = check_unwrapped(seed=0, instances=0)
    assert (res.ok, res.cases) == (False, 3)
    assert res.detail.startswith(
        "system#0 root=0 t=2 SingularMessageError: node 0: incoming scalar")
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL unwrapped-equivalence: {res.detail}\n" in out
    assert "PASS tree-exactness" in out


# Each check's FAIL exit, through the one runner: the first failing case
# is counted and its detail is the result.

def test_walk_sum_check_fails_on_a_walk_sum_error(monkeypatch):
    def disagree(sys, i, j, length):
        raise WalksolveError("enumeration and matrix powers disagree")
    monkeypatch.setattr(verify, "partial_walk_sum", disagree)
    res = check_walk_sums(seed=0)
    assert (res.ok, res.skipped, res.cases) == (False, False, 1)
    assert res.detail.startswith("seed=0 (")
    assert res.detail.endswith("): enumeration and matrix powers disagree")


def test_walk_sum_check_fails_on_a_non_finite_sum(monkeypatch):
    monkeypatch.setattr(verify, "partial_walk_sum",
                        lambda sys, i, j, length: float("nan"))
    res = check_walk_sums(seed=2)
    assert (res.ok, res.cases) == (False, 1)
    assert res.detail == "non-finite walk sum at seed=2000"


def test_tail_bound_check_fails_on_a_gap(monkeypatch):
    # the dense inverse, off by 100, is past any bound of the ensemble
    real = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: real(m) + 100.0)
    res = check_tail_bound(seed=0)
    assert (res.ok, res.cases) == (False, 1)
    assert res.detail.startswith("seed=0 n=")
    assert " L=0 tail=" in res.detail and " bound=" in res.detail


def test_tail_bound_check_fails_on_an_ensemble_past_rho_one(monkeypatch):
    # |R| = [[0, 2], [0.5, 0]] has spectral radius 1
    monkeypatch.setattr(verify, "_symmetric_magnitude_system",
                        lambda seed, n: SparseSystem(
                            2, [(0, 0, 1.0), (0, 1, -2.0), (1, 0, 0.5),
                                (1, 1, 1.0)], [1.0, 1.0]))
    res = check_tail_bound(seed=0)
    assert (res.ok, res.cases) == (False, 1)
    assert res.detail.startswith("ensemble bug: rho=")


def test_unwrapped_check_fails_on_a_disagreement(monkeypatch):
    monkeypatch.setattr(
        verify, "unwrapped_equivalence_check",
        lambda sys, i, t: UnwrappedCheck(ok=t < 2, estimate=1.0,
                                         tree_value=2.0, tree_nodes=1, t=t))
    res = check_unwrapped(seed=0)
    assert (res.ok, res.cases) == (False, 3)
    assert res.detail == "system#0 root=0 t=2 estimate=1.0 tree=2.0"


def test_tree_exactness_check_fails_on_an_offset_reference(monkeypatch):
    real = verify.dense_solve
    monkeypatch.setattr(verify, "dense_solve", lambda sys: real(sys) + 1e-6)
    res = check_tree_exactness(seed=1, trees=5)
    assert (res.ok, res.cases) == (False, 1)
    assert res.detail.startswith("seed=2000 n=2 err=")


# The SKIP exit: a guard's TooLargeError, with the cases drawn before it.

def test_unwrapped_check_skips_at_the_tree_guard(monkeypatch):
    monkeypatch.setattr(oracle, "UNWRAP_MAX_NODES", 10)
    res = check_unwrapped(seed=0)
    assert res.ok and res.skipped
    assert res.detail == "skipped: unwrapped tree exceeds 10 nodes"
    assert res.cases == 3  # t = 0, 1, 2 of the 5-node system passed


def test_tail_bound_check_skips_beyond_its_dense_cap():
    res = check_tail_bound(seed=0, max_n=65)
    assert (res.ok, res.skipped, res.cases) == (True, True, 0)
    assert res.detail == "skipped: dense-eigenvalue check capped at n=64, L=12"
