import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walksolve import analysis
from walksolve.analysis import (
    DominanceReport,
    analyze,
    find_gdd_scaling,
    is_diagonally_dominant,
    residual_matrix,
    spectral_radius_nonneg,
)
from walksolve.core import (GeneratorSpec, SparseSystem, UndirectedGraph,
                            generate_instance)
from walksolve.errors import (
    DimensionMismatchError,
    InvalidSystemError,
    NoConvergenceError,
)
from walksolve.mmio import load_system
from walksolve.solvers import bp_solve, dense_solve

from test_golden import HAND_MTX, HAND_RHS


def _pattern(r):
    rows = np.repeat(np.arange(r.shape[0]), np.diff(r.indptr))
    return UndirectedGraph(r.shape[0], np.column_stack((rows, r.indices)))


def test_residual_matrix_values(two_node, tmp_path):
    r = residual_matrix(two_node)
    # r_ij = -a_ij / a_ii: r_01 = 1/2, r_10 = 0.5/2
    assert type(r) is sp.csr_matrix and r.has_canonical_format
    assert not any(a.flags.writeable for a in (r.data, r.indices, r.indptr))
    assert np.array_equal(r.toarray(), np.array([[0.0, 0.5], [0.25, 0.0]]))
    assert analysis._abs_residual_csr(two_node).toarray()[0, 1] == 0.5
    assert _pattern(r).edges() == two_node.graph.edges() == ((0, 1),)
    # the golden hand matrix has a one-directional entry and stored zeros
    (tmp_path / "hand.mtx").write_text(HAND_MTX)
    (tmp_path / "hand.rhs").write_text(HAND_RHS)
    sys = load_system(tmp_path / "hand.mtx", tmp_path / "hand.rhs")
    a = sys.as_dense()
    want = -a / np.diag(a)[:, None]
    np.fill_diagonal(want, 0.0)
    r = residual_matrix(sys)
    assert np.array_equal(r.toarray(), want)
    joined = (want != 0.0) | (want.T != 0.0)
    assert _pattern(r).edges() == sys.graph.edges() == tuple(
        (i, j) for i in range(4) for j in range(i + 1, 4) if joined[i, j])
    assert sys.graph.edges() == ((0, 1), (0, 2), (1, 2), (2, 3))


def test_residual_matrix_keeps_an_underflowed_entry():
    # r_01 = -1e-30 / 1e300 underflows: R stores it as -0.0, |R| drops it
    sys = SparseSystem(2, [(0, 0, 1e300), (0, 1, 1e-30), (1, 0, -1.0),
                           (1, 1, 2.0)], [1.0, 1.0])
    r = residual_matrix(sys)
    assert r.nnz == 2 and r.has_canonical_format
    assert r.data.tolist() == [0.0, 0.5] and np.signbit(r.data[0])
    assert _pattern(r).edges() == sys.graph.edges() == ((0, 1),)
    assert analysis._abs_residual_csr(sys).nnz == 1


def test_spectral_radius_two_cycle(two_node):
    # rho(|R|) = sqrt(0.5 * 0.25) by hand
    rho = spectral_radius_nonneg(np.abs(residual_matrix(two_node).toarray()))
    assert rho == pytest.approx(math.sqrt(0.125), abs=2e-9)


def test_spectral_radius_asymmetric_cycle():
    # [[0, 1.21], [1, 0]] has radius sqrt(1.21) = 1.1 exactly
    rho = spectral_radius_nonneg(np.array([[0.0, 1.21], [1.0, 0.0]]))
    assert rho == pytest.approx(1.1, abs=2e-9)


def test_spectral_radius_bipartite_star():
    # symmetric star: eigenvalues are +-c*sqrt(2) and 0; the periodic
    # pattern defeats a plain power iteration but not the bracketing one
    c = 0.3
    m = np.array([[0.0, c, c], [c, 0.0, 0.0], [c, 0.0, 0.0]])
    rho = spectral_radius_nonneg(m)
    assert rho == pytest.approx(c * math.sqrt(2.0), abs=2e-9)


def test_spectral_radius_zero_and_validation():
    assert spectral_radius_nonneg(np.zeros((3, 3))) == 0.0
    assert spectral_radius_nonneg(np.zeros((0, 0))) == 0.0
    assert spectral_radius_nonneg(sp.csr_matrix((4, 4))) == 0.0
    with pytest.raises(InvalidSystemError, match="nonnegative"):
        spectral_radius_nonneg(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        spectral_radius_nonneg(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatchError, match=r"shape \(3,\)"):
        spectral_radius_nonneg(np.zeros(3))
    with pytest.raises(InvalidSystemError, match="non-finite"):
        spectral_radius_nonneg(np.array([[0.0, np.inf], [1.0, 0.0]]))


def test_spectral_radius_reducible_reports_bracket():
    # two disconnected 2-cycles with radii sqrt(0.06) and 0.9: each
    # strongly connected component is bounded on its own, so the
    # interval closes on 0.9 (an open one is test_arpack_failure_...)
    m = np.zeros((4, 4))
    m[0, 1] = 1.2
    m[1, 0] = 0.05
    m[2, 3] = 0.9
    m[3, 2] = 0.9
    assert spectral_radius_nonneg(m) == pytest.approx(0.9, abs=1e-12)


def test_analyze_squaring_fallback_on_reducible():
    # same split pattern as a system; row 0 is not dominant (1.2 > 1) so
    # the verdict must come from the certified interval
    entries = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0),
               (0, 1, -1.2), (1, 0, -0.05), (2, 3, -0.9), (3, 2, -0.9)]
    sys = SparseSystem(4, entries, [1.0, 1.0, 1.0, 1.0])
    rep = analyze(sys)
    assert not rep.diag_dominant
    assert rep.rho_reliable
    assert rep.rho_abs == pytest.approx(0.9, abs=1e-9)
    assert rep.walk_summable is True


def test_analyze_nilpotent_pattern():
    # strictly one-directional coupling: |R| is nilpotent, radius 0
    sys = SparseSystem(2, [(0, 0, 1.0), (0, 1, -0.5), (1, 1, 1.0)],
                       [1.0, 1.0])
    rep = analyze(sys)
    assert rep.diag_dominant
    assert rep.rho_abs == 0.0
    assert rep.walk_summable is True


#: r_01 = 0.973 / 6.77e-309 is finite but near the largest float, and
#: it crosses from node 0's component to node 1's
CROSS_OVERFLOW = SparseSystem(2, [(0, 0, -6.77e-309), (0, 1, 0.973),
                                  (1, 1, -5.09e-201)], [1.0, 1.0])


def test_analyze_scales_an_overflowing_cross_term_without_warning():
    # scaling component 0 to cover r_01 overflows; the non-finite
    # candidate is refused, and the verdict rests on rho = 0
    rep = analyze(CROSS_OVERFLOW)
    assert not rep.diag_dominant
    assert (rep.rho_lo, rep.rho_hi, rep.route) == (0.0, 0.0, "dominance")
    assert rep.walk_summable is True
    assert rep.scaling is None


def test_analyze_not_walk_summable():
    # symmetric 2-cycle with residual 1.5 on both arcs: radius 1.5
    sys = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.5), (1, 0, -1.5),
                           (1, 1, 1.0)], [1.0, 1.0])
    rep = analyze(sys)
    assert not rep.diag_dominant
    assert rep.rho_abs == pytest.approx(1.5, abs=2e-9)
    assert rep.walk_summable is False
    assert rep.scaling is None


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    # rho(|R|) is 1.59 here: a tolerance of -1 once turned the verdict to
    # walk-summable, and a NaN one skipped certification
    sys = generate_instance(GeneratorSpec(
        kind="random-sparse", n=60, seed=0, diag_rule="unit",
        coeff_range=(-0.6, 0.6), density=4 / 60))
    assert analyze(sys).rho_lo > 1.5
    # a dominant system and an empty matrix take short-cuts past the
    # certification, and are refused all the same
    dominant = generate_instance(GeneratorSpec(kind="loopy-small", n=30,
                                               seed=1))
    assert is_diagonally_dominant(dominant)
    calls = [lambda: analyze(sys, rho_tol=tol),
             lambda: find_gdd_scaling(sys, rho_tol=tol),
             lambda: find_gdd_scaling(dominant, rho_tol=tol),
             lambda: spectral_radius_nonneg(
                 analysis._abs_residual_csr(sys), tol=tol),
             lambda: spectral_radius_nonneg(np.zeros((0, 0)), tol=tol)]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be finite"):
            call()


def test_analyze_indeterminate_beyond_fallback_guard():
    # a large reducible pattern is certified per component (yes, at 0.9);
    # a radius within rho_tol of 1 is reported indeterminate, not guessed
    n = 2100
    entries = [(i, i, 1.0) for i in range(n)]
    entries += [(0, 1, -1.2), (1, 0, -0.05), (2, 3, -0.9), (3, 2, -0.9)]
    rep = analyze(SparseSystem(n, entries, [0.0] * n))
    assert not rep.diag_dominant
    assert rep.walk_summable is True and rep.rho_reliable
    assert rep.rho_abs == pytest.approx(0.9, abs=1e-12)
    # |R| = [[0, 2], [0.5, 0]] on two nodes: rho = 1 exactly
    entries[-4:-2] = [(0, 1, -2.0), (1, 0, -0.5)]
    rep = analyze(SparseSystem(n, entries, [0.0] * n))
    assert rep.rho_reliable
    assert rep.rho_lo <= 1.0 <= rep.rho_hi
    assert rep.walk_summable is None
    assert rep.scaling is None


def test_dominance_check(two_node):
    assert is_diagonally_dominant(two_node)
    tie = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.0), (1, 1, 2.0)],
                       [0.0, 0.0])
    assert not is_diagonally_dominant(tie)  # equality is not enough


def _off_diagonal_sum(sys, i, d):
    """sum_j |a_ij| d_j over row i's off-diagonal entries, in column order."""
    lo, hi = sys.indptr[i], sys.indptr[i + 1]
    return sum(abs(v) * d[j] for j, v in zip(sys.indices[lo:hi].tolist(),
                                             sys.data[lo:hi].tolist())
               if j != i)


def _loop_validate_scaling(sys, d):
    """The row-by-row check, summing each row's terms in column order,
    with _validate_scaling's allowance for their rounding."""
    for i in range(sys.n):
        off = _off_diagonal_sum(sys, i, d)
        slack = int(sys.indptr[i + 1] - sys.indptr[i] + 2) * 2.0 ** -52
        if not (float(abs(sys.diag[i])) * d[i] * (1.0 - 2.0 ** -52)
                > off * (1.0 + slack) + slack * 2.0 ** -1022):
            return False
    return True


def test_validate_scaling_matches_the_row_loop():
    rng = np.random.default_rng(3)
    checked = {False: 0, True: 0}
    for seed in range(40):
        sys = generate_instance(GeneratorSpec(
            kind="random-sparse", n=12, seed=seed, coeff_range=(-0.4, 0.4),
            diag_rule="unit", density=0.3))
        for d in (np.ones(sys.n), rng.uniform(0.5, 1.5, sys.n)):
            want = _loop_validate_scaling(sys, d.tolist())
            assert analysis._validate_scaling(sys, d) is want, seed
            checked[want] += 1
    assert min(checked.values()) > 0


def _k6():
    """K6 with a_ii = 1 and each row's off-diagonals, in column order,
    -0.75, -2**-54 (three times) and -(0.25 - 2**-53): each row of |R|
    sums to 1 + 2**-54 exactly, but to 1 - 2**-53 in floats."""
    entries = []
    for i in range(6):
        others = [j for j in range(6) if j != i]
        entries += [(i, i, 1.0)] + [(i, j, -v) for j, v in zip(others, (
            0.75, 2.0 ** -54, 2.0 ** -54, 2.0 ** -54, 0.25 - 2.0 ** -53))]
    return SparseSystem(6, entries, [1.0] * 6)


def test_a_row_sum_rounded_below_the_diagonal_certifies_nothing():
    # rho(|R|) = 1 + 2**-54: not dominant, and no scaling exists
    sys = _k6()
    assert not is_diagonally_dominant(sys)
    rep = analyze(sys)
    assert not rep.diag_dominant
    assert rep.scaling is None
    assert rep.walk_summable is None and rep.rho_reliable


def _exactly_dominant(sys, d):
    """|a_ii| d_i > sum_j |a_ij| d_j in every row, in rational arithmetic
    over the stored floats and d."""
    d = [Fraction(x) for x in np.asarray(d, dtype=float).tolist()]
    bounds = sys.indptr.tolist()
    cols, vals = sys.indices.tolist(), sys.data.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        terms = {j: abs(Fraction(v)) * d[j]
                 for j, v in zip(cols[lo:hi], vals[lo:hi])}
        if not terms.pop(i) > sum(terms.values()):
            return False
    return True


@st.composite
def near_equality_systems(draw):
    """(system, d) for n <= 8, d > 0 (all ones half the time), with each
    row's sum_j |a_ij| d_j drawn below |a_ii| d_i by 0 to 2**t ulps of it,
    t drawn per system, or by -3 to 3 ulps in a third of the rows, spread
    over terms of mixed sizes (some 2**-54 of the rest), stored zeros and
    mixed signs.  The rows are nearly tight, so rho(|R|) is near 1."""
    n = draw(st.integers(2, 8))
    t = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = np.ones(n) if draw(st.booleans()) else rng.uniform(0.5, 1.5, n)
    entries = []
    for i in range(n):
        a_ii = float(rng.choice([1.0, -1.0, 0.5, 3.0, 1e-3]))
        others = [j for j in range(n) if j != i]
        cols = [j for j in others if rng.random() < 0.7] or others[:1]
        w = rng.random(len(cols)) * np.where(rng.random(len(cols)) < 0.3,
                                             2.0 ** -54, 1.0)
        ulps = int(rng.integers(-3, 4) if rng.random() < 1 / 3
                   else rng.integers(0, 2 ** t))
        target = abs(a_ii) * d[i] * (1.0 - ulps * 2.0 ** -53)
        mags = target * (w / w.sum()) / d[cols]
        signs = rng.choice([-1.0, 1.0], len(cols))
        entries += [(i, i, a_ii)] + [(i, j, float(v)) for j, v in zip(
            cols, signs * mags)]
        entries += [(i, j, 0.0) for j in others
                    if j not in cols and rng.random() < 0.3]
    return SparseSystem(n, entries, [1.0] * n), d


@settings(max_examples=300, deadline=None)
@given(near_equality_systems())
@example((_k6(), np.ones(6)))
def test_every_certificate_is_exactly_dominant(case):
    # whatever passes in floats must hold over the rationals
    sys, d = case
    if analysis._validate_scaling(sys, d):
        assert _exactly_dominant(sys, d)
    if is_diagonally_dominant(sys):
        assert _exactly_dominant(sys, np.ones(sys.n))
    rep = analyze(sys)
    if rep.scaling is not None:
        assert _exactly_dominant(sys, rep.scaling)


def test_gdd_scaling_dominant_is_ones(two_node):
    d = find_gdd_scaling(two_node)
    assert np.array_equal(d, [1.0, 1.0]) and not d.flags.writeable


def _gdd_two_node():
    # |R| = [[0, 1.2], [0.3, 0]]: walk-summable (radius 0.6), not dominant
    return SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.2), (1, 0, -1.2),
                            (1, 1, 4.0)], [0.0, 0.0])


def test_gdd_scaling_non_dominant_certificate():
    # any returned d must strictly dominate after column scaling
    sys = _gdd_two_node()
    assert not is_diagonally_dominant(sys)
    d = find_gdd_scaling(sys)
    assert d is not None
    for i in range(sys.n):
        assert abs(sys.diag[i]) * d[i] > _off_diagonal_sum(sys, i, d)
    rep = analyze(sys)
    assert rep.walk_summable is True
    assert rep.scaling is not None


def _sparse(seed, coeff, degree):
    return generate_instance(GeneratorSpec(
        kind="random-sparse", n=300, seed=seed, coeff_range=(-coeff, coeff),
        diag_rule="unit", density=degree / 300))


# walk-summable but not dominant; not walk-summable; dominant
SPARSE_CASES = [(seed, coeff, degree) for seed in (0, 1, 2)
                for coeff, degree in ((0.3, 2.5), (0.6, 4.0), (0.1, 2.0))]


@pytest.mark.parametrize("case", ["gdd-2x2"] + SPARSE_CASES, ids=str)
def test_analyze_single_bracket_is_exact(case):
    # analyze runs one certification for rho and the scaling; both must
    # equal what the separate public routes compute, bit for bit, and
    # the interval must hold the dense spectral radius
    sys = _gdd_two_node() if case == "gdd-2x2" else _sparse(*case)
    rep = analyze(sys)
    abs_r = sp.csr_matrix(np.abs(residual_matrix(sys).toarray()))
    assert rep.rho_reliable
    assert rep.rho_abs == spectral_radius_nonneg(abs_r)
    assert rep.rho_abs == 0.5 * (rep.rho_lo + rep.rho_hi)
    assert rep.route in ("dominance", "perron", "inverse")
    dense = float(np.max(np.abs(np.linalg.eigvals(abs_r.toarray()))))
    assert rep.rho_lo <= dense * (1 + 1e-12)
    assert rep.rho_hi >= dense * (1 - 1e-12)
    if rep.walk_summable:
        assert rep.scaling is not None
        assert np.array_equal(rep.scaling, find_gdd_scaling(sys))
        assert not rep.scaling.flags.writeable
    else:
        assert rep.scaling is None
    if case == "gdd-2x2" or case[1:] == (0.3, 2.5):
        assert not rep.diag_dominant and rep.walk_summable
        assert np.any(rep.scaling != 1.0)  # the Perron candidate, not ones


def test_gdd_scaling_absent_when_not_walk_summable():
    sys = SparseSystem(2, [(0, 0, 1.0), (0, 1, -1.5), (1, 0, -1.5),
                           (1, 1, 1.0)], [0.0, 0.0])
    assert find_gdd_scaling(sys) is None


def test_a_validated_scaling_certifies_within_tolerance_of_one():
    # rho(|R|) = 1 - 1e-10 lies within rho_tol of 1, so its interval
    # decides nothing; the vector that certified it, (1, 0.5), validates
    # as a scaling, and that alone proves rho(|R|) < 1
    b = 1 - 1e-10
    sys = SparseSystem(2, [(0, 0, 1.0), (0, 1, -2 * b), (1, 0, -b / 2),
                           (1, 1, 1.0)], [1.0, 1.0])
    rep = analyze(sys)
    assert rep.rho_hi + rep.rho_tol >= 1.0 >= rep.rho_lo - rep.rho_tol
    assert rep.walk_summable is True
    assert np.array_equal(rep.scaling, [1.0, 0.5])
    assert np.array_equal(rep.scaling, find_gdd_scaling(sys))
    x, trace = bp_solve(sys)  # certified: no force, no warning
    assert trace.stop_reason == "fixed-rounds"
    assert np.allclose(x, dense_solve(sys), rtol=1e-6, atol=0.0)


def test_report_is_frozen(two_node):
    rep = analyze(two_node)
    assert isinstance(rep, DominanceReport)
    with pytest.raises(AttributeError):
        rep.rho_abs = 0.0


def test_spectral_estimate_matches_dense_eigenvalues_ensemble():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        m = np.where(rng.random((n, n)) < 0.6, rng.random((n, n)), 0.0)
        np.fill_diagonal(m, 0.0)
        ref = float(np.max(np.abs(np.linalg.eigvals(m))))
        try:
            rho = spectral_radius_nonneg(m)
        except NoConvergenceError as exc:
            # the bracket must still be correct even when it cannot close
            assert exc.lower <= ref + 1e-9
            assert exc.upper >= ref - 1e-9
            continue
        assert rho == pytest.approx(ref, abs=1e-8)


def _regression_system(n, seed):
    # random-sparse, unit diagonal, coefficients +-0.3, mean degree 2.5:
    # rho(|R|) = 0.6268 (n=3000 seed 5) and 0.6144 (n=5000 seed 1)
    return generate_instance(GeneratorSpec(
        kind="random-sparse", n=n, seed=seed, coeff_range=(-0.3, 0.3),
        diag_rule="unit", density=2.5 / n))


@pytest.mark.parametrize("n, seed, rho", [(3000, 5, 0.62680943048),
                                          (5000, 1, 0.61444541474)])
def test_random_sparse_is_certified_walk_summable(n, seed, rho):
    # a power bracket left both indeterminate; the interval must close
    sys = _regression_system(n, seed)
    rep = analyze(sys)
    assert not rep.diag_dominant
    assert rep.walk_summable is True and rep.rho_reliable
    assert rep.rho_lo <= rho + 1e-10 and rep.rho_hi >= rho - 1e-10
    assert rep.scaling is not None
    again = analyze(sys)  # a fixed ARPACK start: runs reproduce
    assert np.array_equal(again.scaling, rep.scaling)
    assert {**vars(again), "scaling": None} == {**vars(rep), "scaling": None}
    if n == 3000:
        x, trace = bp_solve(sys)
        assert trace.stop_reason == "delta"
        i, j, v = (np.array(c) for c in zip(*sys.entries))
        a = sp.csr_matrix((v, (i.astype(int), j.astype(int))),
                          shape=(n, n))
        assert np.max(np.abs(a @ x - sys.b)) < 1e-9 * np.max(np.abs(sys.b))


def _dense_rho(m):
    """max |eigenvalue| over the strongly connected diagonal blocks of m,
    found by boolean transitive closure."""
    n = len(m)
    reach = (m > 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    rho, seen = 0.0, set()
    for i in range(n):
        if i not in seen:
            block = np.flatnonzero(reach[i] & reach[:, i])
            seen.update(block.tolist())
            sub = m[np.ix_(block, block)]
            rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(sub)))))
    return rho


PATTERNS = ("asymmetric", "reducible", "bipartite", "nilpotent", "cycle")


@st.composite
def nonneg_matrices(draw):
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(PATTERNS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    perm = rng.permutation(n)
    if kind == "asymmetric":
        mask = rng.random((n, n)) < 0.5
    elif kind == "reducible":
        block = rng.integers(0, 3, n)
        mask = (block[:, None] <= block[None, :]) & (rng.random((n, n)) < 0.6)
    elif kind == "bipartite":
        side = (perm % 2).astype(bool)
        mask = (side[:, None] != side[None, :]) & (rng.random((n, n)) < 0.7)
    elif kind == "nilpotent":
        mask = (perm[:, None] < perm[None, :]) & (rng.random((n, n)) < 0.6)
    else:
        mask = np.zeros((n, n), dtype=bool)
        mask[perm, np.roll(perm, -1)] = True
    m = np.where(mask, rng.uniform(0.05, 2.0, (n, n)), 0.0)
    isolated = rng.random(n) < 0.15
    m[isolated, :] = 0.0
    m[:, isolated] = 0.0
    np.fill_diagonal(m, 0.0)
    return m


@settings(max_examples=300, deadline=None)
@given(nonneg_matrices())
def test_interval_holds_the_dense_spectral_radius(m):
    n = len(m)
    sign = np.where(np.arange(n * n).reshape(n, n) % 3 == 0, 1.0, -1.0)
    entries = [(i, i, 1.0) for i in range(n)]
    entries += [(int(i), int(j), float(sign[i, j] * m[i, j]))
                for i, j in zip(*np.nonzero(m))]
    rep = analyze(SparseSystem(n, entries, [0.0] * n))
    rho = _dense_rho(m)
    assert rep.rho_lo <= rho * (1 + 1e-12)
    assert rep.rho_hi >= rho * (1 - 1e-12)
    assert rep.rho_reliable
    assert spectral_radius_nonneg(m) == rep.rho_abs
    # a walk-summable system has a GDD scaling; components are coupled
    # along the condensation, so reducible patterns get one too
    assert (rep.scaling is not None) == bool(rep.walk_summable)


def test_arpack_failure_never_gives_a_wrong_rho(monkeypatch):
    # the 300-node components need ARPACK; when it fails, the row-sum
    # bounds stand, the interval stays open and nothing claims otherwise
    sys = _sparse(0, 0.3, 2.5)
    abs_r = sp.csr_matrix(np.abs(residual_matrix(sys).toarray()))
    dense = float(np.max(np.abs(np.linalg.eigvals(abs_r.toarray()))))

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("forced", None, None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    with pytest.raises(NoConvergenceError) as ei:
        spectral_radius_nonneg(abs_r)
    assert ei.value.lower <= dense <= ei.value.upper
    rep = analyze(sys)
    assert rep.route == "dominance" and not rep.rho_reliable
    assert rep.rho_lo <= dense <= rep.rho_hi
    assert (rep.rho_lo, rep.rho_hi) == (ei.value.lower, ei.value.upper)
    assert rep.walk_summable is None and rep.scaling is None
