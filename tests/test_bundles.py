"""Splitting matrices: simplicity, order, derived structure, gluing solves."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aybe import bundles
from aybe.bundles import (
    CrossCheckFailed,
    SplittingMatrix,
    _chain,
    _tau_step,
    _tau_step_inv,
    bd_from_matrix,
    hom_dim,
    is_simple,
    massey_closed,
    massey_oracle,
    massey_r,
    massey_tensor,
    matrix_from_sequence,
    matrix_tau,
    precedes,
    realizable,
    row_sum_rule_holds,
    row_sums,
    sequence_from_structure,
    star_order,
    tau_free_matrix,
)
from aybe.solutions import PoleError, multiplicative_r
from aybe.structures import BDStructure, CyclicPermutation, OrderedBDStructure, enumerate_ordered
from aybe.verify import SamplePlan, residual_aybe2

from conftest import rand_complex


def guarded_triple(rng, n_rows, margin=0.15):
    while True:
        x, y, yp = (rand_complex(rng) for _ in range(3))
        if min(abs(x ** n_rows - 1), abs(x), abs(y), abs(yp), abs(y - yp)) > margin:
            return x, y, yp


def small_corpus():
    """Simple matrices exercising empty and nonempty pair bijections."""
    out = [
        tau_free_matrix(2, 3),
        tau_free_matrix(2, 4),
        tau_free_matrix(3, 4),
        matrix_from_sequence(2, 1, (1, 1)),
        matrix_from_sequence(2, 1, (1, 2)),
        matrix_from_sequence(3, 2, (1, 1, 1)),
        matrix_from_sequence(3, 2, (1, 1, 2)),
        matrix_from_sequence(3, 2, (1, 2, 2)),
        matrix_from_sequence(3, 2, (1, 2, 3)),
        SplittingMatrix(((0,), (0, ))[:1], 1),  # rank one, single component
    ]
    return out


def test_entry_extension_rule(rng):
    m = matrix_from_sequence(3, 2, (1, 1, 2))
    for _ in range(20):
        i = int(rng.integers(1, 4))
        j = int(rng.integers(-6, 12))
        assert m.entry(i, j + m.n_cols) == m.entry(i - m.shift, j)
    for i in range(1, 4):
        for j in range(m.n_cols):
            assert m.entry(i, j) == m.rows[i - 1][j]


def test_constant_matrix_entries():
    m = SplittingMatrix(((5, 5), (5, 5), (5, 5)), 1)
    assert all(m.entry(i, j) == 5 for i in (1, 2, 3) for j in range(-4, 8))


def test_example_matrix_is_simple():
    m = tau_free_matrix(2, 3)
    assert m.rows == ((0, 0, 1), (0, 0, 0))
    flag, witness = is_simple(m)
    assert flag and witness is None


def test_all_zero_matrix_not_simple():
    flag, witness = is_simple(SplittingMatrix(((0, 0), (0, 0)), 1))
    assert not flag and witness[0] == "identically zero"


def test_large_difference_not_simple():
    flag, witness = is_simple(SplittingMatrix(((2, 0), (0, 0)), 1))
    assert not flag and witness[0] == "difference out of range"


def test_alternation_failure_detected():
    # consecutive +1 differences without a -1 between them
    m = SplittingMatrix(((1, 0, 1), (0, 0, 0)), 1)
    flag, witness = is_simple(m)
    assert not flag and witness[0] == "alternation"


def test_star_order_example():
    assert star_order(tau_free_matrix(2, 3)) == (2, 1)


def test_star_order_first_column_rule():
    m = SplittingMatrix(((0, 1), (1, 1)), 1)
    assert is_simple(m)[0]
    assert precedes(m, 1, 2) and star_order(m)[0] == 1


def test_star_order_total_and_antisymmetric(rng):
    for m in small_corpus():
        order = star_order(m)
        assert sorted(order) == list(range(1, m.n_rows + 1))
        for i in range(1, m.n_rows + 1):
            for j in range(1, m.n_rows + 1):
                if i != j:
                    assert precedes(m, i, j) != precedes(m, j, i)


def test_matrix_tau_example_empty():
    m = tau_free_matrix(2, 3)
    for pair in ((1, 2), (2, 1)):
        assert matrix_tau(m, pair) is None


def test_matrix_tau_injective_and_nilpotent():
    for m in small_corpus():
        n = m.n_rows
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        images = [matrix_tau(m, p) for p in pairs]
        defined = [im for im in images if im is not None]
        assert len(defined) == len(set(defined))
        for p in pairs:
            k = 1
            while matrix_tau(m, p, k) is not None:
                k += 1
                assert k <= n * m.n_cols + 1
    # inverse walks back
    m = matrix_from_sequence(3, 2, (1, 1, 2))
    for p in [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]:
        im = matrix_tau(m, p)
        if im is not None:
            assert matrix_tau(m, im, -1) == p


def test_bd_from_matrix_example_has_empty_gamma1():
    obd = bd_from_matrix(tau_free_matrix(2, 3))
    assert obd.bd.gamma1 == frozenset()
    assert realizable(obd)


def test_bd_from_matrix_cross_check_raises(monkeypatch):
    m = matrix_from_sequence(3, 2, (1, 1, 2))
    assert bd_from_matrix(m).bd.p1  # the tau cross-check has pairs to compare
    monkeypatch.setattr(bundles, "matrix_tau", lambda m, a, k=1: None)
    with pytest.raises(CrossCheckFailed):
        bd_from_matrix(m)


def test_bd_from_matrix_row_sum_rule():
    for m in small_corpus():
        assert row_sum_rule_holds(m)


def test_bd_from_matrix_moving_cycle_is_power():
    for m in small_corpus():
        obd = bd_from_matrix(m)
        assert obd.bd.c.power_of(obd.bd.c0) is not None
        assert realizable(obd)


def test_negation_gives_opposite_structure():
    for m in small_corpus():
        o1 = bd_from_matrix(m)
        o2 = bd_from_matrix(m.negate())
        assert o2.bd == o1.bd.opposite()
        assert o2.alpha0 == (o1.alpha0[1], o1.alpha0[0])


def test_matrix_from_sequence_contract():
    m = matrix_from_sequence(2, 1, (1, 1))
    assert m.n_cols == 2 and is_simple(m)[0]
    # constructed entries are 0/1, so column differences stay in {-1, 0, 1}
    for seq in ((1, 2), (1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 2, 3)):
        mm = matrix_from_sequence(len(seq), len(seq) - 1, seq)
        assert set(v for row in mm.rows for v in row) <= {0, 1}
        assert is_simple(mm)[0]
    with pytest.raises(ValueError):
        matrix_from_sequence(3, 2, (2, 2, 2))
    with pytest.raises(ValueError):
        matrix_from_sequence(3, 2, (1, 3, 4))
    with pytest.raises(ValueError):
        matrix_from_sequence(4, 1, (1, 1, 1, 2))  # shift below N/2
    with pytest.raises(ValueError):
        matrix_from_sequence(4, 2, (1, 1, 1, 2))  # shift not coprime


def test_sequence_round_trip():
    c0 = CyclicPermutation.standard(4)
    c = CyclicPermutation([(i - 1 - 3) % 4 + 1 for i in range(1, 5)])  # i -> i - 3
    for gamma1 in [(), ((1, 2),), ((2, 3),), ((1, 2), (2, 3))]:
        bd = BDStructure(c0, c, gamma1)
        target = OrderedBDStructure(bd, (4, 1))
        n, k, seq = sequence_from_structure(target)
        rec = bd_from_matrix(matrix_from_sequence(n, k, seq))
        assert rec == target


def test_sequence_from_structure_rejects_non_shift():
    bd = BDStructure(CyclicPermutation.standard(3), CyclicPermutation.standard(3), [])
    obd = OrderedBDStructure(bd, (3, 1))
    # moving cycle is i -> i + 1 = i - 2, shift 2 admissible for N=3
    assert sequence_from_structure(obd)[1] == 2
    bd4 = BDStructure(CyclicPermutation.standard(4), CyclicPermutation.standard(4), [])
    with pytest.raises(ValueError):
        # i -> i + 1 = i - 3; shift 3 is fine, but order must be standard
        sequence_from_structure(OrderedBDStructure(bd4, (2, 3)))


def test_realizable_flags():
    for obd in enumerate_ordered(4):
        expected = obd.bd.c.power_of(obd.bd.c0) is not None
        assert realizable(obd) == expected
    # alpha0 inside Gamma2 is never realizable
    bd = BDStructure(CyclicPermutation.standard(3), CyclicPermutation.standard(3), [(1, 2)])
    assert not realizable(OrderedBDStructure(bd, (2, 3)))


def test_hom_dim_simple_matrices():
    for m in small_corpus():
        n = m.n_rows
        roots = [np.exp(2j * np.pi * k / n) for k in range(n)]
        for x in roots:
            assert hom_dim(m, x) == 1
        for x in (0.7, 1.3 + 0.4j, -0.5 + 0.1j, 2.0):
            assert hom_dim(m, x) == 0


def test_hom_dim_non_simple_witness():
    m = SplittingMatrix(((0, 0), (0, 0)), 1)
    assert hom_dim(m, 1.0) >= 2


def test_hom_dim_degree_two_entries():
    # non-simple but still well-posed: a lone degree-2 row
    m = SplittingMatrix(((2, 0), (0, 0)), 1)
    d = hom_dim(m, 0.9 + 0.2j)
    assert d >= 0


# ---------------------------------------------------------------------------
# the gluing system as one dense matrix: reference for the per-orbit solve
# ---------------------------------------------------------------------------


def dense_gluing_system(m, x, y=None):
    """The whole gluing system, all N^2 n equations in one matrix.

    Returns (index, A, rhs): the (start, count) of each entry's unknowns,
    the coefficient matrix, and, for a twist point y, the right-hand sides
    for all N^2 matrix-unit residues (else None).
    """
    N, n, k = m.n_rows, m.n_cols, m.shift
    nb = N * N

    def degree(i, ip, j):
        return m.rows[i - 1][j] - m.rows[ip - 1][j]

    index, total = {}, 0
    for i in range(1, N + 1):
        for ip in range(1, N + 1):
            for j in range(n):
                cnt = max(degree(i, ip, j) + 1, 0)
                index[(i, ip, j)] = (total, cnt)
                total += cnt

    def value(i, ip, j, at_infinity):
        """(unknown row, residue row) for the section value at an endpoint."""
        w = np.zeros(total, dtype=complex)
        rb = np.zeros(nb, dtype=complex)
        start, cnt = index[(i, ip, j)]
        d = degree(i, ip, j)
        if y is not None and j == 0 and d == -1:
            rb[(i - 1) * N + ip - 1] = y if at_infinity else -1.0
        elif cnt:
            w[start + (cnt - 1 if at_infinity else 0)] = 1.0
            if y is not None and j == 0 and d == 0 and at_infinity:
                rb[(i - 1) * N + ip - 1] = 1.0
        return w, rb

    a_rows, rhs_rows = [], []
    for i in range(1, N + 1):
        for ip in range(1, N + 1):
            for j in range(n):
                w0, r0 = value(i, ip, j, False)
                if j == 0:
                    wi, ri = value(m.wrap(i + k), m.wrap(ip + k), n - 1, True)
                    factor = x
                else:
                    wi, ri = value(i, ip, j - 1, True)
                    factor = 1.0
                a_rows.append(w0 - factor * wi)
                rhs_rows.append(-(r0 - factor * ri))
    return index, np.array(a_rows), (np.array(rhs_rows) if y is not None else None)


def dense_oracle(m, x, y, yp):
    """The Massey map from one dense solve."""
    N = m.n_rows
    index, A, rhs = dense_gluing_system(m, x, y)
    W = np.linalg.solve(A, rhs)
    T = np.zeros((N * N, N * N), dtype=complex)
    for i in range(1, N + 1):
        for ip in range(1, N + 1):
            b = (i - 1) * N + ip - 1
            start, _ = index[(i, ip, 0)]
            d = m.rows[i - 1][0] - m.rows[ip - 1][0]
            T[b, b] = (y if d == -1 else yp) / (yp - y)
            if d >= 0:
                T[b] += W[start]
            if d == 1:
                T[b] += yp * W[start + 1]
    return T


def dense_hom_dim(m, x):
    _, A, _ = dense_gluing_system(m, x)
    return 0 if A.shape[1] == 0 else A.shape[1] - int(np.linalg.matrix_rank(A))


def binomial_quantile(trials, q):
    """Smallest s with P(Binomial(trials, 1/2) <= s) >= q."""
    cdf = 0.0
    for s in range(trials + 1):
        cdf += math.comb(trials, s) / 2 ** trials
        if cdf >= q:
            return s
    return trials


def benchmark_sized_matrices(rng):
    """One seeded matrix_from_sequence matrix per (N, n) for N = 2..10, with the
    column counts the bundles-oracle benchmark draws at N = 6..10 (12 quantiles
    of the number of unit steps), applied at every N."""
    out = []
    for N in range(2, 11):
        shifts = [k for k in range(math.ceil(N / 2), N) if math.gcd(k, N) == 1]
        for steps in sorted({binomial_quantile(N - 1, (j + 0.5) / 12) for j in range(12)}):
            rises = set(rng.choice(N - 1, size=steps, replace=False).tolist())
            seq = [1]
            for i in range(N - 1):
                seq.append(seq[-1] + (i in rises))
            out.append(matrix_from_sequence(N, shifts[int(rng.integers(len(shifts)))], seq))
    return out


PINNED = SplittingMatrix(
    ((0, 0, 0, 1, 0),) + ((0, 0, 1, 0, 0),) * 3 + ((0, 1, 0, 0, 0),) * 3 + ((1, 0, 0, 0, 1),) * 3,
    shift=7,
)
PINNED_TRIPLE = (
    0.06655192685766398 - 0.03079895588683934j,
    1.2784166967675308 + 0.3359066608987118j,
    -1.4776530495944726 - 0.31725389254894143j,
)


def test_oracle_matches_dense_reference():
    rng = np.random.default_rng(31)
    matrices = benchmark_sized_matrices(rng)
    assert {(m.n_rows, m.n_cols) for m in matrices} >= {(6, 4), (8, 7), (10, 4), (10, 9)}
    for m in matrices:
        x, y, yp = guarded_triple(rng, m.n_rows)
        ref = dense_oracle(m, x, y, yp)
        mo = massey_oracle(m, x, y, yp)
        assert np.abs(mo.matrix - ref).max() <= 1e-12 * np.abs(ref).max()


def test_oracle_solves_pinned_triple():
    # a benchmark triple where the dense system's smallest singular value is
    # 6.5e-9 although x^N is far from 1: the system is regular there
    assert is_simple(PINNED)[0]
    x, y, yp = PINNED_TRIPLE
    assert abs(x ** 10 - 1) > 0.5
    assert massey_oracle(PINNED, x, y, yp).max_abs_diff(massey_closed(PINNED, x, y, yp)) <= 1e-12
    for s in (1, 0.5, 0.2, 0.1):
        assert hom_dim(PINNED, s * x) == 0


def test_hom_dim_refuses_x_zero():
    with pytest.raises(ValueError):
        hom_dim(PINNED, 0)


# ---------------------------------------------------------------------------
# the oracle comparison
# ---------------------------------------------------------------------------


def test_oracle_matches_closed_form(rng):
    for m in small_corpus():
        for _ in range(4):
            x, y, yp = guarded_triple(rng, m.n_rows)
            mc = massey_closed(m, x, y, yp)
            mo = massey_oracle(m, x, y, yp)
            assert mc.max_abs_diff(mo) < 1e-9


def test_oracle_residue_consistency(rng):
    # the evaluation point pole recovers the prescribed residues:
    # (y' - y) T(b) -> y b as y' -> y, entry by entry
    m = matrix_from_sequence(3, 2, (1, 1, 2))
    x, y, _ = guarded_triple(rng, 3)
    yp = y + 1e-7
    mm = massey_oracle(m, x, y, yp)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.abs((yp - y) * mm.apply(b) - y * b).max() < 1e-5


def test_massey_map_linearity(rng):
    m = tau_free_matrix(2, 3)
    x, y, yp = guarded_triple(rng, 2)
    mm = massey_closed(m, x, y, yp)
    b1 = rng.standard_normal((2, 2))
    b2 = rng.standard_normal((2, 2))
    lhs = mm.apply(b1 + 2.0 * b2)
    rhs = mm.apply(b1) + 2.0 * mm.apply(b2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_closed_form_diagonal_structure(rng):
    m = tau_free_matrix(2, 3)
    x, y, yp = guarded_triple(rng, 2)
    mm = massey_closed(m, x, y, yp)
    b = np.diag([1.0, 0.0])
    out = mm.apply(b)
    q = 1.0 / (1.0 - x ** 2)
    assert abs(out[0, 0] - (y / (yp - y) + q)) < 1e-12
    assert abs(out[1, 1] - q * x) < 1e-12
    assert abs(out[0, 1]) < 1e-12 and abs(out[1, 0]) < 1e-12


def test_oracle_guard_singular_system():
    m = tau_free_matrix(2, 3)
    with pytest.raises(PoleError):
        massey_oracle(m, 1.0, 0.5, -0.5)  # x^N = 1 rejected outright
    # close to a root of unity but outside the pole margin: solved exactly
    mc = massey_closed(m, 1.0 + 1e-10, 0.5, -0.5)
    mo = massey_oracle(m, 1.0 + 1e-10, 0.5, -0.5)
    assert mo.max_abs_diff(mc) <= 1e-15 * np.abs(mc.matrix).max()


def test_massey_tensor_equals_multiplicative(rng):
    for m in small_corpus():
        obd = bd_from_matrix(m)
        rm = multiplicative_r(obd)
        for _ in range(3):
            x, y, yp = guarded_triple(rng, m.n_rows)
            assert (massey_tensor(m, x, y, yp) - rm(x, y, yp)).max_abs() < 1e-10


def test_massey_tensor_satisfies_equations():
    m = matrix_from_sequence(3, 2, (1, 1, 2))
    assert residual_aybe2(massey_r(m), SamplePlan(seed=15, count=8)).passed


def test_example_tensor_is_constant_part_only(rng):
    m = tau_free_matrix(2, 3)
    x, y, yp = guarded_triple(rng, 2)
    scale = -1.4 + 0.3j
    a = massey_tensor(m, x, y, yp)
    b = massey_tensor(m, x, scale * y, scale * yp)
    assert (a - b).max_abs() < 1e-12


def test_splitting_matrix_json_round_trip():
    m = matrix_from_sequence(3, 2, (1, 2, 2))
    assert SplittingMatrix.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        SplittingMatrix.from_json('{"N": 2, "n": 2, "k": 1, "m": [[0, 0]]}')


def test_splitting_matrix_entries_must_be_integers():
    m = SplittingMatrix(((np.int64(0), np.int64(1)), (np.int32(1), 0)), np.int64(1))
    assert m == SplittingMatrix(((0, 1), (1, 0)), 1)
    assert all(type(v) is int for row in m.rows for v in row) and type(m.shift) is int
    for rows, shift in [(((0, 1.0),), 1), (((0, True),), 1), (((0, "1"),), 1), (((0, 1),), True)]:
        with pytest.raises(ValueError, match="expected an integer"):
            SplittingMatrix(rows, shift)


def test_splitting_matrix_validation():
    with pytest.raises(ValueError):
        SplittingMatrix(((0, 0), (0,)), 1)
    with pytest.raises(ValueError):
        SplittingMatrix(((0, 0), (0, 0)), 2)  # shift not coprime to N=2
    with pytest.raises(ValueError):
        bd_from_matrix(SplittingMatrix(((0, 0), (0, 0)), 1))  # not simple


# ---------------------------------------------------------------------------
# the order, simplicity and pair bijection walked entry by entry: reference
# for the period table
# ---------------------------------------------------------------------------


def ref_is_simple(m):
    N, n = m.n_rows, m.n_cols
    for i in range(1, N + 1):
        for ip in range(1, N + 1):
            if i == ip:
                continue
            for j in range(n):
                if abs(m.rows[i - 1][j] - m.rows[ip - 1][j]) > 1:
                    return False, ("difference out of range", i, ip, j)
    period = n * N
    for i in range(1, N + 1):
        for ip in range(i + 1, N + 1):
            signs = [
                d for j in range(period) if (d := m.entry(i, j) - m.entry(ip, j)) != 0
            ]
            if not signs:
                return False, ("identically zero", i, ip)
            for a, b in zip(signs, signs[1:] + signs[:1]):
                if a == b:
                    return False, ("alternation", i, ip)
    return True, None


def ref_precedes(m, i, ip):
    if i == ip:
        return False
    for j in range(m.n_cols * m.n_rows):
        d = m.entry(i, j) - m.entry(ip, j)
        if d:
            return d < 0
    raise ValueError(f"rows {i} and {ip} have identical extended columns")


def ref_star_order(m):
    flag, witness = ref_is_simple(m)
    if not flag:
        raise ValueError(f"matrix is not simple: {witness}")
    order = [1]
    for i in range(2, m.n_rows + 1):
        lo = 0
        while lo < len(order) and ref_precedes(m, order[lo], i):
            lo += 1
        order.insert(lo, i)
    return tuple(order)


def ref_tau_step(m, alpha):
    i, ip = alpha
    if i == ip:
        return None
    if any(m.entry(i, j) != m.entry(ip, j) for j in range(1, m.n_cols)):
        return None
    ci, cip = m.wrap(i - m.shift), m.wrap(ip - m.shift)
    if not ref_precedes(m, ci, cip):
        return None
    return (ci, cip)


def ref_tau_step_inv(m, beta):
    i, ip = beta
    if i == ip or not ref_precedes(m, i, ip):
        return None
    si, sip = m.wrap(i + m.shift), m.wrap(ip + m.shift)
    if any(m.entry(si, j) != m.entry(sip, j) for j in range(1, m.n_cols)):
        return None
    return (si, sip)


def ref_matrix_tau(m, alpha, k):
    step = ref_tau_step if k >= 0 else ref_tau_step_inv
    beta = tuple(alpha)
    for _ in range(abs(k)):
        beta = step(m, beta)
        if beta is None:
            return None
    return beta


def ref_bd_from_matrix(m):
    """The ordered structure from the insertion-sorted order and the entry-walking P1 rule."""
    N = m.n_rows
    order = ref_star_order(m)
    c0_images = [0] * N
    for idx, s in enumerate(order):
        c0_images[s - 1] = order[(idx + 1) % N]
    c0 = CyclicPermutation(c0_images)
    c = CyclicPermutation([m.wrap(i - m.shift) for i in range(1, N + 1)])
    p1 = frozenset(
        (i, ip)
        for i in range(1, N + 1)
        for ip in range(1, N + 1)
        if i != ip
        and all(m.entry(i, j) == m.entry(ip, j) for j in range(1, m.n_cols))
        and ref_precedes(m, m.wrap(i - m.shift), m.wrap(ip - m.shift))
    )
    gamma1 = p1 & {(s, c0(s)) for s in range(1, N + 1)}
    return OrderedBDStructure(BDStructure(c0, c, gamma1), (order[-1], order[0])), p1


def random_matrices(rng, count):
    """Seeded matrices with N <= 6, n <= 5 and any coprime shift; every other one
    takes two adjacent values only, so that many of them are simple."""
    out = []
    for t in range(count):
        N, n = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        k = int(rng.choice([k for k in range(1, N + 1) if math.gcd(k, N) == 1]))
        if t % 2:
            entries = int(rng.integers(-1, 2)) + rng.integers(0, 2, size=(N, n))
        else:
            entries = rng.integers(-1, 3, size=(N, n))
        out.append(SplittingMatrix(tuple(tuple(r) for r in entries.tolist()), k))
    return out


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_period_table_matches_entry_walk():
    simple = 0
    for m in random_matrices(np.random.default_rng(2024), 2000):
        flag, witness = is_simple(m)
        assert (flag, witness) == ref_is_simple(m)
        simple += flag
        labels = range(1, m.n_rows + 1)
        pairs = [(i, ip) for i in labels for ip in labels]
        assert outcome(star_order, m) == outcome(ref_star_order, m)
        for p in pairs:
            assert outcome(precedes, m, *p) == outcome(ref_precedes, m, *p)
            assert outcome(_tau_step_inv, m, p) == outcome(ref_tau_step_inv, m, p)
            for k in range(-2, 4):
                assert outcome(matrix_tau, m, p, k) == outcome(ref_matrix_tau, m, p, k)
        if flag:
            obd = bd_from_matrix(m)
            ref, ref_p1 = ref_bd_from_matrix(m)
            assert obd == ref and obd.bd.p1 == ref_p1
        else:
            with pytest.raises(ValueError, match="not simple"):
                bd_from_matrix(m)
    assert 500 < simple < 1500


def ref_massey_closed(m, x, y, yp):
    """The Massey map written pair by pair: positive pairs take y b/(y'-y) minus
    the backward geometric sum over the pair bijection; negative pairs add the
    forward sum with the order-sign powers of y; the diagonal solves its cyclic
    recursion as a geometric series in x."""
    N, k = m.n_rows, m.shift
    T = np.zeros((N * N, N * N), dtype=complex)

    def b_index(pair):
        return (pair[0] - 1) * N + (pair[1] - 1)

    for i in range(1, N + 1):
        for ip in range(1, N + 1):
            row = T[b_index((i, ip))]
            if i == ip:
                row[b_index((i, i))] += y / (yp - y)
                q = 1.0 / (1.0 - x ** N)
                for l in range(N):
                    t = m.wrap(i + l * k)
                    row[b_index((t, t))] += q * x ** l
                continue
            if precedes(m, i, ip):
                row[b_index((i, ip))] += y / (yp - y)
                for kk, beta in _chain(m, (i, ip)):
                    row[b_index(beta)] -= x ** (-kk)
            else:
                row[b_index((i, ip))] += yp / (yp - y)
                for kk, beta in _chain(m, (ip, i), -1):
                    sigma_beta = (beta[1], beta[0])
                    eps = 1 if precedes(m, *sigma_beta) else 0
                    row[b_index(sigma_beta)] += (y ** eps) * x ** kk
                for kk, beta in _chain(m, (i, ip)):
                    row[b_index(beta)] -= yp * x ** (-kk)
    return T


def test_massey_closed_matches_reference_loop():
    rng = np.random.default_rng(2025)
    simple = [m for m in random_matrices(rng, 4000) if is_simple(m)[0]]
    assert len(simple) >= 1000
    for m in small_corpus() + simple:
        for _ in range(2):
            x, y, yp = guarded_triple(rng, m.n_rows)
            ref = ref_massey_closed(m, x, y, yp)
            got = massey_closed(m, x, y, yp).matrix
            assert np.abs(got - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


@st.composite
def splitting_matrices(draw, low=-2, high=2):
    N, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    k = draw(st.sampled_from([k for k in range(1, N + 1) if math.gcd(k, N) == 1]))
    row = st.tuples(*[st.integers(low, high)] * n)
    return SplittingMatrix(tuple(draw(st.lists(row, min_size=N, max_size=N))), k)


@st.composite
def simple_matrices(draw):
    """``matrix_from_sequence`` matrices, possibly negated, so that tau has pairs to move."""
    N = draw(st.integers(2, 8))
    k = draw(st.sampled_from([k for k in range(math.ceil(N / 2), N) if math.gcd(k, N) == 1]))
    seq = [1]
    for _ in range(N - 1):
        seq.append(seq[-1] + draw(st.integers(0, 1)))
    m = matrix_from_sequence(N, k, seq)
    return m.negate() if draw(st.booleans()) else m


@settings(derandomize=True, database=None)
@given(splitting_matrices())
def test_matrix_json_round_trip_and_double_negation(m):
    assert SplittingMatrix.from_json(m.to_json()) == m
    assert m.negate().negate() == m


@settings(derandomize=True, database=None)
@given(simple_matrices())
def test_tau_step_inv_inverts_tau_step(m):
    assert is_simple(m)[0]
    labels = range(1, m.n_rows + 1)
    for alpha in [(i, ip) for i in labels for ip in labels]:
        beta = _tau_step(m, alpha)
        if beta is not None:
            assert _tau_step_inv(m, beta) == alpha
        back = _tau_step_inv(m, alpha)
        if back is not None:
            assert _tau_step(m, back) == alpha
        assert beta == ref_tau_step(m, alpha) and back == ref_tau_step_inv(m, alpha)


@settings(derandomize=True, database=None, deadline=None)  # a dense rank per point is slow at N = 6
@given(splitting_matrices())
@example(matrix_from_sequence(5, 3, [1, 1, 2, 2, 3]))  # simple
@example(SplittingMatrix(((0, 2, -1), (1, -2, 0), (2, 2, 1)), 1))  # not simple, with degree-2 entries
def test_hom_dim_matches_dense_rank(m):
    N = m.n_rows
    for x in [np.exp(2j * np.pi * t / N) for t in range(N)] + [0.7 - 0.2j, 1.3 + 0.4j, -0.9 + 0.5j]:
        assert hom_dim(m, x) == dense_hom_dim(m, x)
