"""Solution families: values, symmetries, gauges, limits."""

import numpy as np
import pytest

from aybe.bundles import bd_from_matrix, massey_tensor, matrix_from_sequence
from aybe.solutions import (
    HARD_GUARD,
    PoleError,
    abc_parts,
    classical_r0,
    difference_form,
    gauge_transform,
    laurent_r0,
    laurent_r1,
    multiplicative_r,
    nilpotent_r,
    orbit_symmetry,
    quantum_R,
    rational_R,
    s_product,
    trigonometric_r,
    u_only_r,
)
from aybe.structures import BDStructure, CyclicPermutation, OrderedBDStructure, enumerate_ordered
from aybe.tensors import (
    Tensor2,
    compose2,
    diag_P0,
    is_nondegenerate,
    perm_P,
    project_sl,
    swap_factors,
    sym_commutator,
    tensor_of,
    unit2,
)
from aybe.verify import SamplePlan, residual_aybe, residual_qybe, residual_unitarity

from conftest import guarded_point, rand_complex


def bd1():
    c = CyclicPermutation.standard(1)
    return BDStructure(c, c, [])


def e_matrix(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


# ---------------------------------------------------------------------------
# trigonometric family
# ---------------------------------------------------------------------------


def test_trig_scalar_value():
    r = trigonometric_r(bd1())
    val = r(np.log(2.0), np.log(2.0)).coeffs.ravel()[0]
    assert abs(val - 3.0) < 1e-12


def test_trig_residue_at_v_zero(bd3):
    r = trigonometric_r(bd3)
    u = 0.8 + 0.4j
    p = perm_P(3)
    for theta in (0.3, 1.2, 2.5):
        v = 1e-6 * np.exp(1j * theta)
        assert ((v * r(u, v)) - p).max_abs() < 1e-5


def test_trig_pole_guard(bd3):
    r = trigonometric_r(bd3)
    with pytest.raises(PoleError):
        r(0.0, 1.0)
    with pytest.raises(PoleError):
        r(1.0, 2j * np.pi)


def test_trig_nondegenerate(bd3, rng):
    r = trigonometric_r(bd3)
    pt = guarded_point(rng, r)
    ok, cond = is_nondegenerate(r(*pt), cond_cap=1e6)
    assert ok and cond < 1e6


def test_quantum_scalar_case():
    R = quantum_R(bd1())
    u = 0.7 + 0.1j
    r = trigonometric_r(bd1())(u, u).coeffs.ravel()[0]
    denom = 1.0 / (np.exp(u / 2) - np.exp(-u / 2)) + 1.0 / (np.exp(u / 2) - np.exp(-u / 2))
    expected = r / denom
    assert abs(R(u, u).coeffs.ravel()[0] - expected) < 1e-12


def test_quasi_period_conjugation(bd4, rng):
    n = 4
    r = trigonometric_r(bd4)
    q = {}
    s = 1
    for k in range(n):
        q[s] = k
        s = bd4.c0(s)
    d = np.diag([np.exp(-2j * np.pi * q[s] / n) for s in range(1, n + 1)])
    eye = np.eye(n)
    for _ in range(3):
        u, v = guarded_point(rng, r)
        lhs = r(u, v + 2j * np.pi)
        rhs = compose2(tensor_of(d, eye), compose2(r(u, v), tensor_of(np.linalg.inv(d), eye)))
        assert (lhs - rhs).max_abs() < 1e-10


def test_full_periods(bd3, rng):
    r = trigonometric_r(bd3)
    u, v = guarded_point(rng, r)
    assert (r(u + 6j * np.pi, v) - r(u, v)).max_abs() < 1e-10
    assert (r(u, v + 6j * np.pi) - r(u, v)).max_abs() < 1e-10


# ---------------------------------------------------------------------------
# multiplicative form and difference gauge
# ---------------------------------------------------------------------------


def test_multiplicative_requires_alpha0_outside_gamma2(bd3):
    obd = OrderedBDStructure(bd3, (2, 3))  # alpha0 = gamma2 edge
    with pytest.raises(ValueError):
        multiplicative_r(obd)


def test_multiplicative_without_chains_depends_on_ratio_only():
    bd = BDStructure(CyclicPermutation.standard(3), CyclicPermutation.standard(3), [])
    rm = multiplicative_r(OrderedBDStructure(bd, (3, 1)))
    x = 1.2 - 0.7j
    a = rm(x, 0.5 + 0.2j, -1.3 + 0.9j)
    scale = -2.1 + 0.4j
    b = rm(x, scale * (0.5 + 0.2j), scale * (-1.3 + 0.9j))
    assert (a - b).max_abs() < 1e-12


def test_abc_reconstructs_multiplicative(bd4, rng):
    obd = OrderedBDStructure(bd4, (4, 1))
    rm = multiplicative_r(obd)
    p = perm_P(4)
    for _ in range(3):
        x, y, yp = guarded_point(rng, rm)
        a, b, c = abc_parts(obd, x)
        recon = a + y * b + (-yp) * c + (y / (yp - y)) * p
        assert (recon - rm(x, y, yp)).max_abs() < 1e-12


def test_abc_c_is_swapped_b(bd4, rng):
    obd = OrderedBDStructure(bd4, (4, 1))
    x = rand_complex(rng)
    b_inv = abc_parts(obd, 1.0 / x)[1]
    c = abc_parts(obd, x)[2]
    assert (c - swap_factors(b_inv)).max_abs() < 1e-12


def test_abc_empty_chains_give_zero_b_c():
    bd = BDStructure(CyclicPermutation.standard(3), CyclicPermutation.standard(3), [])
    _, b, c = abc_parts(OrderedBDStructure(bd, (3, 1)), 0.7 + 0.3j)
    assert b.max_abs() == 0.0 and c.max_abs() == 0.0


def test_abc_b12_b13_vanishes(rng):
    from aybe.tensors import embed

    for obd in enumerate_ordered(4):
        if not obd.bd.gamma1:
            continue
        x, xp = rand_complex(rng), rand_complex(rng)
        if min(abs(x), abs(xp), abs(x ** 4 - 1), abs(xp ** 4 - 1)) < 0.1:
            continue
        b1 = abc_parts(obd, x)[1]
        b2 = abc_parts(obd, xp)[1]
        product = embed(b1, (1, 2)).op_matrix() @ embed(b2, (1, 3)).op_matrix()
        assert np.abs(product).max() < 1e-12


def test_dropping_marked_edge_keeps_a_part(rng):
    # structures whose Gamma1 contains the marked edge: removing it leaves
    # the same a(x) and kills the b/c parts
    from aybe.structures import enumerate_ordered

    tested = 0
    for obd in enumerate_ordered(4):
        bd = obd.bd
        if obd.alpha0 not in bd.gamma1:
            continue
        pruned = BDStructure(bd.c0, bd.c, bd.gamma1 - {obd.alpha0})
        obd2 = OrderedBDStructure(pruned, obd.alpha0)
        x = 0.83 + 0.41j
        a1 = abc_parts(obd, x)[0]
        a2, b2, c2 = abc_parts(obd2, x)
        assert (a1 - a2).max_abs() < 1e-12
        assert b2.max_abs() == 0.0 and c2.max_abs() == 0.0
        tested += 1
    assert tested > 0


def test_difference_form_shift_invariance(bd4, rng):
    obd = OrderedBDStructure(bd4, (4, 1))
    df = difference_form(obd)
    pt = guarded_point(rng, df, margin=0.15, scale=1.0)
    h, g = rand_complex(rng, 0.5), rand_complex(rng, 0.5)
    u1, u2, v1, v2 = pt
    a = df(u1 + h, u2 + h, v1 + g, v2 + g)
    b = df(u1, u2, v1, v2)
    assert (a - b).max_abs() < 1e-10


def test_difference_form_matches_inverse_structure(rng):
    for n in (2, 3, 4):
        for obd in enumerate_ordered(n)[:6]:
            df = difference_form(obd)
            ti = trigonometric_r(obd.bd.inverse())
            for _ in range(3):
                u1, u2, v1, v2 = guarded_point(rng, df, margin=0.15, scale=1.0)
                lhs = df(u1, u2, v1, v2)
                rhs = -1 * ti(u1 - u2, v1 - v2)
                assert (lhs - rhs).max_abs() < 1e-10


def test_difference_form_scalar_case(rng):
    obd = OrderedBDStructure(bd1(), (1, 1))
    df = difference_form(obd)
    rm = multiplicative_r(obd)
    u1, u2, v1, v2 = guarded_point(rng, df, margin=0.15, scale=1.0)
    lhs = df(u1, u2, v1, v2)
    rhs = rm(np.exp(u1 - u2), np.exp(v1), np.exp(v2))
    assert (lhs - rhs).max_abs() < 1e-12


# ---------------------------------------------------------------------------
# gauge family
# ---------------------------------------------------------------------------


def test_gauge_identity_parameters(bd3, rng):
    r = trigonometric_r(bd3)
    g = gauge_transform(r)
    pt = guarded_point(rng, r)
    assert (g(*pt) - r(*pt)).max_abs() == 0.0


def test_gauge_scalar_factor_only(bd3, rng):
    r = trigonometric_r(bd3)
    g = gauge_transform(r, lam=0.7)
    u, v = guarded_point(rng, r)
    assert (g(u, v) - np.exp(0.7 * u * v) * r(u, v)).max_abs() < 1e-12


def test_gauge_preserves_equations(bd3):
    r = trigonometric_r(bd3)
    a = orbit_symmetry(bd3, 1)
    g = gauge_transform(r, lam=0.3 - 0.2j, c=1.5, cprime=0.5 + 0.2j, a=a, b=a)
    plan = SamplePlan(seed=5, count=12)
    assert residual_aybe(g, plan).passed
    assert residual_unitarity(g, plan).passed


def test_gauge_rejects_non_symmetry(bd3):
    r = trigonometric_r(bd3)
    bad = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        gauge_transform(r, a=bad)
    with pytest.raises(ValueError):
        gauge_transform(r, a=e_matrix(3, 1, 2))
    with pytest.raises(ValueError):
        gauge_transform(r, c=0.0)


# ---------------------------------------------------------------------------
# u-only, nilpotent, rational families
# ---------------------------------------------------------------------------


def test_u_only_zero_matrix_is_scaled_permutation(rng):
    r = u_only_r(np.zeros((2, 2)), c=3.0)
    u = rand_complex(rng)
    assert (r(u) - (1.0 / (3.0 * u)) * perm_P(2)).max_abs() < 1e-12


def test_u_only_diagonal_closed_form(rng):
    a = np.diag([0.4, -0.1, -0.3])
    c = 2.0 - 0.5j
    r = u_only_r(a, c)
    u = rand_complex(rng)
    expected = np.zeros((3, 3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            expected[i, j, j, i] = 1.0 / (c * u + a[i, i] - a[j, j])
    assert (r(u) - Tensor2(3, expected)).max_abs() < 1e-10


def test_u_only_nilpotent_parameter():
    r = u_only_r(e_matrix(2, 1, 2))
    plan = SamplePlan(seed=3, count=12)
    assert residual_aybe(r, plan).passed
    assert residual_unitarity(r, plan).passed


def test_u_only_guard_hits_spectrum():
    a = np.diag([0.5, -0.5])
    r = u_only_r(a, c=1.0)
    with pytest.raises(PoleError):
        r(1.0)  # c*u = 1 equals a_1 - a_2


def test_u_only_refuses_only_below_hard_guard():
    r = u_only_r(np.diag([0.5, -0.5]), c=1.0)
    near = 1.0 + 1e-10  # sigma_min of u + ad_a is |u - 1| here
    assert HARD_GUARD < r.pole_distance(near) < 1e-8
    # the coefficient of e_21 (x) e_12 is 1/(u + a_2 - a_1) = 1/(u - 1)
    assert abs(r(near).coeffs[1, 0, 0, 1] * (near - 1.0) - 1.0) < 1e-6
    with pytest.raises(PoleError):
        r(1.0 + 0.5 * HARD_GUARD)


def test_every_refusal_is_at_or_below_hard_guard():
    # RFun, abc_parts and the Massey maps refuse the same pole distances: draws keep
    # only distances strictly above a margin, so a distance of exactly HARD_GUARD is refused
    m = matrix_from_sequence(3, 2, (1, 2, 2))
    obd = bd_from_matrix(m)
    with pytest.raises(PoleError):
        rational_R(2)(0.5, HARD_GUARD)
    with pytest.raises(PoleError):
        abc_parts(obd, HARD_GUARD)
    with pytest.raises(PoleError):
        multiplicative_r(obd)(HARD_GUARD, 0.3, 0.7)
    with pytest.raises(PoleError):
        massey_tensor(m, HARD_GUARD, 0.3, 0.7)


def test_nilpotent_family():
    om = Tensor2(2, np.einsum(
        "pq,rs->pqrs", e_matrix(2, 1, 2), e_matrix(2, 1, 2)))
    r = nilpotent_r(om, 1)
    plan = SamplePlan(seed=7, count=12)
    assert residual_aybe(r, plan).passed
    assert residual_unitarity(r, plan).passed
    u, v = 0.8 - 0.2j, -0.6 + 0.9j
    s = compose2(r(u, v), r(-u, v))
    assert (s - (1.0 / v ** 2) * unit2(2)).max_abs() < 1e-12


def test_nilpotent_zero_omega():
    r = nilpotent_r(Tensor2.zero(3), 2)
    plan = SamplePlan(seed=8, count=12)
    assert residual_aybe(r, plan).passed
    assert residual_unitarity(r, plan).passed


def test_nilpotent_rejects_bad_omega():
    with pytest.raises(ValueError):
        nilpotent_r(perm_P(2), 1)  # P^12 P^13 != 0
    om = Tensor2(2, np.einsum("pq,rs->pqrs", e_matrix(2, 1, 2), e_matrix(2, 1, 2)))
    with pytest.raises(ValueError):
        nilpotent_r(om, 2)  # swap symmetry has the wrong sign for even order


def test_rational_limit_matches_scaled_permutation(rng):
    c = 2.0
    R = rational_R(3, c)
    v = rand_complex(rng)
    if abs(v) < 0.1:
        v = 1.0 + 0.5j
    assert (R(1e6, v) - (1.0 / c) * perm_P(3)).max_abs() < 1e-5


def test_rational_quantum_unitarity_at_unit_constant(rng):
    for c in (1.0, -1.0):
        R = rational_R(2, c)
        one = unit2(2)
        for _ in range(4):
            u, v = guarded_point(rng, R, margin=0.15)
            assert (compose2(R(u, v), swap_factors(R(u, -v))) - one).max_abs() < 1e-10


def test_rational_qybe_any_constant():
    plan = SamplePlan(seed=9, count=12)
    assert residual_qybe(rational_R(2, 1.7 - 0.4j), 0.8 + 0.1j, plan).passed


# ---------------------------------------------------------------------------
# classical limit and Laurent coefficients
# ---------------------------------------------------------------------------


def test_classical_r0_antisymmetry(bd3, rng):
    r0 = classical_r0(bd3)
    v = guarded_point(rng, r0)[0]
    assert (swap_factors(r0(-v)) + r0(v)).max_abs() < 1e-12


def test_classical_matches_numeric_extraction(bd4, rng):
    r = trigonometric_r(bd4)
    closed = classical_r0(bd4)
    numeric = laurent_r0(r, 1e-4)
    for _ in range(4):
        v = guarded_point(rng, closed)[0]
        assert (project_sl(numeric(v)) - closed(v)).max_abs() < 1e-6


def test_extraction_error_shrinks_quadratically(bd3):
    r = trigonometric_r(bd3)
    closed = classical_r0(bd3)
    v = 0.9 + 0.4j
    e1 = (project_sl(laurent_r0(r, 1e-4)(v)) - closed(v)).max_abs()
    e2 = (project_sl(laurent_r0(r, 5e-5)(v)) - closed(v)).max_abs()
    assert 3.0 < e1 / e2 < 5.0


def test_laurent_r0_scalar_value():
    r0 = laurent_r0(trigonometric_r(bd1()))
    assert abs(r0(np.log(2.0)).coeffs.ravel()[0] - 1.5) < 1e-7


def test_laurent_r1_scalar_value():
    # for the scalar solution, r1(v) is the u-series coefficient 1/12
    r1 = laurent_r1(trigonometric_r(bd1()))
    assert abs(r1(np.log(2.0)).coeffs.ravel()[0] - 1.0 / 12.0) < 1e-6


# ---------------------------------------------------------------------------
# s-product and orbit symmetry
# ---------------------------------------------------------------------------


def test_s_product_closed_form(bd4, rng):
    s = s_product(trigonometric_r(bd4))
    one = unit2(4)
    for _ in range(3):
        u, v = guarded_point(rng, s)
        target = (np.exp(v / 2) - np.exp(-v / 2)) ** -2 - (np.exp(u / 2) - np.exp(-u / 2)) ** -2
        assert (s(u, v) - target * one).max_abs() < 1e-10


def test_s_product_swap_symmetry(bd3, rng):
    s = s_product(trigonometric_r(bd3))
    u, v = guarded_point(rng, s)
    assert (swap_factors(s(-u, -v)) - s(u, v)).max_abs() < 1e-10


def test_orbit_symmetry_empty_chains_any_base(rng):
    bd = BDStructure(CyclicPermutation.standard(3), CyclicPermutation.standard(3), [])
    r = trigonometric_r(bd)
    for base in (1, 2, 3):
        a = orbit_symmetry(bd, base)
        pt = guarded_point(rng, r)
        assert sym_commutator(r(*pt), a).max_abs() < 1e-12


def test_orbit_symmetry_rejects_bad_base(bd3):
    with pytest.raises(ValueError):
        orbit_symmetry(bd3, 2)  # coordinate of tau(1,2) = (2,3)


def test_orbit_symmetry_shear_concentrates_u(bd3, rng):
    r = trigonometric_r(bd3)
    a = orbit_symmetry(bd3, 1)
    pt = guarded_point(rng, r)
    assert sym_commutator(r(*pt), a).max_abs() < 1e-12
    sheared = gauge_transform(r, a=a)
    one = unit2(3)
    u1, u2, v = 0.7 + 0.2j, -1.1 + 0.9j, pt[1]
    t1 = sheared(u1, v) - (1.0 / (np.exp(u1) - 1.0)) * one
    t2 = sheared(u2, v) - (1.0 / (np.exp(u2) - 1.0)) * one
    assert (t1 - t2).max_abs() < 1e-10
    # the v-only part satisfies the twisted unitarity r21(-v) + r(v) = 1 (x) 1
    rv_neg = sheared(u1, -v) - (1.0 / (np.exp(u1) - 1.0)) * one
    assert (swap_factors(rv_neg) + t1 - one).max_abs() < 1e-10


# ---------------------------------------------------------------------------
# term tables against the per-coefficient loops they replaced
# ---------------------------------------------------------------------------


def _ref_inv_expm1(z):
    return np.exp(-z / 2) / (2.0 * np.sinh(z / 2))


def _ref_trig_terms(bd):
    n = bd.n
    chains = []
    for (i, j) in sorted(bd.p1):
        m = next(m for m in range(1, n) if bd.c0.power(i, m) == j)
        iterates = []
        k, beta = 1, bd.tau((i, j), 1)
        while beta is not None:
            iterates.append((k, beta))
            k += 1
            beta = bd.tau((i, j), k)
        chains.append((i, j, m, iterates))
    pairs_m = [(i, bd.c0.power(i, m), m) for i in range(1, n + 1) for m in range(1, n)]
    return chains, pairs_m


def ref_trigonometric(bd, u, v):
    n = bd.n
    chains, pairs_m = _ref_trig_terms(bd)
    c = np.zeros((n, n, n, n), dtype=complex)
    wv2 = _ref_inv_expm1(v)
    wv = 1.0 + wv2
    for i in range(1, n + 1):
        c[i - 1, i - 1, i - 1, i - 1] += wv
    wu = _ref_inv_expm1(u)
    for k in range(n):
        f = wu * np.exp(k * u / n)
        for i in range(1, n + 1):
            s = bd.c.power(i, k)
            c[s - 1, s - 1, i - 1, i - 1] += f
    for (i, j, m) in pairs_m:
        c[i - 1, j - 1, j - 1, i - 1] += wv2 * np.exp(m * v / n)
    for (i, j, m, iterates) in chains:
        for (k, (ip, jp)) in iterates:
            w = (k * u + m * v) / n
            c[j - 1, i - 1, ip - 1, jp - 1] += np.exp(-w)
            c[ip - 1, jp - 1, j - 1, i - 1] -= np.exp(w)
    return c


def ref_classical_r0(bd, v):
    n = bd.n
    chains, pairs_m = _ref_trig_terms(bd)
    s_c = np.zeros((n, n, n, n), dtype=complex)
    for i in range(1, n + 1):
        for k in range(1, n):
            t = bd.c.power(i, k)
            s_c[i - 1, i - 1, t - 1, t - 1] += 0.5 - k / n
    t_const = project_sl(0.5 * diag_P0(n) + Tensor2(n, s_c))
    c = np.zeros((n, n, n, n), dtype=complex)
    wv = _ref_inv_expm1(v)
    for i in range(1, n + 1):
        c[i - 1, i - 1, i - 1, i - 1] += wv
    for (i, j, m) in pairs_m:
        c[i - 1, j - 1, j - 1, i - 1] += wv * np.exp(m * v / n)
    for (i, j, m, iterates) in chains:
        for (k, (ip, jp)) in iterates:
            w = m * v / n
            c[j - 1, i - 1, ip - 1, jp - 1] += np.exp(-w)
            c[ip - 1, jp - 1, j - 1, i - 1] -= np.exp(w)
    return (t_const + project_sl(Tensor2(n, c))).coeffs


def _ref_signed_tau_data(obd):
    bd = obd.bd
    plus, minus = [], []
    for k in range(1, bd.depth + 1):
        for (i, j) in sorted(bd.tau_domain(k)):
            row = (k, i, j, bd.c.power(j, k), bd.c.power(i, k))
            (plus if obd.less(i, j) else minus).append(row)
    return plus, minus


def ref_abc_parts(obd, x):
    bd, n = obd.bd, obd.n
    plus, minus = _ref_signed_tau_data(obd)
    ca = np.zeros((n, n, n, n), dtype=complex)
    q = 1.0 / (1.0 - x ** n)
    for i in range(1, n + 1):
        for k in range(n):
            t = bd.c.power(i, k)
            ca[i - 1, i - 1, t - 1, t - 1] += q * x ** k
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and obd.less(i, j):
                ca[i - 1, j - 1, j - 1, i - 1] += 1.0
    for (k, i, j, ck_j, ck_i) in plus:
        ca[i - 1, j - 1, ck_j - 1, ck_i - 1] += x ** k
        ca[ck_j - 1, ck_i - 1, i - 1, j - 1] -= x ** (-k)
    cb = np.zeros((n, n, n, n), dtype=complex)
    cc = np.zeros((n, n, n, n), dtype=complex)
    for (k, i, j, ck_j, ck_i) in minus:
        cb[i - 1, j - 1, ck_j - 1, ck_i - 1] += x ** k
        cc[ck_j - 1, ck_i - 1, i - 1, j - 1] += x ** (-k)
    return ca, cb, cc


def ref_multiplicative(obd, x, y, yp):
    bd, n = obd.bd, obd.n
    plus, minus = _ref_signed_tau_data(obd)
    c = np.zeros((n, n, n, n), dtype=complex)
    z = y / yp
    w = z / (1.0 - z)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and obd.less(i, j):
                c[j - 1, i - 1, i - 1, j - 1] += w
                c[i - 1, j - 1, j - 1, i - 1] += 1.0 / (1.0 - z)
    for i in range(1, n + 1):
        c[i - 1, i - 1, i - 1, i - 1] += w
    q = 1.0 / (1.0 - x ** n)
    for i in range(1, n + 1):
        for k in range(n):
            t = bd.c.power(i, k)
            c[i - 1, i - 1, t - 1, t - 1] += q * x ** k
    for (k, i, j, ck_j, ck_i) in plus:
        c[i - 1, j - 1, ck_j - 1, ck_i - 1] += x ** k
        c[ck_j - 1, ck_i - 1, i - 1, j - 1] -= x ** (-k)
    for (k, i, j, ck_j, ck_i) in minus:
        c[i - 1, j - 1, ck_j - 1, ck_i - 1] += y * x ** k
        c[ck_j - 1, ck_i - 1, i - 1, j - 1] -= yp * x ** (-k)
    return c


def ref_quantum(bd, u, v):
    return ref_trigonometric(bd, u, v) / (0.5 / np.sinh(u / 2) + 0.5 / np.sinh(v / 2))


def ref_difference(obd, u1, u2, v1, v2):
    n = obd.n
    pos = np.array([obd.position(s) for s in range(1, n + 1)], dtype=float)
    t = ref_multiplicative(obd, np.exp((u1 - u2) / n), np.exp(v1), np.exp(v2))
    dp = pos[None, :] - pos[:, None]
    return t * np.exp(dp * v1 / n)[:, :, None, None] * np.exp(dp * v2 / n)[None, None, :, :]


def _table_corpus():
    """Every ordered structure with N <= 4, and the structures of depth >= 2
    among twelve seeded N = 8 draws (the deepest of 64 each)."""
    from perfbench.workloads import random_structure

    rng = np.random.default_rng(2024)
    deep = [bd for bd in (random_structure(8, rng, 64) for _ in range(12)) if bd.depth >= 2]
    assert len(deep) >= 4 and max(bd.depth for bd in deep) >= 3
    ordered = [OrderedBDStructure(bd, min(bd.graph - bd.gamma2)) for bd in deep]
    return [obd for n in range(1, 5) for obd in enumerate_ordered(n)] + ordered


def _assert_matches(new, ref, what):
    scale = max(1.0, float(np.abs(ref).max()))
    err = float(np.abs(new - ref).max())
    assert err <= 1e-14 * scale, (what, err, scale)


POINTS = 10

#: family -> (constructor, reference), both taking an ordered structure
FAMILIES = {
    "trigonometric": (lambda obd: trigonometric_r(obd.bd), lambda obd, *z: ref_trigonometric(obd.bd, *z)),
    "quantum": (lambda obd: quantum_R(obd.bd), lambda obd, *z: ref_quantum(obd.bd, *z)),
    "classical": (lambda obd: classical_r0(obd.bd), lambda obd, *z: ref_classical_r0(obd.bd, *z)),
    "multiplicative": (multiplicative_r, ref_multiplicative),
    "difference": (difference_form, ref_difference),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_family_tables_match_reference_loops(family):
    build, ref = FAMILIES[family]
    rng = np.random.default_rng(31)
    for obd in _table_corpus():
        r = build(obd)
        for _ in range(POINTS):
            z = guarded_point(rng, r, margin=0.1)
            _assert_matches(r(*z).coeffs, ref(obd, *z), (family, obd, z))


def test_abc_parts_table_matches_reference_loops():
    rng = np.random.default_rng(32)
    for obd in _table_corpus():
        n = obd.n
        for _ in range(POINTS):
            x = rand_complex(rng)
            while min(abs(x), abs(x ** n - 1.0)) < 0.1:
                x = rand_complex(rng)
            for part, new, ref in zip("abc", abc_parts(obd, x), ref_abc_parts(obd, x)):
                _assert_matches(new.coeffs, ref, (part, obd, x))
