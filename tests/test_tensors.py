"""Tensor algebra: flattenings, products, embeddings, projections."""

import numpy as np
import pytest

from aybe.tensors import (
    Tensor2,
    Tensor3,
    compose2,
    diag_P0,
    embed,
    is_nondegenerate,
    perm_P,
    project_sl,
    swap_factors,
    sym_commutator,
    tensor_of,
    unit2,
)

from conftest import rand_matrix, rand_tensor2


def max_abs(t):
    return t.max_abs()


def test_unit2_scalar_case():
    assert unit2(1).coeffs.ravel().tolist() == [1.0]


def test_unit2_is_identity_operator():
    assert np.array_equal(unit2(2).op_matrix(), np.eye(4))


def test_unit2_is_neutral_for_compose2(rng):
    t = rand_tensor2(rng, 3)
    assert (compose2(unit2(3), t) - t).max_abs() == 0.0
    assert (compose2(t, unit2(3)) - t).max_abs() == 0.0


def test_perm_P_scalar_case():
    assert perm_P(1).coeffs.ravel().tolist() == [1.0]


def test_perm_P_squares_to_unit():
    for n in (2, 3, 4):
        assert (compose2(perm_P(n), perm_P(n)) - unit2(n)).max_abs() == 0.0


def test_perm_P_swaps_product_vectors(rng):
    n = 3
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    swapped = perm_P(n).op_matrix() @ np.kron(v, w)
    assert np.abs(swapped - np.kron(w, v)).max() < 1e-14


def test_diag_P0():
    assert diag_P0(1).coeffs.ravel().tolist() == [1.0]
    n = 3
    assert np.linalg.matrix_rank(diag_P0(n).pairing_matrix()) == n
    assert (swap_factors(diag_P0(n)) - diag_P0(n)).max_abs() == 0.0


def test_embed_swap_slots_12(rng):
    n = 2
    v = [rng.standard_normal(n) for _ in range(3)]
    out = embed(perm_P(n), (1, 2)).op_matrix() @ np.kron(np.kron(v[0], v[1]), v[2])
    assert np.abs(out - np.kron(np.kron(v[1], v[0]), v[2])).max() < 1e-14


def test_embed_identity_slot_13():
    assert np.array_equal(embed(unit2(2), (1, 3)).op_matrix(), np.eye(8))


def test_embed_reversed_slots(rng):
    t = rand_tensor2(rng, 2)
    a = embed(t, (2, 1))
    b = embed(swap_factors(t), (1, 2))
    assert np.array_equal(a.op_matrix(), b.op_matrix())


def test_embed_rejects_equal_slots():
    with pytest.raises(ValueError):
        embed(unit2(2), (2, 2))


def test_embed_matches_einsum_form():
    rng = np.random.default_rng(5)
    forms = {
        (1, 2): "pqrs,tu->pqrstu",
        (1, 3): "pqtu,rs->pqrstu",
        (2, 3): "rstu,pq->pqrstu",
    }
    for n in (1, 2, 3):
        t = rand_tensor2(rng, n)
        for slots, spec in forms.items():
            expected = np.einsum(spec, t.coeffs, np.eye(n)).transpose(0, 2, 4, 1, 3, 5)
            assert np.array_equal(embed(t, slots).op_matrix(), expected.reshape(n ** 3, n ** 3))


SLOT_PAIRS = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))


def dense_op(t, slots):
    return embed(t, slots).op_matrix()


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


# ``rmul_embed`` names right multiplication by an embedded factor, now the sparse ``Tensor3 @``


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_rmul_embed_matches_dense_product(n):
    rng = np.random.default_rng(1000 + n)
    a, b = rand_tensor2(rng, n), rand_tensor2(rng, n)
    for left in SLOT_PAIRS:
        x = dense_op(a, left)
        for right in SLOT_PAIRS:
            ref = x @ dense_op(b, right)
            assert rel_err((embed(a, left) @ embed(b, right)).op_matrix(), ref) < 1e-13, (left, right)


def test_rmul_embed_three_factor_chain():
    rng = np.random.default_rng(7)
    a, b, c = (rand_tensor2(rng, 3) for _ in range(3))
    ref = dense_op(a, (1, 2)) @ dense_op(b, (3, 1)) @ dense_op(c, (2, 3))
    got = (embed(a, (1, 2)) @ embed(b, (3, 1)) @ embed(c, (2, 3))).op_matrix()
    assert rel_err(got, ref) < 1e-13


def test_embed_and_join_validate_arguments():
    with pytest.raises(ValueError):
        embed(unit2(2), (2, 2))
    with pytest.raises(ValueError):
        embed(unit2(2), (1, 4))
    with pytest.raises(ValueError):
        embed(unit2(3), (1, 2)) @ embed(unit2(2), (1, 2))
    with pytest.raises(ValueError):
        embed(unit2(2), (1, 2)) @ np.eye(8)


def test_tensor3_entries_at_one_position_add():
    rows, cols, vals = np.array([0, 7, 0]), np.array([3, 7, 3]), np.array([1.0, 2j, -0.25])
    want = np.zeros((8, 8), dtype=complex)
    want[0, 3], want[7, 7] = 0.75, 2j
    assert np.array_equal(Tensor3(2, rows, cols, vals).op_matrix(), want)
    both = Tensor3(2, np.r_[rows, rows], np.r_[cols, cols], np.r_[vals, -vals])
    assert np.array_equal(both.op_matrix(), np.zeros((8, 8)))
    none = Tensor3(2, np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex))
    assert np.array_equal(none.op_matrix(), np.zeros((8, 8)))


def test_tensor3_is_frozen():
    t = embed(perm_P(2), (1, 3))
    for a in (t.rows, t.cols, t.vals):
        with pytest.raises(ValueError):
            a[0] = 0


def test_embed_keeps_non_finite_coefficients():
    c = np.zeros((2,) * 4, dtype=complex)
    c[0, 1, 1, 0], c[1, 1, 0, 0] = np.inf, np.nan
    t = embed(Tensor2(2, c), (2, 3))
    assert t.vals.size == 4 and not np.isfinite(t.vals).any()


def test_compose2_with_unit_and_assoc(rng):
    n = 3
    assert (compose2(perm_P(n), unit2(n)) - perm_P(n)).max_abs() == 0.0
    a, b, c = (rand_tensor2(rng, n) for _ in range(3))
    lhs = compose2(compose2(a, b), c)
    rhs = compose2(a, compose2(b, c))
    assert (lhs - rhs).max_abs() < 1e-12


def test_compose2_on_rank_one_factors(rng):
    n = 3
    a, b, c, d = (rand_matrix(rng, n) for _ in range(4))
    lhs = compose2(tensor_of(a, b), tensor_of(c, d))
    rhs = tensor_of(a @ c, b @ d)
    assert (lhs - rhs).max_abs() < 1e-12


def test_compose2_size_mismatch():
    with pytest.raises(ValueError):
        compose2(unit2(2), unit2(3))


def test_compose2_distributes(rng):
    n = 2
    s, t, u = (rand_tensor2(rng, n) for _ in range(3))
    lhs = compose2(s, t + u)
    rhs = compose2(s, t) + compose2(s, u)
    assert (lhs - rhs).max_abs() < 1e-13


def test_swap_factors_properties(rng):
    n = 3
    assert (swap_factors(perm_P(n)) - perm_P(n)).max_abs() == 0.0
    assert (swap_factors(unit2(n)) - unit2(n)).max_abs() == 0.0
    t = rand_tensor2(rng, n)
    assert (swap_factors(swap_factors(t)) - t).max_abs() == 0.0
    s = rand_tensor2(rng, n)
    lhs = swap_factors(compose2(s, t))
    rhs = compose2(swap_factors(s), swap_factors(t))
    assert (lhs - rhs).max_abs() < 1e-12


def test_embed_is_multiplicative(rng):
    n = 2
    s, t = rand_tensor2(rng, n), rand_tensor2(rng, n)
    for slots in ((1, 2), (1, 3), (2, 3), (3, 1)):
        lhs = embed(compose2(s, t), slots).op_matrix()
        rhs = embed(s, slots).op_matrix() @ embed(t, slots).op_matrix()
        assert np.abs(lhs - rhs).max() < 1e-12


def test_project_sl():
    n = 3
    assert project_sl(unit2(n)).max_abs() == 0.0
    p = perm_P(n)
    expected = p - (1.0 / n) * unit2(n)
    assert (project_sl(p) - expected).max_abs() < 1e-14


def test_project_sl_idempotent(rng):
    t = rand_tensor2(rng, 3)
    once = project_sl(t)
    twice = project_sl(once)
    assert (once - twice).max_abs() < 1e-13


def test_is_nondegenerate():
    ok, cond = is_nondegenerate(perm_P(3))
    assert ok and abs(cond - 1.0) < 1e-12
    ok, _ = is_nondegenerate(unit2(2), cond_cap=1e12)
    assert not ok
    assert np.linalg.matrix_rank(unit2(2).pairing_matrix()) == 1


def test_sym_commutator(rng):
    n = 3
    t = rand_tensor2(rng, n)
    assert sym_commutator(t, np.eye(n)).max_abs() < 1e-13
    diag = np.diag(rng.standard_normal(n))
    assert sym_commutator(diag_P0(n), diag).max_abs() < 1e-13
    e12 = np.zeros((n, n))
    e12[0, 1] = 1.0
    assert sym_commutator(perm_P(n), e12).max_abs() < 1e-13
    assert sym_commutator(perm_P(n), rand_matrix(rng, n)).max_abs() < 1e-12


def test_flattenings_round_trip(rng):
    n = 3
    t = rand_tensor2(rng, n)
    op = t.op_matrix()
    for p, q, r, s in np.ndindex(t.coeffs.shape):
        assert op[p * n + r, q * n + s] == t.coeffs[p, q, r, s]
    assert np.array_equal(t.pairing_matrix().reshape((n,) * 4), t.coeffs)


def test_constructor_validates_shape():
    with pytest.raises(ValueError):
        Tensor2(2, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        Tensor2(0, np.zeros((0, 0, 0, 0)))
