"""Residual suites: determinism, guards, reports, and harness sanity."""

import json

import numpy as np
import pytest

from aybe import verify
from aybe.bundles import massey_closed, massey_oracle, matrix_from_sequence
from aybe.solutions import (
    MAX_REJECTS,
    RFun,
    abc_parts,
    classical_r0,
    exp_pole_distance,
    laurent_r0,
    multiplicative_guards,
    multiplicative_r,
    nilpotent_r,
    quantum_R,
    rational_R,
    trigonometric_r,
    u_only_r,
    x_pole_distance,
)
from aybe.structures import BDStructure, CyclicPermutation, OrderedBDStructure, enumerate_structures
from aybe.tensors import Tensor2, Tensor3, embed, perm_P, unit2
from aybe.verify import (
    Report,
    SamplePlan,
    SamplerExhausted,
    perturb,
    residual_abc,
    residual_aybe,
    residual_aybe2,
    residual_cubic,
    residual_cybe,
    residual_h_equation,
    residual_laurent_identity,
    residual_oracle,
    residual_qybe,
    residual_qybe_unitarity,
    residual_s_identity,
    residual_symmetry,
    residual_unitarity,
)


def test_reports_are_reproducible(bd3):
    r = trigonometric_r(bd3)
    plan = SamplePlan(seed=42, count=8)
    a = residual_aybe(r, plan)
    b = residual_aybe(r, plan)
    assert a.per_sample == b.per_sample
    assert a.to_json() == b.to_json()


def test_report_json_fields(bd3):
    rep = residual_unitarity(trigonometric_r(bd3), SamplePlan(seed=1, count=4))
    doc = json.loads(rep.to_json())
    assert set(doc) == {"suite", "seed", "samples", "max_residual", "tol", "pass"}
    assert doc["samples"] == 4 and doc["seed"] == 1 and doc["pass"] is True


def test_report_fails_on_any_non_finite_sample():
    nan, inf = float("nan"), float("inf")
    for per in ((1e-16, nan, 2e-16), (nan, 1e-16), (1e-16, 2e-16, inf)):
        rep = Report("aybe", SamplePlan(count=len(per)), per, 1e-8)
        assert not np.isfinite(rep.max_residual) and not rep.passed, per
    assert Report("aybe", SamplePlan(count=2), (1e-16, 3e-16), 1e-8).max_residual == 3e-16


@pytest.mark.parametrize("per", [(), (1e-16,), (1e-16, 2e-16, 3e-16)])
def test_report_holds_one_residual_per_planned_sample(per):
    # with no residuals at all the report would pass on a maximum of 0.0
    with pytest.raises(ValueError, match="samples"):
        Report("aybe", SamplePlan(count=2), per, 1e-8)


def test_nan_on_a_later_sample_fails_the_report(bd3):
    r = trigonometric_r(bd3)

    def fn(u, v):
        # NaN only where Im v > 1; the unitarity suite evaluates at v and -v
        t = r(u, v)
        return Tensor2(t.n, t.coeffs * (np.nan if v.imag > 1.0 else 1.0))

    rep = residual_unitarity(RFun(r.n, "trig+nan", 2, fn, r.guards), SamplePlan(seed=5, count=8))
    assert np.isfinite(rep.per_sample[0])
    assert any(np.isnan(rep.per_sample[1:]))
    assert np.isnan(rep.max_residual) and not rep.passed


def test_nan_in_a_later_abc_condition_fails_the_report(bd4):
    def nan_c(obd, x):
        a, b, c = abc_parts(obd, x)
        return a, b, Tensor2(c.n, c.coeffs * np.nan)

    obd = OrderedBDStructure(bd4, (4, 1))
    rep = residual_abc(obd, SamplePlan(seed=8, count=2), parts=nan_c)
    assert all(np.isnan(rep.per_sample)) and not rep.passed


@pytest.mark.parametrize("count", [0, -3])
def test_plan_without_samples_is_rejected(bd3, count):
    # a report over no samples would pass without checking anything
    with pytest.raises(ValueError, match="at least 1"):
        residual_aybe(perturb(trigonometric_r(bd3), 1.0), SamplePlan(count=count))


def test_sampler_exhaustion():
    plan = SamplePlan(seed=0, count=4, guard_margin=1e9)
    bd = BDStructure(CyclicPermutation.standard(2), CyclicPermutation.standard(2), [])
    with pytest.raises(SamplerExhausted, match=f"exceeded {MAX_REJECTS} rejections"):
        residual_aybe(trigonometric_r(bd), plan)


@pytest.mark.parametrize("suite", [residual_aybe, residual_unitarity])
def test_aybe_and_unitarity_reject_three_variable_functions(suite):
    r3 = RFun(2, "three-variable", 3, lambda x, y, yp: Tensor2.zero(2), ())
    with pytest.raises(ValueError, match="one- and two-variable"):
        suite(r3, SamplePlan(count=1))


def test_aybe_suite_passes_and_detects_corruption(bd3):
    r = trigonometric_r(bd3)
    plan = SamplePlan(seed=3, count=8)
    assert residual_aybe(r, plan).passed
    assert not residual_aybe(perturb(r), plan).passed


def test_unitarity_suite(bd3):
    plan = SamplePlan(seed=4, count=8)
    assert residual_unitarity(trigonometric_r(bd3), plan).passed
    assert residual_unitarity(u_only_r(np.diag([0.3, -0.3])), plan).passed
    assert not residual_unitarity(perturb(trigonometric_r(bd3)), plan).passed


def test_qybe_suites(bd3):
    plan = SamplePlan(seed=5, count=8)
    R = quantum_R(bd3)
    assert residual_qybe(R, 0.9 + 0.2j, plan).passed
    assert residual_qybe(rational_R(2, 1.0), 0.9 + 0.2j, plan).passed
    assert residual_qybe(trigonometric_r(bd3), 0.9 + 0.2j, plan).passed
    assert residual_qybe_unitarity(R, plan).passed
    assert residual_qybe_unitarity(rational_R(2, 1.0), plan).passed
    doubled = RFun(R.n, "scaled", 2, lambda u, v: 2.0 * R(u, v), R.guards)
    assert not residual_qybe_unitarity(doubled, plan).passed


def test_cybe_suite(bd3):
    from aybe.solutions import classical_r0

    plan = SamplePlan(seed=6, count=8)
    assert residual_cybe(classical_r0(bd3), plan).passed
    numeric = laurent_r0(trigonometric_r(bd3))
    assert residual_cybe(numeric, plan, tol=1e-6).passed
    zero = RFun(3, "zero", 1, lambda v: Tensor2.zero(3), ())
    assert residual_cybe(zero, plan).max_residual == 0.0


def test_aybe2_suite(bd4):
    from aybe.solutions import multiplicative_r

    plan = SamplePlan(seed=7, count=8)
    rm = multiplicative_r(OrderedBDStructure(bd4, (4, 1)))
    assert residual_aybe2(rm, plan).passed
    assert not residual_aybe2(perturb(rm), plan).passed


def test_abc_suite(bd4):
    plan = SamplePlan(seed=8, count=8)
    assert residual_abc(OrderedBDStructure(bd4, (4, 1)), plan).passed


def test_abc_conditions_hold_for_every_ordered_structure():
    from aybe.structures import enumerate_ordered

    plan = SamplePlan(seed=88, count=4)
    for n in (1, 2, 3, 4):
        for obd in enumerate_ordered(n):
            assert residual_abc(obd, plan).passed, obd


def test_s_identity_suite(bd3):
    plan = SamplePlan(seed=9, count=8)
    r = trigonometric_r(bd3)
    assert residual_s_identity(r, plan).passed
    assert not residual_s_identity(perturb(r), plan).passed
    om = Tensor2.zero(2)
    rn = nilpotent_r(om, 1)
    assert residual_s_identity(rn, plan, tol=1e-10, scalar=lambda u, v: 1.0 / v ** 2).passed
    assert not residual_s_identity(rn, plan).passed


def test_cubic_suite(bd3):
    plan = SamplePlan(seed=10, count=6)
    r = trigonometric_r(bd3)
    assert residual_cubic(r, plan).passed
    rat = RFun(
        2,
        "unit-pole",
        2,
        lambda u, v: (1.0 / u) * unit2(2) + (1.0 / v) * perm_P(2),
        trigonometric_r(BDStructure(CyclicPermutation.standard(2),
                                    CyclicPermutation.standard(2), [])).guards,
    )
    assert residual_cubic(rat, plan).passed
    assert not residual_cubic(perturb(r), plan).passed


def test_laurent_identity_suite(bd3):
    plan = SamplePlan(seed=11, count=8)
    r = trigonometric_r(bd3)
    assert residual_laurent_identity(r, plan).passed
    assert not residual_laurent_identity(perturb(r, delta=1.0), plan).passed


def test_h_equation_suite():
    plan = SamplePlan(seed=12, count=16)
    rep = residual_h_equation("inverse_v", plan)
    assert rep.max_residual < 1e-12
    assert residual_h_equation("half_coth", plan).passed
    bad = residual_h_equation(
        "inverse_v", plan,
        h=lambda v: 1.0 / v + 0.1 * v, h_prime=lambda v: -1.0 / v ** 2 + 0.1,
    )
    assert not bad.passed
    with pytest.raises(ValueError):
        residual_h_equation("weierstrass", plan)


def test_symmetry_suite(bd3):
    from aybe.solutions import orbit_symmetry

    plan = SamplePlan(seed=13, count=6)
    r = trigonometric_r(bd3)
    assert residual_symmetry(r, np.eye(3), plan).passed
    assert residual_symmetry(r, orbit_symmetry(bd3, 1), plan).passed
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    assert not residual_symmetry(r, e12, plan).passed


def test_guard_margin_respected(bd3):
    r = trigonometric_r(bd3)
    plan = SamplePlan(seed=14, count=16, guard_margin=0.3)
    pts = plan.draw(2, lambda z: r.pole_distance(*z) > plan.guard_margin)
    for z in pts:
        assert r.pole_distance(*z) > 0.3


# ---------------------------------------------------------------------------
# sample streams against hand-written guard lists
# ---------------------------------------------------------------------------
#
# Each suite lists its evaluation points once, and that list both guards and
# evaluates.  These are the guard lists the suites used to spell out beside
# their evaluations; every suite must draw exactly the samples they accept.
# The wide guard margin makes rejections common, so a changed guard set shows.


def ref_aybe(arity):
    def pts(u, up, v=0.0, vp=0.0):
        pairs = ((-up, v), (u + up, v + vp), (u + up, vp), (u, v), (u, v + vp), (up, vp))
        return [p[:arity] for p in pairs]

    return pts


def ref_unitarity(*z):
    return [z, tuple(-w for w in z)]


def ref_qybe(v, vp, u_fixed=0.9 + 0.2j):
    return [(u_fixed, v), (u_fixed, v + vp), (u_fixed, vp)]


def ref_qybe_unitarity(u, v):
    return [(u, v), (u, -v)]


def ref_cybe(v, vp):
    return [(v,), (v + vp,), (vp,)]


def ref_aybe2(x, xp, y1, y2, y3):
    return [
        (1.0 / xp, y1, y2),
        (x * xp, y1, y3),
        (x * xp, y2, y3),
        (x, y1, y2),
        (x, y1, y3),
        (xp, y2, y3),
        (1.0 / x, y2, y1),
    ]


def ref_cubic(u1, u2, u3, v1, v2, v3):
    u12, u13, u23 = u1 - u2, u1 - u3, u2 - u3
    v12, v13, v23 = v1 - v2, v1 - v3, v2 - v3
    out = [(u12, v12), (u23, v13), (u12, v23), (u23, v23), (u12, v13), (u23, v12), (u13, v13)]
    out += [(-u12, v12), (-u23, v23), (-u12, v23), (-u23, v12)]
    return out


def ref_laurent_identity(v, vp):
    return ref_cybe(v, vp)  # guarded on r0, whose guards r1 shares


def _ref_ok(f, pts, margin):
    return lambda z: all(f.pole_distance(*p) > margin for p in pts(*z))


def _ref_aybe2_ok(rm, margin):
    guarded = _ref_ok(rm, ref_aybe2, margin)
    return lambda z: min(abs(z[0]), abs(z[1])) >= margin and guarded(z)


def _stream_cases(obd, m):
    """(name, nvars, reference ok at margin m, run(plan)) for every suite on ``_run_at``."""
    r = trigonometric_r(obd.bd)
    R = quantum_R(obd.bd)
    r0 = classical_r0(obd.bd)
    rm = multiplicative_r(obd)
    a = np.eye(obd.n)
    return [
        ("aybe", 4, _ref_ok(r, ref_aybe(2), m), lambda p: residual_aybe(r, p)),
        ("unitarity", 2, _ref_ok(r, ref_unitarity, m), lambda p: residual_unitarity(r, p)),
        ("qybe", 2, _ref_ok(R, ref_qybe, m), lambda p: residual_qybe(R, 0.9 + 0.2j, p)),
        ("qybe-unitarity", 2, _ref_ok(R, ref_qybe_unitarity, m),
         lambda p: residual_qybe_unitarity(R, p)),
        ("cybe", 2, _ref_ok(r0, ref_cybe, m), lambda p: residual_cybe(r0, p)),
        ("aybe2", 5, _ref_aybe2_ok(rm, m), lambda p: residual_aybe2(rm, p)),
        ("cubic", 6, _ref_ok(r, ref_cubic, m), lambda p: residual_cubic(r, p)),
        ("laurent-identity", 2, _ref_ok(laurent_r0(r), ref_laurent_identity, m),
         lambda p: residual_laurent_identity(r, p)),
        ("symmetry", 2, _ref_ok(r, lambda *z: [z], m), lambda p: residual_symmetry(r, a, p)),
    ]


class _Drawn(Exception):
    """Carries the samples of a suite's draw, skipping its evaluation."""


def _drawn(monkeypatch, run, plan):
    """The samples ``run(plan)`` draws."""
    draw = SamplePlan.draw

    def stop(self, nvars, ok):
        raise _Drawn(draw(self, nvars, ok))

    with monkeypatch.context() as m, pytest.raises(_Drawn) as caught:
        m.setattr(SamplePlan, "draw", stop)
        run(plan)
    return caught.value.args[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suites_draw_the_samples_of_their_reference_guard_lists(monkeypatch, seed):
    plan = SamplePlan(seed=seed, count=32, guard_margin=0.5)
    for bd in [bd for n in (1, 2, 3) for bd in enumerate_structures(n)]:
        obd = OrderedBDStructure(bd, min(bd.graph - bd.gamma2))
        for name, nvars, ref_ok, run in _stream_cases(obd, plan.guard_margin):
            want = plan.draw(nvars, ref_ok)
            assert _drawn(monkeypatch, run, plan) == want, (name, obd)


#: two simple splitting matrices, at N = 3 and N = 5
ORACLE_MATRICES = (matrix_from_sequence(3, 2, (1, 2, 2)), matrix_from_sequence(5, 3, (1, 1, 2, 2, 3)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_h_equation_and_oracle_draw_the_samples_of_their_hand_rules(monkeypatch, seed):
    # the rules each check kept by hand before it ran on the one guarded runner
    plan = SamplePlan(seed=seed, count=32, guard_margin=0.5)
    m = plan.guard_margin

    def h_ok(z):
        v1, v2, v3 = z
        return all(exp_pole_distance(w) > m for w in (v1 - v2, v2 - v3, v3 - v1))

    for kind in ("inverse_v", "half_coth"):
        assert _drawn(monkeypatch, lambda p: residual_h_equation(kind, p), plan) == plan.draw(3, h_ok)
    for mat in ORACLE_MATRICES:
        guards = multiplicative_guards(mat.n_rows)
        want = plan.draw(3, lambda z: min(g.distance(*z) for g in guards) > m)
        assert _drawn(monkeypatch, lambda p: residual_oracle(mat, p), plan) == want


@pytest.mark.parametrize("mat", ORACLE_MATRICES)
def test_oracle_report_holds_the_map_deviation_of_each_triple(monkeypatch, mat):
    plan = SamplePlan(seed=4, count=6)
    rep = residual_oracle(mat, plan)
    triples = _drawn(monkeypatch, lambda p: residual_oracle(mat, p), plan)
    want = tuple(massey_closed(mat, *z).max_abs_diff(massey_oracle(mat, *z)) for z in triples)
    assert rep.per_sample == want and rep.tol == verify.ORACLE_TOL and rep.passed


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_abc_draws_the_samples_whose_evaluated_points_pass_the_x_guard(monkeypatch, seed, n):
    # the closure equations read the parts at x, x', 1/x' and x x', and nowhere else
    bd = enumerate_structures(n)[0]
    obd = OrderedBDStructure(bd, min(bd.graph - bd.gamma2))
    plan = SamplePlan(seed=seed, count=32, guard_margin=0.5)

    def ok(z):
        x, xp = z
        return all(x_pole_distance(n, w) > 0.5 for w in (x, xp, 1.0 / xp, x * xp))

    assert _drawn(monkeypatch, lambda p: residual_abc(obd, p), plan) == plan.draw(2, ok)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cubic_s_points_guard_both_signs_of_u(monkeypatch, bd3, seed):
    # r's guards read u and v apart, so there cubic's s-points add no guard its
    # r-points lack; R's prefactor guard couples u and v, so here each one counts
    R = quantum_R(bd3)
    plan = SamplePlan(seed=seed, count=32, guard_margin=0.5)
    want = plan.draw(6, _ref_ok(R, ref_cubic, plan.guard_margin))
    assert _drawn(monkeypatch, lambda p: residual_cubic(R, p), plan) == want


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "suite,nvars,ref", [(residual_aybe, 2, ref_aybe(1)), (residual_unitarity, 1, ref_unitarity)]
)
def test_one_variable_suites_draw_the_samples_of_their_reference_guard_lists(
    monkeypatch, seed, suite, nvars, ref
):
    r = u_only_r(np.diag([0.3, -0.3]))
    plan = SamplePlan(seed=seed, count=32, guard_margin=0.5)
    want = plan.draw(nvars, _ref_ok(r, ref, plan.guard_margin))
    assert _drawn(monkeypatch, lambda p: suite(r, p), plan) == want


# ---------------------------------------------------------------------------
# the one contraction, against dense products
# ---------------------------------------------------------------------------

SLOT_PAIRS = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))


def _dense(t, slots):
    return embed(t, slots).op_matrix()


def _dense_sum(*products):
    """The signed sum of ``products`` as full N^3 x N^3 matrix products."""
    total = 0
    for sign, *factors in products:
        term = _dense(*factors[0])
        for factor in factors[1:]:
            term = term @ _dense(*factor)
        total = total + sign * term
    return total


def _sparse(rng, n, density):
    shape = (n,) * 4
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Tensor2(n, coeffs * (rng.random(shape) < density))


@pytest.mark.parametrize("n", [2, 3])
def test_sum_matches_dense_products(monkeypatch, n):
    rng = np.random.default_rng(2600 + n)
    a, b, c = (_sparse(rng, n, 1.0) for _ in range(3))
    # about 5% of the coefficients, as in the term tables of the families, and
    # an all-zero factor, as abc's b(x) is when no tau pair is negative
    d, e, zero = _sparse(rng, 4, 0.05), _sparse(rng, 4, 0.05), Tensor2.zero(n)
    cases = [
        [(sign, (a, left), (b, right))]
        for left in SLOT_PAIRS for right in SLOT_PAIRS for sign in (1, -1)
    ]
    cases += [
        [(1, (d, left), (e, right)), (-1, (e, right), (d, left)), (1, (d, right))]
        for left in SLOT_PAIRS for right in SLOT_PAIRS
    ]
    A, B, C = (a, (2, 1)), (b, (1, 3)), (c, (3, 2))
    # one-factor and three-factor products, and products that share their left factor
    runs = [(1, A), (-1, A, B, C), (1, A, C), (-1, B, A), (-1, C), (1, C, A)]
    with_zero = [(1, A, B), (-1, (zero, (1, 2)), C), (1, B, (zero, (2, 3)), A)]
    cache = {}  # shared by every call, as by the identities of one sample
    for products in cases + [runs, with_zero]:
        want = _dense_sum(*products)
        for got in (verify._sum(products, (), {}), verify._sum(products, (), cache)):
            assert np.abs(got - want).max() / np.abs(want).max() < 1e-13, products
    # rhs products are subtracted
    want = _dense_sum(*runs[:2], *((-sign, *f) for sign, *f in runs[2:]))
    assert np.abs(verify._sum(runs[:2], runs[2:], cache) - want).max() / np.abs(want).max() < 1e-13
    assert not verify._sum(((1, (zero, (1, 2)), B),), ((1, C, (zero, (3, 1))),), {}).any()

    calls = []
    op_matrix = Tensor3.op_matrix
    monkeypatch.setattr(Tensor3, "op_matrix", lambda t: calls.append(t) or op_matrix(t))
    identities = [(runs, ()), (with_zero, cases[0]), (cases[1], cases[2])]
    for k in (1, 2, 3):
        calls.clear()
        verify._residual(*identities[:k])
        assert len(calls) == k  # one dense operator per identity


def test_sum_is_non_finite_where_a_join_drops_an_infinite_coefficient():
    # inf at e_12 (x) e_11 meets only zeros of b13, whose coefficients all have p = 1:
    # the join has no pair for it, while the dense product gives inf * 0 = NaN
    ca, cb = np.zeros((2,) * 4, dtype=complex), np.zeros((2,) * 4, dtype=complex)
    ca[0, 1, 0, 0], ca[0, 0, 0, 0] = np.inf, 1.0
    cb[0, 0, 1, 1] = 1.0
    products = ((1, (Tensor2(2, ca), (1, 2)), (Tensor2(2, cb), (1, 3))),)
    assert np.isfinite((embed(*products[0][1]) @ embed(*products[0][2])).op_matrix()).all()
    with np.errstate(invalid="ignore"):
        assert not np.isfinite(_dense_sum(*products)).all()
    assert np.isnan(verify._residual((products, ())))
    # the infinite coefficient only in the second identity of a call
    finite = ((1, (Tensor2(2, cb), (1, 2)), (Tensor2(2, cb), (2, 3))),)
    assert np.isfinite(verify._residual((finite, ())))
    assert np.isnan(verify._residual((finite, ()), ((), products)))


def test_a_sample_embeds_each_factor_and_joins_each_product_once(monkeypatch, bd4):
    calls = []
    embed_, join = verify.embed, Tensor3.__matmul__
    monkeypatch.setattr(verify, "embed", lambda t, slots: calls.append("embed") or embed_(t, slots))
    monkeypatch.setattr(Tensor3, "__matmul__", lambda a, b: calls.append("join") or join(a, b))
    plan = SamplePlan(seed=0, count=1)
    # cubic's e2 is in both of its differences; five of abc's factors are in two of its equations
    residual_cubic(trigonometric_r(bd4), plan)
    assert (calls.count("embed"), calls.count("join")) == (11, 8)
    calls.clear()
    residual_abc(OrderedBDStructure(bd4, (4, 1)), plan)
    assert (calls.count("embed"), calls.count("join")) == (17, 11)


def test_family_with_one_infinite_coefficient_fails_the_aybe_report():
    # the one coefficient, at e_12 (x) e_12, meets itself in no product of the
    # equation, so every join drops it and only the finiteness check sees it
    c = np.zeros((2,) * 4, dtype=complex)
    c[0, 1, 0, 1] = np.inf
    r = RFun(2, "one inf", 2, lambda u, v: Tensor2(2, c), ())
    rep = residual_aybe(r, SamplePlan(seed=3, count=4))
    assert np.isnan(rep.max_residual) and not rep.passed
