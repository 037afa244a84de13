"""Residual suites: determinism, guards, reports, and harness sanity."""

import json

import numpy as np
import pytest

from aybe.solutions import (
    RFun,
    abc_parts,
    laurent_r0,
    nilpotent_r,
    quantum_R,
    rational_R,
    trigonometric_r,
    u_only_r,
)
from aybe.structures import BDStructure, CyclicPermutation, OrderedBDStructure
from aybe.tensors import Tensor2, perm_P, unit2
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


def test_sampler_exhaustion():
    plan = SamplePlan(seed=0, count=4, guard_margin=1e9, max_rejects=50)
    bd = BDStructure(CyclicPermutation.standard(2), CyclicPermutation.standard(2), [])
    with pytest.raises(SamplerExhausted):
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
