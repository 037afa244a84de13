"""Residual suites over seeded pole-avoiding sample plans, with structured reports.

Each suite draws a deterministic sequence of complex sample tuples,
evaluates the identity, and reports the maximum absolute coefficient of
left minus right.  Every identity lists its evaluation points once, as
(RFun, arguments) pairs of a sample (the a/b/c closure's RFun gives its
parts at x, the s-identity's its target scalar times 1 (x) 1, the
h-equation's the scalars h(w) and h'(w), the oracle comparison's the two
Massey maps): that list rejects any tuple with a point within the guard
margin of a declared pole, and supplies the values the residual
contracts.  ``_run_at`` is the one runner and ``Report`` the one
aggregation, a NaN-propagating max, so a NaN or infinite sample anywhere
fails the report, and reports are independent of evaluation order;
identical seeds give bit-identical reports.

An identity in A (x) A (x) A is a pair (lhs, rhs) of lists of signed
products of (tensor, slots) factors, and ``_residual`` alone contracts all
the identities of a sample: it embeds each distinct factor once as a sparse
``Tensor3``, joins each distinct product once, and forms one dense
N^3 x N^3 operator of lhs - rhs per identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import bundles
from .solutions import (
    Guard,
    RFun,
    SamplePlan,
    SamplerExhausted,
    abc_parts,
    exp_pole_distance,
    laurent_r0,
    laurent_r1,
    multiplicative_guards,
    s_product,
    x_pole_distance,
)
from .structures import OrderedBDStructure
from .tensors import Tensor2, Tensor3, compose2, embed, swap_factors, sym_commutator, unit2

__all__ = [
    "SamplePlan",
    "Report",
    "SamplerExhausted",
    "residual_aybe",
    "residual_unitarity",
    "residual_qybe",
    "residual_qybe_unitarity",
    "residual_cybe",
    "residual_aybe2",
    "residual_s_identity",
    "residual_cubic",
    "residual_abc",
    "residual_h_equation",
    "residual_symmetry",
    "residual_laurent_identity",
    "residual_oracle",
    "perturb",
    "finite_or_null",
    "DEFAULT_TOL",
    "EXTRACTION_TOL",
    "ORACLE_TOL",
    "U_FIXED",
]

DEFAULT_TOL = 1e-8
EXTRACTION_TOL = 1e-5
ORACLE_TOL = 1e-9
#: the fixed first argument at which the QYBE is checked in v
U_FIXED = 0.9 + 0.2j


def finite_or_null(value):
    """``value`` if it is a finite number, else None (JSON null): strict JSON has no NaN."""
    return value if value is not None and math.isfinite(value) else None


@dataclass(frozen=True)
class Report:
    """Outcome of one residual suite: one residual per sample of its plan."""

    suite: str
    plan: SamplePlan
    per_sample: tuple[float, ...]
    tol: float

    def __post_init__(self) -> None:
        # a report missing samples would pass on fewer checks than its plan promises
        if len(self.per_sample) != self.plan.count:
            raise ValueError(f"{self.suite}: {len(self.per_sample)} residuals, {self.plan.count} samples")

    @property
    def max_residual(self) -> float:
        return float(np.max(self.per_sample))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol

    def to_json(self) -> str:
        doc = {
            "suite": self.suite,
            "seed": self.plan.seed,
            "samples": len(self.per_sample),
            "max_residual": finite_or_null(self.max_residual),
            "tol": finite_or_null(self.tol),
            "pass": self.passed,
        }
        return json.dumps(doc, sort_keys=True)

    def __repr__(self) -> str:
        flag = "pass" if self.passed else "FAIL"
        return f"Report({self.suite}: max={self.max_residual:.3g} tol={self.tol:g} {flag})"


def _worst(*values: float) -> float:
    """Largest of ``values``; NaN if any is NaN, where ``max`` would drop a later one."""
    return float(np.max(values))


def _product(factors, cache) -> Tensor3:
    """The sparse product of ``factors``, each ``(tensor, slots)``, kept in ``cache``.

    The key of a product is its factors' ids and slots, so a one-factor key
    holds an embedding; each is made once per cache.
    """
    key = tuple((id(t), slots) for t, slots in factors)
    if key not in cache:
        *head, (t, slots) = factors
        cache[key] = _product(head, cache) @ _product(factors[-1:], cache) if head else embed(t, slots)
    return cache[key]


def _sum(lhs, rhs, cache) -> np.ndarray:
    """Operator of ``lhs`` minus ``rhs``, lists of signed products ``(sign, (tensor, slots), ...)``.

    The terms are concatenated lhs first, then rhs negated, in list order.
    """
    terms = [(sign, _product(f, cache)) for sign, *f in lhs]
    terms += [(-sign, _product(f, cache)) for sign, *f in rhs]
    rows = np.concatenate([t.rows for _, t in terms])
    cols = np.concatenate([t.cols for _, t in terms])
    vals = np.concatenate([t.vals if sign > 0 else -t.vals for sign, t in terms])
    return Tensor3(terms[0][1].n, rows, cols, vals).op_matrix()


def _residual(*identities) -> float:
    """Worst max-abs of lhs - rhs over ``identities``, each a pair (lhs, rhs) for ``_sum``.

    All identities share one cache, so a factor is embedded and a product
    joined once per call.  A join drops an entry that meets no entry of the
    next factor, where a dense product gives inf * 0 = NaN; so a non-finite
    coefficient in any factor makes the residual NaN, and the report fails.
    """
    cache = {}
    worst = _worst(*(np.abs(_sum(lhs, rhs, cache)).max() for lhs, rhs in identities))
    finite = all(np.isfinite(t.vals).all() for key, t in cache.items() if len(key) == 1)
    return worst if finite else math.nan


def _aybe(a12, a13, a23, b12, b13, b23) -> tuple:
    """The products of a12 a13 - a23 b12 + b13 b23, the shape of every associative equation."""
    return (
        (1, (a12, (1, 2)), (a13, (1, 3))),
        (-1, (a23, (2, 3)), (b12, (1, 2))),
        (1, (b13, (1, 3)), (b23, (2, 3))),
    )


def _run_at(suite, plan, tol, nvars, points, residual) -> Report:
    """Report of an identity that evaluates RFun families at listed points.

    ``points(*z)`` lists the (family, args) pairs the identity evaluates at
    sample z.  A candidate is kept if every pair keeps
    ``family.pole_distance(*args)`` above the guard margin; ``residual``
    receives the values ``family(*args)`` in order and contracts any triple
    product through ``_residual``.
    """
    margin = plan.guard_margin

    def keep(z):
        return all(f.pole_distance(*args) > margin for f, args in points(*z))

    samples = plan.draw(nvars, keep)
    per = tuple(float(residual(*(f(*args) for f, args in points(*z)))) for z in samples)
    return Report(suite, plan, per, tol)


# ---------------------------------------------------------------------------
# associative equation and unitarity
# ---------------------------------------------------------------------------


def residual_aybe(r: RFun, plan: SamplePlan = SamplePlan(), tol: float = DEFAULT_TOL) -> Report:
    """Associative Yang-Baxter residual.

    Two-variable functions are tested in (u, u', v, v'); one-variable
    functions in the u-only degeneration of the same equation.
    """
    if r.arity not in (1, 2):
        raise ValueError("aybe residual supports one- and two-variable functions")

    def points(u, up, v=0.0, vp=0.0):
        """r12, r13, r23, r12, r13, r23 of the equation; the u-only
        degeneration keeps the u entry of each."""
        pairs = ((-up, v), (u + up, v + vp), (u + up, vp), (u, v), (u, v + vp), (up, vp))
        return [(r, p[: r.arity]) for p in pairs]

    return _run_at("aybe", plan, tol, 2 * r.arity, points, lambda *t: _residual((_aybe(*t), ())))


def residual_unitarity(r: RFun, plan: SamplePlan = SamplePlan(), tol: float = DEFAULT_TOL) -> Report:
    """Unitarity residual r^21 at the negated arguments plus r itself."""
    if r.arity not in (1, 2):
        raise ValueError("unitarity residual supports one- and two-variable functions")

    def points(*z):
        return [(r, z), (r, tuple(-w for w in z))]

    def res(at, at_neg):
        return (swap_factors(at_neg) + at).max_abs()

    return _run_at("unitarity", plan, tol, r.arity, points, res)


# ---------------------------------------------------------------------------
# quantum and classical equations
# ---------------------------------------------------------------------------


def residual_qybe(
    R: RFun, u_fixed=U_FIXED, plan: SamplePlan = SamplePlan(), tol: float = DEFAULT_TOL
) -> Report:
    """Quantum Yang-Baxter residual in v at fixed u."""
    for g in R.guards:
        # a guard on u alone would reject every v, so the draw could only give up
        if g.slots == (0,) and g.distance(u_fixed, 0.0) <= plan.guard_margin:
            raise ValueError(
                f"u_fixed = {u_fixed} lies within the guard margin {plan.guard_margin} "
                f"of R's pole {g.name!r}; no v can be drawn"
            )

    def points(v, vp):
        return [(R, (u_fixed, v)), (R, (u_fixed, v + vp)), (R, (u_fixed, vp))]

    def res(r12, r13, r23):
        a, b, c = (r12, (1, 2)), (r13, (1, 3)), (r23, (2, 3))
        return _residual((((1, a, b, c),), ((1, c, b, a),)))

    return _run_at("qybe", plan, tol, 2, points, res)


def residual_qybe_unitarity(
    R: RFun, plan: SamplePlan = SamplePlan(), tol: float = DEFAULT_TOL
) -> Report:
    """Residual of R(u, v) R^21(u, -v) - 1 (x) 1."""
    one = unit2(R.n)

    def points(u, v):
        return [(R, (u, v)), (R, (u, -v))]

    def res(at, at_neg_v):
        return (compose2(at, swap_factors(at_neg_v)) - one).max_abs()

    return _run_at("qybe-unitarity", plan, tol, 2, points, res)


def _v_points(f: RFun, v, vp):
    """(f, v), (f, v + v'), (f, v'): the 12, 13 and 23 points of a one-variable identity."""
    return [(f, (v,)), (f, (v + vp,)), (f, (vp,))]


def residual_cybe(r0: RFun, plan: SamplePlan = SamplePlan(), tol: float = DEFAULT_TOL) -> Report:
    """Classical Yang-Baxter residual for a one-variable function."""
    if r0.arity != 1:
        raise ValueError("cybe residual needs a one-variable function")

    def res(r12, r13, r23):
        a, b, c = (r12, (1, 2)), (r13, (1, 3)), (r23, (2, 3))
        # [a, b] - [c, a] + [b, c]
        return _residual((((1, a, b), (1, a, c), (1, b, c)), ((1, b, a), (1, c, a), (1, c, b))))

    return _run_at("cybe", plan, tol, 2, lambda v, vp: _v_points(r0, v, vp), res)


# ---------------------------------------------------------------------------
# multiplicative three-variable form
# ---------------------------------------------------------------------------


def residual_aybe2(rm: RFun, plan: SamplePlan = SamplePlan(), tol: float = DEFAULT_TOL) -> Report:
    """Residual of the three-variable associative equation plus its unitarity."""
    if rm.arity != 3:
        raise ValueError("this residual needs a three-variable function")

    def points(x, xp, y1, y2, y3):
        """The six factors of the equation, then r21 at 1/x for unitarity; the
        x guard at (x, ...) and (x', ...) keeps both away from 0."""
        return [
            (rm, (1.0 / xp, y1, y2)),
            (rm, (x * xp, y1, y3)),
            (rm, (x * xp, y2, y3)),
            (rm, (x, y1, y2)),
            (rm, (x, y1, y3)),
            (rm, (xp, y2, y3)),
            (rm, (1.0 / x, y2, y1)),
        ]

    def res(a12, a13, a23, b12, b13, b23, inv21):
        unit = (swap_factors(b12) + inv21).max_abs()
        return _worst(_residual((_aybe(a12, a13, a23, b12, b13, b23), ())), unit)

    return _run_at("aybe2", plan, tol, 5, points, res)


def residual_abc(
    obd: OrderedBDStructure,
    plan: SamplePlan = SamplePlan(),
    tol: float = DEFAULT_TOL,
    parts=abc_parts,
) -> Report:
    """The four closure equations of the a/b/c decomposition.

    (i) the associative equation for a alone, (ii) b12 b13 = 0,
    (iii) the quadratic b relation, (iv) the mixed a/c relation.
    ``parts`` may substitute another decomposition, e.g. for mutation tests.
    """
    guard = Guard("x, x^N - 1", (0,), lambda x: x_pole_distance(obd.n, x))
    at = RFun(obd.n, "abc_parts", 1, lambda x: parts(obd, x), (guard,))

    def points(x, xp):
        """The parts at the four x the equations read."""
        return [(at, (w,)) for w in (x, xp, 1.0 / xp, x * xp)]

    def res(*parts_at):
        (ax, bx, cx), (axp, bxp, cxp), (a_inv_xp, _, _), (a_prod, b_prod, c_prod) = parts_at
        b_quadratic = (
            ((1, (bx, (1, 3)), (bxp, (2, 3))),),
            ((1, (bxp, (2, 1)), (b_prod, (1, 3))), (1, (b_prod, (2, 3)), (bx, (1, 2)))),
        )
        mixed = (
            (1, (cx, (1, 3)), (axp, (2, 3))),
            (1, (a_inv_xp, (1, 2)), (c_prod, (1, 3))),
            (-1, (c_prod, (2, 3)), (ax, (1, 2))),
            (1, (ax, (1, 3)), (cxp, (2, 3))),
        )
        return _residual(
            (_aybe(a_inv_xp, a_prod, a_prod, ax, ax, axp), ()),
            (((1, (bx, (1, 2)), (bxp, (1, 3))),), ()),
            b_quadratic,
            (mixed, ()),
        )

    return _run_at("abc", plan, tol, 2, points, res)


def residual_oracle(m, plan: SamplePlan = SamplePlan(), tol: float = ORACLE_TOL) -> Report:
    """Deviation of the closed Massey map of splitting matrix ``m`` from the gluing-system oracle."""
    # each map is looked up in bundles per call, so that a substituted one is the one compared
    guards = multiplicative_guards(m.n_rows)
    closed = RFun(m.n_rows, "massey_closed", 3, lambda *z: bundles.massey_closed(m, *z), guards)
    oracle = RFun(m.n_rows, "massey_oracle", 3, lambda *z: bundles.massey_oracle(m, *z), guards)
    return _run_at(
        "oracle", plan, tol, 3, lambda *z: [(closed, z), (oracle, z)], lambda a, b: a.max_abs_diff(b)
    )


# ---------------------------------------------------------------------------
# product identities
# ---------------------------------------------------------------------------


def _trig_s_scalar(u, v):
    return (np.exp(v / 2) - np.exp(-v / 2)) ** -2 - (np.exp(u / 2) - np.exp(-u / 2)) ** -2


def residual_s_identity(
    r: RFun,
    plan: SamplePlan = SamplePlan(),
    tol: float = DEFAULT_TOL,
    scalar=None,
) -> Report:
    """Residual of r(u,v) r(-u,v) against a scalar multiple of 1 (x) 1.

    The default scalar is the trigonometric closed form
    (2 sinh(v/2))^-2 - (2 sinh(u/2))^-2; pass another callable (u, v) ->
    complex to test families with a different product normalization,
    e.g. lambda u, v: 1/v**2.
    """
    scalar = scalar or _trig_s_scalar
    s = s_product(r)
    one = unit2(r.n)
    # the target scalar has its own poles at u, v = 0 for trig forms
    guard = Guard("u, v", (0, 1), lambda u, v: min(exp_pole_distance(u), exp_pole_distance(v)))
    target = RFun(r.n, "s-identity target", 2, lambda u, v: complex(scalar(u, v)) * one, (guard,))

    def res(at, want):
        return (at - want).max_abs()

    return _run_at("s-identity", plan, tol, 2, lambda *z: [(s, z), (target, z)], res)


def residual_cubic(r: RFun, plan: SamplePlan = SamplePlan(), tol: float = DEFAULT_TOL) -> Report:
    """Cubic identity relating triple products of r to s-brackets.

    For u_ij = u_i - u_j, v_ij = v_i - v_j the three expressions

      r12(u12,v12) r13(u23,v13) r23(u12,v23) - r23(u23,v23) r13(u12,v13) r12(u23,v12)
      s23(u23,v23) r13(u13,v13) - r13(u13,v13) s23(u21,v23)
      r13(u13,v13) s12(u32,v12) - s12(u12,v12) r13(u13,v13)

    agree for every unitary solution; the residual is the largest pairwise
    deviation.
    """
    s = s_product(r)

    def points(u1, u2, u3, v1, v2, v3):
        """The six r-factors of the triple products, r13(u13, v13), then the four
        s-factors; s guards r at both signs of its first argument."""
        u12, u13, u23 = u1 - u2, u1 - u3, u2 - u3
        v12, v13, v23 = v1 - v2, v1 - v3, v2 - v3
        return [
            (r, (u12, v12)), (r, (u23, v13)), (r, (u12, v23)),
            (r, (u23, v23)), (r, (u12, v13)), (r, (u23, v12)),
            (r, (u13, v13)),
            (s, (u23, v23)), (s, (-u12, v23)), (s, (-u23, v12)), (s, (u12, v12)),
        ]

    def res(a12, a13, a23, b23, b13, b12, r13, s23, s23_neg, s12_neg, s12):
        e1 = (
            (1, (a12, (1, 2)), (a13, (1, 3)), (a23, (2, 3))),
            (-1, (b23, (2, 3)), (b13, (1, 3)), (b12, (1, 2))),
        )
        e2 = ((1, (s23, (2, 3)), (r13, (1, 3))), (-1, (r13, (1, 3)), (s23_neg, (2, 3))))
        e3 = ((1, (r13, (1, 3)), (s12_neg, (1, 2))), (-1, (s12, (1, 2)), (r13, (1, 3))))
        return _residual((e1, e2), (e2, e3))

    return _run_at("cubic", plan, tol, 6, points, res)


def residual_laurent_identity(
    r: RFun, plan: SamplePlan = SamplePlan(), tol: float = EXTRACTION_TOL
) -> Report:
    """Quadratic identity between the first two Laurent coefficients at u = 0:

        r0^12(v) r0^13(v+v') - r0^23(v') r0^12(v) + r0^13(v+v') r0^23(v')
          = r1^12(v) + r1^13(v+v') + r1^23(v'),

    with r0, r1 extracted numerically by central differencing.
    """
    r0 = laurent_r0(r)
    r1 = laurent_r1(r)

    def points(v, vp):
        return _v_points(r0, v, vp) + _v_points(r1, v, vp)

    def res(a12, a13, a23, b12, b13, b23):
        rhs = ((1, (b12, (1, 2))), (1, (b13, (1, 3))), (1, (b23, (2, 3))))
        return _residual((_aybe(a12, a13, a23, a12, a13, a23), rhs))

    return _run_at("laurent-identity", plan, tol, 2, points, res)


# ---------------------------------------------------------------------------
# scalar functional equation and symmetries
# ---------------------------------------------------------------------------

_H_FORMS = {
    "inverse_v": (lambda v: 1.0 / v, lambda v: -1.0 / v ** 2),
    "half_coth": (
        lambda v: 0.5 / np.tanh(v / 2) - v / 12.0,
        lambda v: -0.25 / np.sinh(v / 2) ** 2 - 1.0 / 12.0,
    ),
}


def residual_h_equation(
    h_kind: str = "inverse_v",
    plan: SamplePlan = SamplePlan(),
    tol: float = 1e-10,
    h=None,
    h_prime=None,
) -> Report:
    """Residual of [h(v12)+h(v23)+h(v31)]^2 + h'(v12)+h'(v23)+h'(v31) = 0
    over triples (v1, v2, v3), with analytic derivatives.

    Solutions are rigid against adding multiples of v (the equation shifts
    by 3 lambda), so each family has a unique representative with Laurent
    expansion 1/v + O(v^3); for the hyperbolic family that representative
    is (1/2) coth(v/2) - v/12, which is what ``half_coth`` denotes.
    """
    if h is None:
        if h_kind not in _H_FORMS:
            raise ValueError(f"unknown h form {h_kind!r}")
        h, h_prime = _H_FORMS[h_kind]

    # w = 0 is one of the zeros of e^w - 1
    hw = RFun(1, "h, h'", 1, lambda w: (h(w), h_prime(w)), (Guard("exp(w)-1", (0,), exp_pole_distance),))

    def points(v1, v2, v3):
        return [(hw, (w,)) for w in (v1 - v2, v2 - v3, v3 - v1)]

    def res(*at):
        return abs(sum(value for value, _ in at) ** 2 + sum(slope for _, slope in at))

    return _run_at(f"h-equation[{h_kind}]", plan, tol, 3, points, res)


def residual_symmetry(
    r: RFun, a, plan: SamplePlan = SamplePlan(), tol: float = DEFAULT_TOL
) -> Report:
    """Residual of [a (x) 1 + 1 (x) a, r(...)] over guarded samples."""
    return _run_at(
        "symmetry", plan, tol, r.arity,
        lambda *z: [(r, z)],
        lambda t: sym_commutator(t, a).max_abs(),
    )


# ---------------------------------------------------------------------------
# harness sanity
# ---------------------------------------------------------------------------


def perturb(r: RFun, delta: float = 0.1) -> RFun:
    """Add ``delta`` to one coefficient of every value; for mutation testing."""

    def fn(*args):
        t = r(*args)
        c = t.coeffs.copy()
        c[0, 0, 0, 0] += delta
        return Tensor2(t.n, c)

    return RFun(r.n, r.kind + "+perturbed", r.arity, fn, r.guards)
