"""Explicit solution families of the associative Yang-Baxter equation.

Every constructor returns an RFun: an immutable closure evaluating to a
Tensor2, together with pole guards (named distance functions on the sample
point) used by the verification sampler to stay away from the poles.

The trigonometric family attached to a combinatorial structure (C0, C,
Gamma1, Gamma2) on S = {1..N} is

    r(u, v) = 1/(1 - e^-v) sum_i e_ii (x) e_ii
            + 1/(e^u - 1) sum_{0<=k<N, i} e^{ku/N} e_{C^k i, C^k i} (x) e_ii
            + 1/(e^v - 1) sum_{0<m<N, j=C0^m i} e^{mv/N} e_ij (x) e_ji
            + sum_{chains, k>=1} [e^{-(ku+mv)/N} e_ji (x) e_i'j'
                                  - e^{(ku+mv)/N} e_i'j' (x) e_ji],

where the last sum runs over chain pairs (i, j) with j = C0^m(i) and
(i', j') = tau^k(i, j) wherever tau^k is defined.  The other families
(multiplicative three-variable form, u-only solutions, nilpotent and
rational families, classical limit) are built in the same style.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .structures import BDStructure, OrderedBDStructure
from .tensors import (
    Tensor2,
    as_matrix,
    compose2,
    diag_P0,
    perm_P,
    project_sl,
    swap_factors,
    sym_commutator,
    unit2,
)

__all__ = [
    "PoleError",
    "Guard",
    "RFun",
    "SamplePlan",
    "SamplerExhausted",
    "trigonometric_r",
    "quantum_R",
    "multiplicative_r",
    "multiplicative_guards",
    "abc_parts",
    "difference_form",
    "gauge_transform",
    "u_only_r",
    "nilpotent_r",
    "rational_R",
    "classical_r0",
    "laurent_r0",
    "laurent_r1",
    "s_product",
    "orbit_symmetry",
    "symmetry_shear",
]

#: below this pole distance evaluation refuses to proceed
HARD_GUARD = 1e-12


class PoleError(ArithmeticError):
    """Evaluation attempted too close to a pole or singular operator."""


def _inv_expm1(z):
    """1/(exp(z) - 1), stable near z = 0 (no cancellation in exp(z) - 1)."""
    return np.exp(-z / 2) / (2.0 * np.sinh(z / 2))


class Guard(NamedTuple):
    """Named distance-to-pole function; ``slots`` lists the argument indices read."""

    name: str
    slots: tuple[int, ...]
    distance: Callable[..., float]


class RFun:
    """Immutable tensor-valued function with declared pole guards."""

    __slots__ = ("n", "kind", "arity", "guards", "_fn")

    def __init__(self, n: int, kind: str, arity: int, fn, guards) -> None:
        self.n = n
        self.kind = kind
        self.arity = arity
        self._fn = fn
        self.guards = tuple(guards)

    def pole_distance(self, *args) -> float:
        if len(args) != self.arity:
            raise TypeError(f"{self.kind} takes {self.arity} arguments, got {len(args)}")
        if not self.guards:
            return float("inf")
        return min(g.distance(*args) for g in self.guards)

    def __call__(self, *args) -> Tensor2:
        if self.pole_distance(*args) < HARD_GUARD:
            raise PoleError(f"{self.kind} evaluated at a pole: args={args}")
        return self._fn(*args)

    def __repr__(self) -> str:
        return f"RFun(kind={self.kind!r}, n={self.n}, arity={self.arity})"


class SamplerExhausted(RuntimeError):
    """Rejection sampling failed; the guards are too tight for the rectangle."""


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic pole-avoiding sampling plan.

    Samples are complex tuples with real and imaginary parts uniform on the
    rectangle; a candidate is rejected unless every evaluation point of the
    identity keeps at least ``guard_margin`` distance from every declared
    pole expression.
    """

    seed: int = 0
    count: int = 32
    rect: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0)
    guard_margin: float = 0.05
    max_rejects: int = 10_000

    def draw(self, nvars: int, ok) -> list[tuple[complex, ...]]:
        rng = np.random.default_rng(self.seed)
        lo_re, hi_re, lo_im, hi_im = self.rect
        points, rejects = [], 0
        while len(points) < self.count:
            z = tuple(
                complex(rng.uniform(lo_re, hi_re), rng.uniform(lo_im, hi_im))
                for _ in range(nvars)
            )
            if ok(z):
                points.append(z)
            else:
                rejects += 1
                if rejects > self.max_rejects:
                    raise SamplerExhausted(
                        f"exceeded {self.max_rejects} rejections; loosen the plan"
                    )
        return points


def _exp_guard(name, slots, combo):
    """Distance |e^w - 1| for the linear combination w = combo(args)."""
    return Guard(name, slots, lambda *a: abs(np.exp(combo(*a)) - 1.0))


def _trig_terms(bd: BDStructure):
    """Precomputed index data for the trigonometric formula."""
    n = bd.n
    # chain pairs with their C0-distance m and all defined tau iterates
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
    pairs_m = [
        (i, bd.c0.power(i, m), m) for i in range(1, n + 1) for m in range(1, n)
    ]
    cpow = [{i: bd.c.power(i, k) for i in range(1, n + 1)} for k in range(n)]
    return chains, pairs_m, cpow


def trigonometric_r(bd: BDStructure) -> RFun:
    """The trigonometric unitary solution attached to a structure."""
    n = bd.n
    chains, pairs_m, cpow = _trig_terms(bd)

    def fn(u, v):
        c = np.zeros((n, n, n, n), dtype=complex)
        # diagonal P0 block; 1/(1 - e^-v) = 1 + 1/(e^v - 1)
        wv2 = _inv_expm1(v)
        wv = 1.0 + wv2
        for i in range(1, n + 1):
            c[i - 1, i - 1, i - 1, i - 1] += wv
        # u-dependent diagonal block
        wu = _inv_expm1(u)
        for k in range(n):
            f = wu * np.exp(k * u / n)
            for i in range(1, n + 1):
                s = cpow[k][i]
                c[s - 1, s - 1, i - 1, i - 1] += f
        # off-diagonal v block
        for (i, j, m) in pairs_m:
            c[i - 1, j - 1, j - 1, i - 1] += wv2 * np.exp(m * v / n)
        # tau block
        for (i, j, m, iterates) in chains:
            for (k, (ip, jp)) in iterates:
                w = (k * u + m * v) / n
                c[j - 1, i - 1, ip - 1, jp - 1] += np.exp(-w)
                c[ip - 1, jp - 1, j - 1, i - 1] -= np.exp(w)
        return Tensor2(n, c)

    guards = (
        _exp_guard("exp(u)-1", (0,), lambda u, v: u),
        _exp_guard("exp(v)-1", (1,), lambda u, v: v),
    )
    return RFun(n, "trigonometric", 2, fn, guards)


def _quantum_scale(u, v):
    """Scalar prefactor denominator 1/(2 sinh(u/2)) + 1/(2 sinh(v/2))."""
    return 0.5 / np.sinh(u / 2) + 0.5 / np.sinh(v / 2)


def quantum_R(bd: BDStructure) -> RFun:
    """Normalization of the trigonometric solution satisfying the QYBE
    with unit quantum unitarity R(u,v) R^21(u,-v) = 1 (x) 1."""
    base = trigonometric_r(bd)
    n = bd.n

    def fn(u, v):
        return (1.0 / _quantum_scale(u, v)) * base(u, v)

    guards = base.guards + (
        Guard("sinh(u/2)", (0,), lambda u, v: abs(np.exp(u / 2) - np.exp(-u / 2))),
        Guard("sinh(v/2)", (1,), lambda u, v: abs(np.exp(v / 2) - np.exp(-v / 2))),
        Guard("quantum prefactor", (0, 1), lambda u, v: abs(_quantum_scale(u, v))),
    )
    return RFun(n, "quantum", 2, fn, guards)


# ---------------------------------------------------------------------------
# multiplicative three-variable form
# ---------------------------------------------------------------------------


def _require_alpha0_outside_gamma2(obd: OrderedBDStructure) -> None:
    if obd.alpha0 in obd.bd.gamma2:
        raise ValueError("the marked edge alpha0 must avoid Gamma2 for this family")


def _signed_tau_data(obd: OrderedBDStructure):
    """Lists (k, i, j, C^k j, C^k i) for the positive/negative tau^k domains."""
    bd = obd.bd
    plus, minus = [], []
    for k in range(1, bd.depth + 1):
        for (i, j) in sorted(bd.tau_domain(k)):
            ck_i, ck_j = bd.c.power(i, k), bd.c.power(j, k)
            row = (k, i, j, ck_j, ck_i)
            (plus if obd.is_positive((i, j)) else minus).append(row)
    return plus, minus


def abc_parts(obd: OrderedBDStructure, x) -> tuple[Tensor2, Tensor2, Tensor2]:
    """Decomposition r(x; y, y') = a(x) + y b(x) - y' c(x) + y/(y'-y) P.

    a carries the diagonal geometric series and the positive tau sums,
    b and c the negative ones; c(x) = b^21(1/x).
    """
    _require_alpha0_outside_gamma2(obd)
    bd, n = obd.bd, obd.n
    x = complex(x)
    if abs(x ** n - 1.0) < HARD_GUARD or abs(x) < HARD_GUARD:
        raise PoleError(f"abc parts evaluated at a pole: x={x}")
    plus, minus = _signed_tau_data(obd)

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

    return Tensor2(n, ca), Tensor2(n, cb), Tensor2(n, cc)


def multiplicative_r(obd: OrderedBDStructure) -> RFun:
    """The three-variable solution r(x; y, y') of the multiplicative form.

    Assembled as r_const(x, y/y') plus the tau sums, with signs read off the
    complete order fixed by alpha0 (which must avoid Gamma2).
    """
    _require_alpha0_outside_gamma2(obd)
    bd, n = obd.bd, obd.n
    plus, minus = _signed_tau_data(obd)
    positive_pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and obd.less(i, j)
    ]

    def fn(x, y, yp):
        c = np.zeros((n, n, n, n), dtype=complex)
        z = y / yp
        w = z / (1.0 - z)
        for (i, j) in positive_pairs:
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
        return Tensor2(n, c)

    return RFun(n, "multiplicative", 3, fn, multiplicative_guards(n))


def multiplicative_guards(n: int) -> tuple:
    """Pole guards of a rank-n three-variable family r(x; y, y'): x^n = 1,
    y = y', and x, y or y' at zero."""
    return (
        Guard("x^N - 1", (0,), lambda x, y, yp: abs(x ** n - 1.0)),
        Guard("y - y'", (1, 2), lambda x, y, yp: abs(y - yp)),
        Guard("x", (0,), lambda x, y, yp: abs(x)),
        Guard("y", (1,), lambda x, y, yp: abs(y)),
        Guard("y'", (2,), lambda x, y, yp: abs(yp)),
    )


def difference_form(obd: OrderedBDStructure) -> RFun:
    """Gauge of the multiplicative form depending only on the differences.

    Evaluated at (u1, u2, v1, v2) with x = e^{(u1-u2)/N}, y = e^{v1},
    y' = e^{v2}; each coefficient of e_pq (x) e_rs picks up the factor
    e^{[(pos q - pos p) v1 + (pos s - pos r) v2]/N}.  The result equals
    minus the trigonometric solution of the inverse structure at
    (u1 - u2, v1 - v2).
    """
    rm = multiplicative_r(obd)
    n = obd.n
    pos = np.array([obd.position(s) for s in range(1, n + 1)], dtype=float)

    def fn(u1, u2, v1, v2):
        x = np.exp((u1 - u2) / n)
        y, yp = np.exp(v1), np.exp(v2)
        t = rm(x, y, yp)
        dp = pos[None, :] - pos[:, None]  # dp[p, q] = pos[q] - pos[p]
        m1 = np.exp(dp * v1 / n)
        m2 = np.exp(dp * v2 / n)
        return Tensor2(n, t.coeffs * m1[:, :, None, None] * m2[None, None, :, :])

    guards = (
        _exp_guard("exp(u1-u2)-1", (0, 1), lambda u1, u2, v1, v2: u1 - u2),
        _exp_guard("exp(v1-v2)-1", (2, 3), lambda u1, u2, v1, v2: v1 - v2),
        Guard(
            "exp(v1) - exp(v2)",
            (2, 3),
            lambda u1, u2, v1, v2: abs(np.exp(v1) - np.exp(v2)),
        ),
    )
    return RFun(n, "difference", 4, fn, guards)


# ---------------------------------------------------------------------------
# gauge family
# ---------------------------------------------------------------------------


def gauge_transform(r: RFun, lam=0.0, c=1.0, cprime=1.0, a=None, b=None) -> RFun:
    """The equivalence family

        c e^{lam u v} e^{u (1 (x) a) + v (b (x) 1)} r(c u, c' v)
          e^{-u (a (x) 1) - v (b (x) 1)}

    for diagonal infinitesimal symmetries a, b of r.  The symmetry
    requirement is verified numerically at construction instead of being
    trusted, so a bad gauge never silently produces a non-solution.
    """
    if r.arity != 2:
        raise ValueError("gauge transform applies to two-variable functions")
    n = r.n
    c = complex(c)
    cprime = complex(cprime)
    if abs(c) < HARD_GUARD or abs(cprime) < HARD_GUARD:
        raise ValueError("rescaling constants must be nonzero")
    a = np.zeros((n, n), dtype=complex) if a is None else as_matrix(a, n)
    b = np.zeros((n, n), dtype=complex) if b is None else as_matrix(b, n)
    plan = SamplePlan(seed=20240517, count=3, rect=(-1.5, 1.5, -1.5, 1.5), guard_margin=0.25)
    pts = plan.draw(r.arity, lambda z: r.pole_distance(*z) > plan.guard_margin)
    for name, m in (("a", a), ("b", b)):
        if np.abs(m - np.diag(np.diag(m))).max() > 1e-12:
            raise ValueError(f"gauge symmetry {name} must be diagonal")
        for pt in pts:
            res = sym_commutator(r(*pt), m).max_abs()
            if res > 1e-8 * (1.0 + r(*pt).max_abs()):
                raise ValueError(f"gauge matrix {name} is not an infinitesimal symmetry")
    da = np.diag(a)
    db = np.diag(b)

    def fn(u, v):
        t = r(c * u, cprime * v)
        left1 = np.exp(v * db)            # e^{v b} acting on the first factor
        left2 = np.exp(u * da)            # e^{u a} acting on the second factor
        right1 = np.exp(-(u * da + v * db))
        scale = complex(c) * np.exp(lam * u * v)
        coeffs = t.coeffs * left1[:, None, None, None] * right1[None, :, None, None]
        coeffs = coeffs * left2[None, None, :, None]
        return Tensor2(n, scale * coeffs)

    guards = tuple(
        Guard(g.name, g.slots, (lambda gg: lambda u, v: gg.distance(c * u, cprime * v))(g))
        for g in r.guards
    )
    return RFun(n, "gauge", 2, fn, guards)


# ---------------------------------------------------------------------------
# u-only solutions
# ---------------------------------------------------------------------------


def u_only_r(a, c=1.0) -> RFun:
    """Solutions of the one-variable equation, r(u) = (phi(cu) (x) id)(P),
    where phi(w) inverts X -> w X + [a, X] on Mat(N, C).

    Each evaluation solves the defining linear equation for all matrix
    units at once; the guard is the smallest singular value of the
    operator w id + ad_a.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a must be a square matrix")
    n = a.shape[0]
    c = complex(c)
    if abs(c) < HARD_GUARD:
        raise ValueError("scaling constant must be nonzero")
    eye = np.eye(n)
    ad = np.kron(a, eye) - np.kron(eye, a.T)  # row-major vec: vec(aY - Ya)

    def operator(u):
        return c * u * np.eye(n * n) + ad

    def fn(u):
        op = operator(u)
        if np.linalg.svd(op, compute_uv=False)[-1] <= 1e-8:
            raise PoleError(f"defining operator is singular at u={u}")
        phi = np.linalg.inv(op)
        coeffs = np.zeros((n, n, n, n), dtype=complex)
        for rr in range(n):
            for ss in range(n):
                # phi(e_{ss rr}) tensored with e_{rr ss}
                col = phi[:, ss * n + rr].reshape(n, n)
                coeffs[:, :, rr, ss] = col
        return Tensor2(n, coeffs)

    guards = (
        Guard(
            "sigma_min(c u + ad_a)",
            (0,),
            lambda u: float(np.linalg.svd(operator(u), compute_uv=False)[-1]),
        ),
    )
    return RFun(n, "u_only", 1, fn, guards)


# ---------------------------------------------------------------------------
# nilpotent and rational families
# ---------------------------------------------------------------------------


def nilpotent_r(omega: Tensor2, power: int) -> RFun:
    """The family omega/u^power + P/v.

    Requires omega^12 omega^13 = 0 and omega^21 = (-1)^(power-1) omega,
    both checked numerically at construction.
    """
    if power < 1:
        raise ValueError("pole order must be >= 1")
    n = omega.n
    scale = max(1.0, omega.max_abs())
    prod12_13 = np.einsum("pqrs,qRSu->pRrsSu", omega.coeffs, omega.coeffs)
    # (id (x) mu) of omega^12 omega^13 is the plain product; the full
    # three-slot product must vanish entry by entry
    if np.abs(prod12_13).max() > 1e-12 * scale * scale:
        raise ValueError("omega^12 omega^13 does not vanish")
    sign = (-1.0) ** (power - 1)
    if (swap_factors(omega) - sign * omega).max_abs() > 1e-12 * scale:
        raise ValueError("omega fails the swap symmetry for this pole order")
    P = perm_P(n)

    def fn(u, v):
        return (u ** (-power)) * omega + (1.0 / v) * P

    guards = (
        Guard("u", (0,), lambda u, v: abs(u)),
        Guard("v", (1,), lambda u, v: abs(v)),
    )
    return RFun(n, "nilpotent", 2, fn, guards)


def rational_R(n: int, c=1.0) -> RFun:
    """The u-independent rational family R(u, v) = (1 + cu/v)^-1 (1 + u P/v).

    Satisfies the QYBE in v for every c; the quantum unitarity
    R(u,v) R^21(u,-v) = 1 (x) 1 singles out c^2 = 1, matching the
    normalization of the underlying solution P/v.
    """
    c = complex(c)
    if abs(c) < HARD_GUARD:
        raise ValueError("constant must be nonzero")
    one = unit2(n)
    P = perm_P(n)

    def fn(u, v):
        return (1.0 / (1.0 + c * u / v)) * (one + (u / v) * P)

    guards = (
        Guard("v", (1,), lambda u, v: abs(v)),
        Guard("v + cu", (0, 1), lambda u, v: abs(v + c * u)),
    )
    return RFun(n, "rational", 2, fn, guards)


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------


def classical_r0(bd: BDStructure) -> RFun:
    """Closed form of the sl_N (x) sl_N classical limit of the trigonometric
    family: the constant part t = (1/2)(pr (x) pr) P0 + s_C plus the
    v-dependent diagonal and tau blocks, projected to traceless factors."""
    n = bd.n
    chains, pairs_m, _ = _trig_terms(bd)

    s_c = np.zeros((n, n, n, n), dtype=complex)
    for i in range(1, n + 1):
        for k in range(1, n):
            t = bd.c.power(i, k)
            s_c[i - 1, i - 1, t - 1, t - 1] += 0.5 - k / n
    t_const = project_sl(0.5 * diag_P0(n) + Tensor2(n, s_c), {1, 2})

    def fn(v):
        c = np.zeros((n, n, n, n), dtype=complex)
        wv = _inv_expm1(v)
        for i in range(1, n + 1):
            c[i - 1, i - 1, i - 1, i - 1] += wv
        for (i, j, m) in pairs_m:
            c[i - 1, j - 1, j - 1, i - 1] += wv * np.exp(m * v / n)
        for (i, j, m, iterates) in chains:
            for (k, (ip, jp)) in iterates:
                w = m * v / n
                c[j - 1, i - 1, ip - 1, jp - 1] += np.exp(-w)
                c[ip - 1, jp - 1, j - 1, i - 1] -= np.exp(w)
        return t_const + project_sl(Tensor2(n, c), {1, 2})

    guards = (_exp_guard("exp(v)-1", (0,), lambda v: v),)
    return RFun(n, "classical", 1, fn, guards)


def _v_only_guards(r: RFun):
    """Guards of a two-variable function that do not read the u slot."""
    out = []
    for g in r.guards:
        if 0 in g.slots:
            continue
        out.append(Guard(g.name, (0,), (lambda gg: lambda v: gg.distance(0.0, v))(g)))
    return tuple(out)


def laurent_r0(r: RFun, eps: float = 1e-4) -> RFun:
    """Constant Laurent coefficient at u = 0 by central symmetrization:
    (r(eps, v) + r(-eps, v))/2 = r0(v) + O(eps^2)."""
    if r.arity != 2:
        raise ValueError("Laurent extraction needs a two-variable function")

    def fn(v):
        return 0.5 * (r._fn(eps, v) + r._fn(-eps, v))

    return RFun(r.n, "laurent_r0", 1, fn, _v_only_guards(r))


def laurent_r1(r: RFun, eps: float = 1e-4) -> RFun:
    """Linear Laurent coefficient at u = 0:
    (r(eps, v) - r(-eps, v))/(2 eps) - (1 (x) 1)/eps^2 = r1(v) + O(eps^2)."""
    if r.arity != 2:
        raise ValueError("Laurent extraction needs a two-variable function")
    pole = unit2(r.n)

    def fn(v):
        d = (r._fn(eps, v) - r._fn(-eps, v)) * (0.5 / eps)
        return d - (1.0 / eps ** 2) * pole

    return RFun(r.n, "laurent_r1", 1, fn, _v_only_guards(r))


def s_product(r: RFun) -> RFun:
    """The product s(u, v) = r(u, v) r(-u, v)."""
    if r.arity != 2:
        raise ValueError("s-product needs a two-variable function")

    def fn(u, v):
        return compose2(r(u, v), r(-u, v))

    guards = tuple(
        Guard(g.name, g.slots, (lambda gg: lambda u, v: min(gg.distance(u, v), gg.distance(-u, v)))(g))
        for g in r.guards
    )
    return RFun(r.n, "s_product", 2, fn, guards)


# ---------------------------------------------------------------------------
# diagonal symmetries from the moving cycle
# ---------------------------------------------------------------------------


def orbit_symmetry(bd: BDStructure, base: int) -> np.ndarray:
    """Diagonal infinitesimal symmetry a = sum_i O(base, i)/N e_ii, where
    O(base, i) is the number of C-steps from ``base`` to i.

    The base point must not occur as a coordinate of any iterated image
    tau^k(alpha), k >= 1; this is exactly the condition under which a
    commutes with the trigonometric solution and the one-sided gauge
    e^{u (1 (x) a)} r e^{-u (a (x) 1)} concentrates the whole u-dependence
    in the scalar 1/(e^u - 1).  (With empty Gamma1 every base is valid.)
    """
    n = bd.n
    forbidden = set()
    for k in range(1, bd.depth + 1):
        for alpha in bd.tau_domain(k):
            beta = bd.tau(alpha, k)
            forbidden.update(beta)
    if base in forbidden:
        raise ValueError(
            "base point meets an iterated pair image; no orbit symmetry there"
        )
    vals = np.zeros(n, dtype=complex)
    s = base
    for k in range(n):
        vals[s - 1] = k / n
        s = bd.c(s)
    return np.diag(vals)


def symmetry_shear(r: RFun, a) -> RFun:
    """The one-sided gauge e^{u (1 (x) a)} r(u, v) e^{-u (a (x) 1)} for diagonal a."""
    n = r.n
    a = as_matrix(a, n)
    da = np.diag(a)

    def fn(u, v):
        t = r(u, v)
        left2 = np.exp(u * da)
        right1 = np.exp(-u * da)
        coeffs = t.coeffs * right1[None, :, None, None] * left2[None, None, :, None]
        return Tensor2(n, coeffs)

    return RFun(n, "sheared", 2, fn, r.guards)
