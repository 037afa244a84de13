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
(i', j') = tau^k(i, j) wherever tau^k is defined.

Each such formula is written once, as a term table built per structure:
one row per term, holding its flat index into the N^4 coefficient array
and the integer data of its weight.  An evaluation computes the weight
vector and scatters it into the array.  The classical limit reads the
trigonometric table's Laurent constant and its v-dependent blocks at
u = 0; the three-variable multiplicative form
r(x; y, y') = a(x) + y b(x) - y' c(x) + y/(y' - y) P reads the same
a/b/c table as ``abc_parts``.  The remaining families (u-only, nilpotent,
rational, gauges and limits) are closed-form closures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .structures import BDStructure, OrderedBDStructure
from .tensors import (
    Tensor2,
    as_matrix,
    compose2,
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
    "x_pole_distance",
    "exp_pole_distance",
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
]

#: at or below this pole distance evaluation refuses to proceed
HARD_GUARD = 1e-12
#: rejected candidates after which a sample plan gives up
MAX_REJECTS = 10_000
#: half-width of the sampling square: real and imaginary parts are drawn from [-RECT, RECT]
RECT = 2.0


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
        if self.pole_distance(*args) <= HARD_GUARD:
            raise PoleError(f"{self.kind} evaluated at a pole: args={args}")
        return self._fn(*args)

    def __repr__(self) -> str:
        return f"RFun(kind={self.kind!r}, n={self.n}, arity={self.arity})"


class SamplerExhausted(RuntimeError):
    """Rejection sampling failed; the guards are too tight for the rectangle."""


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic pole-avoiding sampling plan.

    Samples are complex tuples with real and imaginary parts uniform on
    [-RECT, RECT]; a candidate is kept only if every evaluation point of the
    identity stays farther than ``guard_margin`` from every declared pole
    expression.  ``draw`` gives up after ``MAX_REJECTS`` rejections.
    """

    seed: int = 0
    count: int = 32
    guard_margin: float = 0.05

    def __post_init__(self) -> None:
        # a report over zero samples would pass without checking anything
        if self.count < 1:
            raise ValueError(f"sample count must be at least 1, got {self.count}")

    def draw(self, nvars: int, ok) -> list[tuple[complex, ...]]:
        rng = np.random.default_rng(self.seed)
        points, rejects = [], 0
        while len(points) < self.count:
            z = tuple(
                complex(rng.uniform(-RECT, RECT), rng.uniform(-RECT, RECT))
                for _ in range(nvars)
            )
            if ok(z):
                points.append(z)
            else:
                rejects += 1
                if rejects > MAX_REJECTS:
                    raise SamplerExhausted(f"exceeded {MAX_REJECTS} rejections; loosen the plan")
        return points


def exp_pole_distance(w) -> float:
    """Distance |e^w - 1| of w from the poles 2 pi i Z of 1/(e^w - 1)."""
    return abs(np.exp(w) - 1.0)


def _exp_guard(name, slots, combo):
    """Distance ``exp_pole_distance(w)`` for the linear combination w = combo(args)."""
    return Guard(name, slots, lambda *a: exp_pole_distance(combo(*a)))


def _scatter(n: int, idx: np.ndarray, weights: np.ndarray) -> Tensor2:
    """The Tensor2 whose flat coefficient array is the sum of ``weights`` at ``idx``.

    ``np.add.at`` accumulates repeated indices (P0 and the k = 0 row of the
    u-diagonal share each (i, i, i, i)).
    """
    c = np.zeros(n ** 4, dtype=complex)
    np.add.at(c, idx, weights)
    return Tensor2(n, c.reshape(n, n, n, n))


def _flat(n: int, quads: np.ndarray) -> np.ndarray:
    """Flat indices into the N^4 array of rows of 1-based labels (p, q, r, s)."""
    return np.ravel_multi_index(tuple(quads.T - 1), (n,) * 4)


#: blocks of the trigonometric formula, in the order of its prefactors
_P0, _U_DIAG, _V_OFF, _TAU = range(4)


class _TrigTable(NamedTuple):
    """One row per term of the trigonometric formula: the term adds
    sign * pre[block] * exp((k u + m v)/N) at the flat index idx."""

    n: int
    idx: np.ndarray
    block: np.ndarray
    k: np.ndarray
    m: np.ndarray
    sign: np.ndarray

    def __call__(self, pre, u, v) -> Tensor2:
        w = self.sign * np.asarray(pre)[self.block] * np.exp((self.k * u + self.m * v) / self.n)
        return _scatter(self.n, self.idx, w)


def _trig_table(bd: BDStructure) -> _TrigTable:
    n = bd.n
    rows = [((i, i, i, i), _P0, 0, 0, 1) for i in range(1, n + 1)]
    rows += [
        ((bd.c.power(i, k),) * 2 + (i, i), _U_DIAG, k, 0, 1)
        for k in range(n)
        for i in range(1, n + 1)
    ]
    # C0-distance m of every off-diagonal pair (i, j = C0^m i)
    dist = {(i, bd.c0.power(i, m)): m for i in range(1, n + 1) for m in range(1, n)}
    rows += [((i, j, j, i), _V_OFF, 0, m, 1) for (i, j), m in dist.items()]
    for k, (i, j), (ip, jp) in bd._tau_iterates:
        m = dist[(i, j)]
        rows.append(((j, i, ip, jp), _TAU, -k, -m, 1))
        rows.append(((ip, jp, j, i), _TAU, k, m, -1))
    quads, block, k, m, sign = (np.array(col) for col in zip(*rows))
    return _TrigTable(n, _flat(n, quads), block, k, m, sign)


def trigonometric_r(bd: BDStructure) -> RFun:
    """The trigonometric unitary solution attached to a structure."""
    table = _trig_table(bd)

    def fn(u, v):
        # 1/(1 - e^-v) = 1 + 1/(e^v - 1) on P0
        wv = _inv_expm1(v)
        return table((1.0 + wv, _inv_expm1(u), wv, 1.0), u, v)

    guards = (
        _exp_guard("exp(u)-1", (0,), lambda u, v: u),
        _exp_guard("exp(v)-1", (1,), lambda u, v: v),
    )
    return RFun(bd.n, "trigonometric", 2, fn, guards)


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

    # sinh(u/2) and sinh(v/2) vanish where base's guards do: e^u - 1 = 2 e^{u/2} sinh(u/2)
    guards = base.guards + (
        Guard("quantum prefactor", (0, 1), lambda u, v: abs(_quantum_scale(u, v))),
    )
    return RFun(n, "quantum", 2, fn, guards)


# ---------------------------------------------------------------------------
# multiplicative three-variable form
# ---------------------------------------------------------------------------


class _AbcTable(NamedTuple):
    """One row per term of a(x), b(x) and c(x), sorted by part (0, 1, 2 for
    a, b, c): the term adds sign * x^e, times q = 1/(1 - x^N) where geo is
    set, at the flat index idx of its part; part p fills rows cuts[p]:cuts[p+1]."""

    n: int
    idx: np.ndarray
    part: np.ndarray
    e: np.ndarray
    sign: np.ndarray
    geo: np.ndarray
    cuts: tuple[int, int, int, int]

    def weights(self, x) -> np.ndarray:
        x = complex(x)
        w = self.sign * x ** self.e
        w[self.geo] *= 1.0 / (1.0 - x ** self.n)
        return w


# residual_abc asks for the parts of one structure at four points per sample
@functools.lru_cache(maxsize=256)
def _abc_table(obd: OrderedBDStructure) -> _AbcTable:
    if obd.alpha0 in obd.bd.gamma2:
        raise ValueError("the marked edge alpha0 must avoid Gamma2 for this family")
    bd, n = obd.bd, obd.n
    labels = range(1, n + 1)
    # (part, (p, q, r, s), sign, exponent, geometric): the diagonal geometric
    # series and the positive-pair constants, then the tau sums
    rows = [(0, (i, i) + (bd.c.power(i, k),) * 2, 1, k, True) for i in labels for k in range(n)]
    rows += [(0, (i, j, j, i), 1, 0, False) for i in labels for j in labels if obd.less(i, j)]
    for k, (i, j), (ck_i, ck_j) in bd._tau_iterates:
        if obd.less(i, j):
            rows += [(0, (i, j, ck_j, ck_i), 1, k, False), (0, (ck_j, ck_i, i, j), -1, -k, False)]
        else:
            rows += [(1, (i, j, ck_j, ck_i), 1, k, False), (2, (ck_j, ck_i, i, j), 1, -k, False)]
    rows.sort(key=lambda row: row[0])
    part, quads, sign, e, geo = (np.array(col) for col in zip(*rows))
    cuts = (0, *np.searchsorted(part, (1, 2)).tolist(), len(part))
    table = _AbcTable(n, _flat(n, quads), part, e, sign, geo, cuts)
    for column in table[1:-1]:
        column.setflags(write=False)  # the cache hands the same arrays to every caller
    return table


def x_pole_distance(n: int, x) -> float:
    """Distance min(|x|, |x^n - 1|) of x from the poles of a(x), b(x) and c(x)."""
    return min(abs(x), abs(x ** n - 1.0))


def abc_parts(obd: OrderedBDStructure, x) -> tuple[Tensor2, Tensor2, Tensor2]:
    """Decomposition r(x; y, y') = a(x) + y b(x) - y' c(x) + y/(y'-y) P.

    a carries the diagonal geometric series, the positive-pair constants and
    the positive tau sums, b and c the negative ones; c(x) = b^21(1/x).
    """
    table = _abc_table(obd)
    n = obd.n
    x = complex(x)
    if x_pole_distance(n, x) <= HARD_GUARD:
        raise PoleError(f"abc parts evaluated at a pole: x={x}")
    w = table.weights(x)
    cuts = table.cuts
    return tuple(_scatter(n, table.idx[a:b], w[a:b]) for a, b in zip(cuts, cuts[1:]))


def multiplicative_r(obd: OrderedBDStructure) -> RFun:
    """The three-variable solution r(x; y, y') of the multiplicative form.

    Evaluated as a(x) + y b(x) - y' c(x) + y/(y'-y) P from the abc_parts
    terms, with signs read off the complete order fixed by alpha0 (which
    must avoid Gamma2).
    """
    table = _abc_table(obd)
    n = obd.n
    P = perm_P(n)

    def fn(x, y, yp):
        w = table.weights(x) * np.array((1.0, y, -yp))[table.part]
        return _scatter(n, table.idx, w) + (y / (yp - y)) * P

    return RFun(n, "multiplicative", 3, fn, multiplicative_guards(n))


def multiplicative_guards(n: int) -> tuple:
    """Pole guards of a rank-n three-variable family r(x; y, y') and of the
    Massey map: x at 0 or x^n = 1, y = y', and y or y' at zero."""
    return (
        Guard("x, x^N - 1", (0,), lambda x, y, yp: x_pole_distance(n, x)),
        Guard("y - y'", (1, 2), lambda x, y, yp: abs(y - yp)),
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

    # y - y' = e^{v2} (e^{v1 - v2} - 1) vanishes where the second guard does
    guards = (
        _exp_guard("exp(u1-u2)-1", (0, 1), lambda u1, u2, v1, v2: u1 - u2),
        _exp_guard("exp(v1-v2)-1", (2, 3), lambda u1, u2, v1, v2: v1 - v2),
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
    plan = SamplePlan(seed=20240517, count=3, guard_margin=0.25)
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
    operator w id + ad_a, which ``RFun`` refuses at or below ``HARD_GUARD``.
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
        # coefficient [p, q, r, s] is entry (p, q) of phi(e_sr), tensored with e_rs
        phi = np.linalg.inv(operator(u))
        return Tensor2(n, phi.reshape(n, n, n, n).transpose(0, 1, 3, 2))

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
    family, read off its term table and projected to traceless factors.

    The constant part is the table's Laurent constant at u = 0: 1 on P0 and
    k/N - 1/2 on the u-diagonal row of weight e^{ku/N}/(e^u - 1).  The
    v-dependent part is every other block at u = 0, with 1/(e^v - 1) on P0.
    """
    n = bd.n
    table = _trig_table(bd)
    const = np.select([table.block == _P0, table.block == _U_DIAG], [1.0, table.k / n - 0.5], 0.0)
    t_const = project_sl(_scatter(n, table.idx, const))

    def fn(v):
        wv = _inv_expm1(v)
        return t_const + project_sl(table((wv, 0.0, wv, 1.0), 0.0, v))

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
    if any(base in beta for _, _, beta in bd._tau_iterates):
        raise ValueError(
            "base point meets an iterated pair image; no orbit symmetry there"
        )
    vals = np.zeros(n, dtype=complex)
    s = base
    for k in range(n):
        vals[s - 1] = k / n
        s = bd.c(s)
    return np.diag(vals)
