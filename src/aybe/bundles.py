"""Splitting matrices for bundles on cycles of projective lines.

A rank-N bundle on a cycle of n projective lines is described up to the
gluing constant by an N x n integer matrix of line-bundle degrees; the
matrix extends to all column indices by m[i][j + n] = m[i - k][j] for a
fixed row shift k coprime to N.  Morphism spaces are cut out by the gluing
system

    a^j(0) = x^{delta(j)} a^{j-1}(infinity),      delta(j) = [j = 0 mod n],

over one period, where each entry a^j_{ii'} is a section of O(d) with
d = m^j_i - m^j_{i'} (twisted by one point y on column 0 for the residue
problem).  This module implements the simplicity test, the induced
complete order and partial pair bijection, the derived combinatorial
structure, the three-variable tensor assembled from the matrix data, and
the evaluate-after-residue-inversion map two ways: read off that tensor
(the closed form) and by solving the gluing system directly (the
independent oracle).  Each shift-orbit block of the gluing system is one
cycle of equations, so the oracle solves it by substitution along that
cycle and ``hom_dim`` counts its free runs; neither needs linear algebra.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .solutions import PoleError, RFun, multiplicative_guards
from .structures import BDStructure, CyclicPermutation, OrderedBDStructure, as_int
from .tensors import Tensor2

__all__ = [
    "CrossCheckFailed",
    "SplittingMatrix",
    "is_simple",
    "precedes",
    "star_order",
    "matrix_tau",
    "bd_from_matrix",
    "matrix_from_sequence",
    "sequence_from_structure",
    "realizable",
    "hom_dim",
    "MasseyMap",
    "massey_closed",
    "massey_oracle",
    "massey_tensor",
    "massey_r",
    "tau_free_matrix",
    "row_sums",
    "row_sum_rule_holds",
]


class CrossCheckFailed(RuntimeError):
    """Two independent derivations of the same combinatorial data disagree."""


@dataclass(frozen=True)
class SplittingMatrix:
    """N x n integer degree matrix with a row-shift extension rule.

    ``period`` is the period table: row i's extended entries at columns
    0 .. n*N - 1, where the extension repeats.  The simplicity test, the
    complete order and the pair bijection all read it, so the extension
    rule in ``entry`` is applied once per matrix.
    """

    rows: tuple[tuple[int, ...], ...]
    shift: int = 1
    period: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(as_int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "shift", as_int(self.shift))
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        n_rows = len(rows)
        if not (1 <= self.shift <= n_rows and math.gcd(self.shift, n_rows) == 1):
            raise ValueError("row shift must lie in [1, N] and be coprime to N")
        columns = range(n_rows * self.n_cols)
        period = tuple(tuple(self.entry(i, j) for j in columns) for i in range(1, n_rows + 1))
        object.__setattr__(self, "period", period)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def entry(self, i: int, j: int) -> int:
        """Extended entry at row i (1-based, any integer) and column j (any integer)."""
        block, j0 = divmod(j, self.n_cols)
        row = (i - 1 - block * self.shift) % self.n_rows
        return self.rows[row][j0]

    def negate(self) -> "SplittingMatrix":
        return SplittingMatrix(tuple(tuple(-v for v in row) for row in self.rows), self.shift)

    def wrap(self, i: int) -> int:
        return (i - 1) % self.n_rows + 1

    def to_json(self) -> str:
        return json.dumps(
            {"N": self.n_rows, "n": self.n_cols, "k": self.shift,
             "m": [list(r) for r in self.rows]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SplittingMatrix":
        doc = json.loads(text)
        m = cls(tuple(tuple(r) for r in doc["m"]), doc.get("k", 1))
        if m.n_rows != as_int(doc["N"]) or m.n_cols != as_int(doc["n"]):
            raise ValueError("declared dimensions disagree with the entries")
        return m


def is_simple(m: SplittingMatrix):
    """Combinatorial simplicity test.

    (a) all row differences within a column lie in {-1, 0, 1};
    (b) for each pair of distinct rows the extended difference sequence is
        not identically zero and its +1/-1 entries alternate cyclically.

    Returns (flag, witness); the witness names the violated condition and
    the offending pair.
    """
    N, n = m.n_rows, m.n_cols
    for i in range(1, N + 1):
        for ip in range(1, N + 1):
            if i == ip:
                continue
            for j in range(n):
                if abs(m.rows[i - 1][j] - m.rows[ip - 1][j]) > 1:
                    return False, ("difference out of range", i, ip, j)
    for i in range(1, N + 1):
        for ip in range(i + 1, N + 1):
            signs = [d for a, b in zip(m.period[i - 1], m.period[ip - 1]) if (d := a - b) != 0]
            if not signs:
                return False, ("identically zero", i, ip)
            for a, b in zip(signs, signs[1:] + signs[:1]):
                if a == b:
                    return False, ("alternation", i, ip)
    return True, None


def _require_simple(m: SplittingMatrix) -> None:
    flag, witness = is_simple(m)
    if not flag:
        raise ValueError(f"matrix is not simple: {witness}")


def precedes(m: SplittingMatrix, i: int, ip: int) -> bool:
    """The complete order: i before ip iff the first nonzero difference
    m^j_i - m^j_ip along j = 0, 1, ... is negative, which is the tuple
    order of their period rows."""
    if i == ip:
        return False
    a, b = m.period[i - 1], m.period[ip - 1]
    if a == b:
        raise ValueError(f"rows {i} and {ip} have identical extended columns")
    return a < b


def star_order(m: SplittingMatrix) -> tuple[int, ...]:
    """Row labels sorted by the complete order, smallest first."""
    _require_simple(m)
    return tuple(sorted(range(1, m.n_rows + 1), key=lambda i: m.period[i - 1]))


def _tau_step(m: SplittingMatrix, alpha):
    """One application of the pair bijection, or None: the rows of alpha
    agree on every interior column and the pair shifted by -k is ordered."""
    i, ip = alpha
    if i == ip or m.rows[i - 1][1:] != m.rows[ip - 1][1:]:
        return None
    ci, cip = m.wrap(i - m.shift), m.wrap(ip - m.shift)
    return (ci, cip) if precedes(m, ci, cip) else None


def _tau_step_inv(m: SplittingMatrix, beta):
    """The pair that ``_tau_step`` maps to beta, or None."""
    alpha = (m.wrap(beta[0] + m.shift), m.wrap(beta[1] + m.shift))
    return alpha if _tau_step(m, alpha) == beta else None


def matrix_tau(m: SplittingMatrix, alpha, k: int = 1):
    """k-fold pair bijection on row pairs (negative k walks backwards)."""
    step = _tau_step if k >= 0 else _tau_step_inv
    beta = tuple(alpha)
    for _ in range(abs(k)):
        beta = step(m, beta)
        if beta is None:
            return None
    return beta


def _chain(m: SplittingMatrix, alpha, step: int = 1):
    """Yield (k, matrix_tau(m, alpha, step * k)) for k = 1, 2, ... while it is defined."""
    k, beta = 1, matrix_tau(m, alpha, step)
    while beta is not None:
        yield k, beta
        k, beta = k + 1, matrix_tau(m, beta, step)


def bd_from_matrix(m: SplittingMatrix) -> OrderedBDStructure:
    """The combinatorial structure carried by a simple splitting matrix.

    The complete order comes from the first-difference rule, the moving
    cycle is i -> i - k, and the chain set P1 collects the pairs whose
    rows agree on all interior columns with order-compatible images.  The
    result is validated and cross-checked against the matrix-level pair
    bijection.
    """
    N = m.n_rows
    order = star_order(m)
    c0_images = [0] * N
    for idx, s in enumerate(order):
        c0_images[s - 1] = order[(idx + 1) % N]
    c0 = CyclicPermutation(c0_images)
    c = CyclicPermutation([m.wrap(i - m.shift) for i in range(1, N + 1)])
    p1_matrix = frozenset(
        (i, ip)
        for i in range(1, N + 1)
        for ip in range(1, N + 1)
        if _tau_step(m, (i, ip)) is not None
    )
    graph = {(s, c0(s)) for s in range(1, N + 1)}
    gamma1 = frozenset(p1_matrix & graph)
    bd = BDStructure(c0, c, gamma1)
    obd = OrderedBDStructure(bd, (order[-1], order[0]))
    # the chain-closure description must agree with the matrix-level one
    if bd.p1 != p1_matrix:
        raise CrossCheckFailed("chain closure disagrees with the matrix pair set")
    for a in sorted(bd.p1):
        if bd.tau(a, 1) != matrix_tau(m, a, 1):
            raise CrossCheckFailed(f"structure tau disagrees with the matrix tau at {a}")
    if obd.alpha0 in bd.gamma2:
        raise CrossCheckFailed(f"marked edge {obd.alpha0} lies in Gamma2")
    return obd


def matrix_from_sequence(N: int, k: int, a_seq) -> SplittingMatrix:
    """Build the standard simple matrix realizing a structure with moving
    cycle i -> i - k from a step sequence (a_1, ..., a_N).

    Requires a_1 = 1, increments in {0, 1}, a_N = n - 1 >= 1, and
    N/2 <= k < N with k coprime to N.  Ones are placed in column 0 for
    rows k+1..N and at (row k+1-i, column a_i) for each i.
    """
    a = [int(v) for v in a_seq]
    if len(a) != N or N < 2:
        raise ValueError("sequence length must equal N >= 2")
    if a[0] != 1 or any(a[i + 1] - a[i] not in (0, 1) for i in range(N - 1)):
        raise ValueError("sequence must start at 1 with increments in {0, 1}")
    if not (N / 2 <= k < N and math.gcd(k, N) == 1):
        raise ValueError("shift must satisfy N/2 <= k < N and be coprime to N")
    n = a[-1] + 1
    if n < 2:
        raise ValueError("sequence must end at n - 1 >= 1")
    rows = [[0] * n for _ in range(N)]
    for i in range(k + 1, N + 1):
        rows[i - 1][0] = 1
    for i in range(1, N + 1):
        rows[(k + 1 - i - 1) % N][a[i - 1]] = 1
    return SplittingMatrix(tuple(tuple(r) for r in rows), shift=k)


def sequence_from_structure(obd: OrderedBDStructure):
    """Invert matrix_from_sequence on standard-order structures.

    The structure must live on labels equal to their order positions with
    moving cycle i -> i - k for admissible k, and alpha0 outside Gamma2.
    Returns (N, k, a_seq).
    """
    N = obd.n
    if any(obd.position(s) != s for s in range(1, N + 1)):
        raise ValueError("labels must coincide with order positions")
    if obd.alpha0 in obd.bd.gamma2:
        raise ValueError("alpha0 must avoid Gamma2")
    k = (1 - obd.bd.c(1)) % N
    if any(obd.bd.c(i) != (i - 1 - k) % N + 1 for i in range(1, N + 1)):
        raise ValueError("moving cycle is not a shift")
    if not (N / 2 <= k < N and math.gcd(k, N) == 1):
        raise ValueError("shift outside the constructible range")
    a = [1]
    for i in range(1, N):
        j = (k - i - 1) % N + 1
        edge = (j, j % N + 1)
        a.append(a[-1] if edge in obd.bd.gamma1 else a[-1] + 1)
    return N, k, tuple(a)


def realizable(obd: OrderedBDStructure) -> bool:
    """Whether some simple splitting matrix produces this ordered structure:
    alpha0 outside Gamma2 and the moving cycle a power of C0."""
    if obd.alpha0 in obd.bd.gamma2:
        return False
    return obd.bd.c.power_of(obd.bd.c0) is not None


def row_sums(m: SplittingMatrix) -> tuple[int, ...]:
    return tuple(sum(row) for row in m.rows)


def row_sum_rule_holds(m: SplittingMatrix) -> bool:
    """Row-sum invariant: for i before ip the sums differ by -1 exactly
    when the shifted pair reverses order, and agree otherwise."""
    t = row_sums(m)
    for i in range(1, m.n_rows + 1):
        for ip in range(1, m.n_rows + 1):
            if i == ip or not precedes(m, i, ip):
                continue
            ci, cip = m.wrap(i - m.shift), m.wrap(ip - m.shift)
            expected = -1 if precedes(m, cip, ci) else 0
            if t[i - 1] - t[ip - 1] != expected:
                return False
    return True


def tau_free_matrix(N: int, n: int) -> SplittingMatrix:
    """The antidiagonal 0/1 matrix (ones at row i, column N + 1 - i for
    i < N) whose pair bijection has empty domain; requires n > N."""
    if n <= N:
        raise ValueError("need strictly more components than the rank")
    rows = [[0] * n for _ in range(N)]
    for i in range(1, N):
        rows[i - 1][N + 1 - i] = 1
    return SplittingMatrix(tuple(tuple(r) for r in rows), shift=1)


# ---------------------------------------------------------------------------
# gluing linear systems
# ---------------------------------------------------------------------------


#: how near 0 |x^N - 1|, |x|, |y|, |y'| and |y - y'| may come before the point
#: counts as a pole of the Massey map (and x as an N-th root of unity)
POLE_MARGIN = 1e-12


def _gluing_cycle(m: SplittingMatrix, delta: int) -> list[tuple[int, int, int]]:
    """Block delta of the gluing system as one cycle of its N*n entries.

    Entry (i, i', j) is glued to (i, i', j - 1), and at j = 0 to
    (i + k, i' + k, n - 1) with the factor x, so no equation leaves the
    difference class delta = i' - i mod N.  Position t*n + j holds the
    entry (i_t, i_t + delta, j) with i_t = -t*k mod N (0-based rows), so
    each equation

        value at 0 of position p = f * value at infinity of position p - 1

    links an entry to the one just before it, cyclically, with f = x on
    column 0 (positions divisible by n) and 1 elsewhere.  Returns
    (i, i', d) per position, d = m^j_i - m^j_{i'} the entry's degree.
    """
    N, n, k = m.n_rows, m.n_cols, m.shift
    return [
        (i, (i + delta) % N, m.rows[i][j] - m.rows[(i + delta) % N][j])
        for i in (-t * k % N for t in range(N))
        for j in range(n)
    ]


def hom_dim(m: SplittingMatrix, x) -> int:
    """Dimension of the solution space of the untwisted gluing system.

    A section of O(d) has max(d + 1, 0) coefficients: its values at 0 and
    infinity, which are equal for d = 0 and are 0 for d < 0, and d - 1
    interior ones that no equation reads.  The entries of nonzero degree
    ("cuts") split each block's cycle into runs of degree-0 entries; the
    equations along a run have nonzero factors, so one value fixes the
    whole run.  A run is free (one dimension) exactly when neither end cut
    pins it to 0, that is when both have degree >= 1.  A cut-free cycle
    closes on itself with the factor x^N and is free when |x^N - 1| <=
    ``POLE_MARGIN``.  Works for any matrix, simple or not; x = 0 is refused.
    """
    x = complex(x)
    if x == 0:
        raise ValueError("the gluing system is degenerate at x = 0")
    dim = 0
    for delta in range(m.n_rows):
        degrees = [d for _, _, d in _gluing_cycle(m, delta)]
        cuts = [d for d in degrees if d]
        dim += sum(max(d - 1, 0) for d in degrees)
        if cuts:
            dim += sum(a >= 1 and b >= 1 for a, b in zip(cuts, cuts[1:] + cuts[:1]))
        else:
            dim += abs(x ** m.n_rows - 1.0) <= POLE_MARGIN
    return dim


@dataclass(frozen=True)
class MasseyMap:
    """Linear map on residue matrices b -> a(y'); stored as an N^2 x N^2
    array with row index (i, i') and column index (p, p'), both flattened
    row-major."""

    n: int
    matrix: np.ndarray

    def apply(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=complex)
        if b.shape != (self.n, self.n):
            raise ValueError("residue matrix has the wrong shape")
        return (self.matrix @ b.reshape(-1)).reshape(self.n, self.n)

    def max_abs_diff(self, other: "MasseyMap") -> float:
        return float(np.abs(self.matrix - other.matrix).max())


def _check_massey_args(m, x, y, yp):
    N = m.n_rows
    x, y, yp = complex(x), complex(y), complex(yp)
    if min(abs(x ** N - 1.0), abs(y - yp), abs(x), abs(y), abs(yp)) <= POLE_MARGIN:
        raise PoleError(f"massey map evaluated at a pole: x={x}, y={y}, y'={yp}")
    return x, y, yp


def massey_closed(m: SplittingMatrix, x, y, yp) -> MasseyMap:
    """Closed-form evaluate-after-residue-inversion map, read off the tensor.

    Entry ((i, i'), (p, p')) is the coefficient of e_{p'p} (x) e_{ii'} in
    ``massey_tensor(m, x, y, yp)``, so the map and the tensor are one
    closed form; ``massey_oracle`` is the independent derivation.
    """
    N = m.n_rows
    c = massey_tensor(m, x, y, yp).coeffs
    return MasseyMap(N, c.transpose(2, 3, 1, 0).reshape(N * N, N * N))


def massey_oracle(m: SplittingMatrix, x, y, yp) -> MasseyMap:
    """Evaluate-after-residue-inversion map by solving the gluing system.

    Column 0 is twisted by the point y: an entry of degree -1 there has
    values -b at 0 and y*b at infinity, and one of degree 0 exceeds its
    value at 0 by b at infinity, where b is the residue of its pair.  Each
    shift-orbit block is one cycle of equations (``_gluing_cycle``), solved
    by substitution for each residue of the block in turn.  On a simple
    matrix the nonzero degrees alternate +1/-1 around every delta != 0
    cycle, so a residue entering at a degree-0 entry runs back to the
    degree-1 cut behind it when the next cut is -1 and forward to the next
    cut (of degree 1) otherwise, and one entering at a degree -1 entry runs
    both ways; the delta = 0 cycle has no cuts and closes with 1/(1 - x^N).
    Each column-0 entry on a walk gets the monomial c * x**e, e the number
    of factors x crossed (negative going back), and its section is then
    evaluated at y'.  So the system is singular only at x = 0 and x^N = 1,
    which ``_check_massey_args`` refuses.  Independent of the closed form.
    """
    _require_simple(m)
    N, n = m.n_rows, m.n_cols
    x, y, yp = _check_massey_args(m, x, y, yp)
    T = np.zeros((N * N, N * N), dtype=complex)
    for delta in range(N):
        cycle = _gluing_cycle(m, delta)
        size = len(cycle)
        # a cycle without cuts returns to each entry with the factor x^N
        closure = 1.0 if any(d for _, _, d in cycle) else 1.0 / (1.0 - x ** N)

        def cut(p, step):
            """The first position after p, going ``step`` at a time, whose entry has
            nonzero degree; p one cycle on when there is none."""
            later = range(p + step, p + step * size, step)
            return next((q for q in later if cycle[q % size][2]), p + step * size)

        def put(q, b, c, from_ahead=False):
            """Add c times residue b to the column-0 entry at q, as its value at 0, or at
            infinity when reached from ahead (a0 + a1*z has value a0 + a1*y' at y')."""
            i, ip, d = cycle[q % size]
            T[i * N + ip, b] += yp * c if from_ahead and d == 1 else c

        for p in range(0, size, n):
            i, ip, d = cycle[p]
            b = i * N + ip
            T[b, b] += (y if d == -1 else yp) / (yp - y)
            if d == 1:
                continue  # untwisted: the residue enters through the pole term alone
            ahead = cut(p, 1)
            next_degree = cycle[ahead % size][2]
            if d == -1 or next_degree != -1:
                c = (y if d == -1 else 1.0) * closure
                for q in range(p + n, ahead + 1, n):
                    put(q, b, c * x ** ((q - p) // n))
            if d == -1 or next_degree == -1:
                for q in range(p - n if d else p, cut(p, -1) - 1, -n):
                    put(q, b, -(x ** ((q - p) // n)), from_ahead=True)
    return MasseyMap(N, T)


# ---------------------------------------------------------------------------
# tensor assembly
# ---------------------------------------------------------------------------


def massey_tensor(m: SplittingMatrix, x, y, yp) -> Tensor2:
    """The three-variable tensor assembled directly from the matrix data."""
    _require_simple(m)
    N, k = m.n_rows, m.shift
    x, y, yp = _check_massey_args(m, x, y, yp)
    c = np.zeros((N, N, N, N), dtype=complex)
    z = y / yp
    w = z / (1.0 - z)
    for i in range(1, N + 1):
        c[i - 1, i - 1, i - 1, i - 1] += w
        for ip in range(1, N + 1):
            if i != ip and precedes(m, i, ip):
                c[ip - 1, i - 1, i - 1, ip - 1] += w
                c[i - 1, ip - 1, ip - 1, i - 1] += 1.0 / (1.0 - z)
    q = 1.0 / (1.0 - x ** N)
    for i in range(1, N + 1):
        for l in range(N):
            t = m.wrap(i - l * k)
            c[i - 1, i - 1, t - 1, t - 1] += q * x ** l
    for i in range(1, N + 1):
        for ip in range(1, N + 1):
            if i == ip:
                continue
            positive = precedes(m, i, ip)
            for kk, (bi, bip) in _chain(m, (i, ip)):
                if positive:
                    c[i - 1, ip - 1, bip - 1, bi - 1] += x ** kk
                    c[bip - 1, bi - 1, i - 1, ip - 1] -= x ** (-kk)
                else:
                    c[i - 1, ip - 1, bip - 1, bi - 1] += y * x ** kk
                    c[bip - 1, bi - 1, i - 1, ip - 1] -= yp * x ** (-kk)
    return Tensor2(N, c)


def massey_r(m: SplittingMatrix) -> RFun:
    """The matrix-assembled tensor as a three-variable RFun."""
    _require_simple(m)
    N = m.n_rows

    def fn(x, y, yp):
        return massey_tensor(m, x, y, yp)

    return RFun(N, "massey", 3, fn, multiplicative_guards(N))
