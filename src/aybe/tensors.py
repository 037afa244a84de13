"""Tensor algebra for A (x) A and A (x) A (x) A with A = Mat(N, C).

Elements of A (x) A are stored as complex coefficient arrays c[p,q,r,s]
indexed so that the tensor equals sum_{pqrs} c[p,q,r,s] e_pq (x) e_rs
(indices 0-based internally, labels 1-based at the API boundary where it
matters).  Two flattenings of the same array are used throughout:

* op_matrix   -- the operator on C^N (x) C^N, row index (p, r), column (q, s);
* pairing_matrix -- rows from the first factor (p, q), columns from the
  second (r, s); its invertibility is the nondegeneracy of the tensor.

Elements of A (x) A (x) A are sparse: a ``Tensor3`` is an unchecked record
of the entries of its operator on (C^N)^(x)3 that ``embed`` and the products
made.  ``Tensor3 @ Tensor3`` joins the column indices of the left factor with
the row indices of the right one, so no triple product calls BLAS, and a sum
is the concatenation of its terms' entries.  Only ``Tensor3.op_matrix`` forms
the dense N^3 x N^3 operator.  All values are double precision.  The CLI
bounds the sizes: ``verify`` takes N <= 16, where one N^3 x N^3 operator
takes 256 MiB, and ``eval`` takes N <= 32, where the N^4 coefficients of one
value in A (x) A take 16 MiB.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Tensor2",
    "Tensor3",
    "unit2",
    "perm_P",
    "diag_P0",
    "tensor_of",
    "embed",
    "compose2",
    "swap_factors",
    "project_sl",
    "is_nondegenerate",
    "sym_commutator",
    "as_matrix",
]


def as_matrix(a, n: int) -> np.ndarray:
    """Coerce ``a`` to an N x N complex array, validating the shape."""
    m = np.asarray(a, dtype=complex)
    if m.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, got shape {m.shape}")
    return m


class Tensor2:
    """Element of Mat(N,C) (x) Mat(N,C) as a dense coefficient array.

    Instances are immutable after construction (the coefficient array is
    copied and frozen), so they can be shared freely across threads.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs) -> None:
        if n < 1:
            raise ValueError("matrix size must be positive")
        c = np.array(coeffs, dtype=complex)
        if c.shape != (n, n, n, n):
            raise ValueError(f"coefficient array must have shape {(n,) * 4}, got {c.shape}")
        c.setflags(write=False)
        self.n = n
        self.coeffs = c

    @classmethod
    def zero(cls, n: int) -> "Tensor2":
        return cls(n, np.zeros((n, n, n, n), dtype=complex))

    def op_matrix(self) -> np.ndarray:
        """Operator on C^N (x) C^N; row (p, r), column (q, s)."""
        n = self.n
        return self.coeffs.transpose(0, 2, 1, 3).reshape(n * n, n * n)

    def pairing_matrix(self) -> np.ndarray:
        """Flattening with row (p, q) and column (r, s)."""
        n = self.n
        return self.coeffs.reshape(n * n, n * n)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def __add__(self, other: "Tensor2") -> "Tensor2":
        self._check(other)
        return Tensor2(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        self._check(other)
        return Tensor2(self.n, self.coeffs - other.coeffs)

    def __neg__(self) -> "Tensor2":
        return Tensor2(self.n, -self.coeffs)

    def __mul__(self, scalar) -> "Tensor2":
        return Tensor2(self.n, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tensor2(n={self.n}, max_abs={self.max_abs():.3g})"

    def _check(self, other: "Tensor2") -> None:
        if not isinstance(other, Tensor2) or other.n != self.n:
            raise ValueError("tensor size mismatch")


class Tensor3:
    """Element of A (x) A (x) A as a sparse operator on (C^N)^(x)3.

    Entry k puts ``vals[k]`` at row ``rows[k]`` = (p, r, t) and column
    ``cols[k]`` = (q, s, u) of the operator, each flattened base N, for the
    coefficient of e_pq (x) e_rs (x) e_tu; entries at one position add.  The
    constructor takes 1-d numpy arrays of one length, with indices in
    [0, N^3), as they are, and freezes them, as ``Tensor2``'s coefficients are.
    """

    __slots__ = ("n", "rows", "cols", "vals")

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        for a in (rows, cols, vals):
            a.setflags(write=False)
        self.n, self.rows, self.cols, self.vals = n, rows, cols, vals

    def op_matrix(self) -> np.ndarray:
        """Dense operator on (C^N)^(x)3; row (p, r, t), column (q, s, u)."""
        n3 = self.n ** 3
        out = np.zeros(n3 * n3, dtype=complex)
        np.add.at(out, self.rows * n3 + self.cols, self.vals)
        return out.reshape(n3, n3)

    def __matmul__(self, other: "Tensor3") -> "Tensor3":
        """Operator product: every left entry (i, k) meets every right entry (k, j)."""
        self._check(other)
        order = other.rows.argsort(kind="stable")
        keys = other.rows[order]
        lo = keys.searchsorted(self.cols, "left")
        count = keys.searchsorted(self.cols, "right") - lo
        left = np.arange(self.cols.size).repeat(count)
        # the m-th pair of a left entry meets the m-th right entry of its key
        right = order[(lo - (count.cumsum() - count)).repeat(count) + np.arange(left.size)]
        vals = self.vals[left] * other.vals[right]
        return Tensor3(self.n, self.rows[left], other.cols[right], vals)

    def __repr__(self) -> str:
        return f"Tensor3(n={self.n}, entries={self.vals.size})"

    def _check(self, other: "Tensor3") -> None:
        if not isinstance(other, Tensor3) or other.n != self.n:
            raise ValueError("tensor size mismatch")


def unit2(n: int) -> Tensor2:
    """The unit 1 (x) 1."""
    eye = np.eye(n)
    return Tensor2(n, np.einsum("pq,rs->pqrs", eye, eye))


def perm_P(n: int) -> Tensor2:
    """The permutation tensor P = sum_ij e_ij (x) e_ji (swap operator)."""
    eye = np.eye(n)
    return Tensor2(n, np.einsum("ps,qr->pqrs", eye, eye))


def diag_P0(n: int) -> Tensor2:
    """The diagonal tensor P0 = sum_i e_ii (x) e_ii."""
    c = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        c[i, i, i, i] = 1.0
    return Tensor2(n, c)


def tensor_of(a, b) -> Tensor2:
    """The decomposable tensor a (x) b for matrices a, b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("factors must be square matrices of equal size")
    return Tensor2(a.shape[0], np.einsum("pq,rs->pqrs", a, b))


def compose2(s: Tensor2, t: Tensor2) -> Tensor2:
    """Product in A (x) A: op_matrix(result) = op_matrix(s) . op_matrix(t)."""
    s._check(t)
    return Tensor2(s.n, np.einsum("parb,aqbs->pqrs", s.coeffs, t.coeffs))


def swap_factors(t: Tensor2) -> Tensor2:
    """Exchange the two tensor factors: coeff'(r,s,p,q) = coeff(p,q,r,s)."""
    return Tensor2(t.n, t.coeffs.transpose(2, 3, 0, 1))


def _slot_pair(slots) -> tuple[int, int]:
    i, j = slots
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError("slots must be two distinct factors from {1, 2, 3}")
    return i, j


@functools.lru_cache(maxsize=64)
def _places(n: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of the operator, without the identity slot's index, of each flat
    coefficient index (p, q, r, s) of a tensor embedded into slots i and j."""
    p, q, r, s = np.indices((n,) * 4).reshape(4, -1)
    wi, wj = n ** (3 - i), n ** (3 - j)
    places = p * wi + r * wj, q * wi + s * wj
    for a in places:  # every caller shares them
        a.setflags(write=False)
    return places


def embed(t: Tensor2, slots: tuple[int, int]) -> Tensor3:
    """Place a two-factor tensor into slots of A (x) A (x) A, identity elsewhere.

    ``slots`` is an ordered pair from {1, 2, 3}; the first factor of ``t``
    goes to slot ``slots[0]``, so embed(t, (2, 1)) == embed(t^21, (1, 2)).
    Each nonzero coefficient of ``t`` gives N entries, one per diagonal index
    of the identity slot; ``nonzero`` keeps NaN and inf coefficients.
    """
    i, j = _slot_pair(slots)
    n = t.n
    c = t.coeffs.ravel()
    at = c.nonzero()[0]
    rows, cols = _places(n, i, j)
    diag = np.arange(n) * n ** (i + j - 3)  # the identity slot's index at its place value
    return Tensor3(
        n, (rows[at][:, None] + diag).ravel(), (cols[at][:, None] + diag).ravel(), c[at].repeat(n)
    )


def project_sl(t: Tensor2) -> Tensor2:
    """Apply X -> X - tr(X)/N in the first tensor factor, then in the second."""
    n = t.n
    eye = np.eye(n)
    tr1 = np.einsum("aars->rs", t.coeffs) / n
    c = t.coeffs - np.einsum("pq,rs->pqrs", eye, tr1)
    tr2 = np.einsum("pqaa->pq", c) / n
    return Tensor2(n, c - np.einsum("pq,rs->pqrs", tr2, eye))


def is_nondegenerate(t: Tensor2, cond_cap: float = 1e12) -> tuple[bool, float]:
    """Whether the pairing flattening is invertible with condition number <= cap."""
    sv = np.linalg.svd(t.pairing_matrix(), compute_uv=False)
    if sv[-1] <= 0.0 or not np.isfinite(sv[-1]):
        return False, float("inf")
    cond = float(sv[0] / sv[-1])
    return cond <= cond_cap, cond


def sym_commutator(t: Tensor2, a) -> Tensor2:
    """The commutator [a (x) 1 + 1 (x) a, t]."""
    n = t.n
    a = as_matrix(a, n)
    eye = np.eye(n)
    sym = tensor_of(a, eye) + tensor_of(eye, a)
    return compose2(sym, t) - compose2(t, sym)
