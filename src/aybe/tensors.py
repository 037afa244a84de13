"""Dense tensor algebra for A (x) A and A (x) A (x) A with A = Mat(N, C).

Elements of A (x) A are stored as complex coefficient arrays c[p,q,r,s]
indexed so that the tensor equals sum_{pqrs} c[p,q,r,s] e_pq (x) e_rs
(indices 0-based internally, labels 1-based at the API boundary where it
matters).  Two flattenings of the same array are used throughout:

* op_matrix   -- the operator on C^N (x) C^N, row index (p, r), column (q, s);
* pairing_matrix -- rows from the first factor (p, q), columns from the
  second (r, s); its invertibility is the nondegeneracy of the tensor.

Sizes stay tiny (N <= ~12), so everything is dense and double precision.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor2",
    "Tensor3",
    "unit2",
    "perm_P",
    "diag_P0",
    "tensor_of",
    "embed",
    "rmul_embed",
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

    @classmethod
    def from_op_matrix(cls, n: int, op) -> "Tensor2":
        op = np.asarray(op, dtype=complex)
        if op.shape != (n * n, n * n):
            raise ValueError("operator flattening has wrong shape")
        return cls(n, op.reshape(n, n, n, n).transpose(0, 2, 1, 3))

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
    """Element of A (x) A (x) A; coefficient of e_pq (x) e_rs (x) e_tu at [p,q,r,s,t,u]."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs) -> None:
        if n < 1:
            raise ValueError("matrix size must be positive")
        c = np.array(coeffs, dtype=complex)
        if c.shape != (n,) * 6:
            raise ValueError(f"coefficient array must have shape {(n,) * 6}")
        c.setflags(write=False)
        self.n = n
        self.coeffs = c

    def op_matrix(self) -> np.ndarray:
        """Operator on (C^N)^(x)3; row (p, r, t), column (q, s, u)."""
        n = self.n
        return self.coeffs.transpose(0, 2, 4, 1, 3, 5).reshape(n ** 3, n ** 3)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def __repr__(self) -> str:
        return f"Tensor3(n={self.n}, max_abs={self.max_abs():.3g})"


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


def embed(t: Tensor2, slots: tuple[int, int]) -> Tensor3:
    """Place a two-factor tensor into slots of A (x) A (x) A, identity elsewhere.

    ``slots`` is an ordered pair from {1, 2, 3}; for reversed order the
    factors are swapped first, so embed(t, (2, 1)) == embed(t^21, (1, 2)).
    """
    i, j = _slot_pair(slots)
    if i > j:
        return embed(swap_factors(t), (j, i))
    eye = np.eye(t.n)
    c = t.coeffs
    if (i, j) == (1, 2):
        c = c[:, :, :, :, None, None] * eye
    elif (i, j) == (1, 3):
        c = c[:, :, None, None] * eye[:, :, None, None]
    else:  # (2, 3)
        c = c * eye[:, :, None, None, None, None]
    return Tensor3(t.n, c)


def rmul_embed(x: np.ndarray, t: Tensor2, slots: tuple[int, int]) -> np.ndarray:
    """``x @ embed(t, slots).op_matrix()`` for an N^3 x N^3 operator ``x``.

    The embedded operand is never formed: the column index of ``x`` is split
    into the three factors, the two in ``slots`` are contracted with ``t``'s
    operator flattening, and the factors are put back in order.  That is one
    (N^4 x N^2) by (N^2 x N^2) matrix product, O(N^8) instead of the O(N^9)
    dense product.  The first factor of ``t`` acts on slot ``slots[0]``, so a
    reversed pair means the swapped tensor, as in ``embed``.
    """
    i, j = _slot_pair(slots)
    k = 6 - i - j
    n = t.n
    if x.shape != (n ** 3, n ** 3):
        raise ValueError(f"operator must have shape {(n ** 3, n ** 3)}, got {x.shape}")
    # one expression, so the transposed copy of x is freed before the output copy
    y = x.reshape(n ** 3, n, n, n).transpose(0, k, i, j).reshape(n ** 4, n * n) @ t.op_matrix()
    return np.moveaxis(y.reshape(n ** 3, n, n, n), (1, 2, 3), (k, i, j)).reshape(n ** 3, n ** 3)


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
