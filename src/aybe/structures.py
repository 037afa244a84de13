"""Combinatorial seeds for the trigonometric solution family.

A structure on S = {1..N} consists of two transitive cyclic permutations
C0, C of S and proper subsets Gamma1, Gamma2 of the graph of C0 with
(C x C)(Gamma1) = Gamma2.  The partial bijection tau induced by C x C on
the chain-closed pair sets P1 -> P2 drives all the r-matrix formulas.

These axioms make tau nilpotent, so that is never checked: every orbit of
C x C has exactly N members, since C is a transitive N-cycle.  One that
stayed in Gamma1 would fill the graph, and a chain stays in P1 only while
its first edge stays in Gamma1, so tau^k is empty for k > |Gamma1|.

Pairs are ordered integer pairs of 1-based labels; sets of pairs are kept
sorted for deterministic iteration and hashing.
"""

from __future__ import annotations

import itertools
import json
import operator

__all__ = [
    "InvalidStructure",
    "as_int",
    "CyclicPermutation",
    "BDStructure",
    "OrderedBDStructure",
    "enumerate_structures",
    "enumerate_ordered",
    "structure_to_json",
    "structure_from_json",
]

Pair = tuple[int, int]


class InvalidStructure(ValueError):
    """A named violation of the structure invariants."""


def as_int(value) -> int:
    """``value`` as a Python int, accepting integer types only (numpy's too).

    ``int`` would read 1.9 as 1 and accept True or "1", so a label or degree
    that is not a whole number raises ValueError here instead.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {value!r}")


class CyclicPermutation:
    """Transitive cyclic permutation of {1..n}, stored as its image tuple."""

    __slots__ = ("n", "images")

    def __init__(self, images) -> None:
        images = tuple(as_int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InvalidStructure("not a permutation of {1..n}")
        # transitivity: the orbit of 1 must exhaust S
        seen, s = set(), 1
        for _ in range(n):
            seen.add(s)
            s = images[s - 1]
        if len(seen) != n:
            raise InvalidStructure("non-transitive: the orbit of 1 does not cover S")
        self.n = n
        self.images = images

    @classmethod
    def standard(cls, n: int) -> "CyclicPermutation":
        """The cycle i -> i + 1 (mod n)."""
        return cls(tuple(i % n + 1 for i in range(1, n + 1)))

    @classmethod
    def from_order(cls, order) -> "CyclicPermutation":
        """The cycle order[0] -> order[1] -> ... -> order[-1] -> order[0]."""
        images = [0] * len(order)
        for s, t in zip(order, order[1:] + order[:1]):
            images[s - 1] = t
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def power(self, i: int, k: int) -> int:
        """Apply the permutation k times (k may be negative)."""
        k %= self.n
        for _ in range(k):
            i = self.images[i - 1]
        return i

    def inverse(self) -> "CyclicPermutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return CyclicPermutation(inv)

    def power_of(self, other: "CyclicPermutation") -> int | None:
        """Return k with self == other^k if one exists, else None."""
        for k in range(self.n):
            if all(self(i) == other.power(i, k) for i in range(1, self.n + 1)):
                return k
        return None

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicPermutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"CyclicPermutation({list(self.images)})"


def _apply_cxc(c: CyclicPermutation, pair: Pair, k: int = 1) -> Pair:
    return (c.power(pair[0], k), c.power(pair[1], k))


class BDStructure:
    """Two transitive cycles C0, C with proper edge subsets mapped by C x C.

    Validation is performed on construction; instances are immutable and
    always valid.  Raises InvalidStructure with a named violation otherwise.
    Only the axioms that can fail are checked.  Gamma2 is proper because
    |Gamma2| = |Gamma1| < N, and tau is nilpotent by the orbit argument of
    the module docstring: every orbit of C x C has N members.
    """

    __slots__ = ("n", "c0", "c", "graph", "gamma1", "gamma2", "p1", "p2", "_tau_iterates")

    def __init__(self, c0: CyclicPermutation, c: CyclicPermutation, gamma1) -> None:
        if c0.n != c.n:
            raise InvalidStructure("C0 and C act on sets of different sizes")
        n = c0.n
        gamma1 = frozenset((as_int(i), as_int(j)) for i, j in gamma1)
        graph = frozenset((s, c0(s)) for s in range(1, n + 1))
        if not gamma1 <= graph:
            raise InvalidStructure("improper subset: Gamma1 is not contained in the graph of C0")
        if gamma1 == graph:
            raise InvalidStructure("improper subset: Gamma1 must be a proper subset")
        gamma2 = frozenset(_apply_cxc(c, a) for a in gamma1)
        if not gamma2 <= graph:
            raise InvalidStructure("improper subset: (C x C)(Gamma1) leaves the graph of C0")

        self.n = n
        self.c0 = c0
        self.c = c
        self.graph = graph
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.p1 = self._chain_closure(gamma1)
        self.p2 = self._chain_closure(gamma2)
        self._tau_iterates = self._walk_tau()

    def _chain_closure(self, edges: frozenset) -> frozenset:
        """Pairs (s, C0^k(s)) whose every intermediate C0-edge lies in ``edges``."""
        out = set()
        for s in range(1, self.n + 1):
            t = s
            while (t, self.c0(t)) in edges:
                t = self.c0(t)
                out.add((s, t))
        return frozenset(out)

    def _walk_tau(self) -> tuple:
        """The one enumeration of the triples (k, alpha, tau^k alpha), k
        ascending and alpha sorted, that every tau sum of the solution
        families and every domain of tau^k read."""
        depth, iterates = 0, []
        images = {a: a for a in self.p1}  # alpha -> tau^(k-1) alpha on the domain of tau^k
        while images:
            depth += 1
            images = {a: _apply_cxc(self.c, b) for a, b in images.items()}
            iterates += [(depth, a, images[a]) for a in sorted(images)]
            images = {a: b for a, b in images.items() if b in self.p1}
        return tuple(iterates)

    # -- queries ---------------------------------------------------------

    def tau_domain(self, k: int) -> frozenset:
        """Domain of tau^k inside P1 (empty beyond the nilpotency depth)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return frozenset(alpha for kk, alpha, _ in self._tau_iterates if kk == k)

    @property
    def depth(self) -> int:
        """Largest k for which tau^k has nonempty domain (0 when tau is empty)."""
        return self._tau_iterates[-1][0] if self._tau_iterates else 0

    def tau(self, alpha: Pair, k: int = 1) -> Pair | None:
        """Apply tau k times (inverse tau for negative k); None when undefined.

        tau maps P1 to P2 by C x C, so tau^-1 walks back from P2 by C^-1 x C^-1.
        """
        domain, step = (self.p1, 1) if k >= 0 else (self.p2, -1)
        beta = alpha
        for _ in range(abs(k)):
            if beta not in domain:
                return None
            beta = _apply_cxc(self.c, beta, step)
        return beta

    # -- derived structures ----------------------------------------------

    def opposite(self) -> "BDStructure":
        """Reverse the cyclic order: (C0^-1, C, sigma Gamma1, sigma Gamma2)."""
        return BDStructure(self.c0.inverse(), self.c, [(j, i) for i, j in self.gamma1])

    def inverse(self) -> "BDStructure":
        """Invert the moving cycle: (C0, C^-1, Gamma2, Gamma1)."""
        return BDStructure(self.c0, self.c.inverse(), self.gamma2)

    # -- plumbing ----------------------------------------------------------

    def key(self) -> tuple:
        return (self.n, self.c0.images, self.c.images, tuple(sorted(self.gamma1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, BDStructure) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"BDStructure(n={self.n}, c0={list(self.c0.images)}, "
            f"c={list(self.c.images)}, gamma1={sorted(self.gamma1)})"
        )


class OrderedBDStructure:
    """A structure together with a marked wrap-around edge alpha0 of C0.

    The edge fixes the complete order compatible with C0: the target of
    alpha0 is the minimal element and C0 steps through the order.  Position
    queries (sign of a pair, order comparisons) always go through this map,
    never through raw labels.
    """

    __slots__ = ("bd", "alpha0", "positions")

    def __init__(self, bd: BDStructure, alpha0: Pair) -> None:
        try:
            i, j = alpha0
        except (TypeError, ValueError):
            raise InvalidStructure(f"alpha0 must be one pair of labels, got {alpha0!r}") from None
        alpha0 = (as_int(i), as_int(j))
        if alpha0 not in bd.graph:
            raise InvalidStructure("alpha0 is not an edge of C0")
        self.bd = bd
        self.alpha0 = alpha0
        pos = {}
        s = alpha0[1]
        for p in range(1, bd.n + 1):
            pos[s] = p
            s = bd.c0(s)
        self.positions = pos

    @property
    def n(self) -> int:
        return self.bd.n

    def position(self, s: int) -> int:
        return self.positions[s]

    def less(self, s: int, t: int) -> bool:
        return self.positions[s] < self.positions[t]

    def signed_domains(self, k: int) -> tuple[frozenset, frozenset]:
        """Split the domain of tau^k into positive and negative pairs."""
        dom = self.bd.tau_domain(k)
        plus = frozenset(a for a in dom if self.less(*a))
        return plus, dom - plus

    def key(self) -> tuple:
        return self.bd.key() + (self.alpha0,)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrderedBDStructure) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"OrderedBDStructure({self.bd!r}, alpha0={self.alpha0})"


def _transitive_cycles(n: int):
    """All transitive cyclic permutations of {1..n}, deterministic order."""
    rests = itertools.permutations(range(2, n + 1))
    out = [CyclicPermutation.from_order((1,) + rest) for rest in rests]
    out.sort(key=lambda c: c.images)
    return out


def enumerate_structures(n: int) -> list[BDStructure]:
    """All valid structures with C0 the standard cycle, 1 <= n <= 5.

    C ranges over all transitive cycles, Gamma1 over all proper subsets of
    the graph of C0 whose image under C x C stays in the graph: each is a
    distinct valid structure.  Relabelings are not quotiented out.
    """
    if not 1 <= n <= 5:
        raise ValueError("enumeration supported for 1 <= n <= 5 only")
    c0 = CyclicPermutation.standard(n)
    graph = sorted((s, c0(s)) for s in range(1, n + 1))
    out = []
    for c in _transitive_cycles(n):
        # edges whose image under C x C stays inside the graph of C0
        usable = [a for a in graph if _apply_cxc(c, a) in set(graph)]
        for size in range(min(len(usable), n - 1) + 1):
            out += [BDStructure(c0, c, gamma1) for gamma1 in itertools.combinations(usable, size)]
    out.sort(key=BDStructure.key)
    return out


def enumerate_ordered(n: int):
    """Ordered variants of enumerate_structures, one per alpha0 outside Gamma2."""
    return [
        OrderedBDStructure(bd, alpha0)
        for bd in enumerate_structures(n)
        for alpha0 in sorted(bd.graph - bd.gamma2)
    ]


def structure_to_json(bd: BDStructure | OrderedBDStructure) -> str:
    """JSON encoding; gamma2 is derived and therefore not stored."""
    obj = bd.bd if isinstance(bd, OrderedBDStructure) else bd
    doc = {
        "n": obj.n,
        "c0": list(obj.c0.images),
        "c": list(obj.c.images),
        "gamma1": [list(a) for a in sorted(obj.gamma1)],
    }
    if isinstance(bd, OrderedBDStructure):
        doc["alpha0"] = list(bd.alpha0)
    return json.dumps(doc, sort_keys=True)


def structure_from_json(text: str) -> BDStructure | OrderedBDStructure:
    doc = json.loads(text)
    bd = BDStructure(
        CyclicPermutation(doc["c0"]),
        CyclicPermutation(doc["c"]),
        [tuple(a) for a in doc["gamma1"]],
    )
    if bd.n != as_int(doc["n"]):
        raise ValueError("declared size disagrees with the permutations")
    if "alpha0" in doc:
        return OrderedBDStructure(bd, tuple(doc["alpha0"]))
    return bd
