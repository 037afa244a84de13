"""Combinatorial structures: validation, chains, tau, enumeration, order."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aybe.structures import (
    BDStructure,
    CyclicPermutation,
    InvalidStructure,
    OrderedBDStructure,
    enumerate_ordered,
    enumerate_structures,
    structure_from_json,
    structure_to_json,
)


def std(n):
    return CyclicPermutation.standard(n)


def test_cyclic_permutation_basics():
    c = std(3)
    assert [c(i) for i in (1, 2, 3)] == [2, 3, 1]
    assert c.power(1, 2) == 3 and c.power(1, -1) == 3
    assert c.inverse().images == (3, 1, 2)
    assert std(4).power_of(std(4)) == 1
    assert CyclicPermutation([3, 4, 2, 1]).power_of(std(4)) is None
    assert CyclicPermutation.from_order((1, 3, 2)).images == (3, 1, 2)
    assert CyclicPermutation.from_order(list(range(1, 6))) == std(5)


def test_cyclic_permutation_rejects_non_transitive():
    with pytest.raises(InvalidStructure, match="transitive|permutation"):
        CyclicPermutation([2, 1, 3])
    with pytest.raises(InvalidStructure):
        CyclicPermutation([1, 1, 2])


def test_valid_example():
    bd = BDStructure(std(3), std(3), [(1, 2)])
    assert bd.gamma2 == frozenset({(2, 3)})


def test_gamma1_must_be_proper():
    with pytest.raises(InvalidStructure, match="proper"):
        BDStructure(std(3), std(3), [(1, 2), (2, 3), (3, 1)])


def test_gamma1_must_sit_in_graph():
    with pytest.raises(InvalidStructure, match="graph"):
        BDStructure(std(3), std(3), [(1, 3)])


def test_image_must_stay_in_graph():
    # C = (1 -> 2 -> 4 -> 3 -> 1): the image of (1,2) is (2,4), not an edge
    c = CyclicPermutation([2, 4, 1, 3])
    with pytest.raises(InvalidStructure, match="graph"):
        BDStructure(std(4), c, [(1, 2)])


def test_chain_sets():
    bd = BDStructure(std(3), std(3), [])
    assert bd.p1 == frozenset()
    bd = BDStructure(std(3), std(3), [(1, 2), (2, 3)])
    assert bd.p1 == frozenset({(1, 2), (2, 3), (1, 3)})


def test_chain_sets_mapped_by_c(corpus_n3):
    for bd in corpus_n3:
        image = frozenset((bd.c(i), bd.c(j)) for (i, j) in bd.p1)
        assert image == bd.p2


def test_tau_walks():
    bd = BDStructure(std(3), std(3), [(1, 2)])
    assert bd.tau((1, 2), 1) == (2, 3)
    assert bd.tau((1, 2), 2) is None
    assert bd.tau((2, 3), -1) == (1, 2)
    assert bd.tau((3, 1), 1) is None
    assert bd.tau((1, 2), 0) == (1, 2)


def test_negative_tau_is_tau_of_the_inverse_structure():
    # tau^-k walks back from P2; the inverse structure (C0, C^-1, Gamma2, Gamma1)
    # has P1 = P2, so its tau^k is the same walk
    cases = 0
    for n in range(1, 6):
        for bd in enumerate_structures(n):
            inv = bd.inverse()
            for alpha in itertools.product(range(1, n + 1), repeat=2):
                for k in range(1, inv.depth + 2):
                    assert bd.tau(alpha, -k) == inv.tau(alpha, k), (bd, alpha, k)
                    cases += 1
    assert cases == 13413


def test_tau_iterates_enumerate_every_tau_domain():
    for n in range(1, 6):
        for bd in enumerate_structures(n):
            expected = [
                (k, alpha, bd.tau(alpha, k))
                for k in range(1, bd.depth + 1)
                for alpha in sorted(bd.tau_domain(k))
            ]
            assert list(bd._tau_iterates) == expected


def test_tau_domain_is_where_tau_is_defined():
    # tau_domain and depth are read off the iterates, so check them against tau's own walk
    for n in range(1, 6):
        for bd in enumerate_structures(n):
            for k in range(1, bd.depth + 2):
                defined = frozenset(a for a in bd.p1 if bd.tau(a, k) is not None)
                assert bd.tau_domain(k) == defined
                assert bool(defined) == (k <= bd.depth)


def test_opposite_and_inverse_are_involutions(corpus_n3):
    flip = lambda edges: frozenset((j, i) for i, j in edges)
    for bd in corpus_n3:
        assert bd.opposite().opposite() == bd
        assert bd.inverse().inverse() == bd
        # the derived Gamma2 of each is the one the paper names
        assert bd.opposite().gamma2 == flip(bd.gamma2)
        assert bd.inverse().gamma2 == bd.gamma1


def test_opposite_flips_chain_sets(corpus_n3):
    for bd in corpus_n3:
        opp = bd.opposite()
        assert opp.p1 == frozenset((j, i) for (i, j) in bd.p1)
        assert opp.p2 == frozenset((j, i) for (i, j) in bd.p2)


def test_enumerate_n1():
    out = enumerate_structures(1)
    assert len(out) == 1 and out[0].gamma1 == frozenset()


def test_enumerate_n2_matches_brute_force():
    # lone transitive cycle (2, 1); subsets of the two edges
    edges = [(1, 2), (2, 1)]
    c = CyclicPermutation([2, 1])
    count = 0
    for size in range(3):
        for gamma1 in itertools.combinations(edges, size):
            if len(gamma1) == 2:
                continue  # not proper
            image = {(c(i), c(j)) for (i, j) in gamma1}
            if not image <= set(edges):
                continue
            count += 1
    assert len(enumerate_structures(2)) == count == 3


def test_enumerate_out_of_range():
    with pytest.raises(ValueError):
        enumerate_structures(6)
    with pytest.raises(ValueError):
        enumerate_structures(0)


def test_enumerate_deterministic():
    a = [bd.key() for bd in enumerate_structures(4)]
    b = [bd.key() for bd in enumerate_structures(4)]
    assert a == b and len(set(a)) == len(a)


def test_ordered_structure_positions():
    bd = BDStructure(std(4), std(4), [(1, 2)])
    obd = OrderedBDStructure(bd, (4, 1))
    assert [obd.position(s) for s in (1, 2, 3, 4)] == [1, 2, 3, 4]
    obd2 = OrderedBDStructure(bd, (2, 3))
    assert obd2.position(3) == 1 and obd2.position(2) == 4


def test_ordered_structure_rejects_non_edge():
    bd = BDStructure(std(3), std(3), [])
    with pytest.raises(InvalidStructure):
        OrderedBDStructure(bd, (1, 3))


def test_signed_domains_partition():
    for n in (2, 3, 4):
        for obd in enumerate_ordered(n):
            full = obd.bd.tau_domain(1)
            plus, minus = obd.signed_domains(1)
            assert plus | minus == full and not plus & minus
            deep = obd.bd.depth + 1
            assert obd.signed_domains(deep) == (frozenset(), frozenset())


def test_tau_image_lands_in_lower_positive_domain():
    # with the marked edge outside Gamma2 every tau image is a positive pair
    for n in (3, 4):
        for obd in enumerate_ordered(n):
            bd = obd.bd
            for k in range(1, bd.depth + 1):
                for alpha in bd.tau_domain(k):
                    beta = bd.tau(alpha, k)
                    assert obd.less(*beta)
                    if k >= 2:
                        assert bd.tau(alpha, 1) in bd.tau_domain(k - 1)


def test_order_closure_properties():
    # chain sets of an ordered structure with alpha0 outside Gamma2:
    # (a) image pairs increase; (b) both chain sets are closed under
    # splitting through an intermediate point
    for n in (3, 4):
        for obd in enumerate_ordered(n):
            bd = obd.bd
            for (s, sp) in bd.p2:
                assert obd.less(s, sp)
            for pset in (bd.p1, bd.p2):
                for s, sp, spp in itertools.permutations(range(1, n + 1), 3):
                    if not (obd.less(s, sp) and obd.less(sp, spp)):
                        continue
                    if (s, spp) in pset:
                        assert (s, sp) in pset and (sp, spp) in pset
                    if (sp, s) in pset:
                        assert (sp, spp) in pset and (spp, s) in pset
                    if (spp, sp) in pset:
                        assert (spp, s) in pset and (s, sp) in pset


def test_depth_is_capped():
    # tau^k alpha needs the first edges of alpha, ..., tau^(k-1) alpha, which are
    # k distinct points of one C x C orbit, all in Gamma1: so depth <= |Gamma1|
    for n in (2, 3, 4):
        for bd in enumerate_structures(n):
            assert bd.depth <= len(bd.gamma1)


def test_json_round_trip(corpus_n3):
    for bd in corpus_n3:
        assert structure_from_json(structure_to_json(bd)) == bd
    obd = enumerate_ordered(3)[5]
    assert structure_from_json(structure_to_json(obd)) == obd


@st.composite
def candidates(draw):
    """(C0, C, Gamma1) on {1..n}, n <= 7: two arbitrary transitive cycles and any
    subset of the graph of C0, valid or not."""
    n = draw(st.integers(1, 7))
    orders = ([1] + draw(st.permutations(range(2, n + 1))) for _ in range(2))
    c0, c = map(CyclicPermutation.from_order, orders)
    graph = sorted((s, c0(s)) for s in range(1, n + 1))
    return c0, c, [a for a in graph if draw(st.booleans())]


def is_nilpotent(c, gamma1) -> bool:
    """Every Gamma1 edge leaves Gamma1 under some power of C x C."""
    gamma1 = set(gamma1)
    for edge in gamma1:
        seen = set()
        while edge in gamma1 and edge not in seen:
            seen.add(edge)
            edge = (c(edge[0]), c(edge[1]))
        if edge in gamma1:
            return False
    return True


def satisfies_invariants(c0, c, gamma1) -> bool:
    """The structure axioms checked directly: Gamma1 and its image proper
    subsets of the graph of C0, and every Gamma1 edge leaving Gamma1 under C x C."""
    graph = {(s, c0(s)) for s in range(1, c0.n + 1)}
    gamma1 = set(gamma1)
    image = {(c(i), c(j)) for i, j in gamma1}
    if gamma1 == graph or not image <= graph or image == graph:
        return False
    return is_nilpotent(c, gamma1)


@settings(derandomize=True, database=None)
@given(candidates())
def test_proper_gamma1_mapped_into_the_graph_is_nilpotent(candidate):
    # the orbit argument that lets BDStructure skip its nilpotency and
    # proper-Gamma2 checks: a C x C orbit has N members, so one inside Gamma1
    # would fill the graph
    c0, c, gamma1 = candidate
    graph = {(s, c0(s)) for s in range(1, c0.n + 1)}
    image = {(c(i), c(j)) for i, j in gamma1}
    assume(set(gamma1) != graph and image <= graph)
    assert is_nilpotent(c, gamma1) and image != graph


@settings(derandomize=True, database=None)
@given(candidates())
def test_validation_accepts_exactly_the_structures(candidate):
    try:
        bd = BDStructure(*candidate)
    except InvalidStructure:
        assert not satisfies_invariants(*candidate)
    else:
        assert satisfies_invariants(*candidate)
        assert bd.depth <= len(bd.gamma1)  # as in test_depth_is_capped


@settings(derandomize=True, database=None)
@given(candidates(), st.data())
def test_json_round_trip_and_involutions(candidate, data):
    assume(satisfies_invariants(*candidate))
    bd = BDStructure(*candidate)
    obd = OrderedBDStructure(bd, data.draw(st.sampled_from(sorted(bd.graph))))
    assert structure_from_json(structure_to_json(obd)) == obd
    assert structure_from_json(structure_to_json(bd)) == bd
    assert bd.opposite().opposite() == bd
    assert bd.inverse().inverse() == bd


def test_labels_must_be_integers():
    assert CyclicPermutation(np.array([2, 3, 1])) == std(3)
    bd = BDStructure(std(3), std(3), [(np.int64(1), np.int64(2))])
    assert OrderedBDStructure(bd, (np.int32(3), 1)).alpha0 == (3, 1)
    for bad in (
        lambda: CyclicPermutation([2, 3.0, 1]),
        lambda: CyclicPermutation([2, 3, True]),
        lambda: BDStructure(std(3), std(3), [(1, 2.2)]),
        lambda: OrderedBDStructure(bd, (3.0, 1)),
    ):
        with pytest.raises(ValueError, match="expected an integer"):
            bad()


@pytest.mark.parametrize("alpha0", [(), (1,), (3, 1, 2), 3, None])
def test_alpha0_must_be_exactly_one_pair(alpha0):
    bd = BDStructure(std(3), std(3), [(1, 2)])
    with pytest.raises(InvalidStructure, match="one pair"):
        OrderedBDStructure(bd, alpha0)
    doc = json.loads(structure_to_json(OrderedBDStructure(bd, (3, 1))))
    doc["alpha0"] = alpha0
    if isinstance(alpha0, tuple):  # a JSON list
        with pytest.raises(InvalidStructure, match="one pair"):
            structure_from_json(json.dumps(doc))


def test_json_declared_size_is_checked(corpus_n3):
    doc = json.loads(structure_to_json(corpus_n3[-1]))
    doc["n"] += 1
    with pytest.raises(ValueError, match="declared size"):
        structure_from_json(json.dumps(doc))


def test_enumerate_ordered_excludes_gamma2_edges():
    for obd in enumerate_ordered(4):
        assert obd.alpha0 not in obd.bd.gamma2
