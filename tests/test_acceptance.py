"""Acceptance suite: every top-level claim at its pinned tolerance.

Each criterion prints one pass/fail line outside of pytest's capture so
the lines show up in a plain ``pytest -v`` run; tolerances are fixed here
and nowhere else.
"""

import functools
import time

import numpy as np
import pytest

from aybe.bundles import (
    bd_from_matrix,
    hom_dim,
    is_simple,
    massey_closed,
    massey_oracle,
    massey_r,
    massey_tensor,
    matrix_from_sequence,
    row_sum_rule_holds,
    sequence_from_structure,
    SplittingMatrix,
    tau_free_matrix,
)
from aybe.solutions import (
    abc_parts,
    classical_r0,
    difference_form,
    laurent_r0,
    multiplicative_guards,
    multiplicative_r,
    nilpotent_r,
    orbit_symmetry,
    quantum_R,
    rational_R,
    trigonometric_r,
    u_only_r,
)
from aybe.structures import (
    BDStructure,
    CyclicPermutation,
    OrderedBDStructure,
    enumerate_ordered,
    enumerate_structures,
)
from aybe.tensors import Tensor2, compose2, perm_P, project_sl, swap_factors, unit2
from aybe.verify import (
    SamplePlan,
    _worst,
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

U_FIXED = 0.9 + 0.2j


@pytest.fixture
def announce(capsys):
    def _announce(num, label, ok, detail=""):
        flag = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {num:2d} [{label}]: {flag} {detail}", flush=True)
        assert ok, f"criterion {num} failed: {detail}"

    return _announce


def corpus_structures():
    return [bd for n in (1, 2, 3, 4) for bd in enumerate_structures(n)]


def corpus_ordered():
    return [obd for n in (1, 2, 3, 4) for obd in enumerate_ordered(n)]


def matrix_corpus():
    """At least 20 simple splitting matrices with N <= 3, n <= 4."""
    out = [
        SplittingMatrix(((0, 0),), 1),
        SplittingMatrix(((1, 0, 1),), 1),
        tau_free_matrix(2, 3),
        tau_free_matrix(2, 4),
        tau_free_matrix(3, 4),
        matrix_from_sequence(2, 1, (1, 1)),
        matrix_from_sequence(2, 1, (1, 2)),
        matrix_from_sequence(3, 2, (1, 1, 1)),
        matrix_from_sequence(3, 2, (1, 1, 2)),
        matrix_from_sequence(3, 2, (1, 2, 2)),
        matrix_from_sequence(3, 2, (1, 2, 3)),
    ]
    rng = np.random.default_rng(1234)
    seen = {m.rows + (m.shift,) for m in out}
    while len(out) < 24:
        n_rows = int(rng.integers(2, 4))
        n_cols = int(rng.integers(2, 5))
        shift = 1 if n_rows == 2 else int(rng.integers(1, 3))
        rows = tuple(
            tuple(int(v) for v in rng.integers(0, 2, size=n_cols)) for _ in range(n_rows)
        )
        m = SplittingMatrix(rows, shift)
        key = rows + (shift,)
        if key in seen or not is_simple(m)[0]:
            continue
        seen.add(key)
        out.append(m)
    return out


def guarded_triples(m, count, seed=777, margin=0.15):
    guards = multiplicative_guards(m.n_rows)
    return SamplePlan(seed=seed, count=count).draw(
        3, lambda z: min(g.distance(*z) for g in guards) > margin
    )


def worst_aybe_unitarity(families, plan):
    """Largest AYBE or unitarity residual over ``families``.

    The criteria aggregate with ``_worst``, a NaN-propagating max: Python's
    running ``max(worst, x)`` keeps ``worst`` when ``x`` is NaN, so a NaN
    report would print PASS.
    """
    return _worst(*(
        suite(r, plan, tol=1e-8).max_residual
        for r in families
        for suite in (residual_aybe, residual_unitarity)
    ))


# ---------------------------------------------------------------------------


def test_aggregation_keeps_a_nan_report():
    plan = SamplePlan(seed=101, count=4)
    good = trigonometric_r(enumerate_structures(2)[1])
    worst = worst_aybe_unitarity([good, perturb(good, delta=np.nan), good], plan)
    assert np.isnan(worst) and not worst <= 1e-8


def test_c01_aybe_and_unitarity(announce):
    t0 = time.monotonic()
    plan = SamplePlan(seed=101, count=32)
    worst = worst_aybe_unitarity(map(trigonometric_r, corpus_structures()), plan)
    elapsed = time.monotonic() - t0
    announce(
        1, "AYBE + unitarity", worst <= 1e-8 and elapsed < 120.0,
        f"(max residual {worst:.2e}, {elapsed:.1f} s)",
    )


def test_c02_qybe(announce):
    plan = SamplePlan(seed=102, count=32)
    residuals = []
    for bd in corpus_structures():
        R = quantum_R(bd)
        residuals.append(residual_qybe(R, U_FIXED, plan, tol=1e-8).max_residual)
        residuals.append(residual_qybe_unitarity(R, plan, tol=1e-8).max_residual)
    worst = _worst(*residuals)
    announce(2, "QYBE + quantum unitarity", worst <= 1e-8, f"(max residual {worst:.2e})")


def test_c03_s_identity(announce):
    plan = SamplePlan(seed=103, count=32)
    worst = _worst(*(
        residual_s_identity(trigonometric_r(bd), plan, tol=1e-8).max_residual
        for bd in corpus_structures()
    ))
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    omega = Tensor2(2, np.einsum("pq,rs->pqrs", e12, e12))
    worst_nil = _worst(*(
        residual_s_identity(
            nilpotent_r(om, order), plan, tol=1e-10, scalar=lambda u, v: 1.0 / v ** 2
        ).max_residual
        for om, order in ((omega, 1), (Tensor2.zero(2), 1), (Tensor2.zero(3), 2))
    ))
    announce(
        3, "s-product identities", worst <= 1e-8 and worst_nil <= 1e-10,
        f"(trig {worst:.2e}, nilpotent {worst_nil:.2e})",
    )


def test_c04_multiplicative_form(announce):
    plan = SamplePlan(seed=104, count=32)
    worst = _worst(*(
        residual_aybe2(multiplicative_r(obd), plan, tol=1e-8).max_residual
        for obd in corpus_ordered()
    ))
    rng = np.random.default_rng(104)
    diffs = []
    for obd in corpus_ordered():
        df = difference_form(obd)
        ti = trigonometric_r(obd.bd.inverse())
        done = 0
        while done < 20:
            pt = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4))
            if df.pole_distance(*pt) < 0.1:
                continue
            done += 1
            lhs = df(*pt)
            rhs = -1 * ti(pt[0] - pt[1], pt[2] - pt[3])
            diffs.append((lhs - rhs).max_abs())
    worst_diff = _worst(*diffs)
    announce(
        4, "multiplicative form", worst <= 1e-8 and worst_diff <= 1e-10,
        f"(three-variable {worst:.2e}, difference gauge {worst_diff:.2e})",
    )


def test_c05_oracle_equivalence(announce):
    corpus = matrix_corpus()
    assert len(corpus) >= 20
    worst = _worst(*(
        massey_closed(m, x, y, yp).max_abs_diff(massey_oracle(m, x, y, yp))
        for m in corpus
        for (x, y, yp) in guarded_triples(m, 16)
    ))
    tensor_devs = []
    for m in corpus:
        rm = multiplicative_r(bd_from_matrix(m))
        for (x, y, yp) in guarded_triples(m, 4, seed=555):
            tensor_devs.append((massey_tensor(m, x, y, yp) - rm(x, y, yp)).max_abs())
    worst_tensor = _worst(*tensor_devs)
    announce(
        5, "gluing oracle vs closed form", worst <= 1e-9 and worst_tensor <= 1e-10,
        f"({len(corpus)} matrices, map {worst:.2e}, tensor {worst_tensor:.2e})",
    )


def realizable_targets():
    """Standard-order structures with shift moving cycles, marked edge last."""
    out = []
    for n, k in ((2, 1), (3, 2), (4, 3)):
        c0 = CyclicPermutation.standard(n)
        c = CyclicPermutation([(i - 1 - k) % n + 1 for i in range(1, n + 1)])
        blocked = ((k - 1) % n + 1, k % n + 1)  # the edge forced out by alpha0
        edges = [(j, j % n + 1) for j in range(1, n + 1)]
        free = [e for e in edges if e != blocked]
        import itertools

        for size in range(len(free) + 1):
            for gamma1 in itertools.combinations(free, size):
                if len(gamma1) == n:
                    continue
                out.append(OrderedBDStructure(BDStructure(c0, c, gamma1), (n, 1)))
    return out


def test_c06_geometry_round_trip(announce):
    targets = realizable_targets()
    assert len(targets) >= 10
    for target in targets:
        n, k, seq = sequence_from_structure(target)
        recovered = bd_from_matrix(matrix_from_sequence(n, k, seq))
        assert recovered == target, f"round trip failed for {target}"
    rule_ok = all(row_sum_rule_holds(m) for m in matrix_corpus())
    dims_ok = True
    for m in matrix_corpus()[:8]:
        n = m.n_rows
        for j in range(n):
            dims_ok &= hom_dim(m, np.exp(2j * np.pi * j / n)) == 1
        for x in (0.6, 1.7, 0.4 + 1.1j, -1.2 + 0.3j, 2.5, 0.9j, -0.7, 1.0 + 1.0j):
            dims_ok &= hom_dim(m, x) == 0
    announce(
        6, "geometry round trip",
        rule_ok and dims_ok,
        f"({len(targets)} structures recovered, row sums {rule_ok}, hom dims {dims_ok})",
    )


def test_c07_u_only_and_rational(announce):
    plan = SamplePlan(seed=107, count=32)
    cases = []
    for n in (2, 3):
        zero = np.zeros((n, n))
        diag = np.diag(np.linspace(0.4, -0.4, n))
        e12 = np.zeros((n, n))
        e12[0, 1] = 1.0
        cases += [(n, zero), (n, diag), (n, e12)]
    worst = worst_aybe_unitarity((u_only_r(a, c=1.0) for n, a in cases), plan)
    # diagonal closed form against the linear-solve output
    a = np.diag([0.4, -0.1, -0.3])
    c = 1.3 - 0.2j
    r = u_only_r(a, c)
    rng = np.random.default_rng(107)
    diag_devs = []
    for _ in range(8):
        u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if r.pole_distance(u) < 0.1:
            continue
        expected = np.zeros((3, 3, 3, 3), dtype=complex)
        for i in range(3):
            for j in range(3):
                expected[i, j, j, i] = 1.0 / (c * u + a[i, i] - a[j, j])
        diag_devs.append((r(u) - Tensor2(3, expected)).max_abs())
    worst_diag = _worst(*diag_devs)
    R = rational_R(3, 1.0)
    worst_rat = _worst(
        residual_qybe(R, U_FIXED, plan, tol=1e-8).max_residual,
        residual_qybe_unitarity(R, plan, tol=1e-8).max_residual,
    )
    limit_err = (rational_R(3, 2.0)(1e6, 1.1 - 0.4j) - 0.5 * perm_P(3)).max_abs()
    announce(
        7, "u-only and rational families",
        worst <= 1e-8 and worst_diag <= 1e-10 and worst_rat <= 1e-8 and limit_err <= 1e-5,
        f"(aybe-u {worst:.2e}, diagonal {worst_diag:.2e}, rational {worst_rat:.2e}, "
        f"limit {limit_err:.2e})",
    )


def test_c08_classical_limit(announce):
    plan = SamplePlan(seed=108, count=32)
    worst_cybe = _worst(*(
        residual_cybe(classical_r0(bd), plan, tol=1e-8).max_residual
        for bd in corpus_structures()
    ))
    rng = np.random.default_rng(108)
    matches = []
    ratios = []
    for bd in enumerate_structures(3):
        r = trigonometric_r(bd)
        closed = classical_r0(bd)
        fine = laurent_r0(r, 1e-4)
        finer = laurent_r0(r, 5e-5)
        for _ in range(4):
            v = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if closed.pole_distance(v) < 0.15:
                continue
            e1 = (project_sl(fine(v)) - closed(v)).max_abs()
            e2 = (project_sl(finer(v)) - closed(v)).max_abs()
            matches.append(e1)
            if e2 > 1e-13:  # ratio is meaningful only above roundoff
                ratios.append(e1 / e2)
    worst_match = _worst(*matches)
    ratio = float(np.median(ratios))
    announce(
        8, "classical limit",
        worst_cybe <= 1e-8 and worst_match <= 1e-6 and 3.0 < ratio < 5.0,
        f"(cybe {worst_cybe:.2e}, extraction {worst_match:.2e}, halving ratio {ratio:.2f})",
    )


def signed_triples_consistent(obd):
    bd = obd.bd
    n = bd.n
    labels = range(1, n + 1)
    for k in range(1, bd.depth + 1):
        plus, minus = obd.signed_domains(k)
        for i1 in labels:
            for i2 in labels:
                for i3 in labels:
                    a1 = (i1, i3) in minus and obd.less(i1, i2)
                    b1 = (i1, i2) in plus and (i2, i3) in minus
                    if a1 != b1:
                        return False
                    a2 = (i1, i3) in minus and obd.less(i2, i3)
                    b2 = (i1, i2) in minus and (i2, i3) in plus
                    if a2 != b2:
                        return False
    return True


def split_partition_holds(obd):
    bd = obd.bd
    n = bd.n
    labels = set(range(1, n + 1))
    for k in range(1, bd.depth + 1):
        _, minus = obd.signed_domains(k)
        for (i1, i2) in minus:
            s1 = {
                i for i in labels
                if obd.less(i, i1) and obd.less(bd.c.power(i1, k), bd.c.power(i, k))
            }
            s2 = {
                i for i in labels
                if obd.less(i2, i) and obd.less(bd.c.power(i, k), bd.c.power(i2, k))
            }
            if s1 | s2 != labels or s1 & s2:
                return False
    return True


def test_c09_auxiliary_identities(announce):
    plan = SamplePlan(seed=109, count=16)
    worst_cubic = _worst(*(
        residual_cubic(trigonometric_r(bd), plan, tol=1e-8).max_residual
        for bd in enumerate_structures(3)
    ))
    worst_laurent = _worst(*(
        residual_laurent_identity(trigonometric_r(bd), plan, tol=1e-5).max_residual
        for bd in enumerate_structures(3)[:6]
    ))
    worst_h = _worst(
        residual_h_equation("inverse_v", plan, tol=1e-10).max_residual,
        residual_h_equation("half_coth", plan, tol=1e-10).max_residual,
    )
    combinatorics_ok = True
    for n in (1, 2, 3, 4, 5):
        for obd in enumerate_ordered(n):
            combinatorics_ok &= signed_triples_consistent(obd)
            combinatorics_ok &= split_partition_holds(obd)
    rng = np.random.default_rng(109)
    periods = []
    for bd in corpus_structures():
        n = bd.n
        r = trigonometric_r(bd)
        q = {}
        s = 1
        for k in range(n):
            q[s] = k
            s = bd.c0(s)
        d = np.diag([np.exp(-2j * np.pi * q[s] / n) for s in range(1, n + 1)])
        from aybe.tensors import tensor_of

        left = tensor_of(d, np.eye(n))
        right = tensor_of(np.linalg.inv(d), np.eye(n))
        for _ in range(2):
            u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            v = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            if r.pole_distance(u, v) < 0.15:
                continue
            lhs = r(u, v + 2j * np.pi)
            rhs = compose2(left, compose2(r(u, v), right))
            periods.append((lhs - rhs).max_abs())
            periods.append((r(u + 2j * np.pi * n, v) - r(u, v)).max_abs())
            periods.append((r(u, v + 2j * np.pi * n) - r(u, v)).max_abs())
    worst_period = _worst(*periods)
    announce(
        9, "auxiliary identities",
        worst_cubic <= 1e-8 and worst_laurent <= 1e-5 and worst_h <= 1e-10
        and combinatorics_ok and worst_period <= 1e-10,
        f"(cubic {worst_cubic:.2e}, laurent {worst_laurent:.2e}, h {worst_h:.2e}, "
        f"combinatorics {combinatorics_ok}, periods {worst_period:.2e})",
    )


def _corrupted_parts(obd, x, delta=0.1):
    return tuple(t + delta * unit2(obd.n) for t in abc_parts(obd, x))


def test_c10_harness_integrity(announce):
    plan = SamplePlan(seed=110, count=8)
    bd = enumerate_structures(3)[3]
    obd = enumerate_ordered(3)[4]
    r = trigonometric_r(bd)
    failures = {
        "aybe": residual_aybe(perturb(r), plan),
        "unitarity": residual_unitarity(perturb(r), plan),
        "qybe": residual_qybe(perturb(quantum_R(bd), delta=0.5), U_FIXED, plan),
        "qybe-unitarity": residual_qybe_unitarity(perturb(quantum_R(bd)), plan),
        "cybe": residual_cybe(perturb(classical_r0(bd)), plan),
        "aybe2": residual_aybe2(perturb(multiplicative_r(obd)), plan),
        "s-identity": residual_s_identity(perturb(r), plan),
        "cubic": residual_cubic(perturb(r), plan),
        "abc": residual_abc(obd, plan, parts=_corrupted_parts),
        "h-equation": residual_h_equation(
            "inverse_v", plan, h=lambda v: 1 / v + 0.1 * v,
            h_prime=lambda v: -1 / v ** 2 + 0.1,
        ),
        "symmetry": residual_symmetry(r, np.diag([1.0, 0.0, 0.0]), plan),
        "laurent-identity": residual_laurent_identity(perturb(r, delta=1.0), plan),
    }
    # NaN and inf values must fail every suite too, not slip through a max or a
    # comparison; inf - inf and inf * 0 are NaN by design here, so numpy stays quiet
    with np.errstate(invalid="ignore"):
        for value in (np.nan, np.inf):
            hit = functools.partial(perturb, delta=value)
            nonfinite = {
                "aybe": residual_aybe(hit(r), plan),
                "unitarity": residual_unitarity(hit(r), plan),
                "qybe": residual_qybe(hit(quantum_R(bd)), U_FIXED, plan),
                "qybe-unitarity": residual_qybe_unitarity(hit(quantum_R(bd)), plan),
                "cybe": residual_cybe(hit(classical_r0(bd)), plan),
                "aybe2": residual_aybe2(hit(multiplicative_r(obd)), plan),
                "s-identity": residual_s_identity(hit(r), plan),
                "cubic": residual_cubic(hit(r), plan),
                "abc": residual_abc(
                    obd, plan, parts=functools.partial(_corrupted_parts, delta=value)
                ),
                "h-equation": residual_h_equation(
                    "inverse_v", plan, h=lambda v: 1 / v + value, h_prime=lambda v: -1 / v ** 2,
                ),
                # the identity commutes with everything, so only the bad value can fail it
                "symmetry": residual_symmetry(hit(r), np.eye(3), plan),
                "laurent-identity": residual_laurent_identity(hit(r), plan),
            }
            failures.update((f"{name}[{value}]", rep) for name, rep in nonfinite.items())
    bad = [name for name, rep in failures.items() if rep.passed]
    announce(
        10, "harness integrity", not bad,
        f"({len(failures)} mutations across 12 suites, NaN and inf included, all detected)"
        if not bad else f"(suites missing corruption: {bad})",
    )
