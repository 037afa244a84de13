"""Seeded workloads: inputs built from the workload seed, and the reports run on them.

A workload is a fixed list of units built once in set-up.  A structure unit
is one ordered structure run through the ten residual suites of
``aybe verify --suite all``, one report per suite; a matrix unit is one
simple splitting matrix whose closed-form Massey map is compared with the
gluing-system oracle at guarded triples, as ``aybe oracle-compare`` does.

Every library call goes through a module attribute looked up at call time,
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass

import numpy as np

from aybe import bundles, solutions, structures, verify

from . import gate

STRICT = verify.DEFAULT_TOL
LOOSE = verify.EXTRACTION_TOL
ORACLE_TOL = 1e-9
U_FIXED = 0.9 + 0.2j
# the rectangle and guard margin of ``aybe oracle-compare``
TRIPLE_RECT = 2.0
TRIPLE_MARGIN = 0.05
TRIPLE_MAX_REJECTS = 10_000

# suite name -> (tolerance, runner(obd, plan, tol, family_wrap)), as in ``aybe verify``
SUITES = {
    "aybe": (STRICT, lambda obd, plan, tol, w: verify.residual_aybe(
        w(solutions.trigonometric_r(obd.bd)), plan, tol)),
    "unitarity": (STRICT, lambda obd, plan, tol, w: verify.residual_unitarity(
        w(solutions.trigonometric_r(obd.bd)), plan, tol)),
    "qybe": (STRICT, lambda obd, plan, tol, w: verify.residual_qybe(
        w(solutions.quantum_R(obd.bd)), U_FIXED, plan, tol)),
    "qybe-unitarity": (STRICT, lambda obd, plan, tol, w: verify.residual_qybe_unitarity(
        w(solutions.quantum_R(obd.bd)), plan, tol)),
    "cybe": (STRICT, lambda obd, plan, tol, w: verify.residual_cybe(
        w(solutions.classical_r0(obd.bd)), plan, tol)),
    "s-identity": (STRICT, lambda obd, plan, tol, w: verify.residual_s_identity(
        w(solutions.trigonometric_r(obd.bd)), plan, tol)),
    "cubic": (STRICT, lambda obd, plan, tol, w: verify.residual_cubic(
        w(solutions.trigonometric_r(obd.bd)), plan, tol)),
    "aybe2": (STRICT, lambda obd, plan, tol, w: verify.residual_aybe2(
        w(solutions.multiplicative_r(obd)), plan, tol)),
    "abc": (STRICT, lambda obd, plan, tol, w: verify.residual_abc(obd, plan, tol)),
    "laurent-identity": (LOOSE, lambda obd, plan, tol, w: verify.residual_laurent_identity(
        w(solutions.trigonometric_r(obd.bd)), plan, tol)),
}


def derive_seed(*keys: int) -> int:
    """A 32-bit seed determined by ``keys``."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


@dataclass(frozen=True)
class Unit:
    """One input: an ordered structure, or a splitting matrix."""

    key: int  # position in the workload; seeds per-unit draws
    n: int
    doc: str
    obd: object = None
    matrix: object = None


@dataclass
class Record:
    """Outcome of one report, with the input that produced it."""

    suite: str
    n: int
    samples: int  # planned checks
    input: str
    failed: int = 0
    worst_index: int | None = None
    worst_value: float | None = None
    error: str | None = None
    wall_ms: float = 0.0
    cpu_ms: float = 0.0


@dataclass(frozen=True)
class Workload:
    units: tuple
    samples: int  # checks per report: residual samples, or oracle trials

    def order(self, seed: int, p: int) -> list:
        """Units of pass ``p`` in a seeded order."""
        rng = np.random.default_rng(derive_seed(seed, p, 1))
        return [self.units[i] for i in rng.permutation(len(self.units))]

    def jobs(self, unit: Unit, seed: int, p: int, family_wrap=None) -> list:
        """One callable per report of ``unit`` in pass ``p``; each returns a Record."""
        pass_seed = derive_seed(seed, p, 2)
        if unit.matrix is not None:
            trial_seed = derive_seed(pass_seed, unit.key)
            return [lambda: _matrix_report(unit, trial_seed, self.samples)]
        plan = verify.SamplePlan(seed=pass_seed, count=self.samples)
        w = family_wrap or (lambda r: r)
        return [lambda name=name: _suite_report(name, unit, plan, w) for name in SUITES]


def _gated(values, count, tol, rec: Record) -> Record:
    rec.failed = gate.failed_checks(values, count, tol)
    rec.worst_index = gate.worst_index(values)
    if rec.worst_index is not None:
        rec.worst_value = float(values[rec.worst_index])
    return rec


def _suite_report(name: str, unit: Unit, plan, family_wrap) -> Record:
    tol, runner = SUITES[name]
    rec = Record(name, unit.n, plan.count, unit.doc)
    try:
        report = runner(unit.obd, plan, tol, family_wrap)
    except Exception as exc:  # SamplerExhausted, PoleError or any other raise fails the report
        rec.failed = plan.count
        rec.error = "".join(traceback.format_exception_only(exc)).strip()
        return rec
    return _gated(report.per_sample, plan.count, tol, rec)


def _matrix_report(unit: Unit, trial_seed: int, trials: int) -> Record:
    m = unit.matrix
    rec = Record("oracle", unit.n, trials, unit.doc)
    diffs = []
    try:
        simple, witness = bundles.is_simple(m)
        if not simple:
            raise ValueError(f"matrix is not simple: {witness}")
        bundles.bd_from_matrix(m)
        for x, y, yp in guarded_triples(np.random.default_rng(trial_seed), m.n_rows, trials):
            closed = bundles.massey_closed(m, x, y, yp)
            diffs.append(closed.max_abs_diff(bundles.massey_oracle(m, x, y, yp)))
    except Exception as exc:  # any raise fails every trial of the matrix
        rec.failed = trials
        rec.error = "".join(traceback.format_exception_only(exc)).strip()
        return rec
    return _gated(diffs, trials, ORACLE_TOL, rec)


def guarded_triples(rng, n_rows: int, count: int):
    """Seeded (x, y, y') triples kept ``TRIPLE_MARGIN`` away from the Massey map's poles."""
    out, rejects = [], 0
    while len(out) < count:
        x, y, yp = (
            complex(rng.uniform(-TRIPLE_RECT, TRIPLE_RECT), rng.uniform(-TRIPLE_RECT, TRIPLE_RECT))
            for _ in range(3)
        )
        if min(abs(x ** n_rows - 1), abs(x), abs(y), abs(yp), abs(y - yp)) < TRIPLE_MARGIN:
            rejects += 1
            if rejects > TRIPLE_MAX_REJECTS:
                raise verify.SamplerExhausted("could not find guarded parameter triples")
            continue
        out.append((x, y, yp))
    return out


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def _ordered(bd) -> object:
    """The ordered variant ``aybe verify`` uses: the first C0 edge outside Gamma2."""
    alpha0 = next(a for a in sorted(bd.graph) if a not in bd.gamma2)
    return structures.OrderedBDStructure(bd, alpha0)


def _structure_units(bds) -> tuple:
    obds = [_ordered(bd) for bd in bds]
    return tuple(
        Unit(key, obd.n, structures.structure_to_json(obd), obd=obd)
        for key, obd in enumerate(obds)
    )


def random_structure(n: int, rng, draws: int):
    """The deepest of ``draws`` random valid structures on {1..n} with C0 standard.

    Each draw takes a random transitive C and a random subset of the usable
    edges (those C x C keeps inside the graph of C0) as Gamma1.
    """
    c0 = structures.CyclicPermutation.standard(n)
    graph = sorted((s, c0(s)) for s in range(1, n + 1))
    in_graph = set(graph)
    best = None
    for _ in range(draws):
        order = [1] + [int(s) for s in rng.permutation(np.arange(2, n + 1))]
        images = [0] * n
        for idx, s in enumerate(order):
            images[s - 1] = order[(idx + 1) % n]
        c = structures.CyclicPermutation(images)
        usable = [a for a in graph if (c(a[0]), c(a[1])) in in_graph]
        gamma1 = [a for a in usable if rng.random() < 0.5][: n - 1]
        try:
            bd = structures.BDStructure(c0, c, gamma1)
        except structures.InvalidStructure:
            continue
        if best is None or bd.depth > best.depth:
            best = bd
    if best is None:
        raise RuntimeError(f"no valid structure in {draws} draws at n={n}")
    return best


def random_matrix(rng, N: int, steps: int):
    """A seeded simple splitting matrix from ``matrix_from_sequence``.

    The step sequence has ``steps`` unit increments at random places, so
    the matrix has ``steps + 2`` columns; the shift k is random among the
    admissible ones.
    """
    shifts = [k for k in range(math.ceil(N / 2), N) if math.gcd(k, N) == 1]
    while True:
        k = shifts[int(rng.integers(len(shifts)))]
        rises = set(rng.choice(N - 1, size=steps, replace=False).tolist())
        seq = [1]
        for i in range(N - 1):
            seq.append(seq[-1] + (i in rises))
        m = bundles.matrix_from_sequence(N, k, seq)
        if bundles.is_simple(m)[0]:
            return m


def _binomial_quantile(trials: int, q: float) -> int:
    """Smallest s with P(Binomial(trials, 1/2) <= s) >= q."""
    cdf = 0.0
    for s in range(trials + 1):
        cdf += math.comb(trials, s) / 2 ** trials
        if cdf >= q:
            return s
    return trials


def sweep_n4(seed: int) -> Workload:
    """Every structure with N <= 4 under the ten suites at 32 samples: ``aybe verify --suite all``.

    The inputs are fixed; the seed moves the sample points and the order.
    """
    bds = [bd for n in range(1, 5) for bd in structures.enumerate_structures(n)]
    return Workload(_structure_units(bds), samples=32)


def dense_n8(seed: int, count: int = 8) -> Workload:
    """``count`` seeded random structures at N = 8 under the ten suites, two samples each.

    ``enumerate_structures`` stops at N = 5, so each structure is the
    deepest of 64 random draws: a deep tau chain gives the families their
    most terms.
    """
    rng = np.random.default_rng(derive_seed(seed, 8))
    bds = [random_structure(8, rng, 64) for _ in range(count)]
    return Workload(_structure_units(bds), samples=2)


def bundles_oracle(seed: int, per_n: int = 12) -> Workload:
    """``per_n`` seeded simple matrices at each N = 6..10, two oracle trials each.

    The oracle's cost grows steeply with the column count, so the counts
    are fixed quantiles of the count a fair coin per step would give; the
    seed picks where the steps fall and the shift.  Every seed thus gets the
    same mix of sizes.
    """
    rng = np.random.default_rng(derive_seed(seed, 10))
    matrices = [
        random_matrix(rng, N, _binomial_quantile(N - 1, (j + 0.5) / per_n))
        for j in range(per_n)
        for N in range(6, 11)
    ]
    units = tuple(Unit(key, m.n_rows, m.to_json(), matrix=m) for key, m in enumerate(matrices))
    return Workload(units, samples=2)


BUILDERS = {"sweep-n4": sweep_n4, "dense-n8": dense_n8, "bundles-oracle": bundles_oracle}


def record_doc(rec: Record) -> dict:
    doc = dict(rec.__dict__)
    doc["input"] = json.loads(rec.input)
    return doc
