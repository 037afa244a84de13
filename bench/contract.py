"""Micro-benchmark of the associative equation's triple products: sparse ``_residual`` vs dense products.

    python3 bench/contract.py

It imports ``aybe`` from ``src/``.  For each N it builds a seeded random
structure (the deepest of 64 draws, as the dense-n8 workload does), draws
one guarded AYBE sample for its ``trigonometric_r`` family, and times the
signed sum a12 a13 - a23 b12 + b13 b23 of the six values two ways:

* sparse: ``verify._residual((verify._aybe(...), ()))``, as every suite
  contracts it: sparse joins of the embedded factors, one dense operator
  at the end, and its max-abs;
* dense:  every embedded factor as a dense N^3 x N^3 operator, multiplied
  with BLAS, O(N^9); only for N in ``DENSE_NS``.

Each path is timed ``REPEATS`` times after one warm-up call, the sparse path
at every N first, since BLAS threads spin on for a while after a dense product.  An
entry keeps the median wall and CPU milliseconds per sum, N, the repeat
count, the number of term products the joins scatter into the operator, the
residual, the largest absolute difference, entry by entry, between the
sparse operator (``verify._sum``) and the dense one, and the environment
(``env.blas_threads``, the BLAS library, cores).  One entry per N is
appended to ``BENCH_contract.json`` with ``"bench": "contract-residual"``.
Older entries there time earlier entry points: ``"contract-sum"`` the
operator alone, without its max-abs, and ``"contract"`` one product, dense
vs the since-removed ``rmul_embed``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from aybe import solutions, verify  # noqa: E402
from aybe.tensors import embed  # noqa: E402
from perfbench import envinfo, workloads  # noqa: E402

SEED = 0
DENSE_NS = range(3, 11)
NS = (*DENSE_NS, 12, 16)
REPEATS = 5
OUT = ROOT / "BENCH_contract.json"


def dense_sum(*products):
    """The signed sum of ``products`` as full N^3 x N^3 matrix products."""
    total = 0
    for sign, *factors in products:
        term = embed(*factors[0]).op_matrix()
        for factor in factors[1:]:
            term = term @ embed(*factor).op_matrix()
        total = total + sign * term
    return total


def aybe_products(n: int) -> tuple:
    """The AYBE products of a seeded ``trigonometric_r`` at one guarded sample."""
    bd = workloads.random_structure(n, np.random.default_rng([SEED, n]), 64)
    r = solutions.trigonometric_r(bd)
    plan = verify.SamplePlan(seed=SEED, count=1)

    def points(u, up, v, vp):
        return ((-up, v), (u + up, v + vp), (u + up, vp), (u, v), (u, v + vp), (up, vp))

    (z,) = plan.draw(4, lambda z: all(r.pole_distance(*p) > plan.guard_margin for p in points(*z)))
    return verify._aybe(*(r(*p) for p in points(*z)))


def term_products(products) -> int:
    """Entries the joins of ``products`` scatter into the operator."""
    cache = {}
    return sum(verify._product(factors, cache).vals.size for _, *factors in products)


def timed(fn, products, repeats: int) -> tuple:
    """Result of ``fn(*products)`` after a warm-up call, with median wall and CPU ms of ``repeats`` calls."""
    result = fn(*products)
    runs = []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        fn(*products)
        runs.append(((time.perf_counter() - wall) * 1e3, (time.process_time() - cpu) * 1e3))
    return result, statistics.median(w for w, _ in runs), statistics.median(c for _, c in runs)


def main() -> int:
    history = json.loads(OUT.read_text()) if OUT.exists() else []
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    env = envinfo.record(SEED)
    cases = {n: aybe_products(n) for n in NS}
    entries, sums = {}, {}
    # every sparse run first: BLAS threads spin on for a while after a dense product
    for n, products in cases.items():
        residual, wall, cpu = timed(verify._residual, ((products, ()),), REPEATS)
        sums[n] = verify._sum(products, (), {})
        entries[n] = {
            "bench": "contract-residual", "time": stamp, "n": n, "repeats": REPEATS,
            "term_products": term_products(products), "sparse_wall_ms": wall, "sparse_cpu_ms": cpu,
            "residual": residual,
        }
    for n in DENSE_NS:
        ref, wall, cpu = timed(dense_sum, cases[n], REPEATS)
        # the sum is a residual near 0, so the difference is absolute
        diff = float(np.abs(sums[n] - ref).max())
        entries[n] |= {"dense_wall_ms": wall, "dense_cpu_ms": cpu, "max_abs_diff": diff,
                       "speedup": wall / entries[n]["sparse_wall_ms"]}
    for n, entry in entries.items():
        history.append({**entry, "env": env})
        dense = (
            f"  dense {entry['dense_wall_ms']:9.3f} ms wall {entry['dense_cpu_ms']:9.3f} ms cpu"
            f"  x{entry['speedup']:.1f}  diff {entry['max_abs_diff']:.1e}"
            if n in DENSE_NS else ""
        )
        print(
            f"N={n:2d}  {entry['term_products']:8d} term products"
            f"  sparse {entry['sparse_wall_ms']:8.3f} ms wall {entry['sparse_cpu_ms']:8.3f} ms cpu"
            f"  residual {entry['residual']:.1e}{dense}"
        )
    OUT.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
