"""Micro-benchmark of one triple product in A (x) A (x) A: dense operands vs ``rmul_embed``.

    python3 bench/contract.py

It imports ``aybe`` from ``src/``.  For each N in ``NS`` it times the three
product shapes of the associative Yang-Baxter equation, r12 r13, r23 r12 and
r13 r23, on seeded random complex tensors, two ways:

* dense:      embed(a, s).op_matrix() @ embed(b, s').op_matrix(), O(N^9);
* structured: rmul_embed(embed(a, s).op_matrix(), b, s'), O(N^8), as ``verify``
  forms its products.

Both include embedding the left factor.  Each of ``REPEATS`` repeats times
each shape once per path; the per-product figure is the repeat's time over
the three shapes, and an entry keeps the median over repeats.  One entry per
N is appended to ``BENCH_contract.json`` with wall and CPU milliseconds per
product for both paths, N, the repeat count, the largest relative difference
between the two results, and the environment (``env.blas_threads``, the BLAS
library, cores).  BLAS runs with the environment's default thread count.
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

from aybe.tensors import Tensor2, embed, rmul_embed  # noqa: E402
from perfbench import envinfo  # noqa: E402

SEED = 0
NS = range(3, 11)
REPEATS = 5
OUT = ROOT / "BENCH_contract.json"
SHAPES = (((1, 2), (1, 3)), ((2, 3), (1, 2)), ((1, 3), (2, 3)))


def dense(a, b, left, right):
    return embed(a, left).op_matrix() @ embed(b, right).op_matrix()


def structured(a, b, left, right):
    return rmul_embed(embed(a, left).op_matrix(), b, right)


def per_product_ms(fn, pairs) -> tuple[float, float]:
    """Wall and CPU milliseconds per product for one pass over the shapes."""
    wall, cpu = time.perf_counter(), time.process_time()
    for (a, b), (left, right) in zip(pairs, SHAPES):
        fn(a, b, left, right)
    k = len(SHAPES)
    return (time.perf_counter() - wall) * 1e3 / k, (time.process_time() - cpu) * 1e3 / k


def measure(n: int, repeats: int) -> dict:
    rng = np.random.default_rng([SEED, n])

    def tensor():
        return Tensor2(n, rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4))

    pairs = [(tensor(), tensor()) for _ in SHAPES]
    rel = 0.0
    for (a, b), (left, right) in zip(pairs, SHAPES):  # also warms up both paths
        ref = dense(a, b, left, right)
        diff = np.abs(structured(a, b, left, right) - ref).max() / np.abs(ref).max()
        rel = max(rel, float(diff))
    times = {"dense": [], "structured": []}
    for _ in range(repeats):
        for name, fn in (("dense", dense), ("structured", structured)):
            times[name].append(per_product_ms(fn, pairs))
    entry = {"n": n, "repeats": repeats, "max_rel_diff": rel}
    for name, runs in times.items():
        entry[f"{name}_wall_ms"] = statistics.median(w for w, _ in runs)
        entry[f"{name}_cpu_ms"] = statistics.median(c for _, c in runs)
    entry["speedup"] = entry["dense_wall_ms"] / entry["structured_wall_ms"]
    return entry


def main() -> int:
    history = json.loads(OUT.read_text()) if OUT.exists() else []
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    env = envinfo.record(SEED)
    for n in NS:
        entry = {"bench": "contract", "time": stamp, **measure(n, REPEATS), "env": env}
        history.append(entry)
        print(
            f"N={n:2d}  dense {entry['dense_wall_ms']:9.3f} ms wall {entry['dense_cpu_ms']:9.3f} ms cpu"
            f"  structured {entry['structured_wall_ms']:8.3f} ms wall {entry['structured_cpu_ms']:8.3f} ms cpu"
            f"  x{entry['speedup']:.1f}  rel diff {entry['max_rel_diff']:.1e}",
            flush=True,
        )
        OUT.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
