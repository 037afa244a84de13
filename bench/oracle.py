"""Micro-benchmark of the Massey map at N = 6..14: gluing-system oracle vs closed form.

    python3 bench/oracle.py

It imports ``aybe`` from ``src/``.  For each N in ``NS`` and each column
count n = 2..N+1 that ``matrix_from_sequence`` can give at that N, it builds
one seeded simple matrix with ``perfbench.workloads.random_matrix`` and
draws one triple (x, y, y') with ``SamplePlan(seed=SEED, count=1)`` under
``multiplicative_guards(N)``, the rule ``aybe oracle-compare`` draws by.  It
then times ``massey_oracle`` and ``massey_closed`` on that triple, once per
path in each of ``REPEATS`` repeats, and keeps the median.

One entry per (N, n) is appended to ``BENCH_oracle.json`` with wall and CPU
milliseconds per call for both paths, |x^N - 1| (the oracle's substitution
is singular only where it or x vanishes), the largest entry difference
between the two maps, the repeat count, and the environment
(``env.blas_threads``, the BLAS library, cores).
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

from aybe.bundles import massey_closed, massey_oracle  # noqa: E402
from aybe.solutions import SamplePlan, multiplicative_guards  # noqa: E402
from perfbench import envinfo  # noqa: E402
from perfbench.workloads import random_matrix  # noqa: E402

SEED = 0
NS = range(6, 15)
REPEATS = 5
OUT = ROOT / "BENCH_oracle.json"


def call_ms(fn, *args) -> tuple[float, float]:
    """Wall and CPU milliseconds of one call."""
    wall, cpu = time.perf_counter(), time.process_time()
    fn(*args)
    return (time.perf_counter() - wall) * 1e3, (time.process_time() - cpu) * 1e3


def measure(n_rows: int, steps: int, repeats: int) -> dict:
    rng = np.random.default_rng([SEED, n_rows, steps])
    m = random_matrix(rng, n_rows, steps)
    guards, plan = multiplicative_guards(n_rows), SamplePlan(seed=SEED, count=1)
    ((x, y, yp),) = plan.draw(3, lambda z: min(g.distance(*z) for g in guards) > plan.guard_margin)
    # also warms up both paths
    diff = massey_closed(m, x, y, yp).max_abs_diff(massey_oracle(m, x, y, yp))
    times = {"oracle": [], "closed": []}
    for _ in range(repeats):
        for name, fn in (("oracle", massey_oracle), ("closed", massey_closed)):
            times[name].append(call_ms(fn, m, x, y, yp))
    entry = {
        "n_rows": n_rows, "n_cols": m.n_cols, "shift": m.shift, "repeats": repeats,
        "root_gap": abs(x ** n_rows - 1), "max_abs_diff": diff,
    }
    for name, runs in times.items():
        entry[f"{name}_wall_ms"] = statistics.median(w for w, _ in runs)
        entry[f"{name}_cpu_ms"] = statistics.median(c for _, c in runs)
    return entry


def main() -> int:
    history = json.loads(OUT.read_text()) if OUT.exists() else []
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    env = envinfo.record(SEED)
    for n_rows in NS:
        for steps in range(n_rows):
            entry = {"bench": "oracle", "time": stamp, **measure(n_rows, steps, REPEATS), "env": env}
            history.append(entry)
            print(
                f"N={n_rows:2d} n={entry['n_cols']:2d}"
                f"  oracle {entry['oracle_wall_ms']:8.3f} ms wall {entry['oracle_cpu_ms']:8.3f} ms cpu"
                f"  closed {entry['closed_wall_ms']:8.3f} ms wall {entry['closed_cpu_ms']:8.3f} ms cpu"
                f"  |x^N-1| {entry['root_gap']:.2e}  diff {entry['max_abs_diff']:.1e}",
                flush=True,
            )
            OUT.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
