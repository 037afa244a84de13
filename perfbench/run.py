"""Benchmark of the aybe verification harness: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload sweep-n4 --seed 0 --seconds 30 --trace 0

Run from the repository root; the benchmark imports ``aybe`` from ``src/``.
Each run is a closed loop: one caller in one process runs the workload's
reports one after another, with the default BLAS threads.

With ``--trace 0`` the run sets up, runs one warm-up unit, then runs whole
units of seeded passes over the workload until ``--seconds`` have passed,
and reports the end-to-end metrics.  With ``--trace 1`` it runs pass 0
once plainly and once under the layer tracer, and reports the per-layer
metrics.  Every report is gated from its raw per-sample values (see
``gate.py``).  The last line of standard output is the JSON result;
per-report records, the environment and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("sweep-n4", "dense-n8", "bundles-oracle")
SETUP_RUNS = 5  # this process plus four fresh ones; setup_s is their median
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here: no source tree, or aybe imported from elsewhere."""


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` and root first on ``sys.path``."""
    if not (SRC / "aybe" / "__init__.py").is_file():
        raise BenchError(f"no aybe source tree at {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]


def setup(workload: str, seed: int):
    """Import aybe and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    from perfbench import workloads

    wl = workloads.BUILDERS[workload](seed)
    elapsed = time.perf_counter() - t0
    aybe_file = Path(sys.modules["aybe"].__file__).resolve()
    if SRC.resolve() not in aybe_file.parents:
        raise BenchError(f"aybe was imported from {aybe_file}, not from {SRC}")
    return wl, elapsed


def child_setups(workload: str, seed: int, runs: int) -> list[float]:
    """Set-up seconds measured in ``runs`` fresh processes, one after another."""
    out = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


def _plain(rid, job):
    return job()


def run_reports(wl, seed, seconds=None, call=_plain, family_wrap=None):
    """Run whole units of passes 0, 1, ... until ``seconds`` have passed, or pass 0 alone.

    Returns (records, wall seconds, CPU seconds of the whole process).
    """
    records = []
    t0, c0 = time.perf_counter(), time.process_time()
    p = 0
    while True:
        for unit in wl.order(seed, p):
            for job in wl.jobs(unit, seed, p, family_wrap):
                w, c = time.perf_counter(), time.process_time()
                rec = call(len(records), job)
                rec.wall_ms = (time.perf_counter() - w) * 1e3
                rec.cpu_ms = (time.process_time() - c) * 1e3
                records.append(rec)
            if seconds is not None and time.perf_counter() - t0 >= seconds:
                return records, time.perf_counter() - t0, time.process_time() - c0
        if seconds is None:
            return records, time.perf_counter() - t0, time.process_time() - c0
        p += 1


def warm_up(wl, seed) -> float:
    """Run the largest unit once, unmeasured.

    Lazy library set-up is then done, and the largest arrays are first
    allocated from a fresh heap, so ``peak_rss_mb`` does not depend on the
    order in which the measured loop meets them.
    """
    t0 = time.perf_counter()
    unit = max(wl.units, key=lambda u: (u.n, u.matrix.n_cols if u.matrix is not None else 0))
    for job in wl.jobs(unit, seed, 0):
        job()
    return time.perf_counter() - t0


def counts(records) -> tuple[int, int]:
    return sum(r.samples for r in records), sum(r.failed for r in records)


def end_to_end(records, wall, cpu, setups) -> dict:
    attempted, _ = counts(records)
    times = [r.wall_ms for r in records]
    return {
        "checks_per_s": (attempted / wall, "1/s"),
        "report_ms.p50": (statistics.median(times), "ms"),
        "report_ms.p90": (statistics.quantiles(times, n=10)[8], "ms"),
        "cpu_ms_per_check": (cpu * 1e3 / attempted, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, overhead: float, gaps: list, threads) -> dict:
    totals = tracer.layer_totals()
    stats = tracer.stats

    def calls(layer):
        return totals.get(layer, [0, 0.0])[0]

    def self_s(layer):
        return totals.get(layer, [0, 0.0])[1]

    def ms_per_call(fn):
        n, s = stats.get(f"bundles:{fn}", [0, 0.0])
        return s * 1e3 / n if n else 0.0

    total = tracer.total_s()
    return {
        "structures.build_ms": (self_s("structures") * 1e3, "ms"),
        "verify.draw_s": (self_s("verify.draw"), "s"),
        "verify.candidates": (tracer.candidates, "count"),
        "verify.accept_ratio": (tracer.accepted / tracer.candidates if tracer.candidates else 0.0, "ratio"),
        "solutions.guard_calls": (calls("solutions.guard"), "count"),
        "solutions.guard_s": (self_s("solutions.guard"), "s"),
        "solutions.eval_calls": (calls("solutions.eval"), "count"),
        "solutions.eval_s": (self_s("solutions.eval"), "s"),
        "solutions.eval_us_per_call": (
            self_s("solutions.eval") * 1e6 / calls("solutions.eval") if calls("solutions.eval") else 0.0, "us"),
        "solutions.build_s": (self_s("solutions.build"), "s"),
        "tensors.embed_calls": (calls("tensors.embed"), "count"),
        "tensors.embed_s": (self_s("tensors.embed"), "s"),
        "tensors.op_matrix_s": (self_s("tensors.op_matrix"), "s"),
        "tensors.op_bytes": (tracer.op_bytes, "bytes"),
        "verify.contract_s": (self_s("verify.contract"), "s"),
        "bundles.is_simple_ms": (ms_per_call("is_simple"), "ms"),
        "bundles.bd_from_matrix_ms": (ms_per_call("bd_from_matrix"), "ms"),
        "bundles.closed_ms": (ms_per_call("massey_closed"), "ms"),
        "bundles.oracle_ms": (ms_per_call("massey_oracle"), "ms"),
        "blas.threads": (threads if threads is not None else 0, "count"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.unattributed_frac": (self_s("harness") / total if total else 0.0, "frac"),
        "trace.coverage_gaps": (len(gaps), "count"),
    }


def traced_pass(wl, seed: int, rebuild):
    """Pass 0 plainly, then ``rebuild()`` and pass 0 again under the tracer.

    ``rebuild`` must return the same workload as ``wl``; it runs traced so
    that set-up work shows in the structure and bundle layers.  Returns the
    tracer, all records, the two passes' wall seconds and the coverage gaps.
    """
    from perfbench import tracer as tracing

    warm_up(wl, seed)
    plain, plain_wall, _ = run_reports(wl, seed)
    with tracing.Tracer() as tr:
        wl_t = tr.run_root("setup", -1, rebuild)
        traced, traced_wall, _ = run_reports(
            wl_t, seed, call=lambda rid, job: tr.run_root("report", rid, job))
    gaps = tr.coverage_gaps([(i, r.suite) for i, r in enumerate(traced)])
    return tr, plain + traced, (plain_wall, traced_wall), gaps


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up once and print the seconds it took (used for setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    use_checkout_source()
    wl, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(f"{own_setup:.9f}")
        return 0

    from perfbench import envinfo, workloads

    env = envinfo.record(args.seed)
    summary = {"workload": args.workload, "trace": args.trace}
    if args.trace:
        tr, records, (plain_wall, traced_wall), gaps = traced_pass(
            wl, args.seed, lambda: workloads.BUILDERS[args.workload](args.seed))
        metrics = per_layer(tr, traced_wall / plain_wall - 1.0, gaps, env["blas_threads"])
        summary.update(plain_wall_s=plain_wall, traced_wall_s=traced_wall, coverage_gaps=gaps)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        tr.write(spans_path)
        summary["spans"] = str(spans_path.relative_to(ROOT))
        for gap in gaps[:10]:
            print(f"tracer coverage gap: {gap}", file=sys.stderr)
    else:
        setups = [own_setup] + child_setups(args.workload, args.seed, SETUP_RUNS - 1)
        summary["warm_up_s"] = warm_up(wl, args.seed)
        records, wall, cpu = run_reports(wl, args.seed, args.seconds)
        if len(records) < 100:
            print(f"perfbench: only {len(records)} reports; report_ms.p90 has fewer than "
                  "ten reports beyond it", file=sys.stderr)
        metrics = end_to_end(records, wall, cpu, setups)
        summary.update(wall_s=wall, cpu_s=cpu, setup_runs_s=setups)

    attempted, failed = counts(records)
    summary.update(reports=len(records), attempted=attempted, failed=failed,
                   failed_frac=failed / attempted)
    metrics_doc = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "env": env,
        "summary": summary,
        "metrics": metrics_doc,
        "reports": [workloads.record_doc(r) for r in records],
    }, indent=1))

    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"blas threads {env['blas_threads']}, nproc {env['nproc']}, seed {args.seed}")
    print(f"{args.workload}: {len(records)} reports, {attempted} checks, {failed} failed "
          f"(failed_frac {failed / attempted:.6g})")
    for k, (v, u) in metrics.items():
        print(f"  {k:28s} {v:.6g} {u}")
    print(f"detail: {detail.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_doc}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
