"""Self-tests of the benchmark: tiny runs, the correctness gate, and the tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from perfbench import gate, run

run.use_checkout_source()

from aybe import solutions, tensors, verify  # noqa: E402
from perfbench import workloads  # noqa: E402

SEED = 3
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    """A few units of each workload, so that a whole pass takes a second or two."""
    if name == "sweep-n4":
        wl = workloads.sweep_n4(SEED)
        return dataclasses.replace(wl, units=wl.units[::19], samples=2)
    if name == "dense-n8":
        return dataclasses.replace(workloads.dense_n8(SEED, count=1), samples=1)
    return workloads.bundles_oracle(SEED, per_n=1)


def failed_frac(records) -> float:
    attempted, failed = run.counts(records)
    return failed / attempted


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------


def test_gate_counts_bad_values_and_missing_samples():
    nan, inf = float("nan"), float("inf")
    assert gate.failed_checks([1e-16, 2e-16], 2, 1e-8) == 0
    assert gate.failed_checks([1e-16, nan, 1e-16], 3, 1e-8) == 1
    assert gate.failed_checks([inf, 1e-3], 2, 1e-8) == 2
    assert gate.failed_checks([1e-16], 3, 1e-8) == 3  # missing samples fail the whole report
    assert gate.failed_checks([], 2, 1e-8) == 2
    assert gate.worst_index([1e-16, 3e-16, nan, 5.0]) == 2
    assert gate.worst_index([1e-16, 3e-16, 2e-16]) == 1
    assert gate.worst_index([]) is None


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_reports_every_metric(name):
    wl = tiny(name)
    records, wall, cpu = run.run_reports(wl, SEED)
    metrics = run.end_to_end(records, wall, cpu, [0.1])
    assert set(metrics) == {m["name"] for m in CONTRACT["end_to_end"]}
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(metrics[k][1] == units[k] and metrics[k][0] > 0 for k in metrics)
    assert failed_frac(records) == 0
    assert all(r.input and r.samples == wl.samples and r.worst_index is not None for r in records)


def test_perturbed_family_fails_the_gate():
    records, _, _ = run.run_reports(tiny("sweep-n4"), SEED, family_wrap=verify.perturb)
    assert failed_frac(records) > 0


def nan_family(r: solutions.RFun) -> solutions.RFun:
    """``r`` with every coefficient NaN wherever the first argument has positive real part."""

    def fn(*args):
        t = r(*args)
        return tensors.Tensor2(t.n, t.coeffs * (math.nan if args[0].real > 0 else 1.0))

    return solutions.RFun(r.n, r.kind + "+nan", r.arity, fn, r.guards)


def test_nan_family_fails_the_gate_past_the_first_sample():
    records, _, _ = run.run_reports(tiny("sweep-n4"), SEED, family_wrap=nan_family)
    assert failed_frac(records) > 0
    # a NaN after a finite first sample is the case a plain max() drops
    assert any(r.failed and r.worst_index > 0 for r in records)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tracer_covers_every_layer_and_adds_up(name):
    originals = (verify.residual_abc, verify.embed, solutions.RFun.__call__, tensors.Tensor3.op_matrix)
    tr, records, (plain_wall, traced_wall), gaps = run.traced_pass(tiny(name), SEED, lambda: tiny(name))
    assert gaps == []
    assert failed_frac(records) == 0
    total = tr.total_s()
    layers = tr.layer_totals()
    assert sum(self_s for _, self_s in layers.values()) == pytest.approx(total, rel=1e-9)
    assert layers["harness"][1] < 0.1 * total
    metrics = run.per_layer(tr, traced_wall / plain_wall - 1.0, gaps, 1)
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    assert originals == (verify.residual_abc, verify.embed, solutions.RFun.__call__, tensors.Tensor3.op_matrix)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    a, b, c = (workloads.dense_n8(s, count=2) for s in (SEED, SEED, SEED + 1))
    assert [u.doc for u in a.units] == [u.doc for u in b.units]
    assert [u.doc for u in a.units] != [u.doc for u in c.units]
    m1, m2 = workloads.bundles_oracle(SEED), workloads.bundles_oracle(SEED + 1)
    assert [u.doc for u in m1.units] != [u.doc for u in m2.units]
    assert sorted((u.matrix.n_rows, u.matrix.n_cols) for u in m1.units) == sorted(
        (u.matrix.n_rows, u.matrix.n_cols) for u in m2.units
    )
