"""Layer tracer: times aybe's layers from outside by wrapping their public functions.

Each wrapped call records a span (name, start, duration, parent span,
report).  A span's name is ``layer:function``; a layer's self time is the
time its spans spend outside their child spans, so the self times of all
layers, the harness included, add up to the traced total.  Spans stay in
memory until the run writes them out.

Three bindings need care.  ``verify`` imports ``embed``, ``s_product`` and
the Laurent extractors by name, so those are wrapped in ``verify``'s own
namespace.  ``residual_abc`` binds ``parts=abc_parts`` when it is defined,
so the wrapper passes a traced ``parts=``.  ``laurent_r0`` and
``laurent_r1`` call ``r._fn`` directly, so the outer ``RFun.__call__`` is the
only evaluation span they produce.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time

from aybe import bundles, solutions, structures, tensors, verify

HARNESS = "harness"

# layers every report of a suite must reach
_RESIDUAL = ("verify.draw", "verify.contract", "solutions.eval")
_FAMILY = _RESIDUAL + ("solutions.build", "solutions.guard")
_TRIPLE = ("tensors.embed", "tensors.op_matrix")
REACHES = {
    **{s: _FAMILY + _TRIPLE for s in ("aybe", "qybe", "cybe", "cubic", "aybe2", "laurent-identity")},
    **{s: _FAMILY for s in ("unitarity", "qybe-unitarity", "s-identity")},
    "abc": _RESIDUAL + _TRIPLE,
    "oracle": ("bundles", "structures"),
}


class Tracer:
    """Installs wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # span name -> [calls, self seconds]
        self.report = -1
        self.candidates = 0
        self.accepted = 0
        self.op_bytes = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        spans, stack, stats = self.spans, self._stack, self.stats
        stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                spans[frame[0]] = (name, t0, dur, parent[0] if parent else -1, self.report)
                st = stats[name]
                st[0] += 1
                st[1] += dur - frame[1]

        traced.__wrapped__ = fn
        return traced

    def run_root(self, what: str, report: int, fn):
        """Call ``fn`` in a harness span whose child spans all carry ``report``."""
        self.report = report
        return self.wrap(f"{HARNESS}:{what}", fn)()

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, fn=None) -> None:
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, fn or orig))

    def __enter__(self) -> "Tracer":
        for fn in ("enumerate_structures",):
            self._patch(structures, fn, f"structures:{fn}")
        for cls in (structures.BDStructure, structures.OrderedBDStructure):
            self._patch(cls, "__init__", f"structures:{cls.__name__}")
        for fn in ("matrix_from_sequence", "is_simple", "bd_from_matrix", "massey_closed", "massey_oracle"):
            self._patch(bundles, fn, f"bundles:{fn}")
        for fn in ("trigonometric_r", "quantum_R", "classical_r0", "multiplicative_r"):
            self._patch(solutions, fn, f"solutions.build:{fn}")
        for fn in ("s_product", "laurent_r0", "laurent_r1"):
            self._patch(verify, fn, f"solutions.build:{fn}")
        self._patch(solutions.RFun, "__call__", "solutions.eval:RFun.__call__")
        self._patch(solutions.RFun, "pole_distance", "solutions.guard:RFun.pole_distance")
        parts = self.wrap("solutions.eval:abc_parts", solutions.abc_parts)
        self._patch(verify, "embed", "tensors.embed:embed")

        op_matrix = tensors.Tensor3.op_matrix

        def sized_op_matrix(t3):
            out = op_matrix(t3)
            self.op_bytes += out.nbytes
            return out

        self._patch(tensors.Tensor3, "op_matrix", "tensors.op_matrix:Tensor3.op_matrix", sized_op_matrix)

        draw = verify.SamplePlan.draw

        def counted_draw(plan, nvars, ok):
            def counted_ok(z):
                self.candidates += 1
                good = ok(z)
                self.accepted += bool(good)
                return good

            return draw(plan, nvars, counted_ok)

        self._patch(verify.SamplePlan, "draw", "verify.draw:SamplePlan.draw", counted_draw)

        for fn in verify.__all__:
            if not fn.startswith("residual_"):
                continue
            orig = getattr(verify, fn)
            if "parts" in inspect.signature(orig).parameters:
                orig = _with_default(orig, "parts", parts)
            self._patch(verify, fn, f"verify.contract:{fn}", orig)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        """Layer -> [calls, self seconds]."""
        out: dict[str, list] = {}
        for name, (calls, self_s) in self.stats.items():
            acc = out.setdefault(name.split(":")[0], [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        return out

    def total_s(self) -> float:
        """Summed duration of the root spans."""
        return sum(s[2] for s in self.spans if s[3] == -1)

    def coverage_gaps(self, reports) -> list[str]:
        """(report, layer) pairs where a report of a known suite never reached a layer it uses."""
        reached: dict[int, set] = {}
        for s in self.spans:
            reached.setdefault(s[4], set()).add(s[0].split(":")[0])
        return [
            f"report {rid} ({suite}) never reached {layer}"
            for rid, suite in reports
            for layer in REACHES.get(suite, ())
            if layer not in reached.get(rid, ())
        ]

    def write(self, path) -> None:
        """Write every span as one JSON array per line: name, start, seconds, parent, report."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _with_default(fn, key, value):
    def call(*args, **kwargs):
        kwargs.setdefault(key, value)
        return fn(*args, **kwargs)

    return call
