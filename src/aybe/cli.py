"""Command-line front end.

Subcommands: enumerate, eval, verify, bundle-check, bundle-bd,
oracle-compare, report.  JSON is the single interchange format; complex
numbers are emitted as [re, im] pairs.  Exit codes: 0 on pass, 1 on
verification failure, 2 on usage or input errors.  All numeric output is
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bundles, solutions, structures, verify
from .structures import ENUMERATE_N_MAX, InvalidStructure, OrderedBDStructure
from .tensors import Tensor2

_USAGE_ERROR = 2


class CliError(Exception):
    """Input or usage problem; reported as a structured diagnostic."""


def _parse_complex(text: str) -> complex:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) in (1, 2) and all(map(math.isfinite, parts)):
        return complex(*parts)
    raise CliError(f"cannot parse a finite complex number from {text!r}; use RE or RE,IM")


def _checked(cast, ok, what: str):
    """argparse type: ``cast`` of the text, which must satisfy ``ok``."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_count = _checked(int, lambda v: v >= 1, "at least 1")  # a sample or trial count
#: largest set size that verify enumerates when no structure is given
_n_max = _checked(int, lambda v: 1 <= v <= ENUMERATE_N_MAX, f"between 1 and {ENUMERATE_N_MAX}")
#: largest N that eval builds a family for: its N^4 complex coefficients take 16 MiB
_EVAL_N_MAX = 32
_eval_n = _checked(int, lambda v: 1 <= v <= _EVAL_N_MAX, f"between 1 and {_EVAL_N_MAX}")
_tol = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and above 0")
#: largest N that verify checks a loaded structure at: an N^3 x N^3 operand takes 16 N^6 bytes
_VERIFY_N_MAX = 16


def _complex_pairs(array: np.ndarray):
    out = np.stack([array.real, array.imag], axis=-1)
    return out.tolist()


def _tensor_doc(t: Tensor2) -> dict:
    return {"n": t.n, "coeffs": _complex_pairs(t.coeffs)}


def _read_source(args, attr: str, what: str) -> str:
    path = getattr(args, attr)
    if args.stdin:
        return sys.stdin.read()
    if path is None:
        raise CliError(f"missing --{what} FILE (or --stdin)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load(args, what: str, parse):
    """``parse`` of the JSON document named by ``--what`` (or read from stdin)."""
    try:
        return parse(_read_source(args, what, what))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(f"malformed {what} JSON: {exc}") from exc


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader stopped reading, which is not an error of this command.
        # Point stdout at devnull so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _as_ordered(obj) -> OrderedBDStructure:
    """``obj`` itself if ordered, else marked at its first edge outside Gamma2
    (one exists, because Gamma2 is a proper subset of the graph of C0)."""
    if isinstance(obj, OrderedBDStructure):
        return obj
    return OrderedBDStructure(obj, min(obj.graph - obj.gamma2))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    docs = [
        json.loads(structures.structure_to_json(bd))
        for bd in structures.enumerate_structures(args.n)
    ]
    if args.format == "text":
        lines = [f"{len(docs)} structures for n={args.n}"]
        lines += [json.dumps(d, sort_keys=True) for d in docs]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps(docs, sort_keys=True))
    return 0


#: eval kind -> (its family from the ordered structure, None if from --n and --c; the point it reads)
_FAMILIES = {
    "trig": (lambda obd: solutions.trigonometric_r(obd.bd), ("u", "v")),
    "quantum": (lambda obd: solutions.quantum_R(obd.bd), ("u", "v")),
    "classical": (lambda obd: solutions.classical_r0(obd.bd), ("v",)),
    "multiplicative": (solutions.multiplicative_r, ("x", "y", "yp")),
    "rational": (None, ("u", "v")),
}


@np.errstate(all="ignore")  # an overflow is reported below, by the value it spoils
def _cmd_eval(args) -> int:
    kind = args.kind
    build, reads = _FAMILIES[kind]
    # every point option is parsed, so a malformed one is an error whatever the kind
    point = {a: _parse_complex(getattr(args, a)) for a in ("u", "v", "x", "y", "yp", "c")}
    if build is None:
        family = solutions.rational_R(args.n, point["c"])
    else:
        obj = _load(args, "structure", structures.structure_from_json)
        if obj.n > _EVAL_N_MAX:
            raise CliError(f"eval builds families up to N = {_EVAL_N_MAX}, not N = {obj.n}")
        family = build(_as_ordered(obj))
    t = family(*(point[a] for a in reads))
    bad = t.coeffs[~np.isfinite(t.coeffs)]
    if bad.size:
        raise CliError(f"{kind} value overflows: {bad.size} coefficients are not finite, one is {bad[0]}")
    _emit(args, json.dumps(_tensor_doc(t), sort_keys=True))
    return 0


def _suite_runners(plan, tol, u_fixed):
    sol = solutions
    kw = {} if tol is None else {"tol": tol}  # else each suite keeps its own default
    return {
        "aybe": lambda obd: verify.residual_aybe(sol.trigonometric_r(obd.bd), plan, **kw),
        "unitarity": lambda obd: verify.residual_unitarity(sol.trigonometric_r(obd.bd), plan, **kw),
        "qybe": lambda obd: verify.residual_qybe(sol.quantum_R(obd.bd), u_fixed, plan, **kw),
        "qybe-unitarity": lambda obd: verify.residual_qybe_unitarity(sol.quantum_R(obd.bd), plan, **kw),
        "cybe": lambda obd: verify.residual_cybe(sol.classical_r0(obd.bd), plan, **kw),
        "s-identity": lambda obd: verify.residual_s_identity(sol.trigonometric_r(obd.bd), plan, **kw),
        "cubic": lambda obd: verify.residual_cubic(sol.trigonometric_r(obd.bd), plan, **kw),
        "aybe2": lambda obd: verify.residual_aybe2(sol.multiplicative_r(obd), plan, **kw),
        "abc": lambda obd: verify.residual_abc(obd, plan, **kw),
        "laurent-identity": lambda obd: verify.residual_laurent_identity(
            sol.trigonometric_r(obd.bd), plan, **kw
        ),
    }


def _cmd_verify(args) -> int:
    plan = verify.SamplePlan(seed=args.seed, count=args.samples)
    u_fixed = verify.U_FIXED if args.u_fixed is None else _parse_complex(args.u_fixed)
    if max(abs(u_fixed.real), abs(u_fixed.imag)) > solutions.RECT:
        # far outside the sampling square, e^u keeps no digits of the family's value
        raise CliError(
            f"--u-fixed {args.u_fixed!r} lies outside the sampling square: "
            f"its real and imaginary parts must be in [-{solutions.RECT}, {solutions.RECT}]"
        )
    runners = _suite_runners(plan, args.tol, u_fixed)
    names = list(runners) if args.suite == "all" else [args.suite]
    unknown = [s for s in names if s not in runners]
    if unknown:
        raise CliError(
            f"unknown suite {unknown[0]!r}; choose from {sorted(runners)} or 'all'"
        )

    if args.structure or args.stdin:
        obj = _load(args, "structure", structures.structure_from_json)
        if obj.n > _VERIFY_N_MAX:
            raise CliError(
                f"verify checks structures up to N = {_VERIFY_N_MAX}, not N = {obj.n}: "
                f"one N^3 x N^3 operand would take {16 * obj.n ** 6} bytes"
            )
        ordered = [_as_ordered(obj)]
    else:
        ordered = [
            _as_ordered(bd)
            for n in range(1, args.n_max + 1)
            for bd in structures.enumerate_structures(n)
        ]
    reports = [runners[name](obd) for obd in ordered for name in names]

    passed = all(r.passed for r in reports)
    if args.format == "text":
        lines = [
            f"{r.suite}: max_residual={r.max_residual:.3e} tol={r.tol:g} "
            + ("pass" if r.passed else "FAIL")
            for r in reports
        ]
        lines.append("ALL PASS" if passed else "FAILURES PRESENT")
        _emit(args, "\n".join(lines))
    else:
        doc = {"reports": [json.loads(r.to_json()) for r in reports], "pass": passed}
        _emit(args, json.dumps(doc, sort_keys=True))
    return 0 if passed else 1


def _cmd_bundle_check(args) -> int:
    m = _load(args, "matrix", bundles.SplittingMatrix.from_json)
    flag, witness = bundles.is_simple(m)
    doc = {
        "simple": flag,
        "witness": list(witness) if witness else None,
        "row_sums": list(bundles.row_sums(m)),
    }
    if flag:
        doc["order"] = list(bundles.star_order(m))
        doc["row_sum_rule"] = bundles.row_sum_rule_holds(m)
    _emit(args, json.dumps(doc, sort_keys=True))
    return 0 if flag else 1


def _cmd_bundle_bd(args) -> int:
    m = _load(args, "matrix", bundles.SplittingMatrix.from_json)
    obd = bundles.bd_from_matrix(m)
    doc = json.loads(structures.structure_to_json(obd))
    doc["order"] = list(bundles.star_order(m))
    doc["realizable"] = bundles.realizable(obd)
    _emit(args, json.dumps(doc, sort_keys=True))
    return 0


def _cmd_oracle_compare(args) -> int:
    m = _load(args, "matrix", bundles.SplittingMatrix.from_json)
    rep = verify.residual_oracle(m, verify.SamplePlan(seed=args.seed, count=args.trials), args.tol)
    doc = {
        "trials": len(rep.per_sample),
        "seed": rep.plan.seed,
        "max_deviation": verify.finite_or_null(rep.max_residual),
        "tol": rep.tol,
        "pass": rep.passed,
    }
    _emit(args, json.dumps(doc, sort_keys=True))
    return 0 if rep.passed else 1


#: JSON types of the fields of one stored report; null stands for a non-finite number
_REPORT_FIELDS = {
    "suite": (str,),
    "seed": (int,),
    "samples": (int,),
    "max_residual": (int, float, type(None)),
    "tol": (int, float, type(None)),
    "pass": (bool,),
}


def _require_fields(doc, fields) -> None:
    if not isinstance(doc, dict):
        raise CliError("report must be a JSON object")
    for name, types in fields.items():
        if name not in doc or type(doc[name]) not in types:  # type(): True is not an int here
            raise CliError(f"report field {name!r} is missing or has the wrong type")


def _check_report(doc) -> tuple[str, bool]:
    """The text line of one stored report and whether it passes: its verdict
    is derived again as at least one sample and a finite max_residual at most
    a finite tol, and a stored ``pass`` that disagrees fails it."""
    _require_fields(doc, _REPORT_FIELDS)
    res, tol = (verify.finite_or_null(doc[name]) for name in ("max_residual", "tol"))
    ok = doc["samples"] >= 1 and None not in (res, tol) and res <= tol
    verdict = "pass" if ok else "FAIL"
    if doc["pass"] != ok:
        verdict = f"FAIL (stored pass={json.dumps(doc['pass'])})"
    shown = ("suite", "seed", "samples", "max_residual", "tol")
    line = " ".join(f"{name}={'null' if doc[name] is None else doc[name]}" for name in shown)
    return f"{line} {verdict}", ok and doc["pass"]


def _cmd_report(args) -> int:
    text = _read_source(args, "infile", "in")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed report JSON: {exc}") from exc
    _require_fields(doc, {})  # a JSON object, of either shape
    if "reports" in doc:  # verify's document
        _require_fields(doc, {"reports": (list,), "pass": (bool,)})
    reports = doc.get("reports", [doc])
    checked = [_check_report(r) for r in reports]
    # a stored overall pass that disagrees with its reports fails too, as does an empty list
    passed = bool(checked) and all(ok for _, ok in checked) and doc["pass"]
    if args.format == "text":
        _emit(args, "\n".join(line for line, _ in checked))
    else:
        # the verdicts derived here, so that the document agrees with the exit code
        for report, (_, ok) in zip(reports, checked):
            report["pass"] = ok
            for name in ("max_residual", "tol"):
                report[name] = verify.finite_or_null(report[name])
        doc["pass"] = passed
        _emit(args, json.dumps(doc, sort_keys=True))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as one JSON error line, as every other usage error."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="aybe", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    shared = {
        "out": dict(default=None),
        "seed": dict(type=int, default=0),
        "samples": dict(type=_count, default=verify.SamplePlan.count),
        "tol": dict(type=_tol, default=None,
                    help="residual tolerance (per-suite default when omitted)"),
        "format": dict(choices=("json", "text"), default="json"),
        "stdin": dict(action="store_true", help="read JSON input from stdin"),
        "structure": dict(default=None, help="structure JSON file"),
        "matrix": dict(default=None, help="splitting matrix JSON file"),
    }

    def common(sp, *names):
        """Attach ``--out`` and the named shared options, only those the subcommand reads."""
        for name in ("out",) + names:
            sp.add_argument("--" + name, **shared[name])

    sp = sub.add_parser("enumerate", help="list structures for a given set size")
    sp.add_argument("--n", type=int, required=True)
    common(sp, "format")
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("eval", help="evaluate a solution family at a point")
    sp.add_argument("--kind", choices=_FAMILIES, required=True)
    sp.add_argument("--u", default="0.9,0.3")
    sp.add_argument("--v", default="-0.7,0.4")
    sp.add_argument("--x", default="1.3,0.4")
    sp.add_argument("--y", default="0.8,-0.3")
    sp.add_argument("--yp", default="-1.1,0.6")
    sp.add_argument("--n", type=_eval_n, default=2, help="matrix size for the rational family")
    sp.add_argument("--c", default="1", help="constant c of the rational family, RE or RE,IM")
    common(sp, "stdin", "structure")
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("verify", help="run residual suites")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--u-fixed", dest="u_fixed", help="qybe's fixed u, RE or RE,IM (default verify.U_FIXED)")
    sp.add_argument("--n-max", dest="n_max", type=_n_max, default=4,
                    help="largest set size when no structure is given")
    common(sp, "seed", "samples", "tol", "format", "stdin", "structure")
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("bundle-check", help="simplicity and order of a splitting matrix")
    common(sp, "stdin", "matrix")
    sp.set_defaults(fn=_cmd_bundle_check)

    sp = sub.add_parser("bundle-bd", help="combinatorial structure of a splitting matrix")
    common(sp, "stdin", "matrix")
    sp.set_defaults(fn=_cmd_bundle_bd)

    sp = sub.add_parser("oracle-compare", help="closed form vs gluing-system solve")
    sp.add_argument("--trials", type=_count, default=16)
    common(sp, "seed", "tol", "stdin", "matrix")
    sp.set_defaults(fn=_cmd_oracle_compare, tol=verify.ORACLE_TOL)

    sp = sub.add_parser("report", help="render a stored report")
    sp.add_argument("--in", dest="infile", default=None)
    common(sp, "format", "stdin")
    sp.set_defaults(fn=_cmd_report)

    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # --help printed its text; a rejected command line raises CliError
        return 0
    except (CliError, InvalidStructure, solutions.PoleError, ValueError, verify.SamplerExhausted) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return _USAGE_ERROR
    except MemoryError as exc:  # an operand too large for this machine is an input error too
        print(json.dumps({"error": f"out of memory: {exc}"}), file=sys.stderr)
        return _USAGE_ERROR
    except OverflowError as exc:  # so is a finite input whose value overflows a float
        print(json.dumps({"error": f"overflow: {exc}"}), file=sys.stderr)
        return _USAGE_ERROR
    except bundles.CrossCheckFailed as exc:  # the input was fine; two derivations disagree
        print(json.dumps({"error": f"cross-check failed: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
