"""Command-line interface: exit codes, determinism, JSON interchange."""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import aybe
from aybe import verify
from aybe.bundles import matrix_from_sequence, tau_free_matrix
from aybe.cli import main
from aybe.solutions import quantum_R, rational_R
from aybe.structures import (
    BDStructure,
    CyclicPermutation,
    enumerate_ordered,
    enumerate_structures,
    structure_to_json,
)


def _no_constant(token):
    raise ValueError(f"{token} is not strict JSON (RFC 8259)")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out.startswith(("{", "[")):  # every JSON document printed is strict JSON
        json.loads(captured.out, parse_constant=_no_constant)
    return code, captured.out, captured.err


def test_enumerate_matches_library(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    docs = json.loads(out)
    assert len(docs) == len(enumerate_structures(3))


def test_enumerate_is_byte_identical(capsys):
    _, out1, _ = run(capsys, "enumerate", "--n", "4")
    _, out2, _ = run(capsys, "enumerate", "--n", "4")
    assert out1 == out2


def test_verify_single_suite_on_structure(tmp_path, capsys):
    bd = enumerate_structures(3)[3]
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(bd))
    code, out, _ = run(
        capsys, "verify", "--suite", "aybe", "--structure", str(path),
        "--samples", "8", "--tol", "1e-8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["reports"][0]["suite"] == "aybe"
    assert doc["reports"][0]["samples"] == 8


def test_verify_is_deterministic(tmp_path, capsys):
    bd = enumerate_structures(3)[2]
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(bd))
    args = ("verify", "--suite", "qybe", "--structure", str(path), "--samples", "6")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_tight_tolerance_fails(tmp_path, capsys):
    bd = enumerate_structures(2)[1]
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(bd))
    code, out, _ = run(
        capsys, "verify", "--suite", "laurent-identity", "--structure", str(path),
        "--samples", "6", "--tol", "1e-300",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_reads_stdin(capsys, monkeypatch):
    bd = enumerate_structures(2)[0]
    monkeypatch.setattr("sys.stdin", io.StringIO(structure_to_json(bd)))
    code, out, _ = run(capsys, "verify", "--suite", "unitarity", "--stdin", "--samples", "6")
    assert code == 0 and json.loads(out)["pass"] is True


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--suite", "aybe", "--structure", str(path))
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "unitarity", "--samples", "0"),
        ("verify", "--suite", "unitarity", "--samples", "-3"),
        ("oracle-compare", "--trials", "0"),
    ],
)
def test_counts_below_one_are_usage_errors(tmp_path, capsys, argv):
    spath = tmp_path / "bd.json"
    spath.write_text(structure_to_json(enumerate_structures(2)[1]))
    mpath = tmp_path / "m.json"
    mpath.write_text(matrix_from_sequence(3, 2, (1, 2, 2)).to_json())
    source = ("--structure", str(spath)) if argv[0] == "verify" else ("--matrix", str(mpath))
    code, out, _ = run(capsys, *argv, *source)
    assert code == 2 and out == ""


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("n_max", ["0", "-3", "6"])
def test_n_max_outside_enumerated_sizes_is_usage_error(capsys, n_max, fmt):
    # below 1 the run would check no structure at all and still pass
    code, out, _ = run(capsys, "verify", "--suite", "unitarity", "--n-max", n_max, "--format", fmt)
    assert code == 2 and out == ""


def test_sampler_exhaustion_is_usage_error(tmp_path, capsys, monkeypatch):
    from aybe.solutions import RFun

    bd = enumerate_structures(2)[1]
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(bd))
    monkeypatch.setattr(RFun, "pole_distance", lambda self, *args: 0.0)
    code, out, err = run(capsys, "verify", "--suite", "aybe", "--structure", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "rejections" in json.loads(err)["error"]


def test_declared_size_mismatch_is_usage_error(tmp_path, capsys):
    doc = json.loads(structure_to_json(enumerate_structures(3)[1]))
    doc["n"] = 4
    path = tmp_path / "bd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--suite", "unitarity", "--structure", str(path))
    assert code == 2 and out == ""
    assert "declared size" in json.loads(err)["error"]


def test_bundle_bd_cross_check_failure_is_verification_failure(tmp_path, capsys, monkeypatch):
    from aybe import bundles

    monkeypatch.setattr(bundles, "matrix_tau", lambda m, a, k=1: None)
    path = tmp_path / "m.json"
    path.write_text(matrix_from_sequence(3, 2, (1, 1, 2)).to_json())
    code, out, err = run(capsys, "bundle-bd", "--matrix", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "tau disagrees" in json.loads(err)["error"]


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, "enumerate", "--n", "2", "--bogus")[0] == 2


# one complete stored report, as verify writes it
_REPORT = {"suite": "aybe", "seed": 0, "samples": 4, "max_residual": 1e-15, "tol": 1e-8, "pass": True}


# options each subcommand used to accept without ever reading them
_UNREAD = {
    "enumerate": ("--seed", "--samples", "--tol", "--stdin"),
    "eval": ("--seed", "--samples", "--tol", "--format"),
    "bundle-check": ("--seed", "--samples", "--tol", "--format"),
    "bundle-bd": ("--seed", "--samples", "--tol", "--format"),
    "oracle-compare": ("--samples", "--format"),
    "report": ("--seed", "--samples", "--tol"),
}
_VALUES = {"--seed": "0", "--samples": "4", "--tol": "1e-8", "--format": "text"}


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in _UNREAD.items() for f in flags]
)
def test_unread_options_are_usage_errors(tmp_path, capsys, command, flag):
    mpath = tmp_path / "m.json"
    mpath.write_text(tau_free_matrix(2, 3).to_json())
    rpath = tmp_path / "r.json"
    rpath.write_text(json.dumps(_REPORT))
    base = {
        "enumerate": ("--n", "2"),
        "eval": ("--kind", "rational"),
        "bundle-check": ("--matrix", str(mpath)),
        "bundle-bd": ("--matrix", str(mpath)),
        "oracle-compare": ("--matrix", str(mpath), "--trials", "1"),
        "report": ("--in", str(rpath)),
    }[command]
    assert run(capsys, command, *base)[0] == 0
    value = (_VALUES[flag],) if flag in _VALUES else ()
    code, out, _ = run(capsys, command, *base, flag, *value)
    assert code == 2 and out == ""


def test_unknown_suite_is_usage_error(tmp_path, capsys):
    bd = enumerate_structures(2)[0]
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(bd))
    code, _, err = run(capsys, "verify", "--suite", "nope", "--structure", str(path))
    assert code == 2 and "unknown suite" in json.loads(err)["error"]


def test_eval_trig(tmp_path, capsys):
    bd = enumerate_structures(2)[1]
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(bd))
    code, out, _ = run(
        capsys, "eval", "--kind", "trig", "--structure", str(path),
        "--u", "0.9,0.3", "--v=-0.7,0.4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2
    # innermost entries are [re, im] pairs
    assert len(doc["coeffs"][0][0][0][0]) == 2


def test_eval_rational(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "rational", "--n", "3", "--u", "0.5", "--v", "1.5")
    assert code == 0 and json.loads(out)["n"] == 3


def test_eval_c_takes_re_im(capsys):
    code, out, _ = run(
        capsys, "eval", "--kind", "rational", "--n", "2", "--c", "0,1", "--u", "0.5", "--v", "1.5",
    )
    assert code == 0
    pairs = np.array(json.loads(out)["coeffs"])
    expected = rational_R(2, 1j)(0.5, 1.5).coeffs
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], expected)


def test_eval_size_is_bounded(tmp_path, capsys):
    # N = 33 is one past the bound; its N^4 coefficients would take 19 MB
    code, out, err = run(capsys, "eval", "--kind", "rational", "--n", "33")
    assert code == 2 and out == "" and "between 1 and 32" in err
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(BDStructure(*[CyclicPermutation.standard(33)] * 2, [])))
    code, out, err = run(capsys, "eval", "--kind", "trig", "--structure", str(path))
    assert code == 2 and out == "" and "N = 33" in json.loads(err)["error"]


def test_verify_size_is_bounded(tmp_path, capsys):
    # N = 17 is one past the bound; the unitarity suite allocates N^4 arrays only,
    # so a broken bound costs little
    path = tmp_path / "bd.json"
    argv = ("verify", "--suite", "unitarity", "--samples", "1", "--structure", str(path))
    path.write_text(structure_to_json(BDStructure(*[CyclicPermutation.standard(16)] * 2, [])))
    assert run(capsys, *argv)[0] == 0
    path.write_text(structure_to_json(BDStructure(*[CyclicPermutation.standard(17)] * 2, [])))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert "N = 17" in error and f"{16 * 17 ** 6} bytes" in error


def test_verify_keeps_each_suite_default_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "2", "--samples", "2")
    assert code == 0
    tols = {(r["suite"], r["tol"]) for r in json.loads(out)["reports"]}
    loose = verify.EXTRACTION_TOL
    assert ("laurent-identity", loose) in tols and len(tols) == 10
    assert all(tol == (loose if suite == "laurent-identity" else verify.DEFAULT_TOL) for suite, tol in tols)


def test_out_of_memory_is_usage_error(capsys, monkeypatch):
    def exhausted(n, c):
        raise MemoryError("Unable to allocate 60.3 GiB")

    monkeypatch.setattr("aybe.solutions.rational_R", exhausted)
    code, out, err = run(capsys, "eval", "--kind", "rational")
    assert code == 2 and out == "" and "Traceback" not in err
    assert json.loads(err)["error"] == "out of memory: Unable to allocate 60.3 GiB"


def test_eval_malformed_c_is_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--kind", "rational", "--c", "1+2j")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "RE,IM" in json.loads(err)["error"]


def test_closed_stdout_exits_quietly():
    """A reader that stops early (``aybe eval ... | head -c 10``) is not a failure."""
    src = os.path.dirname(os.path.dirname(aybe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "aybe", "eval", "--kind", "rational", "--n", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()  # the output is far larger than a pipe buffer, so the write fails
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == b""


@pytest.mark.parametrize("kind", ["trig", "quantum", "classical", "multiplicative", "rational"])
@pytest.mark.parametrize("flag", ["--u", "--v", "--x", "--y", "--yp", "--c"])
def test_eval_malformed_point_is_usage_error_for_every_kind(tmp_path, capsys, kind, flag):
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(enumerate_structures(2)[1]))
    base = ("eval", "--kind", kind, "--structure", str(path))
    assert run(capsys, *base)[0] == 0
    code, out, err = run(capsys, *base, flag, "garbage")
    assert code == 2 and out == ""
    assert "RE,IM" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "key,value", [("m", 1.9), ("m", True), ("m", "1"), ("k", True), ("N", 2.0), ("n", 3.0)]
)
@pytest.mark.parametrize("command", ["bundle-check", "bundle-bd", "oracle-compare"])
def test_non_integer_matrix_is_usage_error(tmp_path, capsys, command, key, value):
    doc = json.loads(tau_free_matrix(2, 3).to_json())
    if key == "m":
        doc["m"][0][2] = value
    else:
        doc[key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--matrix", str(path))
    assert code == 2 and out == ""
    assert "expected an integer" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "key,value",
    [
        ("c0", [2, 3.7, 1]),
        ("c", [2, 3, True]),
        ("gamma1", [[1, 2.2]]),
        ("alpha0", [3, 1.0]),
        ("n", 3.0),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [("eval", "--kind", "multiplicative"), ("verify", "--suite", "aybe2", "--samples", "2")],
)
def test_non_integer_structure_is_usage_error(tmp_path, capsys, argv, key, value):
    doc = json.loads(structure_to_json(enumerate_ordered(3)[1]))
    path = tmp_path / "bd.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, *argv, "--structure", str(path))[0] == 0
    doc[key] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--structure", str(path))
    assert code == 2 and out == ""
    assert "expected an integer" in json.loads(err)["error"]


@pytest.mark.parametrize("alpha0", [[], [1], [3, 1, 2]])
@pytest.mark.parametrize(
    "argv",
    [("eval", "--kind", "multiplicative"), ("verify", "--suite", "aybe2", "--samples", "2")],
)
def test_alpha0_that_is_not_one_pair_is_usage_error(tmp_path, capsys, argv, alpha0):
    doc = json.loads(structure_to_json(enumerate_ordered(3)[1]))
    doc["alpha0"] = alpha0
    path = tmp_path / "bd.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--structure", str(path))
    assert code == 2 and out == ""
    assert "one pair" in json.loads(err)["error"]


@pytest.mark.parametrize("x", ["1e200", "1e300", "-1e300"])
def test_eval_overflow_is_usage_error(tmp_path, capsys, x):
    # x^N overflows a float in the x guard, before any value is formed
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(enumerate_ordered(3)[1]))
    code, out, err = run(capsys, "eval", "--kind", "multiplicative", "--structure", str(path), f"--x={x}")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith("overflow: ")


def test_verify_defaults_are_the_library_defaults(tmp_path, capsys):
    # --samples and --u-fixed, when omitted, are SamplePlan's count and residual_qybe's u_fixed
    obd = enumerate_ordered(3)[1]
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(obd))
    code, out, _ = run(capsys, "verify", "--suite", "qybe", "--structure", str(path))
    want = verify.residual_qybe(quantum_R(obd.bd), plan=verify.SamplePlan())
    assert code == 0 and json.loads(out)["reports"] == [json.loads(want.to_json())]


@pytest.mark.filterwarnings("error")  # 1e200 used to warn in numpy and report a null residual
@pytest.mark.parametrize("u_fixed,code", [("1e200", 2), ("0,1e200", 2), ("2.5", 2), ("2,-2", 0)])
def test_u_fixed_must_lie_in_the_sampling_square(tmp_path, capsys, u_fixed, code):
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(enumerate_structures(3)[5]))
    got, out, err = run(
        capsys, "verify", "--suite", "qybe", "--samples", "2", "--structure", str(path), f"--u-fixed={u_fixed}"
    )
    assert got == code
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and "sampling square" in json.loads(err)["error"]
    else:
        assert err == "" and json.loads(out)["pass"] is True


@pytest.mark.filterwarnings("error")  # 0 used to warn twice in numpy before the draw gave up
@pytest.mark.parametrize("u_fixed,code", [("0", 2), ("0.01", 2), ("0.04,0.02", 2), ("0.06", 0)])
def test_u_fixed_at_the_u_pole_of_R_is_usage_error(tmp_path, capsys, u_fixed, code):
    # within the guard margin of e^u = 1 every v is rejected, so u_fixed itself is refused
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(enumerate_structures(3)[5]))
    got, out, err = run(
        capsys, "verify", "--suite", "qybe", "--samples", "2", "--structure", str(path), f"--u-fixed={u_fixed}"
    )
    assert got == code
    if code == 2:
        message = json.loads(err)["error"]
        assert out == "" and len(err.splitlines()) == 1
        assert "u_fixed" in message and "exp(u)-1" in message
    else:
        assert err == "" and json.loads(out)["pass"] is True


def test_eval_at_pole_is_error(tmp_path, capsys):
    bd = enumerate_structures(2)[0]
    path = tmp_path / "bd.json"
    path.write_text(structure_to_json(bd))
    code, _, err = run(
        capsys, "eval", "--kind", "trig", "--structure", str(path), "--u", "0", "--v", "1",
    )
    assert code == 2 and "error" in json.loads(err)


@pytest.mark.filterwarnings("error")  # the overflow is reported as the error, not warned about
def test_eval_non_finite_value_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bd.json"
    path.write_text(json.dumps({"c": [2, 3, 1], "c0": [2, 3, 1], "gamma1": [[1, 2], [3, 1]], "n": 3}))
    assert run(capsys, "eval", "--kind", "trig", "--structure", str(path))[0] == 0
    code, out, err = run(capsys, "eval", "--kind", "trig", "--structure", str(path), "--u", "2000")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert "not finite" in json.loads(err)["error"]


def test_bundle_check(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(tau_free_matrix(2, 3).to_json())
    code, out, _ = run(capsys, "bundle-check", "--matrix", str(good))
    assert code == 0
    doc = json.loads(out)
    assert doc["simple"] is True and doc["order"] == [2, 1] and doc["row_sum_rule"] is True

    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 2, "n": 2, "k": 1, "m": [[0, 0], [0, 0]]}')
    code, out, _ = run(capsys, "bundle-check", "--matrix", str(bad))
    assert code == 1 and json.loads(out)["simple"] is False


def test_bundle_bd(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(matrix_from_sequence(3, 2, (1, 1, 2)).to_json())
    code, out, _ = run(capsys, "bundle-bd", "--matrix", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["realizable"] is True and doc["n"] == 3 and "alpha0" in doc


def test_oracle_compare(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(matrix_from_sequence(3, 2, (1, 2, 2)).to_json())
    code, out, _ = run(
        capsys, "oracle-compare", "--matrix", str(path), "--trials", "8", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["max_deviation"] <= 1e-9 and doc["trials"] == 8


def test_oracle_compare_nan_on_later_trial_fails(tmp_path, capsys, monkeypatch):
    import numpy as np

    from aybe import bundles

    real, calls = bundles.massey_closed, []

    def closed(*args):
        t = real(*args)
        calls.append(None)
        return bundles.MasseyMap(t.n, np.full_like(t.matrix, np.nan)) if len(calls) == 3 else t

    monkeypatch.setattr(bundles, "massey_closed", closed)
    path = tmp_path / "m.json"
    path.write_text(matrix_from_sequence(3, 2, (1, 2, 2)).to_json())
    code, out, _ = run(capsys, "oracle-compare", "--matrix", str(path), "--trials", "5")
    assert len(calls) == 5 and code == 1
    assert json.loads(out)["pass"] is False


def test_report_round_trip(tmp_path, capsys):
    bd = enumerate_structures(2)[0]
    spath = tmp_path / "bd.json"
    spath.write_text(structure_to_json(bd))
    rpath = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "s-identity", "--structure", str(spath),
        "--samples", "6", "--out", str(rpath),
    )
    assert code == 0
    stored = json.loads(rpath.read_text())
    single = tmp_path / "single.json"
    single.write_text(json.dumps(stored["reports"][0]))
    code, out, _ = run(capsys, "report", "--in", str(single), "--format", "text")
    assert code == 0 and "pass" in out


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("text", ["[1, 2]", '"x"'])
def test_report_must_be_an_object(tmp_path, capsys, text, fmt):
    path = tmp_path / "report.json"
    path.write_text(text)
    code, out, err = run(capsys, "report", "--in", str(path), "--format", fmt)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "report must be a JSON object"


def run_report(tmp_path, capsys, doc, fmt="json"):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "report", "--in", str(path), "--format", fmt)


@pytest.mark.parametrize(
    "change",
    [
        {"max_residual": float("nan")},
        {"max_residual": float("inf")},
        {"tol": float("nan")},
        {"max_residual": 1.0},
        {"samples": 0},
    ],
)
def test_report_rederives_a_failing_verdict(tmp_path, capsys, change):
    code, out, _ = run_report(tmp_path, capsys, {**_REPORT, **change}, "text")
    assert code == 1 and "FAIL (stored pass=true)" in out


def test_report_json_prints_the_derived_verdict(tmp_path, capsys):
    code, out, _ = run_report(tmp_path, capsys, {**_REPORT, "max_residual": float("nan")})
    assert code == 1 and json.loads(out)["pass"] is False


def test_report_json_writes_a_non_finite_number_as_null(tmp_path, capsys, monkeypatch):
    stored = '{"suite": "aybe", "seed": 0, "samples": 3, "max_residual": NaN, "tol": 1e-8, "pass": true}'
    monkeypatch.setattr("sys.stdin", io.StringIO(stored))
    code, out, _ = run(capsys, "report", "--stdin")
    doc = json.loads(out)
    assert code == 1 and doc["max_residual"] is None and doc["pass"] is False
    # null reads back as a failing residual, and the finite fields print unchanged
    code, again, _ = run_report(tmp_path, capsys, doc)
    assert code == 1 and again == out
    code, text, _ = run_report(tmp_path, capsys, {**doc, "tol": None}, "text")
    assert code == 1 and "max_residual=null tol=null FAIL" in text


def test_report_json_prints_each_derived_verdict_of_a_verify_document(tmp_path, capsys):
    bad = {**_REPORT, "max_residual": float("nan")}
    code, out, _ = run_report(tmp_path, capsys, {"reports": [_REPORT, bad], "pass": True})
    doc = json.loads(out)
    assert code == 1 and doc["pass"] is False
    assert [r["pass"] for r in doc["reports"]] == [True, False]
    code, out, _ = run_report(tmp_path, capsys, {"reports": [_REPORT], "pass": True})
    assert code == 0 and json.loads(out) == {"reports": [_REPORT], "pass": True}


def test_report_fails_a_stored_fail_with_passing_numbers(tmp_path, capsys):
    code, out, _ = run_report(tmp_path, capsys, {**_REPORT, "pass": False}, "text")
    assert code == 1 and "FAIL (stored pass=false)" in out
    wrapped = {"reports": [_REPORT, _REPORT], "pass": False}
    assert run_report(tmp_path, capsys, wrapped)[0] == 1


@pytest.mark.parametrize(
    "change",
    [{name: None} for name in _REPORT]
    + [{"samples": "4"}, {"seed": 0.0}, {"tol": True}, {"pass": 1}, {"suite": 3}],
)
def test_report_with_missing_or_ill_typed_field_is_usage_error(tmp_path, capsys, change):
    doc = {k: v for k, v in {**_REPORT, **change}.items() if v is not None}
    for shape in (doc, {"reports": [_REPORT, doc], "pass": True}):
        code, out, err = run_report(tmp_path, capsys, shape, "text")
        assert code == 2 and out == ""
        assert "Traceback" not in err and "missing or has the wrong type" in err


@pytest.mark.parametrize("reports", [{}, None, _REPORT])
def test_report_without_a_list_of_reports_is_usage_error(tmp_path, capsys, reports):
    code, out, _ = run_report(tmp_path, capsys, {"reports": reports, "pass": True})
    assert code == 2 and out == ""


def test_report_with_an_empty_list_of_reports_fails(tmp_path, capsys):
    assert run_report(tmp_path, capsys, {"reports": [], "pass": True})[0] == 1


def test_report_reads_a_piped_verify_document(capsys, monkeypatch):
    bd = enumerate_structures(3)[2]
    monkeypatch.setattr("sys.stdin", io.StringIO(structure_to_json(bd)))
    code, verified, _ = run(
        capsys, "verify", "--suite", "all", "--stdin", "--samples", "2", "--tol", "1e-5"
    )
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(verified))
    code, out, _ = run(capsys, "report", "--stdin", "--format", "text")
    lines = out.splitlines()
    reports = json.loads(verified)["reports"]
    assert code == 0 and len(lines) == len(reports) == 10
    for line, r in zip(lines, reports):
        assert line.startswith(f"suite={r['suite']} seed=0 samples=2 ") and line.endswith(" pass")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--kind", "trig", "--u", "inf"),
        ("eval", "--kind", "rational", "--c", "nan"),
        ("eval", "--kind", "rational", "--u", "1,-inf"),
        ("eval", "--kind", "rational", "--v", "1e400"),
        ("verify", "--suite", "aybe", "--tol", "nan"),
        ("verify", "--suite", "aybe", "--tol", "inf"),
        ("verify", "--suite", "aybe", "--tol", "0"),
        ("verify", "--suite", "aybe", "--tol=-1e-8"),
        ("verify", "--suite", "aybe", "--u-fixed", "nan"),
        ("oracle-compare", "--tol", "nan"),
    ],
)
def test_non_finite_input_is_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "in.json"
    matrix = argv[0] == "oracle-compare"
    path.write_text(
        tau_free_matrix(2, 3).to_json() if matrix else structure_to_json(enumerate_structures(2)[1])
    )
    code, out, err = run(capsys, *argv, "--matrix" if matrix else "--structure", str(path))
    assert code == 2 and out == "" and "Traceback" not in err


def test_output_file_and_text_format(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, _ = run(capsys, "enumerate", "--n", "2", "--out", str(out_path))
    assert code == 0
    assert len(json.loads(out_path.read_text())) == 3
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "text")
    assert code == 0 and out.startswith("3 structures")


# ---------------------------------------------------------------------------
# the exit-code contract under malformed input
# ---------------------------------------------------------------------------

#: a valid structure, matrix and report document, each at N <= 5
_VALID_DOCS = (
    json.loads(structure_to_json(enumerate_ordered(3)[1])),
    json.loads(matrix_from_sequence(5, 3, (1, 1, 2, 2, 3)).to_json()),
    _REPORT,
)
#: replacements for one field of a valid document
_FIELD_POOL = ([], [1], [3, 1, 2], 1e200, "a", [[1, 2], [2, 3]], [[[1]], 2])
#: values of one eval point option
_POINT_POOL = ("0.9,0.3", "0", "1", "-1,0", "1e200", "-1e300", "1e200,1e200", "a")
_POINT_FLAGS = ("--u", "--v", "--x", "--y", "--yp", "--c")
#: values of enumerate's --n, in and out of its range
_N_POOL = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(("", "a", "2.5", "1e200", "9" * 30)))
#: values of verify's --u-fixed: the point pool and the edges of the sampling square
_U_FIXED_POOL = st.sampled_from(_POINT_POOL + ("2,-2", "-2,2.0001", "2.5", "0,1e200"))
_EVAL_KINDS = ("trig", "quantum", "classical", "multiplicative", "rational")


@st.composite
def _one_field_replaced(draw):
    doc = dict(draw(st.sampled_from(_VALID_DOCS)))
    doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(_FIELD_POOL))
    return json.dumps(doc)


def _main_on_stdin(argv, text):
    """Exit code, stdout and stderr of ``main(argv)`` reading ``text`` on stdin; a
    warning counts as stderr text, as it would in a process of its own."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


def _one_diagnostic(err: str) -> bool:
    """Whether stderr is silent, one JSON line naming the error, or argparse's usage
    message for an option it rejects, which ends in its one ``error:`` line."""
    lines = err.splitlines()
    if lines and lines[0].startswith("usage: aybe"):
        return lines[-1].startswith("aybe ") and ": error: " in lines[-1]
    return not lines or (len(lines) == 1 and list(json.loads(err)) == ["error"])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    _one_field_replaced(),
    st.fixed_dictionaries({f: st.sampled_from(_POINT_POOL) for f in _POINT_FLAGS}),
    _N_POOL,
    _U_FIXED_POOL,
)
@example(json.dumps({**_VALID_DOCS[0], "alpha0": []}), {}, "3", "0.9,0.2")  # an IndexError escaped main
# an OverflowError escaped main
@example(json.dumps({**_VALID_DOCS[0], "gamma1": []}), {"--x": "1e200"}, "3", "0.9,0.2")
@example(json.dumps(_VALID_DOCS[0]), {}, "6", "1e200")  # --u-fixed 1e200 printed warnings and a null
@example(json.dumps(_VALID_DOCS[0]), {}, "3", "0")  # --u-fixed 0 printed warnings before its error
def test_every_command_keeps_the_exit_code_contract(text, point, n, u_fixed):
    commands = [("eval", "--kind", kind, *(f"{f}={v}" for f, v in point.items())) for kind in _EVAL_KINDS]
    commands += [
        ("verify", "--suite", "unitarity", "--samples", "1"),
        ("verify", "--suite", "qybe", "--samples", "1", f"--u-fixed={u_fixed}"),
        ("bundle-check",),
        ("bundle-bd",),
        ("oracle-compare", "--trials", "1"),
        ("report",),
    ]
    runs = [(*argv, "--stdin") for argv in commands] + [("enumerate", f"--n={n}")]
    for argv in runs:
        code, out, err = _main_on_stdin(argv, text)
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        assert _one_diagnostic(err), (argv, err)
        if out:
            json.loads(out, parse_constant=_no_constant)
