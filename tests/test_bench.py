"""Smoke test of the bench scripts: each ``main()`` runs at its smallest size.

The scripts are not imported by the package, so without this a renamed or
removed function they call would only show when someone next runs them.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(monkeypatch, name: str):
    # each script puts src/ and the repository root on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: script -> the size settings it runs with here
SMALLEST = {
    "contract": {"NS": (3,), "DENSE_NS": (3,), "REPEATS": 1},
    "oracle": {"NS": (6,), "REPEATS": 1},
}


@pytest.mark.parametrize("name", SMALLEST)
def test_bench_script_runs_at_its_smallest_size(monkeypatch, tmp_path, capsys, name):
    module = _load(monkeypatch, name)
    for attr, value in {**SMALLEST[name], "OUT": tmp_path / "out.json"}.items():
        monkeypatch.setattr(module, attr, value)
    assert module.main() == 0
    entries = json.loads((tmp_path / "out.json").read_text())
    assert entries and all(e["env"]["seed"] == module.SEED for e in entries)
    assert len(capsys.readouterr().out.splitlines()) == len(entries)
