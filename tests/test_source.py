"""Properties of the package source itself."""

import ast
import importlib
from pathlib import Path

import pytest

import aybe

SRC = Path(aybe.__file__).parent


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so a cross-check written as one would vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


#: the closed-form side of criterion c05, which the gluing-system side must not read
CLOSED_FORM = {
    "precedes", "matrix_tau", "star_order", "_chain", "_tau_step", "_tau_step_inv",
    "massey_tensor", "massey_closed",
}


def test_gluing_system_side_reads_no_closed_form_helper():
    # c05 compares the two derivations, so it shows nothing if one calls the other;
    # module functions the oracle side calls are followed, so a detour is caught too
    tree = ast.parse((SRC / "bundles.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    loaded, todo = set(), ["massey_oracle", "hom_dim", "_gluing_cycle"]
    while todo:
        name = todo.pop()
        for node in ast.walk(functions[name]):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if used is not None and used not in loaded:
                loaded.add(used)
                if used in functions:
                    todo.append(used)
    assert loaded & CLOSED_FORM == set()


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


#: the modules that declare ``__all__``
LISTED = sorted(
    path.stem
    for path in SRC.glob("*.py")
    for node in _tree(path.stem).body
    if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
)


@pytest.mark.parametrize("name", LISTED)
def test_all_lists_every_public_definition_and_nothing_missing(name):
    # star imports and the layer tracer read these lists, so they must be truthful
    module = importlib.import_module(f"aybe.{name}")
    defined = {
        node.name
        for node in _tree(name).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert sorted(defined - set(module.__all__)) == []
