"""Each module's ``__all__`` lists exactly the public names it defines."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spinband"


def _declared_and_defined(path):
    """(the literal ``__all__``, or None, and the public names the module's
    top level defines by def, class or assignment)."""
    declared, defined = None, set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        if "__all__" in names and isinstance(node.value, (ast.List, ast.Tuple)):
            declared = ast.literal_eval(node.value)
        defined.update(n for n in names if not n.startswith("_"))
    return declared, defined


MODULES = [p for p in sorted(SRC.glob("*.py")) if _declared_and_defined(p)[0] is not None]


def test_the_compute_modules_declare_their_names():
    assert {p.stem for p in MODULES} >= {"model", "volterra", "fdt", "sk", "simulate"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_all_is_exactly_what_the_module_defines(path):
    """No re-export of another module's name, no defined name left out."""
    declared, defined = _declared_and_defined(path)
    assert sorted(declared) == sorted(defined)
