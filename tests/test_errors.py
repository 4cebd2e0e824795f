"""The exception taxonomy cannot drift from the code or from the README."""

import ast
import inspect
import re
from pathlib import Path

import spinband.errors as errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinband"

CLASSES = {name for name, obj in inspect.getmembers(errors, inspect.isclass)
           if issubclass(obj, errors.SpinbandError)}


def _raised_names():
    """Names of the classes that some ``raise X(...)`` in src/spinband calls."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                names.add(node.exc.func.id)
    return names


def test_every_error_class_is_raised_in_the_package():
    """Each class names a failure some code path reports; the base class is
    the catch-all and is raised only through its subclasses."""
    unraised = CLASSES - {"SpinbandError"} - _raised_names()
    assert not unraised, f"defined in spinband.errors but never raised: {unraised}"


def test_readme_errors_row_lists_exactly_the_classes():
    row = next(line for line in (ROOT / "README.md").read_text().splitlines()
               if line.startswith("| `spinband.errors` |"))
    named = set(re.findall(r"`(\w+)`", row))
    assert named == CLASSES
    assert "..." not in row
