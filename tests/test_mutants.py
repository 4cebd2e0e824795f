"""tools/mutants.py's table stays applicable to the tree."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_names_one_line_and_existing_tests(monkeypatch):
    """Each entry's old line occurs exactly once in its file under src/,
    and each test it names is defined where it says, so the audit cannot
    silently mutate nothing or run no test."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", mutants)  # for its dataclass
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    stale = []
    for m in mutants.MUTANTS:
        hits = mutants.matching_lines((mutants.PACKAGE / m.file).read_text(), m.old)
        if len(hits) != 1:
            stale.append(f"{m.file}: {m.old!r} occurs {len(hits)} times")
        for node in m.tests:
            path, func = node.split("::")
            if not re.search(rf"^def {re.escape(func)}\(", (ROOT / path).read_text(), re.M):
                stale.append(f"{node} is not defined")
    assert not stale, stale
