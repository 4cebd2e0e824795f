"""Mutation audit: does a named test see each recorded defect?

Each entry of MUTANTS changes one line of a file under ``src/spinband``:
the line whose text, without its indentation, is exactly ``old`` becomes
``new`` (indented as ``old`` was).  ``tests`` are the pytest node ids that
should fail on it.  An entry with ``survivor`` set is a known survivor:
today its tests pass, and ``survivor`` names the ROADMAP direction whose
check will kill it.

For each selected entry the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies the entry there and
runs only its tests.  It first runs the same tests on an unchanged copy,
which must pass.  The working tree is never edited.

    python3 tools/mutants.py          # every entry
    python3 tools/mutants.py 0 3      # entries by index

Exit status 1 when an entry's outcome is not the recorded one: a mutant
that is expected to be killed survives, or a known survivor is killed
(then its entry is out of date).  The tier-1 suite checks only that every
``old`` line still occurs exactly once, so the table cannot rot silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinband"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str            # under src/spinband
    old: str             # the line's text without its indentation
    new: str
    tests: tuple         # pytest node ids
    survivor: str | None = None


MUTANTS = (
    Mutant("noise variance x 1.1", "simulate.py",
           "block *= math.sqrt(dt)",
           "block *= math.sqrt(1.1 * dt)",
           # test_07's p = 2 run steps in the eigenframe, its p = 3 run does not
           ("tests/test_acceptance.py::test_07_finite_size_runs_track_the_limit",)),
    Mutant("eigenframe drift without its factor 2", "simulate.py",
           "slope = 2 * lam",
           "slope = lam",
           ("tests/test_simulate.py::test_frame_run_matches_the_dense_loop",)),
    Mutant("eigenframe increments added unrotated", "simulate.py",
           "X += rincs[j] if frame else incs[j]",
           "X += incs[j]",
           ("tests/test_simulate.py::test_frame_run_matches_the_dense_loop",)),
    Mutant("conditioning correction x 0.99", "volterra.py",
           "sub = self.corr * Iq / self.denom",
           "sub = 0.99 * self.corr * Iq / self.denom",
           ("tests/test_acceptance.py::test_01_quadratic_oracle_equivalence",)),
    Mutant("no-aging kappas at d_inf(gamma(alpha)), not at alpha^2", "fdt.py",
           "return _plateau_kappas(a * a, nu)",
           # alpha may be an array; alpha^2 where gamma(alpha) has no plateau
           "return _plateau_kappas(np.vectorize(lambda x: d_infty(_no_aging_gamma("
           "x, beta, qs, v, nu, denom), beta, nu) or x * x)(a), nu)",
           # test_14 and test_fdt's mixed localized-branch tests fail on it,
           # but only through the no_aging_identities fixture, which
           # restates the closure; the q, mu and H gates pass
           ("tests/test_acceptance.py::test_13_long_time_march_off_the_g_identity",),
           survivor="direction 17 (a gate on the late-time C and R lag profiles)"),
    Mutant("triangle reader without its mirror", "cli.py",
           "M[b:s, s] = M[s, b:s]",
           "pass",
           ("tests/test_cli.py::test_two_time_files_round_trip_bitwise",
            "tests/test_cli.py::test_simulate_matrices_are_the_in_process_observables",
            "tests/test_cli.py::test_c_n_pack_streams_at_3001_snapshots")),
    Mutant("triangle writer without its mirror check", "cli.py",
           "_check_mirror(M, b, e)",
           "pass",
           ("tests/test_cli.py::test_triangle_writer_refuses_what_the_reader_cannot_restore",)),
    Mutant("triangle writer without its above-diagonal check", "cli.py",
           "if not symmetric and bits[k, s + 1:].any():",
           "if False:",
           ("tests/test_cli.py::test_triangle_writer_refuses_what_the_reader_cannot_restore",)),
)


def matching_lines(text: str, old: str) -> list:
    """Indices of the lines of ``text`` whose text without indentation is ``old``."""
    return [i for i, line in enumerate(text.splitlines()) if line.strip() == old]


def mutate(text: str, m: Mutant) -> str:
    lines = text.splitlines(keepends=True)
    hits = matching_lines(text, m.old)
    if len(hits) != 1:
        raise SystemExit(f"{m.file}: {m.old!r} occurs {len(hits)} times, expected once")
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + m.new + "\n"
    return "".join(lines)


def run_tests(tree: Path, tests) -> bool:
    """True when every test passes in ``tree``."""
    # no bytecode cache: a mutated file must never run from a stale one
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a test failed; else it did not run
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return proc.returncode == 0


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest)


def main(argv) -> int:
    chosen = [MUTANTS[int(a)] for a in argv] or list(MUTANTS)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        tests = sorted({t for m in chosen for t in m.tests})
        if not run_tests(tree, tests):
            print("the named tests fail on the unchanged tree", file=sys.stderr)
            return 1
        wrong = 0
        for m in chosen:
            path = tree / "src" / "spinband" / m.file
            original = path.read_text()
            path.write_text(mutate(original, m))
            try:
                killed = not run_tests(tree, m.tests)
            finally:
                path.write_text(original)
            if killed:
                outcome = "killed" if m.survivor is None else "killed, entry out of date"
            else:
                outcome = ("SURVIVED" if m.survivor is None
                           else f"survived, known: {m.survivor}")
            wrong += killed == (m.survivor is not None)
            print(f"{m.name} ({m.file}): {outcome}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
