"""The scripts under tools/ run and print what their docstrings promise.

Two reach private names of su3kit (``factorlog._closed_form_log``, the
one closed log of both logs, and its siblings, the package's file
layout), so a refactor that moves those names breaks them; this runs
each in a subprocess, as from the command line.
"""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FAMILIES = ("haar", "near_degenerate", "boundary", "cos_zero", "near_cos_zero")


def _run(*args) -> str:
    done = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_closed_share_prints_a_row_per_family():
    rows = _run(ROOT / "tools" / "closed_share.py", "--n", 20).splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(FAMILIES)
    for row in rows:
        n, *shares = row.split()[1:]
        assert n == "20" and len(shares) == 5
        assert all(0.0 <= float(s.rstrip("%")) <= 100.0 for s in shares)


def test_unrun_statements_lists_what_one_test_file_leaves():
    lines = _run(ROOT / "tools" / "unrun_statements.py", "-q", "-p", "no:cacheprovider",
                 ROOT / "tests" / "test_public_surface.py").splitlines()
    unrun = [line for line in lines if line.startswith("src/su3kit/")]
    assert unrun and all(re.match(r"src/su3kit/\w+\.py:\d+: \S", line) for line in unrun)
    assert "src/su3kit/cli.py:520: sys.exit(main())" in unrun
    assert lines[-1] == "%d statements never run" % len(unrun)


def test_code_lines_prints_a_count():
    *modules, total = _run(ROOT / "tools" / "code_lines.py").strip().splitlines()
    assert total.isdigit() and int(total) > 0
    names = [line.split()[0] for line in modules]
    assert names == sorted(p.stem for p in (ROOT / "src" / "su3kit").glob("*.py"))
    assert sum(int(line.split()[1]) for line in modules) == int(total)
