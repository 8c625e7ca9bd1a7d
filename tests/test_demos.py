"""Every script under demos/ runs to completion against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


def run(demo: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_cleanly(demo):
    proc = run(demo)
    assert proc.returncode == 0, proc.stderr


def test_path_surrogates_moves_only_the_ed_outside_the_basis():
    # the exact quadratic keeps its ED on every draw of abscissas; the sine's moves
    out = run(ROOT / "demos" / "path_surrogates.py").stdout
    rows = re.findall(r"seed \d -> quadratic ED (\S+) +sine ED (\S+)", out)
    assert len(rows) == 3
    assert len({quadratic for quadratic, _ in rows}) == 1
    assert len({sine for _, sine in rows}) == 3
