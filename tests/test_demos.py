"""The demo scripts run to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert [d.name for d in DEMOS] == [
        "matrix_square_merge.py",
        "one_sided_duals.py",
        "weight_tables_on_small_rings.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
