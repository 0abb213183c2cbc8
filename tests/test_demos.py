import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _argv(demo):
    """Run a demo file, or the README's library quick start block."""
    if demo.suffix != ".md":
        return [str(demo)]
    section = demo.read_text().split("## Library quick start", 1)[1]
    return ["-c", section.split("```python\n", 1)[1].split("```", 1)[0]]


@pytest.mark.parametrize("demo", DEMOS + [ROOT / "README.md"], ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable] + _argv(demo),
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
