"""The README's library quick start runs as documented against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quick_start() -> str:
    """The first python block under the "Library quick start" heading of README.md."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    found = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert found, "README.md has no python block under Library quick start"
    return found.group(1)


def test_readme_quick_start_solves_every_processed_row():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", quick_start()],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    worst = float(result.stdout.split()[-1])
    assert 0.0 <= worst <= 1e-13
