"""Smoke runs of the shipped scripts and the README's library example.

They import library names directly, so a rename or deletion that the
package's own tests do not reach still fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CA_SIGNALS_MEM_BUDGET", None)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def test_render_demo_prints_the_digit_rows(tmp_path):
    out_dir = tmp_path / "frames"
    proc = _run_script("render_demo.py", "--steps", "8", "--k-max", "4",
                       "--out-dir", str(out_dir))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "k= 4  101....." in proc.stdout
    assert len(list(out_dir.glob("slice_*.ppm"))) == 9


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
