"""The identity snapshot tool runs end to end and writes every file it lists.

``tools/identity_snapshot.py`` is how a change shows that it is
bit-identical, so a tool that stops writing a file it documents would let a
moved output pass unseen.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identity_snapshot.py"


def _documented_files() -> set:
    """The files and directories the tool's docstring names: every quoted
    name that ends in ``.csv``, ``.txt`` or ``/``."""
    source = TOOL.read_text()
    doc = source.split('"""')[1]
    return set(re.findall(r"``(\w+\.(?:csv|txt)|\w+/)``", doc))


def test_snapshot_writes_every_documented_file(tmp_path):
    files = _documented_files()
    assert {"default.csv", "chains.txt", "cli.txt", "failures/"} <= files, files
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = tmp_path / "snap"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(ROOT / "src"), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for name in files:
        path = out / name
        if name.endswith("/"):
            assert path.is_dir() and any(path.iterdir()), name
        else:
            assert path.is_file() and path.read_text(), name
