"""The identity snapshot tool runs end to end, writes every file it lists,
and writes the bits that ``tests/identity.sha256`` records.

``tools/identity_snapshot.py`` is how a change shows that it is
bit-identical, so a tool that stops writing a file it documents would let a
moved output pass unseen. The manifest makes bit identity a check: one
SHA-256 per snapshot file, under a header that names the numpy version, the
BLAS and the machine architecture it was made on. The bits may differ
legitimately on another stack, so there the test fails and shows both
stacks. A change that means to move bits, or that runs on a new stack,
writes the manifest again in its own commit and says why::

    python3 tools/identity_snapshot.py --src src --out /tmp/snap
    python3 tests/test_identity_snapshot.py /tmp/snap > tests/identity.sha256
"""

import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "identity_snapshot.py"
MANIFEST = ROOT / "tests" / "identity.sha256"


def _documented_files() -> set:
    """The files and directories the tool's docstring names: every quoted
    name that ends in ``.csv``, ``.txt`` or ``/``."""
    source = TOOL.read_text()
    doc = source.split('"""')[1]
    return set(re.findall(r"``(\w+\.(?:csv|txt)|\w+/)``", doc))


def _stack() -> list[str]:
    """The manifest's header: the numpy version, the BLAS it was built
    with, and the machine architecture."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"# numpy {np.__version__}",
        f"# blas {blas.get('name')} {blas.get('version')}",
        f"# machine {platform.machine()}",
    ]


def _digests(out: Path) -> dict:
    """The SHA-256 of every file under ``out``, by its relative path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def manifest(out: Path) -> str:
    """The text of ``identity.sha256`` for the snapshot in ``out``."""
    lines = _stack() + [f"{digest}  {name}" for name, digest in _digests(out).items()]
    return "\n".join(lines) + "\n"


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

    lines = MANIFEST.read_text().splitlines()
    stack = [line for line in lines if line.startswith("#")]
    want = {
        name: digest
        for digest, name in (line.split("  ", 1) for line in lines if not line.startswith("#"))
    }
    got = _digests(out)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved and stack == _stack(), (
        f"snapshot files that moved: {moved}; manifest made on {stack}, "
        f"this stack is {_stack()}"
    )


if __name__ == "__main__":
    sys.stdout.write(manifest(Path(sys.argv[1])))
