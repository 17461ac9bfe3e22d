"""The demo walkthrough prints the recorded bytes.

``scripts/demo_toric.py`` runs the library end to end on the projective
plane fan, and its stdout must equal ``fixtures/demo_toric.stdout``.
Re-record only for an intended output change:

    python3 scripts/demo_toric.py > tests/fixtures/demo_toric.stdout
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_demo_stdout_is_the_recording():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_toric.py")], capture_output=True, check=True
    )
    assert proc.stderr == b""
    assert proc.stdout == (ROOT / "tests" / "fixtures" / "demo_toric.stdout").read_bytes()
