"""Runtime dependencies: the HTTP clients run on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import vps

SRC = Path(vps.__file__).resolve().parent.parent


def test_importing_vps_does_not_import_requests():
    code = (
        "import sys, vps, vps.cli, vps.backends.wire, vps.metrics\n"
        "print(sorted(m for m in sys.modules if m == 'requests' or m.startswith('requests.')))\n"
    )
    path = os.pathsep.join([str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"
