"""Running Python in a new interpreter that imports ``icatt`` from this
checkout, whether or not the package is installed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "proofs" / "invertibility.catt"


def run(*args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` from the repository root, with ``src`` first on
    its module path and its output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env)
