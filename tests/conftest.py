import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Solver subprocesses (``python -m tlemma.ref_solver``) must import the same
# sources as the tests, whether or not the caller set PYTHONPATH.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
