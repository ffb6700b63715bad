import os
from pathlib import Path

from hypothesis import settings

# The CLI tests start ``python -m expanderseq.cli`` subprocesses; they import
# the package from this checkout, as the test process itself does.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

# Reproducible property tests: a fixed example sequence, no time limit per
# example and no example database on disk.
settings.register_profile(
    "reproducible", derandomize=True, deadline=None, database=None
)
settings.load_profile("reproducible")
