"""Lint: the runtime dependency list matches what ``src/repro`` imports.

``pyproject.toml`` / ``setup.py`` declare numpy as the only runtime
dependency; scipy and networkx are differential-test oracles and live
in the ``test`` extra.  An import of either under ``src/`` would make
that declaration false.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
TEST_ONLY = re.compile(r"^\s*(?:import|from)\s+(?:scipy|networkx)\b", re.M)


def test_src_imports_no_test_only_dependency():
    offenders = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                 if TEST_ONLY.search(path.read_text(encoding="utf-8"))]
    assert offenders == []
