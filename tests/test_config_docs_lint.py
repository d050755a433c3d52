"""Lint: the ``ServeConfig`` knob tables cannot drift from the config.

``docs/SERVING.md``, ``docs/ROBUSTNESS.md`` and ``docs/SHARDING.md``
each carry one ``| Knob | Default | Meaning |`` table.  Every
:class:`~repro.config.ServeConfig` field must have a row in at least
one of them, and every row must name a field — so removing a knob
without its row, or leaving a row behind, fails here rather than in a
reader's head.
"""

import dataclasses
import re
from pathlib import Path

from repro.config import ServeConfig

DOCS = Path(__file__).resolve().parent.parent / "docs"
KNOB_DOCS = ("SERVING.md", "ROBUSTNESS.md", "SHARDING.md")
HEADER = "| Knob | Default | Meaning |"
ROW = re.compile(r"^\| `(\w+)` \|")


def documented_knobs(path):
    """Knob names of the table under ``HEADER``, in row order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines.count(HEADER) == 1, f"{path.name}: expected one knob table"
    names = []
    for line in lines[lines.index(HEADER) + 2:]:  # skip the |---| rule
        if not line.startswith("|"):
            break
        match = ROW.match(line)
        assert match, f"{path.name}: unparseable knob row {line!r}"
        names.append(match.group(1))
    return names


def test_every_field_has_a_row_and_every_row_a_field():
    fields = {field.name for field in dataclasses.fields(ServeConfig)}
    rows = {name: doc for doc in KNOB_DOCS
            for name in documented_knobs(DOCS / doc)}
    # sanity: the tables were really parsed (rows may only be missing
    # for fields, which the assert below reports by name)
    assert len(rows) >= len(fields) // 2
    undocumented = sorted(fields - set(rows))
    assert not undocumented, f"ServeConfig fields with no row: {undocumented}"
    stale = sorted((name, rows[name]) for name in set(rows) - fields)
    assert not stale, f"knob rows naming no ServeConfig field: {stale}"
