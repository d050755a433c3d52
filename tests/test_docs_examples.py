"""Lint: the extension example in the docs actually runs.

``docs/ARCHITECTURE.md`` § *Writing a custom stage* carries one fenced
``python`` example of a custom stage and a traced graph run.  It is
extracted and executed here against a real
:class:`~repro.llm.prompts.Prompt` (the one name the example leaves
free), so a renamed parameter or a changed call form breaks this test
instead of the reader; the example's own ``assert`` lines are the
checks.
"""

import re
from pathlib import Path

from repro.llm.prompts import Prompt

ARCHITECTURE = (Path(__file__).resolve().parent.parent
                / "docs" / "ARCHITECTURE.md")
HEADING = "### Writing a custom stage"
FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def test_custom_stage_example_runs():
    text = ARCHITECTURE.read_text(encoding="utf-8")
    assert text.count(HEADING) == 1
    section = text.split(HEADING, 1)[1].split("\n### ", 1)[0]
    examples = FENCE.findall(section)
    assert len(examples) == 1, "expected one fenced python example"
    assert "assert " in examples[0]
    namespace = {"prompt": Prompt("  Write a Brief Report for G  ")}
    exec(compile(examples[0], str(ARCHITECTURE), "exec"), namespace)
