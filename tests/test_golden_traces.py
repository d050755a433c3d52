"""Golden-trace regression tests for the canonical prompts.

Each canonical prompt (see :mod:`repro.testing.workloads`) runs through
a seeded single-worker :class:`ChatGraphServer` with tracing on; the
*canonical* span-log export (timings stripped, structural order) must
match the checked-in golden file byte for byte.  Any drift in the
pipeline's structure — stages, predicted chains, retry topology, span
identity — shows up as a readable unified diff.

To regenerate after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \\
        tests/test_golden_traces.py
"""

import difflib
import os
from pathlib import Path

import pytest

from repro.config import ServeConfig
from repro.obs import check_trace, load_trace, spans_to_jsonl
from repro.serve import ChatGraphServer
from repro.testing import CANONICAL_PROMPTS, canonical_graph

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def canonical_trace(chatgraph, text, graph):
    """The canonical span-log export of one seeded traced request."""
    config = ServeConfig(workers=1, seed=0,
                         enable_tracing=True)
    with ChatGraphServer(chatgraph, config) as server:
        response = server.ask(text, graph=graph)
        assert response.ok, response.error
        return spans_to_jsonl(server.tracer.finished_spans(),
                              canonical=True)


@pytest.mark.parametrize("slug,text,kind", CANONICAL_PROMPTS,
                         ids=[slug for slug, __, __ in CANONICAL_PROMPTS])
class TestGoldenTraces:
    def test_trace_matches_golden(self, chatgraph, slug, text, kind):
        actual = canonical_trace(chatgraph, text, canonical_graph(kind))
        golden_path = GOLDEN_DIR / f"{slug}.jsonl"
        if REGEN:
            golden_path.write_text(actual, encoding="utf-8")
        assert golden_path.exists(), (
            f"golden file {golden_path} missing; regenerate with "
            f"REPRO_REGEN_GOLDEN=1")
        expected = golden_path.read_text(encoding="utf-8")
        if actual != expected:
            diff = "\n".join(difflib.unified_diff(
                expected.splitlines(), actual.splitlines(),
                fromfile=f"golden/{slug}.jsonl", tofile="this run",
                lineterm=""))
            pytest.fail(f"canonical trace for {slug!r} drifted from the "
                        f"golden file:\n{diff}")

    def test_golden_file_is_well_formed(self, chatgraph, slug, text, kind):
        golden_path = GOLDEN_DIR / f"{slug}.jsonl"
        assert golden_path.exists()
        spans = load_trace(golden_path.read_text(encoding="utf-8"))
        assert check_trace(spans) == []
        # golden traces are canonical: no run-dependent timing fields
        assert all("wall_seconds" not in span for span in spans)
        kinds = {span["kind"] for span in spans}
        assert {"request", "pipeline", "stage", "chain"} <= kinds

    def test_rerun_is_byte_identical(self, chatgraph, slug, text, kind):
        graph = canonical_graph(kind)
        first = canonical_trace(chatgraph, text, graph)
        second = canonical_trace(chatgraph, text, graph)
        assert first == second
