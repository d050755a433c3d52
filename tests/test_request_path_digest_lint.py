"""Lint: no content digest on the request path.

:func:`repro.graphs.io.fingerprint` serialises a whole graph to
canonical JSON and hashes it — up to milliseconds per call, paid in
full even when its only use is to find a cache entry.  The sequence
cache keys on what the sequencer reads instead (the memoised
:class:`repro.graphs.TopologyView` and the label tokens), so a hit
costs a lookup, not a walk of the graph.  The digest stays public for
callers outside the package; this lint keeps every module under
``src/repro`` outside ``graphs/`` from importing or calling it, so it
cannot creep back onto a served path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GRAPHS = SRC / "graphs"
NAME = "fingerprint"


def iter_checked_files():
    return sorted(path for path in SRC.rglob("*.py")
                  if GRAPHS not in path.parents)


def violations_in(path):
    """(line, how) for every import, name or attribute spelling it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, "import") for alias in node.names
                      if alias.name.rsplit(".", 1)[-1] == NAME]
        elif isinstance(node, ast.Name) and node.id == NAME:
            found.append((node.lineno, "name"))
        elif isinstance(node, ast.Attribute) and node.attr == NAME:
            found.append((node.lineno, "attribute"))
    return sorted(found)


def test_source_files_exist():
    files = iter_checked_files()
    assert len(files) > 50  # really walking the tree
    assert not any(GRAPHS in path.parents for path in files)
    # the digest still exists where it is allowed to
    defined = {node.name for node in ast.walk(ast.parse(
        (GRAPHS / "io.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)}
    assert NAME in defined


def test_no_content_digest_outside_graphs():
    problems = [
        f"{path.relative_to(SRC.parent.parent)}:{lineno}: {how}"
        for path in iter_checked_files()
        for lineno, how in violations_in(path)]
    assert not problems, (
        "repro.graphs.io.fingerprint hashes the whole graph; nothing "
        "outside repro/graphs may use it (key a cache on "
        "TopologyView.of(graph) and what else the cached function "
        "reads):\n" + "\n".join(problems))


def test_lint_catches_a_planted_violation(tmp_path):
    planted = tmp_path / "bad.py"
    planted.write_text(
        "from repro.graphs.io import fingerprint\n"
        "import repro.graphs.io as gio\n"
        "def key(graph):\n"
        "    return fingerprint(graph), gio.fingerprint(graph)\n",
        encoding="utf-8")
    assert violations_in(planted) == [
        (1, "import"), (4, "attribute"), (4, "name")]
