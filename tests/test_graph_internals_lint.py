"""Lint: a graph's adjacency is private to ``repro/graphs/graph.py``.

``Graph.topology_stamp`` is what every memoised derived form is filed
under, and it is only sound while each change of topology goes through
one of the seven mutators that bump it.  A module that writes (or even
reads) ``graph._adj`` / ``_nodes`` / ``_pred`` / ``_stamp`` by hand can
change a graph behind the stamp's back, and every consumer of
:class:`repro.graphs.TopologyView` would then keep serving the old
topology.  The memo slot itself is shared by exactly two files: the
graph that holds it and the view that fills it.

This lint walks every module under ``src/repro`` and rejects any
attribute access by those names outside their owners.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GRAPH = SRC / "graphs" / "graph.py"
TOPOLOGY = SRC / "graphs" / "topology.py"

#: Private attribute -> the files allowed to spell it.
OWNERS = {
    "_adj": {GRAPH},
    "_nodes": {GRAPH},
    "_pred": {GRAPH},
    "_stamp": {GRAPH},
    "_view_memo": {GRAPH, TOPOLOGY},
}


def iter_source_files():
    return sorted(SRC.rglob("*.py"))


def violations_in(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and path not in OWNERS.get(node.attr, {path}))


def test_source_files_exist():
    assert len(iter_source_files()) > 50  # really walking the tree
    assert GRAPH.is_file() and TOPOLOGY.is_file()
    # the owners do use what they own, so a rename cannot hollow this out
    owned = {node.attr for node in ast.walk(ast.parse(GRAPH.read_text()))
             if isinstance(node, ast.Attribute)}
    assert set(OWNERS) <= owned


def test_graph_internals_stay_inside_graph_py():
    problems = [
        f"{path.relative_to(SRC.parent.parent)}:{lineno}: .{attr}"
        for path in iter_source_files()
        for lineno, attr in violations_in(path)]
    assert not problems, (
        "graph internals are private to repro/graphs/graph.py (the "
        "topology stamp is only bumped there); use the public Graph "
        "API or TopologyView.of(graph) instead:\n" + "\n".join(problems))


def test_lint_catches_a_planted_violation(tmp_path):
    planted = tmp_path / "bad.py"
    planted.write_text(
        "def drop(graph, u, v):\n"
        "    del graph._adj[u][v]\n"
        "    graph._view_memo = None\n"
        "    return graph.topology_stamp\n", encoding="utf-8")
    assert violations_in(planted) == [(2, "_adj"), (3, "_view_memo")]
