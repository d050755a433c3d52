"""The ``repro store`` command-line surface."""

import json

import pytest

from repro.cli import main
from repro.graphs import social_network
from repro.graphs.io import to_document
from repro.store import GraphCatalog


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "store")


def run(capsys, *argv):
    code = main(["store", *argv])
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_create_ingest_ls_verify_compact(root, tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps(to_document(social_network(
        12, 3, seed=2))))

    code, __ = run(capsys, "create", "--root", root, "social")
    assert code == 0
    code, __ = run(capsys, "ingest", "--root", root, "social",
                   str(graph_file))
    assert code == 0

    code, out = run(capsys, "ls", "--root", root)
    assert code == 0 and "social" in out and "12" in out

    code, out = run(capsys, "ls", "--root", root, "social")
    assert code == 0
    assert json.loads(out)["nodes"] == 12

    code, out = run(capsys, "verify", "--root", root, "--index")
    assert code == 0 and "OK" in out

    code, out = run(capsys, "compact", "--root", root, "social")
    assert code == 0
    assert GraphCatalog(root).open("social").epoch == 1

    code, out = run(capsys, "verify", "--root", root, "social")
    assert code == 0 and "OK" in out


def test_ingest_with_create_flag(root, tmp_path, capsys):
    graph_file = tmp_path / "g.edges"
    graph_file.write_text("a b\nb c w=2\n")
    code, __ = run(capsys, "ingest", "--root", root, "fresh",
                   str(graph_file), "--create")
    assert code == 0
    graph = GraphCatalog(root).open("fresh").graph
    assert graph.number_of_nodes() == 3
    assert graph.edge_attrs("b", "c") == {"w": 2}


def test_errors_exit_nonzero(root, capsys):
    code, __ = run(capsys, "compact", "--root", root, "missing")
    assert code == 1
    code, __ = run(capsys, "create", "--root", root, "bad/name")
    assert code == 1


def test_verify_reports_a_torn_log(root, capsys):
    code, __ = run(capsys, "create", "--root", root, "g")
    assert code == 0
    handle = GraphCatalog(root).open("g")
    handle.add_edge("a", "b")
    handle.close()
    from pathlib import Path

    from repro.store import layout
    log_file = layout.log_path(Path(root), "g", 0)
    log_file.write_bytes(log_file.read_bytes()[:-2])
    code, out = run(capsys, "verify", "--root", root)
    assert code == 1
    assert "dropped" in out
