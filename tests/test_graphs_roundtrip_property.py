"""Property tests: the graph document, GraphML and edge-list round trips.

The graph document (``repro.graphs.io.to_document`` /
``from_document``) is what crosses the shard pipe, fills session files
and store snapshots, so it must give back the very graph it was given:
every id (ints, strings, tuples of them), every attribute name (the
document's own keys and the graph methods' parameter names included)
and the order of nodes, edges and attributes.  The keyed layout
(``to_dict`` / ``from_dict``) gives it back too, or refuses it.

The store's guarantee is that any attribute value accepted by the edit
log (``repro.store.records.make_record``) survives export/import.
Hypothesis generates arbitrary JSON attribute values — including
nested lists/dicts, ``None``, and keys whose type conflicts across
elements — and the round trip must restore them exactly.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphIOError
from repro.graphs.graph import DiGraph, Graph
from repro.graphs.graphml import read_graphml, write_graphml
from repro.graphs.io import (from_dict, from_document, parse_edgelist_text,
                             to_dict, to_document, write_edgelist)
from repro.shard.protocol import dumps_canonical
from repro.store import graph_bytes, graph_from_bytes
from repro.store.records import make_record

# printable ASCII without the XML/JSON troublemakers the formats do not
# promise to carry (control chars, \r normalization in XML)
_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=12)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-10**9, max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | _text,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_text, children, max_size=3),
    max_leaves=6)

node_ids = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1,
    max_size=8)

attr_keys = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)

attr_dicts = st.dictionaries(attr_keys, json_values, max_size=3)


def assert_attrs_equal(got, want):
    assert set(got) == set(want)
    for key in want:
        a, b = got[key], want[key]
        if isinstance(b, float) and not isinstance(b, bool):
            assert isinstance(a, float) and math.isclose(
                a, b, rel_tol=0, abs_tol=0) or a == b
        else:
            assert a == b and type(a) is type(b)


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.lists(st.tuples(node_ids, attr_dicts), min_size=1,
                   max_size=5, unique_by=lambda item: item[0]),
    extra_edge_attrs=attr_dicts,
    directed=st.booleans(),
)
def test_graphml_round_trips_any_loggable_attrs(nodes, extra_edge_attrs,
                                                directed):
    graph = DiGraph() if directed else Graph()
    for node, attrs in nodes:
        # the store gate: values must be loggable to be in scope
        make_record("add_node", id=node, attrs=attrs)
        graph.add_node(node)
        for key, value in attrs.items():
            graph.set_node_attr(node, key, value)
    ordered = [node for node, __ in nodes]
    for u, v in zip(ordered, ordered[1:]):
        graph.add_edge(u, v)
        for key, value in extra_edge_attrs.items():
            graph.set_edge_attr(u, v, key, value)

    restored = read_graphml_via_tmp(graph)
    assert restored.directed == directed
    assert sorted(restored.nodes(), key=str) == sorted(
        graph.nodes(), key=str)
    for node, attrs in nodes:
        assert_attrs_equal(restored.node_attrs(node), attrs)
    for u, v in graph.edges():
        assert_attrs_equal(restored.edge_attrs(u, v), extra_edge_attrs)


def read_graphml_via_tmp(graph):
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graphml"
        write_graphml(graph, path)
        return read_graphml(path)


def test_graphml_widens_conflicting_key_types(tmp_path):
    graph = Graph()
    graph.add_node("a", x=1)
    graph.add_node("b", x="one")
    graph.add_node("c", x=[1, "one"])
    graph.add_node("d", x=None)
    graph.add_node("e", x=True)
    path = tmp_path / "widen.graphml"
    write_graphml(graph, path)
    restored = read_graphml(path)
    for node in graph.nodes():
        got = restored.node_attrs(node)["x"]
        want = graph.node_attrs(node)["x"]
        assert got == want and type(got) is type(want)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(st.tuples(node_ids, node_ids, attr_dicts),
                   min_size=1, max_size=5),
)
def test_edgelist_round_trips_json_attrs(edges, tmp_path_factory):
    graph = Graph()
    for u, v, attrs in edges:
        if u == v or graph.has_edge(u, v):
            continue
        make_record("add_edge", u=u, v=v, attrs=attrs)
        graph.add_edge(u, v, **attrs)
    if graph.number_of_edges() == 0:
        return
    path = tmp_path_factory.mktemp("el") / "g.edgelist"
    write_edgelist(graph, path)
    restored = parse_edgelist_text(path.read_text(encoding="utf-8"))
    assert sorted(map(str, restored.nodes())) == sorted(
        map(str, graph.nodes()))
    for u, v in graph.edges():
        assert_attrs_equal(restored.edge_attrs(u, v),
                           graph.edge_attrs(u, v))


def test_edgelist_attr_values_with_spaces_stay_one_token(tmp_path):
    graph = Graph()
    graph.add_edge("a", "b", label="two words",
                   data=[1, "x y", {"a b": None}])
    path = tmp_path / "g.edgelist"
    write_edgelist(graph, path)
    line = next(line for line in path.read_text().splitlines()
                if line.startswith("a b "))
    # each key=value token is whitespace-free, so the line re-splits
    # into exactly u, v, and one token per attribute
    assert len(line.split()) == 2 + len(graph.edge_attrs("a", "b"))
    restored = parse_edgelist_text(path.read_text())
    assert restored.edge_attrs("a", "b") == graph.edge_attrs("a", "b")


# ----------------------------------------------------------------------
# the graph document
# ----------------------------------------------------------------------
#: the document's own keys, and the parameter names of the graph
#: methods that take attributes as keywords
CLASHING_NAMES = ("id", "source", "target", "name", "directed", "format",
                  "node", "u", "v", "self")

scalar_ids = st.integers(-5, 40) | st.text("abxy01", max_size=3)
tuple_ids = st.tuples(scalar_ids) | st.tuples(scalar_ids, scalar_ids)
clashing_attrs = st.dictionaries(st.sampled_from(CLASHING_NAMES),
                                 json_values, max_size=4)


@st.composite
def graphs(draw, ids=scalar_ids | tuple_ids):
    """A graph built through the API: attributes passed as keywords,
    edges added (and re-added, merging attributes) in drawn order."""
    graph = (DiGraph if draw(st.booleans()) else Graph)(
        name=draw(st.sampled_from(("", "g"))))
    nodes = draw(st.lists(ids, max_size=8, unique=True))
    for node in nodes:
        graph.add_node(node, **draw(clashing_attrs))
    if nodes:
        for u, v, attrs in draw(st.lists(
                st.tuples(st.sampled_from(nodes), st.sampled_from(nodes),
                          clashing_attrs), max_size=12)):
            graph.add_edge(u, v, **attrs)
    return graph


def rows(graph):
    """Everything the document must carry, in the graph's order."""
    return (graph.directed, graph.name,
            [(node, list(graph.node_attrs(node).items()))
             for node in graph.nodes()],
            [(u, v, list(graph.edge_attrs(u, v).items()))
             for u, v in graph.edges()])


def key_sorted(graph):
    """``rows(graph)`` with each attribute list in key order, as a
    canonical (key-sorted) JSON text hands it back."""
    directed, name, nodes, edges = rows(graph)
    return (directed, name,
            [(node, sorted(attrs)) for node, attrs in nodes],
            [(u, v, sorted(attrs)) for u, v, attrs in edges])


@settings(max_examples=200, deadline=None)
@given(graph=graphs())
def test_the_document_round_trips_content_and_order(graph):
    document = to_document(graph)
    # in memory, and through plain JSON: attribute order too
    for again in (from_document(document),
                  from_document(json.loads(json.dumps(document)))):
        assert again == graph and type(again) is type(graph)
        assert rows(again) == rows(graph)
    # through the shard pipe's canonical JSON, keys sorted
    wired = from_document(json.loads(dumps_canonical(document)))
    assert wired == graph and type(wired) is type(graph)
    assert rows(wired) == key_sorted(graph)
    assert dumps_canonical(to_document(wired)) == dumps_canonical(document)


@settings(max_examples=100, deadline=None)
@given(graph=graphs(ids=scalar_ids))
def test_snapshot_bytes_round_trip_content_and_order(graph):
    blob = graph_bytes(graph)
    again = graph_from_bytes(blob)
    assert again == graph and type(again) is type(graph)
    assert rows(again) == key_sorted(graph)
    assert graph_bytes(again) == blob


@settings(max_examples=100, deadline=None)
@given(graph=graphs())
def test_the_keyed_layout_round_trips_or_refuses(graph):
    """``to_dict`` never writes another graph: it refuses exactly the
    attributes a key would replace, and what it writes reads back."""
    replaced = (any("id" in attrs for attrs in graph.node_attr_dicts())
                or bool({"source", "target"} & graph.edge_attr_keys()))
    try:
        document = to_dict(graph)
    except GraphIOError:
        assert replaced
        return
    assert not replaced
    again = from_dict(json.loads(json.dumps(document)))
    assert again == graph and rows(again) == rows(graph)
