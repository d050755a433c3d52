"""Tests for graph serialization (edge lists, adjacency, JSON dicts,
GraphML)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphIOError
from repro.graphs import (
    DiGraph,
    Graph,
    fingerprint,
    from_adjacency,
    from_document,
    from_edgelist,
    parse_edgelist_text,
    read_edgelist,
    read_graphml,
    social_network,
    to_adjacency,
    to_document,
    to_edgelist,
    write_edgelist,
    write_graphml,
)
from repro.graphs.io import from_dict, to_dict


class TestEdgelist:
    def test_roundtrip_list(self):
        g = from_edgelist([(1, 2), (2, 3)])
        assert sorted(map(sorted, to_edgelist(g))) == [[1, 2], [2, 3]]

    def test_directed_flag(self):
        g = from_edgelist([("a", "b")], directed=True)
        assert isinstance(g, DiGraph)
        assert not g.has_edge("b", "a")

    def test_parse_text_basic(self):
        g = parse_edgelist_text("a b\nb c\n")
        assert g.number_of_edges() == 2

    def test_parse_text_comments_and_blanks(self):
        g = parse_edgelist_text("# comment\n\na b\n")
        assert g.number_of_edges() == 1

    def test_parse_text_attrs(self):
        g = parse_edgelist_text('a b weight=2.5 kind="road"')
        assert g.get_edge_attr("a", "b", "weight") == 2.5
        assert g.get_edge_attr("a", "b", "kind") == "road"

    def test_parse_text_isolated_node(self):
        g = parse_edgelist_text("lonely\na b\n")
        assert g.has_node("lonely")
        assert g.degree("lonely") == 0

    def test_parse_text_bad_attr_raises(self):
        with pytest.raises(GraphIOError):
            parse_edgelist_text("a b notakv")

    def test_file_roundtrip(self, tmp_path):
        g = Graph()
        g.add_edge("x", "y", w=1)
        g.add_node("solo")
        path = tmp_path / "g.edges"
        write_edgelist(g, path)
        g2 = read_edgelist(path)
        assert g2.has_edge("x", "y")
        assert g2.get_edge_attr("x", "y", "w") == 1
        assert g2.has_node("solo")


class TestAdjacency:
    def test_roundtrip(self):
        g = from_adjacency({1: [2, 3], 2: [1], 3: []})
        adj = to_adjacency(g)
        assert adj[1] == [2, 3]
        assert adj[3] == [1]

    def test_directed_adjacency(self):
        d = from_adjacency({"a": ["b"], "b": []}, directed=True)
        assert to_adjacency(d) == {"a": ["b"], "b": []}


class TestDictFormat:
    def test_roundtrip_with_attrs(self):
        g = Graph(name="test")
        g.add_node(1, color="red")
        g.add_edge(1, 2, w=3)
        doc = to_dict(g)
        g2 = from_dict(doc)
        assert g2 == g
        assert g2.name == "test"

    def test_directed_roundtrip(self):
        d = DiGraph()
        d.add_edge("a", "b", relation="works_at")
        d2 = from_dict(to_dict(d))
        assert isinstance(d2, DiGraph)
        assert d2.get_edge_attr("a", "b", "relation") == "works_at"

    def test_json_serializable(self):
        import json
        g = Graph()
        g.add_edge("a", "b", weight=1.5)
        text = json.dumps(to_dict(g))
        assert from_dict(json.loads(text)) == g

    def test_malformed_raises(self):
        for document in ({"nodes": [{"no_id": 1}]},
                         # the positional rows of to_document
                         {"nodes": [[1, {}]]},
                         {"nodes": [{"id": None}]},
                         {"nodes": 3}, []):
            with pytest.raises(GraphIOError):
                from_dict(document)

    def test_edge_without_source_raises(self):
        for edge in ({"target": 1}, {"source": 1}, [1, 1, {}]):
            with pytest.raises(GraphIOError):
                from_dict({"nodes": [{"id": 1}], "edges": [edge]})

    def test_refuses_attributes_that_would_replace_a_key(self):
        """A node attribute ``id`` or an edge attribute ``source`` /
        ``target`` would write another graph, so it is refused."""
        for name, value in (("id", "ghost"), ("source", "ghost"),
                            ("target", "ghost")):
            g = Graph()
            g.add_edge("a", "b")
            if name == "id":
                g.set_node_attr("a", name, value)
            else:
                g.set_edge_attr("a", "b", name, value)
            with pytest.raises(GraphIOError, match="to_document"):
                to_dict(g)
            assert from_document(to_document(g)) == g

    def test_tuple_ids_cross_json(self):
        g = Graph()
        g.add_edge((0, 1), (1, "x"), w=1)
        back = from_dict(json.loads(json.dumps(to_dict(g))))
        assert back == g and list(back.nodes()) == [(0, 1), (1, "x")]


class TestDocument:
    def test_document_is_positional_in_insertion_order(self):
        g = Graph(name="g")
        g.add_node("b", id="not-b")
        g.add_edge("b", "a", source="x", target="y")
        assert to_document(g) == {
            "directed": False, "name": "g",
            "nodes": [["b", {"id": "not-b"}], ["a", {}]],
            "edges": [["b", "a", {"source": "x", "target": "y"}]]}
        back = from_document(json.loads(json.dumps(to_document(g))))
        assert back == g and list(back.nodes()) == ["b", "a"]

    def test_directed_tuple_ids_round_trip(self):
        d = DiGraph(name="d")
        d.add_edge((1, (2, "x")), "b", relation="r")
        back = from_document(json.loads(json.dumps(to_document(d))))
        assert isinstance(back, DiGraph) and back == d
        assert list(back.edges()) == [((1, (2, "x")), "b")]

    def test_malformed_raises(self):
        for document in (
                # the keyed rows of to_dict
                {"nodes": [{"id": 1}]},
                {"nodes": [{"id": 1, "color": "red"}]},
                # rows of the wrong width or kind
                {"nodes": [[1]]},
                {"nodes": [[1, {}, {}]]},
                {"nodes": [[1, ["w", 2]]]},
                {"nodes": 3},
                [],
                # ids no graph accepts
                {"nodes": [[None, {}]]},
                {"nodes": [[{"a": 1}, {}]]}):
            with pytest.raises(GraphIOError):
                from_document(document)

    def test_malformed_edge_rows_raise(self):
        for edge in ({"target": 1},
                     {"source": 1, "target": 1},
                     {"source": 1, "target": 1, "w": 2},
                     [1], [1, 1], [1, 1, "w"], [1, 1, {}, {}]):
            with pytest.raises(GraphIOError):
                from_document({"nodes": [[1, {}]], "edges": [edge]})


# ----------------------------------------------------------------------
# fingerprint: a function of the content, and of nothing else
# ----------------------------------------------------------------------
#: ints and strings never compare equal, so ids stay distinct nodes
node_ids = st.integers(-3, 30) | st.text("abxy01", max_size=3)
attr_values = st.none() | st.integers(0, 3) | st.sampled_from(("C", "N"))
attr_dicts = st.dictionaries(st.sampled_from(("label", "kind", "w")),
                             attr_values, max_size=2)


def edge_key(directed, u, v):
    return (u, v) if directed else frozenset((u, v))


@st.composite
def documents(draw):
    """A :func:`to_document` document with no duplicate node or edge."""
    directed = draw(st.booleans())
    ids = draw(st.lists(node_ids, max_size=8, unique=True))
    nodes = [[node, draw(attr_dicts)] for node in ids]
    edges, seen = [], set()
    pairs = st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                     max_size=12) if ids else st.just([])
    for u, v in draw(pairs):
        if edge_key(directed, u, v) not in seen:
            seen.add(edge_key(directed, u, v))
            edges.append([u, v, draw(attr_dicts)])
    return {"directed": directed, "name": draw(st.sampled_from(("", "g"))),
            "nodes": nodes, "edges": edges}


def content(document):
    """The document as sets: what the fingerprint must be a function
    of (undirected endpoints unordered, values compared as JSON)."""
    def frozen(attrs):
        return frozenset((key, json.dumps(value))
                         for key, value in attrs.items())

    return (document["directed"], document["name"],
            frozenset((json.dumps(node), frozen(attrs))
                      for node, attrs in document["nodes"]),
            frozenset((edge_key(document["directed"],
                                json.dumps(u), json.dumps(v)),
                       frozen(attrs))
                      for u, v, attrs in document["edges"]))


def reordered(document, rng):
    """The same content: node and edge lists shuffled, undirected edges
    written from either end."""
    nodes = list(document["nodes"])
    edges = [list(edge) for edge in document["edges"]]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    if not document["directed"]:
        for edge in edges:
            if rng.random() < 0.5:
                edge[0], edge[1] = edge[1], edge[0]
    return {**document, "nodes": nodes, "edges": edges}


EDITS = ("name", "directed", "add_node", "drop_node", "add_edge",
         "drop_edge", "reverse_edge", "node_attr", "edge_attr")


@st.composite
def edited(draw, document):
    """``document`` with one edit from :data:`EDITS` (a no-op when the
    document has nothing to apply it to, or writes back what was
    there)."""
    directed = document["directed"]
    nodes = [[node, dict(attrs)] for node, attrs in document["nodes"]]
    edges = [[u, v, dict(attrs)] for u, v, attrs in document["edges"]]
    edit = draw(st.sampled_from(EDITS))
    out = {**document, "nodes": nodes, "edges": edges}
    if edit == "name":
        out["name"] += "'"
    elif edit == "directed":
        out["directed"] = not directed
    elif edit == "add_node":
        nodes.append(["fresh", {}])  # not in node_ids' alphabet
    elif edit == "drop_node" and nodes:
        gone = nodes.pop(draw(st.integers(0, len(nodes) - 1)))[0]
        out["edges"] = [edge for edge in edges if gone not in edge[:2]]
    elif edit == "add_edge" and nodes:
        u = draw(st.sampled_from(nodes))[0]
        v = draw(st.sampled_from(nodes))[0]
        if all(edge_key(directed, u, v) != edge_key(directed, *edge[:2])
               for edge in edges):
            edges.append([u, v, {}])
    elif edit == "drop_edge" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif edit == "reverse_edge" and edges:
        edge = draw(st.sampled_from(edges))
        edge[0], edge[1] = edge[1], edge[0]
    elif edit == "node_attr" and nodes:
        draw(st.sampled_from(nodes))[1]["w"] = draw(attr_values)
    elif edit == "edge_attr" and edges:
        draw(st.sampled_from(edges))[2]["w"] = draw(attr_values)
    return out


@given(document=documents(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_fingerprint_ignores_order_and_edge_orientation(document, seed):
    again = reordered(document, random.Random(seed))
    assert content(again) == content(document)
    assert (fingerprint(from_document(again))
            == fingerprint(from_document(document)))


@given(data=st.data(), document=documents())
@settings(max_examples=300, deadline=None)
def test_fingerprint_separates_every_content_change(data, document):
    other = data.draw(edited(document))
    same = content(other) == content(document)
    assert (fingerprint(from_document(other))
            == fingerprint(from_document(document))) == same


class TestGraphml:
    def test_roundtrip_counts_and_attrs(self, tmp_path):
        g = social_network(15, 2, seed=4)
        path = tmp_path / "g.graphml"
        write_graphml(g, path)
        g2 = read_graphml(path)
        assert g2.number_of_nodes() == g.number_of_nodes()
        assert g2.number_of_edges() == g.number_of_edges()
        node = next(iter(g2.nodes()))
        assert g2.get_node_attr(node, "kind") == "person"
        assert isinstance(g2.get_node_attr(node, "community"), int)

    def test_directed_roundtrip(self, tmp_path, kg_graph):
        path = tmp_path / "kg.graphml"
        write_graphml(kg_graph, path)
        back = read_graphml(path)
        assert back.directed
        assert back.number_of_edges() == kg_graph.number_of_edges()
        u, v = next(iter(back.edges()))
        assert back.get_edge_attr(u, v, "relation") is not None

    def test_invalid_xml_raises(self, tmp_path):
        path = tmp_path / "broken.graphml"
        path.write_text("<graphml><graph>")
        with pytest.raises(GraphIOError):
            read_graphml(path)

    def test_json_attrs_roundtrip_and_non_json_rejected(self, tmp_path):
        # lists/dicts/None ride the "json" extension type (see
        # docs/STORE.md: everything the edit log accepts must survive)
        g = Graph()
        g.add_node(1, stuff=[1, 2], extra={"a": None})
        path = tmp_path / "x.graphml"
        write_graphml(g, path)
        back = read_graphml(path)
        node = next(iter(back.nodes()))
        assert back.get_edge_attr is not None  # api smoke
        assert back.node_attrs(node)["stuff"] == [1, 2]
        assert back.node_attrs(node)["extra"] == {"a": None}
        g.add_node(2, bad=object())
        with pytest.raises(GraphIOError):
            write_graphml(g, tmp_path / "y.graphml")
