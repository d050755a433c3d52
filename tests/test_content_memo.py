"""Attribute-reading results memoised under a graph's content stamp.

The type prediction, the knowledge steps' ``TripleTable`` and the
signature and rule fit built on it are computed once per
``Graph.content_stamp`` (the topology stamp paired with the attribute
stamp), and a catalog hands every reader of one version the same frozen
snapshot.  What a caller sees must not depend on that: after any
interleaving of attribute writes (through every write path), topology
edits and calls, every answer equals the one a fresh ``graph.copy()``
gives, and no write can get past the stamps.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChatGraphServer, ServeConfig, ServeRequest
from repro.apis import APIChain, ChainContext, ChainExecutor
from repro.errors import GraphError
from repro.graphs import DiGraph, Graph, knowledge_graph, social_network
from repro.llm import GraphTypePredictor
from repro.shard.protocol import dumps_canonical, value_to_wire
from repro.store import GraphCatalog

KNOWLEDGE_STEPS = ("knowledge_profile", "mine_rules",
                   "detect_incorrect_edges", "predict_missing_edges",
                   "infer_entity_types")

#: Every way an attribute gets written, then topology edits.
WRITE_OPS = ("add_node_attrs", "readd_node_attrs", "add_edge_attrs",
             "readd_edge_attrs", "set_node_attr", "set_edge_attr")
TOPOLOGY_OPS = ("add_node", "remove_node", "remove_edge")

NODE_KEYS = {"entity_type": ("person", "organization", "city", "product"),
             "kind": ("entity", "person", "atom", None),
             "element": ("C", "O", "Xx")}
EDGE_KEYS = {"relation": ("works_at", "lives_in", "knows", "founded"),
             "weight": (1, 2.5)}


def answers(graph, executor):
    """Everything the content memo serves, as comparable values."""
    out = {"type": GraphTypePredictor().predict(graph)}
    if graph.directed:
        context = ChainContext(graph=graph)
        executor.execute(APIChain.from_names(KNOWLEDGE_STEPS), context)
        out.update((name, repr(context.latest(name)))
                   for name in KNOWLEDGE_STEPS)
    return out


def write(graph, op, rng):
    """Apply one write if the graph allows it; returns whether it did."""
    nodes, edges = list(graph.nodes()), list(graph.edges())
    key, values = rng.choice(sorted(NODE_KEYS.items()))
    edge_key, edge_values = rng.choice(sorted(EDGE_KEYS.items()))
    if op in ("readd_node_attrs", "add_edge_attrs", "set_node_attr",
              "remove_node") and not nodes:
        return False
    if op in ("readd_edge_attrs", "set_edge_attr", "remove_edge") \
            and not edges:
        return False
    if op == "add_node_attrs":
        graph.add_node(f"n{rng.randrange(100)}",
                       **{key: rng.choice(values)})
    elif op == "readd_node_attrs":
        graph.add_node(rng.choice(nodes), **{key: rng.choice(values)})
    elif op == "add_edge_attrs":
        graph.add_edge(rng.choice(nodes), rng.choice(nodes),
                       **{edge_key: rng.choice(edge_values)})
    elif op == "readd_edge_attrs":
        graph.add_edge(*rng.choice(edges),
                       **{edge_key: rng.choice(edge_values)})
    elif op == "set_node_attr":
        graph.set_node_attr(rng.choice(nodes), key, rng.choice(values))
    elif op == "set_edge_attr":
        graph.set_edge_attr(*rng.choice(edges), edge_key,
                            rng.choice(edge_values))
    elif op == "add_node":
        graph.add_node(f"bare{rng.randrange(100)}")
    elif op == "remove_node":
        graph.remove_node(rng.choice(nodes))
    else:
        graph.remove_edge(*rng.choice(edges))
    return True


def seeded_graph(seed, directed):
    if directed:
        return knowledge_graph(24, 70, seed=seed)
    return social_network(16, 2, seed=seed)


@pytest.fixture(scope="module")
def executor(registry):
    return ChainExecutor(registry)


@given(seed=st.integers(0, 2 ** 16), directed=st.booleans(),
       ops=st.lists(st.sampled_from(WRITE_OPS + TOPOLOGY_OPS
                                    + ("ask",) * 3),
                    min_size=1, max_size=30))
@settings(max_examples=80, deadline=None, print_blob=True)
def test_interleaved_writes_answer_as_a_fresh_copy(executor, seed,
                                                   directed, ops):
    rng = random.Random(seed)
    graph = seeded_graph(seed, directed)
    answers(graph, executor)  # start from filled slots
    for step, op in enumerate(ops):
        if op != "ask":
            stamp = graph.content_stamp[1]
            wrote = write(graph, op, rng)
            assert (graph.content_stamp[1] > stamp) == (
                wrote and op in WRITE_OPS), (step, op)
            continue
        got = answers(graph, executor)
        assert got == answers(graph.copy(), executor), (step, op)
        # asked twice, the memo answers: still the same
        assert answers(graph, executor) == got, (step, op)


@pytest.mark.parametrize("cls", [Graph, DiGraph])
def test_writes_through_returned_mappings_raise(cls):
    graph = cls()
    graph.add_edge("a", "b", relation="knows")
    graph.add_node("a", kind="person")
    stamp = graph.content_stamp
    with pytest.raises(TypeError):
        graph.node_attrs("a")["kind"] = "atom"
    with pytest.raises(TypeError):
        graph.edge_attrs("a", "b")["relation"] = "hates"
    with pytest.raises(TypeError):
        next(graph.node_attr_dicts())["kind"] = "atom"
    for mapping in (graph.node_attrs("a"), graph.edge_attrs("a", "b")):
        with pytest.raises(AttributeError):
            mapping.clear()
    assert graph.content_stamp == stamp
    assert graph.node_attrs("a") == {"kind": "person"}
    assert graph.edge_attrs("a", "b") == {"relation": "knows"}


def test_every_attribute_write_moves_the_stamp():
    for cls in (Graph, DiGraph):
        graph = cls()
        writes = (lambda: graph.add_node("a", kind="person"),
                  lambda: graph.add_node("a", kind="person"),
                  lambda: graph.add_edge("a", "b", relation="knows"),
                  lambda: graph.add_edge("a", "b", relation="knows"),
                  lambda: graph.set_node_attr("b", "kind", "atom"),
                  lambda: graph.set_edge_attr("a", "b", "weight", 2))
        for write_once in writes:
            attributes = graph.content_stamp[1]
            write_once()
            assert graph.content_stamp[1] == attributes + 1
        # re-adding without attributes writes nothing
        stamp = graph.content_stamp
        graph.add_node("a")
        graph.add_edge("a", "b")
        assert graph.content_stamp == stamp


def test_returned_predictions_are_fresh():
    graph = social_network(30, 3, seed=1)
    first = GraphTypePredictor().predict(graph)
    first.scores.clear()
    second = GraphTypePredictor().predict(graph)
    assert second == GraphTypePredictor().predict(graph.copy())
    assert second.scores is not GraphTypePredictor().predict(graph).scores


def test_memoised_tables_are_read_only(executor):
    graph = knowledge_graph(30, 90, seed=2)
    answers(graph, executor)
    table = graph.content_memo("triple_table", lambda: None)
    assert table is not None
    with pytest.raises(ValueError):
        table.head[0] = 1


def test_equal_graphs_never_share_results(executor):
    one, other = knowledge_graph(30, 90, seed=4), knowledge_graph(
        30, 90, seed=4)
    assert one == other
    answers(one, executor)
    fits = []
    assert other.content_memo("triple_table",
                              lambda: fits.append(1)) is None
    assert one.copy().content_memo("graph_type",
                                   lambda: fits.append(1)) is None
    assert fits == [1, 1]


@pytest.fixture()
def catalog(tmp_path):
    with GraphCatalog(tmp_path / "store") as cat:
        cat.create("kg", directed=True).ingest(knowledge_graph(40, 120,
                                                               seed=5))
        yield cat


def test_catalog_reads_share_one_snapshot_per_version(catalog):
    handle = catalog.open("kg")
    first = catalog.view("kg")
    assert catalog.view("kg") is first
    snapshot = first.graph
    with pytest.raises(GraphError):
        snapshot.add_node("rogue")
    with pytest.raises(GraphError):
        snapshot.set_node_attr(next(snapshot.nodes()), "kind", "x")
    with pytest.raises(GraphError):
        snapshot.remove_edge(*next(snapshot.edges()))
    expected = snapshot.copy()
    handle.add_node("late", entity_type="person")
    handle.set_node_attr(next(snapshot.nodes()), "entity_type", "city")
    second = catalog.view("kg")
    assert second is not first and second.version == first.version + 2
    assert catalog.view("kg") is second
    # later edits never show through the old snapshot
    assert snapshot == expected and "late" not in snapshot
    assert "late" in second.graph
    # an epoch roll without edits is a new view, too
    handle.snapshot()
    assert catalog.view("kg") is not second
    # a copy of a snapshot is private and editable
    private = snapshot.copy()
    private.add_node("mine")
    assert "mine" not in snapshot and "mine" not in handle.graph


def test_workers_on_one_snapshot_reply_byte_equal(chatgraph, catalog):
    texts = ("Profile the knowledge graph G and mine its rules",
             "Clean the knowledge graph G", "Write a brief report for G")
    fresh = catalog.view("kg").graph.copy()
    expected = {text: dumps_canonical(value_to_wire(
        "ask", chatgraph.ask(text, graph=fresh.copy()))) for text in texts}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        server = ChatGraphServer(chatgraph,
                                 ServeConfig(workers=4, queue_depth=64),
                                 catalog=catalog)
        with server:
            barrier = threading.Barrier(4)
            replies = [[] for __ in range(4)]

            def ask(slot):
                barrier.wait(timeout=30)
                for text in texts * 2:
                    response = server.request(ServeRequest(
                        op="ask", text=text, graph_name="kg"))
                    assert response.ok, response.error
                    replies[slot].append((text, dumps_canonical(
                        value_to_wire("ask", response.value))))

            threads = [threading.Thread(target=ask, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(len(got) == 6 for got in replies)
    for got in replies:
        for text, reply in got:
            assert reply == expected[text], text
