"""Ship each graph to a shard once: graph refs on the wire.

An inline graph crosses the pipe as its ``graph_ref`` on every request
and as a body only when the shard does not hold that ref.  The worker
keeps what it was sent in its ``GraphTable``; the coordinator keeps a
mirror per shard, updated in frame order, so it knows when a ref alone
will do.  These tests run a loopback fleet (``tests/shard_loopback.py``)
and hold every reply byte-equal to an in-process ``ChatGraph`` asked
the same question about the same graph object.
"""

from __future__ import annotations

import json
import time

import pytest

import repro.shard.protocol as protocol
from repro import ChatGraph, ServeConfig, ServeRequest
from repro.errors import GraphError, GraphIOError
from repro.graphs import grid_graph, social_network
from repro.shard import ShardModelSpec, ShardedChatGraphServer
from repro.shard.protocol import (GraphTable, dumps_canonical, graph_ref,
                                  request_from_wire, request_to_wire,
                                  value_to_wire)
from repro.shard.worker import serve_config_to_wire
from repro.testing import slow_chatgraph
from repro.testing.workloads import bench_graphs, canonical_graph

from .shard_loopback import LoopbackLink, loopback_links

CORPUS = 150
SPEC = ShardModelSpec(corpus_size=CORPUS, seed=0)
TEXT = "how many nodes are there"


@pytest.fixture(scope="module")
def reference():
    return ChatGraph.pretrained(corpus_size=CORPUS, seed=0)


@pytest.fixture()
def make_fleet():
    """Boot loopback fleets; each stops when the test ends.  The link
    stays patched throughout, so a restarted shard is a loopback too."""
    fleets = []

    def make(shards=2):
        server = ShardedChatGraphServer(
            SPEC, ServeConfig(shards=shards, workers=1, queue_depth=64))
        server.start()
        fleets.append(server)
        return server

    with loopback_links():
        yield make
        for server in fleets:
            server.stop()


@pytest.fixture()
def sent(monkeypatch):
    """Every ``request`` wire any loopback link writes, in order."""
    frames = []
    real_send = LoopbackLink.send

    def send(link, frame):
        # request frames arrive encoded (``encode_request``)
        decoded = json.loads(frame) if isinstance(frame, bytes) else frame
        if decoded.get("type") == "request":
            frames.append(decoded["request"])
        return real_send(link, frame)

    monkeypatch.setattr(LoopbackLink, "send", send)
    return frames


def _ask(fleet, reference, text, graph):
    """Ask the fleet and the in-process model; the replies must match."""
    remote = fleet.request(ServeRequest(op="ask", text=text, graph=graph))
    assert remote.ok, remote.error
    local = reference.ask(text, graph=graph)
    assert dumps_canonical(value_to_wire("ask", remote.value)) \
        == dumps_canonical(value_to_wire("ask", local))
    return remote.value.answer


def _shipped(fleet):
    counters = fleet.stats()["counters"]
    return (counters.get("shard_graph_bodies", 0),
            counters.get("shard_graph_refs", 0))


def _home(fleet, text, graph):
    index = fleet.ring.lookup(ShardedChatGraphServer.routing_key(
        ServeRequest(op="ask", text=text, graph=graph)))
    return fleet.handles[index]


def _tables_agree(handle):
    """The coordinator's mirror holds what the worker's table holds."""
    table = handle.link.worker.graphs
    assert handle.graphs.refs() == table.refs()
    assert handle.graphs.weight == table.weight
    return table


def _size(graph):
    return graph.number_of_nodes() + graph.number_of_edges()


def test_second_submit_of_one_object_sends_no_body(make_fleet, reference,
                                                   sent):
    fleet = make_fleet()
    graph = bench_graphs(1)[0]
    first = _ask(fleet, reference, TEXT, graph)
    second = _ask(fleet, reference, TEXT, graph)
    assert first == second
    ref = graph_ref(graph)
    assert [(wire["graph_ref"], wire["graph"] is None) for wire in sent] \
        == [(ref, False), (ref, True)]
    assert _shipped(fleet) == (1, 1)
    handle = _home(fleet, TEXT, graph)
    table = _tables_agree(handle)
    assert table.refs() == [ref]
    # the held graph is frozen: no request can change what the next reads
    with pytest.raises(GraphError):
        table.get(ref).add_node("intruder")
    assert table.weight == _size(graph)


def test_a_write_between_submits_reships_and_the_reply_shows_it(
        make_fleet, reference, sent):
    fleet = make_fleet()
    graph = canonical_graph("kg")
    # this model's chain for the prompt ends in export_graph, whose
    # answer prints every node and edge with its attributes
    text = "Clean G"
    before = _ask(fleet, reference, text, graph)
    node = next(iter(graph.nodes()))  # the first node the answer prints
    graph.set_node_attr(node, "note", "edited")
    after_attr = _ask(fleet, reference, text, graph)
    assert "note=" in after_attr and "note=" not in before
    graph.add_edge(node, "fresh-node")
    after_edge = _ask(fleet, reference, text, graph)
    refs = [wire["graph_ref"] for wire in sent]
    assert len(set(refs)) == 3  # every write names new content
    assert all(wire["graph"] is not None for wire in sent)
    assert _shipped(fleet) == (3, 0)
    table = _tables_agree(_home(fleet, text, graph))
    assert table.refs() == refs
    assert table.get(refs[-1]).has_edge(node, "fresh-node")
    assert not table.get(refs[-2]).has_node("fresh-node")
    assert _ask(fleet, reference, text, graph) == after_edge
    assert sent[-1]["graph"] is None and sent[-1]["graph_ref"] == refs[-1]


def test_equal_content_objects_ship_twice(make_fleet, reference, sent):
    fleet = make_fleet()
    graph = bench_graphs(1)[0]
    twin = graph.copy()
    _ask(fleet, reference, TEXT, graph)
    _ask(fleet, reference, TEXT, twin)
    assert graph_ref(graph) != graph_ref(twin)
    assert [wire["graph"] is not None for wire in sent] == [True, True]
    assert _shipped(fleet) == (2, 0)
    table = _tables_agree(_home(fleet, TEXT, graph))
    assert table.refs() == [graph_ref(graph), graph_ref(twin)]


def test_budget_overflow_evicts_the_same_refs_on_both_sides(
        make_fleet, reference, sent, monkeypatch):
    graphs = [social_network(20 + 2 * i, 2, seed=i) for i in range(4)]
    sizes = [_size(graph) for graph in graphs]
    # room for the first three, so the fourth must evict
    monkeypatch.setattr(protocol, "GRAPH_TABLE_BUDGET", sum(sizes[:3]))
    fleet = make_fleet(shards=1)
    handle = fleet.handles[0]
    refs = [graph_ref(graph) for graph in graphs]
    for graph in graphs[:3]:
        _ask(fleet, reference, TEXT, graph)
    assert _tables_agree(handle).refs() == refs[:3]
    _ask(fleet, reference, TEXT, graphs[0])  # a hit: now most recent
    assert _tables_agree(handle).refs() == [refs[1], refs[2], refs[0]]
    _ask(fleet, reference, TEXT, graphs[3])
    table = _tables_agree(handle)
    assert refs[1] not in table.refs() and refs[3] in table.refs()
    assert table.weight <= protocol.GRAPH_TABLE_BUDGET
    _ask(fleet, reference, TEXT, graphs[1])  # evicted: shipped again
    assert sent[-1]["graph"] is not None
    _tables_agree(handle)
    # a graph over the whole budget is shipped every time, never held
    big = social_network(200, 4, seed=9)
    assert _size(big) > protocol.GRAPH_TABLE_BUDGET
    held = _tables_agree(handle).refs()
    _ask(fleet, reference, TEXT, big)
    _ask(fleet, reference, TEXT, big)
    assert [wire["graph"] is not None for wire in sent[-2:]] == [True, True]
    assert _tables_agree(handle).refs() == held


def test_a_killed_shard_fails_over_reships_and_restarts_empty(
        make_fleet, reference, sent):
    fleet = make_fleet()
    graph = bench_graphs(1)[0]
    expected = _ask(fleet, reference, TEXT, graph)
    victim = _home(fleet, TEXT, graph)
    other = fleet.handles[1 - victim.index]
    generation = victim.generation
    n = 8
    with slow_chatgraph(victim.link.worker.server.chatgraph, 0.05):
        pending = [fleet.submit(ServeRequest(op="ask", text=TEXT,
                                             graph=graph))
                   for _ in range(n)]
        deadline = time.monotonic() + 10.0
        while victim.pending_count < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert victim.pending_count >= 2
        fleet.kill_shard(victim.index)
        responses = [item.result(timeout=60.0) for item in pending]
    assert all(response.ok for response in responses)
    assert {response.value.answer for response in responses} == {expected}
    assert any(response.worker.startswith(f"shard-{other.index}/")
               for response in responses)
    # the survivor held nothing: the first orphan it took carried the
    # body, every other request went by ref
    assert [wire["graph"] is not None for wire in sent[1:]].count(True) == 1
    deadline = time.monotonic() + 30.0
    while not (victim.alive and victim.generation > generation) \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    assert victim.alive and victim.generation > generation
    assert len(victim.graphs) == 0 and victim.link.worker.graphs.refs() == []
    # the restarted home shard is shipped the body again
    assert _ask(fleet, reference, TEXT, graph) == expected
    assert sent[-1]["graph"] is not None
    assert _tables_agree(victim).refs() == [graph_ref(graph)]
    counters = fleet.stats()["counters"]
    ops = sum(value for name, value in counters.items()
              if name.startswith("op_"))
    assert counters["admitted"] == ops == n + 2  # each resolved once
    assert counters.get("failed", 0) == 0
    assert counters["shard_failovers"] >= 1


def test_unknown_and_non_int_refs_fail_only_their_own_request():
    """Raw frames into a real worker loop: a ref it does not hold, and
    a ref that is not an int, fail alone; the requests around them are
    served, the held graph included."""
    graph = bench_graphs(1)[0]
    request = ServeRequest(op="propose", text=TEXT, graph=graph)
    mirror = GraphTable()
    shipped = request_to_wire(request, 1, graphs=mirror)
    by_ref = request_to_wire(request, 4, graphs=mirror)
    assert shipped["graph"] is not None and by_ref["graph"] is None
    unknown = dict(by_ref, request_id=2, graph_ref=by_ref["graph_ref"] + 1)
    not_int = dict(shipped, request_id=3, graph_ref="1")
    frames = [shipped, unknown, not_int, by_ref,
              dict(by_ref, request_id=5, graph_ref=True)]
    link = LoopbackLink()
    config = ServeConfig(shards=1, workers=1, queue_depth=64)
    with loopback_links():
        link.spawn({"type": "init", "shard": 0, "model": SPEC.to_wire(),
                    "serve": serve_config_to_wire(config)},
                   time.monotonic() + 60.0)
    try:
        for wire in frames:
            assert link.send({"type": "request", "request": wire})
        replies = {}
        while len(replies) < len(frames):
            frame = link.recv()
            assert frame is not None
            if frame["type"] == "reply":
                replies[frame["response"]["request_id"]] = frame["response"]
        assert link.worker.graphs.refs() == [shipped["graph_ref"]]
    finally:
        link.stop(time.monotonic() + 10.0)
    outcome = {request_id: (reply["ok"], reply["error_type"])
               for request_id, reply in replies.items()}
    assert outcome == {1: (True, ""), 4: (True, ""),
                       2: (False, "ShardProtocolError"),
                       3: (False, "ShardProtocolError"),
                       5: (False, "ShardProtocolError")}
    assert replies[1]["value"] == replies[4]["value"]


#: the document's own keys, and the parameter names of the graph
#: methods that take attributes as keywords
CLASHING_NAMES = ("id", "source", "target", "name", "directed", "format",
                  "node", "u", "v", "self")


def _clashing():
    """A knowledge graph whose first node and edge carry every
    clashing name ("Clean G" on it ends in ``export_graph``)."""
    graph = canonical_graph("kg")
    u, v = next(iter(graph.edges()))
    for name in CLASHING_NAMES:
        graph.set_node_attr(u, name, f"ghost-{name}")
        graph.set_edge_attr(u, v, name, f"ghost-{name}")
    return graph


def test_fleet_answers_about_the_graph_it_was_given(make_fleet, reference):
    """Attribute names that are the document's keys or the graph
    methods' parameters, and tuple node ids, cross the pipe intact: a
    1-shard fleet answers byte-equal to an in-process ``ChatGraph``,
    the ``export_graph`` answer (which prints every node and edge)
    included."""
    fleet = make_fleet(shards=1)
    clashing, grid = _clashing(), grid_graph(3, 3)
    for graph in (clashing, grid):
        for text in (TEXT, "Clean G"):
            _ask(fleet, reference, text, graph)
        held = fleet.handles[0].link.worker.graphs.get(graph_ref(graph))
        assert held == graph and list(held.nodes()) == list(graph.nodes())
    assert "export_graph: " in _ask(fleet, reference, "Clean G", clashing)
    assert fleet.stats()["counters"].get("failed", 0) == 0


def test_both_tables_weigh_the_frame_not_the_rebuilt_graph(
        make_fleet, reference, sent, monkeypatch):
    """Each side weighs a shipped graph by its frame's rows, so a tight
    budget evicts the same refs on both; a body the worker cannot
    rebuild is filed, on both sides, at its frame's weight."""
    plain = social_network(20, 2, seed=1)
    clashing = _clashing()
    grid = grid_graph(4, 4)
    monkeypatch.setattr(protocol, "GRAPH_TABLE_BUDGET",
                        _size(plain) + _size(clashing) + _size(grid))
    fleet = make_fleet(shards=1)
    handle = fleet.handles[0]
    for graph in (plain, clashing, grid):
        _ask(fleet, reference, TEXT, graph)
    assert _tables_agree(handle).weight == protocol.GRAPH_TABLE_BUDGET
    # all three fit: the first is still held on both sides
    _ask(fleet, reference, TEXT, plain)
    assert sent[-1]["graph"] is None
    assert _tables_agree(handle).refs() \
        == [graph_ref(clashing), graph_ref(grid), graph_ref(plain)]

    # the coordinator never ships an unbuildable body, so hand one to
    # the worker's side of the protocol: a node row without its attrs
    request = ServeRequest(op="ask", text=TEXT, graph=plain.copy())
    mirror, table = GraphTable(), GraphTable()
    wire = request_to_wire(request, 1, graphs=mirror)
    wire["graph"]["nodes"][0] = wire["graph"]["nodes"][0][:1]
    with pytest.raises(GraphIOError):
        request_from_wire(wire, table)
    assert table.refs() == mirror.refs() == [wire["graph_ref"]]
    assert table.weight == mirror.weight == _size(plain)
    # a ref alone raises the error its body was filed as
    by_ref = request_to_wire(request, 2, graphs=mirror)
    assert by_ref["graph"] is None
    with pytest.raises(GraphIOError):
        request_from_wire(by_ref, table)
    # a body whose rows cannot be counted is refused before filing
    bare = dict(wire, graph_ref=wire["graph_ref"] + 1, graph={"nodes": []})
    with pytest.raises(protocol.ShardProtocolError):
        request_from_wire(bare, table)
    assert table.refs() == [wire["graph_ref"]]
    assert fleet.stats()["counters"].get("shard_deaths", 0) == 0


def test_an_unencodable_graph_fails_only_its_own_request(
        make_fleet, reference, sent):
    """A set-valued node attribute cannot be encoded.  That request
    fails alone before any mirror files its ref; no shard dies or fails
    over, and the next request is served."""
    fleet = make_fleet(shards=2)
    bad = social_network(20, 2, seed=1)
    bad.set_node_attr(next(iter(bad.nodes())), "tags", {"a", "b"})
    failed = fleet.request(ServeRequest(op="ask", text=TEXT, graph=bad))
    assert not failed.ok and failed.error_type == "ShardProtocolError"
    assert "not JSON-serializable" in failed.error
    assert sent == []
    for handle in fleet.handles:
        assert handle.alive
        assert graph_ref(bad) not in _tables_agree(handle).refs()
    good = social_network(24, 2, seed=2)
    _ask(fleet, reference, TEXT, good)
    assert [wire["graph_ref"] for wire in sent] == [graph_ref(good)]
    counters = fleet.stats()["counters"]
    assert counters.get("shard_deaths", 0) == 0
    assert counters.get("shard_failovers", 0) == 0
    assert counters["failed"] == 1
