"""Serialize a graph into the token bag (and sequences) for the model.

The :class:`GraphSequentializer` wires the path cover and the super-graph
together (multi-level mode).  Each cover path reads as a token sequence

    ``["<n:C>", "<e>", "<n:C>", "<e>", "<n:O>"]``

where node tokens carry the node's label (``label``/``element``/
``entity_type``/``kind`` attribute, first one present) and ``<e>``
separates hops.  The aggregate bag-of-tokens (``feature_counts``) is
what the simulated LLM conditions on, and it is counted straight off the
cover walk: no path and no sequence is built on the request path.
``GraphSequences.sequences`` / ``super_sequences`` / ``flat_tokens()``
are a lazy explain/trace view, re-walked on first access from the
snapshot the counts were taken from.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from ..config import SequencerConfig
from ..graphs.graph import Graph, Node
from ..graphs.topology import TopologyView
from .path_cover import CoverStats, cover_view
from .supergraph import SuperGraph, coarsen

#: Node attributes consulted (in order) for a node's token label.
LABEL_KEYS = ("label", "element", "entity_type", "kind")

EDGE_TOKEN = "<e>"
LEVEL_BASE = "<level:0>"
LEVEL_SUPER = "<level:1>"


def node_token(graph: Graph, node: Node) -> str:
    """Token for one node: ``<n:LABEL>`` or ``<n:*>`` when unlabeled."""
    attrs = graph.node_attrs(node)
    for key in LABEL_KEYS:
        value = attrs.get(key)
        if value is not None:
            return f"<n:{value}>"
    return "<n:*>"


@dataclass(frozen=True)
class _Level:
    """Immutable input of one level's cover: enough to walk it again."""

    view: TopologyView
    #: Rendered token of each node id.
    tokens: tuple[str, ...]
    max_length: int
    max_paths: int

    def count_into(self, features: Counter) -> CoverStats:
        """Add this level's token bag to ``features``."""
        hits, stats = cover_view(self.view, self.max_length,
                                 self.max_paths)
        for token, count in zip(self.tokens, hits):
            if count:
                features[token] += count
        hops = sum(hits) - stats.n_paths
        if hops:
            features[EDGE_TOKEN] += hops
        return stats

    def render(self) -> tuple[tuple[str, ...], ...]:
        """Token sequence of every cover path, in emission order."""
        paths: list[tuple[int, ...]] = []
        cover_view(self.view, self.max_length, self.max_paths, paths)
        sequences = []
        for path in paths:
            sequence = [EDGE_TOKEN] * (2 * len(path) - 1)
            sequence[::2] = [self.tokens[node] for node in path]
            sequences.append(tuple(sequence))
        return tuple(sequences)


@dataclass(frozen=True)
class GraphSequences:
    """Everything the sequentializer hands to the LLM for one graph.

    ``feature_counts`` is what the model reads.  The sequences are kept
    as a lazy view for explanations and traces; they are computed from a
    snapshot taken by ``sequentialize``, so editing the graph afterwards
    does not change them.
    """

    #: Path-cover bookkeeping of the base level.
    cover_stats: CoverStats
    #: The super-graph (None unless multi-level).
    supergraph: SuperGraph | None
    #: Bag of all tokens across both levels.
    feature_counts: Counter
    #: Number of paths over both levels.
    n_sequences: int
    _base: _Level = field(repr=False)
    _super: _Level | None = field(repr=False)

    @cached_property
    def sequences(self) -> tuple[tuple[str, ...], ...]:
        """Base-level token sequences, one per cover path."""
        return self._base.render()

    @cached_property
    def super_sequences(self) -> tuple[tuple[str, ...], ...]:
        """Super-graph-level token sequences (empty unless multi-level)."""
        return self._super.render() if self._super is not None else ()

    def flat_tokens(self) -> list[str]:
        """All tokens in order (level markers included), for the LLM."""
        tokens: list[str] = []
        for seq in self.sequences:
            tokens.append(LEVEL_BASE)
            tokens.extend(seq)
        for seq in self.super_sequences:
            tokens.append(LEVEL_SUPER)
            tokens.extend(seq)
        return tokens


class GraphSequentializer:
    """Transform graphs into sequences per a :class:`SequencerConfig`.

    Example::

        seqr = GraphSequentializer(SequencerConfig(path_length=2))
        out = seqr.sequentialize(graph)
        out.sequences[0]   # ('<n:C>', '<e>', '<n:C>', ...)
    """

    def __init__(self, config: SequencerConfig | None = None,
                 cache: "Any | None" = None) -> None:
        self.config = config or SequencerConfig()
        #: Optional cache (``get(key)``/``put(key, v)`` duck type, e.g.
        #: :class:`repro.serve.cache.LRUCache`).  Cached
        #: :class:`GraphSequences` are shared — treat them as immutable.
        self.cache = cache

    def sequentialize(self, graph: Graph) -> GraphSequences:
        """Produce the (possibly multi-level) sequences of ``graph``."""
        view = TopologyView.of(graph)
        tokens = tuple(node_token(graph, node) for node in view.nodes)
        if self.cache is None:
            return self._sequentialize(graph, view, tokens)
        # The key is everything _sequentialize reads: the topology in
        # insertion order (the cover walk follows it), each node's repr
        # (the motif tie-break: 1, 1.0 and True are == but sort apart),
        # the label tokens, and the name the super-graph carries.  No
        # other attribute is read, so a write that touches no label
        # still hits.
        key = (view, tuple(map(repr, view.nodes)), tokens, graph.name,
               self.config)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        out = self._sequentialize(graph, view, tokens)
        self.cache.put(key, out)
        return out

    def _sequentialize(self, graph: Graph, view: TopologyView,
                       tokens: tuple[str, ...]) -> GraphSequences:
        config = self.config
        base = _Level(view, tokens, config.path_length, config.max_paths)
        features: Counter = Counter()
        stats = base.count_into(features)
        n_sequences = stats.n_paths

        supergraph: SuperGraph | None = None
        coarse: _Level | None = None
        if config.multi_level and view.nodes:
            supergraph = coarsen(view, config.min_motif_size,
                                 name=graph.name)
            coarse = _Level(
                supergraph.view,
                tuple(f"<m:{motif}:{size}>"
                      for motif, size in supergraph.motifs),
                config.path_length, max(1, config.max_paths // 4))
            n_sequences += coarse.count_into(features).n_paths
        return GraphSequences(
            cover_stats=stats, supergraph=supergraph,
            feature_counts=features, n_sequences=n_sequences,
            _base=base, _super=coarse)

