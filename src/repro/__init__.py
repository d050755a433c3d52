"""repro — a full offline reproduction of ChatGraph (ICDE 2024).

ChatGraph lets users interact with graphs through natural language: a
prompt (text + graph) is answered by retrieving relevant analysis APIs,
sequentializing the graph for a language model, generating an API chain,
and executing it under user confirmation with progress monitoring.

Quick start::

    from repro import ChatGraph
    from repro.graphs import social_network

    cg = ChatGraph.pretrained()
    print(cg.ask("Write a brief report for G",
                 graph=social_network(50, 3)).answer)

Package map (one subpackage per subsystem; see DESIGN.md):

- :mod:`repro.core` — the ChatGraph framework and the four scenarios
- :mod:`repro.graphs` / :mod:`repro.algorithms` — graph substrate
- :mod:`repro.embedding` / :mod:`repro.ann` — retrieval substrate (the
  tau-MG index and brute force; the E6 ANN baselines live under
  ``benchmarks/ann_baselines``)
- :mod:`repro.sequencer` — graph sequentializer
- :mod:`repro.apis` — the analysis API catalog, chains, executor
- :mod:`repro.llm` — the (simulated) graph-aware language model
- :mod:`repro.finetune` — API chain-oriented finetuning
- :mod:`repro.retrieval` — API retrieval module
- :mod:`repro.kb` — knowledge-graph inference (cleaning)
- :mod:`repro.chem` — molecule substrate
- :mod:`repro.serve` — concurrent service runtime (workers, admission
  control, caches, sessions, metrics)
- :mod:`repro.obs` — observability (hierarchical tracing, metrics
  registry, exporters, profiling hooks)
- :mod:`repro.store` — durable multi-graph catalog (append-only edit
  log, deterministic snapshots, incremental ANN index maintenance)
"""

from .config import (
    ChatGraphConfig,
    FinetuneConfig,
    LLMConfig,
    RetrievalConfig,
    SequencerConfig,
    ServeConfig,
)
from .core.chatgraph import ChatGraph, ChatResponse
from .core.session import ChatSession
from .errors import ChatGraphError
from .serve.engine import ChatGraphServer, ServeRequest, ServeResponse
from .store.catalog import GraphCatalog

__version__ = "1.0.0"

__all__ = [
    "ChatGraph",
    "ChatGraphConfig",
    "ChatGraphServer",
    "ChatResponse",
    "ChatSession",
    "ChatGraphError",
    "RetrievalConfig",
    "SequencerConfig",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "FinetuneConfig",
    "GraphCatalog",
    "LLMConfig",
    "__version__",
]
