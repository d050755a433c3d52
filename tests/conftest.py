"""Shared fixtures: registries, graphs, and a pretrained ChatGraph."""

from __future__ import annotations

import pytest

from repro import ChatGraph
from repro.apis import default_registry
from repro.chem import MoleculeDatabase
from repro.graphs import (
    er_graph,
    knowledge_graph,
    molecule_like_graph,
    social_network,
)


@pytest.fixture(scope="session")
def registry():
    """The full API catalog (shared; tests must not mutate it)."""
    return default_registry()


@pytest.fixture(scope="session")
def molecule_db():
    return MoleculeDatabase.builtin()


@pytest.fixture(scope="session")
def chatgraph():
    """A pretrained ChatGraph (shared; tests must not re-finetune it)."""
    return ChatGraph.pretrained(corpus_size=600, seed=0)


@pytest.fixture()
def social_graph():
    return social_network(40, 4, p_in=0.3, p_out=0.02, seed=1)


@pytest.fixture()
def kg_graph():
    return knowledge_graph(n_entities=40, n_facts=150, seed=3)


@pytest.fixture()
def molecule_graph():
    return molecule_like_graph(n_rings=2, chain_length=3, seed=0)


@pytest.fixture()
def random_graph():
    return er_graph(30, 0.12, seed=7)


@pytest.fixture()
def loopback():
    """Shard workers spawned under this fixture run on threads of this
    process (see ``tests/shard_loopback.py``)."""
    from .shard_loopback import loopback_links

    with loopback_links():
        yield
