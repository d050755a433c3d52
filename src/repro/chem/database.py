"""A searchable molecule database (the scenario-2 similarity target).

The built-in library contains common, well-known compounds expressed in
the SMILES-lite dialect.  Similarity search supports two rankers:

* ``"wl"`` — Weisfeiler-Leman kernel on element-labeled graphs (fast
  pre-filter, default);
* ``"ged"`` — graph edit distance re-ranking of the WL shortlist (what
  the paper's similarity-search API reports).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ChatGraphError
from ..algorithms.ged import graph_edit_distance
from ..graphs.graph import Graph
from ..algorithms.similarity import (
    wl_histogram_similarity,
    wl_histograms,
)
from .molecule import Molecule
from .smiles import parse_smiles

#: name -> SMILES for the built-in library.
BUILTIN_LIBRARY: dict[str, str] = {
    "methane": "C",
    "ethanol": "CCO",
    "acetic_acid": "CC(=O)O",
    "propane": "CCC",
    "butane": "CCCC",
    "isobutane": "CC(C)C",
    "benzene": "c1ccccc1",
    "toluene": "Cc1ccccc1",
    "phenol": "Oc1ccccc1",
    "aniline": "Nc1ccccc1",
    "styrene": "C=Cc1ccccc1",
    "naphthalene": "c1ccc2ccccc2c1",
    "pyridine": "c1ccncc1",
    "pyrrole": "c1cc[nH]c1",
    "furan": "c1ccoc1",
    "thiophene": "c1ccsc1",
    "imidazole": "c1c[nH]cn1",
    "aspirin": "CC(=O)Oc1ccccc1C(=O)O",
    "paracetamol": "CC(=O)Nc1ccc(O)cc1",
    "ibuprofen": "CC(C)Cc1ccc(cc1)C(C)C(=O)O",
    "salicylic_acid": "OC(=O)c1ccccc1O",
    "benzoic_acid": "OC(=O)c1ccccc1",
    "caffeine": "Cn1cnc2c1c(=O)n(C)c(=O)n2C",
    "theobromine": "Cn1cnc2c1c(=O)[nH]c(=O)n2C",
    "nicotine": "CN1CCCC1c1cccnc1",
    "glucose": "OCC1OC(O)C(O)C(O)C1O",
    "glycine": "NCC(=O)O",
    "alanine": "CC(N)C(=O)O",
    "urea": "NC(=O)N",
    "acetone": "CC(=O)C",
    "formaldehyde": "C=O",
    "chloroform": "ClC(Cl)Cl",
    "ddt_like": "Clc1ccc(cc1)C(c1ccc(Cl)cc1)C(Cl)(Cl)Cl",
    "nitrobenzene": "c1ccccc1N(=O)=O",
    "tnt_like": "Cc1c(N(=O)=O)cc(N(=O)=O)cc1N(=O)=O",
    "cyclohexane": "C1CCCCC1",
    "cyclohexanol": "OC1CCCCC1",
    "adrenaline": "CNCC(O)c1ccc(O)c(O)c1",
    "dopamine": "NCCc1ccc(O)c(O)c1",
    "serotonin": "NCCc1c[nH]c2ccc(O)cc12",
    "citric_acid": "OC(=O)CC(O)(C(=O)O)CC(=O)O",
    "oxalic_acid": "OC(=O)C(=O)O",
}


@dataclass(frozen=True)
class SimilarityHit:
    """One similarity-search result."""

    name: str
    smiles: str
    #: Similarity in [0, 1]; for GED ranking, ``1 / (1 + distance)``.
    score: float
    method: str


class MoleculeDatabase:
    """A name-indexed molecule collection with similarity search.

    Example::

        db = MoleculeDatabase.builtin()
        hits = db.similarity_search(parse_smiles("Cc1ccccc1O"), k=2)
    """

    def __init__(self) -> None:
        self._molecules: dict[str, Molecule] = {}
        # each entry's graph and WL histograms, built on first search:
        # entries are never replaced, so neither goes stale
        self._graph_cache: dict[str, Graph] = {}
        self._wl_cache: dict[str, object] = {}
        # canonical-SMILES -> name, rebuilt lazily when entries change
        self._canonical_cache: dict[str, str] = {}

    @classmethod
    def builtin(cls) -> "MoleculeDatabase":
        """Database seeded with :data:`BUILTIN_LIBRARY`."""
        db = cls()
        for name, smiles in BUILTIN_LIBRARY.items():
            db.add(name, smiles)
        return db

    def add(self, name: str, smiles: str) -> Molecule:
        if name in self._molecules:
            raise ChatGraphError(f"molecule {name!r} already in database")
        mol = parse_smiles(smiles, name=name)
        self._molecules[name] = mol
        return mol

    def add_molecule(self, mol: Molecule, name: str | None = None
                     ) -> Molecule:
        """Add an already-built molecule (e.g. a generated one)."""
        key = name or mol.name
        if not key:
            raise ChatGraphError("molecule needs a name")
        if key in self._molecules:
            raise ChatGraphError(f"molecule {key!r} already in database")
        self._molecules[key] = mol
        return mol

    def get(self, name: str) -> Molecule:
        try:
            return self._molecules[name]
        except KeyError:
            raise ChatGraphError(f"no molecule named {name!r}") from None

    def names(self) -> list[str]:
        return list(self._molecules)

    def __len__(self) -> int:
        return len(self._molecules)

    def __contains__(self, name: object) -> bool:
        return name in self._molecules

    def lookup(self, query: Molecule) -> str | None:
        """Exact-identity lookup by canonical SMILES.

        Returns the name of the database molecule identical to ``query``
        (after aromaticity perception), or None.  Canonical forms are
        computed lazily and cached.
        """
        from .canonical import canonical_smiles, perceive_aromaticity
        key = canonical_smiles(perceive_aromaticity(query))
        if len(self._canonical_cache) != len(self._molecules):
            self._canonical_cache = {
                canonical_smiles(perceive_aromaticity(mol)): name
                for name, mol in self._molecules.items()}
        return self._canonical_cache.get(key)

    def _graph(self, name: str) -> Graph:
        graph = self._graph_cache.get(name)
        if graph is None:
            graph = self._graph_cache[name] = self._molecules[name].to_graph()
        return graph

    def similarity_search(self, query: Molecule, k: int = 2,
                          method: str = "wl",
                          shortlist: int = 10) -> list[SimilarityHit]:
        """Top-``k`` most similar molecules to ``query``.

        ``method="wl"`` ranks by the WL kernel; ``method="ged"`` reranks
        the top-``shortlist`` WL candidates by graph edit distance.
        """
        if method not in ("wl", "ged"):
            raise ChatGraphError(f"unknown similarity method {method!r}")
        query_graph = query.to_graph()
        query_hist = wl_histograms(query_graph)
        scored: list[tuple[float, str]] = []
        for name in self._molecules:
            hist = self._wl_cache.get(name)
            if hist is None:
                hist = wl_histograms(self._graph(name))
                self._wl_cache[name] = hist
            sim = wl_histogram_similarity(query_hist, hist)
            scored.append((sim, name))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        if method == "wl":
            return [SimilarityHit(name, self._molecules[name].smiles,
                                  round(sim, 6), "wl")
                    for sim, name in scored[:k]]
        reranked: list[tuple[float, str]] = []
        for __, name in scored[:max(shortlist, k)]:
            ged = graph_edit_distance(query_graph, self._graph(name))
            reranked.append((1.0 / (1.0 + ged.cost), name))
        reranked.sort(key=lambda pair: (-pair[0], pair[1]))
        return [SimilarityHit(name, self._molecules[name].smiles,
                              round(score, 6), "ged")
                for score, name in reranked[:k]]
