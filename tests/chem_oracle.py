"""The molecule-plane bodies the adjacency index replaced, kept as oracles.

Verbatim from the commit before :class:`repro.chem.Molecule` kept one
adjacency index and one ring perception: ``neighbors`` scanning every
bond, ``ring_membership`` / ``ring_count`` / ``is_connected`` building
the object graph, ``rotatable_bonds`` running ``bridges`` once per
single bond between two ring atoms, ``approximate_ged`` reading labels
and degrees through the graph for every cell, and the ``hungarian``
body that tests ``used[j]`` over every column.
Two edits: the methods live on :class:`OracleMolecule`, a
:class:`~repro.chem.Molecule` subclass (so the unchanged descriptor
functions read them), and ``structural_alerts`` carries the
strained-heterocycle fix — it alerts only when a 3-ring itself holds O,
N or S — tested by brute force over atom triples instead of the motif
census.
``tests/test_chem_oracle.py`` requires the production bodies to return
*equal* values — same floats, same order, same ``repr`` — not close ones.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

from repro.algorithms.components import bridges, connected_components
from repro.algorithms.ged import (
    EPS,
    GedResult,
    LabelFn,
    _default_node_label,
    _mapping_cost,
    exact_ged,
)
from repro.algorithms.traversal import bfs_tree
from repro.chem import descriptors as prod_descriptors
from repro.chem.database import MoleculeDatabase, SimilarityHit
from repro.chem.molecule import Molecule
from repro.chem.properties import (
    PropertyPrediction,
    aromatic_proportion,
)
from repro.graphs.graph import Graph, Node

INF = float("inf")


class OracleMolecule(Molecule):
    """A molecule whose graph queries run the old bond-scanning bodies."""

    @classmethod
    def of(cls, mol: Molecule) -> "OracleMolecule":
        return cls(atoms=list(mol.atoms), bonds=list(mol.bonds),
                   name=mol.name, smiles=mol.smiles)

    def neighbors(self, index: int) -> list[tuple[int, float]]:
        """(neighbor index, bond order) pairs of atom ``index``."""
        out = []
        for bond in self.bonds:
            if bond.u == index:
                out.append((bond.v, bond.order))
            elif bond.v == index:
                out.append((bond.u, bond.order))
        return out

    def bond_order_sum(self, index: int) -> float:
        """Sum of bond orders at an atom (aromatic counts 1.5)."""
        return sum(order for __, order in self.neighbors(index))

    def implicit_hydrogens(self, index: int) -> int:
        """Implicit H count = default valence - bonds - |charge| effects."""
        from repro.chem.elements import ELEMENTS
        atom = self.atoms[index]
        if atom.explicit_h is not None:
            return atom.explicit_h
        valence = ELEMENTS[atom.element].valence + atom.charge
        used = self.bond_order_sum(index)
        if atom.aromatic:
            # aromatic atoms in a ring use one slot for the pi system
            used = round(used)
        return max(0, int(round(valence - used)))

    def total_hydrogens(self) -> int:
        return sum(self.implicit_hydrogens(i) for i in range(len(self.atoms)))

    def ring_count(self) -> int:
        """Cyclomatic number (number of independent rings)."""
        graph = self.to_graph()
        n_components = len(connected_components(graph)) if self.atoms else 0
        return self.n_bonds - self.n_atoms + n_components

    def ring_membership(self) -> set[int]:
        """Indexes of atoms belonging to at least one ring."""
        graph = self.to_graph()
        bridge_set = {frozenset(edge) for edge in bridges(graph)}
        members: set[int] = set()
        for bond in self.bonds:
            if frozenset((bond.u, bond.v)) not in bridge_set:
                members.update((bond.u, bond.v))
        return members

    def is_connected(self) -> bool:
        if not self.atoms:
            return False
        graph = self.to_graph()
        return len(bfs_tree(graph, 0)) + 1 == self.n_atoms


# ----------------------------------------------------------------------
# descriptors and properties
# ----------------------------------------------------------------------
def rotatable_bonds(mol: Molecule) -> int:
    """Single, non-ring bonds between two non-terminal heavy atoms."""
    ring_atoms = mol.ring_membership()
    degree: Counter = Counter()
    for bond in mol.bonds:
        degree[bond.u] += 1
        degree[bond.v] += 1
    count = 0
    for bond in mol.bonds:
        if bond.order != 1.0:
            continue
        if bond.u in ring_atoms and bond.v in ring_atoms:
            # conservative: skip bonds fully inside ring systems
            ring_bond = True
            bridge_set = {frozenset(e) for e in bridges(mol.to_graph())}
            ring_bond = frozenset((bond.u, bond.v)) not in bridge_set
            if ring_bond:
                continue
        if degree[bond.u] < 2 or degree[bond.v] < 2:
            continue
        count += 1
    return count


def structural_alerts(mol: Molecule) -> list[str]:
    """Simple structural-alert screen (toxicophore heuristics)."""
    alerts: list[str] = []
    for atom in mol.atoms:
        if atom.element != "N":
            continue
        oxygens = [(i, order) for i, order in mol.neighbors(atom.index)
                   if mol.atoms[i].element == "O"]
        if len(oxygens) >= 2 and any(order >= 2.0 for __, order in oxygens):
            alerts.append("nitro group")
            break
    for atom in mol.atoms:
        if atom.element == "N" and not atom.aromatic:
            if any(mol.atoms[i].aromatic for i, __ in
                   mol.neighbors(atom.index)):
                alerts.append("aromatic amine")
                break
    halogens = sum(1 for atom in mol.atoms
                   if atom.element in ("F", "Cl", "Br", "I"))
    if halogens >= 3:
        alerts.append(f"high halogen load ({halogens})")
    graph = mol.to_graph()
    for trio in itertools.combinations(graph.nodes(), 3):
        a, b, c = trio
        if graph.has_edge(a, b) and graph.has_edge(b, c) \
                and graph.has_edge(a, c) \
                and any(mol.atoms[i].element in ("O", "N", "S")
                        for i in trio):
            alerts.append("strained heterocycle")
            break
    return alerts


def descriptor_profile(mol: Molecule) -> dict[str, float | int | str]:
    return {
        "formula": prod_descriptors.molecular_formula(mol),
        "molecular_weight": round(prod_descriptors.molecular_weight(mol), 3),
        "heavy_atoms": prod_descriptors.heavy_atom_count(mol),
        "rings": prod_descriptors.ring_count(mol),
        "h_bond_donors": prod_descriptors.h_bond_donors(mol),
        "h_bond_acceptors": prod_descriptors.h_bond_acceptors(mol),
        "rotatable_bonds": rotatable_bonds(mol),
        "logp": round(prod_descriptors.logp(mol), 3),
        "tpsa": round(prod_descriptors.tpsa(mol), 2),
    }


def predict_solubility(mol: Molecule) -> PropertyPrediction:
    clogp = prod_descriptors.logp(mol)
    mw = prod_descriptors.molecular_weight(mol)
    rb = rotatable_bonds(mol)
    ap = aromatic_proportion(mol)
    log_s = 0.16 - 0.63 * clogp - 0.0062 * mw + 0.066 * rb - 0.74 * ap
    if log_s > -2:
        klass = "soluble"
    elif log_s > -4:
        klass = "moderately soluble"
    else:
        klass = "poorly soluble"
    return PropertyPrediction(
        name="aqueous solubility (ESOL logS)",
        value=log_s,
        unit="log mol/L",
        rationale=(f"logP={clogp:.2f}", f"MW={mw:.1f}", klass),
    )


def predict_toxicity(mol: Molecule) -> PropertyPrediction:
    alerts = structural_alerts(mol)
    score = 2 * len(alerts)
    flags: list[str] = list(alerts)
    if prod_descriptors.molecular_weight(mol) > 500:
        score += 1
        flags.append("MW > 500")
    if prod_descriptors.logp(mol) > 5:
        score += 1
        flags.append("logP > 5")
    if prod_descriptors.h_bond_donors(mol) > 5:
        score += 1
        flags.append("HBD > 5")
    if prod_descriptors.h_bond_acceptors(mol) > 10:
        score += 1
        flags.append("HBA > 10")
    if score == 0:
        klass = "low"
    elif score <= 2:
        klass = "moderate"
    else:
        klass = "high"
    return PropertyPrediction(
        name="toxicity risk",
        value=klass,
        unit="",
        rationale=tuple(flags) or ("no structural alerts",),
    )


def druglikeness_summary(mol: Molecule) -> dict[str, object]:
    from repro.chem.properties import lipinski_violations
    return {
        "lipinski_violations": lipinski_violations(mol),
        "heavy_atoms": prod_descriptors.heavy_atom_count(mol),
        "rings": prod_descriptors.ring_count(mol),
        "alerts": structural_alerts(mol),
    }


# ----------------------------------------------------------------------
# similarity search
# ----------------------------------------------------------------------
def hungarian(cost: Sequence[Sequence[float]]) -> tuple[list[int], float]:
    """Solve the rectangular linear assignment problem."""
    n = len(cost)
    if n == 0:
        return [], 0.0
    m = len(cost[0])
    if any(len(row) != m for row in cost):
        raise ValueError("cost matrix must be rectangular")
    if n > m:
        transposed = [[cost[i][j] for i in range(n)] for j in range(m)]
        col_assign, total = hungarian(transposed)
        row_assign = [-1] * n
        for j, i in enumerate(col_assign):
            row_assign[i] = j
        return row_assign, total

    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [-1] * n
    for j in range(1, m + 1):
        if p[j] != 0:
            assignment[p[j] - 1] = j - 1
    total = sum(cost[i][assignment[i]] for i in range(n)
                if assignment[i] >= 0)
    return assignment, total


def approximate_ged(g1: Graph, g2: Graph,
                    node_label: LabelFn = _default_node_label) -> GedResult:
    """Riesen-Bunke bipartite GED upper bound (assignment on local costs)."""
    nodes1 = list(g1.nodes())
    nodes2 = list(g2.nodes())
    n1, n2 = len(nodes1), len(nodes2)
    size = n1 + n2
    if size == 0:
        return GedResult(cost=0.0, mapping={}, exact=True)
    big = 1e9
    cost = [[0.0] * size for __ in range(size)]
    for i, u in enumerate(nodes1):
        du = g1.degree(u)
        for j, v in enumerate(nodes2):
            sub = 0.0 if node_label(g1, u) == node_label(g2, v) else 1.0
            cost[i][j] = sub + abs(du - g2.degree(v)) / 2.0
        for j in range(n2, size):
            cost[i][j] = (1.0 + du / 2.0) if j - n2 == i else big
    for i in range(n1, size):
        for j, v in enumerate(nodes2):
            cost[i][j] = (1.0 + g2.degree(v) / 2.0) if i - n1 == j else big
        for j in range(n2, size):
            cost[i][j] = 0.0
    assignment, __ = hungarian(cost)
    mapping: dict[Node, Node | None] = {}
    for i, u in enumerate(nodes1):
        j = assignment[i]
        mapping[u] = nodes2[j] if j < n2 else EPS
    true_cost = _mapping_cost(g1, g2, mapping, node_label)
    return GedResult(cost=true_cost, mapping=mapping, exact=False)


def graph_edit_distance(g1: Graph, g2: Graph,
                        exact_threshold: int = 8) -> GedResult:
    """``graph_edit_distance`` over the oracle bipartite bound."""
    if (g1.number_of_nodes() <= exact_threshold
            and g2.number_of_nodes() <= exact_threshold):
        seed = approximate_ged(g1, g2)
        result = exact_ged(g1, g2, upper_bound=seed.cost + 1e-9)
        if result.cost <= seed.cost:
            return result
        return GedResult(seed.cost, seed.mapping, exact=True)
    return approximate_ged(g1, g2)


def similarity_search(db: MoleculeDatabase, query: Molecule, k: int = 2,
                      method: str = "wl",
                      shortlist: int = 10) -> list[SimilarityHit]:
    """``MoleculeDatabase.similarity_search``, one graph per GED re-rank."""
    from repro.algorithms.similarity import (
        wl_histogram_similarity,
        wl_histograms,
    )
    query_graph = query.to_graph()
    query_hist = wl_histograms(query_graph)
    scored: list[tuple[float, str]] = []
    for name in db.names():
        hist = wl_histograms(db.get(name).to_graph())
        scored.append((wl_histogram_similarity(query_hist, hist), name))
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    if method == "wl":
        return [SimilarityHit(name, db.get(name).smiles, round(sim, 6), "wl")
                for sim, name in scored[:k]]
    reranked: list[tuple[float, str]] = []
    for __, name in scored[:max(shortlist, k)]:
        ged = graph_edit_distance(query_graph, db.get(name).to_graph())
        reranked.append((1.0 / (1.0 + ged.cost), name))
    reranked.sort(key=lambda pair: (-pair[0], pair[1]))
    return [SimilarityHit(name, db.get(name).smiles, round(score, 6), "ged")
            for score, name in reranked[:k]]


def canonical_key(mol: Molecule) -> str:
    """Canonical SMILES after aromaticity perception, on oracle queries."""
    from repro.chem.canonical import canonical_smiles, perceive_aromaticity
    perceived = perceive_aromaticity(OracleMolecule.of(mol))
    return canonical_smiles(OracleMolecule.of(perceived))


def identify_molecule(db: MoleculeDatabase, table: dict[str, str],
                      mol: Molecule) -> dict[str, object]:
    """The ``identify_molecule`` API's reply; ``table`` maps
    :func:`canonical_key` of each database entry to its name."""
    canonical = canonical_key(mol)
    name = table.get(canonical)
    return {
        "known": name is not None,
        "name": name,
        "canonical_smiles": canonical,
        "formula": prod_descriptors.molecular_formula(OracleMolecule.of(mol)),
    }
