"""Molecule graphs: atoms, bonds, rings and implicit hydrogens.

A :class:`Molecule` keeps one adjacency index (per atom, its
``(neighbour, order)`` pairs in bond order) beside its bond list, so a
neighbourhood costs its degree, and one :class:`RingPerception` of its
bonds, taken on first use and dropped when a bond or an atom is added.
Every descriptor, property and alert reads those two; none builds a
:class:`~repro.graphs.graph.Graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SmilesError
from ..graphs.graph import Graph
from .elements import ELEMENTS


@dataclass
class Atom:
    """One heavy atom."""

    index: int
    element: str
    aromatic: bool = False
    charge: int = 0
    #: Explicit hydrogen count from bracket atoms; None = implicit.
    explicit_h: int | None = None


@dataclass(frozen=True)
class Bond:
    """A bond between two atom indexes."""

    u: int
    v: int
    #: 1, 2, 3 or 1.5 (aromatic).
    order: float = 1.0


@dataclass(frozen=True)
class RingPerception:
    """Bridges, ring atoms and components of a molecule's bonds.

    One iterative low-point DFS over the adjacency index (Hopcroft-
    Tarjan, as :func:`repro.algorithms.components.bridges`).  A bond is
    a ring bond iff it is not a bridge; repeated bonds between one atom
    pair count as one edge, as in :meth:`Molecule.to_graph`.
    """

    #: Per bond (in ``Molecule.bonds`` order): is it a bridge?
    bridge: tuple[bool, ...]
    #: Atoms on at least one ring bond.
    atoms: frozenset[int]
    #: Number of connected components (0 for no atoms).
    components: int

    @classmethod
    def of(cls, mol: Molecule) -> RingPerception:
        adjacency = mol._adjacency
        n = len(adjacency)
        disc = [-1] * n
        low = [0] * n
        bridges: set[tuple[int, int]] = set()
        components = 0
        timer = 0
        for root in range(n):
            if disc[root] >= 0:
                continue
            components += 1
            disc[root] = low[root] = timer
            timer += 1
            # (atom, parent, next position in its adjacency)
            work = [(root, -1, 0)]
            while work:
                node, parent, position = work[-1]
                pairs = adjacency[node]
                while position < len(pairs):
                    neighbor = pairs[position][0]
                    position += 1
                    if disc[neighbor] < 0:
                        break
                    if neighbor != parent and disc[neighbor] < low[node]:
                        low[node] = disc[neighbor]
                else:
                    work.pop()
                    if parent >= 0:
                        if low[node] < low[parent]:
                            low[parent] = low[node]
                        if low[node] > disc[parent]:
                            bridges.add((parent, node))
                            bridges.add((node, parent))
                    continue
                work[-1] = (node, parent, position)
                disc[neighbor] = low[neighbor] = timer
                timer += 1
                work.append((neighbor, node, 0))
        bridge = tuple((bond.u, bond.v) in bridges for bond in mol.bonds)
        atoms = frozenset(
            end for bond, is_bridge in zip(mol.bonds, bridge)
            if not is_bridge for end in (bond.u, bond.v))
        return cls(bridge=bridge, atoms=atoms, components=components)


@dataclass
class Molecule:
    """A molecule: atoms plus bonds, with graph and chemistry views.

    Build via :func:`repro.chem.smiles.parse_smiles`; the class itself is
    representation-only and does not validate chemistry beyond valences.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    name: str = ""
    smiles: str = ""
    #: Per atom, its ``(neighbour, order)`` pairs in bond order; kept by
    #: :meth:`add_atom` / :meth:`add_bond`, the only writers of topology.
    _adjacency: list[list[tuple[int, float]]] = field(
        init=False, repr=False, compare=False)
    _rings: RingPerception | None = field(
        init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._adjacency = [[] for __ in self.atoms]
        for bond in self.bonds:
            self._adjacency[bond.u].append((bond.v, bond.order))
            self._adjacency[bond.v].append((bond.u, bond.order))

    # ------------------------------------------------------------------
    # construction helpers (used by the parser)
    # ------------------------------------------------------------------
    def add_atom(self, element: str, aromatic: bool = False,
                 charge: int = 0, explicit_h: int | None = None) -> int:
        if element not in ELEMENTS:
            raise SmilesError(self.smiles or element,
                              f"unknown element {element!r}")
        atom = Atom(index=len(self.atoms), element=element,
                    aromatic=aromatic, charge=charge, explicit_h=explicit_h)
        self.atoms.append(atom)
        self._adjacency.append([])
        self._rings = None
        return atom.index

    def add_bond(self, u: int, v: int, order: float = 1.0) -> None:
        if u == v or not (0 <= u < len(self.atoms)) \
                or not (0 <= v < len(self.atoms)):
            raise SmilesError(self.smiles, f"bad bond ({u}, {v})")
        self.bonds.append(Bond(u, v, order))
        self._adjacency[u].append((v, order))
        self._adjacency[v].append((u, order))
        self._rings = None

    # ------------------------------------------------------------------
    # chemistry
    # ------------------------------------------------------------------
    def neighbors(self, index: int) -> list[tuple[int, float]]:
        """(neighbor index, bond order) pairs of atom ``index``, in the
        order its bonds were added."""
        return list(self._adjacency[index])

    def degree(self, index: int) -> int:
        """Number of bonds at atom ``index``."""
        return len(self._adjacency[index])

    def bond_order_sum(self, index: int) -> float:
        """Sum of bond orders at an atom (aromatic counts 1.5)."""
        return sum(order for __, order in self._adjacency[index])

    def implicit_hydrogens(self, index: int) -> int:
        """Implicit H count = default valence - bonds - |charge| effects."""
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

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def ring_count(self) -> int:
        """Cyclomatic number (number of independent rings)."""
        return self.n_bonds - self.n_atoms + self.rings().components

    def ring_membership(self) -> set[int]:
        """Indexes of atoms belonging to at least one ring.

        An edge is a ring edge iff it is not a bridge.
        """
        return set(self.rings().atoms)

    def rings(self) -> RingPerception:
        """The ring perception of the current bonds (memoised)."""
        rings = self._rings
        if rings is None:
            rings = self._rings = RingPerception.of(self)
        return rings

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def to_graph(self) -> Graph:
        """Property-graph view (nodes carry ``element``/``kind`` attrs)."""
        graph = Graph(name=self.name or "molecule")
        for atom in self.atoms:
            graph.add_node(atom.index, kind="atom", element=atom.element,
                           label=atom.element, aromatic=atom.aromatic,
                           charge=atom.charge)
        for bond in self.bonds:
            graph.add_edge(bond.u, bond.v, order=bond.order)
        return graph

    def is_connected(self) -> bool:
        return self.rings().components == 1

    def __repr__(self) -> str:
        label = self.name or self.smiles or "?"
        return (f"<Molecule {label}: {self.n_atoms} atoms, "
                f"{self.n_bonds} bonds>")
