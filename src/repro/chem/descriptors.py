"""Molecular descriptors (additive atom/fragment contributions).

These are classical cheminformatics descriptors computed directly from
the molecular graph: exact formula/weight, and additive estimates of
logP (Crippen-style atom classes) and TPSA (Ertl-style fragment
contributions, simplified).  They drive the simulated property models
in :mod:`repro.chem.properties`.
"""

from __future__ import annotations

from collections import Counter

from .elements import ELEMENTS
from .molecule import Molecule

#: Crippen-style atomic logP contributions (simplified class table).
_LOGP_CONTRIB = {
    "C_aromatic": 0.29,
    "C_aliphatic": 0.14,
    "N_aromatic": -0.25,
    "N_aliphatic": -0.60,
    "O": -0.45,
    "S": 0.25,
    "P": -0.30,
    "F": 0.22,
    "Cl": 0.65,
    "Br": 0.86,
    "I": 1.10,
    "other": 0.0,
    "H": 0.11,
}

#: Ertl-style polar-surface contributions (A^2), simplified.
_TPSA_CONTRIB = {
    ("N", 0): 12.0,   # amine-like N with H
    ("N", 1): 3.2,    # substituted N
    ("O", 0): 20.2,   # hydroxyl-like O with H
    ("O", 1): 9.2,    # ether/carbonyl O
    ("S", 1): 25.3,
    ("P", 1): 13.6,
}


def molecular_formula(mol: Molecule) -> str:
    """Hill-order molecular formula, e.g. ``C9H8O4`` for aspirin."""
    counts: Counter = Counter(atom.element for atom in mol.atoms)
    counts["H"] += mol.total_hydrogens()
    parts: list[str] = []
    for symbol in ("C", "H"):
        if counts.get(symbol):
            count = counts.pop(symbol)
            parts.append(symbol if count == 1 else f"{symbol}{count}")
    for symbol in sorted(counts):
        if counts[symbol]:
            count = counts[symbol]
            parts.append(symbol if count == 1 else f"{symbol}{count}")
    return "".join(parts)


def molecular_weight(mol: Molecule) -> float:
    """Average molecular weight in g/mol (implicit hydrogens included)."""
    weight = sum(ELEMENTS[atom.element].atomic_weight for atom in mol.atoms)
    weight += mol.total_hydrogens() * ELEMENTS["H"].atomic_weight
    return weight


def heavy_atom_count(mol: Molecule) -> int:
    """Number of non-hydrogen atoms."""
    return mol.n_atoms


def ring_count(mol: Molecule) -> int:
    """Number of independent rings (cyclomatic number)."""
    return mol.ring_count()


def h_bond_donors(mol: Molecule) -> int:
    """N-H / O-H donor count (Lipinski definition)."""
    return sum(1 for atom in mol.atoms
               if atom.element in ("N", "O")
               and mol.implicit_hydrogens(atom.index) > 0)


def h_bond_acceptors(mol: Molecule) -> int:
    """N / O acceptor count (Lipinski definition)."""
    return sum(1 for atom in mol.atoms if atom.element in ("N", "O"))


def rotatable_bonds(mol: Molecule) -> int:
    """Single, non-ring bonds between two non-terminal heavy atoms."""
    count = 0
    for bond, is_bridge in zip(mol.bonds, mol.rings().bridge):
        # a bond is a ring bond iff it is not a bridge
        if bond.order == 1.0 and is_bridge \
                and mol.degree(bond.u) >= 2 and mol.degree(bond.v) >= 2:
            count += 1
    return count


def logp(mol: Molecule) -> float:
    """Additive Crippen-style logP estimate."""
    total = 0.0
    for atom in mol.atoms:
        if atom.element == "C":
            key = "C_aromatic" if atom.aromatic else "C_aliphatic"
        elif atom.element == "N":
            key = "N_aromatic" if atom.aromatic else "N_aliphatic"
        elif atom.element in _LOGP_CONTRIB:
            key = atom.element
        else:
            key = "other"
        total += _LOGP_CONTRIB[key]
    total += mol.total_hydrogens() * _LOGP_CONTRIB["H"]
    return total


def tpsa(mol: Molecule) -> float:
    """Topological polar surface area estimate (A^2)."""
    total = 0.0
    for atom in mol.atoms:
        if atom.element not in ("N", "O", "S", "P"):
            continue
        has_h = 0 if mol.implicit_hydrogens(atom.index) > 0 else 1
        key = (atom.element, has_h)
        if key in _TPSA_CONTRIB:
            total += _TPSA_CONTRIB[key]
        elif (atom.element, 1) in _TPSA_CONTRIB:
            total += _TPSA_CONTRIB[(atom.element, 1)]
    return total


def descriptor_profile(mol: Molecule) -> dict[str, float | int | str]:
    """Every descriptor in one dict (the ``describe_molecule`` API)."""
    return {
        "formula": molecular_formula(mol),
        "molecular_weight": round(molecular_weight(mol), 3),
        "heavy_atoms": heavy_atom_count(mol),
        "rings": ring_count(mol),
        "h_bond_donors": h_bond_donors(mol),
        "h_bond_acceptors": h_bond_acceptors(mol),
        "rotatable_bonds": rotatable_bonds(mol),
        "logp": round(logp(mol), 3),
        "tpsa": round(tpsa(mol), 2),
    }
