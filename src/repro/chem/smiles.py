"""A SMILES-lite parser and writer.

Supported grammar (enough for common drug-like molecules):

* organic-subset atoms ``B C N O P S F Cl Br I`` and their aromatic
  lowercase forms ``b c n o p s``;
* bracket atoms ``[Na+]``, ``[NH4+]``, ``[O-]``, ``[nH]`` with charge
  and explicit hydrogen counts;
* bonds ``-``, ``=``, ``#`` and implicit single/aromatic bonds;
* branches with parentheses and ring-closure digits (``%nn`` included).

Unsupported: stereochemistry (``/ \\ @``), isotopes, wildcards — the
parser raises :class:`SmilesError` on them rather than mis-parsing.
"""

from __future__ import annotations

from ..errors import SmilesError
from .elements import ELEMENTS
from .molecule import Molecule

_ORGANIC_TWO = ("Cl", "Br")
_ORGANIC_ONE = ("B", "C", "N", "O", "P", "S", "F", "I")
_AROMATIC = ("b", "c", "n", "o", "p", "s")
_BOND_ORDERS = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5}


def parse_smiles(smiles: str, name: str = "") -> Molecule:
    """Parse ``smiles`` into a :class:`Molecule`.

    Example::

        mol = parse_smiles("CC(=O)O", name="acetic acid")
        assert mol.n_atoms == 4
    """
    text = smiles.strip()
    if not text:
        raise SmilesError(smiles, "empty string")
    mol = Molecule(name=name, smiles=text)
    prev_atom: int | None = None
    pending_bond: float | None = None
    branch_stack: list[int | None] = []
    ring_bonds: dict[int, tuple[int, float | None]] = {}
    i = 0
    n = len(text)

    def attach(atom_index: int) -> None:
        nonlocal prev_atom, pending_bond
        if prev_atom is not None:
            order = pending_bond
            if order is None:
                both_aromatic = (mol.atoms[prev_atom].aromatic
                                 and mol.atoms[atom_index].aromatic)
                order = 1.5 if both_aromatic else 1.0
            mol.add_bond(prev_atom, atom_index, order)
        prev_atom = atom_index
        pending_bond = None

    while i < n:
        ch = text[i]
        if ch in _BOND_ORDERS:
            if pending_bond is not None:
                raise SmilesError(smiles, f"double bond symbol at {i}")
            pending_bond = _BOND_ORDERS[ch]
            i += 1
        elif ch == "(":
            if prev_atom is None:
                raise SmilesError(smiles, "branch before any atom")
            branch_stack.append(prev_atom)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesError(smiles, "unbalanced ')'")
            prev_atom = branch_stack.pop()
            i += 1
        elif ch == "[":
            end = text.find("]", i)
            if end < 0:
                raise SmilesError(smiles, "unclosed bracket atom")
            atom_index = _parse_bracket(mol, smiles, text[i + 1:end])
            attach(atom_index)
            i = end + 1
        elif ch.isdigit() or ch == "%":
            if ch == "%":
                if i + 2 >= n or not text[i + 1:i + 3].isdigit():
                    raise SmilesError(smiles, f"bad %ring closure at {i}")
                ring_id = int(text[i + 1:i + 3])
                i += 3
            else:
                ring_id = int(ch)
                i += 1
            if prev_atom is None:
                raise SmilesError(smiles, "ring closure before any atom")
            if ring_id in ring_bonds:
                other, opening_bond = ring_bonds.pop(ring_id)
                if other == prev_atom:
                    raise SmilesError(
                        smiles, f"ring closure {ring_id} onto its own atom")
                if any(atom == other
                       for atom, __ in mol.neighbors(prev_atom)):
                    raise SmilesError(
                        smiles,
                        f"ring closure {ring_id} onto an existing bond")
                order = pending_bond if pending_bond is not None \
                    else opening_bond
                if order is None:
                    both_aromatic = (mol.atoms[other].aromatic
                                     and mol.atoms[prev_atom].aromatic)
                    order = 1.5 if both_aromatic else 1.0
                mol.add_bond(other, prev_atom, order)
                pending_bond = None
            else:
                ring_bonds[ring_id] = (prev_atom, pending_bond)
                pending_bond = None
        elif text[i:i + 2] in _ORGANIC_TWO:
            attach(mol.add_atom(text[i:i + 2]))
            i += 2
        elif ch in _ORGANIC_ONE:
            attach(mol.add_atom(ch))
            i += 1
        elif ch in _AROMATIC:
            attach(mol.add_atom(ch.upper(), aromatic=True))
            i += 1
        elif ch == ".":
            # disconnected component separator
            prev_atom = None
            pending_bond = None
            i += 1
        else:
            raise SmilesError(smiles, f"unsupported character {ch!r} at {i}")

    if branch_stack:
        raise SmilesError(smiles, "unbalanced '('")
    if ring_bonds:
        raise SmilesError(smiles,
                          f"unclosed ring bonds {sorted(ring_bonds)}")
    if pending_bond is not None:
        raise SmilesError(smiles, "dangling bond symbol")
    if not mol.atoms:
        raise SmilesError(smiles, "no atoms")
    return mol


def _parse_bracket(mol: Molecule, smiles: str, body: str) -> int:
    """Parse the inside of ``[...]``: element, optional H count, charge."""
    if not body:
        raise SmilesError(smiles, "empty bracket atom")
    i = 0
    # element symbol (aromatic lowercase allowed)
    aromatic = False
    if body[i:i + 2] in ELEMENTS:
        element = body[i:i + 2]
        i += 2
    elif body[i].upper() in ELEMENTS and (len(body[i:]) < 2
                                          or body[i:i + 2] not in ELEMENTS):
        aromatic = body[i].islower()
        element = body[i].upper()
        i += 1
    else:
        raise SmilesError(smiles, f"bad bracket element in [{body}]")
    explicit_h = 0
    if i < len(body) and body[i] == "H":
        i += 1
        count = ""
        while i < len(body) and body[i].isdigit():
            count += body[i]
            i += 1
        explicit_h = int(count) if count else 1
    charge = 0
    while i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        i += 1
        count = ""
        while i < len(body) and body[i].isdigit():
            count += body[i]
            i += 1
        charge += sign * (int(count) if count else 1)
    if i != len(body):
        raise SmilesError(smiles, f"trailing junk in [{body}]")
    return mol.add_atom(element, aromatic=aromatic, charge=charge,
                        explicit_h=explicit_h)


def write_smiles(mol: Molecule) -> str:
    """Serialize a molecule back to SMILES (valid, not canonical).

    The output round-trips through :func:`parse_smiles` to an isomorphic
    molecule; atom order follows a DFS from atom 0.
    """
    if not mol.atoms:
        raise SmilesError("", "empty molecule")
    adjacency: dict[int, list[tuple[int, float]]] = {
        atom.index: [] for atom in mol.atoms}
    for bond in mol.bonds:
        adjacency[bond.u].append((bond.v, bond.order))
        adjacency[bond.v].append((bond.u, bond.order))

    visited: set[int] = set()
    ring_counter = [0]
    ring_labels: dict[frozenset[int], int] = {}
    # pre-pass: find back edges (DFS) to assign ring-closure digits
    back_edges: set[frozenset[int]] = set()

    def find_back_edges(start: int) -> None:
        # any spanning tree works for ring-closure assignment: every
        # non-tree edge of the component becomes one closure digit.
        parent: dict[int, int | None] = {start: None}
        queue = [start]
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for neighbor, __ in adjacency[node]:
                if neighbor not in parent:
                    parent[neighbor] = node
                    queue.append(neighbor)
        tree = {frozenset((child, par)) for child, par in parent.items()
                if par is not None}
        for node in parent:
            for neighbor, __ in adjacency[node]:
                key = frozenset((node, neighbor))
                if key not in tree:
                    back_edges.add(key)

    def atom_text(index: int) -> str:
        atom = mol.atoms[index]
        symbol = atom.element.lower() if atom.aromatic else atom.element
        plain_ok = (atom.charge == 0 and atom.explicit_h is None
                    and (atom.element in _ORGANIC_ONE
                         or atom.element in _ORGANIC_TWO))
        if plain_ok:
            return symbol
        h = atom.explicit_h if atom.explicit_h is not None else \
            mol.implicit_hydrogens(index)
        h_text = "" if h == 0 else ("H" if h == 1 else f"H{h}")
        if atom.charge == 0:
            charge_text = ""
        elif atom.charge > 0:
            charge_text = "+" * atom.charge if atom.charge <= 2 \
                else f"+{atom.charge}"
        else:
            charge_text = "-" * -atom.charge if atom.charge >= -2 \
                else f"-{-atom.charge}"
        return f"[{symbol}{h_text}{charge_text}]"

    def bond_text(order: float, u: int, v: int) -> str:
        if order == 2.0:
            return "="
        if order == 3.0:
            return "#"
        return ""  # single and aromatic bonds are implicit

    def walk(node: int) -> str:
        visited.add(node)
        out = [atom_text(node)]
        # ring closures at this atom
        for neighbor, order in adjacency[node]:
            key = frozenset((node, neighbor))
            if key in back_edges:
                if key not in ring_labels:
                    ring_counter[0] += 1
                    ring_labels[key] = ring_counter[0]
                label = ring_labels[key]
                digit = str(label) if label < 10 else f"%{label:02d}"
                out.append(bond_text(order, node, neighbor) + digit)
        children = [(neighbor, order) for neighbor, order in adjacency[node]
                    if neighbor not in visited
                    and frozenset((node, neighbor)) not in back_edges]
        for position, (neighbor, order) in enumerate(children):
            # re-check: an earlier child may have visited this neighbor
            if neighbor in visited:
                continue
            body = bond_text(order, node, neighbor) + walk(neighbor)
            is_last = all(nb in visited for nb, __ in children[position + 1:])
            if is_last:
                out.append(body)
            else:
                out.append(f"({body})")
        return "".join(out)

    parts = []
    for atom in mol.atoms:
        if atom.index not in visited:
            find_back_edges(atom.index)
            parts.append(walk(atom.index))
    return ".".join(parts)
