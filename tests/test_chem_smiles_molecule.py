"""Tests for the SMILES-lite parser/writer and the Molecule type."""

import pytest

from repro.algorithms import is_isomorphic
from repro.chem import (
    BUILTIN_LIBRARY,
    Molecule,
    parse_smiles,
    random_molecule,
    write_smiles,
)
from repro.errors import SmilesError


def element_label(graph, node):
    return graph.get_node_attr(node, "element")


class TestParser:
    def test_linear_alkane(self):
        mol = parse_smiles("CCC")
        assert mol.n_atoms == 3
        assert mol.n_bonds == 2
        assert all(atom.element == "C" for atom in mol.atoms)

    def test_double_and_triple_bonds(self):
        assert parse_smiles("C=O").bonds[0].order == 2.0
        assert parse_smiles("C#N").bonds[0].order == 3.0

    def test_branching(self):
        mol = parse_smiles("CC(C)C")  # isobutane
        degrees = sorted(len(mol.neighbors(i)) for i in range(4))
        assert degrees == [1, 1, 1, 3]

    def test_ring_closure(self):
        mol = parse_smiles("C1CCCCC1")
        assert mol.n_atoms == 6
        assert mol.n_bonds == 6
        assert mol.ring_count() == 1

    def test_aromatic_ring(self):
        mol = parse_smiles("c1ccccc1")
        assert all(atom.aromatic for atom in mol.atoms)
        assert all(bond.order == 1.5 for bond in mol.bonds)

    def test_two_letter_elements(self):
        mol = parse_smiles("ClCCl")
        assert [a.element for a in mol.atoms] == ["Cl", "C", "Cl"]

    def test_bracket_atom_charge_h(self):
        mol = parse_smiles("[NH4+]")
        atom = mol.atoms[0]
        assert atom.element == "N"
        assert atom.charge == 1
        assert atom.explicit_h == 4

    def test_bracket_negative(self):
        assert parse_smiles("[O-]").atoms[0].charge == -1

    def test_bracket_aromatic_nh(self):
        mol = parse_smiles("c1cc[nH]c1")
        n = [a for a in mol.atoms if a.element == "N"][0]
        assert n.aromatic and n.explicit_h == 1

    def test_disconnected_components(self):
        mol = parse_smiles("C.C")
        assert mol.n_atoms == 2
        assert mol.n_bonds == 0
        assert not mol.is_connected()

    def test_percent_ring_closure(self):
        mol = parse_smiles("C%11CC%11")
        assert mol.ring_count() == 1

    @pytest.mark.parametrize("bad", [
        "", "C(", "C)", "C1CC", "[X]", "C=", "C==C", "C@", "[]", "1CC",
    ])
    def test_malformed_raises(self, bad):
        with pytest.raises(SmilesError):
            parse_smiles(bad)

    @pytest.mark.parametrize("bad,why", [
        ("C1C1", "existing bond"), ("C1=C1", "existing bond"),
        ("CC1C1", "existing bond"), ("C12CC12", "existing bond"),
        ("C11", "own atom"), ("C%11%11", "own atom"),
    ])
    def test_ring_closure_must_add_a_new_bond(self, bad, why):
        # a closure onto a bonded pair would be a second bond between
        # them, and one onto its own atom a self-loop
        with pytest.raises(SmilesError, match=why):
            parse_smiles(bad)

    @pytest.mark.parametrize("smiles,atoms,bonds,rings", [
        ("C1CC1", 3, 3, 1), ("C12CC1C2", 4, 5, 2), ("C1CC2CC1C2", 6, 7, 2),
        ("C1CCCCC1C1CC1", 9, 10, 2), ("c1ccccc1", 6, 6, 1),
    ])
    def test_valid_ring_closures_still_parse(self, smiles, atoms, bonds,
                                             rings):
        mol = parse_smiles(smiles)
        assert (mol.n_atoms, mol.n_bonds, mol.ring_count()) == (
            atoms, bonds, rings)
        pairs = [frozenset((bond.u, bond.v)) for bond in mol.bonds]
        assert len(set(pairs)) == len(pairs)


class TestWriter:
    @pytest.mark.parametrize("name", sorted(BUILTIN_LIBRARY))
    def test_roundtrip_builtin(self, name):
        mol = parse_smiles(BUILTIN_LIBRARY[name], name=name)
        text = write_smiles(mol)
        mol2 = parse_smiles(text)
        assert mol2.n_atoms == mol.n_atoms
        assert mol2.n_bonds == mol.n_bonds
        assert is_isomorphic(mol.to_graph(), mol2.to_graph(),
                             node_label=element_label)

    def test_empty_molecule_raises(self):
        with pytest.raises(SmilesError):
            write_smiles(Molecule())

    def test_charge_preserved(self):
        mol = parse_smiles("[NH4+]")
        assert parse_smiles(write_smiles(mol)).atoms[0].charge == 1


class TestMolecule:
    def test_implicit_hydrogens_methane(self):
        mol = parse_smiles("C")
        assert mol.implicit_hydrogens(0) == 4
        assert mol.total_hydrogens() == 4

    def test_implicit_hydrogens_water_like(self):
        assert parse_smiles("O").implicit_hydrogens(0) == 2

    def test_implicit_hydrogens_benzene(self):
        mol = parse_smiles("c1ccccc1")
        assert all(mol.implicit_hydrogens(i) == 1 for i in range(6))

    def test_bond_order_sum(self):
        mol = parse_smiles("C=O")
        assert mol.bond_order_sum(0) == 2.0

    def test_ring_membership(self):
        mol = parse_smiles("C1CCCCC1CC")  # cyclohexane + ethyl tail
        members = mol.ring_membership()
        assert len(members) == 6

    def test_to_graph_attrs(self):
        mol = parse_smiles("CO")
        graph = mol.to_graph()
        assert graph.get_node_attr(0, "element") == "C"
        assert graph.get_node_attr(1, "element") == "O"
        assert graph.get_node_attr(0, "kind") == "atom"
        assert graph.get_edge_attr(0, 1, "order") == 1.0

    def test_bad_bond_rejected(self):
        mol = Molecule()
        mol.add_atom("C")
        with pytest.raises(SmilesError):
            mol.add_bond(0, 0)
        with pytest.raises(SmilesError):
            mol.add_bond(0, 5)

    def test_unknown_element_rejected(self):
        with pytest.raises(SmilesError):
            Molecule().add_atom("Xx")


class TestRandomMolecule:
    def test_valence_respected(self):
        from repro.chem.elements import ELEMENTS
        for seed in range(20):
            mol = random_molecule(n_atoms=15, n_rings=2, seed=seed)
            for atom in mol.atoms:
                valence = ELEMENTS[atom.element].valence
                assert mol.bond_order_sum(atom.index) <= valence + 1e-9

    def test_connected(self):
        for seed in range(10):
            assert random_molecule(10, 1, seed=seed).is_connected()

    def test_writable(self):
        for seed in range(10):
            mol = random_molecule(12, 2, seed=seed)
            text = write_smiles(mol)
            back = parse_smiles(text)
            assert back.n_atoms == mol.n_atoms

    def test_deterministic(self):
        a = write_smiles(random_molecule(10, 1, seed=5))
        b = write_smiles(random_molecule(10, 1, seed=5))
        assert a == b

    def test_bad_size(self):
        with pytest.raises(ValueError):
            random_molecule(0)
