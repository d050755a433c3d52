"""Tests for molecular descriptors, property models and the database."""

import pytest

from repro.chem import (
    MoleculeDatabase,
    descriptor_profile,
    h_bond_acceptors,
    h_bond_donors,
    heavy_atom_count,
    logp,
    molecular_formula,
    molecular_weight,
    parse_smiles,
    predict_solubility,
    predict_toxicity,
    ring_count,
    rotatable_bonds,
    structural_alerts,
    tpsa,
)
from repro.chem.properties import druglikeness_summary, lipinski_violations
from repro.errors import ChatGraphError


class TestFormulaWeight:
    @pytest.mark.parametrize("smiles,formula,weight", [
        ("C", "CH4", 16.04),
        ("CCO", "C2H6O", 46.07),
        ("c1ccccc1", "C6H6", 78.11),
        ("CC(=O)Oc1ccccc1C(=O)O", "C9H8O4", 180.16),
        ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", "C8H10N4O2", 194.19),
        ("NC(=O)N", "CH4N2O", 60.06),
        ("ClC(Cl)Cl", "CHCl3", 119.37),
    ])
    def test_known_molecules(self, smiles, formula, weight):
        mol = parse_smiles(smiles)
        assert molecular_formula(mol) == formula
        assert molecular_weight(mol) == pytest.approx(weight, abs=0.1)

    def test_hill_order(self):
        # no carbon -> alphabetical
        assert molecular_formula(parse_smiles("O")) == "H2O"


class TestDescriptors:
    def test_heavy_atoms_and_rings(self):
        mol = parse_smiles("c1ccc2ccccc2c1")  # naphthalene
        assert heavy_atom_count(mol) == 10
        assert ring_count(mol) == 2

    def test_h_bond_donors_acceptors(self):
        mol = parse_smiles("CC(=O)Nc1ccc(O)cc1")  # paracetamol
        assert h_bond_donors(mol) == 2   # N-H, O-H
        assert h_bond_acceptors(mol) == 3  # N + 2 O

    def test_rotatable_bonds_ethane_zero(self):
        assert rotatable_bonds(parse_smiles("CC")) == 0

    def test_rotatable_bonds_butane(self):
        assert rotatable_bonds(parse_smiles("CCCC")) == 1

    def test_logp_hydrophobic_ranking(self):
        # longer alkane chains are more hydrophobic
        assert logp(parse_smiles("CCCCCC")) > logp(parse_smiles("CC"))
        # alcohols are less hydrophobic than alkanes
        assert logp(parse_smiles("CCO")) < logp(parse_smiles("CCC"))

    def test_tpsa_polar_molecules_higher(self):
        assert tpsa(parse_smiles("OCC(O)C(O)CO")) > \
            tpsa(parse_smiles("CCCCC"))
        assert tpsa(parse_smiles("CCCC")) == 0.0

    def test_profile_keys(self):
        profile = descriptor_profile(parse_smiles("CCO"))
        for key in ("formula", "molecular_weight", "logp", "tpsa",
                    "h_bond_donors", "h_bond_acceptors", "rings"):
            assert key in profile


class TestProperties:
    def test_solubility_ordering(self):
        sugar = predict_solubility(parse_smiles("OCC1OC(O)C(O)C(O)C1O"))
        grease = predict_solubility(parse_smiles("CCCCCCCCCCCCCCCC"))
        assert sugar.value > grease.value

    def test_solubility_render(self):
        text = predict_solubility(parse_smiles("CCO")).render()
        assert "solubility" in text

    def test_nitro_alert(self):
        alerts = structural_alerts(parse_smiles("c1ccccc1N(=O)=O"))
        assert "nitro group" in alerts

    def test_aromatic_amine_alert(self):
        alerts = structural_alerts(parse_smiles("Nc1ccccc1"))
        assert "aromatic amine" in alerts

    def test_halogen_alert(self):
        alerts = structural_alerts(parse_smiles("ClC(Cl)Cl"))
        assert any("halogen" in a for a in alerts)

    @pytest.mark.parametrize("smiles,alert", [
        ("C1CO1", True),            # epoxide
        ("C1CN1", True),            # aziridine
        ("C1CC1", False),           # cyclopropane: no heteroatom
        # cyclopropylpyridine: the N is on the 6-ring, not the 3-ring
        ("C1CC1c1ccncc1", False),
    ])
    def test_strained_heterocycle_needs_a_hetero_3_ring(self, smiles, alert):
        alerts = structural_alerts(parse_smiles(smiles))
        assert ("strained heterocycle" in alerts) is alert

    def test_clean_molecule_no_alerts(self):
        assert structural_alerts(parse_smiles("CCO")) == []

    def test_toxicity_classes(self):
        assert predict_toxicity(parse_smiles("CCO")).value == "low"
        # an all-carbon 3-ring beside a pyridine raises no alert
        assert predict_toxicity(parse_smiles("C1CC1c1ccncc1")).value == "low"
        tnt = parse_smiles("Cc1c(N(=O)=O)cc(N(=O)=O)cc1N(=O)=O")
        assert predict_toxicity(tnt).value == "high"

    def test_lipinski(self):
        assert lipinski_violations(parse_smiles("CCO")) == 0
        big = parse_smiles("C" * 40)
        assert lipinski_violations(big) >= 1

    def test_druglikeness_summary(self):
        summary = druglikeness_summary(parse_smiles("CCO"))
        assert summary["lipinski_violations"] == 0
        assert summary["alerts"] == []


class TestDatabase:
    def test_builtin_loads(self, molecule_db):
        assert len(molecule_db) >= 40
        assert "aspirin" in molecule_db

    def test_get_and_missing(self, molecule_db):
        assert molecule_db.get("benzene").n_atoms == 6
        with pytest.raises(ChatGraphError):
            molecule_db.get("unobtainium")

    def test_duplicate_add_rejected(self):
        db = MoleculeDatabase()
        db.add("x", "C")
        with pytest.raises(ChatGraphError):
            db.add("x", "CC")

    def test_self_similarity_first(self, molecule_db):
        hits = molecule_db.similarity_search(molecule_db.get("caffeine"),
                                             k=1, method="wl")
        assert hits[0].name == "caffeine"
        assert hits[0].score == pytest.approx(1.0)

    def test_ged_reranking(self, molecule_db):
        query = parse_smiles("CCCO")  # propanol
        hits = molecule_db.similarity_search(query, k=2, method="ged")
        # butane is one label substitution away (GED 1): the closest
        assert hits[0].name == "butane"
        assert hits[0].score == pytest.approx(0.5)  # 1 / (1 + 1)
        assert hits[0].method == "ged"

    def test_bad_method(self, molecule_db):
        with pytest.raises(ChatGraphError):
            molecule_db.similarity_search(parse_smiles("C"), method="xxx")

    def test_k_larger_than_db(self):
        db = MoleculeDatabase()
        db.add("only", "C")
        hits = db.similarity_search(parse_smiles("C"), k=5)
        assert len(hits) == 1
