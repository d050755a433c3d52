"""The molecule plane against the bond-scanning bodies it replaced.

``tests/chem_oracle.py`` holds ``Molecule.neighbors`` and the ring
queries as they were before :class:`repro.chem.Molecule` kept one
adjacency index and one ring perception, plus the old
``rotatable_bonds``, ``approximate_ged`` and ``hungarian``.  Descriptors
are rounded and printed in replies and similarity scores rank the hits,
so "close" is not the contract: every comparison here is ``==`` or on
``repr`` — the same floats, the same order.

Inputs: the molecule graphs the ledger's ``chat_direct`` and
``shard_fleet`` workloads upload at seeds 0-1 (read from
``benchmarks/ledger/workloads.py``, which makes them), the built-in
library, generated molecules, and SMILES edge cases.
"""

import functools
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro.algorithms.ged import approximate_ged
from repro.algorithms.matching import hungarian
from repro.apis.catalog.molecule import _graph_to_molecule, identify_molecule
from repro.apis.executor import ChainContext
from repro.chem import (
    BUILTIN_LIBRARY,
    MoleculeDatabase,
    Molecule,
    descriptor_profile,
    parse_smiles,
    predict_solubility,
    predict_toxicity,
    random_molecule,
    rotatable_bonds,
    structural_alerts,
)
from repro.chem.properties import druglikeness_summary
from repro.graphs.graph import Graph
from repro.graphs.io import from_dict

from . import chem_oracle as oracle

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"

#: Charges, explicit H, aromatic rings, Kekulé rings, ``.`` fragments,
#: single atoms, fused / spiro / bridged rings, 3-rings with and without
#: a heteroatom and a bond between two rings.
EDGE_SMILES = (
    "C", "O", "[Na+].[Cl-]", "[NH4+]", "CC(=O)[O-]", "C[N+](C)(C)C",
    "[CH4]", "C[CH2]C", "C[NH2+]C", "c1cc[nH]c1", "C1=CC=CC=C1",
    "CCO.O", "C.C.C",
    "c1ccc2ccccc2c1", "C1CCC2(CC1)CCC2", "C1CC2CCC1C2", "C12C3C1C23",
    "C1CC1", "C1CO1", "C1CN1", "C1CS1", "C1CC1c1ccncc1", "OC1CC1",
    "C1CC1C1CC1", "C1CCC(CC1)C1CCCCC1", "c1ccccc1-c1ccccc1",
    "C1=CC1", "C#CC(=O)N", "c1ccccc1N(=O)=O",
)


@functools.lru_cache(maxsize=None)
def _ledger_workloads():
    spec = importlib.util.spec_from_file_location(
        "ledger_workloads_for_chem", LEDGER / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def ledger_molecules(seed):
    """Every molecule graph ``chat_direct`` and ``shard_fleet`` upload
    at ``seed``, once each (the two share one generator stream)."""
    workloads = _ledger_workloads()
    docs = {}
    for name in ("chat_direct", "shard_fleet"):
        run = workloads.generate(name, seed, workloads.sizes_for(name, 12))
        docs.update((key, doc) for key, doc in run.graphs.items()
                    if key.startswith("molecule-"))
    return tuple(_graph_to_molecule(from_dict(docs[key]))
                 for key in sorted(docs))


def library():
    return [parse_smiles(smiles, name=name)
            for name, smiles in BUILTIN_LIBRARY.items()]


def generated():
    return [random_molecule(n_atoms, n_rings, seed=seed)
            for seed in range(6)
            for n_atoms, n_rings in ((1, 0), (2, 1), (9, 0), (14, 2),
                                     (30, 4), (70, 6))]


def edge_cases():
    # a repeated bond: the parser refuses a ring closure onto a bonded
    # pair, but add_bond still makes one
    repeated = parse_smiles("CC", name="CC with its bond twice")
    repeated.add_bond(0, 1)
    return [parse_smiles(smiles, name=smiles)
            for smiles in EDGE_SMILES] + [repeated]


def all_molecules():
    return (list(ledger_molecules(0)) + list(ledger_molecules(1))
            + library() + generated() + edge_cases())


def test_inputs_cover_the_ledger():
    counts = [len(ledger_molecules(seed)) for seed in (0, 1)]
    assert min(counts) >= 40
    assert len(EDGE_SMILES) + len(BUILTIN_LIBRARY) > 60


def test_graph_queries_equal_oracle():
    for mol in all_molecules():
        old = oracle.OracleMolecule.of(mol)
        label = mol.smiles or mol.name
        for index in range(mol.n_atoms):
            assert mol.neighbors(index) == old.neighbors(index), label
            assert mol.implicit_hydrogens(index) == \
                old.implicit_hydrogens(index), label
        assert mol.total_hydrogens() == old.total_hydrogens(), label
        assert mol.ring_membership() == old.ring_membership(), label
        assert mol.ring_count() == old.ring_count(), label
        assert mol.is_connected() == old.is_connected(), label


def test_descriptors_and_properties_equal_oracle():
    for mol in all_molecules():
        old = oracle.OracleMolecule.of(mol)
        label = mol.smiles or mol.name
        assert rotatable_bonds(mol) == oracle.rotatable_bonds(old), label
        assert structural_alerts(mol) == oracle.structural_alerts(old), label
        for new_fn, old_fn in (
                (descriptor_profile, oracle.descriptor_profile),
                (predict_toxicity, oracle.predict_toxicity),
                (predict_solubility, oracle.predict_solubility),
                (druglikeness_summary, oracle.druglikeness_summary)):
            assert repr(new_fn(mol)) == repr(old_fn(old)), label


def test_topology_writes_reset_the_ring_perception():
    mol = parse_smiles("CCCC")
    assert mol.ring_count() == 0 and rotatable_bonds(mol) == 1
    mol.add_bond(0, 3)
    assert mol.ring_count() == 1 and rotatable_bonds(mol) == 0
    assert mol.ring_membership() == {0, 1, 2, 3}
    mol.add_atom("O")
    assert not mol.is_connected()
    mol.add_bond(3, 4)
    assert mol.is_connected() and mol.neighbors(3) == [(2, 1.0), (0, 1.0),
                                                       (4, 1.0)]
    # a molecule built from atom and bond lists indexes them too
    copy = Molecule(atoms=list(mol.atoms), bonds=list(mol.bonds),
                    smiles=mol.smiles)
    assert copy.neighbors(3) == mol.neighbors(3)
    assert copy.ring_membership() == mol.ring_membership()
    assert copy == mol


@pytest.fixture(scope="module")
def database():
    return MoleculeDatabase.builtin()


@pytest.fixture(scope="module")
def canonical_table(database):
    return {oracle.canonical_key(database.get(name)): name
            for name in database.names()}


def test_identify_molecule_equals_oracle(database, canonical_table):
    for mol in all_molecules():
        context = ChainContext(database=database, extras={"molecule": mol})
        assert repr(identify_molecule(context)) == repr(
            oracle.identify_molecule(database, canonical_table, mol)), \
            mol.smiles or mol.name


@pytest.mark.parametrize("method,k", [("wl", 1), ("wl", 5)])
def test_wl_search_equals_oracle(database, method, k):
    queries = (list(ledger_molecules(0)) + list(ledger_molecules(1))
               + library() + generated() + edge_cases())
    for query in queries:
        new = database.similarity_search(query, k=k, method=method)
        old = oracle.similarity_search(database, query, k=k, method=method)
        assert repr(new) == repr(old), query.smiles or query.name


@pytest.mark.parametrize("seed", [0, 1])
def test_ged_search_equals_oracle(database, seed):
    # the GED re-rank scores the whole 10-entry shortlist whatever k is,
    # so its top 5 decide every smaller k too
    queries = list(ledger_molecules(seed))
    if seed == 0:
        queries += library()[::3] + edge_cases()[::2]
    for query in queries:
        new = database.similarity_search(query, k=5, method="ged")
        old = oracle.similarity_search(database, query, k=5, method="ged")
        assert repr(new) == repr(old), query.smiles or query.name


def test_approximate_ged_equals_oracle():
    rng = random.Random(5)
    mols = all_molecules()
    for __ in range(60):
        g1 = rng.choice(mols).to_graph()
        g2 = rng.choice(mols).to_graph()
        new = approximate_ged(g1, g2)
        old = oracle.approximate_ged(g1, g2)
        assert new == old


def _matrix(rng, n, m):
    """Costs with ties, 1e9 entries and plain floats."""
    pool = (0.0, 0.5, 1.0, 1.5, 1e9)
    return [[rng.choice(pool) if rng.random() < 0.6
             else rng.uniform(0.0, 10.0) for __ in range(m)]
            for __ in range(n)]


def test_hungarian_equals_oracle():
    rng = random.Random(11)
    for __ in range(800):
        n, m = rng.randint(0, 9), rng.randint(1, 9)
        cost = _matrix(rng, n, m)
        assert hungarian(cost) == oracle.hungarian(cost)
    for __ in range(20):
        size = rng.randint(18, 54)
        cost = _matrix(rng, size, size)
        assert hungarian(cost) == oracle.hungarian(cost)


def test_molecule_plane_builds_no_graph(monkeypatch, database):
    mols = list(ledger_molecules(0)) + edge_cases()
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    for mol in mols:
        descriptor_profile(mol)
        predict_toxicity(mol)
        predict_solubility(mol)
        druglikeness_summary(mol)
        mol.ring_membership()
        mol.is_connected()
    assert built == []
    # the similarity search builds the query's graph, and each database
    # entry's once
    fresh = MoleculeDatabase.builtin()
    fresh.similarity_search(mols[0], method="ged")
    assert len(built) == 1 + len(fresh)
    fresh.similarity_search(mols[1], method="ged")
    assert len(built) == 2 + len(fresh)
