"""Descriptor-based property models: solubility and toxicity.

SUBSTITUTION NOTE (see DESIGN.md): the paper invokes unnamed chemistry
software for molecule-specific APIs.  We replace those with transparent
descriptor models that exercise the same API-chain code path:

* solubility — the ESOL regression of Delaney (2004), computed from our
  own descriptor estimates;
* toxicity — structural-alert screening (nitro groups, small-halide
  load, aromatic amines, long perhalogenation) plus Lipinski-style
  physchem flags, combined into a qualitative risk class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .descriptors import (
    h_bond_acceptors,
    h_bond_donors,
    heavy_atom_count,
    logp,
    molecular_weight,
    ring_count,
    rotatable_bonds,
)
from .molecule import Molecule


@dataclass(frozen=True)
class PropertyPrediction:
    """One predicted property with its drivers (for report text)."""

    name: str
    value: float | str
    unit: str
    rationale: tuple[str, ...] = ()

    def render(self) -> str:
        value = (f"{self.value:.2f}" if isinstance(self.value, float)
                 else str(self.value))
        text = f"{self.name}: {value}{(' ' + self.unit) if self.unit else ''}"
        if self.rationale:
            text += f" ({'; '.join(self.rationale)})"
        return text


def aromatic_proportion(mol: Molecule) -> float:
    """Fraction of heavy atoms that are aromatic."""
    if not mol.atoms:
        return 0.0
    return sum(atom.aromatic for atom in mol.atoms) / mol.n_atoms


def predict_solubility(mol: Molecule) -> PropertyPrediction:
    """ESOL aqueous solubility estimate: log(mol/L).

    logS = 0.16 - 0.63*clogP - 0.0062*MW + 0.066*RB - 0.74*AP
    """
    clogp = logp(mol)
    mw = molecular_weight(mol)
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


def structural_alerts(mol: Molecule) -> list[str]:
    """Simple structural-alert screen (toxicophore heuristics)."""
    alerts: list[str] = []
    # nitro group: N bonded to two O with at least one double bond
    for atom in mol.atoms:
        if atom.element != "N":
            continue
        oxygens = [(i, order) for i, order in mol.neighbors(atom.index)
                   if mol.atoms[i].element == "O"]
        if len(oxygens) >= 2 and any(order >= 2.0 for __, order in oxygens):
            alerts.append("nitro group")
            break
    # aromatic amine: non-aromatic N attached to an aromatic atom
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
    # three-membered heterocycle (epoxide/aziridine-like strain): a
    # 3-ring holding O, N or S; each triangle closes over one of its bonds
    if _hetero_triangle(mol):
        alerts.append("strained heterocycle")
    return alerts


def _hetero_triangle(mol: Molecule) -> bool:
    """Whether some 3-ring of ``mol`` holds an O, N or S atom."""
    around = [{index for index, __ in mol.neighbors(atom.index)}
              for atom in mol.atoms]
    for bond in mol.bonds:
        for third in around[bond.u] & around[bond.v]:
            if any(mol.atoms[index].element in ("O", "N", "S")
                   for index in (bond.u, bond.v, third)):
                return True
    return False


def predict_toxicity(mol: Molecule) -> PropertyPrediction:
    """Qualitative toxicity class from alerts + physchem flags."""
    alerts = structural_alerts(mol)
    score = 2 * len(alerts)
    flags: list[str] = list(alerts)
    if molecular_weight(mol) > 500:
        score += 1
        flags.append("MW > 500")
    if logp(mol) > 5:
        score += 1
        flags.append("logP > 5")
    if h_bond_donors(mol) > 5:
        score += 1
        flags.append("HBD > 5")
    if h_bond_acceptors(mol) > 10:
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


def lipinski_violations(mol: Molecule) -> int:
    """Number of violated Lipinski rule-of-five conditions."""
    violations = 0
    if molecular_weight(mol) > 500:
        violations += 1
    if logp(mol) > 5:
        violations += 1
    if h_bond_donors(mol) > 5:
        violations += 1
    if h_bond_acceptors(mol) > 10:
        violations += 1
    return violations


def druglikeness_summary(mol: Molecule) -> dict[str, object]:
    """Compact drug-likeness report used by the molecule report API."""
    return {
        "lipinski_violations": lipinski_violations(mol),
        "heavy_atoms": heavy_atom_count(mol),
        "rings": ring_count(mol),
        "alerts": structural_alerts(mol),
    }
