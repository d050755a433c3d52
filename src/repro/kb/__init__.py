"""Knowledge-graph substrate for the cleaning scenario (paper Fig. 6).

Triples, the mutable store the cleaning loop edits and the columnar int
table everything else reads (:mod:`triples`), rule mining over the table
(:mod:`rules`: relation type signatures and 2-hop path rules),
error detection / missing-link prediction (:mod:`inference`), and the
confirm-then-edit cleaning plan (:mod:`cleaning`).
"""

from .triples import Triple, TripleStore, TripleTable
from .rules import PathRule, RuleMiner, TypeSignature
from .inference import EdgeFinding, KnowledgeInferencer
from .cleaning import CleaningPlan, apply_cleaning_plan, corrupt_store

__all__ = [
    "Triple",
    "TripleStore",
    "TripleTable",
    "PathRule",
    "RuleMiner",
    "TypeSignature",
    "EdgeFinding",
    "KnowledgeInferencer",
    "CleaningPlan",
    "apply_cleaning_plan",
    "corrupt_store",
]
