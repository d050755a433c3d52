"""The graph-aware language-model module (paper Sec. II, Fig. 1).

SUBSTITUTION NOTE (see DESIGN.md): the paper finetunes downloaded LLMs
(ChatGLM, MOSS, Vicuna).  Offline, we substitute a trainable conditional
chain generator with the same interface: it consumes the prompt text,
the retrieved candidate APIs and the sequentialized graph, and emits an
API chain token by token.  Everything the paper contributes — retrieval
conditioning, graph sequences, the node matching-based loss and the
search-based (rollout) decoding — runs unchanged on top of it.
"""

from .prompts import Prompt
from .intent import GraphTypePredictor, IntentClassifier, predict_graph_type
from .chain_model import BatchScorer, ChainLanguageModel, TrainingExample
from .decoding import greedy_decode, greedy_decode_batch
from .simulated import PRESETS, build_model
from .persistence import load_model, save_model

__all__ = [
    "load_model",
    "save_model",
    "Prompt",
    "GraphTypePredictor",
    "IntentClassifier",
    "predict_graph_type",
    "BatchScorer",
    "ChainLanguageModel",
    "TrainingExample",
    "greedy_decode",
    "greedy_decode_batch",
    "PRESETS",
    "build_model",
]
