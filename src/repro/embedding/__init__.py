"""Text embedding substrate.

The paper's API-retrieval module embeds API descriptions and the user's
prompt text into one vector space and runs ANN search there.  This
package provides the (offline, deterministic) embedding sub-module:
tokenization, a corpus vocabulary, TF-IDF weighting, and a hashed
n-gram embedder producing fixed-dimension unit vectors.
"""

from .tokenizer import char_ngrams, tokenize, word_ngrams
from .vocabulary import Vocabulary
from .tfidf import TfidfModel
from .hashing import HashingEmbedder

__all__ = [
    "char_ngrams",
    "tokenize",
    "word_ngrams",
    "Vocabulary",
    "TfidfModel",
    "HashingEmbedder",
]
